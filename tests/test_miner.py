import gc
import inspect
import itertools
import math
import pickle
import random
import re
import sys
import textwrap
from typing import Iterator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sigpat import (
    MineStats,
    Thresholds,
    TraceNode,
    TwoClassDataset,
    from_transactions,
    mine,
)
from sigpat.cli import main
from sigpat.dataset import dump_transactions
from sigpat.measures import ContingencyTable, check_significance, score_set
from sigpat.miner import InternalInvariantError, PatternRecord, _Search
from sigpat.oracle import mine_oracle

from conftest import random_dataset, random_thresholds
from reference import (
    Tidset,
    common_items,
    ista_mine,
    reference_mine,
    supporting_tids,
    tidset_from_masks,
    tidset_mask,
    unpruned_mine,
)

THRESHOLD_SETS = [
    Thresholds(),
    Thresholds(min_sd=0.1, min_gr=1.2, min_ors=1.5),
    Thresholds(min_ors=2.0),
    Thresholds(min_lci_ors=0.1),
    Thresholds(min_lci_gr=0.3),
    Thresholds(min_sd=0.3, min_lci_ors=0.5),
]


@pytest.mark.parametrize("thresholds", THRESHOLD_SETS)
def test_mine_matches_oracle_on_worked_table(table1, thresholds):
    records, _ = mine(table1, thresholds)
    assert records == mine_oracle(table1, thresholds)


def test_mine_worked_table_counts(table1):
    records, stats = mine(table1)
    assert len(records) == 50
    assert stats.patterns_emitted == 50
    assert stats.nodes_visited == 160
    assert stats.nodes_pruned == 0
    assert stats.nodes_duplicate == 29
    assert stats.nodes_dead == 9
    assert stats.row_scans == 107
    assert stats.min_case_support == 1
    assert stats.wall_time_seconds >= 0.0

    records, stats = mine(table1, Thresholds(min_ors=2.0))
    assert len(records) == 15
    assert stats.nodes_visited == 124
    assert stats.nodes_pruned == 35
    assert stats.nodes_duplicate == 16
    assert stats.nodes_dead == 5
    assert stats.row_scans == 55
    assert stats.min_case_support == 2


def test_mine_output_invariants(table1):
    records, _ = mine(table1)
    itemsets = [r.itemset for r in records]
    assert itemsets == sorted(itemsets)
    assert len(set(itemsets)) == len(itemsets)
    for r in records:
        assert r.itemset == tuple(sorted(r.itemset))
        q = tidset_from_masks(r.pos_mask, r.neg_mask)
        assert q.pos and q.neg
        assert r.table.a == len(q.pos)
        assert r.table.c == len(q.neg)
        assert r.table.a + r.table.b == table1.n_case
        assert r.table.c + r.table.d == table1.n_control
        assert supporting_tids(r.itemset, table1) == q
        assert common_items(q, table1) == r.itemset


def test_mine_prune_changes_nothing_but_work(table1):
    th = Thresholds(min_ors=2.0)
    pruned, st_pruned = mine(table1, th)
    full, st_full = unpruned_mine(table1, th)
    assert pruned == full
    assert st_full.nodes_pruned == 0
    assert st_pruned.nodes_visited < st_full.nodes_visited


def test_lci_gr_prunes_on_four_controls(table1):
    # the growth-rate lower bound is not monotone in the control count on
    # four controls, but the exact table top[a] still prunes there safely
    th = Thresholds(min_lci_gr=0.3)
    records, stats = mine(table1, th)
    assert stats.nodes_pruned == 29
    assert records == unpruned_mine(table1, th)[0]


def test_mine_trace_soundness(table1):
    trace: list[TraceNode] = []
    _, stats = mine(table1, trace=trace)
    assert len(trace) == stats.nodes_visited == 160
    for node in trace:
        assert node.pos
        assert node.items
        q = Tidset(node.pos, node.neg)
        assert common_items(q, table1) == node.items


def test_mine_trace_soundness_with_pruning(table1):
    # pruned and cut children are counted and traced by their parent without
    # a row scan
    trace: list[TraceNode] = []
    _, stats = mine(table1, Thresholds(min_ors=2.0), trace=trace)
    assert len(trace) == stats.nodes_visited == 124
    assert stats.nodes_pruned == 35
    for node in trace:
        assert common_items(Tidset(node.pos, node.neg), table1) == node.items


@pytest.mark.parametrize(
    "thresholds, counts",
    [
        (Thresholds(), (2710, 0, 501)),
        (Thresholds(min_ors=2.0), (2137, 1020, 121)),
        (Thresholds(min_ors=2.0, min_lci_ors=1.0), (430, 316, 0)),
        (Thresholds(min_sd=0.2, min_lci_gr=1.0), (213, 168, 0)),
    ],
)
def test_mine_pinned_counters(thresholds, counts):
    rng = random.Random(5)
    names = [f"i{k}" for k in range(24)]
    case = [[x for x in names if rng.random() < 0.4] for _ in range(12)]
    control = [[x for x in names if rng.random() < 0.4] for _ in range(12)]
    d = from_transactions(case, control)
    records, stats = mine(d, thresholds)
    assert (stats.nodes_visited, stats.nodes_pruned, stats.patterns_emitted) == counts
    assert records == unpruned_mine(d, thresholds)[0]


def test_mine_trace_contains_closure_jumps(table1):
    def ids(names):
        return tuple(sorted(table1.items.index(x) for x in names))

    trace: list[TraceNode] = []
    mine(table1, trace=trace)
    nodes = {(n.pos, n.neg): n.items for n in trace}
    # adding control 9 to cases {1,2} leaves only item a, whose support
    # closure pulls in control 7: both nodes must have been visited
    assert nodes[(0, 1), (8,)] == ids("a")
    assert nodes[(0, 1), (6, 8)] == ids("a")
    # the closure of cases {2} with controls {8,9} jumps to control 6
    assert nodes[(1,), (7, 8)] == ids("e")
    assert nodes[(1,), (5, 7, 8)] == ids("e")


def test_mine_input_validation():
    single = from_transactions([["a"], ["b"]], [])
    with pytest.raises(ValueError):
        mine(single)


def test_mine_trivial_dataset():
    d = from_transactions([["x"]], [["x"]])
    records, _ = mine(d)
    assert len(records) == 1
    assert (records[0].pos_mask, records[0].neg_mask) == (0b01, 0b10)


def test_mine_matches_oracle_random_sweep():
    rng = random.Random(5150)
    for _ in range(40):
        d = random_dataset(rng, max_case=7, max_control=7, max_items=11)
        thresholds = random_thresholds(rng)
        records, _ = mine(d, thresholds)
        assert records == mine_oracle(d, thresholds)
        assert records == unpruned_mine(d, thresholds)[0]


@st.composite
def twin_heavy_datasets(draw):
    """Datasets over 1-6 items whose transactions mostly repeat a few item sets.

    Each transaction is one of up to six drawn item sets or a set of its own,
    and there are at least two controls, so control nodes that are not
    case-closed and still have children come up in about one example in ten.
    """
    names = [f"i{k}" for k in range(draw(st.integers(1, 6)))]
    pool = draw(st.lists(st.sets(st.sampled_from(names)), min_size=1, max_size=6))
    row = st.one_of(st.sampled_from(pool), st.sets(st.sampled_from(names)))
    case = draw(st.lists(row, min_size=1, max_size=12))
    control = draw(st.lists(row, min_size=2, max_size=12))
    return from_transactions(case, control)


def counters(stats: MineStats) -> MineStats:
    return stats._replace(wall_time_seconds=0.0)


def visits(stats: MineStats) -> MineStats:
    """The counters that the engine shares with the reference, which scans more."""
    return counters(stats)._replace(row_scans=0)


@settings(max_examples=150, deadline=None)
@given(twin_heavy_datasets())
# below root 1, control 3 closes over case 0 and has the child 2
@example(from_transactions([["x", "z"], ["x", "y", "z"]], [["x"], ["x", "z"]]))
def test_mine_matches_row_scanning_reference(d):
    # children dominated by a scanned sibling are counted and traced in the
    # parent without a row scan; counters, traces and records must equal
    # those of the search that scans rows for every child
    for thresholds in THRESHOLD_SETS:
        trace: list[TraceNode] = []
        ref_trace: list[TraceNode] = []
        records, stats = mine(d, thresholds, trace=trace)
        ref_records, ref_stats = reference_mine(d, thresholds, trace=ref_trace)
        untraced_records, untraced_stats = mine(d, thresholds)
        assert trace == ref_trace
        assert records == ref_records == untraced_records
        # records are built with tuple.__new__, which must still give the type itself
        assert {type(r) for r in records + ref_records + untraced_records} <= {PatternRecord}
        assert counters(stats) == counters(untraced_stats)
        assert visits(stats) == visits(ref_stats)
        assert ref_stats.row_scans >= stats.row_scans


def test_reference_scans_every_child_itself(table1):
    # the reference runs its own search, which scans the children that the
    # engine counts without a scan: were it to run the engine's loop, the
    # two would make the same scans
    records, stats = mine(table1)
    ref_records, ref_stats = reference_mine(table1)
    assert records == ref_records
    assert visits(stats) == visits(ref_stats)
    assert ref_stats.row_scans > stats.row_scans


def test_a_pattern_emitted_twice_is_an_internal_error(table1):
    class EmitsTwice(_Search):
        def _emit(self, tpos, tneg, a, c, rows):
            super()._emit(tpos, tneg, a, c, rows)
            super()._emit(tpos, tneg, a, c, rows)

    records, _ = mine(table1)
    search = EmitsTwice(table1, Thresholds(), None)
    message = f"closed pattern emitted twice: {records[0].itemset}"
    with pytest.raises(InternalInvariantError, match=f"^{re.escape(message)}$"):
        search.search()


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-enabled", "gc-disabled"])
def test_search_pauses_the_collector_and_restores_it(table1, enabled):
    class Watched(_Search):
        def _emit(self, *args):
            collecting.append(gc.isenabled())
            super()._emit(*args)

    class Fails(_Search):
        def _emit(self, *args):
            raise RuntimeError("emit failed")

    collecting: list[bool] = []
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        records, _ = Watched(table1, Thresholds(), None).search()
        assert gc.isenabled() is enabled
        assert records == mine(table1)[0]
        assert gc.isenabled() is enabled
        assert collecting and not any(collecting)  # paused during the search
        with pytest.raises(RuntimeError, match="^emit failed$"):
            Fails(table1, Thresholds(), None).search()
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


THRESHOLD_VALUES = {
    "min_sd": st.floats(-0.3, 0.8),
    "min_gr": st.floats(0.0, 4.0),
    "min_ors": st.floats(0.0, 6.0),
    "min_lci_gr": st.floats(-0.5, 2.5),
    "min_lci_ors": st.floats(-0.5, 3.0),
}


@st.composite
def any_thresholds(draw):
    """Any subset of the five thresholds, each drawn from a range it can bite in."""
    names = draw(st.sets(st.sampled_from(sorted(THRESHOLD_VALUES))))
    return Thresholds(**{name: draw(THRESHOLD_VALUES[name]) for name in names})


@settings(max_examples=300, deadline=None)
@given(twin_heavy_datasets(), any_thresholds())
def test_exact_prune_keeps_every_pattern(d, thresholds):
    records, _ = mine(d, thresholds)
    assert records == unpruned_mine(d, thresholds)[0]
    if d.n <= 16:
        assert records == mine_oracle(d, thresholds)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 60), st.integers(1, 60), any_thresholds())
# min_sd * n_control overflows to -inf, which caps every c < n_control
@example(5, 7, Thresholds(min_sd=1e308))
@example(5, 7, Thresholds(min_sd=1.7e308))
def test_top_matches_a_naive_scan(n_case, n_control, thresholds):
    # top[a] scans down from the thresholds' caps; a naive scan tries every c
    search = _Search(TwoClassDataset((), n_case, n_control, (), ()), thresholds, None)
    for a in range(1, n_case + 1):
        passing = [
            c
            for c in range(1, n_control + 1)
            if check_significance(
                score_set(ContingencyTable(a, n_case - a, c, n_control - c)), thresholds
            )
        ]
        assert search._top(a) == max(passing, default=0)


def boundary_checks(search_class) -> Iterator[bool]:
    """Whether ``search_class._top(a)`` equals a naive scan over c, check by
    check: every finite score that a table with n1, n2 <= 8 attains is set as
    each threshold in turn, where a cap computed in floats must land exactly."""
    fields = dict(zip(Thresholds._fields, ("sd", "gr", "ors", "lci_gr", "lci_ors")))
    for n1, n2 in itertools.product(range(1, 9), repeat=2):
        scores = {(a, c): score_set(ContingencyTable(a, n1 - a, c, n2 - c))
                  for a in range(n1 + 1) for c in range(n2 + 1)}
        for name, field in fields.items():
            values = {getattr(s, field) for s in scores.values()}
            for value in sorted(filter(math.isfinite, values)):
                thresholds = Thresholds(**{name: value})
                search = search_class(TwoClassDataset((), n1, n2, (), ()), thresholds, None)
                for a in range(1, n1 + 1):
                    passing = (c for c in range(n2, 0, -1)
                               if check_significance(scores[a, c], thresholds))
                    yield search._top(a) == next(passing, 0)


def test_top_matches_a_naive_scan_at_attained_scores():
    checks = list(boundary_checks(_Search))
    assert len(checks) == 38_979 and all(checks)


def test_boundary_checks_catch_a_cap_off_by_one():
    # a copy of _top whose cap has no + 1 slack stops one control count short
    source = textwrap.dedent(inspect.getsource(_Search._top))
    slack = "int(max(min(caps), -1)) + 1"
    assert source.count(slack) == 1
    namespace = dict(vars(sys.modules[_Search.__module__]))
    exec(source.replace(slack, "int(max(min(caps), -1))"), namespace)
    planted = type("Planted", (_Search,), {"_top": namespace["_top"]})
    assert not all(boundary_checks(planted))


def pooled_dataset(seed: int, n_case: int, n_control: int, n_items: int, density: float, pool: int):
    """Transactions that each copy one of ``pool`` random item sets, with
    every item flipped with probability 0.1: near twins at every level."""
    rng = random.Random(seed)
    names = [f"i{k}" for k in range(n_items)]
    base = [{x for x in names if rng.random() < density} for _ in range(pool)]

    def row():
        chosen = rng.choice(base)
        return [x for x in names if (x in chosen) != (rng.random() < 0.1)]

    return from_transactions([row() for _ in range(n_case)], [row() for _ in range(n_control)])


#: past the oracle's 24 transactions and 20 items
MID_SIZE = [(30, 30, 50, 0.35, 8), (40, 36, 40, 0.4, 6), (26, 34, 70, 0.3, 12)]


@pytest.mark.parametrize("thresholds", [
    Thresholds(min_sd=0.1),
    Thresholds(min_gr=1.5),
    Thresholds(min_ors=1.5),
    Thresholds(min_lci_gr=0.6),
    Thresholds(min_lci_ors=0.6),
], ids=["sd", "gr", "ors", "lci_gr", "lci_ors"])
def test_mine_matches_closed_tidset_intersections(thresholds):
    # the closed tidsets are the intersections of item rows, so listing
    # them all checks that no pattern is missing on inputs too large for
    # the oracle
    for seed, shape in enumerate(MID_SIZE):
        d = pooled_dataset(seed, *shape)
        records, stats = mine(d, thresholds)
        assert records == ista_mine(d, thresholds)
        assert stats.nodes_dead > 0


def check_tracing_scans_the_same(d) -> None:
    for thresholds in THRESHOLD_SETS:
        trace: list[TraceNode] = []
        records, stats = mine(d, thresholds, trace=trace)
        untraced_records, untraced_stats = mine(d, thresholds)
        assert stats.row_scans == untraced_stats.row_scans
        assert len(trace) == stats.nodes_visited
        assert counters(stats) == counters(untraced_stats)
        assert records == untraced_records


def test_tracing_scans_the_same_rows_on_worked_table(table1):
    check_tracing_scans_the_same(table1)


@settings(max_examples=100, deadline=None)
@given(twin_heavy_datasets())
def test_tracing_scans_the_same_rows(d):
    # a traced search skips the same children as an untraced one, so both
    # make the same number of row scans
    check_tracing_scans_the_same(d)


def test_trace_lists_a_dominated_child_after_the_scan_that_shows_it():
    # cases 0 and 2 hold x, case 1 holds y: root 2's scan shows that case 0
    # lies only in rows holding 2, so root 0 is traced right after root 2's
    # subtree and before root 1, which is not dominated
    d = from_transactions([["x"], ["y"], ["x"]], [["x", "y"]])
    x, y = d.items.index("x"), d.items.index("y")
    trace: list[TraceNode] = []
    ref_trace: list[TraceNode] = []
    _, stats = mine(d, trace=trace)
    reference_mine(d, trace=ref_trace)
    assert trace == ref_trace == [
        TraceNode((2,), (), (x,)),
        TraceNode((0, 2), (), (x,)),
        TraceNode((0, 2), (3,), (x,)),
        TraceNode((0,), (), (x,)),
        TraceNode((1,), (), (y,)),
        TraceNode((1,), (3,), (y,)),
    ]
    assert stats.nodes_duplicate == 1


def check_scans(d, scans: int, thresholds: Thresholds = Thresholds()) -> MineStats:
    """Mine ``d``, check it makes ``scans`` row scans and matches the reference."""
    records, stats = mine(d, thresholds)
    ref_records, ref_stats = reference_mine(d, thresholds)
    assert stats.row_scans == scans
    assert visits(stats) == visits(ref_stats)
    assert records == ref_records
    return stats


def counts(stats: MineStats) -> tuple[int, int, int]:
    return stats.nodes_visited, stats.nodes_duplicate, stats.nodes_dead


def test_children_dominated_by_a_scanned_sibling_are_not_scanned():
    # cases 0-2 hold x and case 3 holds x and y: below root 3, child 2 is
    # scanned first and lies in row x alone, so children 1 and 0, which lie
    # only in row x too, are counted as its duplicates without a scan; so
    # are roots 2, 1 and 0, which lie only in rows holding root 3
    d = from_transactions([["x"]] * 3 + [["x", "y"]], [["z"]])
    stats = check_scans(d, 2)
    assert counts(stats) == (8, 5, 0)
    # controls 4-7 hold x: below child 2, closed to cases 0-3, control child
    # 7 closes over 4-6, which lie only where 7 does, so they are counted
    # without a scan too; below root 3 the controls lie only in row x, which
    # holds case 2, so they are dead
    d = from_transactions([["x"]] * 3 + [["x", "y"]], [["x"]] * 4)
    stats = check_scans(d, 3)
    assert counts(stats) == (13, 8, 4)


def test_twin_above_the_opening_tid_is_not_scanned():
    # case rows: x holds 0-3, y holds 1 and 3, z holds 0 and 2. Root 3's scan
    # shows that case 1 lies only in rows holding 3, so below root 2 (closed
    # to {0, 2}) child 1, whose closure adds 3, is counted without a scan
    d = from_transactions([["x", "z"], ["x", "y"], ["x", "z"], ["x", "y"]], [["x"]])
    stats = check_scans(d, 4)
    assert counts(stats) == (11, 4, 2)


def test_dead_control_child_is_not_scanned():
    # root 1's scan shows that control 2 lies only in rows holding case 1,
    # so below root 0 the control child 2 cannot be case-closed: it is
    # counted in nodes_dead, not as visited, and not scanned
    d = from_transactions([["a", "c"], ["a", "b"]], [["a", "b"]])
    stats = check_scans(d, 5)
    assert counts(stats) == (5, 0, 1)
    assert mine(d)[0] == mine_oracle(d)


def chain_dataset(n: int):
    """One case holding x0..x(n-1) and n controls, control j holding x0..xj."""
    names = [f"x{j}" for j in range(n)]
    return from_transactions([names], [names[: j + 1] for j in range(n)])


def test_chain_scans_each_control_once():
    # one case and n controls, control j holding items x0..xj: each control
    # closes over the ones above it, so a control child's scan shows all its
    # lower siblings dominated and the n(n+1)/2 visited nodes take n+1 scans
    n = 200
    stats = check_scans(chain_dataset(n), n + 1)
    assert stats.nodes_visited == n * (n + 1) // 2 + 1
    assert stats.patterns_emitted == n


def test_long_chain_fits_the_stack(monkeypatch):
    # the search loops instead of recursing, so 1,500 control levels need no
    # more stack than one, and mine never touches the recursion limit
    def refuse(limit):
        raise AssertionError("mine changed the recursion limit")

    assert sys.getrecursionlimit() < 1500
    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    records, stats = mine(chain_dataset(1500))
    assert len(records) == stats.patterns_emitted == 1500


def test_cli_mines_a_chain_deeper_than_the_default_recursion_limit(tmp_path, capsys):
    # 1,500 control levels, more than Python's default limit of 1,000 frames:
    # the search loop walks them in one frame
    path, out = tmp_path / "chain.tct", tmp_path / "patterns.csv"
    path.write_text(dump_transactions(chain_dataset(1500)), encoding="utf-8")
    limit = sys.getrecursionlimit()
    assert main(["mine", "--input", str(path), "--output", str(out)]) == 0
    assert sys.getrecursionlimit() == limit
    assert len(out.read_text().splitlines()) == 1 + 1500
    assert capsys.readouterr().err == ""


@st.composite
def skewed_datasets(draw):
    """Datasets whose items sit in very different numbers of cases."""
    n_case = draw(st.integers(1, 10))
    n_control = draw(st.integers(1, 10))
    items = range(draw(st.integers(1, 6)))
    case = [[] for _ in range(n_case)]
    control = [[] for _ in range(n_control)]
    for i in items:
        for part in (case, control):
            k = draw(st.integers(0, len(part)))
            for t in draw(st.sets(st.integers(0, len(part) - 1), min_size=k, max_size=k)):
                part[t].append(f"i{i}")
    return from_transactions(case, control)


FLOOR_THRESHOLDS = {
    "min_ors": st.floats(1.0, 6.0),
    "min_sd": st.floats(0.0, 0.7),
    "min_lci_ors": st.floats(0.3, 3.0),
    "min_lci_gr": st.floats(0.3, 2.0),
}


@st.composite
def floor_thresholds(draw):
    """One to four of the thresholds that imply a least case count."""
    names = draw(st.sets(st.sampled_from(sorted(FLOOR_THRESHOLDS)), min_size=1))
    return Thresholds(**{name: draw(FLOOR_THRESHOLDS[name]) for name in names})


@settings(max_examples=200, deadline=None)
@given(skewed_datasets(), floor_thresholds())
def test_case_count_cut_loses_no_pattern(d, thresholds):
    # case children that cannot reach the least hopeful case count are cut
    # in the parent: the records stay those of the unpruned search
    trace: list[TraceNode] = []
    records, stats = mine(d, thresholds, trace=trace)
    unpruned, full = unpruned_mine(d, thresholds)
    assert records == unpruned
    if d.n <= 12:
        assert records == mine_oracle(d, thresholds)
    # a pruned or cut child counts as visited where the unpruned search may
    # count it as dead
    assert stats.nodes_visited + stats.nodes_dead <= full.nodes_visited + full.nodes_dead
    assert len(trace) == stats.nodes_visited
    for node in trace:
        assert common_items(Tidset(node.pos, node.neg), d) == node.items
    floor = stats.min_case_support
    assert all(floor is not None and r.table.a >= floor for r in records)


def test_case_children_below_the_floor_are_not_scanned():
    # min_sd 0.5 over six cases and six controls needs four case tids, and
    # every item sits in three cases, so no root can reach four
    th = Thresholds(min_sd=0.5)
    d = from_transactions(
        [["x"], ["x", "z"], ["x"], ["y", "z"], ["y"], ["y", "z"]], [["x", "y", "z"]] * 6
    )
    stats = check_scans(d, 0, th)
    assert (stats.nodes_visited, stats.nodes_pruned) == (6, 6)
    assert stats.min_case_support == 4
    # with case 5 in row x too, root 5 alone is kept: x holds it and cases
    # 0-2. Below it the case children 4, 3, 1 and 0 are cut without a scan,
    # child 2 is scanned and closes to cases 0-2 and 5, and the six control
    # children of root 5 are pruned
    d = from_transactions(
        [["x"], ["x", "z"], ["x"], ["y", "z"], ["y"], ["x", "y", "z"]], [["y", "z"]] * 6
    )
    stats = check_scans(d, 2, th)
    assert (stats.nodes_visited, stats.nodes_pruned) == (18, 15)
    assert mine(d, th)[0] == unpruned_mine(d, th)[0] == []


def test_mine_stats_type():
    assert MineStats().nodes_visited == 0
    assert MineStats().wall_time_seconds == 0.0


def check_records_api(records, dataset):
    assert records == mine_oracle(dataset)
    for r in records:
        q = tidset_from_masks(r.pos_mask, r.neg_mask)
        assert q == supporting_tids(r.itemset, dataset)
        assert r.pos_mask | r.neg_mask == tidset_mask(q, dataset)
        assert r.pos_mask & dataset.control_mask == 0
        assert r.neg_mask & dataset.case_mask == 0
    assert len(set(records)) == len(records)


def test_records_carry_masks_and_build_tidsets(table1):
    records, _ = mine(table1)
    check_records_api(records, table1)
    rng = random.Random(606)
    for _ in range(30):
        d = random_dataset(rng, max_case=7, max_control=7, max_items=11)
        check_records_api(mine(d)[0], d)


def test_records_are_frozen_and_hashable(table1):
    r = mine(table1)[0][0]
    same = mine_oracle(table1)[0]
    assert r == same and r.table is not same.table
    assert hash(r) == hash(same)
    for field in r._fields:
        with pytest.raises(AttributeError):
            setattr(r, field, None)


def test_records_of_one_control_tidset_share_one_mask():
    # 12 cases put every control mask above 256, past CPython's cached small ints
    rng = random.Random(31)
    rows = [[x for x in "abcdefghijkl" if rng.random() < 0.5] for _ in range(22)]
    d = from_transactions(rows[:12], rows[12:])
    records, _ = mine(d)
    first: dict[int, PatternRecord] = {}
    shared = 0
    for r in records:
        same = first.setdefault(r.neg_mask, r)
        assert same.neg_mask is r.neg_mask
        shared += same is not r
        if (same.table.a, same.table.c) == (r.table.a, r.table.c):
            assert same.table is r.table and same.scores is r.scores
    assert shared > 100 and len(first) > 10


def test_value_types_are_frozen_checked_and_picklable(table1):
    records, stats = mine(table1)
    r = records[0]
    thresholds = Thresholds(min_ors=2.0)
    values = (table1, r.table, r.scores, thresholds, r, stats)
    assert [type(v).__name__ for v in values] == [
        "TwoClassDataset", "ContingencyTable", "ScoreSet", "Thresholds", "PatternRecord",
        "MineStats",
    ]
    for value in values:
        # neither an unknown attribute nor a field can be set, and no
        # instance carries a __dict__ to take one
        for name in ("foo", value._fields[0]):
            with pytest.raises(AttributeError):
                setattr(value, name, 1)
        assert not hasattr(value, "__dict__")
    # _replace goes through the same checks as the constructor
    with pytest.raises(ValueError, match="non-negative"):
        r.table._replace(a=-1)
    with pytest.raises(ValueError, match="min_gr must be non-negative"):
        thresholds._replace(min_gr=-1)
    assert r.table._replace(a=0).a == 0
    for value in (r, table1, stats, thresholds):
        back = pickle.loads(pickle.dumps(value))
        assert back == value and type(back) is type(value)
