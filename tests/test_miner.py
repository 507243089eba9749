import inspect
import pickle
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sigpat import (
    MinerConfig,
    MineStats,
    Thresholds,
    Tidset,
    TraceNode,
    from_transactions,
    mine,
    mine_oracle,
)
from sigpat.cli import main
from sigpat.dataset import dump_transactions
from sigpat.measures import ContingencyTable, check_significance
from sigpat.miner import _Search

from conftest import random_dataset, random_thresholds
from reference import (
    ReferenceSearch,
    common_items,
    ista_mine,
    reference_mine,
    supporting_tids,
    tidset_mask,
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
    records, _ = mine(table1, MinerConfig(thresholds=thresholds))
    assert records == mine_oracle(table1, MinerConfig(thresholds=thresholds))


def test_mine_worked_table_counts(table1):
    records, stats = mine(table1)
    assert len(records) == 50
    assert stats.patterns_emitted == 50
    assert stats.nodes_visited == 160
    assert stats.nodes_pruned == 0
    assert stats.nodes_duplicate == 29
    assert stats.nodes_dead == 9
    assert stats.min_case_support is None
    assert stats.wall_time_seconds >= 0.0

    records, stats = mine(table1, MinerConfig(thresholds=Thresholds(min_ors=2.0)))
    assert len(records) == 15
    assert stats.nodes_visited == 124
    assert stats.nodes_pruned == 35
    assert stats.nodes_duplicate == 16
    assert stats.nodes_dead == 5
    assert stats.min_case_support == 2


def test_mine_output_invariants(table1):
    records, _ = mine(table1)
    itemsets = [r.itemset for r in records]
    assert itemsets == sorted(itemsets)
    assert len(set(itemsets)) == len(itemsets)
    for r in records:
        assert r.itemset == tuple(sorted(r.itemset))
        assert r.tidset.pos and r.tidset.neg
        assert r.table.a == len(r.tidset.pos)
        assert r.table.c == len(r.tidset.neg)
        assert r.table.a + r.table.b == table1.n_case
        assert r.table.c + r.table.d == table1.n_control
        assert supporting_tids(r.itemset, table1) == r.tidset
        assert common_items(r.tidset, table1) == r.itemset


def test_mine_prune_changes_nothing_but_work(table1):
    th = Thresholds(min_ors=2.0)
    pruned, st_pruned = mine(table1, MinerConfig(thresholds=th))
    full, st_full = mine(table1, MinerConfig(thresholds=th, prune=False))
    assert pruned == full
    assert st_full.nodes_pruned == 0
    assert st_pruned.nodes_visited < st_full.nodes_visited


def test_mine_prune_noop_without_thresholds(table1):
    on, st_on = mine(table1, MinerConfig(prune=True))
    off, st_off = mine(table1, MinerConfig(prune=False))
    assert on == off
    assert st_on.nodes_visited == st_off.nodes_visited
    assert st_on.nodes_pruned == 0


def test_lci_gr_prunes_on_four_controls(table1):
    # the growth-rate lower bound is not monotone in the control count on
    # four controls, but the exact table top[a] still prunes there safely
    cfg = MinerConfig(thresholds=Thresholds(min_lci_gr=0.3))
    records, stats = mine(table1, cfg)
    assert stats.nodes_pruned == 29
    assert records == mine(table1, cfg._replace(prune=False))[0]


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
    _, stats = mine(table1, MinerConfig(thresholds=Thresholds(min_ors=2.0)), trace=trace)
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
    records, stats = mine(d, MinerConfig(thresholds=thresholds))
    assert (stats.nodes_visited, stats.nodes_pruned, stats.patterns_emitted) == counts
    unpruned, _ = mine(d, MinerConfig(thresholds=thresholds, prune=False))
    assert records == unpruned


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
    assert records[0].tidset == Tidset((0,), (1,))


def test_mine_matches_oracle_random_sweep():
    rng = random.Random(5150)
    for _ in range(40):
        d = random_dataset(rng, max_case=7, max_control=7, max_items=11)
        cfg = MinerConfig(thresholds=random_thresholds(rng))
        records, _ = mine(d, cfg)
        assert records == mine_oracle(d, cfg)
        unpruned, _ = mine(d, MinerConfig(thresholds=cfg.thresholds, prune=False))
        assert records == unpruned


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


@settings(max_examples=150, deadline=None)
@given(twin_heavy_datasets())
# below root 1, control 3 closes over case 0 and has the child 2
@example(from_transactions([["x", "z"], ["x", "y", "z"]], [["x"], ["x", "z"]]))
def test_mine_matches_row_scanning_reference(d):
    # children dominated by a scanned sibling are counted and traced in the
    # parent without a row scan; counters, traces and records must equal
    # those of the search that scans rows for every child
    for thresholds in THRESHOLD_SETS:
        for prune in (True, False):
            cfg = MinerConfig(thresholds=thresholds, prune=prune)
            trace: list[TraceNode] = []
            ref_trace: list[TraceNode] = []
            records, stats = mine(d, cfg, trace=trace)
            ref_records, ref_stats = reference_mine(d, cfg, trace=ref_trace)
            untraced_records, untraced_stats = mine(d, cfg)
            assert trace == ref_trace
            assert records == ref_records == untraced_records
            assert counters(stats) == counters(ref_stats) == counters(untraced_stats)


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
    cfg = MinerConfig(thresholds=thresholds)
    records, _ = mine(d, cfg)
    assert records == mine(d, cfg._replace(prune=False))[0]
    if d.n <= 16:
        assert records == mine_oracle(d, cfg)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 60), st.integers(1, 60), any_thresholds())
def test_top_matches_a_naive_scan(n_case, n_control, thresholds):
    # top[a] scans down from the thresholds' caps; a naive scan tries every c
    search = _Search(n_case, n_control, MinerConfig(thresholds=thresholds), None)
    for a in range(1, n_case + 1):
        passing = [
            c
            for c in range(1, n_control + 1)
            if check_significance(
                ContingencyTable(a, n_case - a, c, n_control - c), thresholds
            )
        ]
        assert search._top(a) == max(passing, default=0)


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
        records, stats = mine(d, MinerConfig(thresholds=thresholds))
        assert records == ista_mine(d, thresholds)
        assert stats.nodes_dead > 0


class Counting(_Search):
    """The engine, noting each row scan: case tid e as e, control tid e as -e."""

    def __init__(self, *args):
        super().__init__(*args)
        self.scanned = []

    def expand(self, tpos, a, tneg, e, rows, dom, dead):
        self.scanned.append(e if e < self.n_case else -e)
        return super().expand(tpos, a, tneg, e, rows, dom, dead)


def counts(search: _Search) -> tuple[int, int, int]:
    return search.nodes_visited, search.nodes_duplicate, search.nodes_dead


def scans(d, thresholds: Thresholds, trace: list[TraceNode] | None) -> Counting:
    search = Counting(d.n_case, d.n_control, MinerConfig(thresholds=thresholds), trace)
    search.run(tuple(enumerate(d.rows)))
    return search


def check_tracing_scans_the_same(d) -> None:
    for thresholds in THRESHOLD_SETS:
        traced = scans(d, thresholds, [])
        untraced = scans(d, thresholds, None)
        assert traced.scanned == untraced.scanned
        assert len(traced.trace) == traced.nodes_visited
        assert counts(traced) == counts(untraced)
        assert traced.records == untraced.records


def test_tracing_scans_the_same_rows_on_worked_table(table1):
    check_tracing_scans_the_same(table1)


@settings(max_examples=100, deadline=None)
@given(twin_heavy_datasets())
def test_tracing_scans_the_same_rows(d):
    # a traced search skips the same children as an untraced one, so both
    # make the same row scans in the same order
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
    reference_mine(d, MinerConfig(), trace=ref_trace)
    assert trace == ref_trace == [
        TraceNode((2,), (), (x,)),
        TraceNode((0, 2), (), (x,)),
        TraceNode((0, 2), (3,), (x,)),
        TraceNode((0,), (), (x,)),
        TraceNode((1,), (), (y,)),
        TraceNode((1,), (3,), (y,)),
    ]
    assert stats.nodes_duplicate == 1


def test_children_dominated_by_a_scanned_sibling_are_not_scanned():
    # case tids 0-6 all hold x and only tid 3 holds y: below root 3, child 2
    # is scanned first and lies in row x alone, so children 1 and 0, which
    # lie only in row x too, are counted as its duplicates without a scan;
    # control 7 lies only in row x, which holds case 2, so it is dead
    d = from_transactions([["x"]] * 3 + [["x", "y"]] + [["x"]] * 3, [["x"]])
    search = Counting(d.n_case, d.n_control, MinerConfig(), None)
    search.expand(0, 0, 0, 3, tuple(enumerate(d.rows)), 0, 0)
    assert search.scanned == [3, 2]
    assert counts(search) == (4, 3, 1)
    # controls 7 (x) and 8-10 (x, y): control child 10 closes over 8 and 9,
    # which lie only where 10 does, so they are counted without a scan too
    d = from_transactions([["x"]] * 3 + [["x", "y"]] + [["x"]] * 3, [["x"]] + [["x", "y"]] * 3)
    rows = tuple(enumerate(d.rows))
    search = Counting(d.n_case, d.n_control, MinerConfig(), None)
    search.expand(0, 0, 0, 3, rows, 0, 0)
    ref = ReferenceSearch(d.n_case, d.n_control, MinerConfig(), None)
    ref.expand_case(0, 3, rows, 0, 0)
    assert search.scanned == [3, 2, -10]
    assert counts(search) == counts(ref) == (8, 5, 2)
    assert search.records == ref.records


def test_twin_above_the_opening_tid_is_not_scanned():
    # case rows: x holds 0-3, y holds 1 and 3, z holds 0 and 2. Root 3's scan
    # shows that case 1 lies only in rows holding 3, so below root 2 (closed
    # to {0, 2}) child 1, whose closure adds 3, is counted without a scan
    d = from_transactions([["x", "z"], ["x", "y"], ["x", "z"], ["x", "y"]], [["x"]])
    search = Counting(d.n_case, d.n_control, MinerConfig(), None)
    search.run(tuple(enumerate(d.rows)))
    ref = ReferenceSearch(d.n_case, d.n_control, MinerConfig(), None)
    ref.run(tuple(enumerate(d.rows)))
    assert search.scanned == [3, 2, -4, 2]
    assert counts(search) == counts(ref) == (11, 4, 2)
    assert search.records == ref.records


def test_dead_control_child_is_not_scanned():
    # root 1's scan shows that control 2 lies only in rows holding case 1,
    # so below root 0 the control child 2 cannot be case-closed: it is
    # counted in nodes_dead, not as visited, and not scanned
    d = from_transactions([["a", "c"], ["a", "b"]], [["a", "b"]])
    search = Counting(d.n_case, d.n_control, MinerConfig(), None)
    search.run(tuple(enumerate(d.rows)))
    ref = ReferenceSearch(d.n_case, d.n_control, MinerConfig(), None)
    ref.run(tuple(enumerate(d.rows)))
    assert search.scanned == [1, 0, -2, -2, 0]
    assert counts(search) == counts(ref) == (5, 0, 1)
    records, stats = mine(d)
    assert records == mine_oracle(d) and stats.nodes_dead == 1


def chain_dataset(n: int):
    """One case holding x0..x(n-1) and n controls, control j holding x0..xj."""
    names = [f"x{j}" for j in range(n)]
    return from_transactions([names], [names[: j + 1] for j in range(n)])


def test_chain_scans_each_control_once():
    # one case and n controls, control j holding items x0..xj: each control
    # closes over the ones above it, so a control child's scan shows all its
    # lower siblings dominated and the n(n+1)/2 visited nodes take n+1 scans
    n = 200
    d = chain_dataset(n)
    search = Counting(d.n_case, d.n_control, MinerConfig(), None)
    search.run(tuple(enumerate(d.rows)))
    assert len(search.scanned) == n + 1
    assert search.nodes_visited == n * (n + 1) // 2 + 1
    assert len(search.records) == n


def test_long_chain_fits_the_stack():
    # every control level of the search costs one stack frame: mine raises
    # this low limit by 2 * n_case + n_control + 50, which a search taking two
    # frames per control level would overrun
    n = 300
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 50)
    try:
        records, stats = mine(chain_dataset(n))
    finally:
        sys.setrecursionlimit(limit)
    assert len(records) == stats.patterns_emitted == n


def test_cli_mines_a_chain_deeper_than_the_default_recursion_limit(tmp_path, capsys):
    # 1,500 control levels take more frames than Python's default limit of
    # 1,000: mine raises the limit while it searches, then restores it
    path, out = tmp_path / "chain.tct", tmp_path / "patterns.csv"
    dump_transactions(chain_dataset(1500), path)
    limit = sys.getrecursionlimit()
    assert main(["mine", "--input", str(path), "--output", str(out)]) == 0
    assert sys.getrecursionlimit() == limit
    assert len(out.read_text().splitlines()) == 1 + 1500
    assert capsys.readouterr().err == ""


def test_mine_restores_the_recursion_limit_when_the_search_raises():
    class Refusing(list):
        def append(self, node):
            raise RuntimeError("refused")

    limit = sys.getrecursionlimit()
    with pytest.raises(RuntimeError, match="refused"):
        mine(chain_dataset(3), trace=Refusing())
    assert sys.getrecursionlimit() == limit


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
    records, stats = mine(d, MinerConfig(thresholds=thresholds), trace=trace)
    unpruned, full = mine(d, MinerConfig(thresholds=thresholds, prune=False))
    assert records == unpruned
    if d.n <= 12:
        assert records == mine_oracle(d, MinerConfig(thresholds=thresholds))
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
    # every item sits in three cases, so no case child can reach four
    d = from_transactions(
        [["x"], ["x", "z"], ["x"], ["y", "z"], ["y"], ["y", "z"]], [["x", "y", "z"]] * 6
    )
    cfg = MinerConfig(thresholds=Thresholds(min_sd=0.5))
    rows = tuple(enumerate(d.rows))
    search = Counting(d.n_case, d.n_control, cfg, None)
    assert search.min_case_support() == 4
    search.run(rows)
    assert search.scanned == []
    assert (search.nodes_visited, search.nodes_pruned) == (6, 6)
    # root 5 entered directly: its closure adds case 3, and its case
    # children 1 and 4 are cut without a scan
    search = Counting(d.n_case, d.n_control, cfg, None)
    search.expand(0, 0, 0, 5, rows, 0, 0)
    assert search.scanned == [5]
    assert (search.nodes_visited, search.nodes_pruned) == (10, 8)
    assert mine(d, cfg)[0] == mine(d, MinerConfig(thresholds=cfg.thresholds, prune=False))[0] == []


def test_mine_stats_type():
    assert MineStats().nodes_visited == 0
    assert MineStats().wall_time_seconds == 0.0


def check_records_api(records, dataset):
    assert records == mine_oracle(dataset)
    for r in records:
        q = r.tidset
        assert type(q) is Tidset
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
    with pytest.raises(ValueError):
        Tidset((2, 1), (5,))


def test_value_types_are_frozen_checked_and_picklable(table1):
    records, stats = mine(table1)
    r = records[0]
    config = MinerConfig(thresholds=Thresholds(min_ors=2.0))
    values = (r.tidset, table1, r.table, r.scores, config.thresholds, config, r, stats)
    assert [type(v).__name__ for v in values] == [
        "Tidset", "TwoClassDataset", "ContingencyTable", "ScoreSet",
        "Thresholds", "MinerConfig", "PatternRecord", "MineStats",
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
        config.thresholds._replace(min_gr=-1)
    with pytest.raises(ValueError, match="strictly increasing"):
        Tidset((1, 2), (5,))._replace(pos=(2, 1))
    assert r.table._replace(a=0).a == 0
    for value in (r, table1, stats, config):
        back = pickle.loads(pickle.dumps(value))
        assert back == value and type(back) is type(value)
