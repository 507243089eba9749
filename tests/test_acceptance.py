"""End-to-end acceptance checks.

Every test prints one ``ACCEPTANCE n (label): PASS|FAIL`` line on the live
terminal so a full run reads as a checklist. Numeric tolerances are pinned
here and nowhere else; the functional tests next door pin exact values.
"""

import math
import random
import time

import pytest

from sigpat import MinerConfig, Thresholds, TraceNode, mine, mine_oracle
from sigpat.cli import main
from sigpat.dataset import generate_synthetic
from sigpat.measures import ContingencyTable, confidence_intervals, discriminance

from conftest import planted_genotype_matrix, random_dataset, random_thresholds

EXACT = 1e-9


@pytest.fixture
def report(capsys):
    def _report(criterion: int, label: str, passed: bool) -> None:
        with capsys.disabled():
            print(f"ACCEPTANCE {criterion} ({label}): {'PASS' if passed else 'FAIL'}")
        assert passed, f"acceptance criterion {criterion} ({label}) failed"

    return _report


@pytest.fixture(scope="module")
def sweep():
    """200 seeded random instances shared by the equivalence and prune checks."""
    rng = random.Random(20260815)
    return [(random_dataset(rng), random_thresholds(rng)) for _ in range(200)]


def test_01_worked_example_scores(table1, report):
    records, _ = mine(table1)
    by_names = {
        "".join(sorted(table1.items[i] for i in r.itemset)): r.scores for r in records
    }
    abc, bci, bcei = by_names["abc"], by_names["bci"], by_names["bcei"]
    ok = (
        abs(abc.gr - 2.4) <= EXACT
        and abs(bci.ors - 2.0) <= EXACT
        and abs(bci.gr - 1.6) <= EXACT
        and abs(bci.sd - 0.15) <= EXACT
        and abs(bcei.ors - 0.75) <= EXACT
    )
    report(1, "worked example scores", ok)


def test_02_confidence_interval_values(report):
    lci_gr, uci_gr, _, _, corrected = confidence_intervals(ContingencyTable(3, 2, 1, 3))
    # independent recomputation of the log-normal bounds
    log_gr = math.log((3 / 5) / (1 / 4))
    half = 1.96 * math.sqrt(1 / 3 - 1 / 5 + 1 / 1 - 1 / 4)
    ok = (
        not corrected
        and abs(lci_gr - math.exp(log_gr - half)) <= EXACT
        and abs(uci_gr - math.exp(log_gr + half)) <= EXACT
        and abs(lci_gr - 0.3803) <= 1e-3
        and abs(uci_gr - 15.15) <= 1e-2
        # the widely quoted rounded interval (0.37, 16.60) sits within 10%
        and abs(0.37 - lci_gr) <= 0.10 * lci_gr
        and abs(16.60 - uci_gr) <= 0.10 * uci_gr
    )
    report(2, "confidence interval for (3,2,1,3)", ok)


# expected enumeration nodes in the subtrees rooted at case tids 1-3,
# written as (case tids, control tids, itemset) with 1-based external ids
EXPECTED_NODES = [
    ((1,), (), "abcfij"),
    ((2,), (), "abcegi"),
    ((1, 2), (), "abci"),
    ((1, 2), (6,), "bc"),
    ((1, 2), (7,), "abc"),
    ((1, 2), (8,), "bci"),
    ((1, 2), (6, 8), "bc"),
    ((1, 2), (7, 8), "bc"),
    ((1, 2), (6, 7, 8), "bc"),
    ((1, 2), (9,), "a"),
    ((2,), (6,), "bceg"),
    ((2,), (7,), "abcg"),
    ((2,), (6, 7), "bcg"),
    ((2,), (8,), "bcei"),
    ((2,), (6, 8), "bce"),
    ((2,), (7, 8), "bc"),
    ((2,), (6, 7, 8), "bc"),
    ((2,), (9,), "aeg"),
    ((2,), (6, 9), "eg"),
    ((2,), (7, 9), "ag"),
    ((2,), (8, 9), "e"),
    ((3,), (), "abcfhj"),
    ((1, 3), (), "abcfj"),
    ((2, 3), (), "abc"),
    ((1, 2, 3), (), "abc"),
    ((1, 2, 3), (7,), "abc"),
    ((1, 2, 3), (6, 7), "bc"),
]


def test_03_enumeration_tree_nodes(table1, report):
    trace: list[TraceNode] = []
    mine(table1, trace=trace)
    visited = {(n.pos, n.neg): n.items for n in trace}

    def internal(tids):
        return tuple(t - 1 for t in tids)

    def ids(names):
        return tuple(sorted(table1.items.index(x) for x in names))

    ok = all(
        visited.get((internal(pos), internal(neg))) == ids(items)
        for pos, neg, items in EXPECTED_NODES
    )
    # the three called-out nodes, spelled concretely
    ok = ok and visited[(0, 1), (7,)] == ids("bci")
    ok = ok and visited[(0, 1, 2), ()] == ids("abc")
    ok = ok and visited[(1,), (8,)] == ids("aeg")
    report(3, "enumeration tree nodes for roots 1-3", ok)


def test_04_oracle_equivalence_sweep(sweep, report):
    start = time.perf_counter()
    ok = True
    for dataset, thresholds in sweep:
        cfg = MinerConfig(thresholds=thresholds)
        records, _ = mine(dataset, cfg)
        ok = ok and records == mine_oracle(dataset, cfg)
        if not ok:
            break
    elapsed = time.perf_counter() - start
    report(4, f"oracle equivalence on 200 instances in {elapsed:.1f}s", ok and elapsed < 60.0)


def test_05_prune_safety(sweep, table1, report):
    fixtures = [(d, t) for d, t in sweep]
    fixtures.append((table1, Thresholds(min_ors=2.0)))
    ok = True
    strict = False
    for dataset, thresholds in fixtures:
        pruned, pruned_stats = mine(dataset, MinerConfig(thresholds=thresholds))
        full, full_stats = mine(
            dataset, MinerConfig(thresholds=thresholds, prune=False)
        )
        ok = ok and pruned == full
        # a pruned child counts as visited where the unpruned search may
        # count it as dead, without a scan
        pruned_work = pruned_stats.nodes_visited + pruned_stats.nodes_dead
        full_work = full_stats.nodes_visited + full_stats.nodes_dead
        ok = ok and pruned_work <= full_work
        strict = strict or pruned_work < full_work
        if not ok:
            break
    report(5, "pruning preserves output and saves work", ok and strict)


def test_06_score_monotonicity_grid(report):
    exceptions = {(1, 2), (1, 3), (2, 2)}
    violations = set()
    ok = True
    for a in range(1, 7):
        for b in range(1, 7):
            for c in range(1, 7):
                for d in range(2, 7):
                    before = ContingencyTable(a, b, c, d)
                    after = ContingencyTable(a, b, c + 1, d - 1)
                    sd0, gr0, ors0 = discriminance(before)
                    sd1, gr1, ors1 = discriminance(after)
                    ok = ok and sd1 < sd0 and gr1 < gr0 and ors1 < ors0
                    ci0 = confidence_intervals(before)
                    ci1 = confidence_intervals(after)
                    ok = ok and ci1[2] < ci0[2]  # odds-ratio lower bound
                    if not ci1[0] < ci0[0]:  # growth-rate lower bound
                        violations.add((c, d))
    ok = ok and violations <= exceptions
    # each exceptional (c, d) does break strictness for some larger table
    for c, d in exceptions:
        witness = any(
            confidence_intervals(ContingencyTable(a, b, c + 1, d - 1))[0]
            >= confidence_intervals(ContingencyTable(a, b, c, d))[0]
            for a in range(1, 41)
            for b in range(1, 41)
        )
        ok = ok and witness
    report(6, "score monotonicity grid with exact exception set", ok)


def test_07_threshold_workload_trend(report):
    dataset = generate_synthetic(50, 50, 262, 0.33, seed=42)
    start = time.perf_counter()
    broad, broad_stats = mine(dataset, MinerConfig(thresholds=Thresholds(min_ors=2.0)))
    broad_time = time.perf_counter() - start
    start = time.perf_counter()
    narrow, narrow_stats = mine(
        dataset,
        MinerConfig(thresholds=Thresholds(min_ors=2.0, min_lci_ors=2.0)),
    )
    narrow_time = time.perf_counter() - start
    ok = (
        len(broad) > 0
        and len(narrow) < 0.5 * len(broad)
        and narrow_stats.nodes_visited < broad_stats.nodes_visited
        and broad_time < 300.0
        and narrow_time < 300.0
    )
    report(
        7,
        f"interval threshold shrinks workload "
        f"({len(narrow)}/{len(broad)} patterns, {broad_time:.0f}s+{narrow_time:.0f}s)",
        ok,
    )


def test_08_planted_pair_pipeline(tmp_path, capsys, report):
    matrix_csv, labels_csv = planted_genotype_matrix(seed=20260815)
    matrix = tmp_path / "matrix.csv"
    labels = tmp_path / "labels.csv"
    matrix.write_text(matrix_csv, encoding="utf-8")
    labels.write_text(labels_csv, encoding="utf-8")
    filtered = tmp_path / "filtered.tct"
    reportfile = tmp_path / "report.csv"
    rc1 = main([
        "filter-genotypes", "--input", str(matrix), "--labels", str(labels),
        "--max-pvalue", "0.01", "--max-control-support", "0.5",
        "--output", str(filtered), "--report", str(reportfile),
    ])
    rows = reportfile.read_text(encoding="utf-8").splitlines()
    kept = {row.split(",")[0] for row in rows[1:] if row.endswith("true")}
    out = tmp_path / "patterns.csv"
    rc2 = main([
        "mine", "--input", str(filtered),
        "--min-ors", "2", "--min-lci-ors", "1.5",
        "--output", str(out),
    ])
    capsys.readouterr()
    planted = {"rs0007_2", "rs0123_2"}
    emitted = [
        set(line.split(",")[0].split(";"))
        for line in out.read_text(encoding="utf-8").splitlines()[1:]
    ]
    ok = (
        rc1 == 0
        and rc2 == 0
        and planted <= kept
        and any(planted <= items for items in emitted)
    )
    report(8, "planted SNP pair survives filter and mining", ok)
