"""Depth-first tidset enumeration of significant discriminative closed patterns.

The search walks tidsets, not itemsets. Starting from each case tid, the case
part grows with smaller case tids while the case-side closure keeps the branch
canonical; once a control tid joins, only smaller control tids may follow and
the control-side closure takes over. A branch is abandoned whenever the
closure adds a tid at or above the tid that opened it, which makes every
closed tidset reachable exactly once. A pattern is emitted when its tidset is
closed over both classes, contains at least one control tid, and satisfies the
configured thresholds.

Because adding a control tid to a tidset can only lower the support
difference, growth rate, odds ratio and (under documented guards) the
interval lower bounds, failing thresholds at an inner node proves every
pattern below it would fail too; that is the pruning rule. Growth-rate
lower-bound pruning switches off for control classes smaller than 5, where
the decrease does not hold for every table, and each interval-based prune
additionally requires that the most extreme reachable table (all remaining
controls joining, which re-triggers the zero-cell correction) also fails,
so pruning never loses a valid pattern. All control children of a node
share one (case count, control count) key, so the parent decides the
verdict once for all of them: a hopeless key counts them as visited and
pruned without scanning rows for any of them.

The thresholds also fix a least case count. A pattern with a case tids has
at least one control tid, so it can pass only if the key (a, 1) keeps hope;
the least such a at or above a given count is found by walking a upward
through the memoised verdicts. A descendant of a case child t adds only
candidate case tids below t, and each of its rows holds all of its case tids,
so the child can reach no more case tids than its parent's a, plus one, plus
the most candidates below t that a single row holding t also holds. The
parent cuts each case child that cannot reach the least hopeful count above
a, and counts and traces it as visited and pruned without scanning rows for
it. The roots are the case children of the empty tidset and go through the
same cut. This is CARPENTER's row-enumeration bound (Pan et al., KDD 2003)
with a support floor set by the thresholds instead of a minimum support.

A control node whose rows all hold a case tid outside its tidset is not
case-closed, so it emits nothing; its descendants keep a subset of its rows
and that case tid with them, so the search stops there.

Most duplicates are found in the parent too. Children are visited from the
highest tid down, and the row scan of each child also returns the union of
the parent's rows that do not hold its tid. A lower candidate of the same
class outside that union lies only in rows holding the scanned tid, so its
closure adds that higher tid and it is a duplicate: the parent counts it as
visited and duplicate and drops it without a scan. This is CHARM's
subsumption check (Zaki and Hsiao, SDM 2002) on the transposed table. A
traced search scans these children anyway, which logs each in its place.

Scores, prune verdicts, and interval floors depend only on the two tidset
part sizes, so they are memoised once and shared by all roots; the row list
shrinks with the node exactly as in a dataset-reduction scheme, since the
itemset of a node is the itemset of its surviving rows.

An emitted record keeps the node's two tid masks and the memoised table and
scores of its key as they are; its ``tidset`` is built from the masks only
when a caller reads it.
"""

from __future__ import annotations

import time
from typing import NamedTuple, Optional

from .dataset import Tidset, TwoClassDataset, bit_positions
from .measures import (
    ContingencyTable,
    ScoreSet,
    Thresholds,
    check_significance,
    confidence_intervals,
    score_set,
)


class InternalInvariantError(RuntimeError):
    """The engine produced output that violates its own guarantees."""


class MinerConfig(NamedTuple):
    thresholds: Thresholds = Thresholds()
    prune: bool = True
    #: None resolves to (n_control >= 5) at mine time; forcing True on a
    #: smaller control class may lose patterns and exists for experiments.
    lci_gr_prune_guard: Optional[bool] = None


class PatternRecord(NamedTuple):
    """One pattern: its items, its tids as bit masks, its table and scores.

    Bit t of ``pos_mask`` (``neg_mask``) is set when case (control) tid t
    supports the pattern. Records of one run share their table and scores
    objects with every record of the same (case count, control count).
    """

    itemset: tuple[int, ...]
    pos_mask: int
    neg_mask: int
    table: ContingencyTable
    scores: ScoreSet

    @property
    def tidset(self) -> Tidset:
        """The supporting tidset, built from the masks on each access."""
        return Tidset(bit_positions(self.pos_mask), bit_positions(self.neg_mask))


class MineStats(NamedTuple):
    nodes_visited: int = 0
    nodes_pruned: int = 0
    #: visited nodes whose closure reaches a higher tid, scanned or not
    nodes_duplicate: int = 0
    patterns_emitted: int = 0
    wall_time_seconds: float = 0.0
    #: the least case count a pattern needs to pass the thresholds; None
    #: without pruning or when no case count passes
    min_case_support: Optional[int] = None


class TraceNode(NamedTuple):
    """One enumerated node: tidset parts plus the itemset it carries."""

    pos: tuple[int, ...]
    neg: tuple[int, ...]
    items: tuple[int, ...]


class _Search:
    """Search state shared by all roots; rows are (item id, bit row) pairs."""

    __slots__ = (
        "n_case", "n_control", "case_mask", "control_mask",
        "thresholds", "prune", "lci_gr_prunes",
        "records", "trace", "nodes_visited", "nodes_pruned", "nodes_duplicate",
        "_floors", "_hope", "_least", "_scored",
    )

    def __init__(
        self, n_case: int, n_control: int, cfg: MinerConfig, trace: list[TraceNode] | None
    ):
        self.n_case = n_case
        self.n_control = n_control
        n = n_case + n_control
        self.case_mask = (1 << n_case) - 1
        self.control_mask = ((1 << n) - 1) ^ self.case_mask
        self.thresholds = cfg.thresholds
        self.prune = cfg.prune and cfg.thresholds.has_any
        guard = cfg.lci_gr_prune_guard
        self.lci_gr_prunes = (n_control >= 5) if guard is None else guard
        self.records: list[PatternRecord] = []
        self.trace = trace
        self.nodes_visited = 0
        self.nodes_pruned = 0
        self.nodes_duplicate = 0
        self._floors: dict[int, tuple[float, float]] = {}
        self._hope: dict[tuple[int, int], bool] = {}
        self._least: dict[int, int] = {}
        self._scored: dict[tuple[int, int], tuple[ContingencyTable, ScoreSet, bool]] = {}

    def _log(self, tpos: int, tneg: int, rows) -> None:
        self.trace.append(
            TraceNode(bit_positions(tpos), bit_positions(tneg), tuple(i for i, _ in rows))
        )

    def expand_case(self, tpos: int, e: int, rows) -> int:
        """Visit the child adding case tid e; return the union of the ``rows`` without e."""
        ebit = 1 << e
        sub = []
        inter = -1
        union = 0
        out = 0
        for ir in rows:
            r = ir[1]
            if r & ebit:
                sub.append(ir)
                inter &= r
                union |= r
            else:
                out |= r
        if not sub:
            return out
        tpos |= ebit
        self.nodes_visited += 1
        if self.trace is not None:
            self._log(tpos, 0, sub)
        ext = inter & self.case_mask & ~tpos
        if ext:
            if ext >= ebit:
                self.nodes_duplicate += 1
                return out  # closure reaches a tid >= e: this branch is a duplicate
            tpos |= ext
            self.nodes_visited += 1
            if self.trace is not None:
                self._log(tpos, 0, sub)
        a = tpos.bit_count()
        self._case_children(tpos, a, union & self.case_mask & ~tpos & (ebit - 1), sub)
        free = union & self.control_mask
        if self.prune and free and self._children_pruned(tpos, a, 0, free, sub):
            return out
        while free:
            t = free.bit_length() - 1
            free ^= 1 << t
            dup = free & ~self.expand_control(tpos, a, 0, t, sub)
            if dup and self.trace is None:
                free ^= self._dominated(dup)
        return out

    def expand_control(self, tpos: int, a: int, tneg: int, e: int, rows) -> int:
        """Visit the child adding control tid e; return the union of the ``rows`` without e."""
        ebit = 1 << e
        sub = []
        inter = -1
        union = 0
        out = 0
        for ir in rows:
            r = ir[1]
            if r & ebit:
                sub.append(ir)
                inter &= r
                union |= r
            else:
                out |= r
        if not sub:
            return out
        tneg |= ebit
        self.nodes_visited += 1
        if self.trace is not None:
            self._log(tpos, tneg, sub)
        ext = inter & self.control_mask & ~tneg
        if ext:
            if ext >= ebit:
                self.nodes_duplicate += 1
                return out
            tneg |= ext
            self.nodes_visited += 1
            if self.trace is not None:
                self._log(tpos, tneg, sub)
        if inter & self.case_mask != tpos:
            return out  # every descendant keeps the extra case tid: none can emit
        self._emit(tpos, tneg, a, sub)
        free = union & self.control_mask & ~tneg & (ebit - 1)
        if self.prune and free and self._children_pruned(tpos, a, tneg, free, sub):
            return out
        # the loop stays here, so that each control level takes one stack frame
        while free:
            t = free.bit_length() - 1
            free ^= 1 << t
            dup = free & ~self.expand_control(tpos, a, tneg, t, sub)
            if dup and self.trace is None:
                free ^= self._dominated(dup)
        return out

    def run(self, rows) -> None:
        """Search every root: the case children of the empty tidset."""
        union = 0
        for _, r in rows:
            union |= r
        self._case_children(0, 0, union & self.case_mask, rows)

    def _case_children(self, tpos: int, a: int, free: int, rows) -> None:
        """Expand the children adding one case tid of ``free`` to ``tpos``.

        A child whose subtree cannot reach the least hopeful case count is
        cut first, and counted (and traced in child order) without a row scan.
        The others go from the highest tid down, as control children do.
        """
        cut = 0
        k = self._least_hopeful(a + 1) - a
        if k > 1 and free:
            # a descendant of child t adds only tids of free below t, and each
            # of its rows holds all of its case tids: keep t only if some row
            # holds t and k - 1 tids of free below t
            kept = 0
            drops = range(k - 1)
            for _, r in rows:
                x = r & free
                if x.bit_count() >= k:
                    for _ in drops:
                        x &= x - 1
                    kept |= x
            cut = free ^ kept
            n = cut.bit_count()
            self.nodes_visited += n
            self.nodes_pruned += n
            if self.trace is None:
                free = kept
        while free:
            t = free.bit_length() - 1
            top = 1 << t
            free ^= top
            if top & cut:
                self._log(tpos | top, 0, [ir for ir in rows if ir[1] & top])
                continue
            dup = free & ~self.expand_case(tpos, t, rows)
            if dup and self.trace is None:
                free ^= self._dominated(dup)

    def _dominated(self, dup: int) -> int:
        """Count the children in ``dup`` as visited duplicates, without a row scan.

        Each lies in the parent's rows only where a higher sibling just
        scanned does, so its closure adds that sibling. A traced search
        scans them instead, which logs them in their place and counts the same.
        """
        n = dup.bit_count()
        self.nodes_visited += n
        self.nodes_duplicate += n
        return dup

    def _children_pruned(self, tpos: int, a: int, tneg: int, tids: int, rows) -> bool:
        """Whether the children adding one control tid of ``tids`` are all pruned.

        Each tid lies in the parent's row union, so every child has rows and
        counts as visited; a hopeless key counts (and traces) them at once.
        """
        if self._hoping(a, tneg.bit_count() + 1):
            return False
        n = tids.bit_count()
        self.nodes_visited += n
        self.nodes_pruned += n
        if self.trace is not None:
            for t in reversed(bit_positions(tids)):
                self._log(tpos, tneg | 1 << t, [ir for ir in rows if ir[1] >> t & 1])
        return True

    def _hoping(self, a: int, c: int) -> bool:
        """The memoised ``_keeps_hope`` verdict of the key (a, c)."""
        key = (a, c)
        hope = self._hope.get(key)
        if hope is None:
            hope = self._hope[key] = self._keeps_hope(a, c)
        return hope

    def _least_hopeful(self, m: int) -> int:
        """The least a >= m whose key (a, 1) keeps hope, or n_case + 1 if none does.

        A pattern with a case tids has at least one control tid, so it can
        pass only if (a, 1) keeps hope; without pruning every count does.
        """
        least = self._least.get(m)
        if least is None:
            least = m
            if self.prune:
                while least <= self.n_case and not self._hoping(least, 1):
                    least += 1
            self._least[m] = least
        return least

    def min_case_support(self) -> int | None:
        """``_least_hopeful(1)``, or None without pruning or when no count passes."""
        if not self.prune:
            return None
        m = self._least_hopeful(1)
        return m if m <= self.n_case else None

    def _emit(self, tpos: int, tneg: int, a: int, rows) -> None:
        key = (a, tneg.bit_count())
        scored = self._scored.get(key)
        if scored is None:
            table = ContingencyTable(a, self.n_case - a, key[1], self.n_control - key[1])
            scores = score_set(table)
            scored = (table, scores, check_significance(table, self.thresholds, scores))
            self._scored[key] = scored
        if scored[2]:
            self.records.append(
                PatternRecord(tuple([i for i, _ in rows]), tpos, tneg, scored[0], scored[1])
            )

    def _floor_bounds(self, a: int) -> tuple[float, float]:
        # CI lower bounds of the deepest reachable table (every control joins)
        floors = self._floors.get(a)
        if floors is None:
            cis = confidence_intervals(
                ContingencyTable(a, self.n_case - a, self.n_control, 0)
            )
            floors = (cis[0], cis[2])
            self._floors[a] = floors
        return floors

    def _keeps_hope(self, a: int, c: int) -> bool:
        """False when no descendant of a node with tidset counts (a, c) can pass."""
        th = self.thresholds
        n1 = self.n_case
        n2 = self.n_control
        b = n1 - a
        d = n2 - c
        s1 = a / n1
        s2 = c / n2
        if th.min_sd is not None and s1 - s2 < th.min_sd:
            return False
        if th.min_gr is not None and s1 / s2 < th.min_gr:
            return False
        if th.min_ors is not None:
            bc = b * c
            if bc and a * d / bc < th.min_ors:
                return False
        check_ors = th.min_lci_ors is not None and b
        check_gr = th.min_lci_gr is not None and b and self.lci_gr_prunes
        if check_ors or check_gr:
            cis = confidence_intervals(ContingencyTable(a, b, c, d))
            gr_floor, ors_floor = self._floor_bounds(a)
            if check_ors and cis[2] <= th.min_lci_ors and ors_floor <= th.min_lci_ors:
                return False
            if check_gr and cis[0] <= th.min_lci_gr and gr_floor <= th.min_lci_gr:
                return False
        return True


def mine(
    dataset: TwoClassDataset,
    config: MinerConfig | None = None,
    trace: list[TraceNode] | None = None,
) -> tuple[list[PatternRecord], MineStats]:
    """Enumerate all significant discriminative closed patterns of ``dataset``.

    Returns the records sorted by itemset (lexicographic on item ids) plus
    search statistics. ``trace``, when given a list, receives every visited
    node in visiting order: depth first, the children of each node from the
    highest tid down, case children before control children.
    """
    cfg = config if config is not None else MinerConfig()
    if dataset.n_case < 1 or dataset.n_control < 1:
        raise ValueError("mining needs at least one case and one control transaction")
    start = time.perf_counter()
    search = _Search(dataset.n_case, dataset.n_control, cfg, trace)
    search.run(tuple(enumerate(dataset.rows)))
    records = search.records
    records.sort(key=lambda r: r.itemset)
    for first, second in zip(records, records[1:]):
        if first.itemset == second.itemset:
            raise InternalInvariantError(
                f"closed pattern emitted twice: {first.itemset}"
            )
    stats = MineStats(
        nodes_visited=search.nodes_visited,
        nodes_pruned=search.nodes_pruned,
        nodes_duplicate=search.nodes_duplicate,
        patterns_emitted=len(records),
        wall_time_seconds=time.perf_counter() - start,
        min_case_support=search.min_case_support(),
    )
    return records, stats
