"""Depth-first tidset enumeration of significant discriminative closed patterns.

The search walks tidsets, not itemsets. Starting from each case tid, the case
part grows with smaller case tids while the case-side closure keeps the branch
canonical; once a control tid joins, only smaller control tids may follow and
the control-side closure takes over. A branch is abandoned whenever the
closure adds a tid at or above the tid that opened it, which makes every
closed tidset reachable exactly once. A pattern is emitted when its tidset is
closed over both classes, contains at least one control tid, and satisfies the
configured thresholds.

One routine, ``_Search.expand``, visits a child of either class: one row scan,
the closure over the child's class, then one loop over the control children.
With the loop inline a case level takes two stack frames (with
``_case_children``) and a control level one, so ``mine`` raises the recursion
limit by 2*n_case + n_control, plus 50 for the calls below the deepest level.

Every control-phase descendant of a node with a case tids and c control
tids keeps a and has at least c control tids, and the scores depend on the
two counts alone. So the node keeps hope exactly when c <= top[a], the
largest control count whose table with a case tids passes the thresholds
(0 if none does); that is the pruning rule. top[a] is computed on first use:
the table holding every control tid is tried first, then the counts below a
cap, downward. With b = n_case - a > 0 and no cell 0, min_ors and
min_lci_ors cap c at a*n2/(a + t*b), min_gr and min_lci_gr at a*n2/(n1*t)
for t > 0, and min_sd at n2*(a/n1 - t), as an interval's lower bound lies
below its score; with b = 0 every count is tried. All control children of a
node share one verdict, so the parent decides it once for all of them: a
hopeless one counts them as visited and pruned without a row scan.

The thresholds also fix a least case count. A pattern with a case tids has
at least one control tid, so it can pass only if top[a] >= 1. A descendant
of a case child t adds only candidate case tids below t, and each of its
rows holds all of its case tids, so the child can reach no more case tids
than its parent's a, plus one, plus the most candidates below t that a
single row holding t also holds. The parent cuts each case child that cannot
reach the least hopeful count above a, and counts and traces it as visited
and pruned without scanning rows for it. The roots are the case children of
the empty tidset and go through the same cut. This is CARPENTER's
row-enumeration bound (Pan et al., KDD 2003) with a support floor set by the
thresholds instead of a minimum support.

A control node whose rows all hold a case tid outside its tidset is not
case-closed, so it emits nothing; its descendants keep a subset of its rows
and that case tid with them, so the search stops there.

Most duplicates are found in the parent too. Children are visited from the
highest tid down, and the row scan of each child also returns the union of
the parent's rows that do not hold its tid. A lower candidate of the same
class outside that union lies only in rows holding the scanned tid, so its
closure adds that higher tid and it is a duplicate: the parent counts it as
visited and duplicate and drops it without a scan. This is CHARM's
subsumption check (Zaki and Hsiao, SDM 2002) on the transposed table.

Rows only shrink going down, so what a scan shows holds below every later
sibling. A candidate lying only in rows that hold a scanned sibling u does
so under each later sibling, where u is above the opening tid and outside
the tidset: each children loop ORs such tids into the mask ``dom`` it passes
to every later child, which drops them as duplicates. A control tid lying
only in rows that hold a scanned case child s cannot be case-closed in a
later case sibling's subtree or in the node's own control subtree, which
lack s: ``dead`` carries such tids down, where they are dropped after the
prune verdict and ``dom`` and counted as ``nodes_dead`` instead of visited.
A traced search makes the same scans: each child counted without a scan is
traced when its parent decides it, and no dead child is traced.

Scores and prune verdicts depend only on the two tidset part sizes, so they
are computed once and shared by all roots; the row list shrinks with the
node exactly as in a dataset-reduction scheme, since the itemset of a node
is the itemset of its surviving rows.

An emitted record keeps the node's two tid masks and the memoised table and
scores of its key as they are; its ``tidset`` is built from the masks only
when a caller reads it.
"""

from __future__ import annotations

import sys
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

#: ``perfbench/traced.py`` wraps ``confidence_intervals`` here, so it stays though unused
__all__ = ["InternalInvariantError", "MineStats", "MinerConfig", "PatternRecord", "TraceNode",
           "confidence_intervals", "mine"]


class InternalInvariantError(RuntimeError):
    """The engine produced output that violates its own guarantees."""


class MinerConfig(NamedTuple):
    thresholds: Thresholds = Thresholds()
    prune: bool = True


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
    #: control children dropped unscanned and not visited: they are not case-closed
    nodes_dead: int = 0


class TraceNode(NamedTuple):
    """One enumerated node: tidset parts plus the itemset it carries."""

    pos: tuple[int, ...]
    neg: tuple[int, ...]
    items: tuple[int, ...]


class _Search:
    """Search state shared by all roots; rows are (item id, bit row) pairs."""

    __slots__ = (
        "n_case", "n_control", "case_mask", "control_mask", "thresholds", "prune",
        "records", "trace", "nodes_visited", "nodes_pruned", "nodes_duplicate", "nodes_dead",
        "top", "_least", "_scored",
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
        self.records: list[PatternRecord] = []
        self.trace = trace
        self.nodes_visited = 0
        self.nodes_pruned = 0
        self.nodes_duplicate = 0
        self.nodes_dead = 0
        #: top[a], -1 until ``_top`` computes it; every a keeps hope without pruning
        self.top = [-1 if self.prune else n_control] * (n_case + 1)
        self._least: dict[int, int] = {}
        self._scored: dict[tuple[int, int], tuple[ContingencyTable, ScoreSet, bool]] = {}

    def _log(self, tids: int, rows, bit: int) -> None:
        """Trace the node ``tids``, whose rows are those of ``rows`` holding ``bit``."""
        items = tuple(i for i, r in rows if r & bit)
        pos, neg = bit_positions(tids & self.case_mask), bit_positions(tids & self.control_mask)
        self.trace.append(TraceNode(pos, neg, items))

    def expand(self, tpos: int, a: int, tneg: int, e: int, rows, dom: int, dead: int) -> int:
        """Visit the child adding tid e, of either class, to the node ``tpos | tneg``
        with ``a`` case tids; return the union of the ``rows`` without e."""
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
        self.nodes_visited += 1
        if e < self.n_case:
            tpos |= ebit
            if self.trace is not None:
                self._log(tpos, sub, ebit)
            ext = inter & self.case_mask & ~tpos
            if ext:
                if ext >= ebit:
                    self.nodes_duplicate += 1
                    return out  # closure reaches a tid >= e: this branch is a duplicate
                tpos |= ext
                self.nodes_visited += 1
                if self.trace is not None:
                    self._log(tpos, sub, ebit)
            a = tpos.bit_count()
            if self.top[a] < 0:  # the verdict below and the control subtree read top[a]
                self._top(a)
            free = union & self.case_mask & ~tpos & (ebit - 1)
            dead = self._case_children(tpos, a, free, sub, dom, dead)
            free = union & self.control_mask
            dom = c = 0
        else:
            tneg |= ebit
            if self.trace is not None:
                self._log(tpos | tneg, sub, ebit)
            ext = inter & self.control_mask & ~tneg
            if ext:
                if ext >= ebit:
                    self.nodes_duplicate += 1
                    return out
                tneg |= ext
                self.nodes_visited += 1
                if self.trace is not None:
                    self._log(tpos | tneg, sub, ebit)
            if inter & self.case_mask != tpos:
                return out  # every descendant keeps the extra case tid: none can emit
            c = tneg.bit_count()
            self._emit(tpos, tneg, a, c, sub)
            free = union & self.control_mask & ~tneg & (ebit - 1)
        if free and c >= self.top[a]:
            self.nodes_pruned += self._unscanned(tpos | tneg, free, sub)
            return out
        gone = free & dom
        if gone:
            self.nodes_duplicate += self._unscanned(tpos | tneg, gone, sub)
            free ^= gone
        gone = free & dead
        if gone:
            self.nodes_dead += gone.bit_count()
            free ^= gone
        # the loop stays here, so that each control level takes one stack frame
        while free:
            t = free.bit_length() - 1
            free ^= 1 << t
            dup = free & ~self.expand(tpos, a, tneg, t, sub, dom, dead)
            if dup:
                self.nodes_duplicate += self._unscanned(tpos | tneg, dup, sub)
                dom |= dup
                free ^= dup
        return out

    def run(self, rows) -> None:
        """Search every root: the case children of the empty tidset."""
        union = 0
        for _, r in rows:
            union |= r
        self._case_children(0, 0, union & self.case_mask, rows, 0, 0)

    def _case_children(self, tpos: int, a: int, free: int, rows, dom: int, dead: int) -> int:
        """Expand the children adding one case tid of ``free`` to ``tpos``; return ``dead``
        and the control tids that lie, in ``rows``, only where a scanned child's tid does.

        The children that cannot reach the least hopeful case count, then those
        in ``dom``, are counted without a row scan; the others go from the highest
        down, and those a scan shows dominated are counted right after it.
        """
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
            if free != kept:
                self.nodes_pruned += self._unscanned(tpos, free ^ kept, rows)
                free = kept
        gone = free & dom
        if gone:
            self.nodes_duplicate += self._unscanned(tpos, gone, rows)
            free ^= gone
        while free:
            t = free.bit_length() - 1
            free ^= 1 << t
            out = self.expand(tpos, a, 0, t, rows, dom, dead)
            dead |= self.control_mask & ~out
            dup = free & ~out
            if dup:
                self.nodes_duplicate += self._unscanned(tpos, dup, rows)
                dom |= dup
                free ^= dup
        return dead

    def _unscanned(self, node: int, tids: int, rows) -> int:
        """Count as visited, and trace from the highest tid down, the children
        adding one tid of ``tids`` to ``node`` without a row scan; return how many."""
        if self.trace is not None:
            for t in reversed(bit_positions(tids)):
                self._log(node | 1 << t, rows, 1 << t)
        n = tids.bit_count()
        self.nodes_visited += n
        return n

    def _top(self, a: int) -> int:
        """``top[a]``: the largest control count whose table with a case tids passes, or 0."""
        top = self.top[a]
        if top < 0:
            th, n1, n2, b = self.thresholds, self.n_case, self.n_control, self.n_case - a
            caps = [n2 - 1]
            if b:
                # with no cell 0 a threshold caps c; an interval's lower bound is below its score
                if th.min_sd is not None:
                    caps.append(n2 * (a / n1 - th.min_sd))
                caps += [a * n2 / (a + t * b) for t in (th.min_ors, th.min_lci_ors) if t and t > 0]
                caps += [a * n2 / (n1 * t) for t in (th.min_gr, th.min_lci_gr) if t and t > 0]
            cs = (n2, *range(min(n2 - 1, int(min(caps)) + 1), 0, -1))
            passing = (c for c in cs if check_significance(ContingencyTable(a, b, c, n2 - c), th))
            top = self.top[a] = next(passing, 0)
        return top

    def _least_hopeful(self, m: int) -> int:
        """The least a >= m with ``top[a] >= 1``, or n_case + 1 if there is none."""
        least = self._least.get(m)
        if least is None:
            least = m
            while least <= self.n_case and self._top(least) < 1:
                least += 1
            self._least[m] = least
        return least

    def min_case_support(self) -> int | None:
        """``_least_hopeful(1)``, or None without pruning or when no count passes."""
        if not self.prune:
            return None
        m = self._least_hopeful(1)
        return m if m <= self.n_case else None

    def _emit(self, tpos: int, tneg: int, a: int, c: int, rows) -> None:
        key = (a, c)
        scored = self._scored.get(key)
        if scored is None:
            table = ContingencyTable(a, self.n_case - a, c, self.n_control - c)
            scores = score_set(table)
            scored = (table, scores, check_significance(table, self.thresholds, scores))
            self._scored[key] = scored
        if scored[2]:
            self.records.append(
                PatternRecord(tuple([i for i, _ in rows]), tpos, tneg, scored[0], scored[1])
            )


def mine(
    dataset: TwoClassDataset,
    config: MinerConfig | None = None,
    trace: list[TraceNode] | None = None,
) -> tuple[list[PatternRecord], MineStats]:
    """Enumerate all significant discriminative closed patterns of ``dataset``.

    Returns the records sorted by itemset (lexicographic on item ids) plus
    search statistics. ``trace``, when given a list, receives every visited
    node in visiting order: depth first, the children of each node from the
    highest tid down, case children before control children. A child counted
    without a row scan is listed when its parent decides it: right after the
    scan that shows it a duplicate, or before the scanned children when it is
    cut, pruned or dominated by a scan above its parent.
    """
    cfg = config if config is not None else MinerConfig()
    if dataset.n_case < 1 or dataset.n_control < 1:
        raise ValueError("mining needs at least one case and one control transaction")
    start = time.perf_counter()
    search = _Search(dataset.n_case, dataset.n_control, cfg, trace)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 2 * dataset.n_case + dataset.n_control + 50)
    try:
        search.run(tuple(enumerate(dataset.rows)))
    finally:
        sys.setrecursionlimit(limit)
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
        nodes_dead=search.nodes_dead,
    )
    return records, stats
