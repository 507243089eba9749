"""Depth-first tidset enumeration of significant discriminative closed patterns.

The search walks tidsets, not itemsets. Starting from each case tid, the case
part grows with smaller case tids while the case-side closure keeps the branch
canonical; once a control tid joins, only smaller control tids may follow and
the control-side closure takes over. A branch is abandoned whenever the
closure adds a tid at or above the tid that opened it, which makes every
closed tidset reachable exactly once. A pattern is emitted when its tidset is
closed over both classes, contains at least one control tid, and satisfies the
configured thresholds.

One loop, ``_Search.run``, walks the tree and visits a child of either class
the same way: one row scan, then the closure over the child's class. A case
node opens its case children, then its control children once those are done.
The node searched lives in local variables; entering a child pushes the node's
state on a list, so the search takes one stack frame at any depth. The loop
counts every child in local variables too, and ``run`` returns the counts.

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
node share one verdict, which ``run`` decides once for all of them right
after it scans the node (for a case node, once its case children are done):
hopeless ones are counted as visited and pruned without a row scan. A control
node is scored only when its control count is at most top[a], since no larger
count passes.

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

An emitted record keeps the node's case tid mask as it is, the control tid
mask of the first record emitted with the same control tids, and the
memoised table and scores of its key. With no thresholds set, top[a] is
n_control for every a, so nothing is pruned or cut and the least case count
is 1.
"""

from __future__ import annotations

import time
from operator import eq, itemgetter
from typing import NamedTuple, Optional

from .dataset import TwoClassDataset, bit_positions
from .measures import (
    ContingencyTable,
    ScoreSet,
    Thresholds,
    check_significance,
    confidence_intervals,
    score_set,
)

#: ``perfbench/traced.py`` wraps ``confidence_intervals`` here, so it stays though unused
__all__ = ["InternalInvariantError", "MineStats", "PatternRecord", "TraceNode",
           "confidence_intervals", "mine"]

_first = itemgetter(0)  # a record's itemset, a row's item id


class InternalInvariantError(RuntimeError):
    """The engine produced output that violates its own guarantees."""


class PatternRecord(NamedTuple):
    """One pattern: its items, its tids as bit masks, its table and scores.

    Bit t of ``pos_mask`` (``neg_mask``) is set when case (control) tid t
    supports the pattern. Records of one run share their table and scores
    objects with every record of the same (case count, control count), and
    their ``neg_mask`` object with every record of the same control tids.
    """

    itemset: tuple[int, ...]
    pos_mask: int
    neg_mask: int
    table: ContingencyTable
    scores: ScoreSet


class MineStats(NamedTuple):
    nodes_visited: int = 0
    nodes_pruned: int = 0
    #: visited nodes whose closure reaches a higher tid, scanned or not
    nodes_duplicate: int = 0
    patterns_emitted: int = 0
    wall_time_seconds: float = 0.0
    #: the least case count a pattern needs to pass the thresholds; None
    #: when no case count passes
    min_case_support: Optional[int] = None
    #: control children dropped unscanned and not visited: they are not case-closed
    nodes_dead: int = 0
    #: how often a node scanned its rows for a child; a child counted without a scan costs none
    row_scans: int = 0


class TraceNode(NamedTuple):
    """One enumerated node: tidset parts plus the itemset it carries."""

    pos: tuple[int, ...]
    neg: tuple[int, ...]
    items: tuple[int, ...]


class _Search:
    """Search state shared by all roots; ``run``'s rows are (item id, bit row) pairs."""

    __slots__ = (
        "n_case", "n_control", "case_mask", "control_mask", "rows", "thresholds",
        "records", "trace", "top", "_least", "_scored", "_negs",
    )

    def __init__(
        self, dataset: TwoClassDataset, thresholds: Thresholds, trace: list[TraceNode] | None
    ):
        self.n_case, self.n_control, self.rows = dataset.n_case, dataset.n_control, dataset.rows
        self.case_mask, self.control_mask = dataset.case_mask, dataset.control_mask
        self.thresholds = thresholds
        self.records: list[PatternRecord] = []
        self.trace = trace
        #: top[a], -1 until ``_top`` computes it
        self.top = [-1] * (dataset.n_case + 1)
        self._least: dict[int, int] = {}
        #: (table, scores) of a passing key, () of a failing one
        self._scored: dict[tuple[int, int], tuple[ContingencyTable, ScoreSet] | tuple[()]] = {}
        #: each emitted control mask, so that records of one control tidset share one int
        self._negs: dict[int, int] = {}

    def search(self) -> tuple[list[PatternRecord], MineStats]:
        """Run the search over the dataset's item bit rows; return ``mine``'s result."""
        import gc  # the search makes no reference cycles, so the collector pauses for it
        start, enabled = time.perf_counter(), gc.isenabled()
        gc.disable()
        try:
            visited, pruned, duplicate, dead, scans = self.run(tuple(enumerate(self.rows)))
        finally:
            if enabled:
                gc.enable()
        records = self.records
        records.sort(key=_first)
        itemsets = list(map(_first, records))
        twice = list(map(eq, itemsets, itemsets[1:]))
        if True in twice:
            raise InternalInvariantError(
                f"closed pattern emitted twice: {itemsets[twice.index(True)]}")
        least = self._least_hopeful(1)
        stats = MineStats(
            nodes_visited=visited,
            nodes_pruned=pruned,
            nodes_duplicate=duplicate,
            patterns_emitted=len(records),
            wall_time_seconds=time.perf_counter() - start,
            min_case_support=least if least <= self.n_case else None,
            nodes_dead=dead,
            row_scans=scans,
        )
        return records, stats

    def _log(self, node: int, tids: int, rows) -> None:
        """Trace, from the highest tid down, each child adding one tid t of ``tids`` to
        ``node``, with the items of the rows of ``rows`` that hold t."""
        masks = self.case_mask, self.control_mask
        for t in reversed(bit_positions(tids)):
            bit = 1 << t
            pos, neg = (bit_positions((node | bit) & mask) for mask in masks)
            self.trace.append(TraceNode(pos, neg, tuple(i for i, r in rows if r & bit)))

    def run(self, rows) -> tuple[int, int, int, int, int]:
        """Search every root, the case children of the empty tidset, depth first;
        return the nodes visited, pruned, duplicate and dead and the row scans.

        A node scans each child and updates ``free``, ``dom`` and ``dead`` from the scan;
        a child with children to scan starts from their old values, with the node pushed
        on ``stack``. ``ctl`` holds a case node's control children until its case children
        are done. Each child is counted and traced here, one that ``_cut`` drops too.
        """
        n_case, case_mask, control_mask = self.n_case, self.case_mask, self.control_mask
        trace, log, top = self.trace, self._log, self.top
        union = 0
        for _, r in rows:
            union |= r
        tpos = a = tneg = dom = dead = ctl = scans = closed = dups = skipped = deads = 0
        free = self._cut(0, union & case_mask, rows)
        pruned = (union & case_mask & ~free).bit_count()
        if trace is not None:
            log(0, union & case_mask & ~free, rows)
        stack = []
        while True:
            if free:
                e = free.bit_length() - 1
                ebit = 1 << e
                free ^= ebit
                # every candidate lies in some row, so ``sub`` is never empty
                sub = []
                inter, union, out = -1, 0, 0
                for ir in rows:
                    r = ir[1]
                    if r & ebit:
                        sub.append(ir)
                        inter &= r
                        union |= r
                    else:
                        out |= r
                scans += 1
                dup = free & ~out
                free ^= dup
                if e < n_case:
                    after = dead | control_mask & ~out
                    node = tpos | ebit
                    if trace is not None:
                        log(tpos, ebit, sub)
                    ext = inter & case_mask & ~node
                    if ext >= ebit:
                        dups += 1  # the closure reaches a tid >= e
                    else:
                        if ext:
                            node |= ext
                            closed += 1
                            if trace is not None:
                                log(node, ebit, sub)
                        b = node.bit_count()
                        kids = union & case_mask & ~node & (ebit - 1)
                        if kids:
                            kept = self._cut(b, kids, sub)
                            if kept != kids:
                                pruned += (kids ^ kept).bit_count()
                                if trace is not None:
                                    log(node, kids ^ kept, sub)
                            kids = kept & ~dom
                            if kids != kept:
                                skipped += (kept ^ kids).bit_count()
                                if trace is not None:
                                    log(node, kept ^ kids, sub)
                        if kids or union & control_mask:
                            stack.append((tpos, a, 0, rows, free, dom, after, ctl, dup))
                            tpos, a, rows, free, ctl = node, b, sub, kids, union & control_mask
                            continue
                    dead = after
                else:
                    node = tneg | ebit
                    if trace is not None:
                        log(tpos | tneg, ebit, sub)
                    ext = inter & control_mask & ~node
                    if ext >= ebit:
                        dups += 1
                    else:
                        if ext:
                            node |= ext
                            closed += 1
                            if trace is not None:
                                log(tpos | node, ebit, sub)
                        if inter & case_mask == tpos:  # else no descendant is case-closed
                            k = node.bit_count()
                            if k <= top[a]:  # else the node's table fails
                                self._emit(tpos, node, a, k, sub)
                            kids = union & control_mask & ~node & (ebit - 1)
                            if kids and k >= top[a]:  # every control child is hopeless
                                pruned += kids.bit_count()
                                if trace is not None:
                                    log(tpos | node, kids, sub)
                            elif kids:
                                gone = kids & dom
                                if gone:
                                    skipped += gone.bit_count()
                                    if trace is not None:
                                        log(tpos | node, gone, sub)
                                    kids ^= gone
                                gone = kids & dead
                                if gone:
                                    deads += gone.bit_count()
                                    kids ^= gone
                                if kids:
                                    stack.append((tpos, a, tneg, rows, free, dom, dead, 0, dup))
                                    tneg, rows, free = node, sub, kids
                                    continue
            elif ctl:  # case children done: open the control phase, whose verdicts read top[a]
                if self._top(a):
                    free = ctl & ~dead
                    if free != ctl:
                        deads += (ctl ^ free).bit_count()
                else:
                    pruned += ctl.bit_count()
                    if trace is not None:
                        log(tpos, ctl, rows)
                dom = ctl = 0
                continue
            elif stack:
                tpos, a, tneg, rows, free, dom, dead, ctl, dup = stack.pop()
            else:
                break
            # siblings that a scan showed dominated, traced after the scanned child's subtree
            if dup:
                skipped += dup.bit_count()
                if trace is not None:
                    log(tpos | tneg, dup, rows)
                dom |= dup
        # a child is visited by its scan, and again by its closure, or unscanned when
        # pruned or dominated: every pruned child and every skipped duplicate is unscanned
        return scans + closed + pruned + skipped, pruned, skipped + dups, deads, scans

    def _cut(self, a: int, free: int, rows) -> int:
        """The case children ``free`` of a node with ``a`` case tids that can reach the
        least hopeful case count; the caller counts and traces the others."""
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
            return kept
        return free

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
            # a cap of -inf, when min_sd * n2 overflows, is clamped, as int() refuses it
            cs = (n2, *range(min(n2 - 1, int(max(min(caps), -1)) + 1), 0, -1))
            tables = (ContingencyTable(a, b, c, n2 - c) for c in cs)
            passing = (t.c for t in tables if check_significance(score_set(t), th))
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

    def _emit(self, tpos: int, tneg: int, a: int, c: int, rows) -> None:
        key = (a, c)
        scored = self._scored.get(key)
        if scored is None:
            table = ContingencyTable(a, self.n_case - a, c, self.n_control - c)
            scores = score_set(table)
            passed = check_significance(scores, self.thresholds)
            scored = self._scored[key] = (table, scores) if passed else ()
        if scored:  # tuple.__new__ skips the NamedTuple's Python-level __new__
            tneg = self._negs.setdefault(tneg, tneg)
            self.records.append(
                tuple.__new__(PatternRecord, (tuple(map(_first, rows)), tpos, tneg) + scored)
            )


def mine(
    dataset: TwoClassDataset,
    thresholds: Thresholds = Thresholds(),
    trace: list[TraceNode] | None = None,
) -> tuple[list[PatternRecord], MineStats]:
    """Enumerate the closed patterns of ``dataset`` that pass ``thresholds``.

    The thresholds prune the search as well as filter its output; with none
    set every closed pattern with case and control tids is returned.
    Returns the records sorted by itemset (lexicographic on item ids) plus
    search statistics. ``trace``, when given a list, receives every visited
    node in visiting order: depth first, the children of each node from the
    highest tid down, case children before control children. A child counted
    without a row scan is listed when its parent decides it: after the subtree
    of the sibling whose scan shows it a duplicate, or before the scanned
    children when it is cut, pruned or dominated by a scan above its parent.
    """
    if dataset.n_case < 1 or dataset.n_control < 1:
        raise ValueError("mining needs at least one case and one control transaction")
    return _Search(dataset, thresholds, trace).search()
