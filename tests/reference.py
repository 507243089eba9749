"""Independent reference helpers that the tests compare the package against.

The Galois connection between tidsets and itemsets, and the conversions
between tidsets, bit masks and contingency tables, written directly from
their definitions over ``Tidset`` tuples. ``common_items`` and
``supporting_tids`` form an antitone Galois connection; composing them
yields the closure operators used to enumerate closed patterns. The
one-sided closures restrict the closure to a single class: the case-side
closure applies before any control transaction joins a candidate tidset,
and the control-side closure keeps the case part fixed while saturating the
control part.

``reference_mine`` runs the search with every child scanning its parent's
rows, so a duplicate child is only found by its own closure; the engine finds
most of them in the parent instead, and must count, trace and emit the same.
Both cut the case children that cannot reach the least hopeful case count,
the reference by testing each child's rows on their own.
"""

from __future__ import annotations

import time
from typing import Iterable

from sigpat.dataset import Tidset, TwoClassDataset, bit_positions
from sigpat.measures import ContingencyTable
from sigpat.miner import MinerConfig, MineStats, PatternRecord, TraceNode, _Search

#: An itemset is a strictly increasing tuple of internal item ids.
ItemSet = tuple[int, ...]


def tidset_of(pos: Iterable[int] = (), neg: Iterable[int] = ()) -> Tidset:
    """A tidset from tids in any order, repeats dropped."""
    return Tidset(tuple(sorted(set(pos))), tuple(sorted(set(neg))))


def tidset_mask(q: Tidset, dataset: TwoClassDataset) -> int:
    """Bitmask over internal tids for ``q``, validating the class split."""
    n_case, n = dataset.n_case, dataset.n
    mask = 0
    for t in q.pos:
        if not 0 <= t < n_case:
            raise ValueError(f"case tid {t} out of range [0, {n_case})")
        mask |= 1 << t
    for t in q.neg:
        if not n_case <= t < n:
            raise ValueError(f"control tid {t} out of range [{n_case}, {n})")
        mask |= 1 << t
    return mask


def tidset_from_masks(pos_mask: int, neg_mask: int) -> Tidset:
    return Tidset(bit_positions(pos_mask), bit_positions(neg_mask))


def contingency_from_tidset(q: Tidset, dataset: TwoClassDataset) -> ContingencyTable:
    """Table whose present-counts are the sizes of the two tidset parts."""
    a, c = len(q.pos), len(q.neg)
    if a > dataset.n_case or c > dataset.n_control:
        raise ValueError("tidset does not fit the dataset class sizes")
    return ContingencyTable(a, dataset.n_case - a, c, dataset.n_control - c)


def common_items(q: Tidset, dataset: TwoClassDataset) -> ItemSet:
    """Item ids present in every transaction of ``q`` (all items for empty q)."""
    mask = tidset_mask(q, dataset)
    return tuple(i for i, row in enumerate(dataset.rows) if row & mask == mask)


def _intersection_mask(p: ItemSet, dataset: TwoClassDataset) -> int:
    inter = (1 << dataset.n) - 1
    for item in p:
        inter &= dataset.rows[item]
    return inter


def supporting_tids(p: ItemSet, dataset: TwoClassDataset) -> Tidset:
    """All tids whose transaction contains every item of ``p`` (all tids for empty p)."""
    inter = _intersection_mask(p, dataset)
    return tidset_from_masks(inter & dataset.case_mask, inter & dataset.control_mask)


def supporting_case_tids(p: ItemSet, dataset: TwoClassDataset) -> tuple[int, ...]:
    return bit_positions(_intersection_mask(p, dataset) & dataset.case_mask)


def supporting_control_tids(p: ItemSet, dataset: TwoClassDataset) -> tuple[int, ...]:
    return bit_positions(_intersection_mask(p, dataset) & dataset.control_mask)


def closure_full(q: Tidset, dataset: TwoClassDataset) -> Tidset:
    """Closure over both classes: supporting_tids(common_items(q))."""
    return supporting_tids(common_items(q, dataset), dataset)


def closure_pos(q: Tidset, dataset: TwoClassDataset) -> Tidset:
    """Case-side closure of a tidset that has not touched the control class yet."""
    if q.neg:
        raise ValueError("closure_pos requires an empty control part")
    return Tidset(supporting_case_tids(common_items(q, dataset), dataset), ())


def closure_neg(q: Tidset, dataset: TwoClassDataset) -> Tidset:
    """Control-side closure: the itemset is taken over the full mixed tidset,
    then only the control part is saturated; the case part stays as given."""
    if not q.neg:
        raise ValueError("closure_neg requires a non-empty control part")
    return Tidset(q.pos, supporting_control_tids(common_items(q, dataset), dataset))


class ReferenceSearch(_Search):
    """The search with one row scan per child: duplicates end at their closure.

    Children are visited from the highest tid down, as in the engine.
    """

    def expand_case(self, tpos: int, e: int, rows) -> None:
        ebit = 1 << e
        sub = []
        inter = -1
        union = 0
        for ir in rows:
            r = ir[1]
            if r & ebit:
                sub.append(ir)
                inter &= r
                union |= r
        if not sub:
            return
        tpos |= ebit
        self.nodes_visited += 1
        if self.trace is not None:
            self._log(tpos, 0, sub)
        ext = inter & self.case_mask & ~tpos
        if ext:
            if ext >= ebit:
                self.nodes_duplicate += 1
                return
            tpos |= ext
            self.nodes_visited += 1
            if self.trace is not None:
                self._log(tpos, 0, sub)
        a = tpos.bit_count()
        self._case_children(tpos, a, union & self.case_mask & ~tpos & (ebit - 1), sub)
        ctl = union & self.control_mask
        if self.prune and ctl and self._children_pruned(tpos, a, 0, ctl, sub):
            return
        for t in reversed(bit_positions(ctl)):
            self.expand_control(tpos, a, 0, t, sub)

    def _case_children(self, tpos: int, a: int, free: int, rows) -> None:
        # child t is cut unless a row holding t holds k - 1 tids of free below t
        k = self._least_hopeful(a + 1) - a
        for t in reversed(bit_positions(free)):
            low = 1 << t
            held = [ir for ir in rows if ir[1] & low]
            if any((r & free & (low - 1)).bit_count() >= k - 1 for _, r in held):
                self.expand_case(tpos, t, rows)
            else:
                self.nodes_visited += 1
                self.nodes_pruned += 1
                if self.trace is not None:
                    self._log(tpos | low, 0, held)

    def expand_control(self, tpos: int, a: int, tneg: int, e: int, rows) -> None:
        ebit = 1 << e
        sub = []
        inter = -1
        union = 0
        for ir in rows:
            r = ir[1]
            if r & ebit:
                sub.append(ir)
                inter &= r
                union |= r
        if not sub:
            return
        tneg |= ebit
        self.nodes_visited += 1
        if self.trace is not None:
            self._log(tpos, tneg, sub)
        ext = inter & self.control_mask & ~tneg
        if ext:
            if ext >= ebit:
                self.nodes_duplicate += 1
                return
            tneg |= ext
            self.nodes_visited += 1
            if self.trace is not None:
                self._log(tpos, tneg, sub)
        if inter & self.case_mask != tpos:
            return  # every descendant keeps the extra case tid
        self._emit(tpos, tneg, a, sub)
        free = union & self.control_mask & ~tneg & (ebit - 1)
        if self.prune and free and self._children_pruned(tpos, a, tneg, free, sub):
            return
        for t in reversed(bit_positions(free)):
            self.expand_control(tpos, a, tneg, t, sub)


def reference_mine(
    dataset: TwoClassDataset,
    config: MinerConfig,
    trace: list[TraceNode] | None = None,
) -> tuple[list[PatternRecord], MineStats]:
    """``mine`` over ``ReferenceSearch``: the same roots, order and statistics."""
    start = time.perf_counter()
    search = ReferenceSearch(dataset.n_case, dataset.n_control, config, trace)
    search.run(tuple(enumerate(dataset.rows)))
    records = sorted(search.records, key=lambda r: r.itemset)
    stats = MineStats(
        nodes_visited=search.nodes_visited,
        nodes_pruned=search.nodes_pruned,
        nodes_duplicate=search.nodes_duplicate,
        patterns_emitted=len(records),
        wall_time_seconds=time.perf_counter() - start,
        min_case_support=search.min_case_support(),
    )
    return records, stats
