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
"""

from __future__ import annotations

from typing import Iterable

from sigpat.dataset import Tidset, TwoClassDataset, bit_positions
from sigpat.measures import ContingencyTable

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
