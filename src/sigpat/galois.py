"""Galois connection between tidsets and itemsets of a two-class dataset.

``common_items`` and ``supporting_tids`` form an antitone Galois connection;
composing them yields the closure operators used to enumerate closed patterns.
The one-sided closures restrict the closure to a single class: the case-side
closure applies before any control transaction joins a candidate tidset, and
the control-side closure keeps the case part fixed while saturating the
control part.
"""

from __future__ import annotations

from .dataset import (
    ItemSet,
    Tidset,
    TwoClassDataset,
    bit_positions,
    tidset_from_masks,
    tidset_mask,
)


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
