"""Brute-force reference miner for small instances.

Where the main engine walks tidsets, this module enumerates every itemset,
intersects supports directly and keeps the closed ones. The two routes share
nothing beyond the dataset container, its bit walk ``bit_positions`` and the
scoring functions ``score_set`` and ``check_significance``, so agreement
between them on the same input is strong evidence both are right. Instances
are capped hard because the walk is exponential in the item count.
"""

from __future__ import annotations

from .dataset import TwoClassDataset, bit_positions
from .measures import ContingencyTable, Thresholds, check_significance, score_set
from .miner import PatternRecord

MAX_TRANSACTIONS = 24
MAX_ITEMS = 20


class InstanceTooLargeError(ValueError):
    """The dataset exceeds the brute-force size caps."""


def check_size(dataset: TwoClassDataset) -> None:
    m = len(dataset.items)
    if dataset.n > MAX_TRANSACTIONS or m > MAX_ITEMS:
        raise InstanceTooLargeError(
            f"oracle handles at most {MAX_TRANSACTIONS} transactions and "
            f"{MAX_ITEMS} items, got {dataset.n} and {m}"
        )


def enumerate_closed(dataset: TwoClassDataset) -> list[tuple[tuple[int, ...], int, int]]:
    """All non-empty closed itemsets with their case and control tid masks, sorted.

    Works over itemset bitmasks: the support of a mask is the intersection
    of its items' supports (memoised bottom-up), and a mask is closed when
    no item outside it is shared by all its supporting transactions.
    """
    check_size(dataset)
    m = len(dataset.items)
    n = dataset.n
    full_tids = (1 << n) - 1
    rows = dataset.rows
    # transpose: per-transaction itemset masks, for the closure check
    columns = [0] * n
    for j, row in enumerate(rows):
        for t in bit_positions(row):
            columns[t] |= 1 << j
    support = [full_tids] * (1 << m)
    closed: list[tuple[tuple[int, ...], int, int]] = []
    case_mask = dataset.case_mask
    control_mask = dataset.control_mask
    for mask in range(1, 1 << m):
        high = mask.bit_length() - 1
        tids = support[mask ^ 1 << high] & rows[high]
        support[mask] = tids
        if not tids:
            continue
        shared = (1 << m) - 1
        for t in bit_positions(tids):
            shared &= columns[t]
        if shared == mask:
            closed.append((bit_positions(mask), tids & case_mask, tids & control_mask))
    closed.sort(key=lambda triple: triple[0])
    return closed


def mine_oracle(
    dataset: TwoClassDataset, thresholds: Thresholds = Thresholds()
) -> list[PatternRecord]:
    """Reference answer for :func:`sigpat.miner.mine` on a small dataset: the
    closed patterns with case and control tids that pass ``thresholds``, by itemset."""
    records: list[PatternRecord] = []
    for itemset, pos_mask, neg_mask in enumerate_closed(dataset):
        # the mining task targets patterns of the case class that also occur
        # in controls, so both tidset parts must be non-empty
        if not pos_mask or not neg_mask:
            continue
        a = pos_mask.bit_count()
        c = neg_mask.bit_count()
        table = ContingencyTable(a, dataset.n_case - a, c, dataset.n_control - c)
        scores = score_set(table)
        if check_significance(scores, thresholds):
            records.append(PatternRecord(itemset, pos_mask, neg_mask, table, scores))
    return records
