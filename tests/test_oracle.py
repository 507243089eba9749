import random

import pytest

from sigpat import Thresholds, from_transactions
from sigpat.dataset import generate_synthetic
from sigpat.oracle import InstanceTooLargeError, enumerate_closed, mine_oracle

from conftest import random_dataset
from reference import Tidset, common_items, supporting_tids, tidset_from_masks


def ids_of(dataset, names):
    return tuple(sorted(dataset.items.index(x) for x in names))


def closed_tidsets(dataset):
    """``enumerate_closed`` with each pair of tid masks as a ``Tidset``."""
    return [
        (itemset, tidset_from_masks(pos, neg))
        for itemset, pos, neg in enumerate_closed(dataset)
    ]


def test_enumerate_closed_contains_known_sets(table1):
    closed = dict(closed_tidsets(table1))
    abci = ids_of(table1, "abci")
    assert closed[abci] == Tidset((0, 1), ())
    bc = ids_of(table1, "bc")
    assert closed[bc] == Tidset((0, 1, 2), (5, 6, 7))
    b = ids_of(table1, "b")
    assert closed[b] == Tidset((0, 1, 2, 3), (5, 6, 7))
    # abc is closed with support {1,2,3} x {7}
    abc = ids_of(table1, "abc")
    assert closed[abc] == Tidset((0, 1, 2), (6,))
    # ab is not closed (its support forces c)
    assert ids_of(table1, "ab") not in closed


def test_enumerate_closed_soundness(table1):
    for itemset, tidset in closed_tidsets(table1):
        assert supporting_tids(itemset, table1) == tidset
        assert common_items(tidset, table1) == itemset
        assert tidset.pos or tidset.neg


def test_enumerate_closed_sorted_unique(table1):
    keys = [itemset for itemset, _, _ in enumerate_closed(table1)]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))


def test_enumerate_closed_single_transaction():
    d = from_transactions([["x", "y"]], [[]])
    assert enumerate_closed(d) == [((0, 1), 0b1, 0)]


def test_enumerate_closed_identical_transactions():
    d = from_transactions([["x", "y"], ["x", "y"]], [["x", "y"]])
    assert closed_tidsets(d) == [((0, 1), Tidset((0, 1), (2,)))]


def test_enumerate_closed_random_cross_check():
    rng = random.Random(417)
    for _ in range(25):
        d = random_dataset(rng, max_case=6, max_control=6, max_items=10)
        closed = closed_tidsets(d)
        seen = set()
        for itemset, tidset in closed:
            assert supporting_tids(itemset, d) == tidset
            assert common_items(tidset, d) == itemset
            seen.add(itemset)
        # closures of random probes are all present
        m = len(d.items)
        for _ in range(20):
            probe = tuple(i for i in range(m) if rng.random() < 0.3)
            q = supporting_tids(probe, d)
            closure = common_items(q, d)
            if not (q.pos or q.neg) or not closure:
                continue
            assert closure in seen


def test_mine_oracle_requires_both_classes_in_support(table1):
    records = mine_oracle(table1)
    assert records
    for r in records:
        assert r.pos_mask and r.neg_mask
        assert supporting_tids(r.itemset, table1) == tidset_from_masks(r.pos_mask, r.neg_mask)


def test_mine_oracle_thresholds(table1):
    strict = mine_oracle(table1, Thresholds(min_sd=0.1, min_gr=1.2, min_ors=1.5))
    assert strict
    loose = mine_oracle(table1)
    assert {r.itemset for r in strict} <= {r.itemset for r in loose}
    for r in strict:
        assert r.scores.sd >= 0.1
        assert r.scores.gr >= 1.2
        assert r.scores.ors >= 1.5


def test_mine_oracle_unreachable_threshold(table1):
    # support difference can never reach 1.0 when the pattern must occur
    # in at least one control transaction
    records = mine_oracle(table1, Thresholds(min_sd=1.0))
    assert records == []


def test_oracle_size_caps():
    with pytest.raises(InstanceTooLargeError):
        enumerate_closed(generate_synthetic(13, 12, 5, 0.5, seed=1))
    with pytest.raises(InstanceTooLargeError):
        enumerate_closed(generate_synthetic(3, 3, 21, 0.5, seed=1))
    with pytest.raises(InstanceTooLargeError):
        mine_oracle(generate_synthetic(3, 3, 21, 0.5, seed=1))
