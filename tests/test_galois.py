import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_dataset
from reference import (
    Tidset,
    closure_full,
    closure_neg,
    closure_pos,
    common_items,
    supporting_case_tids,
    supporting_control_tids,
    supporting_tids,
    tidset_mask,
)


def ids_of(dataset, names):
    return tuple(sorted(dataset.items.index(x) for x in names))


def test_common_items_mixed_tidset(table1):
    # case transactions 1, 2 and control transaction 8 share exactly b, c, i
    q = Tidset((0, 1), (7,))
    assert common_items(q, table1) == ids_of(table1, "bci")


def test_common_items_case_pair(table1):
    assert common_items(Tidset((0, 1), ()), table1) == ids_of(table1, "abci")


def test_common_items_empty_tidset(table1):
    assert common_items(Tidset(), table1) == tuple(range(len(table1.items)))


def test_supporting_tids(table1):
    q = supporting_tids(ids_of(table1, "bc"), table1)
    assert q == Tidset((0, 1, 2), (5, 6, 7))


def test_supporting_tids_empty_itemset(table1):
    q = supporting_tids((), table1)
    assert q.pos == tuple(range(5))
    assert q.neg == tuple(range(5, 9))


def test_supporting_side_helpers(table1):
    p = ids_of(table1, "bc")
    assert supporting_case_tids(p, table1) == (0, 1, 2)
    assert supporting_control_tids(p, table1) == (5, 6, 7)


def test_closure_full(table1):
    assert closure_full(Tidset((0, 1), ()), table1) == Tidset((0, 1), ())
    # case transactions 1, 2, 4 share b, i which control 8 also contains
    assert closure_full(Tidset((0, 1, 3), ()), table1) == Tidset((0, 1, 3), (7,))
    # cases 1-3 with control 6 share b, c: controls 7, 8 join the support
    assert closure_full(Tidset((0, 1, 2), (5,)), table1) == Tidset((0, 1, 2), (5, 6, 7))


def test_closure_pos(table1):
    # case transactions 2 and 4 share b, e, g, i which also occur in no
    # other case transaction
    assert closure_pos(Tidset((1, 3), ()), table1) == Tidset((1, 3), ())
    # {1} supports abcfij, also contained in no other case row
    assert closure_pos(Tidset((0,), ()), table1) == Tidset((0,), ())
    with pytest.raises(ValueError):
        closure_pos(Tidset((0,), (5,)), table1)


def test_closure_neg_keeps_case_part(table1):
    # {1, 2} with control 6: common items are b, c which every control
    # transaction except 9 contains; the case part must stay (0, 1)
    q = closure_neg(Tidset((0, 1), (5,)), table1)
    assert q == Tidset((0, 1), (5, 6, 7))
    with pytest.raises(ValueError):
        closure_neg(Tidset((0, 1), ()), table1)


def test_closure_neg_saturates_only_controls(table1):
    # common_items((1,), (8,)) = aeg; its control support adds nothing new
    q = closure_neg(Tidset((1,), (8,)), table1)
    assert q == Tidset((1,), (8,))


@st.composite
def dataset_and_tidset(draw):
    seed = draw(st.integers(min_value=0, max_value=10**6))
    dataset = random_dataset(random.Random(seed))
    raw = draw(st.integers(min_value=0, max_value=(1 << dataset.n) - 1))
    q = Tidset(
        tuple(t for t in range(dataset.n_case) if raw >> t & 1),
        tuple(t for t in range(dataset.n_case, dataset.n) if raw >> t & 1),
    )
    return dataset, q


@st.composite
def dataset_and_itemset(draw):
    seed = draw(st.integers(min_value=0, max_value=10**6))
    dataset = random_dataset(random.Random(seed))
    m = len(dataset.items)
    raw = draw(st.integers(min_value=0, max_value=(1 << m) - 1))
    p = tuple(i for i in range(m) if raw >> i & 1)
    return dataset, p


@settings(max_examples=120, deadline=None)
@given(dataset_and_tidset())
def test_closure_is_extensive_and_idempotent(data):
    dataset, q = data
    c = closure_full(q, dataset)
    assert set(q.pos) <= set(c.pos)
    assert set(q.neg) <= set(c.neg)
    assert closure_full(c, dataset) == c


@settings(max_examples=120, deadline=None)
@given(dataset_and_tidset())
def test_common_items_antitone(data):
    dataset, q = data
    if not (q.pos or q.neg):
        return
    smaller = Tidset(q.pos[: len(q.pos) // 2], q.neg[: len(q.neg) // 2])
    assert set(common_items(q, dataset)) <= set(common_items(smaller, dataset))


@settings(max_examples=120, deadline=None)
@given(dataset_and_itemset())
def test_connection_consistency(data):
    """p <= f(g(p)) and g(p) = g(f(g(p))) for every itemset p."""
    dataset, p = data
    q = supporting_tids(p, dataset)
    closed = common_items(q, dataset)
    assert set(p) <= set(closed)
    assert supporting_tids(closed, dataset) == q


@settings(max_examples=120, deadline=None)
@given(dataset_and_tidset())
def test_support_link(data):
    """Every tid of q supports the common itemset of q."""
    dataset, q = data
    p = common_items(q, dataset)
    mask = tidset_mask(q, dataset)
    sup = tidset_mask(supporting_tids(p, dataset), dataset)
    assert sup & mask == mask
