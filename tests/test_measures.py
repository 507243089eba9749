import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigpat.measures import (
    ContingencyTable,
    Thresholds,
    association_pvalue,
    check_significance,
    confidence_intervals,
    discriminance,
    score_set,
)

from reference import Tidset, contingency_from_tidset

EXACT = 1e-9


def test_contingency_table_validation():
    t = ContingencyTable(3, 2, 1, 3)
    assert t.n_case == 5
    assert t.n_control == 4
    with pytest.raises(ValueError):
        ContingencyTable(3, -1, 1, 3)


def test_contingency_from_tidset(table1):
    t = contingency_from_tidset(Tidset((0, 1), (7,)), table1)
    assert t == ContingencyTable(2, 3, 1, 3)
    with pytest.raises(ValueError):
        contingency_from_tidset(Tidset((0, 1, 2, 3, 4, 5), ()), table1)


def test_discriminance_worked_values():
    sd, gr, ors = discriminance(ContingencyTable(3, 2, 1, 3))
    assert sd == pytest.approx(0.35, abs=EXACT)
    assert gr == pytest.approx(2.4, abs=EXACT)
    assert ors == pytest.approx(4.5, abs=EXACT)

    sd, gr, ors = discriminance(ContingencyTable(2, 3, 1, 3))
    assert sd == pytest.approx(0.15, abs=EXACT)
    assert gr == pytest.approx(1.6, abs=EXACT)
    assert ors == pytest.approx(2.0, abs=EXACT)

    sd, gr, ors = discriminance(ContingencyTable(1, 4, 1, 3))
    assert sd == pytest.approx(-0.05, abs=EXACT)
    assert gr == pytest.approx(0.8, abs=EXACT)
    assert ors == pytest.approx(0.75, abs=EXACT)


def test_discriminance_zero_and_infinity_conventions():
    sd, gr, ors = discriminance(ContingencyTable(3, 2, 0, 4))
    assert gr == math.inf and ors == math.inf
    assert sd == pytest.approx(0.6, abs=EXACT)
    sd, gr, ors = discriminance(ContingencyTable(0, 5, 2, 2))
    assert gr == 0.0 and ors == 0.0
    assert sd == pytest.approx(-0.5, abs=EXACT)
    sd, gr, ors = discriminance(ContingencyTable(0, 5, 0, 4))
    assert sd == 0.0 and gr == 0.0 and ors == 0.0
    with pytest.raises(ValueError):
        discriminance(ContingencyTable(0, 0, 1, 3))


def test_confidence_intervals_worked_values():
    lci_gr, uci_gr, lci_ors, uci_ors, corrected = confidence_intervals(
        ContingencyTable(3, 2, 1, 3)
    )
    assert not corrected
    assert lci_gr == pytest.approx(0.3803538682005303, abs=EXACT)
    assert uci_gr == pytest.approx(15.143792351188104, abs=EXACT)
    assert lci_ors == pytest.approx(0.25133602598684834, abs=EXACT)
    assert uci_ors == pytest.approx(80.56942859858708, abs=EXACT)

    lci_gr, uci_gr, lci_ors, uci_ors, corrected = confidence_intervals(
        ContingencyTable(2, 3, 1, 3)
    )
    assert not corrected
    assert lci_gr == pytest.approx(0.2147246604014086, abs=EXACT)
    assert uci_gr == pytest.approx(11.922244958796577, abs=EXACT)
    assert lci_ors == pytest.approx(0.11170490043859925, abs=EXACT)
    assert uci_ors == pytest.approx(35.80863493270537, abs=EXACT)


def test_confidence_intervals_empty_cell_correction():
    lci_gr, uci_gr, lci_ors, uci_ors, corrected = confidence_intervals(
        ContingencyTable(3, 2, 0, 4)
    )
    assert corrected
    # evaluated at (3.5, 2.5, 0.5, 4.5)
    assert lci_gr == pytest.approx(0.38612527515285505, abs=EXACT)
    assert uci_gr == pytest.approx(88.1262635923205, abs=EXACT)
    assert lci_ors == pytest.approx(0.44546924842183305, abs=EXACT)
    assert uci_ors == pytest.approx(356.388236814191, abs=EXACT)
    assert all(map(math.isfinite, (lci_gr, uci_gr, lci_ors, uci_ors)))
    # an empty class has no bounds, corrected or not
    with pytest.raises(ValueError, match="^both classes must be non-empty$"):
        confidence_intervals(ContingencyTable(0, 0, 1, 2))


def test_score_set_bundles_everything():
    s = score_set(ContingencyTable(3, 2, 1, 3))
    assert s.sd == pytest.approx(0.35, abs=EXACT)
    assert s.gr == pytest.approx(2.4, abs=EXACT)
    assert s.ors == pytest.approx(4.5, abs=EXACT)
    assert s.lci_gr == pytest.approx(0.3803538682005303, abs=EXACT)
    assert s.uci_ors == pytest.approx(80.56942859858708, abs=EXACT)
    assert s.corrected_ci is False


def test_thresholds_validation():
    with pytest.raises(ValueError):
        Thresholds(min_gr=-0.5)
    with pytest.raises(ValueError):
        Thresholds(min_ors=-2.0)
    with pytest.raises(ValueError):
        Thresholds(min_sd=math.nan)
    with pytest.raises(ValueError):
        Thresholds(min_lci_ors=math.inf)


def test_check_significance_boundary_semantics():
    s = score_set(ContingencyTable(3, 2, 1, 3))
    # plain scores compare with >=
    assert check_significance(s, Thresholds(min_gr=2.0))
    assert check_significance(s, Thresholds(min_gr=2.4))
    assert not check_significance(s, Thresholds(min_gr=2.4000001))
    assert check_significance(s, Thresholds(min_sd=0.35, min_ors=4.5))
    # interval lower bounds require a strict >
    assert not check_significance(s, Thresholds(min_lci_gr=s.lci_gr))
    assert check_significance(s, Thresholds(min_lci_gr=s.lci_gr - 1e-12))
    assert not check_significance(s, Thresholds(min_lci_ors=s.lci_ors))
    # empty configuration accepts everything
    assert check_significance(score_set(ContingencyTable(0, 5, 4, 0)), Thresholds())


def test_check_significance_infinite_scores_pass():
    s = score_set(ContingencyTable(4, 1, 0, 4))
    assert check_significance(s, Thresholds(min_gr=1000.0, min_ors=1000.0))


def test_association_pvalue_worked_values():
    t = ContingencyTable(3, 2, 1, 3)
    assert association_pvalue(t) == pytest.approx(0.29371811275179194, abs=EXACT)
    perfect = ContingencyTable(20, 0, 0, 20)
    assert association_pvalue(perfect) == pytest.approx(2.53962858947086e-10, rel=1e-9)


def test_association_pvalue_empty_margin():
    assert association_pvalue(ContingencyTable(0, 5, 0, 4)) == 1.0
    assert association_pvalue(ContingencyTable(5, 0, 4, 0)) == 1.0


def test_association_pvalue_symmetry():
    t = ContingencyTable(7, 3, 2, 8)
    swapped = ContingencyTable(2, 8, 7, 3)
    assert association_pvalue(t) == pytest.approx(association_pvalue(swapped), abs=EXACT)


tables = st.tuples(
    st.integers(0, 12), st.integers(0, 12), st.integers(0, 12), st.integers(0, 12)
).filter(lambda t: t[0] + t[1] > 0 and t[2] + t[3] > 0)


@settings(max_examples=200, deadline=None)
@given(tables)
def test_odds_ratio_class_swap_inverts(cells):
    a, b, c, d = cells
    _, _, ors = discriminance(ContingencyTable(a, b, c, d))
    _, _, swapped = discriminance(ContingencyTable(c, d, a, b))
    if 0.0 < ors < math.inf:
        assert swapped == pytest.approx(1.0 / ors, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(tables)
def test_confidence_bounds_bracket_point_estimates(cells):
    a, b, c, d = cells
    t = ContingencyTable(a, b, c, d)
    lci_gr, uci_gr, lci_ors, uci_ors, corrected = confidence_intervals(t)
    assert 0.0 < lci_gr <= uci_gr
    assert 0.0 < lci_ors <= uci_ors
    _, gr, ors = discriminance(t)
    if not corrected:
        assert lci_gr <= gr <= uci_gr
        assert lci_ors <= ors <= uci_ors


@settings(max_examples=200, deadline=None)
@given(tables)
def test_pvalue_range(cells):
    p = association_pvalue(ContingencyTable(*cells))
    assert 0.0 <= p <= 1.0