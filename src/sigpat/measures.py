"""Discriminance scores, confidence intervals and tests for 2x2 class tables.

A contingency table (a, b, c, d) counts cases containing a pattern, cases
lacking it, controls containing it and controls lacking it. The three
discriminance scores are support difference, growth rate and odds ratio;
their 95% confidence bounds use the standard log-normal approximation with
z = 1.96 and the Haldane-Anscombe +0.5 correction when a cell is empty.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

Z_95 = 1.96


class _ContingencyTable(NamedTuple):
    a: int
    b: int
    c: int
    d: int


class ContingencyTable(_ContingencyTable):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> ContingencyTable:
        self = super().__new__(cls, *args, **kwargs)
        if min(self) < 0:
            raise ValueError("contingency counts must be non-negative")
        return self

    #: ``_replace`` builds through ``_make``, so it is checked as well
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def n_case(self) -> int:
        return self.a + self.b

    @property
    def n_control(self) -> int:
        return self.c + self.d


class ScoreSet(NamedTuple):
    sd: float
    gr: float
    ors: float
    lci_gr: float
    uci_gr: float
    lci_ors: float
    uci_ors: float
    corrected_ci: bool


class _Thresholds(NamedTuple):
    min_sd: Optional[float] = None
    min_gr: Optional[float] = None
    min_ors: Optional[float] = None
    min_lci_gr: Optional[float] = None
    min_lci_ors: Optional[float] = None


class Thresholds(_Thresholds):
    """Minimum values a pattern must reach; any subset may be set.

    Plain score thresholds compare with >=, interval lower bounds with
    a strict >. A missing threshold is vacuously satisfied.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> Thresholds:
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if name in ("min_gr", "min_ors") and value is not None and value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))


def discriminance(table: ContingencyTable) -> tuple[float, float, float]:
    """(support difference, growth rate, odds ratio) with the 0/inf conventions.

    A positive numerator over a zero denominator yields +inf, a zero numerator
    over a positive denominator yields 0, and the fully degenerate 0/0 forms
    are reported as 0.
    """
    n1, n2 = table.n_case, table.n_control
    if n1 == 0 or n2 == 0:
        raise ValueError("both classes must be non-empty")
    s1, s2 = table.a / n1, table.c / n2
    ad, bc = table.a * table.d, table.b * table.c
    gr = s1 / s2 if table.c > 0 else math.inf if table.a > 0 else 0.0
    ors = ad / bc if bc > 0 else math.inf if ad > 0 else 0.0
    return s1 - s2, gr, ors


def confidence_intervals(table: ContingencyTable) -> tuple[float, float, float, float, bool]:
    """95% bounds (lci_gr, uci_gr, lci_ors, uci_ors, corrected).

    When any cell is 0 the log-scale standard errors are undefined, so every
    cell gets +0.5 before evaluation and the corrected flag is set.
    """
    if table.n_case == 0 or table.n_control == 0:
        raise ValueError("both classes must be non-empty")
    corrected = min(table.a, table.b, table.c, table.d) == 0
    shift = 0.5 if corrected else 0.0
    a, b, c, d = (cell + shift for cell in table)
    n1, n2 = a + b, c + d
    log_gr = math.log((a / n1) / (c / n2))
    half_gr = Z_95 * math.sqrt(1.0 / a - 1.0 / n1 + 1.0 / c - 1.0 / n2)
    log_ors = math.log((a * d) / (b * c))
    half_ors = Z_95 * math.sqrt(1.0 / a + 1.0 / b + 1.0 / c + 1.0 / d)
    return (
        math.exp(log_gr - half_gr),
        math.exp(log_gr + half_gr),
        math.exp(log_ors - half_ors),
        math.exp(log_ors + half_ors),
        corrected,
    )


def score_set(table: ContingencyTable) -> ScoreSet:
    sd, gr, ors = discriminance(table)
    lci_gr, uci_gr, lci_ors, uci_ors, corrected = confidence_intervals(table)
    return ScoreSet(sd, gr, ors, lci_gr, uci_gr, lci_ors, uci_ors, corrected)


def check_significance(scores: ScoreSet, thresholds: Thresholds) -> bool:
    """True when ``scores`` meet every configured threshold (infinite scores pass all)."""
    s, t = scores, thresholds
    return (
        (t.min_sd is None or s.sd >= t.min_sd)
        and (t.min_gr is None or s.gr >= t.min_gr)
        and (t.min_ors is None or s.ors >= t.min_ors)
        and (t.min_lci_gr is None or s.lci_gr > t.min_lci_gr)
        and (t.min_lci_ors is None or s.lci_ors > t.min_lci_ors)
    )


def association_pvalue(table: ContingencyTable) -> float:
    """Upper-tail Pearson chi-square p-value (1 dof) for class association.

    Returns 1.0 when any margin is empty.
    """
    a, b, c, d = table.a, table.b, table.c, table.d
    n = a + b + c + d
    r1, r2, c1, c2 = a + b, c + d, a + c, b + d
    if 0 in (r1, r2, c1, c2):
        return 1.0
    diff = abs(a * d - b * c)
    stat = n * diff * diff / (r1 * r2 * c1 * c2)
    return math.erfc(math.sqrt(stat / 2.0))
