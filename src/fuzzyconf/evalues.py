"""Utilities that value evidence, and the exactness tolerance.

A utility says how evidence is valued; the expected-utility-optimal exact
e-value maximizes its expected value under the alternative subject to
exactness: the multiplicity-weighted orbit mean of the evidence equals 1.
Exactness conditional on every orbit is what makes the e-value valid for
every exchangeable law.

The stationarity condition pinning the optimum is U'(e(v)) * lr(v) = const,
i.e. e(v) = (U')^{-1}(const / lr(v)); evidence is always a non-decreasing
function of the likelihood ratio within a profile. Log utility returns the
likelihood ratio itself; a power utility returns a normalized power of it;
the linear-capped (Neyman-Pearson) utility returns the classical
most-powerful test, taking at most three values {0, k, 1/alpha}.

This module holds only the utility specifications, which load no numpy.
The one production implementation of each optimal e-value is the
sorted-calibration core in ``confidence``; the per-orbit ``optimal_evalue``
and ``evalue_at`` in ``reference`` are the oracle it is tested against.
"""

from __future__ import annotations

import math
from typing import Union

from .sets import _Frozen

EXACTNESS_TOL = 1e-9


# ---------------------------------------------------------------------------
# Utility specifications
# ---------------------------------------------------------------------------


class NeymanPearson(_Frozen):
    """Linear utility capped at 1/alpha: value evidence up to a rejection
    at level alpha and not beyond."""

    alpha: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")


class Log(_Frozen):
    """Logarithmic utility; the optimal e-value is the likelihood ratio."""


class Power(_Frozen):
    """Power utility x -> (x^h - 1)/h with -inf < h < 1, h != 0.

    h close to 1 concentrates evidence on the likeliest value (risky);
    h -> -infinity flattens the e-value toward the no-risk constant 1.
    """

    h: float

    def __post_init__(self) -> None:
        if not -math.inf < self.h < 1.0 or self.h == 0.0:
            raise ValueError("h must satisfy -inf < h < 1 and h != 0")


class BoundedLog(_Frozen):
    """Log utility of evidence capped at 1/alpha: the likelihood ratio is
    boosted by a constant and capped so the orbit mean stays 1."""

    alpha: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")


class ClippedLog(_Frozen):
    """Log-optimal evidence clipped from below at b, shrunk to stay exact.

    A floor keeps a single zero-evidence value from dominating downstream
    minimax decisions.
    """

    b: float

    def __post_init__(self) -> None:
        if not 0.0 < self.b <= 1.0:
            raise ValueError("b must lie in (0, 1]")


class Dampened(_Frozen):
    """b-mixture of an inner optimal e-value with the constant 1; the inner
    utility is not dampened, as b over c is B = 1 - (1 - b)(1 - c)."""

    b: float
    inner: "UtilitySpec"

    def __post_init__(self) -> None:
        if not 0.0 < self.b < 1.0:
            raise ValueError("b must lie in (0, 1)")
        if isinstance(self.inner, Dampened):
            raise ValueError("the inner utility must not be dampened: b over c is "
                             "dampened with B = 1 - (1 - b)(1 - c)")


UtilitySpec = Union[NeymanPearson, Log, Power, BoundedLog, ClippedLog, Dampened]


def utility_id(utility: UtilitySpec) -> str:
    """Stable identifier used in provenance metadata and on the CLI."""
    if isinstance(utility, NeymanPearson):
        return f"np(alpha={utility.alpha:g})"
    if isinstance(utility, Log):
        return "log"
    if isinstance(utility, Power):
        return f"power(h={utility.h:g})"
    if isinstance(utility, BoundedLog):
        return f"bounded-log(alpha={utility.alpha:g})"
    if isinstance(utility, ClippedLog):
        return f"clipped-log(b={utility.b:g})"
    if isinstance(utility, Dampened):
        return f"dampened(b={utility.b:g},{utility_id(utility.inner)})"
    raise TypeError(f"unknown utility {utility!r}")
