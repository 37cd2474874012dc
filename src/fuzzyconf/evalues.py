"""Exact, expected-utility-optimal e-values on permutation orbits.

Given a likelihood-ratio profile and a utility describing how evidence is
valued, ``optimal_evalue`` returns the evidence profile maximizing expected
utility under the alternative, subject to exactness: the multiplicity-
weighted orbit mean of the evidence equals 1. Exactness conditional on
every orbit is what makes the e-value valid for every exchangeable law.

The stationarity condition pinning the optimum is U'(e(v)) * lr(v) = const,
i.e. e(v) = (U')^{-1}(const / lr(v)); evidence is always a non-decreasing
function of the likelihood ratio within a profile. Log utility returns the
likelihood ratio itself; a power utility returns a normalized power of it;
the linear-capped (Neyman-Pearson) utility returns the classical
most-powerful test, taking at most three values {0, k, 1/alpha}.

This per-orbit path is the API and the reference. Fuzzy sets, the command
line and the Monte-Carlo validators take the same e-values for many tuples
at once from the sorted-calibration core in ``confidence``, which the tests
check against ``evalue_at``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .alternatives import AlternativeSpec, LikelihoodRatioProfile, profile_for
from .errors import NormalizationFailureError
from .orbits import TupleLike, tuple_values

EXACTNESS_TOL = 1e-9

_BRACKET_LO = 1e-12
_MAX_BISECT = 200


# ---------------------------------------------------------------------------
# Utility specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NeymanPearson:
    """Linear utility capped at 1/alpha: value evidence up to a rejection
    at level alpha and not beyond."""

    alpha: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")


@dataclass(frozen=True)
class Log:
    """Logarithmic utility; the optimal e-value is the likelihood ratio."""


@dataclass(frozen=True)
class Power:
    """Power utility x -> (x^h - 1)/h with h < 1, h != 0.

    h close to 1 concentrates evidence on the likeliest value (risky);
    h -> -infinity flattens the e-value toward the no-risk constant 1.
    """

    h: float

    def __post_init__(self) -> None:
        if not self.h < 1.0 or self.h == 0.0:
            raise ValueError("h must satisfy h < 1 and h != 0")


@dataclass(frozen=True)
class BoundedLog:
    """Log utility of evidence capped at 1/alpha: the likelihood ratio is
    boosted by a constant and capped so the orbit mean stays 1."""

    alpha: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")


@dataclass(frozen=True)
class ClippedLog:
    """Log-optimal evidence clipped from below at b, shrunk to stay exact.

    A floor keeps a single zero-evidence value from dominating downstream
    minimax decisions.
    """

    b: float

    def __post_init__(self) -> None:
        if not 0.0 < self.b <= 1.0:
            raise ValueError("b must lie in (0, 1]")


@dataclass(frozen=True)
class Dampened:
    """b-mixture of an inner optimal e-value with the constant 1."""

    b: float
    inner: "UtilitySpec"

    def __post_init__(self) -> None:
        if not 0.0 < self.b < 1.0:
            raise ValueError("b must lie in (0, 1)")


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


# ---------------------------------------------------------------------------
# Evidence profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EValueProfile:
    """Evidence per distinct orbit value, exact on the orbit.

    ``normalization`` records the orbit-dependent constant(s) used: a single
    multiplier for capped/clipped shapes, or the pair (threshold, boundary
    value) for the Neyman-Pearson form.
    """

    values: tuple[float, ...]
    counts: tuple[int, ...]
    evidence: tuple[float, ...]
    normalization: tuple[float, ...] = (1.0,)

    def __post_init__(self) -> None:
        if not (len(self.values) == len(self.counts) == len(self.evidence)):
            raise ValueError("values, counts and evidence must have equal length")
        for e in self.evidence:
            if not (math.isfinite(e) and e >= 0.0):
                raise ValueError(f"evidence must be finite and >= 0, got {e!r}")
        mean = self.orbit_mean()
        if abs(mean - 1.0) > EXACTNESS_TOL:
            raise ValueError(f"profile is not exact: orbit mean {mean!r}")

    @property
    def size(self) -> int:
        return sum(self.counts)

    def orbit_mean(self) -> float:
        m = sum(self.counts)
        return sum(c * e for c, e in zip(self.counts, self.evidence)) / m

    def evidence_at(self, value: float) -> float:
        """Evidence at a value of the orbit (exact match)."""
        for v, e in zip(self.values, self.evidence):
            if v == value:
                return e
        raise ValueError(f"{value!r} is not on this orbit")


# ---------------------------------------------------------------------------
# Normalization machinery
# ---------------------------------------------------------------------------


def capped_shape(cap: float) -> Callable[[float, np.ndarray], np.ndarray]:
    """lam -> min(lam * lr, cap), the bounded-log family of shapes."""

    def shape(lam: float, lr: np.ndarray) -> np.ndarray:
        return np.minimum(lam * lr, cap)

    return shape


def clipped_shape(floor: float) -> Callable[[float, np.ndarray], np.ndarray]:
    """lam -> max(lam * lr, floor), the clipped-log family of shapes."""

    def shape(lam: float, lr: np.ndarray) -> np.ndarray:
        return np.maximum(lam * lr, floor)

    return shape


def normalization_lambda(
    profile: LikelihoodRatioProfile,
    shape: Callable[[float, np.ndarray], np.ndarray],
) -> float:
    """Constant making a monotone-shaped profile an exact e-value.

    Bisects lam until the multiplicity-weighted orbit mean of
    ``shape(lam, lr)`` equals 1 within 1e-9. The shape's orbit mean must be
    continuous and non-decreasing in lam. Raises NormalizationFailureError
    when the mean exceeds 1 at lam = 1e-12 or stops growing short of 1.
    """
    lr = np.asarray(profile.lr, dtype=float)
    w = np.asarray(profile.counts, dtype=float)
    w = w / w.sum()

    def mean_at(lam: float) -> float:
        return float(w @ shape(lam, lr))

    lo = _BRACKET_LO
    if mean_at(lo) > 1.0 + EXACTNESS_TOL:
        raise NormalizationFailureError("orbit mean exceeds 1 at the smallest bracket")
    if abs(mean_at(lo) - 1.0) <= EXACTNESS_TOL:
        return lo

    hi, at_hi = 1.0, shape(1.0, lr)
    # boundary-feasible shapes reach 1 only within roundoff; NaN keeps looping
    while not w @ at_hi >= 1.0 - EXACTNESS_TOL:
        hi *= 2.0
        before, at_hi = at_hi, shape(hi, lr)
        if np.array_equal(at_hi, before) or not math.isfinite(hi):  # past every breakpoint
            raise NormalizationFailureError(
                "orbit mean never reaches 1; the shaped e-value is infeasible"
            )

    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        if mean_at(mid) < 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            break
    lam = 0.5 * (lo + hi)
    if abs(mean_at(lam) - 1.0) > EXACTNESS_TOL:
        raise NormalizationFailureError(f"bisection stalled at residual {mean_at(lam) - 1.0!r}")
    return lam


def np_threshold(profile: LikelihoodRatioProfile, alpha: float) -> tuple[float, float]:
    """Threshold c and boundary value k of the most-powerful exact e-value.

    c is the alpha upper-quantile of the likelihood ratio under the uniform
    orbit law: the smallest attained LR value whose strict upper-tail
    probability is below alpha. k solves
    P(LR > c)/alpha + P(LR = c) * k = 1, so the e-value assigning 1/alpha
    above c, k at c and 0 below is exact; 0 <= k <= 1/alpha always holds.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    m = profile.size
    # aggregate multiplicities by LR value: distinct orbit values can share one
    by_lr: dict[float, int] = {}
    for count, x in zip(profile.counts, profile.lr):
        by_lr[x] = by_lr.get(x, 0) + count
    support = sorted(by_lr)

    gt = m
    c = support[-1]
    for v in support:
        gt -= by_lr[v]
        if gt < alpha * m:
            c = v
            break
    eq = by_lr[c]
    k = (1.0 - gt / (alpha * m)) * (m / eq)
    return c, k


# ---------------------------------------------------------------------------
# The optimal e-value
# ---------------------------------------------------------------------------


def _power_evidence(lr: np.ndarray, w: np.ndarray, h: float) -> np.ndarray:
    # computed in log space: lr^s can overflow for h near 1
    s = 1.0 / (1.0 - h)
    with np.errstate(divide="ignore"):
        loglr = np.log(lr)
        logw = np.log(w)
    terms = logw + s * loglr
    denom = float(np.logaddexp.reduce(np.sort(terms)))
    with np.errstate(over="ignore"):
        e = np.exp(s * loglr - denom)
    return e


def optimal_evalue(profile: LikelihoodRatioProfile, utility: UtilitySpec) -> EValueProfile:
    """Expected-utility-optimal exact e-value for a likelihood-ratio profile.

    Dispatches on the utility family:

    * ``Log`` -- the likelihood ratio itself;
    * ``Power(h)`` -- lr^(1/(1-h)) normalized to orbit mean 1;
    * ``NeymanPearson(alpha)`` -- 1/alpha above the threshold from
      ``np_threshold``, k on it, 0 below;
    * ``BoundedLog(alpha)`` -- min(lam * lr, 1/alpha) with lam from
      ``normalization_lambda``;
    * ``ClippedLog(b)`` -- max(lam * lr, b), likewise;
    * ``Dampened(b, inner)`` -- b + (1 - b) * (inner optimal e-value).

    Every returned profile is exact (orbit mean 1 within 1e-9).
    """
    lr = np.asarray(profile.lr, dtype=float)
    w = np.asarray(profile.counts, dtype=float)
    w = w / w.sum()

    if isinstance(utility, Log):
        evidence = lr
        norm = (1.0,)
    elif isinstance(utility, Power):
        evidence = _power_evidence(lr, w, utility.h)
        norm = (1.0,)
    elif isinstance(utility, NeymanPearson):
        c, k = np_threshold(profile, utility.alpha)
        inv_alpha = 1.0 / utility.alpha
        evidence = np.where(lr > c, inv_alpha, np.where(lr == c, k, 0.0))
        norm = (c, k)
    elif isinstance(utility, BoundedLog):
        shape = capped_shape(1.0 / utility.alpha)
        lam = normalization_lambda(profile, shape)
        evidence = shape(lam, lr)
        norm = (lam,)
    elif isinstance(utility, ClippedLog):
        shape = clipped_shape(utility.b)
        lam = normalization_lambda(profile, shape)
        evidence = shape(lam, lr)
        norm = (lam,)
    elif isinstance(utility, Dampened):
        inner = optimal_evalue(profile, utility.inner)
        evidence = utility.b + (1.0 - utility.b) * np.asarray(inner.evidence)
        norm = inner.normalization
    else:
        raise TypeError(f"unknown utility {utility!r}")

    return EValueProfile(
        profile.values, profile.counts, tuple(float(e) for e in evidence), norm
    )


def evalue_at(data: TupleLike, alt: AlternativeSpec, utility: UtilitySpec) -> float:
    """Optimal e-value evaluated at the final slot of the observed tuple."""
    vals = tuple_values(data)
    prof = profile_for(vals, alt)
    return optimal_evalue(prof, utility).evidence_at(vals[-1])
