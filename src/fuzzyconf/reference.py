"""Reference implementations: the per-orbit path and the brute-force oracles.

Everything here exists to be compared against. No other module of the
package imports this one; the command line, fuzzy sets and the Monte-Carlo
validators take their e-values from the sorted-calibration core in
``confidence``, and the suite and the benchmark check that core against the
functions below.

* The per-orbit scalar path: ``orbit_of`` reduces a tuple to its
  permutation orbit, ``profile_for`` builds the likelihood-ratio profile of
  one tuple, ``optimal_evalue`` shapes it for a utility, and ``evalue_at``
  shapes the tuple's own ratios and reads the final slot. One shaper serves
  all three: it never divides by the ratios' mean and rounds each value
  once (rationals; 50-digit decimals for power). Both profiles are
  densities on the orbit and share one set of checks. The path is also the
  API for profiles given directly, as per-slot masses.
* ``brute_force_conditional_lr`` recomputes the conditional likelihood
  ratio by explicitly averaging joint densities over every slot the target
  could occupy, independent of the shortcut formula; a zero or non-finite
  density raises ``ValueError``.
* ``numerical_utility_oracle`` maximizes expected utility over the
  exactness polytope with a generic constrained optimizer (an LP for the
  linear-capped family, SLSQP otherwise), independent of the closed forms.
* ``classical_conformal_membership`` is the textbook conformal set.
* ``evalues_for`` runs a whole matrix through the engine's row loop as one
  block, and ``sample_matrix`` and ``sample_finite_matrix`` join the trial
  stream the validators draw block by block.

The per-orbit path checks its ratios as the core does and shapes them
without numpy; scipy is imported only inside ``numerical_utility_oracle``.
"""

from __future__ import annotations

import math
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cached_property
from itertools import groupby
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .alternatives import AlternativeSpec, IidRatio, _ratio_matrix
from .confidence import TupleLike, _final_slot_statistics, tuple_values
from .errors import AllZeroRatioError, NormalizationFailureError
from .evalues import (
    EXACTNESS_TOL,
    BoundedLog,
    ClippedLog,
    Dampened,
    Log,
    NeymanPearson,
    Power,
    UtilitySpec,
)
from .gaussian import _widening, bounded_log_boost
from .sets import _Frozen

if TYPE_CHECKING:
    from .harness import McConfig


# ---------------------------------------------------------------------------
# Permutation orbits and likelihood-ratio profiles
# ---------------------------------------------------------------------------


class Orbit(_Frozen):
    """Canonical representative (ascending sort) of a permutation orbit.

    Exchangeable laws are uniform on each orbit, so the per-orbit path only
    needs the representative and the multiplicities of its distinct values.
    Two tuples with equal multisets of values produce equal orbits. Ties are
    detected by exact floating-point equality: approximate tie detection
    would silently change the orbit structure.
    """

    representative: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.representative:
            raise ValueError("orbit representative must be nonempty")
        rep = self.representative
        if any(b < a for a, b in zip(rep, rep[1:])):
            raise ValueError("orbit representative must be sorted ascending")

    @property
    def size(self) -> int:
        return len(self.representative)

    @cached_property
    def values(self) -> tuple[float, ...]:
        """Distinct values in ascending order."""
        return tuple(v for v, _ in groupby(self.representative))

    @cached_property
    def counts(self) -> tuple[int, ...]:
        """Multiplicity of each distinct value; sums to ``size``."""
        return tuple(sum(1 for _ in grp) for _, grp in groupby(self.representative))


def orbit_of(data: TupleLike) -> Orbit:
    """Canonical orbit of a tuple; invariant under any permutation of the input."""
    vals = tuple_values(data)
    if not vals:
        raise ValueError("cannot form the orbit of an empty tuple")
    return Orbit(tuple(sorted(vals)))


class _OrbitDensity(_Frozen):
    """Distinct orbit values, their multiplicities and a density with respect
    to the uniform orbit law: finite, nonnegative, multiplicity-weighted mean
    1. An exact e-value is one, the likelihood ratio of the alternative it
    implies, so both profiles below are."""

    def __post_init__(self) -> None:
        values, counts, density = self._values()
        name = self._fields[2]
        if not (len(values) == len(counts) == len(density)):
            raise ValueError(f"values, counts and {name} must have equal length")
        if any(c < 1 for c in counts):
            raise ValueError("multiplicities must be positive")
        for x in density:
            if not (math.isfinite(x) and x >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {x!r}")
        mean = self.orbit_mean()
        if abs(mean - 1.0) > EXACTNESS_TOL:
            raise ValueError(f"orbit mean of {name} is {mean!r}, not 1")

    @property
    def size(self) -> int:
        return sum(self.counts)

    def orbit_mean(self) -> float:
        return sum(c * x for c, x in zip(self.counts, self._values()[2])) / self.size

    def _at(self, value: float) -> float:
        """The density at a value of the orbit (exact match)."""
        for v, x in zip(self.values, self._values()[2]):
            if v == value:
                return x
        raise ValueError(f"{value!r} is not on this orbit")


class LikelihoodRatioProfile(_OrbitDensity):
    """Conditional likelihood ratio per distinct orbit value: ``lr[i]`` is
    the ratio of the alternative's final-slot law to the uniform law on the
    orbit at ``values[i]``."""

    values: tuple[float, ...]
    counts: tuple[int, ...]
    lr: tuple[float, ...]

    lr_at = _OrbitDensity._at


def conditional_lr_iid(data: TupleLike, ratio: Callable[[float], float]) -> LikelihoodRatioProfile:
    """Likelihood-ratio profile for an independent alternative.

    For a tuple (z_1, ..., z_m) and per-observation ratio r, the profile is
    lr(v) = r(v) / mean_i r(z_i) over all m slots, the log shaping of
    ``_shaped``: exact in rationals, rounded once, with no sum to overflow.
    Scaling r by any positive constant leaves the profile unchanged.

    Raises AllZeroRatioError when r vanishes on every element of the tuple.
    """
    return profile_for(data, IidRatio(ratio))


def _orbit_ratios(data: TupleLike, alt: AlternativeSpec) -> tuple[tuple, Orbit, list[float]]:
    """The tuple, its orbit and the ratio of each distinct orbit value: the
    alternative's ratio is evaluated once on the tuple as a (1, m) row, as
    the core evaluates every row, and each value's ratio read from its slots."""
    vals = tuple_values(data)
    orbit = orbit_of(vals)
    at = dict(zip(vals, _ratio_matrix(np.array([vals]), alt)[0].tolist()))
    return vals, orbit, [at[v] for v in orbit.values]


def profile_for(data: TupleLike, alt: AlternativeSpec) -> LikelihoodRatioProfile:
    """The LR profile of a tuple under an alternative: its orbit's ratios
    shaped for ``Log``, as ``conditional_lr_iid`` shapes them."""
    _, orbit, ratios = _orbit_ratios(data, alt)
    lr = _shaped(orbit.counts, ratios, Log())
    return LikelihoodRatioProfile(orbit.values, orbit.counts, tuple(lr))


# ---------------------------------------------------------------------------
# Optimal e-values on one orbit
# ---------------------------------------------------------------------------


class EValueProfile(_OrbitDensity):
    """Evidence per distinct orbit value, exact on the orbit."""

    values: tuple[float, ...]
    counts: tuple[int, ...]
    evidence: tuple[float, ...]

    evidence_at = _OrbitDensity._at


def _shaped(counts: Sequence[int], ratios: Sequence[float], utility: UtilitySpec) -> list[float]:
    """Optimal evidence per distinct orbit value from its multiplicity and
    its ratio, the ratios given up to scale: no shaping divides by their
    mean. Log is m * r / sum(c * r) in rationals, power the same of r^s,
    s = 1/(1 - h), in 50-digit decimals relative to the largest ratio, and
    capped and clipped the rational walk; each is rounded once. NP ranks
    the ratios themselves and Dampened mixes in floats, as the core does.
    Raises AllZeroRatioError when every ratio is zero.
    """
    if not any(ratios):
        raise AllZeroRatioError("the ratio is zero on every element of the tuple")
    m = sum(counts)
    if isinstance(utility, Log):
        total = sum(c * Fraction(r) for c, r in zip(counts, ratios))
        return [float(m * Fraction(r) / total) for r in ratios]
    if isinstance(utility, Power):
        with localcontext() as ctx:
            ctx.prec = 50
            s, top = 1 / (1 - Decimal(utility.h)), Decimal(max(ratios))
            k = 1 / (1 - Fraction(utility.h))  # s exactly; an integral s takes decimal's **
            w = [(Decimal(r) / top) ** k.numerator if k.denominator == 1
                 else (s * (Decimal(r) / top).ln()).exp() if r > 0.0 else Decimal(0) for r in ratios]
            total = sum(c * x for c, x in zip(counts, w))
            return [float(m * x / total) for x in w]
    if isinstance(utility, NeymanPearson):
        c, k = _np_threshold(counts, ratios, utility.alpha)
        return [1.0 / utility.alpha if r > c else k if r == c else 0.0 for r in ratios]
    if isinstance(utility, BoundedLog):
        return _level_evidence(counts, ratios, 1.0 / utility.alpha, capped=True)
    if isinstance(utility, ClippedLog):
        return _level_evidence(counts, ratios, utility.b, capped=False)
    if isinstance(utility, Dampened):
        return [utility.b + (1.0 - utility.b) * e for e in _shaped(counts, ratios, utility.inner)]
    raise TypeError(f"unknown utility {utility!r}")


def _level_evidence(counts: Sequence[int], ratios: Sequence[float], level: float,
                    capped: bool) -> list[float]:
    """min(kappa * r, level) (``capped``) or max(kappa * r, level), with
    kappa solving the exactness equation in rationals.

    The multiplicity-weighted sum of the shaped ratios is piecewise linear
    and non-decreasing in kappa, with a breakpoint where each positive slot
    meets the level. The walk takes the positive slots in the order they
    reach it, descending under the cap and ascending over the floor; a zero
    slot sits at the floor throughout. With ``at`` slots at the level and
    ``rest`` the sum of c * r over the others, the segment's root is
    kappa = (m - at * level) / rest, and the first root on its own segment
    is the answer. Once every positive slot is capped no root remains: the
    last breakpoint serves if the capped sum is within EXACTNESS_TOL of m,
    and NormalizationFailureError is raised otherwise, as it is for a level
    past the float range (a cap 1/alpha that overflows). Each value is
    rounded once.
    """
    if not math.isfinite(level):
        raise NormalizationFailureError(
            f"the level {level!r} is past the float range; the shaped e-value is infeasible")
    m = sum(counts)
    bar = Fraction(level)
    slots = [(Fraction(x), c) for x, c in sorted(zip(ratios, counts), reverse=capped) if x > 0.0]
    at = 0 if capped else m - sum(c for _, c in slots)
    rest = sum(c * x for x, c in slots)
    for x, c in slots:
        kappa = (m - at * bar) / rest
        if (kappa * x <= bar) if capped else (kappa * x >= bar):
            break
        at += c
        rest -= c * x
    else:
        if at * bar < m * (1 - Fraction(EXACTNESS_TOL)):
            raise NormalizationFailureError(
                "orbit mean never reaches 1; the shaped e-value is infeasible")
        kappa = bar / x
    shape = min if capped else max
    return [float(shape(kappa * Fraction(x), bar)) for x in ratios]


def np_threshold(profile: LikelihoodRatioProfile, alpha: float) -> tuple[float, float]:
    """Threshold c and boundary value k of the most-powerful exact e-value.

    c is the alpha upper-quantile of the likelihood ratio under the uniform
    orbit law: the smallest attained LR value whose strict upper-tail
    probability is below alpha. k solves
    P(LR > c)/alpha + P(LR = c) * k = 1, so the e-value assigning 1/alpha
    above c, k at c and 0 below is exact; 0 <= k <= 1/alpha always holds.
    """
    return _np_threshold(profile.counts, profile.lr, alpha)


def _np_threshold(counts: Sequence[int], ratios: Sequence[float],
                  alpha: float) -> tuple[float, float]:
    # np_threshold on ratios up to scale; k is the core's float expression
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    m = sum(counts)
    # aggregate multiplicities by ratio: distinct orbit values can share one
    by_ratio: dict[float, int] = {}
    for count, x in zip(counts, ratios):
        by_ratio[x] = by_ratio.get(x, 0) + count
    gt = m
    for c in sorted(by_ratio):
        gt -= by_ratio[c]
        if gt < alpha * m:
            break
    return c, (1.0 - gt / (alpha * m)) * (m / by_ratio[c])


def optimal_evalue(profile: LikelihoodRatioProfile, utility: UtilitySpec) -> EValueProfile:
    """Expected-utility-optimal exact e-value for a likelihood-ratio profile.

    Dispatches on the utility family, by ``_shaped`` on ``profile.lr``:

    * ``Log`` -- the likelihood ratio itself, the very floats of ``lr``;
    * ``Power(h)`` -- lr^(1/(1-h)) normalized to orbit mean 1;
    * ``NeymanPearson(alpha)`` -- 1/alpha above the threshold from
      ``np_threshold``, k on it, 0 below;
    * ``BoundedLog(alpha)`` -- min(kappa * lr, 1/alpha), kappa solved exactly
      by ``_level_evidence``;
    * ``ClippedLog(b)`` -- max(kappa * lr, b), likewise;
    * ``Dampened(b, inner)`` -- b + (1 - b) * (inner optimal e-value).

    Every returned profile is exact (orbit mean 1 within 1e-9).
    """
    evidence = profile.lr if isinstance(utility, Log) else _shaped(
        profile.counts, profile.lr, utility)
    return EValueProfile(profile.values, profile.counts, tuple(evidence))


def evalue_at(data: TupleLike, alt: AlternativeSpec, utility: UtilitySpec) -> float:
    """Optimal e-value at the final slot of the observed tuple: ``_shaped``
    on the ratios of the tuple's orbit, which are never divided by their mean."""
    vals, orbit, ratios = _orbit_ratios(data, alt)
    return _shaped(orbit.counts, ratios, utility)[orbit.values.index(vals[-1])]


# ---------------------------------------------------------------------------
# Gaussian closed forms
# ---------------------------------------------------------------------------


def composite_bounded_log_boost(sigma: float, tau: float, n: int, alpha: float) -> float:
    """Boost constant for the composite capped ratio (center drops out)."""
    f = _widening(n)
    return bounded_log_boost(sigma * f, tau * f, alpha)


# ---------------------------------------------------------------------------
# Brute-force oracles
# ---------------------------------------------------------------------------


def brute_force_conditional_lr(
    data: TupleLike,
    q_last_density: Callable[[float], float],
    q_base_density: Callable[[float], float],
) -> float:
    """Conditional likelihood ratio at the final slot, by explicit averaging.

    Forms, for each position i, the full joint density of the product law
    that puts the target's law in slot i and the base law everywhere else,
    averages these m joints, and divides the observed arrangement's joint by
    the average. No per-observation ratio shortcut is taken, so this is an
    independent oracle for the shortcut formula.
    """
    vals = tuple_values(data)
    m = len(vals)
    if m > 8:
        raise ValueError("brute force is limited to tuples of length <= 8")
    base = [float(q_base_density(v)) for v in vals]
    lastd = [float(q_last_density(v)) for v in vals]
    if any(b <= 0.0 or not math.isfinite(b) for b in base):
        raise ValueError("base density must be positive on all tuple values")
    if any(x < 0.0 or not math.isfinite(x) for x in lastd):
        raise ValueError("target density must be finite and nonnegative")

    def joint_with_target_at(i: int) -> float:
        prod = 1.0
        for j in range(m):
            prod *= lastd[j] if j == i else base[j]
        return prod

    joints = [joint_with_target_at(i) for i in range(m)]
    avg = sum(joints) / m
    if avg == 0.0:
        raise ValueError("the averaged joint density is zero on this tuple")
    return joints[m - 1] / avg


def conformal_pvalue(scores: Sequence[float]) -> float:
    """Permutation p-value of the final slot: fraction of slots whose score
    is at least the final slot's score."""
    s = [float(x) for x in scores]
    last = s[-1]
    return sum(1 for x in s if x >= last) / len(s)


def classical_conformal_membership(
    z_n: Sequence[float], grid: Sequence[float], score: Callable[[float], float], alpha: float
) -> list[bool]:
    """Classical conformal set over a grid: keep z when its p-value exceeds alpha.

    ``score`` is a per-observation nonconformity score; higher means more
    extreme under the alternative.
    """
    calib = [float(v) for v in z_n]
    out = []
    for z in grid:
        scores = [score(v) for v in calib] + [score(float(z))]
        out.append(conformal_pvalue(scores) > alpha)
    return out


# ---------------------------------------------------------------------------
# Numerical expected-utility oracle
# ---------------------------------------------------------------------------


def _implied_problem(utility: UtilitySpec):
    """Reduce a utility spec to (kind, payload, lo, hi) over evidence values.

    kind "linear": payload (slope, intercept, cap) meaning
    U(x) = min(slope*x + intercept, cap). kind "smooth": payload (f, fprime).
    ``hi`` is None for an unbounded box.
    """
    if isinstance(utility, NeymanPearson):
        return "linear", (1.0, 0.0, 1.0 / utility.alpha), 0.0, None
    if isinstance(utility, Log):
        return "smooth", (np.log, lambda x: 1.0 / x), 0.0, None
    if isinstance(utility, Power):
        h = utility.h
        return "smooth", (lambda x: (x ** h - 1.0) / h, lambda x: x ** (h - 1.0)), 0.0, None
    if isinstance(utility, BoundedLog):
        return "smooth", (np.log, lambda x: 1.0 / x), 0.0, 1.0 / utility.alpha
    if isinstance(utility, ClippedLog):
        return "smooth", (np.log, lambda x: 1.0 / x), utility.b, None
    if isinstance(utility, Dampened):
        kind, payload, lo, hi = _implied_problem(utility.inner)
        b, w = utility.b, 1.0 - utility.b
        lo2 = b + w * lo
        hi2 = None if hi is None else b + w * hi
        if kind == "linear":
            s, t, cap = payload
            return "linear", (s / w, t - s * b / w, cap), lo2, hi2
        f, fp = payload
        return "smooth", (lambda x: f((x - b) / w), lambda x: fp((x - b) / w) / w), lo2, hi2
    raise TypeError(f"unknown utility {utility!r}")


def expected_utility(
    evidence: Sequence[float], profile: LikelihoodRatioProfile, utility: UtilitySpec
) -> float:
    """Expected utility of an evidence profile under the alternative."""
    e = np.asarray(evidence, dtype=float)
    p = np.asarray(profile.counts, dtype=float)
    p = p / p.sum()
    q = p * np.asarray(profile.lr, dtype=float)
    kind, payload, _, _ = _implied_problem(utility)
    mask = q > 0
    if not mask.any():
        return 0.0
    if kind == "linear":
        s, t, cap = payload
        vals = np.minimum(s * e[mask] + t, cap)
    else:
        f, _ = payload
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = f(e[mask])
    return float(q[mask] @ vals)


def numerical_utility_oracle(profile: LikelihoodRatioProfile, utility: UtilitySpec) -> EValueProfile:
    """Numerically maximize expected utility over exact e-value profiles.

    Maximizes sum_i q_i U(e_i) subject to the exactness constraint
    sum_i p_i e_i = 1 and the box implied by the utility, with a generic
    solver that shares nothing with the closed forms: an LP for the
    linear-capped family, SLSQP with analytic gradients otherwise. Intended
    for small profiles (a handful of distinct values); the result's expected
    utility is within 1e-6 of the optimum there.
    """
    # scipy is a test-only dependency; importing it here keeps it off the
    # import path of the per-orbit API
    from scipy.optimize import linprog, minimize

    p = np.asarray(profile.counts, dtype=float)
    p = p / p.sum()
    lr = np.asarray(profile.lr, dtype=float)
    q = p * lr
    d = len(lr)
    kind, payload, lo, hi = _implied_problem(utility)
    hi_val = np.inf if hi is None else hi

    if kind == "linear":
        s, t, cap = payload
        # variables [e_1..e_d, u_1..u_d]; maximize q @ u with u <= s*e + t, u <= cap
        c = np.concatenate([np.zeros(d), -q])
        a_ub = np.hstack([-s * np.eye(d), np.eye(d)])
        b_ub = np.full(d, t)
        a_eq = np.concatenate([p, np.zeros(d)])[None, :]
        bounds = [(lo, None if hi is None else hi)] * d + [(None, cap)] * d
        res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0], bounds=bounds, method="highs")
        if not res.success:
            raise RuntimeError(f"LP oracle failed: {res.message}")
        e = np.asarray(res.x[:d])
    else:
        f, fp = payload
        active = q > 0
        # keep evaluations strictly inside where the utility or its slope blow up
        eps = 1e-10 * max(1.0, abs(lo))
        edge_singular = not (np.isfinite(_try_f(f, lo)) and np.isfinite(_try_f(fp, lo)))
        lo_eval = lo + (eps if edge_singular else 0.0)

        def objective(x: np.ndarray) -> float:
            xs = np.clip(x, lo_eval, hi_val)
            return -float(q[active] @ f(xs[active]))

        def gradient(x: np.ndarray) -> np.ndarray:
            xs = np.clip(x, lo_eval, hi_val)
            g = np.zeros(d)
            g[active] = -q[active] * fp(xs[active])
            return g

        x0 = np.clip(np.ones(d), lo_eval, hi_val)
        with warnings.catch_warnings():
            # SLSQP steps marginally outside bounds before clipping; the
            # objective and gradient already clamp their inputs
            warnings.simplefilter("ignore", RuntimeWarning)
            res = minimize(
                objective, x0, jac=gradient, method="SLSQP",
                bounds=[(lo_eval, None if hi is None else hi)] * d,
                constraints=[{"type": "eq", "fun": lambda x: p @ x - 1.0, "jac": lambda x: p}],
                options={"maxiter": 2000, "ftol": 1e-16},
            )
        e = np.asarray(res.x)

    e = np.clip(e, 0.0, None)
    total = float(p @ e)
    if total <= 0:
        raise RuntimeError("oracle produced a degenerate profile")
    e = e / total
    return EValueProfile(profile.values, profile.counts, tuple(float(v) for v in e))


def _try_f(f: Callable, x: float) -> float:
    with np.errstate(divide="ignore", invalid="ignore"):
        try:
            return float(f(np.asarray([x], dtype=float))[0])
        except Exception:
            return math.nan


# ---------------------------------------------------------------------------
# Whole-matrix views of the validators' steps. The samplers import
# ``harness`` when called, so a process that only runs the per-orbit path
# loads neither the validators nor the decisions they import.
# ---------------------------------------------------------------------------


def evalues_for(data: np.ndarray, alt: AlternativeSpec, utility: UtilitySpec) -> np.ndarray:
    """E-value of each row's final slot, the rest of the row its calibration.

    The alternative's ratio maps every row in one call, and a bad ratio
    raises naming the first bad entry in row order. One call to the
    sorted-calibration core then shapes every row, raising
    AllZeroRatioError or NormalizationFailureError if any row fails: the
    matrix is one block of the engine's row loop, which the validators'
    trials and a kernel's bags take too. The e-values are exact on orbits
    when permuting a row permutes its ratios.
    """
    return _final_slot_statistics([(slice(None), data, None)], len(data), alt, utility)


def sample_matrix(config: McConfig, n_points: int) -> np.ndarray:
    """Draw a (trials, n_points) matrix; rows are independent trials.

    The matrix joins the blocks the validators draw and evaluate one at a
    time. Draw order is fixed per model, so row t is fixed for a fixed (seed,
    trials). Only ``iid-gaussian``, ``iid-uniform``, ``iid-categorical`` and
    ``ar1-gaussian`` draw the matrix row by row in one stream, so that the
    first rows of a longer run equal a shorter run; the mixtures draw a
    latent value per trial first, which shifts every later draw.
    """
    from .harness import _trial_blocks

    return np.concatenate([values for _, values, _ in _trial_blocks(config, n_points)])


def sample_finite_matrix(config: McConfig, n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Finite-support models: returns (values, support indices)."""
    from .harness import FINITE_MODELS, _trial_blocks

    if config.model not in FINITE_MODELS:
        raise ValueError(f"{config.model!r} is not a finite-support model")
    blocks = list(_trial_blocks(config, n_points))
    return (np.concatenate([values for _, values, _ in blocks]),
            np.concatenate([idx for _, _, idx in blocks]))
