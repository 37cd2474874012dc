"""Reference implementations: the per-orbit path and the brute-force oracles.

Everything here exists to be compared against. No other module of the
package imports this one; the command line, fuzzy sets and the Monte-Carlo
validators take their e-values from the sorted-calibration core in
``confidence``, and the suite and the benchmark check that core against the
functions below.

* The per-orbit scalar path: ``orbit_of`` reduces a tuple to its
  permutation orbit, ``profile_for`` builds the likelihood-ratio profile of
  one tuple, ``optimal_evalue`` shapes it for a utility (an exact walk over
  the breakpoints, in rationals, for the capped and clipped constants;
  ``np_threshold`` for the Neyman-Pearson form), and ``evalue_at`` reads the
  e-value at the final slot. It is also the API for profiles given
  directly, as per-slot masses.
* ``brute_force_conditional_lr`` recomputes the conditional likelihood
  ratio by explicitly averaging joint densities over every slot the target
  could occupy, independent of the shortcut formula.
* ``numerical_utility_oracle`` maximizes expected utility over the
  exactness polytope with a generic constrained optimizer (an LP for the
  linear-capped family, SLSQP otherwise), independent of the closed forms.
* ``classical_conformal_membership`` is the textbook conformal set.
* ``evalues_for``, ``sample_matrix`` and ``sample_finite_matrix`` expose,
  on whole matrices, the row evaluation and the trial stream the validators
  run block by block.

The per-orbit path needs numpy; scipy is imported only inside
``numerical_utility_oracle``.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from functools import cached_property
from itertools import groupby
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .alternatives import AlternativeSpec, _ratio_error, resolve_alternative
from .confidence import TupleLike, tuple_values
from .errors import AllZeroRatioError, NormalizationFailureError, ZeroDensityError
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


class LikelihoodRatioProfile(_Frozen):
    """Conditional likelihood ratio per distinct orbit value.

    ``lr[i]`` is the ratio of the alternative's final-slot law to the
    uniform law on the orbit, evaluated at ``values[i]``; ``counts[i]`` is
    that value's multiplicity. The multiplicity-weighted mean of ``lr``
    equals 1 (it is a density with respect to the uniform orbit law).
    """

    values: tuple[float, ...]
    counts: tuple[int, ...]
    lr: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (len(self.values) == len(self.counts) == len(self.lr)):
            raise ValueError("values, counts and lr must have equal length")
        if any(c < 1 for c in self.counts):
            raise ValueError("multiplicities must be positive")
        for x in self.lr:
            if not (math.isfinite(x) and x >= 0.0):
                raise ValueError(f"likelihood ratios must be finite and >= 0, got {x!r}")
        mean = self.orbit_mean()
        if abs(mean - 1.0) > EXACTNESS_TOL:
            raise ValueError(f"orbit mean of the likelihood ratio is {mean!r}, not 1")

    @property
    def size(self) -> int:
        return sum(self.counts)

    def orbit_mean(self) -> float:
        m = sum(self.counts)
        return sum(c * x for c, x in zip(self.counts, self.lr)) / m

    def lr_at(self, value: float) -> float:
        """Likelihood ratio at a value of the orbit (exact match)."""
        for v, x in zip(self.values, self.lr):
            if v == value:
                return x
        raise ValueError(f"{value!r} is not on this orbit")


def _eval_ratio(ratio: Callable[[float], float], z: float) -> float:
    r = float(ratio(z))
    if not 0.0 <= r < math.inf:
        raise _ratio_error(r, z)
    return r


def conditional_lr_iid(data: TupleLike, ratio: Callable[[float], float]) -> LikelihoodRatioProfile:
    """Likelihood-ratio profile for an independent alternative.

    For a tuple (z_1, ..., z_m) and per-observation ratio r, the profile is
    lr(v) = r(v) / mean_i r(z_i), the mean running over all m slots. Scaling
    r by any positive constant leaves the profile unchanged.

    Raises AllZeroRatioError when r vanishes on every element of the tuple.
    """
    orbit = orbit_of(data)
    r = [_eval_ratio(ratio, v) for v in orbit.values]
    total = sum(c * x for c, x in zip(orbit.counts, r))
    if total == 0.0:
        raise AllZeroRatioError("the ratio is zero on every element of the tuple")
    mean = total / orbit.size
    return LikelihoodRatioProfile(orbit.values, orbit.counts, tuple(x / mean for x in r))


def profile_for(data: TupleLike, alt: AlternativeSpec) -> LikelihoodRatioProfile:
    """Resolve an alternative against a tuple and build its LR profile."""
    vals = tuple_values(data)
    return conditional_lr_iid(vals, resolve_alternative(alt, vals[:-1]).ratio)


# ---------------------------------------------------------------------------
# Optimal e-values on one orbit
# ---------------------------------------------------------------------------


class EValueProfile(_Frozen):
    """Evidence per distinct orbit value, exact on the orbit."""

    values: tuple[float, ...]
    counts: tuple[int, ...]
    evidence: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (len(self.values) == len(self.counts) == len(self.evidence)):
            raise ValueError("values, counts and evidence must have equal length")
        for e in self.evidence:
            if not (math.isfinite(e) and e >= 0.0):
                raise ValueError(f"evidence must be finite and >= 0, got {e!r}")
        mean = self.orbit_mean()
        if abs(mean - 1.0) > EXACTNESS_TOL:
            raise ValueError(f"profile is not exact: orbit mean {mean!r}")

    def orbit_mean(self) -> float:
        m = sum(self.counts)
        return sum(c * e for c, e in zip(self.counts, self.evidence)) / m

    def evidence_at(self, value: float) -> float:
        """Evidence at a value of the orbit (exact match)."""
        for v, e in zip(self.values, self.evidence):
            if v == value:
                return e
        raise ValueError(f"{value!r} is not on this orbit")


def _level_evidence(profile: LikelihoodRatioProfile, level: float, capped: bool) -> list[float]:
    """min(kappa * lr, level) (``capped``) or max(kappa * lr, level), with
    kappa solving the exactness equation in rationals.

    The multiplicity-weighted sum of the shaped profile is piecewise linear
    and non-decreasing in kappa, with a breakpoint where each positive slot
    meets the level. The walk takes the positive slots in the order they
    reach it, descending under the cap and ascending over the floor; a zero
    slot sits at the floor throughout. With ``at`` slots at the level and
    ``rest`` the sum of c * lr over the others, the segment's root is
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
    m = sum(profile.counts)
    bar = Fraction(level)
    slots = [(Fraction(x), c) for x, c in sorted(zip(profile.lr, profile.counts), reverse=capped)
             if x > 0.0]
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
    return [float(shape(kappa * Fraction(x), bar)) for x in profile.lr]


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


def _power_evidence(lr: np.ndarray, w: np.ndarray, h: float) -> np.ndarray:
    # lr^s / sum(w * lr^s) in log space, lr^s overflowing for h near 1; the
    # largest log-ratio comes off before the scaling by s, so s multiplies
    # differences and no large product cancels in the final subtraction
    s = 1.0 / (1.0 - h)
    with np.errstate(divide="ignore"):
        loglr = np.log(lr)
        logw = np.log(w)
    scaled = s * (loglr - loglr.max())
    denom = float(np.logaddexp.reduce(np.sort(logw + scaled)))
    return np.exp(scaled - denom)


def optimal_evalue(profile: LikelihoodRatioProfile, utility: UtilitySpec) -> EValueProfile:
    """Expected-utility-optimal exact e-value for a likelihood-ratio profile.

    Dispatches on the utility family:

    * ``Log`` -- the likelihood ratio itself;
    * ``Power(h)`` -- lr^(1/(1-h)) normalized to orbit mean 1;
    * ``NeymanPearson(alpha)`` -- 1/alpha above the threshold from
      ``np_threshold``, k on it, 0 below;
    * ``BoundedLog(alpha)`` -- min(kappa * lr, 1/alpha), kappa solved exactly
      by ``_level_evidence``;
    * ``ClippedLog(b)`` -- max(kappa * lr, b), likewise;
    * ``Dampened(b, inner)`` -- b + (1 - b) * (inner optimal e-value).

    Every returned profile is exact (orbit mean 1 within 1e-9).
    """
    lr = np.asarray(profile.lr, dtype=float)
    w = np.asarray(profile.counts, dtype=float)
    w = w / w.sum()

    if isinstance(utility, Log):
        evidence = lr
    elif isinstance(utility, Power):
        evidence = _power_evidence(lr, w, utility.h)
    elif isinstance(utility, NeymanPearson):
        c, k = np_threshold(profile, utility.alpha)
        inv_alpha = 1.0 / utility.alpha
        evidence = np.where(lr > c, inv_alpha, np.where(lr == c, k, 0.0))
    elif isinstance(utility, BoundedLog):
        evidence = _level_evidence(profile, 1.0 / utility.alpha, capped=True)
    elif isinstance(utility, ClippedLog):
        evidence = _level_evidence(profile, utility.b, capped=False)
    elif isinstance(utility, Dampened):
        inner = optimal_evalue(profile, utility.inner)
        evidence = utility.b + (1.0 - utility.b) * np.asarray(inner.evidence)
    else:
        raise TypeError(f"unknown utility {utility!r}")

    return EValueProfile(profile.values, profile.counts, tuple(float(e) for e in evidence))


def evalue_at(data: TupleLike, alt: AlternativeSpec, utility: UtilitySpec) -> float:
    """Optimal e-value evaluated at the final slot of the observed tuple."""
    vals = tuple_values(data)
    prof = profile_for(vals, alt)
    return optimal_evalue(prof, utility).evidence_at(vals[-1])


# ---------------------------------------------------------------------------
# Gaussian closed forms
# ---------------------------------------------------------------------------


def composite_bounded_log_boost(sigma: float, tau: float, n: int, alpha: float, zbar: float = 0.0) -> float:
    """Boost constant for the composite capped ratio (center drops out)."""
    f = _widening(n)
    return bounded_log_boost(zbar, sigma * f, tau * f, alpha)


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
        raise ZeroDensityError("base density must be positive on all tuple values")
    if any(x < 0.0 or not math.isfinite(x) for x in lastd):
        raise ZeroDensityError("target density must be finite and nonnegative")

    def joint_with_target_at(i: int) -> float:
        prod = 1.0
        for j in range(m):
            prod *= lastd[j] if j == i else base[j]
        return prod

    joints = [joint_with_target_at(i) for i in range(m)]
    avg = sum(joints) / m
    if avg == 0.0:
        raise ZeroDensityError("the averaged joint density is zero on this tuple")
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
# Whole-matrix views of the validators' steps. Each imports ``harness`` when
# called, so a process that only runs the per-orbit path loads neither the
# validators nor the engine and decisions they import.
# ---------------------------------------------------------------------------


def evalues_for(data: np.ndarray, alt: AlternativeSpec, utility: UtilitySpec) -> np.ndarray:
    """E-value of each row's final slot, the rest of the row its calibration.

    A bad ratio raises naming the first bad entry in row order. A kernel
    with a row form evaluates every row in one call; other kernels resolve
    against each row's calibration and evaluate their ratios row by row.
    One call to the sorted-calibration core then shapes every row, raising
    AllZeroRatioError or NormalizationFailureError if any row fails. The
    validators run the same steps on each block of trials they draw.
    """
    from .harness import _row_evidence, _row_ratios

    e, failures = _row_evidence(_row_ratios(data, alt), utility)
    failures.raise_first()
    return e


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
