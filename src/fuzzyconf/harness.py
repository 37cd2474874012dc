"""Brute-force oracles and Monte-Carlo validators.

Everything the library guarantees is checked here at desk scale:

* ``brute_force_conditional_lr`` recomputes the conditional likelihood
  ratio by explicitly averaging joint densities over every slot the target
  could occupy, independent of the shortcut formula;
* ``numerical_utility_oracle`` maximizes expected utility over the
  exactness polytope with a generic constrained optimizer (an LP for the
  linear-capped family, SLSQP otherwise), independent of the closed forms;
* ``mc_validate_*`` estimate every probabilistic guarantee (validity,
  coverage, post-hoc validity, decision risk bounds) by seeded simulation,
  passing at the estimate <= bound + 3 * SE level.

Trial streams come from the seeded Philox generator: a fixed (seed,
trials) configuration reproduces the same matrix, and for some models a
longer run extends a shorter one (see ``sample_matrix``). Every validator
takes its e-values from the sorted-calibration core of ``confidence``, the
one that builds fuzzy sets: the validity, coverage and post-hoc validators
on one matrix of ratios, each trial's final slot against its own
calibration, and the decision-risk validator by inverting every trial over
the support with ``grid_evidence``. Kernel alternatives resolve, and
evaluate their ratios, trial by trial before joining the matrix. The suite
checks both shapes against the scalar per-orbit ``evalue_at``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .alternatives import (
    AlternativeSpec,
    IidRatio,
    LikelihoodRatioProfile,
    _ratio_matrix,
    resolve_alternative,
)
from .confidence import _final_slot_evidence, grid_evidence
from .decisions import DecisionProblem
from .errors import ZeroDensityError
from .evalues import (
    BoundedLog,
    ClippedLog,
    Dampened,
    EValueProfile,
    Log,
    NeymanPearson,
    Power,
    UtilitySpec,
)
from .orbits import TupleLike, tuple_values

CONTINUOUS_MODELS = ("iid-gaussian", "iid-uniform", "exchangeable-mixture", "ar1-gaussian")
FINITE_MODELS = ("iid-categorical", "categorical-mixture")
EXCHANGEABLE_MODELS = tuple(m for m in CONTINUOUS_MODELS if m != "ar1-gaussian") + FINITE_MODELS


@dataclass(frozen=True)
class McConfig:
    """Seeded Monte-Carlo run: trial count, 64-bit seed, named model."""

    trials: int
    seed: int
    model: str
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.trials < 1000:
            raise ValueError("use at least 1000 trials")
        if self.model not in CONTINUOUS_MODELS + FINITE_MODELS:
            raise ValueError(f"unknown model {self.model!r}")


@dataclass(frozen=True)
class McReport:
    """Outcome of one validator run; passes when estimate <= bound + 3 * SE."""

    check: str
    estimate: float
    se: float
    bound: float
    passed: bool
    trials: int
    seed: int
    model: str
    detail: str = ""

    def summary_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.check}: estimate={self.estimate:.6f} "
            f"bound={self.bound:.6f}+3*SE(SE={self.se:.6f}) "
            f"trials={self.trials} model={self.model} {self.detail}".rstrip()
        )

    def to_json_doc(self) -> dict:
        return {
            "check": self.check,
            "estimate": self.estimate,
            "se": self.se,
            "bound": self.bound,
            "passed": self.passed,
            "trials": self.trials,
            "seed": self.seed,
            "model": self.model,
            "detail": self.detail,
        }


def _report(check: str, stats: np.ndarray, bound: float, config: McConfig, detail: str = "") -> McReport:
    est = float(stats.mean())
    se = float(stats.std(ddof=1) / math.sqrt(stats.size))
    return McReport(
        check=check, estimate=est, se=se, bound=bound,
        passed=est <= bound + 3.0 * se,
        trials=config.trials, seed=config.seed, model=config.model, detail=detail,
    )


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed)))


def sample_matrix(config: McConfig, n_points: int) -> np.ndarray:
    """Draw a (trials, n_points) matrix; rows are independent trials.

    Draw order is fixed per model, so row t is fixed for a fixed (seed,
    trials). Only ``iid-gaussian``, ``iid-uniform``, ``iid-categorical`` and
    ``ar1-gaussian`` draw the matrix row by row in one stream, so that the
    first rows of a longer run equal a shorter run; the mixtures draw a
    latent value per trial first, which shifts every later draw.
    """
    rng = _generator(config.seed)
    T, m = config.trials, n_points
    p = dict(config.params)
    if config.model == "iid-gaussian":
        return rng.normal(p.get("mu", 0.0), p.get("sigma", 1.0), size=(T, m))
    if config.model == "iid-uniform":
        return rng.uniform(p.get("lo", 0.0), p.get("hi", 1.0), size=(T, m))
    if config.model == "exchangeable-mixture":
        # latent per-trial mean, then i.i.d. noise: exchangeable but not i.i.d.
        theta = rng.normal(p.get("mu", 0.0), p.get("between", 1.0), size=(T, 1))
        return theta + rng.normal(0.0, p.get("within", 1.0), size=(T, m))
    if config.model == "ar1-gaussian":
        # unit innovation variance: the one-step conditional law is N(mu_n, 1),
        # matching the autoregressive interval's closed form exactly
        mu = p.get("mu", 0.0)
        rho = p.get("rho", 0.5)
        eps = rng.normal(0.0, 1.0, size=(T, m))
        x = np.empty((T, m))
        x[:, 0] = mu + eps[:, 0]
        for j in range(1, m):
            x[:, j] = mu + rho * (x[:, j - 1] - mu) + eps[:, j]
        return x
    values, _ = sample_finite_matrix(config, n_points)
    return values


def sample_finite_matrix(config: McConfig, n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Finite-support models: returns (values, support indices)."""
    if config.model not in FINITE_MODELS:
        raise ValueError(f"{config.model!r} is not a finite-support model")
    rng = _generator(config.seed)
    T, m = config.trials, n_points
    p = dict(config.params)
    support = np.asarray(p["support"], dtype=float)
    if config.model == "iid-categorical":
        probs = np.asarray(p["probs"], dtype=float)
        cum = np.cumsum(probs / probs.sum())
        u = rng.random(size=(T, m))
        idx = np.searchsorted(cum, u, side="right").clip(max=len(support) - 1)
    else:
        # draw a latent component per trial, then i.i.d. from its pmf
        comps = [np.asarray(c, dtype=float) for c in p["component_probs"]]
        weights = np.asarray(p.get("weights", [1.0 / len(comps)] * len(comps)), dtype=float)
        wcum = np.cumsum(weights / weights.sum())
        comp = np.searchsorted(wcum, rng.random(size=T), side="right").clip(max=len(comps) - 1)
        u = rng.random(size=(T, m))
        idx = np.empty((T, m), dtype=np.int64)
        for ci, probs in enumerate(comps):
            rows = comp == ci
            if rows.any():
                cum = np.cumsum(probs / probs.sum())
                idx[rows] = np.searchsorted(cum, u[rows], side="right").clip(max=len(support) - 1)
    return support[idx], idx


# ---------------------------------------------------------------------------
# Vectorized e-values across trials
# ---------------------------------------------------------------------------


def evalues_for(data: np.ndarray, alt: AlternativeSpec, utility: UtilitySpec) -> np.ndarray:
    """E-value of each row's final slot, the rest of the row its calibration.

    The ratio is checked on the whole (T, n + 1) matrix, naming the first bad
    entry; kernels resolve against each row's calibration and evaluate their
    ratios row by row. One call to the sorted-calibration core then shapes
    every row, raising AllZeroRatioError or NormalizationFailureError if any
    row fails.
    """
    if isinstance(alt, IidRatio):
        r = _ratio_matrix(data, alt.ratio)
    else:
        concrete = [resolve_alternative(alt, row[:-1]) for row in data]
        r = np.vstack([_ratio_matrix(row[None], c.ratio) for row, c in zip(data, concrete)])
    return _final_slot_evidence(r[:, :-1], r[:, -1:], utility)[:, 0]


# ---------------------------------------------------------------------------
# Guarantee validators
# ---------------------------------------------------------------------------


def _require_exchangeable(config: McConfig) -> None:
    if config.model not in EXCHANGEABLE_MODELS:
        raise ValueError(
            f"{config.model!r} is not exchangeable; conformal validators would be meaningless"
        )


def mc_validate_evalue(config: McConfig, alt: AlternativeSpec, utility: UtilitySpec, n: int) -> McReport:
    """Validity: the mean e-value at the true future observation is <= 1."""
    _require_exchangeable(config)
    data = sample_matrix(config, n + 1)
    e = evalues_for(data, alt, utility)
    return _report("evalue-validity", e, 1.0, config, detail=f"n={n}")


def mc_validate_coverage(
    config: McConfig, alt: AlternativeSpec, utility: UtilitySpec, n: int, alpha: float
) -> McReport:
    """Coverage: the sublevel set at alpha excludes the truth at rate <= alpha."""
    _require_exchangeable(config)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    data = sample_matrix(config, n + 1)
    e = evalues_for(data, alt, utility)
    excluded = (e >= 1.0 / alpha).astype(float)
    return _report("coverage", excluded, alpha, config, detail=f"n={n} alpha={alpha:g}")


def adversarial_level_rule(e: np.ndarray) -> np.ndarray:
    """The smallest level excluding each realization: alpha~ = 1/evidence.

    The validators exclude at a level a when e >= 1/a in floats. The floats
    a meeting that form an up-set, and 1/e can round to either side of its
    least member, so each level walks there one float step at a time. Zero
    evidence gets the infinite level, never excluded.
    """
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(e > 0.0, 1.0 / e, np.inf)
        while True:
            below = np.nextafter(a, 0.0)
            down = (below < a) & (1.0 / below <= e)
            up = 1.0 / a > e
            if not (down.any() or up.any()):
                return a
            a = np.where(down, below, np.where(up, np.nextafter(a, np.inf), a))


def mc_validate_posthoc(
    config: McConfig,
    alt: AlternativeSpec,
    utility: UtilitySpec,
    n: int,
    selection_rule: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> McReport:
    """Post-hoc validity: E[excluded(alpha~)/alpha~] <= 1 for any data-dependent level.

    The default rule is the adversarial one, picking for every trial the
    smallest level at which the realization is excluded.
    """
    _require_exchangeable(config)
    data = sample_matrix(config, n + 1)
    e = evalues_for(data, alt, utility)
    rule = selection_rule if selection_rule is not None else adversarial_level_rule
    atil = np.asarray(rule(e), dtype=float)
    if (atil <= 0).any():
        raise ValueError("selection rule produced a nonpositive level")
    with np.errstate(divide="ignore"):
        thr = np.where(np.isinf(atil), 0.0, 1.0 / atil)
    excluded = e >= thr
    stats = np.where(np.isinf(atil), 0.0, excluded / atil)
    return _report("posthoc-validity", stats, 1.0, config, detail=f"n={n}")


def _as_if_rows(loss: np.ndarray, members: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise minimax over member outcomes: (decision, risk, empty mask)."""
    masked = np.where(members[:, None, :], loss[None, :, :], -np.inf)
    risks = masked.max(axis=2)
    d = np.argmin(risks, axis=1)
    r = risks[np.arange(len(d)), d]
    empty = ~members.any(axis=1)
    return d, r, empty


def mc_validate_decision_risk(
    config: McConfig,
    problem: DecisionProblem,
    mode: str,
    alt: IidRatio,
    utility: UtilitySpec,
    n: int,
    alpha: Optional[float] = None,
    selection_rule: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> McReport:
    """Decision-risk guarantees under a finite-support exchangeable model.

    Modes: "as-if" checks P(L(d*, Z) > R) <= alpha for the fixed-level
    sublevel-set decision; "weighted" checks E[L(d*, Z)/R] <= 1 for the
    evidence-weighted decision; "post-hoc" checks
    E[1{L > R(alpha~)}/alpha~] <= 1 under a data-dependent level rule
    (default adversarial). Empty sublevel sets count as exceedances, which
    only biases the check against passing.
    """
    _require_exchangeable(config)
    if config.model not in FINITE_MODELS:
        raise ValueError("decision-risk validation needs a finite-support model")
    if not isinstance(alt, IidRatio):
        raise TypeError("decision-risk validation needs an IidRatio alternative")
    support = tuple(float(v) for v in np.asarray(dict(config.params)["support"], dtype=float))
    if support != problem.outcomes:
        raise ValueError("the model support must equal the problem's outcomes")

    values, idx = sample_finite_matrix(config, n + 1)
    idx_last = idx[:, -1]
    loss = problem.loss_matrix
    ev = grid_evidence(values[:, :-1], problem.outcomes, alt.ratio, utility)
    rows = np.arange(config.trials)

    if mode == "as-if":
        if alpha is None:
            raise ValueError("as-if mode needs alpha")
        members = ev < (1.0 / alpha)
        d, r, empty = _as_if_rows(loss, members)
        realized = loss[d, idx_last]
        exceed = (realized > r) | empty
        return _report("decision-as-if", exceed.astype(float), alpha, config,
                       detail=f"n={n} alpha={alpha:g}")

    if mode == "weighted":
        with np.errstate(divide="ignore", invalid="ignore"):
            weighted = np.where(loss[None, :, :] == 0.0, 0.0, loss[None, :, :] / ev[:, None, :])
        risks = weighted.max(axis=2)
        d = np.argmin(risks, axis=1)
        r = risks[rows, d]
        if np.isinf(r).any():
            raise ValueError(
                "some trials have infinite weighted risk for every decision; "
                "use a clipped or dampened utility"
            )
        realized = loss[d, idx_last]
        stats = np.where(r > 0, realized / np.where(r > 0, r, 1.0), 0.0)
        return _report("decision-weighted", stats, 1.0, config, detail=f"n={n}")

    if mode == "post-hoc":
        e_true = ev[rows, idx_last]
        rule = selection_rule if selection_rule is not None else adversarial_level_rule
        atil = np.asarray(rule(e_true), dtype=float)
        if (atil <= 0).any():
            raise ValueError("selection rule produced a nonpositive level")
        thr = np.where(np.isinf(atil), 0.0, 1.0 / atil)
        members = ev < thr[:, None]
        d, r, empty = _as_if_rows(loss, members)
        realized = loss[d, idx_last]
        exceed = ((realized > r) | empty).astype(float)
        stats = np.where(np.isinf(atil), 0.0, exceed / atil)
        return _report("decision-post-hoc", stats, 1.0, config, detail=f"n={n}")

    raise ValueError(f"unknown mode {mode!r}")


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
    # import path of the library and the command line
    from scipy.optimize import linprog, minimize

    p = np.asarray(profile.counts, dtype=float)
    p = p / p.sum()
    lr = np.asarray(profile.lr, dtype=float)
    q = p * lr
    d = len(lr)
    kind, payload, lo, hi = _implied_problem(utility)
    lo_arr = np.full(d, lo)
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
