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
longer run extends a shorter one (see ``sample_matrix``). The validators
never hold that matrix: they draw the per-trial latents first, then draw and
evaluate the trials in fixed blocks of rows, keeping one statistic per trial,
so their memory is O(trials + block * (n + 1)) and their reports equal those
of one pass over the whole matrix. Every validator takes its e-values from
the sorted-calibration core of ``confidence``, the one that builds fuzzy
sets: the validity, coverage and post-hoc validators pass each trial's final
slot against its own calibration, and the decision-risk validator inverts
every trial over the support as ``grid_evidence`` does. The built-in kernel
alternatives evaluate each block of trials in one call of their row form;
custom kernels resolve, and evaluate their ratios, trial by trial. The suite
checks both shapes against the scalar per-orbit ``evalue_at``. The
decision-risk validator decides with ``decisions._minimax``, the rule behind
every certified decision, so it checks the code that ``decide`` runs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .alternatives import (
    AlternativeSpec,
    IidRatio,
    KernelAlternative,
    LikelihoodRatioProfile,
    _ratio_matrix,
    resolve_alternative,
)
from .confidence import _Failures, _final_slot_evidence, _grid_evidence
from .decisions import DecisionProblem, _indicator, _minimax
from .errors import AllInfiniteRiskError, ZeroDensityError
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

# each continuous model's parameters and their defaults; sigma, between and
# within are scales
_MODEL_DEFAULTS = {
    "iid-gaussian": {"mu": 0.0, "sigma": 1.0},
    "iid-uniform": {"lo": 0.0, "hi": 1.0},
    "exchangeable-mixture": {"mu": 0.0, "between": 1.0, "within": 1.0},
    "ar1-gaussian": {"mu": 0.0, "rho": 0.5},
}
_SCALES = ("sigma", "between", "within")
# each finite model's required and optional parameters, all sequences
_FINITE_PARAMS = {
    "iid-categorical": (("support", "probs"), ()),
    "categorical-mixture": (("support", "component_probs"), ("weights",)),
}


@dataclass(frozen=True)
class McConfig:
    """Seeded Monte-Carlo run: trial count, 64-bit seed, named model and
    its parameters, each of which the model must read."""

    trials: int
    seed: int
    model: str
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.trials < 1000:
            raise ValueError("use at least 1000 trials")
        if self.model not in CONTINUOUS_MODELS + FINITE_MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        defaults = _MODEL_DEFAULTS.get(self.model, {})
        needs, optional = _FINITE_PARAMS.get(self.model, ((), tuple(defaults)))
        unknown = sorted(set(self.params) - set(needs + optional))
        if unknown:
            raise ValueError(f"model {self.model} takes no parameter {', '.join(unknown)}; "
                             f"its parameters are {', '.join(needs + optional)}")
        if any(key not in self.params for key in needs):
            raise ValueError(f"model {self.model} needs the parameters {' and '.join(needs)}")
        for key, value in self.params.items():
            if not np.isfinite(np.asarray(value, dtype=float)).all():
                raise ValueError(f"model parameter {key} must be finite, got {value!r}")
            if key in _SCALES and value < 0:
                raise ValueError(f"model parameter {key} is a scale and must be nonnegative, "
                                 f"got {value!r}")
        p = {**defaults, **self.params}
        if self.model == "iid-uniform" and p["hi"] < p["lo"]:
            raise ValueError(f"model parameters need lo <= hi, got lo={p['lo']!r} "
                             f"and hi={p['hi']!r}")


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

# Entries per block of trials. The validators hold O(trials) statistics plus
# one block's arrays, so this bounds their memory whatever the trial count.
_BLOCK_ELEMENTS = 1 << 17


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed)))


def _trial_blocks(
    config: McConfig, n_points: int, width: int = 0
) -> Iterator[tuple[slice, np.ndarray, Optional[np.ndarray]]]:
    """The trial matrix in consecutive blocks of rows: (rows, values, support
    indices or None).

    Per-trial latents (the mixture mean, the categorical component) are drawn
    for every trial first, then each block's noise from the same generator.
    numpy draws each value from the bit generator's words in turn and buffers
    nothing between calls, so consecutive blocks continue one stream: they
    join into the same matrix whatever their size. A block holds at most
    ``_BLOCK_ELEMENTS`` entries of rows ``max(n_points, width)`` wide, and at
    least one row.
    """
    rng = _generator(config.seed)
    T, m = config.trials, n_points
    model = config.model
    p = {**_MODEL_DEFAULTS.get(model, {}), **config.params}
    if model == "iid-gaussian":
        mu, sigma = p["mu"], p["sigma"]
        draw = lambda a, b: (rng.normal(mu, sigma, size=(b - a, m)), None)
    elif model == "iid-uniform":
        lo, hi = p["lo"], p["hi"]
        draw = lambda a, b: (rng.uniform(lo, hi, size=(b - a, m)), None)
    elif model == "exchangeable-mixture":
        # latent per-trial mean, then i.i.d. noise: exchangeable but not i.i.d.
        theta = rng.normal(p["mu"], p["between"], size=(T, 1))
        within = p["within"]
        draw = lambda a, b: (theta[a:b] + rng.normal(0.0, within, size=(b - a, m)), None)
    elif model == "ar1-gaussian":
        # unit innovation variance: the one-step conditional law is N(mu_n, 1),
        # matching the autoregressive interval's closed form exactly
        mu, rho = p["mu"], p["rho"]

        def draw(a, b):
            eps = rng.normal(0.0, 1.0, size=(b - a, m))
            x = np.empty_like(eps)
            x[:, 0] = mu + eps[:, 0]
            for j in range(1, m):
                x[:, j] = mu + rho * (x[:, j - 1] - mu) + eps[:, j]
            return x, None
    else:
        support = np.asarray(p["support"], dtype=float)
        top = len(support) - 1
        if model == "iid-categorical":
            probs = np.asarray(p["probs"], dtype=float)
            cum = np.cumsum(probs / probs.sum())

            def draw(a, b):
                idx = np.searchsorted(cum, rng.random(size=(b - a, m)), side="right").clip(max=top)
                return support[idx], idx
        else:
            # draw a latent component per trial, then i.i.d. from its pmf
            comps = [np.asarray(c, dtype=float) for c in p["component_probs"]]
            weights = np.asarray(p.get("weights", [1.0 / len(comps)] * len(comps)), dtype=float)
            wcum = np.cumsum(weights / weights.sum())
            comp = np.searchsorted(wcum, rng.random(size=T), side="right").clip(max=len(comps) - 1)
            cums = [np.cumsum(c / c.sum()) for c in comps]

            def draw(a, b):
                u = rng.random(size=(b - a, m))
                idx = np.empty((b - a, m), dtype=np.int64)
                for ci, cum in enumerate(cums):
                    rows = comp[a:b] == ci
                    if rows.any():
                        idx[rows] = np.searchsorted(cum, u[rows], side="right").clip(max=top)
                return support[idx], idx
    step = max(1, _BLOCK_ELEMENTS // max(m, width, 1))
    for a in range(0, T, step):
        b = min(a + step, T)
        yield (slice(a, b), *draw(a, b))


def sample_matrix(config: McConfig, n_points: int) -> np.ndarray:
    """Draw a (trials, n_points) matrix; rows are independent trials.

    The matrix joins the blocks the validators draw and evaluate one at a
    time. Draw order is fixed per model, so row t is fixed for a fixed (seed,
    trials). Only ``iid-gaussian``, ``iid-uniform``, ``iid-categorical`` and
    ``ar1-gaussian`` draw the matrix row by row in one stream, so that the
    first rows of a longer run equal a shorter run; the mixtures draw a
    latent value per trial first, which shifts every later draw.
    """
    return np.concatenate([values for _, values, _ in _trial_blocks(config, n_points)])


def sample_finite_matrix(config: McConfig, n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Finite-support models: returns (values, support indices)."""
    if config.model not in FINITE_MODELS:
        raise ValueError(f"{config.model!r} is not a finite-support model")
    blocks = list(_trial_blocks(config, n_points))
    return (np.concatenate([values for _, values, _ in blocks]),
            np.concatenate([idx for _, _, idx in blocks]))


# ---------------------------------------------------------------------------
# Vectorized e-values across trials
# ---------------------------------------------------------------------------


def _row_evidence(
    data: np.ndarray, alt: AlternativeSpec, utility: UtilitySpec
) -> tuple[np.ndarray, _Failures]:
    # the ratio is checked on every entry, naming the first bad one in row
    # order; a kernel's row form evaluates the whole block at once, and a
    # kernel without one resolves and evaluates each row before the next
    if data.shape[1] < 2:
        raise ValueError("calibration rows must hold at least one value")
    if isinstance(alt, IidRatio):
        r = _ratio_matrix(data, alt.ratio)
    elif isinstance(alt, KernelAlternative) and alt.row_ratio is not None:
        r = _ratio_matrix(data, alt.row_ratio)
    else:
        r = np.vstack([_ratio_matrix(row[None], resolve_alternative(alt, row[:-1]).ratio)
                       for row in data])
    ev, failures = _final_slot_evidence(r[:, :-1], r[:, -1:], utility)
    return ev[:, 0], failures


def evalues_for(data: np.ndarray, alt: AlternativeSpec, utility: UtilitySpec) -> np.ndarray:
    """E-value of each row's final slot, the rest of the row its calibration.

    A bad ratio raises naming the first bad entry in row order. A kernel
    with a row form evaluates every row in one call; other kernels resolve
    against each row's calibration and evaluate their ratios row by row.
    One call to the sorted-calibration core then shapes every row, raising
    AllZeroRatioError or NormalizationFailureError if any row fails. The
    validators run the same steps on each block of trials they draw.
    """
    e, failures = _row_evidence(data, alt, utility)
    failures.raise_first()
    return e


def _evidence_blocks(
    config: McConfig, n: int, evaluate: Callable, width: int = 0
) -> Iterator[tuple[slice, np.ndarray, Optional[np.ndarray]]]:
    """(rows, evaluate(values), final-slot support indices or None) for each
    block of trials with n calibration slots.

    ``evaluate`` raises a bad ratio at once and returns the core's failures,
    which are raised after the last block; so the first bad ratio in row
    order wins, then the core's lowest failing column, as in one call on the
    whole matrix. Blocks after a failure are evaluated but not yielded.
    """
    failures = None
    for rows, values, idx in _trial_blocks(config, n + 1, width):
        out, found = evaluate(values)
        failures = found if failures is None else failures.merge(found)
        if not failures.any():
            yield rows, out, None if idx is None else idx[:, -1]
    failures.raise_first()


def _trial_evalues(
    config: McConfig, alt: AlternativeSpec, utility: UtilitySpec, n: int
) -> np.ndarray:
    """E-value at every trial's final slot, drawn and evaluated block by block."""
    e = np.empty(config.trials)
    for rows, block, _ in _evidence_blocks(config, n, lambda v: _row_evidence(v, alt, utility)):
        e[rows] = block
    return e


# ---------------------------------------------------------------------------
# Guarantee validators
# ---------------------------------------------------------------------------


def _check_run(config: McConfig, n: int) -> None:
    if n < 1:
        raise ValueError("n must be at least 1")
    if config.model not in EXCHANGEABLE_MODELS:
        raise ValueError(
            f"{config.model!r} is not exchangeable; conformal validators would be meaningless"
        )


def mc_validate_evalue(config: McConfig, alt: AlternativeSpec, utility: UtilitySpec, n: int) -> McReport:
    """Validity: the mean e-value at the true future observation is <= 1."""
    _check_run(config, n)
    e = _trial_evalues(config, alt, utility, n)
    return _report("evalue-validity", e, 1.0, config, detail=f"n={n}")


def mc_validate_coverage(
    config: McConfig, alt: AlternativeSpec, utility: UtilitySpec, n: int, alpha: float
) -> McReport:
    """Coverage: the sublevel set at alpha excludes the truth at rate <= alpha."""
    _check_run(config, n)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    e = _trial_evalues(config, alt, utility, n)
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


def _selected_levels(
    rule: Optional[Callable[[np.ndarray], np.ndarray]], e: np.ndarray
) -> np.ndarray:
    rule = rule if rule is not None else adversarial_level_rule
    atil = np.asarray(rule(e), dtype=float)
    if (atil <= 0).any():
        raise ValueError("selection rule produced a nonpositive level")
    return atil


def mc_validate_posthoc(
    config: McConfig,
    alt: AlternativeSpec,
    utility: UtilitySpec,
    n: int,
    selection_rule: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> McReport:
    """Post-hoc validity: E[excluded(alpha~)/alpha~] <= 1 for any data-dependent level.

    The default rule is the adversarial one, picking for every trial the
    smallest level at which the realization is excluded. The rule sees the
    e-values of all trials at once.
    """
    _check_run(config, n)
    e = _trial_evalues(config, alt, utility, n)
    atil = _selected_levels(selection_rule, e)
    with np.errstate(divide="ignore"):
        thr = np.where(np.isinf(atil), 0.0, 1.0 / atil)
    excluded = e >= thr
    stats = np.where(np.isinf(atil), 0.0, excluded / atil)
    return _report("posthoc-validity", stats, 1.0, config, detail=f"n={n}")


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

    Each block of trials is inverted over the support with the core of
    ``grid_evidence`` and decided row by row with ``decisions._minimax``:
    the weighted mode over the evidence, the other two over indicator
    evidence of the sublevel set, as ``as_if_decision`` and each rung of
    ``post_hoc_decisions`` do. As-if is the post-hoc pass with every level
    fixed at alpha. The post-hoc rule sees every trial's evidence at its
    realized outcome, so that mode draws the blocks a second time to decide
    at the selected levels. Raises AllInfiniteRiskError in weighted mode
    when some trial has infinite weighted risk under every decision.
    """
    _check_run(config, n)
    if config.model not in FINITE_MODELS:
        raise ValueError("decision-risk validation needs a finite-support model")
    if not isinstance(alt, IidRatio):
        raise TypeError("decision-risk validation needs an IidRatio alternative")
    support = tuple(float(v) for v in np.asarray(dict(config.params)["support"], dtype=float))
    if support != problem.outcomes:
        raise ValueError("the model support must equal the problem's outcomes")
    if mode not in ("as-if", "weighted", "post-hoc"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "as-if" and not (alpha is not None and alpha > 0.0):
        raise ValueError("as-if mode needs a positive alpha")

    loss = problem.loss_matrix
    stats = np.empty(config.trials)

    def blocks():
        # a block's (rows, D, G) loss ratios count against its budget
        evaluate = lambda v: _grid_evidence(v[:, :-1], problem.outcomes, alt.ratio, utility)
        return _evidence_blocks(config, n, evaluate, width=loss.size)

    if mode == "weighted":
        infinite = False
        for rows, ev, last in blocks():
            d, r = _minimax(loss, ev)
            infinite |= bool(np.isinf(r).any())
            stats[rows] = np.where(r > 0, loss[d, last] / np.where(r > 0, r, 1.0), 0.0)
        if infinite:
            raise AllInfiniteRiskError("some trials have infinite weighted risk for every "
                                       "decision; clip the evidence away from zero")
        return _report("decision-weighted", stats, 1.0, config, detail=f"n={n}")

    if mode == "as-if":
        levels = np.full(config.trials, float(alpha))
    else:
        e_true = np.empty(config.trials)
        for rows, ev, last in blocks():
            e_true[rows] = ev[np.arange(len(last)), last]
        levels = _selected_levels(selection_rule, e_true)
    thr = np.where(np.isinf(levels), 0.0, 1.0 / levels)
    for rows, ev, last in blocks():
        members = ev < thr[rows, None]
        d, r = _minimax(loss, _indicator(members))
        stats[rows] = (loss[d, last] > r) | ~members.any(axis=1)
    if mode == "as-if":
        return _report("decision-as-if", stats, alpha, config, detail=f"n={n} alpha={alpha:g}")
    stats = np.where(np.isinf(levels), 0.0, stats / levels)
    return _report("decision-post-hoc", stats, 1.0, config, detail=f"n={n}")


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
