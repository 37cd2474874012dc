"""Monte-Carlo validators of every probabilistic guarantee.

``mc_validate_*`` estimate each guarantee the library makes (validity,
coverage, post-hoc validity, decision risk bounds) by seeded simulation,
passing at the estimate <= bound + 3 * SE level. The brute-force and
numerical oracles the suite compares against live in ``reference``.

Trial streams come from the seeded Philox generator: a fixed (seed,
trials) configuration reproduces the same matrix, and for some models a
longer run extends a shorter one (see ``reference.sample_matrix``). The
validators never hold that matrix: they draw and evaluate the trials in
fixed blocks of rows, a mixture's per-trial latents redrawn for each block
from a second generator on the same key. Every validator hands its blocks
to the engine's one row loop, ``confidence._row_statistics``, with its
ratios, its evidence and its per-trial statistic (a post-hoc level rule
maps each trial's evidence to that trial's level), and the loop writes the
statistic into one trial-length vector, so memory is
O(trials + block * (n + 1)); every report equals that of one pass over the
whole matrix.
Every validator takes its e-values from the sorted-calibration core of
``confidence``, the one that builds fuzzy sets: the validity, coverage and
post-hoc validators pass each trial's final slot against its own
calibration, and the decision-risk validator inverts every trial over the
support as ``grid_evidence`` does, its outcomes' ratios checked once
before the first draw. Every alternative, iid ratio or kernel, maps each
block of trials to its ratios in one call, and the engine's block budget,
``confidence._BLOCK_ELEMENTS``, bounds the trials' blocks and the bags'
alike. The suite checks the evidence against the per-orbit
``reference.evalue_at``, and its mean over every tuple of a finite support
against 1. The decision-risk validator decides with ``decisions._minimax``,
the rule behind every certified decision, so it checks the code that
``decide`` runs; the rule runs on Python floats, so each block's evidence
rows go to it as lists, and each trial's loss is read from the problem's
rows, as ``decide`` does.
"""

from __future__ import annotations

import math
import numbers
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, Optional

import numpy as np

from .alternatives import AlternativeSpec, IidRatio, _ratio_matrix
from .confidence import _final_slot_evidence, _final_slot_statistics, _row_slices, _row_statistics
from .errors import AllInfiniteRiskError
from .evalues import EXACTNESS_TOL, UtilitySpec
from .sets import _Frozen, _excludes, _least_levels

if TYPE_CHECKING:
    from .decisions import DecisionProblem

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
# the largest trial count and calibration size a run takes, checked before
# anything is allocated: a run holds 8 bytes per trial and a block of at least
# one (n + 1)-wide row, and counts far past these once ended in numpy's
# allocator failing
MAX_TRIALS = 10**7
MAX_N = 10**6
# each finite model's required and optional parameters, all sequences
_FINITE_PARAMS = {
    "iid-categorical": (("support", "probs"), ()),
    "categorical-mixture": (("support", "component_probs"), ("weights",)),
}


class McConfig(_Frozen):
    """Seeded Monte-Carlo run: trial count, seed (the Philox key, an integer
    in [0, 2**128)), named model and its parameters, each of which the model
    must read."""

    trials: int
    seed: int
    model: str
    params: Mapping[str, object] = {}  # each config stores its own copy

    def __post_init__(self) -> None:
        for key in ("trials", "seed"):
            value = getattr(self, key)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{key} must be an integer, got {value!r}")
        if self.trials < 1000:
            raise ValueError("use at least 1000 trials")
        if self.trials > MAX_TRIALS:
            raise ValueError(f"use at most {MAX_TRIALS} trials, got {self.trials}")
        if not 0 <= self.seed < 2**128:
            raise ValueError(f"seed must lie in [0, 2**128), the Philox key range, got {self.seed}")
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
            if key not in defaults:
                continue  # a finite model's sequences, checked below
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ValueError(f"model parameter {key} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"model parameter {key} must be finite, got {value!r}")
            if key in _SCALES and value < 0:
                raise ValueError(f"model parameter {key} is a scale and must be nonnegative, "
                                 f"got {value!r}")
        if self.model in FINITE_MODELS:
            _check_finite_model(self.params)
        p = {**defaults, **self.params}
        if self.model == "iid-uniform" and p["hi"] < p["lo"]:
            raise ValueError(f"model parameters need lo <= hi, got lo={p['lo']!r} "
                             f"and hi={p['hi']!r}")
        object.__setattr__(self, "params", dict(self.params))


def _holds_bool_or_str(value) -> bool:
    """Whether a bool or a string sits at any depth of ``value``, which a
    float cast would read as a number."""
    if isinstance(value, np.ndarray):
        value = value.tolist()  # numpy scalars become Python bools, strs and numbers
    if isinstance(value, (list, tuple)):
        return any(map(_holds_bool_or_str, value))
    return isinstance(value, (bool, np.bool_, str, bytes))


@np.errstate(over="ignore")  # a sum past the float range is an error below
def _check_finite_model(params: Mapping[str, object]) -> None:
    # the support, then each pmf, which the sampler normalizes row by row:
    # finite float arrays of the right shape, holding no bool or string, each
    # pmf row nonnegative with a positive finite sum
    sizes = {}
    for key, ndim, per in (("support", 1, ""), ("probs", 1, "support point"),
                           ("component_probs", 2, "support point"), ("weights", 1, "component")):
        if key not in params:
            continue
        value, rows = params[key], " per row" if ndim == 2 else ""
        try:
            a = np.empty(0) if _holds_bool_or_str(value) else np.asarray(value, dtype=float)
        except (TypeError, ValueError):
            a = np.empty(0)
        if a.ndim != ndim or 0 in a.shape:
            problem = f"be a nonempty {ndim}-D sequence of numbers"
        elif per and a.shape[-1] != sizes[per]:
            problem = f"hold {sizes[per]} values{rows}, one per {per}"
        elif not np.isfinite(a).all():
            problem = "be finite"
        elif per and not ((a >= 0).all() and (a.sum(axis=-1) > 0).all()
                          and np.isfinite(a.sum(axis=-1)).all()):
            problem = f"be nonnegative with a positive finite sum{rows}"
        else:
            sizes["support point" if key == "support" else "component"] = len(a)  # one per row
            continue
        raise ValueError(f"model parameter {key} must {problem}, got {value!r}")


class McReport(_Frozen):
    """Outcome of one validator run; passes when estimate <= bound + 3 * SE,
    or when the estimate exceeds the bound by float rounding alone, at most
    ``EXACTNESS_TOL * bound`` (a run whose trials all tie has SE 0, and the
    mean of e-values that are each 1 can round to 1 + 1 ulp)."""

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
        return dict(zip(self._fields, self._values()))


def _report(check: str, stats: np.ndarray, bound: float, config: McConfig, detail: str = "") -> McReport:
    est = float(stats.mean())
    se = float(stats.std(ddof=1) / math.sqrt(stats.size))
    return McReport(
        check=check, estimate=est, se=se, bound=bound,
        passed=est <= bound + 3.0 * se or est - bound <= EXACTNESS_TOL * bound,
        trials=config.trials, seed=config.seed, model=config.model, detail=detail,
    )


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed)))


def _trial_blocks(
    config: McConfig, n_points: int, width: int = 0
) -> Iterator[tuple[slice, np.ndarray, Optional[np.ndarray]]]:
    """The trial matrix in consecutive blocks of rows: (rows, values, support
    indices or None).

    The stream draws the per-trial latents (the mixture mean, the categorical
    component) for every trial first, then each block's noise. The sampler
    moves its generator past the latents by drawing them in chunks and
    dropping them, and redraws each block's latents from a second generator
    on the same key, in step with the blocks. numpy draws each value from the
    bit generator's words in turn and buffers nothing between calls, so
    chunks and blocks continue one stream: they join into the same matrix
    whatever their size. The blocks are the engine's ``_row_slices`` of rows
    ``max(n_points, width)`` wide. The stream keeps no name on a block while
    its consumer runs, so the consumer decides when each draw is freed.
    """
    rng = _generator(config.seed)
    T, m = config.trials, n_points
    model = config.model
    p = {**_MODEL_DEFAULTS.get(model, {}), **config.params}

    def latents(draw_latent):
        # draw_latent(generator, k) draws k trials' latents; the function
        # returned gives rows a:b's, for blocks taken in order
        for rows in _row_slices(T, 1):  # one latent per trial
            draw_latent(rng, rows.stop - rows.start)
        redraw = _generator(config.seed)
        return lambda a, b: draw_latent(redraw, b - a)

    if model == "iid-gaussian":
        mu, sigma = p["mu"], p["sigma"]
        draw = lambda a, b: (rng.normal(mu, sigma, size=(b - a, m)), None)
    elif model == "iid-uniform":
        lo, hi = p["lo"], p["hi"]
        draw = lambda a, b: (rng.uniform(lo, hi, size=(b - a, m)), None)
    elif model == "exchangeable-mixture":
        # latent per-trial mean, then i.i.d. noise: exchangeable but not i.i.d.
        mu, between, within = p["mu"], p["between"], p["within"]
        theta = latents(lambda gen, k: gen.normal(mu, between, size=(k, 1)))

        def draw(a, b):
            x = rng.normal(0.0, within, size=(b - a, m))
            x += theta(a, b)  # in place; the sum is theta + x bit for bit
            return x, None
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
        # indices clipped in place and values gathered into the uniforms
        # (mode="clip" writes there unbuffered): with fewer block arrays,
        # malloc does not trim and refault the heap after every block
        if model == "iid-categorical":
            probs = np.asarray(p["probs"], dtype=float)
            cum = np.cumsum(probs / probs.sum())

            def draw(a, b):
                u = rng.random(size=(b - a, m))
                idx = np.searchsorted(cum, u, side="right")
                np.minimum(idx, top, out=idx)
                return np.take(support, idx, out=u, mode="clip"), idx
        else:
            # draw a latent component per trial, then i.i.d. from its pmf
            comps = [np.asarray(c, dtype=float) for c in p["component_probs"]]
            weights = np.asarray(p.get("weights", [1.0 / len(comps)] * len(comps)), dtype=float)
            wcum = np.cumsum(weights / weights.sum())
            comp = latents(lambda gen, k: gen.random(size=k))
            cums = [np.cumsum(c / c.sum()) for c in comps]

            def draw(a, b):
                of_row = np.searchsorted(wcum, comp(a, b), side="right").clip(max=len(comps) - 1)
                u = rng.random(size=(b - a, m))
                idx = np.empty((b - a, m), dtype=np.int64)
                for ci, cum in enumerate(cums):
                    rows = of_row == ci
                    if rows.any():
                        idx[rows] = np.searchsorted(cum, u[rows], side="right")
                np.minimum(idx, top, out=idx)
                return np.take(support, idx, out=u, mode="clip"), idx

    for rows in _row_slices(T, max(m, width)):
        yield (rows, *draw(rows.start, rows.stop))


# ---------------------------------------------------------------------------
# Guarantee validators
# ---------------------------------------------------------------------------


def _check_run(config: McConfig, n: int) -> None:
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > MAX_N:
        raise ValueError(f"n must be at most {MAX_N}, got {n}")
    if config.model not in EXCHANGEABLE_MODELS:
        raise ValueError(
            f"{config.model!r} is not exchangeable; conformal validators would be meaningless"
        )


def _final_slot_check(check: str, config: McConfig, alt: AlternativeSpec, utility: UtilitySpec,
                      n: int, statistic: Callable, bound: float, detail: str = "") -> McReport:
    stats = _final_slot_statistics(_trial_blocks(config, n + 1), config.trials, alt, utility,
                                   statistic)
    return _report(check, stats, bound, config, detail=f"n={n}{detail}")


def mc_validate_evalue(config: McConfig, alt: AlternativeSpec, utility: UtilitySpec, n: int) -> McReport:
    """Validity: the mean e-value at the true future observation is <= 1."""
    _check_run(config, n)
    return _final_slot_check("evalue-validity", config, alt, utility, n, lambda e, _: e, 1.0)


def mc_validate_coverage(
    config: McConfig, alt: AlternativeSpec, utility: UtilitySpec, n: int, alpha: float
) -> McReport:
    """Coverage: the sublevel set at alpha excludes the truth at rate <= alpha."""
    _check_run(config, n)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    return _final_slot_check("coverage", config, alt, utility, n, lambda e, _: _excludes(e, alpha),
                             alpha, f" alpha={alpha:g}")


def adversarial_level_rule(e: np.ndarray) -> np.ndarray:
    """The smallest level excluding each realization: alpha~ = 1/evidence,
    walked to the least float level as ``sets.smallest_exclusion_level``
    does. Each level depends on its own e-value alone, as every level rule's
    must: the validators apply the rule to one block of trials at a time.
    """
    return _least_levels(e)


def _selected_levels(rule: Callable[[np.ndarray], np.ndarray], e: np.ndarray) -> np.ndarray:
    # one level per e-value of the block; a scalar applies to all of them
    atil = np.broadcast_to(np.asarray(rule(e), dtype=float), e.shape)
    if not (atil > 0).all():  # NaN included
        raise ValueError("selection rule produced a level that is not positive")
    return atil


def mc_validate_posthoc(
    config: McConfig,
    alt: AlternativeSpec,
    utility: UtilitySpec,
    n: int,
    selection_rule: Callable[[np.ndarray], np.ndarray] = adversarial_level_rule,
) -> McReport:
    """Post-hoc validity: E[excluded(alpha~)/alpha~] <= 1 for any data-dependent level.

    The level rule is elementwise: called on each block's e-values, it
    returns each trial's level alpha~, or one level for all of them. The
    default, the adversarial rule, picks for every trial the smallest level
    at which the realization is excluded.
    """
    _check_run(config, n)

    def excluded_over_level(e, _):
        atil = _selected_levels(selection_rule, e)
        return _excludes(e, atil) / atil

    return _final_slot_check("posthoc-validity", config, alt, utility, n, excluded_over_level, 1.0)


def mc_validate_decision_risk(
    config: McConfig,
    problem: DecisionProblem,
    mode: str,
    alt: IidRatio,
    utility: UtilitySpec,
    n: int,
    alpha: Optional[float] = None,
    selection_rule: Callable[[np.ndarray], np.ndarray] = adversarial_level_rule,
) -> McReport:
    """Decision-risk guarantees under a finite-support exchangeable model.

    Modes: "as-if" checks P(L(d*, Z) > R) <= alpha for the fixed-level
    sublevel-set decision; "weighted" checks E[L(d*, Z)/R] <= 1 for the
    evidence-weighted decision; "post-hoc" checks
    E[1{L > R(alpha~)}/alpha~] <= 1 under a data-dependent level rule
    (default adversarial). Empty sublevel sets count as exceedances, which
    only biases the check against passing.

    The outcomes' ratios are checked before any trial is drawn; the support
    is the outcomes, so no calibration ratio can fail after them. Then the
    engine's row loop inverts each block of trials over the support with
    the core of ``grid_evidence``; each mode's statistic decides it row by
    row with ``decisions._minimax``, on the block's rows made Python floats
    by ``tolist``, and reads each trial's loss ``problem.loss[d][z]`` at its
    decision and realized outcome: the weighted mode over the evidence, the
    other two over indicator evidence of the sublevel set, as
    ``as_if_decision`` does and each rung of ``post_hoc_decisions`` equals.
    As-if is post-hoc with every level fixed at alpha; post-hoc's level rule,
    elementwise as in ``mc_validate_posthoc``, reads each trial's evidence
    at its realized outcome within the block. Raises AllInfiniteRiskError in
    weighted mode when some trial has infinite weighted risk under every
    decision, once every block is evaluated, so a core failure in any block
    is raised first.
    """
    from .decisions import _indicator, _minimax  # only this validator decides

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
    if mode == "as-if" and not (alpha is not None and 0.0 < alpha <= 1.0):
        raise ValueError("as-if mode needs an alpha in (0, 1]")

    posthoc = mode == "post-hoc"

    def decide(rows, last):
        # the rule runs on the block's evidence rows as lists of Python floats;
        # returns each trial's loss at its decision and realized outcome, and its risk
        d, r = _minimax(problem.loss, rows)
        lost = [problem.loss[i][z] for i, z in zip(d, last.tolist())]
        return np.array(lost, dtype=float), np.array(r, dtype=float)

    def weighted(ev, last):
        # a trial with infinite risk under every decision reads NaN, raised below
        lost, r = decide(ev.tolist(), last)
        return np.where(np.isinf(r), np.nan, np.where(r > 0, lost / np.where(r > 0, r, 1.0), 0.0))

    def exceedance(ev, last):
        level = _selected_levels(selection_rule, ev[np.arange(len(last)), last]) if posthoc else alpha
        members = ~_excludes(ev, np.reshape(level, (-1, 1)))
        lost, r = decide(_indicator(members.tolist()), last)
        exceeded = (lost > r) | ~members.any(axis=1)
        return exceeded / level if posthoc else exceeded

    # the outcomes' ratios, the same row for every trial, are checked before
    # any draw; a block's (rows, D, G) loss ratios count against its budget
    rz = _ratio_matrix(np.asarray(problem.outcomes, dtype=float), alt)[None]
    blocks = _trial_blocks(config, n + 1, len(problem.decisions) * len(problem.outcomes))
    stats = _row_statistics(blocks, config.trials, lambda v: _ratio_matrix(v[:, :-1], alt),
                            lambda cal: _final_slot_evidence(cal, rz, utility),
                            weighted if mode == "weighted" else exceedance)
    if mode == "weighted" and np.isnan(stats).any():
        raise AllInfiniteRiskError("some trials have infinite weighted risk for every "
                                   "decision; clip the evidence away from zero")
    bound, detail = (alpha, f" alpha={alpha:g}") if mode == "as-if" else (1.0, "")
    return _report(f"decision-{mode}", stats, bound, config, detail=f"n={n}{detail}")
