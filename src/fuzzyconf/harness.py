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
from a second generator on the same key. Every validator computes its
per-trial statistic inside the block, a post-hoc level rule included (it
maps each trial's evidence to that trial's level), and writes it into one
trial-length vector, so its memory is O(trials + block * (n + 1)); every
report equals that of one pass over the whole matrix.
Every validator takes its e-values from the sorted-calibration core of
``confidence``, the one that builds fuzzy sets: the validity, coverage and
post-hoc validators pass each trial's final slot against its own
calibration, and the decision-risk validator inverts every trial over the
support as ``grid_evidence`` does. The built-in kernel alternatives
evaluate each block of trials in one call of their row form; custom kernels
resolve, and evaluate their ratios, trial by trial. The suite checks both
shapes against the per-orbit ``reference.evalue_at``. The decision-risk
validator decides with ``decisions._minimax``, the rule behind every
certified decision, so it checks the code that ``decide`` runs.
"""

from __future__ import annotations

import math
import numbers
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, Optional

import numpy as np

from .alternatives import (
    AlternativeSpec,
    IidRatio,
    KernelAlternative,
    _ratio_matrix,
    resolve_alternative,
)
from .confidence import _Failures, _final_slot_evidence, _grid_evidence
from .errors import AllInfiniteRiskError
from .evalues import EXACTNESS_TOL, UtilitySpec
from .sets import _Frozen

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
        if self.trials < 1000:
            raise ValueError("use at least 1000 trials")
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
            if not isinstance(value, numbers.Real):
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


@np.errstate(over="ignore")  # a sum past the float range is an error below
def _check_finite_model(params: Mapping[str, object]) -> None:
    # the support, then each pmf, which the sampler normalizes row by row:
    # finite float arrays of the right shape, each pmf row nonnegative with a
    # positive finite sum
    sizes = {}
    for key, ndim, per in (("support", 1, ""), ("probs", 1, "support point"),
                           ("component_probs", 2, "support point"), ("weights", 1, "component")):
        if key not in params:
            continue
        value, rows = params[key], " per row" if ndim == 2 else ""
        try:
            a = np.asarray(value, dtype=float)
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

# Entries per block of trials. The validators hold O(trials) statistics plus
# one block's arrays, so this bounds their memory whatever the trial count.
_BLOCK_ELEMENTS = 1 << 16


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed)))


def _trial_blocks(
    config: McConfig, n_points: int, width: int = 0,
    apply: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> Iterator[tuple[slice, np.ndarray, Optional[np.ndarray]]]:
    """The trial matrix in consecutive blocks of rows: (rows, values, support
    indices or None), with ``apply(values)`` in place of the values if given.

    The stream draws the per-trial latents (the mixture mean, the categorical
    component) for every trial first, then each block's noise. The sampler
    moves its generator past the latents by drawing them in chunks and
    dropping them, and redraws each block's latents from a second generator
    on the same key, in step with the blocks. numpy draws each value from the
    bit generator's words in turn and buffers nothing between calls, so
    chunks and blocks continue one stream: they join into the same matrix
    whatever their size. A block holds at most ``_BLOCK_ELEMENTS`` entries of
    rows ``max(n_points, width)`` wide, and at least one row. The stream
    keeps no block while its consumer runs, so each draw is freed once
    ``apply`` returns.
    """
    rng = _generator(config.seed)
    T, m = config.trials, n_points
    model = config.model
    p = {**_MODEL_DEFAULTS.get(model, {}), **config.params}

    def latents(draw_latent):
        # draw_latent(generator, k) draws k trials' latents; the function
        # returned gives rows a:b's, for blocks taken in order
        for a in range(0, T, _BLOCK_ELEMENTS):
            draw_latent(rng, min(_BLOCK_ELEMENTS, T - a))
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

    def block(a, b):
        # a call, so that no name in the generator holds the draw
        values, idx = draw(a, b)
        return slice(a, b), values if apply is None else apply(values), idx

    step = max(1, _BLOCK_ELEMENTS // max(m, width, 1))
    for a in range(0, T, step):
        yield block(a, min(a + step, T))


# ---------------------------------------------------------------------------
# Vectorized e-values across trials
# ---------------------------------------------------------------------------


def _row_ratios(data: np.ndarray, alt: AlternativeSpec) -> np.ndarray:
    # the ratio is checked on every entry, naming the first bad one in row
    # order; a kernel's row form evaluates the whole block at once, and a
    # kernel without one resolves and evaluates each row before the next
    if data.shape[1] < 2:
        raise ValueError("calibration rows must hold at least one value")
    if isinstance(alt, IidRatio):
        return _ratio_matrix(data, alt.ratio)
    if isinstance(alt, KernelAlternative) and alt.row_ratio is not None:
        return _ratio_matrix(data, alt.row_ratio)
    return np.vstack([_ratio_matrix(row[None], resolve_alternative(alt, row[:-1]).ratio)
                      for row in data])


def _row_evidence(r: np.ndarray, utility: UtilitySpec) -> tuple[np.ndarray, _Failures]:
    # each row's final slot against the rest of its row's ratios
    ev, failures = _final_slot_evidence(r[:, :-1], r[:, -1:], utility)
    return ev[:, 0], failures


def _evidence_blocks(
    config: McConfig, n: int, ratios: Callable, evaluate: Callable, width: int = 0
) -> Iterator[tuple[slice, np.ndarray, Optional[np.ndarray]]]:
    """(rows, evaluate(ratios(values)), final-slot support indices or None)
    for each block of trials with n calibration slots.

    The block stream applies ``ratios``, so each draw is freed before
    ``evaluate`` runs on its ratios. ``ratios`` raises a bad ratio at once
    and ``evaluate`` returns the core's failures, which are raised after
    the last block; so the first bad ratio in row order wins, then the
    core's lowest failing column, as in one call on the whole matrix.
    Blocks after a failure are evaluated but not yielded.
    """
    failures = None
    # r stays bound while the next block is drawn: freeing it first lets
    # malloc trim the heap after every block and fault it back in, which
    # tripled the page faults of a 200k-trial run
    for rows, r, idx in _trial_blocks(config, n + 1, width, ratios):
        # a copy, so that no name holds the block's full support indices
        last = None if idx is None else idx[:, -1].copy()
        del idx
        out, found = evaluate(r)
        failures = found if failures is None else failures.merge(found)
        if not failures.any():
            yield rows, out, last
    failures.raise_first()


def _trial_statistics(
    config: McConfig, alt: AlternativeSpec, utility: UtilitySpec, n: int,
    statistic: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """``statistic`` of each block's final-slot e-values, in one trial-length vector."""
    stats = np.empty(config.trials)
    blocks = _evidence_blocks(config, n, lambda v: _row_ratios(v, alt),
                              lambda r: _row_evidence(r, utility))
    for rows, e, _ in blocks:
        stats[rows] = statistic(e)
    return stats


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
    e = _trial_statistics(config, alt, utility, n, lambda e: e)
    return _report("evalue-validity", e, 1.0, config, detail=f"n={n}")


def mc_validate_coverage(
    config: McConfig, alt: AlternativeSpec, utility: UtilitySpec, n: int, alpha: float
) -> McReport:
    """Coverage: the sublevel set at alpha excludes the truth at rate <= alpha."""
    _check_run(config, n)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    excluded = _trial_statistics(config, alt, utility, n, lambda e: e >= 1.0 / alpha)
    return _report("coverage", excluded, alpha, config, detail=f"n={n} alpha={alpha:g}")


def adversarial_level_rule(e: np.ndarray) -> np.ndarray:
    """The smallest level excluding each realization: alpha~ = 1/evidence.

    The validators exclude at a level a when e >= 1/a in floats. The floats
    a meeting that form an up-set, and 1/e can round to either side of its
    least member, so each level walks there one float step at a time. Zero
    evidence gets the infinite level, never excluded. Each level depends on
    its own e-value alone, as every level rule's must: the validators apply
    the rule to one block of trials at a time.
    """
    e = np.asarray(e, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(e > 0.0, 1.0 / e, np.inf)
        while True:
            below = np.nextafter(a, 0.0)
            down = (below < a) & (1.0 / below <= e)
            up = 1.0 / a > e
            if not (down.any() or up.any()):
                return a
            a = np.where(down, below, np.where(up, np.nextafter(a, np.inf), a))


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

    def excluded_over_level(e):
        atil = _selected_levels(selection_rule, e)
        return (e >= 1.0 / atil) / atil

    stats = _trial_statistics(config, alt, utility, n, excluded_over_level)
    return _report("posthoc-validity", stats, 1.0, config, detail=f"n={n}")


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

    Each block of trials is inverted over the support with the core of
    ``grid_evidence`` and decided row by row with ``decisions._minimax``:
    the weighted mode over the evidence, the other two over indicator
    evidence of the sublevel set, as ``as_if_decision`` and each rung of
    ``post_hoc_decisions`` do. As-if is post-hoc with every level fixed at
    alpha; post-hoc's level rule, elementwise as in ``mc_validate_posthoc``,
    reads each trial's evidence at its realized outcome within the block.
    Raises AllInfiniteRiskError in weighted mode when some trial has
    infinite weighted risk under every decision.
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
    if mode == "as-if" and not (alpha is not None and alpha > 0.0):
        raise ValueError("as-if mode needs a positive alpha")

    loss = problem.loss_matrix
    stats = np.empty(config.trials)
    # a block's (rows, D, G) loss ratios count against its budget
    blocks = _evidence_blocks(config, n, lambda v: _ratio_matrix(v[:, :-1], alt.ratio),
                              lambda cal: _grid_evidence(cal, problem.outcomes, alt.ratio, utility),
                              width=loss.size)

    if mode == "weighted":
        infinite = False
        for rows, ev, last in blocks:
            d, r = _minimax(loss, ev)
            infinite |= bool(np.isinf(r).any())
            stats[rows] = np.where(r > 0, loss[d, last] / np.where(r > 0, r, 1.0), 0.0)
        if infinite:
            raise AllInfiniteRiskError("some trials have infinite weighted risk for every "
                                       "decision; clip the evidence away from zero")
        return _report("decision-weighted", stats, 1.0, config, detail=f"n={n}")

    posthoc = mode == "post-hoc"
    for rows, ev, last in blocks:
        level = _selected_levels(selection_rule, ev[np.arange(len(last)), last]) if posthoc else alpha
        members = ev < 1.0 / np.reshape(level, (-1, 1))
        d, r = _minimax(loss, _indicator(members))
        exceeded = (loss[d, last] > r) | ~members.any(axis=1)
        stats[rows] = exceeded / level if posthoc else exceeded
    if posthoc:
        return _report("decision-post-hoc", stats, 1.0, config, detail=f"n={n}")
    return _report("decision-as-if", stats, alpha, config, detail=f"n={n} alpha={alpha:g}")
