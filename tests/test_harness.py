import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest

from fuzzyconf import cli, decisions, harness
from fuzzyconf.alternatives import (
    IidRatio, KernelAlternative, ar1_kernel, gaussian_composite_kernel, gaussian_scale_ratio,
)
from fuzzyconf.cli import main
from fuzzyconf.confidence import grid_evidence
from fuzzyconf.decisions import (
    DecisionProblem, as_if_decision, post_hoc_decisions, weighted_decision,
)
from fuzzyconf.errors import (
    AllInfiniteRiskError, AllZeroRatioError, NormalizationFailureError, ZeroDensityError,
)
from fuzzyconf.evalues import (
    BoundedLog, ClippedLog, Dampened, Log, NeymanPearson, Power, utility_id,
)
from fuzzyconf.harness import (
    McConfig,
    adversarial_level_rule,
    mc_validate_coverage,
    mc_validate_decision_risk,
    mc_validate_evalue,
    mc_validate_posthoc,
)
from fuzzyconf.reference import (
    LikelihoodRatioProfile,
    brute_force_conditional_lr,
    classical_conformal_membership,
    conditional_lr_iid,
    conformal_pvalue,
    evalue_at,
    evalues_for,
    expected_utility,
    numerical_utility_oracle,
    optimal_evalue,
    sample_finite_matrix,
    sample_matrix,
)
from fuzzyconf.sets import FuzzyConfidenceSet, PlugInGrid, sublevel_set

LRP = LikelihoodRatioProfile


# -- brute-force oracle ------------------------------------------------------


def test_brute_force_identical_densities():
    val = brute_force_conditional_lr((0.3, 1.7, -2.0), lambda z: 0.25, lambda z: 0.25)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_brute_force_linear_tilt():
    val = brute_force_conditional_lr(
        (1, 2, 3), lambda z: z * math.exp(-z) / 10, lambda z: math.exp(-z) / 10)
    assert val == pytest.approx(1.5, abs=1e-12)


def test_brute_force_duplicate_position_invariance():
    q_last = lambda z: math.exp(-abs(z - 2))
    q_base = lambda z: math.exp(-abs(z))
    a = brute_force_conditional_lr((5.0, 1.0, 1.0), q_last, q_base)
    b = brute_force_conditional_lr((1.0, 5.0, 1.0), q_last, q_base)
    assert a == pytest.approx(b, rel=1e-12)


def test_brute_force_guards():
    with pytest.raises(ZeroDensityError):
        brute_force_conditional_lr((1, 2), lambda z: 1.0, lambda z: 0.0)
    with pytest.raises(ValueError):
        brute_force_conditional_lr(tuple(range(9)), lambda z: 1.0, lambda z: 1.0)


def test_shortcut_matches_brute_force_randomized():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        m = int(rng.integers(3, 9))
        vals = rng.normal(0, 2, size=m)
        a, b = rng.uniform(0.2, 2.0, size=2)
        q_base = lambda z, a=a: a * math.exp(-a * abs(z)) / 2
        q_last = lambda z, a=a, b=b: q_base(z) * (b + z * z)
        prof = conditional_lr_iid(vals, lambda z, b=b: b + z * z)
        got = prof.lr_at(float(vals[-1]))
        want = brute_force_conditional_lr(vals, q_last, q_base)
        assert got == pytest.approx(want, abs=1e-9)


# -- numerical utility oracle ------------------------------------------------

THIRDS = LRP((1.0, 2.0, 3.0), (1, 1, 1), (0.5, 1.0, 1.5))


def test_oracle_log_identity():
    prof = numerical_utility_oracle(THIRDS, Log())
    assert np.allclose(prof.evidence, (0.5, 1.0, 1.5), atol=1e-5)


def test_oracle_np_worked_example():
    prof = numerical_utility_oracle(THIRDS, NeymanPearson(alpha=1 / 3))
    assert np.allclose(prof.evidence, (0.0, 0.0, 3.0), atol=1e-9)


def test_oracle_power_half():
    lrp = LRP((1.0, 2.0), (1, 1), (0.5, 1.5))
    prof = numerical_utility_oracle(lrp, Power(h=0.5))
    assert np.allclose(prof.evidence, (0.2, 1.8), atol=1e-5)


def test_oracle_matches_closed_forms_random():
    rng = np.random.default_rng(77)
    utilities = [
        Log(), Power(-2.0), Power(0.5), NeymanPearson(0.2), NeymanPearson(0.05),
        BoundedLog(0.2), ClippedLog(0.15), Dampened(0.1, Log()),
        Dampened(0.25, NeymanPearson(0.3)),
    ]
    for _ in range(25):
        d = int(rng.integers(2, 6))
        counts = tuple(int(c) for c in rng.integers(1, 3, size=d))
        raw = rng.uniform(0.05, 3.0, size=d)
        mean = float(np.average(raw, weights=counts))
        lrp = LRP(tuple(np.arange(d, dtype=float)), counts, tuple(raw / mean))
        for utility in utilities:
            closed = optimal_evalue(lrp, utility)
            oracle = numerical_utility_oracle(lrp, utility)
            eu_closed = expected_utility(closed.evidence, lrp, utility)
            eu_oracle = expected_utility(oracle.evidence, lrp, utility)
            assert eu_closed >= eu_oracle - 1e-6, (utility_id(utility), lrp.lr)
            assert abs(eu_closed - eu_oracle) <= 1e-6, (utility_id(utility), lrp.lr)


# -- samplers ----------------------------------------------------------------


def test_samplers_seed_deterministic():
    for model, params in (
        ("iid-gaussian", {"mu": 0.5, "sigma": 2.0}),
        ("iid-uniform", {"lo": -1.0, "hi": 1.0}),
        ("exchangeable-mixture", {"mu": 0.0, "between": 1.0, "within": 0.5}),
        ("ar1-gaussian", {"mu": 0.0, "rho": 0.7}),
    ):
        cfg = McConfig(trials=1000, seed=99, model=model, params=params)
        a = sample_matrix(cfg, 5)
        b = sample_matrix(cfg, 5)
        assert np.array_equal(a, b)
        other = sample_matrix(McConfig(trials=1000, seed=100, model=model, params=params), 5)
        assert not np.array_equal(a, other)


MODEL_PARAMS = {
    "iid-gaussian": {"mu": 0.5, "sigma": 2.0},
    "iid-uniform": {"lo": -1.0, "hi": 1.0},
    "exchangeable-mixture": {"mu": 0.0, "between": 1.0, "within": 0.5},
    "ar1-gaussian": {"mu": 0.0, "rho": 0.7},
    "iid-categorical": {"support": (0.0, 1.0, 2.0), "probs": (0.5, 0.3, 0.2)},
    "categorical-mixture": {"support": (0.0, 1.0), "component_probs": ((0.9, 0.1), (0.2, 0.8))},
}


def test_sampler_reproducibility_claims():
    # a fixed (seed, trials) config gives one matrix for every model
    for model, params in MODEL_PARAMS.items():
        cfg = McConfig(trials=2000, seed=7, model=model, params=params)
        assert np.array_equal(sample_matrix(cfg, 4), sample_matrix(cfg, 4))
    # row-by-row streams: a shorter run is a prefix of a longer one
    for model in ("iid-gaussian", "ar1-gaussian"):
        short = sample_matrix(McConfig(trials=2000, seed=7, model=model, params=MODEL_PARAMS[model]), 4)
        long = sample_matrix(McConfig(trials=4000, seed=7, model=model, params=MODEL_PARAMS[model]), 4)
        assert np.array_equal(short, long[:2000])


# sha256 of the values (and int64 support indices) of a 20_011 x 21 draw at
# seed 2718, as drawn whole before the samplers streamed in blocks
STREAM_DIGESTS = {
    "iid-gaussian": ("238bafa91fbdbafd67adc1804126adc02d1291f417bc435f32db44592ac99b35",),
    "iid-uniform": ("ee793007dee460cc107a33ff7cf4ad1aa1211905b905d56cf42a196c6b78f70a",),
    "exchangeable-mixture": ("b5b07958336c49c91468976a9ee52e23362a15a70e90b8f5adec3cb666764758",),
    "ar1-gaussian": ("5629d17387b9379fef62417fff6303e369c0956d58ac5baa5e0d0d350ae4d6ec",),
    "iid-categorical": ("814dd738407284e12eefbf1cd5c4e9c5479ea85d3299c2b10d99be73d0258d72",
                        "e049d00976f179c7d6a2a25f10724d0962fed0a02e0e0bacadc81436ba62b822"),
    "categorical-mixture": ("11d5669d44c13500edb91b0afe134991759a51483b9dd3dc13aeaeb88b6a1845",
                            "4458e69732b5db49417152a1e536e0c0f90427799ff47322002bed2d51075888"),
}


def _sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def test_sampler_streams_are_pinned():
    # 20_011 is prime, so no block size divides the trial count
    for model, params in MODEL_PARAMS.items():
        cfg = McConfig(trials=20_011, seed=2718, model=model, params=params)
        values = sample_matrix(cfg, 21)
        assert values.shape == (20_011, 21) and values.dtype == np.float64
        got = (_sha256(values),)
        if model in harness.FINITE_MODELS:
            finite_values, idx = sample_finite_matrix(cfg, 21)
            assert np.array_equal(finite_values, values)
            got += (_sha256(idx.astype(np.int64)),)
        assert got == STREAM_DIGESTS[model], model


def _with_block(monkeypatch, elements, run):
    monkeypatch.setattr(harness, "_BLOCK_ELEMENTS", elements)
    return run()


def test_blocked_validators_match_whole_matrix(monkeypatch):
    # n = 5 gives rows 6 wide; the decision problem's losses are 2 x 4 = 8 wide.
    # Budgets: the whole matrix in one block, 2-row blocks, and blocks of 77
    # (validators) or 57 (decision risk) rows, neither dividing 1000 trials
    whole, budgets = 10**9, (16, 462)
    composite = gaussian_composite_kernel(1.0, 3.5)
    tilt = IidRatio(lambda z: np.exp(0.5 * z))
    decision_params = {
        "iid-categorical": {"support": PROBLEM.outcomes, "probs": (0.4, 0.3, 0.2, 0.1)},
        "categorical-mixture": {"support": PROBLEM.outcomes,
                                "component_probs": ((0.7, 0.1, 0.1, 0.1), (0.1, 0.2, 0.3, 0.4))},
    }
    for model, params in MODEL_PARAMS.items():
        cfg = McConfig(trials=1000, seed=31, model=model, params=params)
        if model in decision_params:
            draw = lambda: sample_finite_matrix(cfg, 6)
        else:
            draw = lambda: (sample_matrix(cfg, 6),)
        want = _with_block(monkeypatch, whole, draw)
        for budget in budgets:
            got = _with_block(monkeypatch, budget, draw)
            assert all(np.array_equal(x, y) for x, y in zip(got, want)), (model, budget)
        runs = []
        if model != "ar1-gaussian":  # the validators reject it
            runs += [
                lambda: mc_validate_evalue(cfg, ALT, BoundedLog(0.1), 5),
                lambda: mc_validate_coverage(cfg, ALT, NeymanPearson(0.2), 5, 0.2),
                lambda: mc_validate_posthoc(cfg, ALT, ClippedLog(0.1), 5),
            ]
        if model == "iid-gaussian":
            runs.append(lambda: mc_validate_coverage(cfg, composite, Log(), 5, 0.1))
        if model in decision_params:
            dcfg = McConfig(trials=1000, seed=31, model=model, params=decision_params[model])
            runs += [
                lambda: mc_validate_decision_risk(dcfg, PROBLEM, "as-if", tilt, ClippedLog(0.1),
                                                  5, alpha=0.2),
                lambda: mc_validate_decision_risk(dcfg, PROBLEM, "weighted", tilt, ClippedLog(0.1),
                                                  5),
                lambda: mc_validate_decision_risk(dcfg, PROBLEM, "post-hoc", tilt, BoundedLog(0.2),
                                                  5),
            ]
        for i, run in enumerate(runs):
            want = _with_block(monkeypatch, whole, run)
            for budget in budgets:
                assert _with_block(monkeypatch, budget, run) == want, (model, i, budget)


def test_default_posthoc_rule_equals_the_rule_on_every_e_value(monkeypatch):
    # the default rule and the same rule passed explicitly both run on each
    # block's e-values, whatever the block size
    for model in ("exchangeable-mixture", "categorical-mixture"):
        cfg = McConfig(trials=1000, seed=31, model=model, params=MODEL_PARAMS[model])
        for budget in (10**9, 16, 462):  # test_blocked_validators_match_whole_matrix's
            monkeypatch.setattr(harness, "_BLOCK_ELEMENTS", budget)
            for utility in (ClippedLog(0.1), Power(0.5)):
                chunked = mc_validate_posthoc(cfg, ALT, utility, 5)
                whole = mc_validate_posthoc(cfg, ALT, utility, 5,
                                            selection_rule=adversarial_level_rule)
                assert chunked == whole, (model, budget, utility)


# tracemalloc peaks of the 200k-trial validators (Python 3.11, numpy 2.4):
# 3.2-3.4 MiB for the exchangeable mixture and 3.77 MiB for the categorical
# one, whose draws also carry support indices. That is one trial-length
# statistic vector (1.5 MiB) and the arrays of a block and the last block's
# ratios; the categorical mixture read 4.24 MiB while each block's full
# support indices stayed alive through the next draw
VALIDATOR_PEAK_BOUND = 4.0 * 2**20


def _traced_peak(run):
    # numpy loads numpy.random on first use, about 0.7 MiB under numpy 2.4:
    # a cost of the first draw in a process, not of the validator's working set
    import numpy.random  # noqa: F401
    tracemalloc.start()
    try:
        report = run()
        return report, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_posthoc_memory_is_bounded_by_the_block():
    # one pass over the whole (T, 21) matrix peaks near 150 MiB here: the
    # draw, its ratios, and the core's sorted copy and suffix sums at once
    cfg = McConfig(trials=200_000, seed=7, model="exchangeable-mixture", params={})
    alt, utility = gaussian_scale_ratio(0.0, 1.0, 3.5), ClippedLog(0.1)
    report, peak = _traced_peak(lambda: mc_validate_posthoc(cfg, alt, utility, 20))
    assert report.passed
    assert peak < VALIDATOR_PEAK_BOUND, f"peak {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("check, utility, model", [
    ("evalue", Log(), "exchangeable-mixture"),
    ("evalue", BoundedLog(0.05), "exchangeable-mixture"),
    ("evalue", Power(0.5), "exchangeable-mixture"),
    ("coverage", NeymanPearson(0.1), "exchangeable-mixture"),
    ("posthoc", ClippedLog(0.1), "exchangeable-mixture"),
    ("evalue", Log(), "categorical-mixture"),
], ids=["log", "bounded-log", "power", "np-coverage", "clipped-log-posthoc",
        "categorical-mixture-log"])
def test_validators_hold_one_trial_vector_and_one_block(check, utility, model):
    # the benchmark's 200k-trial mixture runs, and a categorical mixture: the
    # statistic vector plus one block of 2**16 entries. The latents drawn
    # for every trial at once, the post-hoc levels beside the e-values, or a
    # block's draw kept alive while the core ran took these to 4.3-5.6 MiB
    params = {} if model == "exchangeable-mixture" else MODEL_PARAMS[model]
    cfg = McConfig(trials=200_000, seed=11, model=model, params=params)
    alt = gaussian_scale_ratio(0.0, 1.0, 3.5)
    run = {"evalue": lambda: mc_validate_evalue(cfg, alt, utility, 20),
           "coverage": lambda: mc_validate_coverage(cfg, alt, utility, 20, 0.1),
           "posthoc": lambda: mc_validate_posthoc(cfg, alt, utility, 20)}[check]
    report, peak = _traced_peak(run)
    assert report.passed
    assert peak < VALIDATOR_PEAK_BOUND, f"peak {peak / 2**20:.2f} MiB"


def test_exchangeable_mixture_is_column_correlated():
    cfg = McConfig(trials=50_000, seed=1, model="exchangeable-mixture",
                   params={"mu": 0.0, "between": 1.0, "within": 1.0})
    x = sample_matrix(cfg, 2)
    corr = np.corrcoef(x[:, 0], x[:, 1])[0, 1]
    assert corr == pytest.approx(0.5, abs=0.02)  # between^2 / (between^2 + within^2)


def test_ar1_sampler_unit_innovations():
    cfg = McConfig(trials=80_000, seed=4, model="ar1-gaussian", params={"mu": 0.0, "rho": 0.6})
    x = sample_matrix(cfg, 3)
    resid = x[:, 2] - 0.6 * x[:, 1]
    assert resid.std() == pytest.approx(1.0, abs=0.02)
    assert np.corrcoef(resid, x[:, 1])[0, 1] == pytest.approx(0.0, abs=0.02)


def test_finite_sampler_frequencies():
    support = (0.0, 1.0, 2.0)
    cfg = McConfig(trials=60_000, seed=8, model="iid-categorical",
                   params={"support": support, "probs": (0.5, 0.3, 0.2)})
    values, idx = sample_finite_matrix(cfg, 2)
    assert set(np.unique(values)) <= set(support)
    freqs = np.bincount(idx.ravel(), minlength=3) / idx.size
    assert np.allclose(freqs, (0.5, 0.3, 0.2), atol=0.01)
    assert np.array_equal(values, np.asarray(support)[idx])


def test_mixture_sampler_within_trial_dependency():
    cfg = McConfig(trials=60_000, seed=9, model="categorical-mixture",
                   params={"support": (0.0, 1.0),
                           "component_probs": [(0.9, 0.1), (0.1, 0.9)],
                           "weights": (0.5, 0.5)})
    values, _ = sample_finite_matrix(cfg, 2)
    # same latent component makes the two slots agree more often than iid would
    agree = (values[:, 0] == values[:, 1]).mean()
    assert agree > 0.7


def test_mc_config_validation():
    with pytest.raises(ValueError):
        McConfig(trials=10, seed=0, model="iid-gaussian")
    with pytest.raises(ValueError):
        McConfig(trials=5000, seed=0, model="weibull")


@pytest.mark.parametrize("seed", [-1, 2**128, -(2**200)])
def test_mc_config_rejects_seeds_outside_the_philox_key_range(seed):
    # a seed Philox cannot take once failed with numpy's "key must be positive
    # and less than 2**128.", naming no seed
    with pytest.raises(ValueError, match=rf"^seed must lie in \[0, 2\*\*128\), .*got {seed}$"):
        McConfig(trials=1000, seed=seed, model="iid-gaussian")
    McConfig(trials=1000, seed=2**128 - 1, model="iid-gaussian")


@pytest.mark.parametrize("model, params, message", [
    ("iid-gaussian", {"foo": 1.0},
     "model iid-gaussian takes no parameter foo; its parameters are mu, sigma"),
    ("ar1-gaussian", {"sigma": 1.0, "lo": 0.0},
     "model ar1-gaussian takes no parameter lo, sigma; its parameters are mu, rho"),
    ("iid-categorical", {"support": (0.0, 1.0), "probs": (0.5, 0.5), "weights": (1.0,)},
     "model iid-categorical takes no parameter weights; its parameters are support, probs"),
    ("iid-gaussian", {"sigma": math.nan}, "model parameter sigma must be finite, got nan"),
    ("exchangeable-mixture", {"mu": -math.inf}, "model parameter mu must be finite, got -inf"),
    ("ar1-gaussian", {"rho": math.inf}, "model parameter rho must be finite, got inf"),
    ("iid-categorical", {"support": (0.0, math.nan), "probs": (0.5, 0.5)},
     "model parameter support must be finite, got (0.0, nan)"),
    ("iid-gaussian", {"sigma": -1.0},
     "model parameter sigma is a scale and must be nonnegative, got -1.0"),
    ("exchangeable-mixture", {"between": -0.5},
     "model parameter between is a scale and must be nonnegative, got -0.5"),
    ("exchangeable-mixture", {"within": -2},
     "model parameter within is a scale and must be nonnegative, got -2"),
    ("iid-uniform", {"lo": 1.0, "hi": 0.0}, "model parameters need lo <= hi, got lo=1.0 and hi=0.0"),
    ("iid-uniform", {"lo": 2.0}, "model parameters need lo <= hi, got lo=2.0 and hi=1.0"),
    ("iid-categorical", {}, "model iid-categorical needs the parameters support and probs"),
    ("categorical-mixture", {"support": (0.0, 1.0)},
     "model categorical-mixture needs the parameters support and component_probs"),
    # continuous parameters are real scalars: a vector mu once drew columns
    # of different means, and a vector sigma raised TypeError
    ("iid-gaussian", {"mu": [0.0, 100.0]}, "model parameter mu must be a real number, got [0.0, 100.0]"),
    ("iid-gaussian", {"sigma": [1, 2]}, "model parameter sigma must be a real number, got [1, 2]"),
    ("ar1-gaussian", {"rho": "0.5"}, "model parameter rho must be a real number, got '0.5'"),
    # finite models: malformed supports and pmfs once reached the sampler,
    # which failed or drew some other model
    ("iid-categorical", {"support": 1.0, "probs": 1.0},
     "model parameter support must be a nonempty 1-D sequence of numbers, got 1.0"),
    ("iid-categorical", {"support": ((0.0, 1.0), (2.0, 3.0)), "probs": (0.5, 0.5)},
     "model parameter support must be a nonempty 1-D sequence of numbers, "
     "got ((0.0, 1.0), (2.0, 3.0))"),
    ("iid-categorical", {"support": (), "probs": ()},
     "model parameter support must be a nonempty 1-D sequence of numbers, got ()"),
    ("iid-categorical", {"support": (0.0, 1.0), "probs": (0.5,)},
     "model parameter probs must hold 2 values, one per support point, got (0.5,)"),
    ("iid-categorical", {"support": (0.0, 1.0), "probs": (-1, 2)},
     "model parameter probs must be nonnegative with a positive finite sum, got (-1, 2)"),
    ("iid-categorical", {"support": (0.0, 1.0), "probs": (0, 0)},
     "model parameter probs must be nonnegative with a positive finite sum, got (0, 0)"),
    ("iid-categorical", {"support": (0.0, 1.0), "probs": (1e308, 1e308)},
     "model parameter probs must be nonnegative with a positive finite sum, "
     "got (1e+308, 1e+308)"),
    ("categorical-mixture", {"support": (0.0, 1.0), "component_probs": [(0.9, 0.1), (0.1,)]},
     "model parameter component_probs must be a nonempty 2-D sequence of numbers, "
     "got [(0.9, 0.1), (0.1,)]"),
    ("categorical-mixture", {"support": (0.0, 1.0), "component_probs": (0.9, 0.1)},
     "model parameter component_probs must be a nonempty 2-D sequence of numbers, got (0.9, 0.1)"),
    ("categorical-mixture", {"support": (0.0, 1.0), "component_probs": [(0.5, 0.3, 0.2)]},
     "model parameter component_probs must hold 2 values per row, one per support point, "
     "got [(0.5, 0.3, 0.2)]"),
    ("categorical-mixture", {"support": (0.0, 1.0), "component_probs": [(0.9, 0.1), (-0.1, 1.1)]},
     "model parameter component_probs must be nonnegative with a positive finite sum per row, "
     "got [(0.9, 0.1), (-0.1, 1.1)]"),
    ("categorical-mixture", {"support": (0.0, 1.0), "component_probs": [(0.9, 0.1), (0.0, 0.0)]},
     "model parameter component_probs must be nonnegative with a positive finite sum per row, "
     "got [(0.9, 0.1), (0.0, 0.0)]"),
    ("categorical-mixture", {"support": (0.0, 1.0), "component_probs": [(0.9, 0.1), (0.1, 0.9)],
                             "weights": (1.0,)},
     "model parameter weights must hold 2 values, one per component, got (1.0,)"),
    ("categorical-mixture", {"support": (0.0, 1.0), "component_probs": [(0.9, 0.1), (0.1, 0.9)],
                             "weights": ((0.5, 0.5),)},
     "model parameter weights must be a nonempty 1-D sequence of numbers, got ((0.5, 0.5),)"),
    ("categorical-mixture", {"support": (0.0, 1.0), "component_probs": [(0.9, 0.1), (0.1, 0.9)],
                             "weights": (0.0, 0.0)},
     "model parameter weights must be nonnegative with a positive finite sum, got (0.0, 0.0)"),
])
def test_mc_config_rejects_bad_model_params(model, params, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        McConfig(trials=1000, seed=0, model=model, params=params)


def test_mc_config_accepts_defaults_and_degenerate_edges():
    for model, params in (("iid-gaussian", {}), ("iid-gaussian", {"mu": 0, "sigma": 0}),
                          ("iid-uniform", {"lo": 0.5, "hi": 0.5}),
                          ("categorical-mixture", {"support": (0.0, 1.0),
                                                   "component_probs": [(0.9, 0.1), (0.1, 0.9)],
                                                   "weights": (0.5, 0.5)})):
        McConfig(trials=1000, seed=0, model=model, params=params)


# -- validators --------------------------------------------------------------

ALT = IidRatio(lambda z: np.exp(0.8 * z), name="tilt")


def test_validators_reject_non_exchangeable_model():
    cfg = McConfig(trials=1000, seed=0, model="ar1-gaussian", params={"rho": 0.5})
    with pytest.raises(ValueError):
        mc_validate_evalue(cfg, ALT, Log(), 4)


def test_validator_reports_are_deterministic():
    cfg = McConfig(trials=5000, seed=77, model="iid-gaussian", params={"mu": 0, "sigma": 1})
    r1 = mc_validate_evalue(cfg, ALT, Log(), 6)
    r2 = mc_validate_evalue(cfg, ALT, Log(), 6)
    assert r1 == r2
    assert r1.passed and "PASS" in r1.summary_line()
    assert r1.to_json_doc()["estimate"] == r1.estimate


@pytest.mark.parametrize("bound", [1.0, 0.2])
def test_report_forgives_float_rounding_only(bound):
    # four equal stats: the mean is exact and SE is 0, so only the rounding
    # slack of EXACTNESS_TOL * bound can pass an estimate above the bound
    cfg = McConfig(trials=1000, seed=0, model="iid-gaussian")

    def report(estimate):
        r = harness._report("check", np.full(4, estimate), bound, cfg)
        assert r.estimate == estimate and r.se == 0.0
        return r

    assert report(math.nextafter(bound, 2.0)).passed
    assert report(bound * (1.0 + 1e-10)).passed
    assert report(bound).passed
    failed = report(bound * (1.0 + 1e-6))
    assert not failed.passed and failed.summary_line().startswith("[FAIL] check: ")


def test_validators_pass_across_models_and_utilities():
    models = (
        ("iid-gaussian", {"mu": 0.0, "sigma": 1.0}),
        ("iid-uniform", {"lo": 0.0, "hi": 1.0}),
        ("exchangeable-mixture", {"mu": 0.0, "between": 1.0, "within": 1.0}),
    )
    for model, params in models:
        cfg = McConfig(trials=20_000, seed=5, model=model, params=params)
        assert mc_validate_evalue(cfg, ALT, Log(), 5).passed
        assert mc_validate_coverage(cfg, ALT, NeymanPearson(0.2), 5, 0.2).passed
        assert mc_validate_posthoc(cfg, ALT, Log(), 5).passed


def test_posthoc_with_fixed_level_rule():
    cfg = McConfig(trials=20_000, seed=6, model="iid-gaussian", params={"mu": 0, "sigma": 1})
    fixed = lambda e: np.full_like(e, 0.25)
    report = mc_validate_posthoc(cfg, ALT, Log(), 5, selection_rule=fixed)
    assert report.passed
    # a rule may return one level for the whole block
    scalar = lambda e: 0.25
    assert mc_validate_posthoc(cfg, ALT, Log(), 5, selection_rule=scalar) == report
    alt = IidRatio(lambda z: np.exp(0.5 * z))
    fixed_risk, scalar_risk, as_if = (
        mc_validate_decision_risk(FINITE_CFG, PROBLEM, mode, alt, ClippedLog(0.1), 5, **kwargs)
        for mode, kwargs in (("post-hoc", {"selection_rule": fixed}),
                             ("post-hoc", {"selection_rule": scalar}),
                             ("as-if", {"alpha": 0.25})))
    assert scalar_risk == fixed_risk and fixed_risk.passed
    # as-if is post-hoc at the fixed level, with the statistic not divided by it
    assert fixed_risk.estimate == 4.0 * as_if.estimate


def test_level_rules_must_give_positive_levels():
    # NaN compares false with 0 as well as with 1/e, so a NaN level once
    # passed the check and the report's estimate read nan
    cfg = McConfig(trials=1000, seed=6, model="iid-gaussian", params={})
    alt = IidRatio(lambda z: np.exp(0.5 * z))
    for bad in (lambda e: np.full(e.shape, np.nan), lambda e: 0.0, lambda e: -np.ones_like(e)):
        with pytest.raises(ValueError, match="^selection rule produced a level that is not positive$"):
            mc_validate_posthoc(cfg, ALT, Log(), 5, selection_rule=bad)
        with pytest.raises(ValueError, match="^selection rule produced a level that is not positive$"):
            mc_validate_decision_risk(FINITE_CFG, PROBLEM, "post-hoc", alt, ClippedLog(0.1), 5,
                                      selection_rule=bad)


def test_level_rule_runs_on_each_block(monkeypatch):
    # one call per block, with that block's e-values in trial order: 77 rows
    # of 6 for the validator and 57 rows of 8 loss entries for decision risk
    monkeypatch.setattr(harness, "_BLOCK_ELEMENTS", 462)
    seen = []
    rule = lambda e: seen.append(e.copy()) or adversarial_level_rule(e)
    cfg = McConfig(trials=1000, seed=31, model="exchangeable-mixture", params={})
    report = mc_validate_posthoc(cfg, ALT, Power(0.5), 5, selection_rule=rule)
    assert [len(e) for e in seen] == [77] * 12 + [76]
    assert np.array_equal(np.concatenate(seen), evalues_for(sample_matrix(cfg, 6), ALT, Power(0.5)))
    assert report == mc_validate_posthoc(cfg, ALT, Power(0.5), 5)
    seen.clear()
    dcfg = McConfig(trials=1000, seed=31, model="iid-categorical",
                    params={"support": PROBLEM.outcomes, "probs": (0.4, 0.3, 0.2, 0.1)})
    alt, utility = IidRatio(lambda z: np.exp(0.5 * z)), BoundedLog(0.2)
    mc_validate_decision_risk(dcfg, PROBLEM, "post-hoc", alt, utility, 5, selection_rule=rule)
    assert [len(e) for e in seen] == [57] * 17 + [31]
    values, idx = sample_finite_matrix(dcfg, 6)
    ev = grid_evidence(values[:, :-1], PROBLEM.outcomes, alt.ratio, utility)
    assert np.array_equal(np.concatenate(seen), ev[np.arange(1000), idx[:, -1]])


def test_decision_risk_draws_the_trial_stream_once(monkeypatch):
    # post-hoc decides in the same pass that finds each trial's level
    draws = []
    blocks = harness._trial_blocks
    monkeypatch.setattr(harness, "_trial_blocks", lambda *a: draws.append(a) or blocks(*a))
    alt = IidRatio(lambda z: np.exp(0.5 * z))
    for mode, kwargs in (("as-if", {"alpha": 0.2}), ("weighted", {}), ("post-hoc", {})):
        draws.clear()
        assert mc_validate_decision_risk(FINITE_CFG, PROBLEM, mode, alt, ClippedLog(0.1), 5,
                                         **kwargs).passed
        assert len(draws) == 1, mode


def test_adversarial_level_excludes_its_own_realization():
    # 1/(1/e) rounds above e for about 6% of floats; at the level 1/e such a
    # realization was not excluded, and its stat counted 0 instead of 1/level
    rng = np.random.default_rng(8)
    e = np.concatenate([rng.uniform(0.0, 30.0, 50_000), np.exp(rng.uniform(-700.0, 700.0, 50_000)),
                        [0.0, 5e-324, 2.2250738585072014e-308, 1 / 3, 20.0, 1.7976931348623157e308]])
    level = adversarial_level_rule(e)
    with np.errstate(divide="ignore", over="ignore"):
        assert (e >= 1.0 / level).all()
        assert (1.0 / np.nextafter(level, 0.0) > e).all()  # and no smaller level does
    assert (level[e == 0.0] == math.inf).all()
    # so every trial is excluded at its level, and the stats average the e-values
    cfg = McConfig(trials=20_000, seed=77, model="exchangeable-mixture", params={})
    alt, utility = gaussian_scale_ratio(0.0, 1.0, 3.5), ClippedLog(0.1)
    report = mc_validate_posthoc(cfg, alt, utility, 20)
    mean_e = evalues_for(sample_matrix(cfg, 21), alt, utility).mean()
    assert report.estimate == pytest.approx(mean_e, rel=1e-12, abs=0.0)


def test_kernel_alternative_loops_per_trial():
    cfg = McConfig(trials=1000, seed=3, model="iid-gaussian", params={"mu": 0, "sigma": 1})
    data = sample_matrix(cfg, 4)
    kern = KernelAlternative(
        lambda z_n: IidRatio(lambda z, c=float(np.mean(z_n)): np.exp(0.5 * (z - c))))
    got = evalues_for(data, kern, Log())
    want = np.array([evalue_at(row, kern, Log()) for row in data])
    assert np.allclose(got, want, atol=1e-12)
    # the built-in kernels through the sorted-calibration core against the scalar loop
    for kern in (ar1_kernel(0.0, 0.5, 3.5), gaussian_composite_kernel(1.0, 3.5)):
        for utility in (Log(), NeymanPearson(0.1), BoundedLog(0.05), ClippedLog(0.1)):
            got = evalues_for(data, kern, utility)
            want = np.array([evalue_at(row, kern, utility) for row in data])
            if isinstance(utility, NeymanPearson):
                assert got.tolist() == want.tolist(), kern.name
            else:
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), (kern.name, utility)


_BUILT_IN_KERNELS = (ar1_kernel(0.0, 0.5, 3.5), gaussian_composite_kernel(1.0, 3.5))


def test_kernel_row_form_reports_equal_the_per_row_loop(monkeypatch):
    # the built-in kernels evaluate blocks through their row form; the same
    # builder without it resolves every trial, and every report must agree
    cfg = McConfig(trials=1000, seed=19, model="iid-gaussian", params={})
    runs = [lambda k: mc_validate_evalue(cfg, k, Log(), 4),
            lambda k: mc_validate_coverage(cfg, k, BoundedLog(0.05), 4, 0.1),
            lambda k: mc_validate_posthoc(cfg, k, ClippedLog(0.1), 4)]
    for budget in (harness._BLOCK_ELEMENTS, 1):
        monkeypatch.setattr(harness, "_BLOCK_ELEMENTS", budget)
        for kern in _BUILT_IN_KERNELS:
            assert kern.row_ratio is not None
            loop = KernelAlternative(kern.builder, kern.name)
            for validate in runs:
                assert validate(kern) == validate(loop), (budget, kern.name)


def test_kernel_row_form_errors_equal_the_per_row_loop():
    # inf and NaN in a calibration or a final slot: the first bad ratio in row
    # order is named with the same text, block at once or row by row
    clean = np.array([[0.3, -1.2, 0.8, 1.1], [2.0, 0.5, -0.5, 0.0]])
    cases = []
    for row, col, value in [(1, 2, np.inf), (1, 0, -np.inf), (0, 3, np.inf),
                            (1, 1, np.nan), (0, 3, np.nan)]:
        block = clean.copy()
        block[row, col] = value
        cases.append(block)
    both = clean.copy()
    both[1, :2] = (np.inf, -np.inf)  # the calibration mean is NaN
    cases.append(both)
    with np.errstate(invalid="ignore"):
        for kern in _BUILT_IN_KERNELS:
            loop = KernelAlternative(kern.builder, kern.name)
            for block in cases:
                got = _first_error(lambda: evalues_for(block, kern, Log()))
                assert got is not None and got[0] is ValueError and "ratio" in got[1]
                assert got == _first_error(lambda: evalues_for(block, loop, Log())), block
            # a tuple needs a calibration slot before its final one
            with pytest.raises(ValueError, match="at least one value"):
                evalues_for(np.array([[1.0], [2.0]]), kern, Log())


def test_vector_scalar_np_agreement_at_integer_boundaries():
    # alpha * m landing exactly on an attained tail count is the sharpest
    # consistency test between the row-wise and per-tuple threshold rules
    cases = [
        ((0.4, 0.8, 1.2, 1.6, 2.0), 0.2),   # alpha*m = 1 at distinct values
        ((0.4, 0.8, 1.2, 1.6, 2.0), 0.4),   # alpha*m = 2
        ((1.0, 1.0, 2.0, 2.0), 0.5),        # ties straddling alpha*m = 2
        ((1.0, 2.0, 3.0), 1 / 3),
        ((2.0, 2.0, 2.0), 0.5),
    ]
    for vals, alpha in cases:
        for last in sorted(set(vals)):
            data_row = tuple(v for v in vals if v != last) + tuple(
                v for v in vals if v == last)
            ratio = lambda z: z
            vec = evalues_for(np.array([data_row]), IidRatio(ratio), NeymanPearson(alpha))[0]
            scal = evalue_at(data_row, IidRatio(ratio), NeymanPearson(alpha))
            assert vec == pytest.approx(scal, abs=1e-12), (vals, alpha, last)


def test_vector_rows_match_scalar_with_ties_and_zeros():
    rng = np.random.default_rng(15)
    data = np.round(rng.normal(0.5, 1.0, size=(200, 5)), 1)
    ratio = lambda z: np.maximum(z, 0.0)  # exact zeros for z <= 0
    rows_ok = np.asarray([np.maximum(row, 0).sum() > 0 for row in data])
    data = data[rows_ok]
    extreme = data.copy()  # the scale ratio is about 1e179 at +-30
    extreme[::3, -1], extreme[1::3, 0], extreme[2::5, 2] = 30.0, -30.0, 30.0
    cases = [(data, IidRatio(ratio)), (extreme, gaussian_scale_ratio(0.0, 1.0, 3.5)),
             (data, ar1_kernel(0.0, 0.5, 3.5)), (data, gaussian_composite_kernel(1.0, 3.5))]
    utilities = [Log(), Power(-1.0), Power(0.8), Power(0.99), NeymanPearson(0.3),
                 BoundedLog(0.1), BoundedLog(1 / data.shape[1]), ClippedLog(0.4),
                 Dampened(0.3, BoundedLog(0.2))]
    for rows, alt in cases:
        for utility in utilities:
            vec = evalues_for(rows, alt, utility)
            scal = np.array([evalue_at(row, alt, utility) for row in rows])
            assert np.allclose(vec, scal, atol=1e-9), (alt.name, utility_id(utility))


def _first_error(run):
    try:
        run()
    except Exception as exc:  # noqa: BLE001 - the test compares whatever is raised
        return type(exc), str(exc)
    return None


def _whole_and_one_row_blocks(run):
    """The error of ``run`` with the trials in one block, which must equal
    the error with blocks of one row."""
    whole = _first_error(run)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_BLOCK_ELEMENTS", 1)
        assert _first_error(run) == whole
    return whole


def _crafted_ratio(zeros=(), infs=()):
    # 1 everywhere but at the listed sample values; continuous draws never
    # repeat, so each value picks out one entry of the trial matrix
    zeros, infs = np.asarray(zeros, dtype=float), np.asarray(infs, dtype=float)
    return IidRatio(lambda z: np.where(np.isin(z, infs), np.inf,
                                       np.where(np.isin(z, zeros), 0.0, 1.0)))


@pytest.mark.filterwarnings("ignore:overflow encountered in exp")  # the ratio overflows by design
def test_mc_path_error_parity(capsys, monkeypatch):
    # a ratio infinite on a sample is named at its first entry in row order,
    # whether the trials form one block or blocks of one row
    for budget in (harness._BLOCK_ELEMENTS, 1):
        monkeypatch.setattr(harness, "_BLOCK_ELEMENTS", budget)
        code = main(["validate", "--check", "evalue", "--model", "iid-gaussian",
                     "--ratio", "gaussian-scale:0:0.01:1", "--utility", "log",
                     "--n", "5", "--trials", "1000", "--seed", "7"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: ratio is infinite at z=-1.7496944402112695; cap the ratio (infinite "
            "evidence is expressed through the utility, not the alternative)\n")
    monkeypatch.undo()
    # one positive slot of 8 capped at 2 reaches a mean of 1/4 at most
    identity = IidRatio(lambda z: z)
    infeasible = [0.0] * 7 + [1.0]
    with pytest.raises(NormalizationFailureError):
        evalues_for(np.array([infeasible]), identity, BoundedLog(0.5))
    # an all-zero tuple is reported before an infeasible one
    with pytest.raises(AllZeroRatioError):
        evalues_for(np.array([infeasible, [0.0] * 8]), identity, BoundedLog(0.5))
    # a tuple needs a calibration slot before its final one, as on a grid
    with pytest.raises(ValueError, match="at least one value"):
        evalues_for(np.array([[1.0], [2.0]]), identity, Log())

    # Across blocks of one row. Rows of 8 under bounded-log:0.5 (cap 2): k of
    # 8 positive slots reach a mean of k/4 at most, so 1 <= k <= 3 is
    # infeasible with residual 1 - k/4.
    cfg = McConfig(trials=1000, seed=7, model="iid-gaussian", params={})
    data = sample_matrix(cfg, 8)
    two_positive = data[0, :6]  # row 0, block 1: residual 0.5
    # a bad ratio in block 3 raises at once, before block 1's infeasible row
    alt = _crafted_ratio(zeros=two_positive, infs=[data[2, 3]])
    monkeypatch.setattr(cli, "parse_ratio", lambda spec: alt)
    for budget in (10**9, 1):
        monkeypatch.setattr(harness, "_BLOCK_ELEMENTS", budget)
        assert main(["validate", "--check", "evalue", "--model", "iid-gaussian", "--utility",
                     "bounded-log:0.5", "--n", "7", "--trials", "1000", "--seed", "7"]) == 2
        assert capsys.readouterr().err == (
            f"error: ratio is infinite at z={float(data[2, 3])!r}; cap the ratio (infinite "
            "evidence is expressed through the utility, not the alternative)\n")
    monkeypatch.undo()
    # an all-zero row in block 2 outranks block 1's infeasible one
    alt = _crafted_ratio(zeros=np.concatenate([two_positive, data[1]]))
    assert _whole_and_one_row_blocks(
        lambda: mc_validate_evalue(cfg, alt, BoundedLog(0.5), 7)) == (
        AllZeroRatioError, "the ratio vanishes on an entire sampled tuple")
    # two infeasible rows: the message carries the larger residual, from block 3
    alt = _crafted_ratio(zeros=np.concatenate([two_positive, data[2, :7]]))
    assert _whole_and_one_row_blocks(
        lambda: mc_validate_evalue(cfg, alt, BoundedLog(0.5), 7)) == (
        NormalizationFailureError, "orbit mean misses 1 by 0.75; the shaped e-value is infeasible")


def test_decision_risk_error_parity_across_blocks():
    # Support (0, 1, 2) and a ratio table over it; n = 5, so tuples of 6. With
    # a ratio of 0 or 1 per value, bounded-log:alpha fails a tuple of k
    # positive slots when k < 6 * alpha: all-zero at k = 0, infeasible with
    # residual 1 - k / (6 * alpha) otherwise. Column g adds the ratio at
    # outcome g to the calibration's count.
    problem = DecisionProblem(("a", "b"), (0.0, 1.0, 2.0), ((1.0, 1.0, 1.0), (0.2, 0.5, 3.0)))

    def run(seed, probs, table, utility, mode="weighted"):
        cfg = McConfig(trials=1000, seed=seed, model="iid-categorical",
                       params={"support": problem.outcomes, "probs": probs})
        alt = IidRatio(lambda z: np.asarray(table)[np.asarray(z, dtype=int)])
        calib = sample_finite_matrix(cfg, 6)[0][:, :-1]
        return calib, lambda: mc_validate_decision_risk(cfg, problem, mode, alt, utility, 5)

    # the lowest failing column wins over an earlier block's higher one:
    # 6 * 0.45 = 2.7, so a calibration with two 0s fails column 1 only (row 0,
    # residual 0.26) and one without 0s fails column 0 (k = 1, residual 0.63)
    calib, validate = run(3, (0.5, 0.25, 0.25), (1.0, 0.0, 0.0), BoundedLog(0.45))
    zeros = (calib == 0.0).sum(axis=1)
    assert zeros[0] == 2 and np.argmax(zeros <= 1) > 0 and (zeros == 0).any()
    assert _whole_and_one_row_blocks(validate) == (
        NormalizationFailureError, "orbit mean misses 1 by 0.63; the shaped e-value is infeasible")
    # in the lowest column, a later all-zero tuple outranks an earlier
    # infeasible one, and both outrank the bad grid ratio at outcome 1, which
    # is never drawn: 6 * 0.3 = 1.8, column 0 counts the calibration's 2s
    calib, validate = run(4, (0.5, 0.0, 0.5), (0.0, np.inf, 1.0), BoundedLog(0.3))
    twos = (calib == 2.0).sum(axis=1)
    assert twos[0] == 1 and np.argmax(twos == 0) > 0
    assert _whole_and_one_row_blocks(validate) == (
        AllZeroRatioError, "the ratio vanishes on an entire sampled tuple")
    # with no failing tuple, the bad grid ratio is raised after the last
    # block, before any decision is formed from the evidence short of outcome 1
    _, validate = run(4, (0.5, 0.0, 0.5), (1.0, np.inf, 1.0), Log(), mode="post-hoc")
    assert _whole_and_one_row_blocks(validate) == (ValueError, (
        "ratio is infinite at z=1.0; cap the ratio (infinite evidence is expressed "
        "through the utility, not the alternative)"))
    # a bad calibration ratio in a later block raises before row 0's failure
    calib, validate = run(4, (0.49, 0.02, 0.49), (0.0, np.inf, 1.0), BoundedLog(0.3))
    assert (calib[0] == 2.0).sum() <= 1 and np.argmax((calib == 1.0).any(axis=1)) > 0
    assert _whole_and_one_row_blocks(validate) == (ValueError, (
        "ratio is infinite at z=1.0; cap the ratio (infinite evidence is expressed "
        "through the utility, not the alternative)"))


# -- decision-risk validators --------------------------------------------------

PROBLEM = DecisionProblem(
    ("conservative", "aggressive"),
    (0.0, 1.0, 2.0, 3.0),
    ((1.0, 1.0, 1.0, 1.0), (0.2, 0.5, 1.5, 3.0)),
)
FINITE_CFG = McConfig(
    trials=8000, seed=21, model="iid-categorical",
    params={"support": (0.0, 1.0, 2.0, 3.0), "probs": (0.4, 0.3, 0.2, 0.1)},
)


def test_decision_validators_pass():
    alt = IidRatio(lambda z: np.exp(0.5 * z))
    assert mc_validate_decision_risk(FINITE_CFG, PROBLEM, "as-if", alt, ClippedLog(0.1), 5, alpha=0.2).passed
    assert mc_validate_decision_risk(FINITE_CFG, PROBLEM, "weighted", alt, ClippedLog(0.1), 5).passed
    assert mc_validate_decision_risk(FINITE_CFG, PROBLEM, "post-hoc", alt, ClippedLog(0.1), 5).passed


def test_decision_risk_decides_as_the_public_rules(monkeypatch):
    # every trial's decision and statistic equal what the public rules give on
    # that trial's fuzzy set; post-hoc picks its level from a fixed ladder
    cfg = McConfig(trials=1000, seed=41, model="categorical-mixture", params={
        "support": PROBLEM.outcomes,
        "component_probs": ((0.7, 0.1, 0.1, 0.1), (0.1, 0.2, 0.3, 0.4))})
    alt, utility, n, alpha = IidRatio(lambda z: np.exp(0.5 * z)), ClippedLog(0.1), 5, 0.2
    ladder = (0.05, 0.1, 0.2, 0.5, 1.0)
    rule = lambda e: np.array([next((a for a in ladder if x >= 1.0 / a), 1.0) for x in e])
    values, idx = sample_finite_matrix(cfg, n + 1)
    grid = PlugInGrid.from_points(PROBLEM.outcomes)
    sets = [FuzzyConfidenceSet(grid, tuple(row), ())
            for row in grid_evidence(values[:, :-1], PROBLEM.outcomes, alt.ratio, utility)]
    truth, loss = idx[:, -1], PROBLEM.loss_matrix

    def exceeds(cert, z):
        return 1.0 if cert is None else float(loss[cert.decision_index, z] > cert.risk_bound)

    certs = {"as-if": [], "weighted": [], "post-hoc": []}
    stats = {"as-if": [], "weighted": [], "post-hoc": []}
    for fset, z in zip(sets, truth):
        binary = sublevel_set(fset, alpha)
        cert = None if binary.is_empty() else as_if_decision(PROBLEM, binary)
        certs["as-if"].append(cert)
        stats["as-if"].append(exceeds(cert, z))
        cert = weighted_decision(PROBLEM, fset)
        certs["weighted"].append(cert)
        r = cert.risk_bound
        stats["weighted"].append(loss[cert.decision_index, z] / r if r > 0 else 0.0)
        level = rule([fset.evidence[z]])[0]
        cert = post_hoc_decisions(PROBLEM, fset, ladder)[ladder.index(level)].decision
        certs["post-hoc"].append(cert)
        stats["post-hoc"].append(exceeds(cert, z) / level)

    minimax = decisions._minimax
    for mode, kwargs in (("as-if", {"alpha": alpha}), ("weighted", {}),
                         ("post-hoc", {"selection_rule": rule})):
        seen = []
        monkeypatch.setattr(decisions, "_minimax", lambda *a: seen.append(minimax(*a)) or seen[-1])
        report = mc_validate_decision_risk(cfg, PROBLEM, mode, alt, utility, n, **kwargs)
        d = np.concatenate([s[0] for s in seen])
        r = np.concatenate([s[1] for s in seen])
        assert len(d) == cfg.trials
        for t, cert in enumerate(certs[mode]):
            if cert is not None:
                assert (d[t], r[t]) == (cert.decision_index, cert.risk_bound), (mode, t)
        assert report.estimate == np.asarray(stats[mode]).mean(), mode
    assert None in certs["post-hoc"]  # empty rungs count as exceedances


def test_np_weighted_decision_risk_is_all_infinite():
    # np evidence is 0 inside its set, and every loss of PROBLEM is positive
    alt = IidRatio(lambda z: np.exp(0.5 * z))
    with pytest.raises(AllInfiniteRiskError):
        mc_validate_decision_risk(FINITE_CFG, PROBLEM, "weighted", alt, NeymanPearson(0.2), 5)


def test_decision_validator_guards():
    alt = IidRatio(lambda z: np.exp(0.5 * z))
    bad_cfg = McConfig(trials=2000, seed=1, model="iid-gaussian", params={})
    with pytest.raises(ValueError):
        mc_validate_decision_risk(bad_cfg, PROBLEM, "weighted", alt, Log(), 5)
    mismatched = McConfig(trials=2000, seed=1, model="iid-categorical",
                          params={"support": (0.0, 1.0), "probs": (0.5, 0.5)})
    with pytest.raises(ValueError):
        mc_validate_decision_risk(mismatched, PROBLEM, "weighted", alt, Log(), 5)
    with pytest.raises(ValueError):
        mc_validate_decision_risk(FINITE_CFG, PROBLEM, "as-if", alt, Log(), 5)  # alpha missing


# -- classical conformal cross-check -----------------------------------------


def test_conformal_pvalue_counts_ties():
    assert conformal_pvalue((1.0, 2.0, 3.0)) == pytest.approx(1 / 3)
    assert conformal_pvalue((3.0, 2.0, 1.0)) == pytest.approx(1.0)
    assert conformal_pvalue((2.0, 2.0, 2.0)) == pytest.approx(1.0)


def test_np_sublevel_equals_classical_conformal_exhaustive():
    # every tuple over a small alphabet, several alphas, score == the lr scale
    import itertools

    values = (0.0, 1.0, 2.0)
    ratio = lambda z: z + 0.5
    for m in (3, 4, 5):
        for alpha in (0.2, 1 / 3, 0.5, 0.77):
            utility = NeymanPearson(alpha)
            for calib in itertools.product(values, repeat=m - 1):
                classical = classical_conformal_membership(calib, values, ratio, alpha)
                for z, want in zip(values, classical):
                    e = evalue_at(calib + (z,), IidRatio(ratio), utility)
                    assert (e < 1 / alpha) == want, (calib, z, alpha)


def test_np_sublevel_equals_conformal_for_any_monotone_score():
    # the sublevel set must agree with the classical set built from any
    # strictly increasing transform of the likelihood-ratio scale
    import itertools

    values = (0.0, 1.0, 2.0)
    base = lambda z: z + 0.5
    transforms = (lambda s: s, lambda s: 3 * s + 1, lambda s: s ** 3, math.exp)
    for m in (3, 4, 5, 6):
        for calib in itertools.product(values, repeat=m - 1):
            for alpha in (0.25, 0.6):
                utility = NeymanPearson(alpha)
                np_members = [
                    fuzz_e < 1 / alpha
                    for fuzz_e in (
                        evalue_at(calib + (z,), IidRatio(base), utility) for z in values
                    )
                ]
                for t in transforms:
                    classical = classical_conformal_membership(
                        calib, values, lambda z, t=t: t(base(z)), alpha)
                    assert classical == np_members, (m, calib, alpha)
