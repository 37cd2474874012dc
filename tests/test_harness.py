import math

import numpy as np
import pytest

from fuzzyconf.alternatives import (
    IidRatio, LikelihoodRatioProfile, ar1_kernel, conditional_lr_iid, gaussian_composite_kernel,
    kernel_alternative, lr_matrix,
)
from fuzzyconf.decisions import DecisionProblem
from fuzzyconf.errors import ZeroDensityError
from fuzzyconf.evalues import (
    BoundedLog, ClippedLog, Dampened, Log, NeymanPearson, Power,
    evalue_at, evalue_rows, optimal_evalue, utility_id,
)
from fuzzyconf.harness import (
    McConfig,
    brute_force_conditional_lr,
    classical_conformal_membership,
    conformal_pvalue,
    evalues_for,
    expected_utility,
    mc_validate_coverage,
    mc_validate_decision_risk,
    mc_validate_evalue,
    mc_validate_posthoc,
    numerical_utility_oracle,
    sample_finite_matrix,
    sample_matrix,
)

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


def test_kernel_alternative_loops_per_trial():
    cfg = McConfig(trials=1000, seed=3, model="iid-gaussian", params={"mu": 0, "sigma": 1})
    data = sample_matrix(cfg, 4)
    kern = kernel_alternative(
        lambda z_n: IidRatio(lambda z, c=float(np.mean(z_n)): np.exp(0.5 * (z - c))))
    got = evalues_for(data, kern, Log())
    want = np.array([evalue_at(row, kern, Log()) for row in data])
    assert np.allclose(got, want, atol=1e-12)
    # the built-in kernels through the row engine against the scalar loop
    for kern in (ar1_kernel(0.0, 0.5, 3.5), gaussian_composite_kernel(1.0, 3.5)):
        for utility in (Log(), NeymanPearson(0.1), BoundedLog(0.05), ClippedLog(0.1)):
            got = evalues_for(data, kern, utility)
            want = np.array([evalue_at(row, kern, utility) for row in data])
            if isinstance(utility, NeymanPearson):
                assert got.tolist() == want.tolist(), kern.name
            else:
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), (kern.name, utility)


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
            vec = evalue_rows(lr_matrix(np.array([data_row]), ratio), NeymanPearson(alpha))[0]
            scal = evalue_at(data_row, IidRatio(ratio), NeymanPearson(alpha))
            assert vec == pytest.approx(scal, abs=1e-12), (vals, alpha, last)


def test_vector_rows_match_scalar_with_ties_and_zeros():
    rng = np.random.default_rng(15)
    data = np.round(rng.normal(0.5, 1.0, size=(200, 5)), 1)
    ratio = lambda z: np.maximum(z, 0.0)  # exact zeros for z <= 0
    rows_ok = np.asarray([np.maximum(row, 0).sum() > 0 for row in data])
    data = data[rows_ok]
    alt = IidRatio(ratio)
    utilities = [Log(), Power(-1.0), Power(0.8), NeymanPearson(0.3),
                 BoundedLog(0.1), ClippedLog(0.4), Dampened(0.3, BoundedLog(0.2))]
    lrm = lr_matrix(data, ratio)
    for utility in utilities:
        vec = evalue_rows(lrm, utility)
        scal = np.array([evalue_at(row, alt, utility) for row in data])
        assert np.allclose(vec, scal, atol=1e-9), utility_id(utility)


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
