import math

import numpy as np
import pytest
from scipy.integrate import quad

from fuzzyconf.errors import DomainError, NormalizationFailureError
from fuzzyconf.gaussian import (
    ar1_interval,
    bounded_log_boost,
    composite_interval,
    gaussian_bounded_log_fuzzy,
    gaussian_composite_bounded_log_fuzzy,
    gaussian_composite_log_fuzzy,
    gaussian_composite_np_evalue,
    gaussian_log_fuzzy,
    gaussian_np_evalue,
    simple_interval,
    std_normal_quantile,
)

# frozen from a 40-digit arbitrary-precision evaluation of sqrt(2)*erfinv(2p-1)
QUANTILE_ORACLE = {
    0.975: 1.959963984540054235525,
    0.995: 2.575829303548900760979,
    0.9: 1.281551565544600466965,
    1e-12: -7.03448382530113192981,
    0.3: -0.5244005127080407840383,
    0.9999: 3.719016485455680564394,
}


def _phi(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)


def _Phi(x):
    return 0.5 * math.erfc(-x / math.sqrt(2))


def test_quantile_against_high_precision_oracle():
    assert std_normal_quantile(0.5) == 0.0
    for p, want in QUANTILE_ORACLE.items():
        assert std_normal_quantile(p) == pytest.approx(want, abs=1e-12)


def test_quantile_dense_sweep():
    # round trip through the erfc-based CDF stays below the 1e-10 target
    for p in np.linspace(1e-6, 1 - 1e-6, 4001):
        x = std_normal_quantile(float(p))
        assert abs(_Phi(x) - p) <= 1e-12 * max(1.0, abs(x))


def test_quantile_domain():
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(DomainError):
            std_normal_quantile(bad)


def test_simple_interval():
    lo, hi = simple_interval(0.0, 1.0, 0.05)
    assert hi == pytest.approx(1.959963984540054, abs=1e-10)
    assert lo == -hi
    lo2, hi2 = simple_interval(0.0, 2.0, 0.05)
    assert hi2 == pytest.approx(2 * hi, rel=1e-12)
    lo3, hi3 = simple_interval(5.0, 1.0, 0.05)
    assert (lo3, hi3) == (pytest.approx(5 + lo), pytest.approx(5 + hi))


def test_composite_interval():
    c = std_normal_quantile(0.975)
    lo, hi = composite_interval(1.44, 1.0, 3, 0.05)
    half = c * math.sqrt(4.0 / 3.0)
    assert (lo, hi) == (pytest.approx(1.44 - half, abs=1e-12), pytest.approx(1.44 + half, abs=1e-12))
    lo_inf, hi_inf = composite_interval(0.3, 1.0, 10**9, 0.05)
    lo_s, hi_s = simple_interval(0.3, 1.0, 0.05)
    assert lo_inf == pytest.approx(lo_s, abs=1e-6) and hi_inf == pytest.approx(hi_s, abs=1e-6)
    lo1, hi1 = composite_interval(0.0, 1.0, 1, 0.05)
    assert hi1 == pytest.approx(c * math.sqrt(2.0), abs=1e-12)


def test_ar1_interval():
    assert ar1_interval(0.7, 0.0, 123.0, 0.1) == pytest.approx(simple_interval(0.7, 1.0, 0.1))
    lo, hi = ar1_interval(0.0, 0.5, 2.0, 0.05)
    assert (lo + hi) / 2 == pytest.approx(1.0, abs=1e-12)
    lo2, hi2 = ar1_interval(3.0, 1 - 1e-9, 3.0, 0.05)
    assert (lo2 + hi2) / 2 == pytest.approx(3.0, abs=1e-9)


def test_gaussian_log_fuzzy_values():
    assert gaussian_log_fuzzy(0.0, 0.0, 1.0, 3.5) == pytest.approx(1 / 3.5, rel=1e-12)
    assert gaussian_log_fuzzy(2.0, 2.0, 0.5, 4.0) == pytest.approx(0.125, rel=1e-12)
    assert gaussian_log_fuzzy(6.0, 0.0, 1.0, 3.5) > gaussian_log_fuzzy(5.0, 0.0, 1.0, 3.5) > 1.0
    with pytest.raises(ValueError):
        gaussian_log_fuzzy(0.0, 0.0, 1.0, 0.9)


def test_gaussian_log_fuzzy_is_density_ratio():
    for z in (-3.0, -0.5, 0.0, 1.7, 4.0):
        num = _phi((z - 0.2) / 3.5) / 3.5
        den = _phi((z - 0.2) / 1.0)
        assert gaussian_log_fuzzy(z, 0.2, 1.0, 3.5) == pytest.approx(num / den, rel=1e-12)


def test_composite_log_fuzzy():
    assert gaussian_composite_log_fuzzy(1.44, 1.44, 1.0, 3.5, 3) == pytest.approx(1 / 3.5, rel=1e-12)
    big_n = gaussian_composite_log_fuzzy(2.0, 0.5, 1.0, 3.5, 10**9)
    assert big_n == pytest.approx(gaussian_log_fuzzy(2.0, 0.5, 1.0, 3.5), rel=1e-6)


def _core_null_mean(fn, mu, sigma, halfwidth):
    # evidence values overflow the float range deep in the tails, so the
    # integral is split: quadrature on the core, an analytic bound added by
    # each caller for the remainder
    val, err = quad(lambda z: fn(z) * _phi((z - mu) / sigma) / sigma,
                    mu - halfwidth, mu + halfwidth, limit=400)
    assert err < 1e-7
    return val


def test_log_fuzzy_null_mean_one():
    # core out to 12 null sds; the exact remainder is the scale-law tail mass
    core = _core_null_mean(lambda z: gaussian_log_fuzzy(z, 0.0, 1.0, 3.5), 0.0, 1.0, 12.0)
    tail = 2.0 * (1.0 - _Phi(12.0 / 3.5))
    assert core + tail == pytest.approx(1.0, abs=1e-6)


def test_composite_log_fuzzy_null_mean_one():
    # under the true model z - zbar ~ N(0, sigma^2 (1 + 1/n))
    s = math.sqrt(1 + 1 / 3)
    core = _core_null_mean(
        lambda z: gaussian_composite_log_fuzzy(z, 1.44, 1.0, 3.5, 3), 1.44, s, 12.0 * s)
    tail = 2.0 * (1.0 - _Phi(12.0 / 3.5))
    assert core + tail == pytest.approx(1.0, abs=1e-6)


def test_bounded_log_fuzzy_null_mean_one():
    core = _core_null_mean(
        lambda z: gaussian_bounded_log_fuzzy(z, 0.0, 1.0, 3.5, 0.05), 0.0, 1.0, 12.0)
    tail = 2.0 * 20.0 * (1.0 - _Phi(12.0))  # capped evidence times the null tail mass
    assert core + tail == pytest.approx(1.0, abs=1e-6)


def test_bounded_boost_closed_form_cross_check():
    # the same closed form the solver uses, written with normal CDFs instead
    # of erf/erfc: E[min(b*LR, cap)] = b*(2*Phi(r/tau) - 1) + 2*cap*(1 - Phi(r/sigma))
    mu, sigma, tau, alpha = 0.0, 1.0, 3.5, 0.05
    cap = 1 / alpha
    b = bounded_log_boost(mu, sigma, tau, alpha)
    r = math.sqrt(2 * sigma**2 * tau**2 * math.log(cap * tau / (b * sigma)) / (tau**2 - sigma**2))
    closed = b * (2 * _Phi(r / tau) - 1) + 2 * cap * (1 - _Phi(r / sigma))
    assert closed == pytest.approx(1.0, abs=1e-6)
    assert b > 1.0


@pytest.mark.parametrize("alpha", [0.05, 1e-4, 1e-8, 1e-12])
def test_bounded_boost_null_mean_one_at_tiny_alpha(alpha):
    # quadrature of b*LR*phi on the uncapped core, the capped tail in erfc so
    # that a large cap times a tiny tail mass keeps its relative accuracy
    mu, sigma, tau = 0.0, 1.0, 3.5
    cap = 1 / alpha
    b = bounded_log_boost(mu, sigma, tau, alpha)
    r = math.sqrt(2 * sigma**2 * tau**2 * math.log(cap * tau / (b * sigma)) / (tau**2 - sigma**2))
    core, err = quad(lambda z: b * gaussian_log_fuzzy(z, mu, sigma, tau) * _phi((z - mu) / sigma) / sigma,
                     mu - r, mu + r, epsabs=1e-13, epsrel=1e-13, limit=200)
    assert err < 1e-11
    tail = cap * math.erfc(r / (sigma * math.sqrt(2)))
    assert core + tail == pytest.approx(1.0, abs=1e-9)


def test_bounded_boost_tends_to_one_as_alpha_vanishes():
    # the cap binds less and less, so the boost decays toward 1
    boosts = [bounded_log_boost(0.0, 1.0, 3.5, a) for a in (0.05, 1e-4, 1e-8, 1e-12)]
    assert all(b >= 1.0 for b in boosts)
    assert all(b1 > b2 for b1, b2 in zip(boosts, boosts[1:]))
    assert boosts[-1] == pytest.approx(1.0, abs=0.03)


def test_bounded_above_unbounded_at_center_below_in_tails():
    args = (0.0, 1.0, 3.5)
    for z in (0.0, 0.5, 1.0):
        assert gaussian_bounded_log_fuzzy(z, *args, 0.05) > gaussian_log_fuzzy(z, *args)
    for z in (4.0, 5.0, 6.0):
        assert gaussian_bounded_log_fuzzy(z, *args, 0.05) == 20.0
        assert gaussian_log_fuzzy(z, *args) > 20.0


@pytest.mark.parametrize("sigma, tau", [(1e-200, 1e-199), (1.0, 1e200), (1e160, 1e161)])
def test_scales_out_of_float_range_are_domain_errors(sigma, tau):
    # sigma^2 tau^2 underflows to 0, or tau^2 overflows: the closed forms
    # would divide by zero or take a NaN null mean
    for call in (lambda: gaussian_log_fuzzy(0.0, 0.0, sigma, tau),
                 lambda: bounded_log_boost(0.0, sigma, tau, 0.05),
                 lambda: gaussian_bounded_log_fuzzy(0.0, 0.0, sigma, tau, 0.05)):
        with pytest.raises(DomainError, match="out of range"):
            call()


def test_boost_with_nan_null_mean_fails():
    # 1/alpha overflows to inf, so the capped tail is inf * 0 = NaN; every
    # check on the null mean must fail on NaN rather than return a constant
    with pytest.raises(NormalizationFailureError, match="nan"):
        bounded_log_boost(0.0, 1.0, 3.5, 1e-320)


def test_composite_bounded_null_mean_one():
    s = math.sqrt(1 + 1 / 3)
    core = _core_null_mean(
        lambda z: gaussian_composite_bounded_log_fuzzy(z, 1.44, 1.0, 3.5, 3, 0.05),
        1.44, s, 12.0 * s)
    tail = 2.0 * 20.0 * (1.0 - _Phi(12.0))
    assert core + tail == pytest.approx(1.0, abs=1e-6)


def test_np_evalue_step():
    assert gaussian_np_evalue(0.0, 0.0, 1.0, 0.05) == 0.0
    c = std_normal_quantile(0.975)
    assert gaussian_np_evalue(c + 1e-9, 0.0, 1.0, 0.05) == 20.0
    assert gaussian_np_evalue(c - 1e-9, 0.0, 1.0, 0.05) == 0.0


def test_np_sublevel_equals_simple_interval():
    lo, hi = simple_interval(0.3, 1.7, 0.05)
    for z, inside in ((lo - 1e-12, False), (lo + 1e-12, True), (hi - 1e-12, True), (hi + 1e-12, False)):
        e = gaussian_np_evalue(z, 0.3, 1.7, 0.05)
        assert (e < 1 / 0.05) == inside


def test_composite_np_matches_composite_interval():
    lo, hi = composite_interval(1.44, 1.0, 3, 0.05)
    for z, inside in ((lo - 1e-9, False), (lo + 1e-9, True), (hi - 1e-9, True), (hi + 1e-9, False)):
        e = gaussian_composite_np_evalue(z, 1.44, 1.0, 3, 0.05)
        assert (e < 20.0) == inside


def test_interval_coverage_mc():
    rng = np.random.default_rng(314)
    trials = 40000

    lo, hi = simple_interval(0.0, 1.0, 0.1)
    z = rng.normal(0.0, 1.0, trials)
    freq = np.mean((z >= lo) & (z <= hi))
    se = math.sqrt(0.1 * 0.9 / trials)
    assert abs(freq - 0.9) <= 3 * se

    n = 4
    data = rng.normal(0.5, 1.0, (trials, n + 1))
    zbar = data[:, :n].mean(axis=1)
    c = std_normal_quantile(0.975)
    half = c * math.sqrt(1 + 1 / n)
    covered = np.abs(data[:, n] - zbar) <= half
    se = math.sqrt(0.05 * 0.95 / trials)
    assert abs(covered.mean() - 0.95) <= 3 * se

    # exact under the unit-innovation autoregression (one step ahead is N(mu_n, 1))
    rho = 0.6
    eps = rng.normal(0.0, 1.0, (trials, 2))
    z_n = eps[:, 0]
    z_next = rho * z_n + eps[:, 1]
    los, his = np.empty(trials), np.empty(trials)
    for i in range(trials):
        los[i], his[i] = ar1_interval(0.0, rho, float(z_n[i]), 0.1)
    covered = (z_next >= los) & (z_next <= his)
    se = math.sqrt(0.1 * 0.9 / trials)
    assert abs(covered.mean() - 0.9) <= 3 * se

    # under the stationary unit-marginal autoregression the innovation sd is
    # sqrt(1 - rho^2) < 1, so the same interval over-covers
    z_next_stat = rho * z_n + math.sqrt(1 - rho * rho) * eps[:, 1]
    covered_stat = (z_next_stat >= los) & (z_next_stat <= his)
    assert covered_stat.mean() >= 0.9 - 3 * se


def test_gaussian_params_validation():
    simple_interval(0.0, 1.0, 0.05)
    gaussian_log_fuzzy(0.0, 0.0, 1.0, 3.5)
    composite_interval(0.0, 1.0, 3, 0.05)
    ar1_interval(0.0, 0.5, 0.0, 0.05)
    with pytest.raises(ValueError):
        simple_interval(0.0, 0.0, 0.05)
    with pytest.raises(ValueError):
        simple_interval(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        gaussian_log_fuzzy(0.0, 0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        gaussian_log_fuzzy(0.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        composite_interval(0.0, 1.0, 0, 0.05)
    with pytest.raises(ValueError):
        ar1_interval(0.0, 1.0, 0.0, 0.05)


_LOCATED_CALLS = [
    ("simple-mu", "mu", lambda v: simple_interval(v, 1.0, 0.05)),
    ("simple-sigma", "sigma", lambda v: simple_interval(0.0, v, 0.05)),
    ("composite-zbar", "zbar", lambda v: composite_interval(v, 1.0, 3, 0.05)),
    ("composite-sigma", "sigma", lambda v: composite_interval(0.0, v, 3, 0.05)),
    ("ar1-mu", "mu", lambda v: ar1_interval(v, 0.5, 0.0, 0.05)),
    ("ar1-z_last", "z_last", lambda v: ar1_interval(0.0, 0.5, v, 0.05)),
    ("log-mu", "mu", lambda v: gaussian_log_fuzzy(0.0, v, 1.0, 3.5)),
    ("log-composite-zbar", "zbar", lambda v: gaussian_composite_log_fuzzy(0.0, v, 1.0, 3.5, 3)),
    ("bounded-log-mu", "mu", lambda v: gaussian_bounded_log_fuzzy(0.0, v, 1.0, 3.5, 0.05)),
    ("boost-mu", "mu", lambda v: bounded_log_boost(v, 1.0, 3.5, 0.05)),
    ("bounded-log-composite-zbar", "zbar",
     lambda v: gaussian_composite_bounded_log_fuzzy(0.0, v, 1.0, 3.5, 3, 0.05)),
    ("np-mu", "mu", lambda v: gaussian_np_evalue(0.0, v, 1.0, 0.05)),
    ("np-sigma", "sigma", lambda v: gaussian_np_evalue(0.0, 0.0, v, 0.05)),
    ("np-composite-zbar", "zbar", lambda v: gaussian_composite_np_evalue(0.0, v, 1.0, 3, 0.05)),
    ("np-composite-sigma", "sigma", lambda v: gaussian_composite_np_evalue(0.0, 0.0, v, 3, 0.05)),
]


@pytest.mark.parametrize("name, call", [c[1:] for c in _LOCATED_CALLS],
                         ids=[c[0] for c in _LOCATED_CALLS])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_parameters_are_rejected(name, call, value):
    # an infinite mu once gave the np family evidence 1/alpha everywhere and a
    # NaN zbar evidence 0 everywhere; an infinite sigma an infinite interval
    with pytest.raises(ValueError, match=rf"^{name} must be (positive and )?finite, got {value!r}$"):
        call(value)
