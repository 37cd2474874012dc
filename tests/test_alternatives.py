import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fuzzyconf.alternatives import (
    IidRatio,
    KernelAlternative,
    ar1_kernel,
    gaussian_composite_kernel,
    gaussian_mean_shift_ratio,
    gaussian_scale_ratio,
)
from fuzzyconf.errors import AllZeroRatioError
from fuzzyconf.reference import (
    LikelihoodRatioProfile,
    brute_force_conditional_lr,
    conditional_lr_iid,
    profile_for,
)


def test_constant_ratio_gives_unit_lr():
    for c in (0.5, 1.0, 7.0):
        prof = conditional_lr_iid((4, 1, 2, 2), lambda z, c=c: c)
        assert prof.lr == (1.0, 1.0, 1.0)


def test_lr_iid_linear_ratio():
    # confirmed against the permutation-average brute force below
    prof = conditional_lr_iid((1, 2, 3), lambda z: z)
    assert prof.values == (1.0, 2.0, 3.0)
    assert prof.lr == pytest.approx((0.5, 1.0, 1.5), abs=1e-12)
    for last in (1.0, 2.0, 3.0):
        rest = [v for v in (1.0, 2.0, 3.0) if v != last]
        oracle = brute_force_conditional_lr(
            rest + [last], lambda z: z * math.exp(-z), lambda z: math.exp(-z)
        )
        assert prof.lr_at(last) == pytest.approx(oracle, abs=1e-12)


def test_lr_iid_with_ties():
    prof = conditional_lr_iid((1, 1, 4), lambda z: z)
    assert prof.values == (1.0, 4.0)
    assert prof.lr == pytest.approx((0.5, 2.0), abs=1e-12)
    assert prof.orbit_mean() == pytest.approx(1.0, abs=1e-12)
    oracle = brute_force_conditional_lr((1, 1, 4), lambda z: z * 0.1, lambda z: 0.1)
    assert prof.lr_at(4.0) == pytest.approx(oracle, abs=1e-12)


def test_lr_iid_all_zero_ratio():
    with pytest.raises(AllZeroRatioError):
        conditional_lr_iid((1, 2, 3), lambda z: 0.0)


def test_lr_iid_rejects_bad_ratio_values():
    with pytest.raises(ValueError):
        conditional_lr_iid((1, 2), lambda z: -1.0)
    with pytest.raises(ValueError):
        conditional_lr_iid((1, 2), lambda z: math.inf)


@given(
    st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=8),
    st.floats(min_value=1e-3, max_value=1e3),
)
def test_scale_invariance(vals, c):
    base = conditional_lr_iid(vals, lambda z: math.exp(0.1 * z))
    scaled = conditional_lr_iid(vals, lambda z: c * math.exp(0.1 * z))
    assert np.allclose(base.lr, scaled.lr, rtol=1e-9)


@given(st.lists(st.floats(min_value=-20, max_value=20), min_size=2, max_size=8))
def test_orbit_mean_one(vals):
    prof = conditional_lr_iid(vals, lambda z: 1.0 + abs(z))
    assert abs(prof.orbit_mean() - 1.0) <= 1e-9


def test_degenerate_orbit_unit_lr():
    prof = conditional_lr_iid((3, 3, 3, 3), lambda z: math.exp(z))
    assert prof.lr == (1.0,)


def test_profile_invariant_enforced():
    with pytest.raises(ValueError):
        LikelihoodRatioProfile((1.0, 2.0), (1, 1), (1.0, 1.5))  # mean 1.25


def test_ar1_kernel_centers_at_conditional_mean():
    alt = ar1_kernel(mu=0.0, rho=0.5, tau=3.0)
    # center 0 + 0.5*(2 - 0) = 1, read from the last calibration slot: the
    # final slot's ratio is minimized there
    grid = np.linspace(-2, 4, 121)
    bags = np.column_stack([np.tile((0.3, -1.0, 2.0), (len(grid), 1)), grid])
    vals = alt.ratio(bags)[:, -1]
    assert grid[int(np.argmin(vals))] == pytest.approx(1.0, abs=0.06)


def test_composite_kernel_centers_at_the_bag_mean():
    # each row's ratios are the scale ratio about the mean of all its slots,
    # the final one included, so permuting a row permutes its ratios
    kern = gaussian_composite_kernel(1.0, 3.5)
    block = np.array([[1.0, 1.32, 2.0, 1.44], [1.0, 1.32, 2.0, 5.0], [0.0, 0.0, 10.0, -3.5]])
    want = np.vstack([gaussian_scale_ratio(row.mean(), 1.0, 3.5).ratio(row) for row in block])
    assert np.array_equal(kern.ratio(block), want)
    perm = [3, 0, 2, 1]
    np.testing.assert_allclose(kern.ratio(block[:, perm]), want[:, perm], rtol=1e-15, atol=0.0)


def test_mean_shift_ratio_formula():
    r = gaussian_mean_shift_ratio(mu=0.0, delta=1.0, sigma=1.0).ratio
    # dN(1,1)/dN(0,1)(z) = exp(z - 1/2)
    for z in (-1.0, 0.0, 0.7, 2.0):
        assert r(z) == pytest.approx(math.exp(z - 0.5), rel=1e-12)


@pytest.mark.parametrize("args, message", [
    ((0.0, 1.0, math.inf), "sigma=inf is out of range"),
    ((0.0, 1.0, 1e-200), "sigma=1e-200 is out of range"),
    ((0.0, 1.0, 1e154), "sigma=1e+154 is out of range"),
    ((0.0, 1.0, -1.0), "sigma=-1.0 is out of range"),
    ((0.0, 1.0, 0.0), "sigma=0.0 is out of range"),
    ((0.0, 1.0, math.nan), "sigma=nan is out of range"),
    ((0.0, 1e200), "mu=0.0 and delta=1e+200 are out of range"),
    ((math.inf, 1.0), "mu=inf and delta=1.0 are out of range"),
    ((0.0, -math.inf), "mu=0.0 and delta=-inf are out of range"),
    ((math.nan, 1.0), "mu=nan and delta=1.0 are out of range"),
])
def test_mean_shift_parameters_out_of_float_range_are_rejected(args, message):
    # these once gave a constant ratio, a ratio that vanished everywhere, or
    # numpy overflow warnings
    with pytest.raises(ValueError, match=f"^{re.escape(message)}: "):
        gaussian_mean_shift_ratio(*args)


def test_mean_shift_ratio_keeps_the_widest_legal_parameters():
    r = gaussian_mean_shift_ratio(0.0, 1e154, 1e153).ratio  # delta^2 and 2 sigma^2 finite
    assert r(0.0) == math.exp(-50.0)
    tiny = gaussian_mean_shift_ratio(0.0, 1.0, 1e-160).ratio  # sigma^2 is subnormal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert tiny(1.0) == math.inf and tiny(-1.0) == 0.0


def test_scale_ratio_formula():
    r = gaussian_scale_ratio(mu=0.0, sigma=1.0, tau=2.0).ratio
    for z in (-1.5, 0.0, 1.0, 3.0):
        num = math.exp(-z * z / 8.0) / (2.0 * math.sqrt(2 * math.pi))
        den = math.exp(-z * z / 2.0) / math.sqrt(2 * math.pi)
        assert r(z) == pytest.approx(num / den, rel=1e-12)


def test_profile_for_dispatches():
    prof = profile_for((1, 2, 3), IidRatio(lambda z: z))
    assert prof.lr_at(3.0) == pytest.approx(1.5)
    kern = KernelAlternative(lambda block: np.abs(block - block[:, -2:-1]))
    prof2 = profile_for((1, 2, 3), kern)  # about the last calibration value: ratios (1, 0, 1)
    assert prof2.lr_at(3.0) == pytest.approx(1.5)
    with pytest.raises(TypeError, match="^expected an IidRatio or KernelAlternative, got dict$"):
        profile_for((1, 2, 3), {1.0: 0.2, 2.0: 0.3, 3.0: 0.5})


@pytest.mark.parametrize("spec", [lambda: gaussian_scale_ratio(0.0, 1.0, 1e200),
                                  lambda: gaussian_scale_ratio(0.0, 1e-200, 1e-199),
                                  lambda: gaussian_scale_ratio(0.0, 1.0, math.nan),
                                  lambda: ar1_kernel(0.0, 0.5, 1e200),
                                  lambda: gaussian_composite_kernel(1e-200, 1e-199),
                                  lambda: gaussian_composite_kernel(1.0, 1e160)])
def test_scales_out_of_float_range_are_rejected_at_construction(spec):
    with pytest.raises(ValueError, match="^sigma=.* and tau=.* are out of range"):
        spec()


def test_scale_ratio_keeps_tau_below_sigma_and_scalar_results():
    r = gaussian_scale_ratio(0.0, 2.0, 1.0).ratio  # tau < sigma stays legal
    assert r(0.0) == 2.0 and isinstance(r(0.0), np.float64)
    assert r(np.array([0.0, 1.0])).shape == (2,)
