import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fuzzyconf.alternatives import (
    IidRatio,
    LikelihoodRatioProfile,
    ar1_kernel,
    conditional_lr_iid,
    gaussian_composite_kernel,
    gaussian_mean_shift_ratio,
    gaussian_scale_ratio,
    kernel_alternative,
    profile_for,
    resolve_alternative,
)
from fuzzyconf.errors import AllZeroRatioError
from fuzzyconf.harness import brute_force_conditional_lr


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


def test_kernel_constant_builder():
    fixed = IidRatio(lambda z: z + 10.0, name="shift")
    alt = kernel_alternative(lambda z_n: fixed)
    assert resolve_alternative(alt, (1.0, 2.0)) is fixed


def test_ar1_kernel_centers_at_conditional_mean():
    alt = ar1_kernel(mu=0.0, rho=0.5, tau=3.0)
    concrete = resolve_alternative(alt, (0.3, -1.0, 2.0))
    # center 0 + 0.5*(2 - 0) = 1: the ratio is minimized there
    grid = np.linspace(-2, 4, 121)
    vals = [concrete.ratio(z) for z in grid]
    assert grid[int(np.argmin(vals))] == pytest.approx(1.0, abs=0.06)


def test_composite_kernel_centers_at_calibration_mean():
    # calibration with mean 1.44
    z_n = (1.0, 1.32, 2.0)
    assert sum(z_n) / 3 == pytest.approx(1.44)
    concrete = resolve_alternative(gaussian_composite_kernel(1.0, 3.5), z_n)
    grid = np.linspace(-1, 4, 201)
    vals = [concrete.ratio(z) for z in grid]
    assert grid[int(np.argmin(vals))] == pytest.approx(1.44, abs=0.03)


def test_mean_shift_ratio_formula():
    r = gaussian_mean_shift_ratio(mu=0.0, delta=1.0, sigma=1.0).ratio
    # dN(1,1)/dN(0,1)(z) = exp(z - 1/2)
    for z in (-1.0, 0.0, 0.7, 2.0):
        assert r(z) == pytest.approx(math.exp(z - 0.5), rel=1e-12)


def test_scale_ratio_formula():
    r = gaussian_scale_ratio(mu=0.0, sigma=1.0, tau=2.0).ratio
    for z in (-1.5, 0.0, 1.0, 3.0):
        num = math.exp(-z * z / 8.0) / (2.0 * math.sqrt(2 * math.pi))
        den = math.exp(-z * z / 2.0) / math.sqrt(2 * math.pi)
        assert r(z) == pytest.approx(num / den, rel=1e-12)


def test_profile_for_dispatches():
    prof = profile_for((1, 2, 3), IidRatio(lambda z: z))
    assert prof.lr_at(3.0) == pytest.approx(1.5)
    kern = kernel_alternative(lambda z_n: IidRatio(lambda z, c=z_n[-1]: abs(z - c)))
    prof2 = profile_for((1, 2, 3), kern)  # resolved against (1, 2): ratios (1, 0, 1)
    assert prof2.lr_at(3.0) == pytest.approx(1.5)
    with pytest.raises(TypeError):
        profile_for((1, 2, 3), {1.0: 0.2, 2.0: 0.3, 3.0: 0.5})


def test_kernel_exactness_is_conditional_on_calibration():
    # each resolved profile has orbit mean 1, but a kernel re-fits itself to
    # every arrangement, so averaging over which slot is last is free to
    # exceed 1; kernels carry a model-based guarantee, not an orbit one
    kern = gaussian_composite_kernel(1.0, 3.5)
    vals = (0.0, 0.0, 10.0)
    per_slot = []
    for last in (0.0, 0.0, 10.0):
        rest = list(vals)
        rest.remove(last)
        prof = profile_for(tuple(rest) + (last,), kern)
        assert prof.orbit_mean() == pytest.approx(1.0, abs=1e-12)
        per_slot.append(prof.lr_at(last))
    assert sum(per_slot) / 3 == pytest.approx(5 / 3, abs=1e-6)
