import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fuzzyconf.alternatives import (
    IidRatio, LikelihoodRatioProfile, ar1_kernel, conditional_lr_iid, lr_matrix, resolve_alternative,
)
from fuzzyconf.confidence import PlugInGrid, fuzzy_set
from fuzzyconf.errors import NormalizationFailureError
from fuzzyconf.evalues import (
    BoundedLog,
    ClippedLog,
    Dampened,
    EValueProfile,
    Log,
    NeymanPearson,
    Power,
    capped_shape,
    clipped_shape,
    evalue_at,
    evalue_rows,
    normalization_lambda,
    np_threshold,
    optimal_evalue,
    utility_id,
)

LRP = LikelihoodRatioProfile

THIRDS = LRP((1.0, 2.0, 3.0), (1, 1, 1), (0.5, 1.0, 1.5))
UNIT = LRP((1.0, 2.0, 3.0), (1, 1, 1), (1.0, 1.0, 1.0))

ALL_UTILITIES = [
    Log(),
    Power(h=-50.0),
    Power(h=-1.0),
    Power(h=0.5),
    Power(h=0.999),
    NeymanPearson(alpha=1 / 3),
    NeymanPearson(alpha=0.05),
    BoundedLog(alpha=0.05),
    BoundedLog(alpha=0.4),
    ClippedLog(b=0.1),
    ClippedLog(b=1.0),
    Dampened(b=0.1, inner=Log()),
    Dampened(b=0.5, inner=NeymanPearson(alpha=0.25)),
]


def test_unit_lr_gives_unit_evidence_for_every_utility():
    for utility in ALL_UTILITIES:
        prof = optimal_evalue(UNIT, utility)
        assert prof.evidence == pytest.approx((1.0, 1.0, 1.0), abs=1e-9), utility


def test_log_returns_lr_identically():
    prof = optimal_evalue(THIRDS, Log())
    assert prof.evidence == (0.5, 1.0, 1.5)


def test_power_strongly_risk_averse_is_almost_flat():
    prof = optimal_evalue(THIRDS, Power(h=-50.0))
    assert np.allclose(prof.evidence, 1.0, atol=0.05)


def test_power_near_one_goes_all_in():
    prof = optimal_evalue(THIRDS, Power(h=0.999))
    assert prof.evidence[2] == pytest.approx(3.0, abs=1e-6)
    assert prof.evidence[0] == pytest.approx(0.0, abs=1e-6)
    assert prof.evidence[1] == pytest.approx(0.0, abs=1e-6)


def test_power_closed_form():
    # e = lr^(1/(1-h)) / slot-mean(lr^(1/(1-h)))
    for h in (-3.0, -0.5, 0.25, 0.9):
        s = 1.0 / (1.0 - h)
        powered = np.array([0.5**s, 1.0**s, 1.5**s])
        expected = powered / powered.mean()
        prof = optimal_evalue(THIRDS, Power(h=h))
        assert np.allclose(prof.evidence, expected, atol=1e-9)


def test_np_evalue_worked_example():
    prof = optimal_evalue(THIRDS, NeymanPearson(alpha=1 / 3))
    assert prof.evidence == pytest.approx((0.0, 0.0, 3.0), abs=1e-9)
    c, k = np_threshold(THIRDS, 1 / 3)
    assert c == 1.5
    # p_gt = 0, p_eq = 1/3: k solves p_gt/alpha + p_eq*k = 1
    assert k == pytest.approx(3.0, abs=1e-12)


def test_np_threshold_flat_profile():
    c, k = np_threshold(UNIT, 0.1)
    assert (c, k) == (1.0, pytest.approx(1.0, abs=1e-12))
    prof = optimal_evalue(UNIT, NeymanPearson(alpha=0.1))
    assert prof.evidence == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)


def test_np_threshold_boundary_k_equals_cap():
    lrp = LRP((1.0, 2.0, 3.0, 4.0), (1, 1, 1, 1), (0.4, 0.8, 1.2, 1.6))
    c, k = np_threshold(lrp, 0.25)
    assert c == 1.6
    assert k == pytest.approx(4.0, abs=1e-12)
    prof = optimal_evalue(lrp, NeymanPearson(alpha=0.25))
    assert prof.orbit_mean() == pytest.approx(1.0, abs=1e-12)


def test_np_threshold_interior_k():
    # ties on the boundary value force 0 < k < 1/alpha
    lrp = LRP((1.0, 2.0, 3.0, 4.0), (1, 1, 1, 1), (0.2, 1.2, 1.2, 1.4))
    c, k = np_threshold(lrp, 0.5)
    assert c == 1.2
    # p_gt = 1/4, p_eq = 1/2: k = (1 - 0.25/0.5) / 0.5 = 1
    assert k == pytest.approx(1.0, abs=1e-12)
    prof = optimal_evalue(lrp, NeymanPearson(alpha=0.5))
    assert prof.evidence == pytest.approx((0.0, 1.0, 1.0, 2.0), abs=1e-12)


def test_normalization_lambda_flat_bounded():
    lam = normalization_lambda(UNIT, capped_shape(1 / 0.05))
    assert lam == pytest.approx(1.0, abs=1e-9)


def test_normalization_lambda_clipped_hand_example():
    # mean(max(2*lam, 0.1), max(0, 0.1)) = 1  ->  (0.1 + 2*lam)/2 = 1  ->  lam = 0.95
    lrp = LRP((1.0, 2.0), (1, 1), (0.0, 2.0))
    lam = normalization_lambda(lrp, clipped_shape(0.1))
    assert lam == pytest.approx(0.95, abs=1e-9)
    prof = optimal_evalue(lrp, ClippedLog(b=0.1))
    assert prof.evidence == pytest.approx((0.1, 1.9), abs=1e-9)


def test_normalization_lambda_bounded_unsaturated():
    # mean(min(lam/2, 2), min(3*lam/2, 2)) = 1 -> lam = 1, both branches below the cap
    lrp = LRP((1.0, 2.0), (1, 1), (0.5, 1.5))
    lam = normalization_lambda(lrp, capped_shape(1 / 0.5))
    assert lam == pytest.approx(1.0, abs=1e-9)
    prof = optimal_evalue(lrp, BoundedLog(alpha=0.5))
    assert prof.evidence == pytest.approx((0.5, 1.5), abs=1e-9)


def test_bounded_binding_cap():
    lrp = LRP((1.0, 2.0, 3.0), (1, 1, 1), (0.1, 0.4, 2.5))
    prof = optimal_evalue(lrp, BoundedLog(alpha=0.5))
    # lam = 2: (0.2 + 0.8 + 2)/3 = 1 with the top value capped at 2
    assert prof.evidence == pytest.approx((0.2, 0.8, 2.0), abs=1e-9)


def test_bounded_infeasible_raises():
    lrp = LRP((0.0, 9.0), (2, 1), (0.0, 3.0))
    with pytest.raises(NormalizationFailureError):
        optimal_evalue(lrp, BoundedLog(alpha=0.5))  # cap 2 on 1/3 of the mass < 1


def test_clipped_log_zero_lr_gets_floor():
    lrp = LRP((1.0, 2.0), (1, 1), (0.0, 2.0))
    prof = optimal_evalue(lrp, ClippedLog(b=0.25))
    assert prof.evidence[0] == 0.25


def test_dampened_is_mixture_with_one():
    for inner in (Log(), NeymanPearson(alpha=0.2), Power(h=0.5)):
        base = optimal_evalue(THIRDS, inner)
        damp = optimal_evalue(THIRDS, Dampened(b=0.3, inner=inner))
        expected = 0.3 + 0.7 * np.asarray(base.evidence)
        assert np.allclose(damp.evidence, expected, atol=1e-12)


def test_evalue_at_examples():
    alt = IidRatio(lambda z: z)
    assert evalue_at((1, 2, 3), alt, Log()) == pytest.approx(1.5)
    assert evalue_at((3, 2, 1), alt, Log()) == pytest.approx(0.5)
    assert evalue_at((7, 7, 7, 7), alt, NeymanPearson(alpha=0.3)) == pytest.approx(1.0)


def test_np_structure_three_values():
    rng = np.random.default_rng(42)
    for _ in range(50):
        m = int(rng.integers(2, 7))
        vals = np.sort(rng.choice(np.arange(1.0, 9.0), size=m, replace=True))
        prof = conditional_lr_iid(vals, lambda z: math.exp(0.5 * z))
        alpha = float(rng.uniform(0.05, 0.9))
        ev = optimal_evalue(prof, NeymanPearson(alpha=alpha))
        c, k = np_threshold(prof, alpha)
        allowed = {0.0, k, 1.0 / alpha}
        assert all(any(abs(e - a) < 1e-12 for a in allowed) for e in ev.evidence)
        assert 0.0 <= k <= 1.0 / alpha + 1e-12


@given(
    st.lists(st.integers(min_value=-4, max_value=4), min_size=2, max_size=8),
    st.floats(min_value=0.05, max_value=2.0),
)
@settings(max_examples=60, deadline=None)
def test_exactness_and_monotonicity_property(vals, slope):
    prof = conditional_lr_iid(vals, lambda z: math.exp(slope * z))
    for utility in ALL_UTILITIES:
        ev = optimal_evalue(prof, utility)
        assert abs(ev.orbit_mean() - 1.0) <= 1e-9
        order = np.argsort(prof.lr)
        e_sorted = np.asarray(ev.evidence)[order]
        assert all(b >= a - 1e-12 for a, b in zip(e_sorted, e_sorted[1:]))


def test_evalue_profile_invariants():
    with pytest.raises(ValueError):
        EValueProfile((1.0, 2.0), (1, 1), (1.0, 1.5))  # mean 1.25
    with pytest.raises(ValueError):
        EValueProfile((1.0, 2.0), (1, 1), (-0.5, 2.5))


def test_utility_parameter_validation():
    with pytest.raises(ValueError):
        NeymanPearson(alpha=0.0)
    with pytest.raises(ValueError):
        Power(h=1.0)
    with pytest.raises(ValueError):
        Power(h=0.0)
    with pytest.raises(ValueError):
        BoundedLog(alpha=1.0)
    with pytest.raises(ValueError):
        ClippedLog(b=0.0)
    with pytest.raises(ValueError):
        ClippedLog(b=1.2)
    with pytest.raises(ValueError):
        Dampened(b=1.0, inner=Log())


def test_utility_ids():
    assert utility_id(Log()) == "log"
    assert utility_id(Power(h=0.5)) == "power(h=0.5)"
    assert utility_id(Dampened(b=0.1, inner=NeymanPearson(alpha=0.05))) == \
        "dampened(b=0.1,np(alpha=0.05))"


def test_rows_lambda_exact_when_one_slot_dominates():
    # the dominant slot's ratio is ~1e5 times the others; suffix sums formed
    # as total - prefix lost ~2e-12 of the small tail
    calib, z, utility = (3.5, -3.0), 0.0, BoundedLog(0.5)
    kern = ar1_kernel(0.0, 0.5, 3.5)
    ratio = resolve_alternative(kern, calib).ratio
    got = evalue_rows(lr_matrix(np.array([calib + (z,)]), ratio), utility)[0]
    want = evalue_at(calib + (z,), kern, utility)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_rows_bounded_log_boundary_feasible():
    # LR row [0]*6 + [2]*6 with cap 2: every lam >= 1 is exact, and the
    # capped mean sums to 1 - 1ulp in slot order
    data = (0.0,) * 5 + (0.5,) * 6 + (0.0,)
    alt = IidRatio(lambda z: max(z, 0.0))
    got = evalue_rows(lr_matrix(np.array([data]), alt.ratio), BoundedLog(0.5))
    assert got.tolist() == [0.0]
    assert evalue_at(data, alt, BoundedLog(0.5)) == 0.0


def test_boundary_feasible_root_past_the_old_bracket():
    # 4 of 8 slots positive under cap 2 is feasible only with every positive
    # slot capped; the root lam ~ 5e12 lay past the scalar bracket's 1e12
    calib, alt, utility = (0, 1e5, 1e5, 0, 0, 2, 0), IidRatio(lambda z: z), BoundedLog(0.5)
    grid = PlugInGrid.from_points((1e-8, 1.0))
    assert fuzzy_set(calib, grid, alt, utility).evidence == pytest.approx((2.0, 2.0), rel=1e-12)
    for z in grid:
        assert evalue_at(calib + (z,), alt, utility) == pytest.approx(2.0, rel=1e-12)
    # 3 of 8 positive slots capped at 2 reach mean 3/4 at most
    infeasible = (0, 1e5, 1e5, 0, 0, 0, 0)
    with pytest.raises(NormalizationFailureError):
        fuzzy_set(infeasible, grid, alt, utility)
    with pytest.raises(NormalizationFailureError):
        evalue_at(infeasible + (1.0,), alt, utility)


def _breakpoint_utilities(m):
    shaped = [BoundedLog(a) for a in (1 / m, 0.05, 0.5)] + [ClippedLog(0.1), ClippedLog(1.0)]
    return shaped + [Dampened(0.3, u) for u in shaped]


@st.composite
def _breakpoint_cases(draw):
    m = draw(st.integers(2, 12))
    ratios = draw(st.lists(st.integers(0, 4), min_size=m, max_size=m))  # ties and zeros
    kind = draw(st.sampled_from(("lattice", "dominant", "boundary")))
    if kind == "dominant":
        ratios[draw(st.integers(0, m - 1))] = 100_000
    elif kind == "boundary":
        # one positive slot (cap m under alpha = 1/m), or half of them (alpha = 0.5)
        k = draw(st.sampled_from((1, m // 2)))
        ratios = [draw(st.sampled_from((1, 3, 100_000))) for _ in range(k)] + [0] * (m - k)
        ratios = draw(st.permutations(ratios))
    if not any(ratios):
        ratios[-1] = 1
    return tuple(float(r) for r in ratios), draw(st.sampled_from(_breakpoint_utilities(m)))


@given(_breakpoint_cases())
@example(((0.0, 1e5, 1e5, 0.0, 0.0, 2.0, 0.0, 1e-8), BoundedLog(0.5)))  # root lam ~ 5e12
@example(((4e16, 4e16, 4e16, 1.0, 0.0, 0.0, 0.0, 4e16), BoundedLog(0.5)))  # tail below roundoff
@example(((0.0,) * 19 + (7.0,), BoundedLog(0.05)))  # one slot capped at 20 = m
@settings(max_examples=400, deadline=None)
def test_rows_lambda_matches_scalar_at_breakpoints(case):
    ratios, utility = case
    r = np.asarray(ratios)
    lr = r / r.mean()
    prof = LRP(tuple(range(lr.size)), (1,) * lr.size, tuple(lr))
    try:
        want = optimal_evalue(prof, utility).evidence[-1]
    except NormalizationFailureError:
        with pytest.raises(NormalizationFailureError):
            evalue_rows(lr[None, :], utility)
        return
    assert evalue_rows(lr[None, :], utility)[0] == pytest.approx(want, rel=1e-12, abs=0.0)
