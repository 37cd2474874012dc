import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fuzzyconf.alternatives import IidRatio, gaussian_mean_shift_ratio
from fuzzyconf.confidence import fuzzy_set
from fuzzyconf.errors import NormalizationFailureError
from fuzzyconf.evalues import (
    BoundedLog,
    ClippedLog,
    Dampened,
    Log,
    NeymanPearson,
    Power,
    utility_id,
)
from fuzzyconf.reference import (
    EValueProfile,
    LikelihoodRatioProfile,
    conditional_lr_iid,
    evalue_at,
    evalues_for,
    np_threshold,
    optimal_evalue,
)
from fuzzyconf.sets import PlugInGrid

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


def test_level_walk_flat_bounded():
    # 3 * min(kappa, 20) = 3 -> kappa = 1
    assert optimal_evalue(UNIT, BoundedLog(alpha=0.05)).evidence == (1.0, 1.0, 1.0)


def test_level_walk_clipped_hand_example():
    # mean(max(2*kappa, 0.1), max(0, 0.1)) = 1  ->  (0.1 + 2*kappa)/2 = 1  ->  kappa = 0.95
    lrp = LRP((1.0, 2.0), (1, 1), (0.0, 2.0))
    assert optimal_evalue(lrp, ClippedLog(b=0.1)).evidence == (0.1, 1.9)


def test_level_walk_bounded_unsaturated():
    # mean(min(kappa/2, 2), min(3*kappa/2, 2)) = 1 -> kappa = 1, both branches below the cap
    lrp = LRP((1.0, 2.0), (1, 1), (0.5, 1.5))
    assert optimal_evalue(lrp, BoundedLog(alpha=0.5)).evidence == (0.5, 1.5)


def test_bounded_binding_cap():
    lrp = LRP((1.0, 2.0, 3.0), (1, 1, 1), (0.1, 0.4, 2.5))
    prof = optimal_evalue(lrp, BoundedLog(alpha=0.5))
    # lam = 2: (0.2 + 0.8 + 2)/3 = 1 with the top value capped at 2
    assert prof.evidence == pytest.approx((0.2, 0.8, 2.0), abs=1e-9)


def test_bounded_infeasible_raises():
    lrp = LRP((0.0, 9.0), (2, 1), (0.0, 3.0))
    with pytest.raises(NormalizationFailureError):
        optimal_evalue(lrp, BoundedLog(alpha=0.5))  # cap 2 on 1/3 of the mass < 1


def test_bounded_cap_past_the_float_range_is_a_normalization_failure():
    # 1/alpha overflows to inf, which no rational holds; the exact walk fails
    # as the core and the Gaussian boost do, not with an OverflowError
    alt, utility = gaussian_mean_shift_ratio(0.0, 1.0), BoundedLog(1e-320)
    with pytest.raises(NormalizationFailureError, match="past the float range"):
        evalue_at((0.1, 0.5, -0.3, 1.2), alt, utility)
    with pytest.raises(NormalizationFailureError):
        fuzzy_set((0.1, 0.5, -0.3), PlugInGrid((1.2, 2.0)), alt, utility)


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
    # the checks of a likelihood-ratio profile, multiplicities included
    with pytest.raises(ValueError, match=r"^orbit mean of evidence is 1.25, not 1$"):
        EValueProfile((1.0, 2.0), (1, 1), (1.0, 1.5))
    with pytest.raises(ValueError, match=r"^evidence must be finite and >= 0, got -0.5$"):
        EValueProfile((1.0, 2.0), (1, 1), (-0.5, 2.5))
    with pytest.raises(ValueError, match="^multiplicities must be positive$"):
        EValueProfile((1.0, 2.0), (0, 2), (5.0, 1.0))
    with pytest.raises(ValueError, match="^values, counts and evidence must have equal length$"):
        EValueProfile((1.0, 2.0), (1, 1), (1.0,))


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


def test_power_needs_a_finite_h():
    # h = -inf once gave s = 1/(1 - h) = 0, and the core's 0 * log(0) made
    # every point's evidence 3.0000000000000004 where the orbit's mean is 2
    for h in (-math.inf, math.nan):
        with pytest.raises(ValueError, match=r"^h must satisfy -inf < h < 1 and h != 0$"):
            Power(h=h)
    assert Power(h=-1e300).h == -1e300


def test_dampened_rejects_a_dampened_inner():
    # b over c is one dampened utility, B = 1 - (1 - b)(1 - c)
    with pytest.raises(ValueError, match=r"^the inner utility must not be dampened"):
        Dampened(0.1, Dampened(0.2, Log()))


def test_utility_ids():
    assert utility_id(Log()) == "log"
    assert utility_id(Power(h=0.5)) == "power(h=0.5)"
    assert utility_id(Dampened(b=0.1, inner=NeymanPearson(alpha=0.05))) == \
        "dampened(b=0.1,np(alpha=0.05))"


# the core against the exact walk: at most 7 ulps over 20 000 hypothesis draws
# and a seeded sweep of 20 000 rows with m up to 40; the bound is 4x that
BREAKPOINT_ULPS = 28


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
@example(((0.0,) * 92 + (1.0,), BoundedLog(1 / 93)))  # cap fl(1/fl(1/93)) < 93: within tolerance
@example(((0.0,) * 184 + (3.0, 1.0), BoundedLog(1 / 93)))  # likewise, the smaller slot last
@settings(max_examples=400, deadline=None)
def test_rows_lambda_matches_scalar_at_breakpoints(case):
    ratios, utility = case
    r = np.asarray(ratios)
    lr = r / r.mean()
    prof = LRP(tuple(range(lr.size)), (1,) * lr.size, tuple(lr))
    # the production core on the row, its ratios the likelihood ratios themselves
    row, identity = lr[None, :], IidRatio(lambda z: z)
    try:
        want = optimal_evalue(prof, utility).evidence[-1]
    except NormalizationFailureError:
        with pytest.raises(NormalizationFailureError):
            evalues_for(row, identity, utility)
        return
    got = evalues_for(row, identity, utility)[0]
    assert abs(got - want) <= BREAKPOINT_ULPS * math.ulp(want), (got, want)
