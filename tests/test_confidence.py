import csv
import io
import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fuzzyconf.alternatives import (
    IidRatio,
    ar1_kernel,
    gaussian_composite_kernel,
    gaussian_mean_shift_ratio,
    gaussian_scale_ratio,
)
from fuzzyconf import cli
from fuzzyconf.cli import parse_ratio, parse_utility
from fuzzyconf.confidence import _final_slot_evidence, fuzzy_set, grid_evidence
from fuzzyconf.errors import (
    AllZeroRatioError, FuzzyconfError, NormalizationFailureError,
)
from fuzzyconf.evalues import (
    BoundedLog, ClippedLog, Dampened, Log, NeymanPearson, Power, utility_id,
)
from fuzzyconf.harness import McConfig, adversarial_level_rule
from fuzzyconf.reference import (
    conditional_lr_iid, evalue_at, evalues_for, np_threshold, sample_matrix,
)
from fuzzyconf.sets import (
    BinaryConfidenceSet,
    FuzzyConfidenceSet,
    PlugInGrid,
    load_confidence_set,
    randomized_binary,
    smallest_exclusion_level,
    sublevel_set,
)


def test_grid_from_spec_divisible():
    grid = PlugInGrid.from_spec("-6:6:0.01")
    assert len(grid) == 1201
    assert grid.lo == -6.0 and grid.hi == 6.0
    assert grid[600] == pytest.approx(0.0, abs=1e-12)


def test_grid_from_spec_non_divisible():
    grid = PlugInGrid.from_spec("0:1:0.3")
    assert np.allclose(grid.points, (0.0, 0.3, 0.6, 0.9))


def test_grid_from_spec_ends_at_its_inclusive_max():
    # the last point was lo + span * n / n, which can round past the max:
    # -2.101:11.899:0.2 once ended at 11.899000000000001
    assert PlugInGrid.from_spec("-2.101:11.899:0.2").hi == 11.899
    rng = np.random.default_rng(31)
    for _ in range(2000):
        lo = round(float(rng.uniform(-100.0, 100.0)), 3)
        step = round(float(rng.choice((0.001, 0.01, 0.05, 0.1, 0.2, 0.25, 0.5))), 3)
        hi = round(lo + step * int(rng.integers(1, 2000)), 3)
        spec = f"{lo}:{hi}:{step}"
        assert PlugInGrid.from_spec(spec).hi == float(hi), spec


def test_grid_from_spec_near_the_float_range():
    # span * i overflowed at i = 3, and the spec was refused as holding a
    # non-finite point although all 8 of its points are finite
    assert PlugInGrid.from_spec("1e308:1.7e308:1e307").points == (
        1e308, 1.1e308, 1.2e308, 1.3e308, 1.3999999999999999e308, 1.5e308, 1.6e308, 1.7e308)
    assert len(PlugInGrid.from_spec("0:1.7e308:1e307")) == 18
    # a step that does not divide the span: the bound hi + tol * span
    # overflowed to inf, so the points ran on past the float range forever
    assert PlugInGrid.from_spec("1e308:1.7976931348623157e308:3e307").points == (
        1e308, 1.3e308, 1.6e308)
    # every spec whose span * n is finite keeps its points lo + span * i / n
    rng = np.random.default_rng(47)
    for _ in range(2000):
        lo = float(rng.uniform(-1e3, 1e3)) * 10.0 ** int(rng.integers(-300, 300))
        n = int(rng.integers(1, 500))
        step = abs(lo) * float(rng.uniform(1e-3, 1.0)) + 1e-300
        spec = f"{lo!r}:{lo + n * step!r}:{step!r}"
        grid = PlugInGrid.from_spec(spec)
        lo, hi, step = map(float, spec.split(":"))
        span, k = hi - lo, len(grid) - 1
        if k == round(span / step):
            assert grid.points[:-1] == tuple(lo + span * i / k for i in range(k)), spec


def test_grid_validation():
    for bad in ("1:2", "2:1:0.1", "0:1:0", "0:1:-1", "a:b:c"):
        with pytest.raises(ValueError):
            PlugInGrid.from_spec(bad)
    with pytest.raises(ValueError):
        PlugInGrid.from_points((1.0,))
    with pytest.raises(ValueError):
        PlugInGrid.from_points((1.0, 1.0))
    with pytest.raises(ValueError):
        PlugInGrid.from_points((2.0, 1.0))


def test_fuzzy_set_log_worked_example():
    grid = PlugInGrid.from_points((1.0, 2.0, 3.0))
    fset = fuzzy_set((1, 2), grid, IidRatio(lambda z: z), Log())
    # per plug-in tuple: (1,2,1) -> 1/(4/3); (1,2,2) -> 2/(5/3); (1,2,3) -> 3/2
    assert fset.evidence == pytest.approx((0.75, 1.2, 1.5), abs=1e-12)
    assert fset.calibration == (1.0, 2.0)
    assert fset.utility == "log"


def test_fuzzy_set_degenerate_point():
    grid = PlugInGrid.from_points((2.0, 5.0))
    fset = fuzzy_set((5, 5, 5), grid, IidRatio(lambda z: math.exp(z)), Log())
    assert fset.evidence_at(5.0) == pytest.approx(1.0, abs=1e-12)


def test_fuzzy_set_np_is_step_function():
    grid = PlugInGrid.from_spec("-2:2:0.25")
    alpha = 0.25
    fset = fuzzy_set((0.1, -0.4, 0.9), grid, IidRatio(lambda z: math.exp(z)), NeymanPearson(alpha))
    for z, e in zip(grid.points, fset.evidence):
        prof = conditional_lr_iid((0.1, -0.4, 0.9, z), lambda v: math.exp(v))
        _, k = np_threshold(prof, alpha)
        assert min(abs(e - 0.0), abs(e - k), abs(e - 1 / alpha)) < 1e-12


def test_fuzzy_set_names_the_grid_point_of_an_infinite_ratio():
    grid = PlugInGrid.from_points((0.0, 1.0, 2.0, 3.0))
    alt = IidRatio(lambda z: math.inf if z == 2.0 else 1.0)
    with pytest.raises(ValueError, match=r"ratio is infinite at z=2\.0"):
        fuzzy_set((0.5, 1.5), grid, alt, Log())


def test_log_evidence_when_the_ratios_sum_overflows():
    # ten calibration ratios near the float maximum: their sum overflowed and
    # r_z / mean read 0 at every point; the exact values are rationals, and
    # all eleven slots tie at 39.3. The core and the oracle both give them
    alt, grid = gaussian_scale_ratio(0.0, 1.0, 3.5), PlugInGrid.from_spec("39.1:39.3:0.1")
    top = Fraction(alt.ratio(39.3))
    exact = [float(11 * Fraction(alt.ratio(z)) / (10 * top + Fraction(alt.ratio(z))))
             for z in grid]
    assert exact == [0.0008211830808510724, 0.02983724543047306, 1.0]
    assert list(fuzzy_set([39.3] * 10, grid, alt, Log()).evidence) == exact
    assert [evalue_at((39.3,) * 10 + (z,), alt, Log()) for z in grid] == exact


@pytest.mark.parametrize("utility, level, capped, ulps", [
    (BoundedLog(0.1), 10.0, True, [1, 0, 0]),
    (ClippedLog(0.1), 0.1, False, [0, 0, 0]),
])
def test_capped_and_clipped_evidence_when_the_ratios_sum_overflows(utility, level, capped, ulps):
    # the ten calibration ratios of the log case above under a cap and a
    # floor: the sum overflowed and the core raised "orbit mean misses 1 by
    # nan" (cap) or "by inf" (floor). The oracle's rational walk is
    # scale-invariant, so it runs on the ratios themselves and needs no
    # sum of them; bounded-log is 1 ulp off it at 39.1
    alt, grid = gaussian_scale_ratio(0.0, 1.0, 3.5), PlugInGrid.from_spec("39.1:39.3:0.1")
    exact = [evalue_at((39.3,) * 10 + (z,), alt, utility) for z in grid]
    got = fuzzy_set([39.3] * 10, grid, alt, utility).evidence
    assert list(np.abs(np.array(got).view(np.int64) - np.array(exact).view(np.int64))) == ulps
    assert exact == ([0.0008211830808510724, 0.02983724543047306, 1.0] if capped
                     else [level, level, 1.0])


# tiny and boundary levels, floors, h near 1 and far below 0, and dampened shapes
UTILITIES = [parse_utility(u) for u in (
    "log", "np:0.01", "np:0.1", "np:0.3", "np:1e-6", "bounded-log:1e-9", "bounded-log:1e-6",
    "bounded-log:0.05", "bounded-log:0.5", "clipped-log:1e-9", "clipped-log:0.1",
    "clipped-log:1", "power:-50", "power:-5", "power:-3", "power:0.5", "power:0.99",
    "power:0.999999", "dampened:0.2:np:0.1", "dampened:0.3:clipped-log:0.1",
    "dampened:0.2:bounded-log:0.05", "dampened:0.3:bounded-log:0.05",
)]


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def assert_core_matches_oracle(core, calibration, finals, alt, utility):
    """The core's evidence ``core()``, (T, G), of the tuples ``calibration[t]
    + (finals[t][g],)`` against the exact per-orbit ``evalue_at``: NP and
    dampened NP bit for bit, every other utility at rtol 1e-12, atol 0. Where
    the oracle raises, the lowest failing point g decides: ``core()`` must
    raise AllZeroRatioError if any tuple at g is all-zero, else the class the
    oracle raised first there. Returns the oracle's evidence, as nested
    lists, or that class."""
    calibration, finals = np.asarray(calibration, dtype=float), np.asarray(finals, dtype=float)
    want = np.empty(finals.shape)
    for g in range(finals.shape[1]):
        kinds = []
        for t, row in enumerate(calibration):
            try:
                want[t, g] = evalue_at(tuple(row) + (finals[t, g],), alt, utility)
            except FuzzyconfError as exc:
                kinds.append(type(exc))
        if kinds:
            kind = AllZeroRatioError if AllZeroRatioError in kinds else kinds[0]
            with pytest.raises(FuzzyconfError) as raised:
                core()
            assert type(raised.value) is kind
            return kind
    got = core()
    inner = utility.inner if isinstance(utility, Dampened) else utility
    if isinstance(inner, NeymanPearson):
        # both count ranks on the ratios themselves, ties exact
        assert np.array_equal(_bits(got), _bits(want))
    else:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    return want.tolist()


def _rows(data, alt, utility, pinned=None):
    # evalues_for on each row, its last value the final slot
    data = np.asarray(data, dtype=float)
    return (lambda: evalues_for(data, alt, utility)[:, None], data[:, :-1], data[:, -1:],
            alt, utility), pinned


def _fuzzy(calib, points, alt, utility, pinned=None):
    grid = PlugInGrid.from_points(points)
    return (lambda: [fuzzy_set(calib, grid, alt, utility).evidence], [calib], [points],
            alt, utility), pinned


IDENTITY = IidRatio(lambda z: z)
POSITIVE_PART = IidRatio(lambda z: max(z, 0.0))  # scalar-only, with exact zeros
SCALE = gaussian_scale_ratio(0.0, 1.0, 3.5)  # about 1e179 at z = +-30
AR1, COMPOSITE = ar1_kernel(0.0, 0.5, 3.5), gaussian_composite_kernel(1.0, 3.5)


def test_evidence_is_exactly_invariant_to_a_power_of_two_ratio_scale():
    # multiplying every ratio of a tuple by 2**j leaves the evidence and the
    # failures bit for bit: each utility's e-value depends on the ratios only
    # up to scale, and a power of two rounds nothing. Each draw holds ties,
    # zeros and ratios from 2**-200 to 2**200, so no 2**j with |j| <= 60
    # under- or overflows
    rng = np.random.default_rng(20261020)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        pool = np.append(rng.uniform(1.0, 2.0, 4) * np.exp2(rng.integers(-200, 201, 4)), 0.0)
        for cal, rz, j in (
            (rng.choice(pool, (1, n)), rng.choice(pool, (1, 7)), rng.integers(-60, 61)),
            (rng.choice(pool, (6, n)), rng.choice(pool, (6, 1)), rng.integers(-60, 61, (6, 1))),
        ):
            for utility in UTILITIES:
                ev, failures = _final_slot_evidence(cal, rz, utility)
                scaled, scaled_failures = _final_slot_evidence(
                    np.ldexp(cal, j), np.ldexp(rz, j), utility)
                assert scaled.tobytes() == ev.tobytes()
                for a, b in zip(scaled_failures[:3], failures[:3]):
                    assert a.tobytes() == b.tobytes()


ENGINE_RATIOS = [SCALE, gaussian_mean_shift_ratio(0.0, 1.0), POSITIVE_PART, AR1, COMPOSITE]
LATTICE_GRID = PlugInGrid.from_spec("-3:3:0.5")


@given(
    calib=st.lists(st.integers(-8, 8).map(lambda k: k / 2), min_size=1, max_size=12),
    alt=st.sampled_from(ENGINE_RATIOS),
    utility=st.sampled_from(UTILITIES),
)
@settings(max_examples=500, deadline=None)
def test_fuzzy_set_matches_scalar_evalue_loop(calib, alt, utility):
    # lattice values tie with each other and with grid points
    assert_core_matches_oracle(*_fuzzy(calib, LATTICE_GRID.points, alt, utility)[0])


# the largest float below 2: adjacent to 2.0, and both divide by 1.5 to the
# same float, so normalising by the row mean would merge them into a tie
BELOW_TWO = 1.9999999999999998
ADJACENT = IidRatio(
    lambda z: np.where(z == 1.0, 2.0, np.where(z == 0.5, BELOW_TWO, 0.5)), "adjacent")
GRID_RATIOS = ENGINE_RATIOS[:3] + [
    IidRatio(lambda z: np.where(z == 0.5, 1e5, 1.0 + np.abs(z)), "spike"),  # one dominant value
    ADJACENT,
]
LATTICE = st.integers(-8, 8).map(lambda k: k / 2)
FINE = st.integers(-256, 256).map(lambda k: k / 64)  # mostly distinct, some on the grid


@st.composite
def grid_cases(draw):
    T = draw(st.sampled_from((1, 3)))
    n = draw(st.integers(1, 10))
    value = st.one_of(LATTICE, FINE, st.sampled_from((-30.0, 30.0)))
    rows = draw(st.lists(st.lists(value, min_size=n, max_size=n), min_size=T, max_size=T))
    points = LATTICE_GRID.points
    if draw(st.booleans()):
        points = (-30.0,) + points + (30.0,)
    m = n + 1
    # alpha = k/m makes rows with k nonzero ratios boundary-feasible (k * cap = m)
    level = draw(st.integers(1, m - 1)) / m
    utility = draw(st.sampled_from(UTILITIES + [
        BoundedLog(1.0 / m), BoundedLog(level), Dampened(0.2, BoundedLog(1.0 / m))]))
    return rows, points, draw(st.sampled_from(GRID_RATIOS)), utility


@given(case=grid_cases())
@example(case=([[1.0, -1.0]], (-0.5, 0.5, 1.0), ADJACENT, NeymanPearson(0.1)))
# r_z / (calibration maximum) overflows: about 1e286 / 1e-261
@example(case=([[-5.0, -5.1]], (37.0, 38.0), gaussian_mean_shift_ratio(0.0, 30.0), Power(0.5)))
# five tied slots at the cap 1/alpha, the float 1.2, hold all of m = 6 but
# 2**-52, the final slot's exact evidence; m - fl(5 * 1.2) made it 2.5e-178
@example(case=([[0.0] * 5, [0.0] * 5, [-30.0] * 5], (-3.0, -2.5, -2.0),
               gaussian_scale_ratio(0.0, 1.0, 3.5), BoundedLog(0.8333333333333334)))
@settings(max_examples=600, deadline=None)
def test_grid_evidence_matches_evalue_at(case):
    # the core against the scalar evalue_at, point by point and row by row
    rows, points, alt, utility = case
    assert_core_matches_oracle(lambda: grid_evidence(np.array(rows), points, alt.ratio, utility),
                               rows, [points] * len(rows), alt, utility)


# ratios on a quarter lattice with exact zeros of both signs, the float
# below 2 and a dominant spike: ties within a row and with its final slot
ROW_RATIO = st.one_of(st.integers(0, 12).map(lambda k: k / 4),
                      st.sampled_from((0.0, -0.0, BELOW_TWO, 1e5)))


@st.composite
def row_cases(draw):
    T = draw(st.integers(1, 4))
    n = draw(st.integers(1, 10))
    cal = draw(st.lists(st.lists(ROW_RATIO, min_size=n, max_size=n), min_size=T, max_size=T))
    last = draw(st.lists(ROW_RATIO, min_size=T, max_size=T))
    m = n + 1
    level = draw(st.integers(1, m - 1)) / m  # alpha = k/m: boundary-feasible rows
    utility = draw(st.sampled_from(UTILITIES + [BoundedLog(1.0 / m), BoundedLog(level)]))
    return np.array(cal), np.array(last), utility


@given(case=row_cases())
@example(case=(np.array([[0.0, -0.0, 1.0], [-0.0, 0.0, 0.0]]), np.array([0.0, -0.0]), Log()))
@example(case=(np.array([[2.0, 0.5]]), np.array([BELOW_TWO]), NeymanPearson(0.1)))
# a -0.0 ratio once gave the floor path a slot at -inf: an infeasible error
# for the final slot, a miscount for a calibration slot
@example(case=(np.array([[0.25]]), np.array([-0.0]), ClippedLog(0.1)))
@example(case=(np.array([[-0.0]]), np.array([0.25]), ClippedLog(1e-9)))
@settings(max_examples=600, deadline=None)
def test_row_shape_equals_grid_shape_and_evalue_at(case):
    # each row's own final slot, (T, 1), counts the Neyman-Pearson ranks by
    # comparison where the grid shape searches, and every shape works on
    # whole blocks; both must give the same bits. Each row is also run as
    # a one-row grid whose first point is its final slot, and checked
    # against the per-orbit oracle with the identity ratio
    cal, last, utility = case
    ev, failures = _final_slot_evidence(cal, last[:, None], utility)
    zero, infeasible, residual = False, False, 0.0
    for t in range(len(cal)):
        grid = np.array([[last[t], last[t] + 1.0]])
        row_ev, row_failures = _final_slot_evidence(cal[t:t + 1], grid, utility)
        assert np.array_equal(_bits(ev[t]), _bits(row_ev[0, :1])), t
        zero |= bool(row_failures.zero[0])
        infeasible |= bool(row_failures.infeasible[0])
        residual = np.maximum(residual, row_failures.residual[0])
    assert (bool(failures.zero[0]), bool(failures.infeasible[0])) == (zero, infeasible)
    assert _bits(failures.residual[0]) == _bits(residual)

    def core():
        failures.raise_first()
        return ev

    assert_core_matches_oracle(core, cal, last[:, None], IDENTITY, utility)


# draws rounded to 0.1 tie within a row; max(z, 0) makes exact zeros, and a
# row whose ratios are all zero is dropped
_TIED = np.round(np.random.default_rng(15).normal(0.5, 1.0, size=(200, 5)), 1)
_TIED = _TIED[np.maximum(_TIED, 0).sum(axis=1) > 0]
_EXTREME = _TIED.copy()  # the scale ratio is about 1e179 at +-30
_EXTREME[::3, -1], _EXTREME[1::3, 0], _EXTREME[2::5, 2] = 30.0, -30.0, 30.0
_GAUSSIAN = sample_matrix(
    McConfig(trials=1000, seed=3, model="iid-gaussian", params={"mu": 0, "sigma": 1}), 4)
# alpha * m on an attained tail count, the sharpest test of the row-wise
# against the per-tuple threshold rule; each value of a row is final in turn
_NP_BOUNDARIES = [((0.4, 0.8, 1.2, 1.6, 2.0), 0.2), ((0.4, 0.8, 1.2, 1.6, 2.0), 0.4),
                  ((1.0, 1.0, 2.0, 2.0), 0.5), ((1.0, 2.0, 3.0), 1 / 3), ((2.0, 2.0, 2.0), 0.5)]
# the core against the oracle on fixed inputs, id -> (case, the oracle's
# evidence or error class where a test pins it)
_ORACLE_CASES = {
    # the dominant slot's ratio is ~1e5 times the others; suffix sums formed
    # as total - prefix lost ~2e-12 of the small tail
    "one-slot-dominates": _rows([(3.5, -3.0, 0.0)], AR1, BoundedLog(0.5)),
    # LR row [0]*6 + [2]*6 with cap 2: every lam >= 1 is exact, and the
    # capped mean sums to 1 - 1ulp in slot order
    "bounded-log-boundary-feasible": _rows([(0.0,) * 5 + (0.5,) * 6 + (0.0,)], POSITIVE_PART,
                                           BoundedLog(0.5), [[0.0]]),
    # 4 of 8 slots positive under cap 2 is feasible only with every positive
    # slot capped; the root lam ~ 5e12 lay past the scalar bracket's 1e12
    "root-past-the-old-bracket": _fuzzy((0, 1e5, 1e5, 0, 0, 2, 0), (1e-8, 1.0), IDENTITY,
                                        BoundedLog(0.5), [[2.0, 2.0]]),
    # 3 of 8 positive slots capped at 2 reach mean 3/4 at most
    "root-past-the-old-bracket-infeasible": _fuzzy((0, 1e5, 1e5, 0, 0, 0, 0), (1e-8, 1.0),
                                                   IDENTITY, BoundedLog(0.5),
                                                   NormalizationFailureError),
    # ratios (2.0, 0.5, BELOW_TWO), mean 1.5: z's is below one slot, gt = 1 >= alpha * m = 0.3;
    # dividing by the mean would merge the pair and share the boundary mass, 1.5 each
    "adjacent-ratios-in-exact-order": (
        (lambda: grid_evidence(np.array([[1.0, -1.0]]), (0.5,), ADJACENT.ratio, NeymanPearson(0.1)),
         [[1.0, -1.0]], [[0.5]], ADJACENT, NeymanPearson(0.1)), [[0.0]]),
    **{f"kernel-{name}-{utility_id(utility)}": _rows(_GAUSSIAN, kern, utility)
       for name, kern in (("ar1", AR1), ("composite", COMPOSITE))
       for utility in (Log(), NeymanPearson(0.1), BoundedLog(0.05), ClippedLog(0.1))},
    **{f"np-boundary-{i}-last-{last:g}": _rows(
        [tuple(v for v in vals if v != last) + tuple(v for v in vals if v == last)],
        IDENTITY, NeymanPearson(alpha))
       for i, (vals, alpha) in enumerate(_NP_BOUNDARIES) for last in sorted(set(vals))},
    **{f"tied-{name}-{utility_id(utility)}": _rows(rows, alt, utility)
       for name, rows, alt in (
           ("positive-part", _TIED, IidRatio(lambda z: np.maximum(z, 0.0))),
           ("scale", _EXTREME, SCALE), ("ar1", _TIED, AR1), ("composite", _TIED, COMPOSITE))
       for utility in (Log(), Power(-1.0), Power(0.8), Power(0.99), NeymanPearson(0.3),
                       BoundedLog(0.1), BoundedLog(1 / _TIED.shape[1]), ClippedLog(0.4),
                       Dampened(0.3, BoundedLog(0.2)))},
}


@pytest.mark.parametrize("case, pinned", list(_ORACLE_CASES.values()), ids=list(_ORACLE_CASES))
def test_core_matches_oracle(case, pinned):
    want = assert_core_matches_oracle(*case)
    assert pinned is None or want == pinned


# one spec per built-in ratio; ar1 centres on the last calibration value, a
# slot read by position, so its evidence is not exact on orbits
_EXACT_SPECS = {"gaussian-mean-shift": "gaussian-mean-shift:0:1",
                "gaussian-scale": "gaussian-scale:0:1:3",
                "ar1": pytest.param("ar1:0:0.5:3", marks=pytest.mark.xfail(
                    strict=True, reason="ROADMAP item 21")),
                "gaussian-composite": "gaussian-composite:1:3"}
_SUPPORT = np.array([-1.0, 0.0, 0.5, 2.0])


def test_exact_specs_cover_every_built_in_ratio():
    assert set(_EXACT_SPECS) == set(cli._RATIOS)


@pytest.mark.parametrize("spec", list(_EXACT_SPECS.values()), ids=list(_EXACT_SPECS))
@pytest.mark.parametrize("probs", [(0.4, 0.3, 0.2, 0.1), (0.1, 0.2, 0.3, 0.4)])
@pytest.mark.parametrize("n", [2, 5])
def test_final_slot_evidence_is_exact_under_iid_laws(spec, probs, n):
    # the mean of the final slot's evidence over every tuple of the support,
    # each weighted by its iid probability, is 1 for every utility: the
    # e-value is exact on each orbit, so valid under every exchangeable law
    idx = np.array(list(itertools.product(range(len(_SUPPORT)), repeat=n + 1)))
    weight = np.prod(np.asarray(probs)[idx], axis=1)
    alt = parse_ratio(spec)
    for utility in UTILITIES:
        mean = weight @ evalues_for(_SUPPORT[idx], alt, utility)
        assert abs(mean - 1.0) <= 1e-12, (utility_id(utility), mean)


def test_power_evidence_near_h_one_matches_50_digit_arithmetic():
    # r / max(r) rounded once and raised to s = 1 / (1 - h) turned one
    # rounding into s of them: this case gave 1.5000000001665335. The
    # oracle's 50-digit powers never take r / mean, which merges 2.0 and
    # the float below it
    ev, _ = _final_slot_evidence(np.array([[0.0, 1.9999999999999998]]), np.array([[2.0]]),
                                 Power(0.999999))
    assert ev[0, 0] == evalue_at((0.0, 1.9999999999999998, 2.0), IDENTITY, Power(0.999999)) \
        == 1.5000000000832667
    # rows whose ratios lie within a few 1/s of the largest, some zero, and a
    # final slot on either side of the calibration maximum
    rng = np.random.default_rng(2026)
    for _ in range(300):
        h = float(rng.uniform(0.999, 1.0))
        s = 1.0 / (1.0 - h)
        n = int(rng.integers(1, 30))
        row = 10.0 ** rng.uniform(-2, 2) * np.exp(
            -np.concatenate([rng.uniform(0.0, 3.0, n), rng.uniform(-3.0, 3.0, 1)]) / s)
        row[:-1][rng.random(n) < 0.1] = 0.0
        if not row[:-1].any():
            continue
        ev, failures = _final_slot_evidence(row[None, :-1], row[None, -1:], Power(h))
        failures.raise_first()
        want = evalue_at(tuple(row.tolist()), IDENTITY, Power(h))
        assert ev[0, 0] == pytest.approx(want, rel=8 * 2.0**-52, abs=0.0), (row.tolist(), h)


def test_fuzzy_set_evaluates_the_ratio_once_per_value():
    n, G = 100_000, 10_000
    base = gaussian_scale_ratio(0.0, 1.0, 3.5).ratio
    sizes = []

    def ratio(z):
        sizes.append(np.size(z))
        return base(z)

    calib = tuple(np.random.default_rng(0).normal(size=n).tolist())
    grid = PlugInGrid.from_points(np.linspace(-6.0, 6.0, G).tolist())
    tracemalloc.start()
    try:
        fset = fuzzy_set(calib, grid, IidRatio(ratio), BoundedLog(0.05))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(sizes) == n + G  # a per-point loop would evaluate G * (n + 1)
    assert peak < 32 * 2**20
    assert len(fset.evidence) == G


def _flat_fuzzy(evidence):
    grid = PlugInGrid.from_points(tuple(float(i) for i in range(len(evidence))))
    return FuzzyConfidenceSet(grid, tuple(evidence), (), "test", "test")


def test_sublevel_strict_inequality():
    fset = _flat_fuzzy([1.0, 20.0, 19.999999, 25.0])
    binary = sublevel_set(fset, 0.05)
    # 20 < 20 is false: the boundary point is excluded
    assert binary.membership == (True, False, True, False)


def test_sublevel_all_in_for_unit_evidence():
    fset = _flat_fuzzy([1.0, 1.0, 1.0])
    assert sublevel_set(fset, 0.05).membership == (True, True, True)


def test_sublevel_nested():
    rng = np.random.default_rng(3)
    fset = _flat_fuzzy(rng.uniform(0, 30, size=40))
    for a_small, a_big in ((0.01, 0.05), (0.05, 0.2), (0.2, 0.9)):
        inner = sublevel_set(fset, a_big).membership
        outer = sublevel_set(fset, a_small).membership
        assert all(o or not i for i, o in zip(inner, outer))


def test_sublevel_alpha_domain():
    fset = _flat_fuzzy([1.0, 2.0])
    with pytest.raises(ValueError):
        sublevel_set(fset, 0.0)
    with pytest.raises(ValueError):
        sublevel_set(fset, 1.5)


def test_smallest_exclusion_level():
    fset = _flat_fuzzy([20.0, 10.0, 0.0])
    assert smallest_exclusion_level(fset, 0.0) == pytest.approx(0.05)
    assert smallest_exclusion_level(fset, 1.0) == pytest.approx(0.1)
    assert smallest_exclusion_level(fset, 2.0) == math.inf
    with pytest.raises(ValueError):
        smallest_exclusion_level(fset, 7.7)  # off grid


def test_smallest_exclusion_level_excludes_at_the_least_level():
    # 1/(1/e) exceeds e for about 6% of uniform e in [1, 50], and 1/e was
    # returned: at e = 15.199299114933792 the level 0.06579250743328476 kept z
    # in the sublevel set. The level is the Monte-Carlo adversarial rule's
    rng = np.random.default_rng(26)
    e = np.concatenate([rng.uniform(1.0, 50.0, 2000), rng.uniform(0.0, 1.0, 500),
                        np.exp(rng.uniform(-700.0, 700.0, 500)),
                        [15.199299114933792, 0.0, math.inf, 5e-324, 1e-310, 0.5,
                         1.7976931348623157e308]])
    fset = _flat_fuzzy(e.tolist())
    levels = np.array([smallest_exclusion_level(fset, z) for z in fset.grid.points])
    assert np.array_equal(levels, adversarial_level_rule(e))
    below = np.nextafter(levels, 0.0)[levels > 0.0]  # infinite evidence takes level 0
    with np.errstate(divide="ignore", over="ignore"):
        assert (e >= 1.0 / levels).all()  # excluded at its level
        assert not (e[levels > 0.0] >= 1.0 / below).any()  # and at no smaller one
    assert levels[e == 0.0] == math.inf and levels[e == math.inf] == 0.0
    z = 3000.0  # e = 15.199299114933792
    level = smallest_exclusion_level(fset, z)
    assert level == math.nextafter(0.06579250743328476, 1.0)
    assert not sublevel_set(fset, level).membership[int(z)]
    assert sublevel_set(fset, math.nextafter(level, 0.0)).membership[int(z)]


def test_randomized_binary_at_its_top_draw_is_the_sublevel_set():
    # evidence exactly 1/alpha was kept by the randomized set at u = 1, which
    # compared alpha * e with u, while the sublevel set excluded it
    rng = np.random.default_rng(27)
    for a in rng.uniform(0.0, 1.0, 2000):
        a = float(a)
        if a == 0.0:
            continue
        thr = 1.0 / a
        fset = _flat_fuzzy([math.nextafter(thr, 0.0), thr, math.nextafter(thr, math.inf),
                            0.0, math.inf])
        assert randomized_binary(fset, a, 1.0).membership == sublevel_set(fset, a).membership, a


def test_least_levels_agree_at_the_edges_of_the_float_range():
    # the scalar and the elementwise least level are one walk; NaN evidence
    # ends it at +inf rather than stepping up forever
    edges = [0.0, -0.0, 5e-324, 1e-320, 2.2250738585072009e-308, 1e-310,
             2.2250738585072014e-308, math.inf]
    fset = _flat_fuzzy(edges)
    levels = [smallest_exclusion_level(fset, z) for z in fset.grid.points]
    assert np.array_equal(levels, adversarial_level_rule(np.array(edges)))
    assert levels[0] == levels[1] == math.inf and levels[-1] == 0.0

    class NanSet:  # a fuzzy set rejects NaN evidence; the walk must still end
        def evidence_at(self, z):
            return math.nan

    assert smallest_exclusion_level(NanSet(), 0.0) == math.inf
    nan_levels = adversarial_level_rule(np.array([math.nan, 2.0, math.nan]))
    assert nan_levels[0] == nan_levels[2] == math.inf and nan_levels[1] == 0.5


def test_randomized_binary_edges():
    zero = _flat_fuzzy([0.0, 0.0])
    for u in (0.01, 0.5, 1.0):
        assert randomized_binary(zero, 0.1, u).membership == (True, True)
    cap = _flat_fuzzy([10.0, 0.0])
    assert randomized_binary(cap, 0.1, 0.5).membership == (False, True)
    for alpha, u in ((0.0, 0.5), (1.0, 0.5), (math.nan, 0.5)):
        with pytest.raises(ValueError, match=r"^alpha must lie in \(0, 1\)$"):
            randomized_binary(cap, alpha, u)
    for u in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError, match=r"^u must lie in \[0, 1\]$"):
            randomized_binary(cap, 0.1, u)


def test_randomized_binary_marginal_frequency():
    # a point with exclusion degree alpha*e = 0.3 is excluded for u <= 0.3
    fset = _flat_fuzzy([3.0, 0.0])
    rng = np.random.default_rng(11)
    draws = rng.uniform(0, 1, size=20000)
    excluded = sum(not randomized_binary(fset, 0.1, float(u)).membership[0] for u in draws)
    freq = excluded / draws.size
    assert freq == pytest.approx(0.3, abs=3 * math.sqrt(0.3 * 0.7 / draws.size))


def test_csv_serialization():
    fset = _flat_fuzzy([1.0, 2.5])
    buf = io.StringIO()
    fset.to_csv(buf)
    assert buf.getvalue() == "z,evidence\n0,1\n1,2.5\n"
    binary = sublevel_set(fset, 0.5)
    buf2 = io.StringIO()
    binary.to_csv(buf2)
    assert buf2.getvalue() == "z,evidence,membership\n0,1,1\n1,2.5,0\n"


def _csv_module_oracle(header, rows):
    # the csv.writer serializer the one-pass writer replaced, kept as reference
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format(x, ".17g") if isinstance(x, float) else str(x) for x in row])
    return buf.getvalue()


def _assert_csv_matches_oracle(rows):
    grid = PlugInGrid.from_points(z for z, _, _ in rows)
    evidence = tuple(e for _, e, _ in rows)
    membership = tuple(m for _, _, m in rows)
    fuzzy = FuzzyConfidenceSet(grid, evidence, ())
    binary = BinaryConfidenceSet(grid, membership, 0.1, evidence)
    for conf, header, oracle_rows in (
        (fuzzy, ["z", "evidence"], zip(grid.points, evidence)),
        (binary, ["z", "evidence", "membership"],
         zip(grid.points, evidence, map(int, membership))),
    ):
        buf = io.StringIO()
        conf.to_csv(buf)
        assert buf.getvalue() == _csv_module_oracle(header, oracle_rows)


_CSV_EDGES = (math.inf, -0.0, 5e-324, 1e308, 0.1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                          st.sampled_from(_CSV_EDGES) | st.floats(min_value=0.0),
                          st.booleans()), min_size=2, max_size=40))
@example([(-1e308, math.inf, True), (-0.0, -0.0, False), (5e-324, 5e-324, True),
          (0.1, 1e308, False), (1e308, 0.1, True)])
def test_csv_writer_matches_the_csv_module(rows):
    rows = sorted({z: (z, e, m) for z, e, m in rows}.values())  # one row per grid value
    assume(len(rows) >= 2)
    _assert_csv_matches_oracle(rows)


def test_csv_writer_to_a_path_matches_the_csv_module(tmp_path):
    evidence = tuple(_CSV_EDGES[i % 5] for i in range(10))
    fset = FuzzyConfidenceSet(PlugInGrid.from_points(range(10)), evidence, ())
    fset.to_csv(tmp_path / "f.csv")
    assert (tmp_path / "f.csv").read_bytes() == \
        _csv_module_oracle(["z", "evidence"], zip(fset.grid.points, fset.evidence)).encode()


def test_json_round_trip():
    grid = PlugInGrid.from_points((0.0, 1.0, 2.0))
    fset = FuzzyConfidenceSet(grid, (0.5, 1.0, 4.0), (9.0, 8.0), "alt-id", "log")
    doc = json.loads(json.dumps(fset.to_json_doc()))
    back = FuzzyConfidenceSet.from_json_doc(doc)
    assert back == fset
    binary = sublevel_set(fset, 0.25)
    back2 = BinaryConfidenceSet.from_json_doc(json.loads(json.dumps(binary.to_json_doc())))
    assert back2 == binary
    assert load_confidence_set(doc) == fset
    with pytest.raises(ValueError):
        load_confidence_set({"kind": "nope"})
    with pytest.raises(ValueError, match="^not a fuzzy confidence set document: "
                                         "'binary-confidence-set'$"):
        FuzzyConfidenceSet.from_json_doc(binary.to_json_doc())


def test_fuzzy_set_rejects_empty_calibration():
    grid = PlugInGrid.from_points((0.0, 1.0))
    with pytest.raises(ValueError):
        fuzzy_set((), grid, IidRatio(lambda z: 1.0), Log())
