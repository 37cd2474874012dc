import csv
import io
import json
import math
import tracemalloc
from decimal import Decimal, localcontext
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
from fuzzyconf.cli import parse_utility
from fuzzyconf.confidence import _final_slot_evidence, fuzzy_set, grid_evidence
from fuzzyconf.errors import (
    AllZeroRatioError, DomainError, FuzzyconfError, NormalizationFailureError,
)
from fuzzyconf.evalues import BoundedLog, ClippedLog, Dampened, Log, NeymanPearson, Power
from fuzzyconf.reference import conditional_lr_iid, evalue_at, np_threshold
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
    # all eleven slots tie at 39.3
    alt, grid = gaussian_scale_ratio(0.0, 1.0, 3.5), PlugInGrid.from_spec("39.1:39.3:0.1")
    top = Fraction(alt.ratio(39.3))
    exact = [float(11 * Fraction(alt.ratio(z)) / (10 * top + Fraction(alt.ratio(z))))
             for z in grid]
    assert exact == [0.0008211830808510724, 0.02983724543047306, 1.0]
    assert list(fuzzy_set([39.3] * 10, grid, alt, Log()).evidence) == exact


ENGINE_UTILITIES = [parse_utility(u) for u in (
    "log", "np:0.01", "np:0.3", "np:1e-6", "bounded-log:0.05", "bounded-log:0.5",
    "bounded-log:1e-6", "clipped-log:0.1", "clipped-log:1", "clipped-log:1e-9", "power:0.99",
    "power:0.999999", "power:-50", "power:0.5", "dampened:0.2:np:0.1",
)]
ENGINE_RATIOS = [
    gaussian_scale_ratio(0.0, 1.0, 3.5),
    gaussian_mean_shift_ratio(0.0, 1.0),
    IidRatio(lambda z: max(z, 0.0)),  # scalar-only, with exact zeros
    ar1_kernel(0.0, 0.5, 3.5),
    gaussian_composite_kernel(1.0, 3.5),
]
LATTICE_GRID = PlugInGrid.from_spec("-3:3:0.5")


@given(
    calib=st.lists(st.integers(-8, 8).map(lambda k: k / 2), min_size=1, max_size=12),
    alt=st.sampled_from(ENGINE_RATIOS),
    utility=st.sampled_from(ENGINE_UTILITIES),
)
@settings(max_examples=500, deadline=None)
def test_fuzzy_set_matches_scalar_evalue_loop(calib, alt, utility):
    # lattice values tie with each other and with grid points
    try:
        want = [evalue_at(tuple(calib) + (z,), alt, utility) for z in LATTICE_GRID]
    except FuzzyconfError as exc:
        with pytest.raises(FuzzyconfError) as raised:
            fuzzy_set(calib, LATTICE_GRID, alt, utility)
        assert type(raised.value) is type(exc)
        return
    got = fuzzy_set(calib, LATTICE_GRID, alt, utility).evidence
    if isinstance(utility, NeymanPearson) or (
            isinstance(utility, Dampened) and isinstance(utility.inner, NeymanPearson)):
        assert list(got) == want
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


# the largest float below 2: adjacent to 2.0, and both divide by 1.5 to the
# same float, so normalising by the row mean merges them into a tie
BELOW_TWO = 1.9999999999999998
ADJACENT = IidRatio(
    lambda z: np.where(z == 1.0, 2.0, np.where(z == 0.5, BELOW_TWO, 0.5)), "adjacent")
GRID_RATIOS = [
    gaussian_scale_ratio(0.0, 1.0, 3.5),  # about 1e179 at z = +-30
    gaussian_mean_shift_ratio(0.0, 1.0),
    IidRatio(lambda z: max(z, 0.0)),  # scalar-only, with exact zeros
    IidRatio(lambda z: np.where(z == 0.5, 1e5, 1.0 + np.abs(z)), "spike"),  # one dominant value
    ADJACENT,
]
GRID_UTILITIES = [parse_utility(u) for u in (
    "log", "np:0.01", "np:0.1", "np:0.3", "bounded-log:0.05", "bounded-log:0.5",
    "clipped-log:0.1", "clipped-log:1", "power:-5", "power:0.5", "power:0.99",
    "dampened:0.2:np:0.1", "dampened:0.3:clipped-log:0.1", "dampened:0.2:bounded-log:0.05",
)]
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
    utility = draw(st.sampled_from(GRID_UTILITIES + [
        BoundedLog(1.0 / m), BoundedLog(level), Dampened(0.2, BoundedLog(1.0 / m))]))
    return rows, points, draw(st.sampled_from(GRID_RATIOS)), utility


def _is_np(utility):
    return isinstance(utility, NeymanPearson) or (
        isinstance(utility, Dampened) and isinstance(utility.inner, NeymanPearson))


def _np_on_ratios(raw, utility):
    # the NP e-value at each row's final slot, counted on the raw ratios
    b, np_u = (utility.b, utility.inner) if isinstance(utility, Dampened) else (0.0, utility)
    m, am, last = raw.shape[1], np_u.alpha * raw.shape[1], raw[:, -1:]
    gt, eq = (raw > last).sum(axis=1), (raw == last).sum(axis=1)
    boundary = (1.0 - gt / am) * (m / eq)
    e = np.where(gt + eq < am, 1.0 / np_u.alpha, np.where(gt < am, boundary, 0.0))
    return b + (1.0 - b) * e if b else e


def _keeps_order(row, ratio):
    # no two distinct ratios of the tuple share one likelihood ratio
    prof = conditional_lr_iid(tuple(row), ratio)
    return len(set(prof.lr)) == len({float(ratio(v)) for v in prof.values})


@given(case=grid_cases())
@example(case=([[1.0, -1.0]], (-0.5, 0.5, 1.0), ADJACENT, NeymanPearson(0.1)))
# r_z / (calibration maximum) overflows: about 1e286 / 1e-261
@example(case=([[-5.0, -5.1]], (37.0, 38.0), gaussian_mean_shift_ratio(0.0, 30.0), Power(0.5)))
@settings(max_examples=600, deadline=None)
def test_grid_evidence_matches_evalue_at(case):
    # the core against the scalar evalue_at, point by point and row by row
    rows, points, alt, utility = case
    rows = np.array(rows)
    want = np.empty((rows.shape[0], len(points)))
    for g, z in enumerate(points):
        errors = []
        for t, row in enumerate(rows):
            try:
                want[t, g] = evalue_at(tuple(row) + (z,), alt, utility)
            except FuzzyconfError as exc:
                errors.append(exc)
        if errors:
            # the lowest failing point decides; an all-zero tuple comes first
            kinds = {type(e) for e in errors}
            with pytest.raises(FuzzyconfError) as raised:
                grid_evidence(rows, points, alt.ratio, utility)
            assert type(raised.value) is (
                AllZeroRatioError if AllZeroRatioError in kinds else type(errors[0]))
            return
    got = grid_evidence(rows, points, alt.ratio, utility)
    if _is_np(utility):
        # NP compares ratios, which need no normalising: the core counts on
        # the raw ratios in exact order. Dividing by the tuple mean can round
        # two adjacent ratios to one value (the pinned example: 2.0 and the
        # float below it over the mean 1.5), and the tie it makes is not in
        # the likelihood ratio, which is r / mean in exact arithmetic.
        augmented = [np.column_stack([rows, np.full(len(rows), z)]) for z in points]
        raw = [np.vectorize(alt.ratio, otypes=[float])(aug) for aug in augmented]
        assert np.array_equal(got, np.column_stack([_np_on_ratios(r, utility) for r in raw]))
        if all(_keeps_order(row, alt.ratio) for aug in augmented for row in aug):
            assert np.array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_grid_evidence_counts_adjacent_ratios_in_exact_order():
    # tuple (1.0, -1.0, 0.5) has ratios (2.0, 0.5, BELOW_TWO), mean 1.5
    aug = (1.0, -1.0, 0.5)
    prof = conditional_lr_iid(aug, ADJACENT.ratio)
    assert prof.lr_at(1.0) == prof.lr_at(0.5)  # the division merged them
    got = grid_evidence(np.array([aug[:2]]), (0.5,), ADJACENT.ratio, NeymanPearson(0.1))
    # z's ratio is strictly below one other slot: gt = 1 >= alpha * m = 0.3
    assert got[0, 0] == 0.0
    # the merged count shares the boundary mass between the pair instead
    assert evalue_at(aug, ADJACENT, NeymanPearson(0.1)) == 1.5


ROW_UTILITIES = [parse_utility(u) for u in (
    "log", "np:1e-6", "np:0.1", "np:0.3", "bounded-log:1e-6", "bounded-log:0.05",
    "bounded-log:0.5", "clipped-log:1e-9", "clipped-log:0.1", "clipped-log:1", "power:-50",
    "power:0.5", "power:0.99", "power:0.999999", "dampened:0.2:np:0.1",
    "dampened:0.3:clipped-log:0.1", "dampened:0.2:bounded-log:0.05",
)]
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
    utility = draw(st.sampled_from(ROW_UTILITIES + [BoundedLog(1.0 / m), BoundedLog(level)]))
    return np.array(cal), np.array(last), utility


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


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

    identity = IidRatio(lambda z: z)
    kinds = set()
    want = np.empty(len(cal))
    for t, row in enumerate(cal):
        try:
            want[t] = evalue_at(tuple(row) + (last[t],), identity, utility)
        except FuzzyconfError as exc:
            kinds.add(type(exc))
    if kinds:
        with pytest.raises((AllZeroRatioError, NormalizationFailureError)) as raised:
            failures.raise_first()
        assert type(raised.value) is (
            AllZeroRatioError if AllZeroRatioError in kinds else NormalizationFailureError)
        return
    failures.raise_first()
    raw = np.column_stack([cal, last])
    if _is_np(utility):
        assert np.array_equal(ev[:, 0], _np_on_ratios(raw, utility))
        if all(_keeps_order(row, identity.ratio) for row in raw):
            assert np.array_equal(ev[:, 0], want)
    else:
        # r^s with s = 1 / (1 - h) moves by s ulps when r moves by one, and
        # both paths round r / max(r) once (the oracle merges adjacent floats)
        s = 1.0 / (1.0 - utility.h) if isinstance(utility, Power) else 1.0
        np.testing.assert_allclose(ev[:, 0], want, rtol=max(1e-12, 8.0 * s * 2.0**-52), atol=0.0)


def _power_at_50_digits(row, h: float) -> float:
    # m * r_z^s / sum(r^s) over the augmented row, each power taken relative
    # to the calibration maximum, with the ratios and h read exactly
    with localcontext() as ctx:
        ctx.prec = 50
        s = 1 / (1 - Decimal(h))
        top = max(Decimal(r) for r in row[:-1]) or Decimal(1)
        w = [(s * (Decimal(r) / top).ln()).exp() if r > 0 else Decimal(0) for r in row]
        return float(len(row) * w[-1] / sum(w))


def test_power_evidence_near_h_one_matches_50_digit_arithmetic():
    # r / max(r) rounded once and raised to s = 1 / (1 - h) turned one
    # rounding into s of them: this case gave 1.5000000001665335
    ev, _ = _final_slot_evidence(np.array([[0.0, 1.9999999999999998]]), np.array([[2.0]]),
                                 Power(0.999999))
    assert ev[0, 0] == _power_at_50_digits([0.0, 1.9999999999999998, 2.0], 0.999999) \
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
        want = _power_at_50_digits(row.tolist(), h)
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
    with pytest.raises(DomainError):
        sublevel_set(fset, 0.0)
    with pytest.raises(DomainError):
        sublevel_set(fset, 1.5)


def test_smallest_exclusion_level():
    fset = _flat_fuzzy([20.0, 10.0, 0.0])
    assert smallest_exclusion_level(fset, 0.0) == pytest.approx(0.05)
    assert smallest_exclusion_level(fset, 1.0) == pytest.approx(0.1)
    assert smallest_exclusion_level(fset, 2.0) == math.inf
    with pytest.raises(ValueError):
        smallest_exclusion_level(fset, 7.7)  # off grid


def test_randomized_binary_edges():
    zero = _flat_fuzzy([0.0, 0.0])
    for u in (0.01, 0.5, 1.0):
        assert randomized_binary(zero, 0.1, u).membership == (True, True)
    cap = _flat_fuzzy([10.0, 0.0])
    assert randomized_binary(cap, 0.1, 0.5).membership == (False, True)


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


def test_fuzzy_set_rejects_empty_calibration():
    grid = PlugInGrid.from_points((0.0, 1.0))
    with pytest.raises(ValueError):
        fuzzy_set((), grid, IidRatio(lambda z: 1.0), Log())
