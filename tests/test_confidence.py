import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fuzzyconf.alternatives import (
    IidRatio,
    OrbitWeights,
    ar1_kernel,
    gaussian_composite_kernel,
    gaussian_mean_shift_ratio,
    gaussian_scale_ratio,
)
from fuzzyconf.cli import parse_utility
from fuzzyconf.confidence import (
    BinaryConfidenceSet,
    FuzzyConfidenceSet,
    PlugInGrid,
    fuzzy_set,
    grid_evidence,
    load_confidence_set,
    randomized_binary,
    smallest_exclusion_level,
    sublevel_set,
)
from fuzzyconf.errors import DomainError, FuzzyconfError
from fuzzyconf.evalues import (
    BoundedLog,
    Dampened,
    Log,
    NeymanPearson,
    evalue_at,
    evalue_rows,
    np_threshold,
)
from fuzzyconf.alternatives import conditional_lr_iid, lr_matrix


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


ENGINE_UTILITIES = [parse_utility(u) for u in (
    "log", "np:0.01", "np:0.3", "bounded-log:0.05", "bounded-log:0.5", "clipped-log:0.1",
    "clipped-log:1", "power:0.99", "power:-50", "power:0.5", "dampened:0.2:np:0.1",
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


def _keeps_order(raw, lr):
    # no two distinct ratios of a row share one likelihood ratio
    return all(len(set(r.tolist())) == len(set(x.tolist())) for r, x in zip(raw, lr))


@given(case=grid_cases())
@example(case=([[1.0, -1.0]], (-0.5, 0.5, 1.0), ADJACENT, NeymanPearson(0.1)))
@settings(max_examples=600, deadline=None)
def test_grid_evidence_matches_row_engine(case):
    rows, points, alt, utility = case
    rows = np.array(rows)
    T = rows.shape[0]
    augmented = [np.column_stack([rows, np.full(T, z)]) for z in points]
    try:
        want = np.column_stack([evalue_rows(lr_matrix(aug, alt.ratio), utility) for aug in augmented])
    except FuzzyconfError as exc:
        with pytest.raises(FuzzyconfError) as raised:
            grid_evidence(rows, points, alt.ratio, utility)
        assert type(raised.value) is type(exc)
        return
    got = grid_evidence(rows, points, alt.ratio, utility)
    if _is_np(utility):
        # NP compares ratios, which need no normalising: on the raw ratios the
        # row engine counts in exact order. Dividing by the row mean can round
        # two adjacent ratios to one value (the pinned example: 2.0 and the
        # float below it over the mean 1.5), and the tie it makes is not in the
        # likelihood ratio, which is r / mean in exact arithmetic.
        raw = [np.vectorize(alt.ratio, otypes=[float])(aug) for aug in augmented]
        exact = np.column_stack([evalue_rows(r, utility) for r in raw])
        assert np.array_equal(got, exact)
        if all(_keeps_order(r, lr_matrix(aug, alt.ratio)) for r, aug in zip(raw, augmented)):
            assert np.array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_grid_evidence_counts_adjacent_ratios_in_exact_order():
    # tuple (1.0, -1.0, 0.5) has ratios (2.0, 0.5, BELOW_TWO), mean 1.5
    aug = np.array([[1.0, -1.0, 0.5]])
    lr = lr_matrix(aug, ADJACENT.ratio)
    assert lr[0, 0] == lr[0, 2]  # the division merged them
    got = grid_evidence(aug[:, :2], (0.5,), ADJACENT.ratio, NeymanPearson(0.1))
    # z's ratio is strictly below one other slot: gt = 1 >= alpha * m = 0.3
    assert got[0, 0] == 0.0
    # the merged count shares the boundary mass between the pair instead
    assert evalue_rows(lr, NeymanPearson(0.1))[0] == 1.5


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


def test_fuzzy_set_rejects_orbit_weights():
    # one mapping is exact on every augmented orbit only if it weighs all
    # grid points alike, which leaves nothing to invert
    grid = PlugInGrid.from_points((0.0, 1.0))
    weights = OrbitWeights({0.0: 0.25, 1.0: 0.25, 2.0: 0.25})
    with pytest.raises(TypeError):
        fuzzy_set((2.0, 2.0), grid, weights, Log())
