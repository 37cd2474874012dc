import itertools

import pytest
from hypothesis import given, strategies as st

from fuzzyconf.orbits import DataTuple, Orbit, orbit_of, rank_of_last

finite_floats = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e9, max_value=1e9)


def test_orbit_of_sorts():
    orb = orbit_of((3, 1, 2))
    assert orb.representative == (1.0, 2.0, 3.0)
    assert orb.values == (1.0, 2.0, 3.0) and orb.counts == (1, 1, 1)


def test_orbit_of_degenerate():
    orb = orbit_of((1, 1, 1))
    assert orb.representative == (1.0, 1.0, 1.0)
    assert orb.values == (1.0,) and orb.counts == (3,)


def test_orbit_of_ties():
    orb = orbit_of((2, 1, 2, 5))
    assert orb.representative == (1.0, 2.0, 2.0, 5.0)
    assert orb.values == (1.0, 2.0, 5.0) and orb.counts == (1, 2, 1)


def test_orbit_rejects_nonfinite():
    with pytest.raises(ValueError):
        orbit_of((1.0, float("nan")))
    with pytest.raises(ValueError):
        orbit_of((1.0, float("inf")))
    with pytest.raises(ValueError):
        orbit_of(())


def test_rank_of_last_examples():
    assert rank_of_last((3, 1, 2)) == 2
    assert rank_of_last((1, 1, 1)) == 1
    # lowest index among the block of equal values
    assert rank_of_last((5, 2, 2, 2)) == 1


def brute_rank(vals):
    rep = sorted(vals)
    return min(i + 1 for i, v in enumerate(rep) if v == vals[-1])


@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=2, max_size=8))
def test_rank_matches_brute_force(vals):
    assert rank_of_last(vals) == brute_rank([float(v) for v in vals])


@given(st.lists(finite_floats, min_size=2, max_size=8), st.randoms())
def test_permutation_invariance(vals, rnd):
    orb = orbit_of(vals)
    shuffled = list(vals)
    rnd.shuffle(shuffled)
    assert orbit_of(shuffled) == orb


def test_permutation_invariance_exhaustive_small():
    vals = (2.0, 1.0, 2.0, 5.0)
    orbits = {orbit_of(p) for p in itertools.permutations(vals)}
    assert len(orbits) == 1


@given(st.lists(finite_floats, min_size=2, max_size=10))
def test_multiplicities_partition(vals):
    orb = orbit_of(vals)
    assert sum(orb.counts) == orb.size == len(vals)
    assert all(c >= 1 for c in orb.counts)
    assert orb.values == tuple(sorted(set(orb.representative)))


def test_data_tuple_validation():
    t = DataTuple((3, 1, 2))
    assert t.last == 2.0
    assert t.lead == (3.0, 1.0)
    assert len(t) == 3
    with pytest.raises(ValueError):
        DataTuple((1.0,))
    with pytest.raises(ValueError):
        DataTuple((1.0, float("nan")))


def test_orbit_requires_sorted_representative():
    with pytest.raises(ValueError):
        Orbit((2.0, 1.0))


def test_negative_zero_collapses():
    assert orbit_of((-0.0, 0.0)).values == (0.0,)
    assert rank_of_last((0.0, -0.0)) == 1
