"""The frozen records on ``fuzzyconf.sets._Frozen``: construction, equality,
hashing, repr, immutability and copy/pickle round trips, for the containers
of ``sets`` and for records of the other modules."""

import copy
import pickle

import pytest

from fuzzyconf.decisions import CertifiedDecision, DecisionProblem, LevelDecision
from fuzzyconf.evalues import BoundedLog, Dampened, Log, NeymanPearson
from fuzzyconf.harness import McConfig, McReport
from fuzzyconf.reference import orbit_of
from fuzzyconf.sets import BinaryConfidenceSet, FuzzyConfidenceSet, PlugInGrid

GRID = PlugInGrid((0.0, 0.5, 1.0))


def _fuzzy(**changes):
    fields = dict(grid=GRID, evidence=(0.5, 1.0, 4.0), calibration=(0.1, 0.2),
                  alternative="alt", utility="log")
    return FuzzyConfidenceSet(**{**fields, **changes})


def _binary(**changes):
    fields = dict(grid=GRID, membership=(True, True, False), alpha=0.25,
                  evidence=(0.5, 1.0, 4.0), calibration=(0.1, 0.2), alternative="alt",
                  utility="log")
    return BinaryConfidenceSet(**{**fields, **changes})


def _orbit():
    orbit = orbit_of((2.0, 1.0, 2.0))
    orbit.values  # cached in the instance __dict__, beside the fields
    return orbit


# records of the other modules, each built anew by its factory
RECORDS = [
    Log,
    lambda: Dampened(0.5, NeymanPearson(0.1)),
    lambda: McConfig(1000, 0, "iid-gaussian"),
    lambda: McReport("evalue", 1.0, 0.01, 1.0, True, 1000, 0, "iid-gaussian"),
    lambda: CertifiedDecision(1, "act", 0.5, "as-if", alpha=0.1, set_provenance="p"),
    lambda: LevelDecision(0.1, None),
    lambda: DecisionProblem(("hold", "act"), (0.0, 1.0), ((1.0, 1.0), (0.0, 2.0))),
    _orbit,
]


def _same_hash(a, b) -> bool:
    if isinstance(a, McConfig):  # its params dict makes it unhashable
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(a)
        return True
    return hash(a) == hash(b)


def test_fields_bind_positionally_and_by_keyword_with_defaults():
    assert PlugInGrid([0, 1]).points == (0.0, 1.0)
    assert PlugInGrid(points=(0.0, 1.0)) == PlugInGrid((0, 1))
    positional = FuzzyConfidenceSet(GRID, (0.5, 1.0, 4.0), (0.1, 0.2), "alt", "log")
    assert positional == _fuzzy()
    default = FuzzyConfidenceSet(GRID, (1.0, 1.0, 1.0), ())
    assert (default.alternative, default.utility) == ("unspecified", "unspecified")
    binary = BinaryConfidenceSet(GRID, (True, False, True), 0.5, (1.0, 2.0, 1.0))
    assert (binary.calibration, binary.alternative, binary.utility) == \
        ((), "unspecified", "unspecified")
    assert BinaryConfidenceSet(GRID, (True, True, False), 0.25, (0.5, 1.0, 4.0),
                               utility="log", alternative="alt",
                               calibration=(0.1, 0.2)) == _binary()
    match GRID:
        case PlugInGrid(points):
            assert points == GRID.points


@pytest.mark.parametrize("make", [
    lambda: PlugInGrid(),
    lambda: PlugInGrid((0.0, 1.0), (2.0, 3.0)),
    lambda: PlugInGrid(points=(0.0, 1.0), step=1.0),
    lambda: PlugInGrid((0.0, 1.0), points=(0.0, 1.0)),
    lambda: FuzzyConfidenceSet(GRID, (1.0, 1.0, 1.0)),
    lambda: BinaryConfidenceSet(GRID, (True, True, True), 0.5, (1.0, 1.0, 1.0), (), "a", "u", 1),
])
def test_bad_arguments_raise_type_error(make):
    with pytest.raises(TypeError):
        make()


@pytest.mark.parametrize("make, message", [
    (lambda: PlugInGrid((1.0,)), "a plug-in grid needs at least two points"),
    (lambda: PlugInGrid((0.0, float("inf"))), "grid points must be finite"),
    (lambda: PlugInGrid((0.0, 0.0)), "grid points must be strictly increasing"),
    (lambda: _fuzzy(evidence=(1.0, 1.0)), "evidence and grid lengths differ"),
    (lambda: _fuzzy(evidence=(1.0, float("nan"), 1.0)), "evidence must be nonnegative"),
    (lambda: _binary(membership=(True,)), "membership, evidence and grid lengths differ"),
    (lambda: _binary(alpha=0.0), r"alpha must lie in \(0, 1\]"),
])
def test_post_init_checks(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def test_equality_and_hash_follow_the_fields_within_one_class():
    assert _fuzzy() == _fuzzy() and hash(_fuzzy()) == hash(_fuzzy())
    assert _fuzzy() != _fuzzy(utility="np")
    assert _binary() == _binary() and hash(_binary()) == hash(_binary())
    assert _binary() != _binary(alpha=0.5)
    assert len({_fuzzy(), _fuzzy(), _binary(), _binary()}) == 2
    assert GRID != GRID.points and GRID.points != GRID
    # same field values under another class are not equal
    assert PlugInGrid((0.0, 1.0)) != _FakeGrid((0.0, 1.0))
    for make in RECORDS:
        assert make() == make() and _same_hash(make(), make()), make()
        assert make() != _fuzzy()
    assert NeymanPearson(0.1) != BoundedLog(0.1)
    # each default config owns its params dict, as a default factory gave
    assert McConfig(1000, 0, "iid-gaussian").params is not McConfig(1000, 0, "iid-gaussian").params


class _FakeGrid(PlugInGrid):
    pass


def test_repr_lists_every_field():
    assert repr(PlugInGrid((0, 1))) == "PlugInGrid(points=(0.0, 1.0))"
    assert repr(_fuzzy()) == (
        "FuzzyConfidenceSet(grid=PlugInGrid(points=(0.0, 0.5, 1.0)), "
        "evidence=(0.5, 1.0, 4.0), calibration=(0.1, 0.2), alternative='alt', utility='log')")
    assert repr(_binary()) == (
        "BinaryConfidenceSet(grid=PlugInGrid(points=(0.0, 0.5, 1.0)), "
        "membership=(True, True, False), alpha=0.25, evidence=(0.5, 1.0, 4.0), "
        "calibration=(0.1, 0.2), alternative='alt', utility='log')")


@pytest.mark.parametrize("obj", [GRID, _fuzzy(), _binary(), *(make() for make in RECORDS)],
                         ids=lambda obj: type(obj).__name__)
@pytest.mark.parametrize("name", ["grid", "points", "evidence", "alpha", "extra", "params",
                                  "loss", "representative"])
def test_assignment_and_deletion_raise(obj, name):
    with pytest.raises(AttributeError):
        setattr(obj, name, None)
    if hasattr(obj, name):
        with pytest.raises(AttributeError):
            delattr(obj, name)


@pytest.mark.parametrize("obj", [GRID, _fuzzy(), _binary(), *(make() for make in RECORDS)],
                         ids=lambda obj: type(obj).__name__)
@pytest.mark.parametrize("clone", [
    copy.copy, copy.deepcopy,
    *(lambda o, p=p: pickle.loads(pickle.dumps(o, protocol=p))
      for p in range(pickle.HIGHEST_PROTOCOL + 1)),
])
def test_copy_and_pickle_round_trip(obj, clone):
    again = clone(obj)
    assert type(again) is type(obj) and again == obj and _same_hash(again, obj)
    assert repr(again) == repr(obj)
    with pytest.raises(AttributeError):
        again.alternative = "changed"
