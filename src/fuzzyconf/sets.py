"""Plug-in grids and confidence sets: the containers every subcommand shares.

A fuzzy confidence set maps each plug-in value z to nonnegative evidence
against it: the reciprocal of the smallest significance level at which z is
excluded. Evidence e excludes z at level alpha when e >= 1/alpha, 1/alpha
rounded once: ``_excludes`` is the package's one exclusion rule and
``_least_levels`` its inverse. Binary sets are recovered as strict sublevel
sets {z : evidence(z) < 1/alpha}, or by randomizing the exclusion degree.

Grids are explicit and fixed; membership between grid points is deliberately
undefined rather than interpolated, so outputs are reproducible bit for bit.

This module imports no numpy, so the closed-form Gaussian curves, the set
documents and ``decide`` load without it (the least-level walk imports it
when called); the engine that computes conformal evidence is
``confidence``. The document readers take JSON numbers, and of strings
only the "inf" the writers emit.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left
from typing import Iterable, Union

_REL_STEP_TOL = 1e-9
# A grid spec may give at most this many points, round(span / step) + 1;
# larger specs are rejected before any point is built.
MAX_GRID_POINTS = 10**7


class _Frozen:
    """Frozen record base of the containers below and of every other record
    the package defines, bar ``alternatives.IidRatio`` and
    ``KernelAlternative``, which callers copy with the standard library's
    ``replace``. It is written out rather than generated by the standard
    library's record decorator, whose import and code generation would
    dominate the start-up of the closed-form calls and of ``decide``.

    A subclass declares its fields once, as class annotations in order, each
    default as the class attribute of that name. It gets an ``__init__``
    taking the fields positionally or by keyword, then calling
    ``__post_init__`` (a no-op unless overridden); equality within one
    class; a hash of the field tuple; a ``Name(field=value, ...)`` repr; and
    assignment or deletion raising ``AttributeError``. Fields live in the
    instance ``__dict__``, so copy and pickle restore them without calling
    ``__setattr__``, and a ``functools.cached_property`` caches there too.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        if cls.__annotations__:  # a subclass that declares no field keeps its parent's
            cls._fields = cls.__match_args__ = tuple(cls.__annotations__)
            cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
        if (len(args) > len(fields) or values.keys() != set(fields)
                or not kwargs.keys().isdisjoint(fields[:len(args)])):
            raise TypeError(f"{type(self).__qualname__}() takes the fields {', '.join(fields)}; "
                            f"got {len(args)} positional and the keywords {sorted(kwargs)}")
        self.__dict__.update((f, values[f]) for f in fields)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(self.__dict__[f] for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={self.__dict__[f]!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class PlugInGrid(_Frozen):
    """Strictly increasing grid of plug-in values for the prediction target."""

    points: tuple[float, ...]

    def __post_init__(self) -> None:
        pts = tuple(float(p) for p in self.points)
        if len(pts) < 2:
            raise ValueError("a plug-in grid needs at least two points")
        if any(not math.isfinite(p) for p in pts):
            raise ValueError("grid points must be finite")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("grid points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @classmethod
    def from_spec(cls, spec: str) -> "PlugInGrid":
        """Parse "min:max:step" with inclusive endpoints and step > 0."""
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid spec must be min:max:step, got {spec!r}")
        try:
            lo, hi, step = map(float, parts)
        except ValueError:
            raise ValueError(f"grid spec {spec!r} must be min:max:step numbers") from None
        span = hi - lo
        if not all(math.isfinite(x) for x in (lo, hi, step, span)):
            raise ValueError(f"grid spec {spec!r} needs a finite min, max, step and span")
        if step <= 0:
            raise ValueError("grid step must be positive")
        if hi <= lo:
            raise ValueError("grid max must exceed min")
        steps = span / step
        if steps > MAX_GRID_POINTS or round(steps) + 1 > MAX_GRID_POINTS:
            raise ValueError(f"grid spec {spec!r} has more than {MAX_GRID_POINTS} points")
        n = round(steps)
        if n >= 1 and abs(n * step - span) <= _REL_STEP_TOL * max(1.0, abs(span)):
            # the last point is the inclusive max itself; lo + span * n / n
            # can round past it. Where span * n overflows, span * i is formed
            # at 2**-k and scaled back: a power of two rounds it the same
            k = 0 if span * n < math.inf else n.bit_length()
            unit, back = math.ldexp(span, -k), math.ldexp(1.0, k)
            points = tuple(lo + unit * i / n * back for i in range(n)) + (hi,)
        else:
            # step does not divide the span; include every finite lo + i*step <= max
            bound = min(hi + _REL_STEP_TOL * max(1.0, abs(span)), 1.7976931348623157e308)
            points, i = [], 0
            while lo + i * step <= bound:
                points.append(lo + i * step)
                i += 1
            points = tuple(points)
        return cls(points)

    @classmethod
    def from_points(cls, points: Iterable[float]) -> "PlugInGrid":
        return cls(tuple(points))

    @property
    def lo(self) -> float:
        return self.points[0]

    @property
    def hi(self) -> float:
        return self.points[-1]

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i):
        return self.points[i]

    def index_of(self, z: float) -> int:
        """Index of a grid point (exact match)."""
        i = bisect_left(self.points, z)
        if i == len(self.points) or self.points[i] != z:
            raise ValueError(f"{z!r} is not on the grid")
        return i


def _json_evidence(evidence) -> list:
    # strict JSON has no infinity; "inf" matches the CSV and is the one
    # string the readers below take for a number
    return ["inf" if e == math.inf else e for e in evidence]


# Readers of parsed JSON documents: a field of the wrong shape is a
# ValueError that names it, never a TypeError from deep inside a constructor.


def _json_kind(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, dict):
        return "an object"
    if isinstance(value, list):
        return "a list"
    return "null" if value is None else repr(value)


def _json_object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {_json_kind(value)}")
    return value


def _json_list(value, name: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a JSON list, got {_json_kind(value)}")
    return value


def _json_number(value, name: str) -> float:
    """A JSON number, or the string "inf" the writers emit, as a float; a
    boolean is not a number, nor is any other string."""
    if value == "inf":
        return math.inf
    if type(value) in (int, float):
        try:
            return float(value)
        except OverflowError:  # a JSON integer has no size limit
            raise ValueError(f"{name} is an integer beyond the float range") from None
    raise ValueError(f"{name} must be a number, got {_json_kind(value)}")


def _json_floats(value, name: str) -> tuple[float, ...]:
    """A JSON list of numbers (or "inf") as floats."""
    values = _json_list(value, name)
    kinds = set(map(type, values))
    if kinds <= {int, float} or (kinds <= {int, float, str}
                                 and {x for x in values if type(x) is str} == {"inf"}):
        try:
            return tuple(map(float, values))
        except OverflowError:
            pass
    # a boolean, another string, another value or an integer float() cannot
    # take: name it by its index
    return tuple(_json_number(x, f"{name}[{i}]") for i, x in enumerate(values))


def _set_doc(conf, kind: str, **extra) -> dict:
    """Either set's document; a binary set's own fields follow the evidence."""
    return {
        "kind": kind,
        "grid": list(conf.grid.points),
        "evidence": _json_evidence(conf.evidence),
        **extra,
        "calibration": list(conf.calibration),
        "provenance": {"alternative": conf.alternative, "utility": conf.utility},
    }


def _set_fields(doc, kind: str, noun: str) -> dict:
    """Either set's shared fields, read from a ``kind`` document, as
    constructor keywords."""
    _json_object(doc, "a confidence set document")
    if doc.get("kind") != kind:
        raise ValueError(f"not a {noun} confidence set document: {doc.get('kind')!r}")
    prov = _json_object(doc.get("provenance", {}), "provenance")
    return dict(grid=PlugInGrid.from_points(_json_floats(doc.get("grid"), "grid")),
                evidence=_json_floats(doc.get("evidence"), "evidence"),
                calibration=_json_floats(doc.get("calibration", []), "calibration"),
                alternative=prov.get("alternative", "unspecified"),
                utility=prov.get("utility", "unspecified"))


class FuzzyConfidenceSet(_Frozen):
    """Evidence against each grid point, with the calibration data and the
    alternative/utility that produced it."""

    grid: PlugInGrid
    evidence: tuple[float, ...]
    calibration: tuple[float, ...]
    alternative: str = "unspecified"
    utility: str = "unspecified"

    def __post_init__(self) -> None:
        if len(self.evidence) != len(self.grid):
            raise ValueError("evidence and grid lengths differ")
        if any(e < 0 or math.isnan(e) for e in self.evidence):
            raise ValueError("evidence must be nonnegative")

    def evidence_at(self, z: float) -> float:
        return self.evidence[self.grid.index_of(z)]

    def to_csv(self, path_or_file) -> None:
        _write_csv(path_or_file, "z,evidence", "{:.17g},{:.17g}\n",
                   self.grid.points, self.evidence)

    def to_json_doc(self) -> dict:
        return _set_doc(self, "fuzzy-confidence-set")

    @classmethod
    def from_json_doc(cls, doc: dict) -> "FuzzyConfidenceSet":
        return cls(**_set_fields(doc, "fuzzy-confidence-set", "fuzzy"))


class BinaryConfidenceSet(_Frozen):
    """Level-alpha membership per grid point, with the evidence it came from."""

    grid: PlugInGrid
    membership: tuple[bool, ...]
    alpha: float
    evidence: tuple[float, ...]
    calibration: tuple[float, ...] = ()
    alternative: str = "unspecified"
    utility: str = "unspecified"

    def __post_init__(self) -> None:
        if len(self.membership) != len(self.grid) or len(self.evidence) != len(self.grid):
            raise ValueError("membership, evidence and grid lengths differ")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")

    def is_empty(self) -> bool:
        return not any(self.membership)

    def to_csv(self, path_or_file) -> None:
        _write_csv(path_or_file, "z,evidence,membership", "{:.17g},{:.17g},{}\n",
                   self.grid.points, self.evidence, map(int, self.membership))

    def to_json_doc(self) -> dict:
        return _set_doc(self, "binary-confidence-set",
                        membership=[bool(m) for m in self.membership], alpha=self.alpha)

    @classmethod
    def from_json_doc(cls, doc: dict) -> "BinaryConfidenceSet":
        fields = _set_fields(doc, "binary-confidence-set", "binary")
        membership = _json_list(doc.get("membership"), "membership")
        for i, m in enumerate(membership):
            if not isinstance(m, bool):
                raise ValueError(f"membership[{i}] must be true or false, got {_json_kind(m)}")
        return cls(membership=tuple(membership),
                   alpha=_json_number(doc.get("alpha"), "alpha"), **fields)


def _write_csv(path_or_file, header: str, row: str, *columns) -> None:
    # one format map over the columns, streamed line by line; no field it
    # renders (a number, "inf", "nan") holds a comma, quote or newline, so the
    # bytes are what csv.writer with lineterminator="\n" writes for the rows
    def write(fh) -> None:
        fh.write(header + "\n")
        fh.writelines(map(row.format, *columns))

    if isinstance(path_or_file, (str, os.PathLike)):
        with open(path_or_file, "w", encoding="utf-8", newline="") as fh:
            write(fh)
    else:
        write(path_or_file)


def load_confidence_set(doc: dict) -> Union[FuzzyConfidenceSet, BinaryConfidenceSet]:
    """Load either serialized confidence-set document."""
    kind = _json_object(doc, "a confidence set document").get("kind")
    if kind == "fuzzy-confidence-set":
        return FuzzyConfidenceSet.from_json_doc(doc)
    if kind == "binary-confidence-set":
        return BinaryConfidenceSet.from_json_doc(doc)
    raise ValueError(f"unknown confidence set kind {kind!r}")


def _excludes(evidence, alpha, u=1.0):
    """The one exclusion rule, on floats or numpy arrays: evidence excludes
    its point at level alpha (with the randomized set's draw u) when
    evidence >= u / alpha."""
    return evidence >= u / alpha


def _binary(fuzzy: FuzzyConfidenceSet, alpha: float, u: float, utility: str) -> BinaryConfidenceSet:
    membership = tuple(not _excludes(e, alpha, u) for e in fuzzy.evidence)
    return BinaryConfidenceSet(fuzzy.grid, membership, alpha, fuzzy.evidence,
                               fuzzy.calibration, fuzzy.alternative, utility)


def sublevel_set(fuzzy: FuzzyConfidenceSet, alpha: float) -> BinaryConfidenceSet:
    """Binary set {z : evidence(z) < 1/alpha}; the inequality is strict."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    return _binary(fuzzy, alpha, 1.0, fuzzy.utility)


def _least_levels(e):
    """The least float level excluding each evidence value, walked there one
    float step at a time from 1/e, which can round to either side of it:
    +inf for zero or NaN evidence (never excluded), 0 for infinite."""
    import numpy as np  # only here, so that this module loads without numpy

    e = np.asarray(e, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(e > 0.0, 1.0 / e, np.inf)
        while True:
            below = np.nextafter(a, 0.0)
            down = (below < a) & _excludes(e, below)
            up = 1.0 / a > e  # not ~_excludes(e, a): NaN would step up forever
            if not (down.any() or up.any()):
                return a
            a = np.where(down, below, np.where(up, np.nextafter(a, np.inf), a))


def smallest_exclusion_level(fuzzy: FuzzyConfidenceSet, z: float) -> float:
    """Smallest data-dependent level at which z is excluded: the least float
    alpha with evidence(z) >= 1/alpha, which is 1/evidence(z) up to rounding.

    The walk is the Monte-Carlo validators' ``harness.adversarial_level_rule``
    and loads numpy: +inf for zero evidence (never excluded), 0 for infinite.
    """
    return float(_least_levels(fuzzy.evidence_at(z)))


def randomized_binary(fuzzy: FuzzyConfidenceSet, alpha: float, u: float) -> BinaryConfidenceSet:
    """Randomized binary set: exclude z when its exclusion degree, alpha *
    evidence(z) capped at 1, reaches the uniform draw u, by the sublevel
    set's rule evidence(z) >= u/alpha; at u = 1 it is the sublevel set.

    Marginally over u this recovers classical level-alpha coverage.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if not 0.0 <= u <= 1.0:
        raise ValueError("u must lie in [0, 1]")
    return _binary(fuzzy, alpha, u, fuzzy.utility + "+randomized")
