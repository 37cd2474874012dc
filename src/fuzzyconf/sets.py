"""Plug-in grids and confidence sets: the containers every subcommand shares.

A fuzzy confidence set maps each plug-in value z to nonnegative evidence
against it: the reciprocal of the smallest significance level at which z is
excluded. Binary sets are recovered as strict sublevel sets
{z : evidence(z) < 1/alpha}, or by randomizing the exclusion degree.

Grids are explicit and fixed; membership between grid points is deliberately
undefined rather than interpolated, so outputs are reproducible bit for bit.

This module imports no numpy, so the closed-form Gaussian curves and the
set documents load without it; the engine that computes conformal evidence
is ``confidence``.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Union

from .errors import DomainError

_REL_STEP_TOL = 1e-9
# A grid spec may give at most this many points, round(span / step) + 1;
# larger specs are rejected before any point is built.
MAX_GRID_POINTS = 10**7


@dataclass(frozen=True)
class PlugInGrid:
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
        lo, hi, step = (float(p) for p in parts)
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
            points = tuple(lo + span * i / n for i in range(n + 1))
        else:
            # step does not divide the span; include every lo + i*step <= max
            points, i = [], 0
            while lo + i * step <= hi + _REL_STEP_TOL * max(1.0, abs(span)):
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

    @property
    def count(self) -> int:
        return len(self.points)

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
    # strict JSON has no infinity; "inf" matches the CSV and reads back
    # through float()
    return ["inf" if e == math.inf else e for e in evidence]


# Readers of parsed JSON documents: a field of the wrong shape is a
# ValueError that names it, never a TypeError from deep inside a constructor.


def _json_kind(value) -> str:
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
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number, got {_json_kind(value)}") from None


def _json_floats(value, name: str) -> tuple[float, ...]:
    """A JSON list of numbers (or "inf") as floats."""
    values = _json_list(value, name)
    try:
        return tuple(map(float, values))
    except (TypeError, ValueError):
        for i, x in enumerate(values):
            _json_number(x, f"{name}[{i}]")
        raise


@dataclass(frozen=True)
class FuzzyConfidenceSet:
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
        return {
            "kind": "fuzzy-confidence-set",
            "grid": list(self.grid.points),
            "evidence": _json_evidence(self.evidence),
            "calibration": list(self.calibration),
            "provenance": {"alternative": self.alternative, "utility": self.utility},
        }

    @classmethod
    def from_json_doc(cls, doc: dict) -> "FuzzyConfidenceSet":
        _json_object(doc, "a confidence set document")
        if doc.get("kind") != "fuzzy-confidence-set":
            raise ValueError(f"not a fuzzy confidence set document: {doc.get('kind')!r}")
        prov = _json_object(doc.get("provenance", {}), "provenance")
        return cls(
            grid=PlugInGrid.from_points(_json_floats(doc.get("grid"), "grid")),
            evidence=_json_floats(doc.get("evidence"), "evidence"),
            calibration=_json_floats(doc.get("calibration", []), "calibration"),
            alternative=prov.get("alternative", "unspecified"),
            utility=prov.get("utility", "unspecified"),
        )


@dataclass(frozen=True)
class BinaryConfidenceSet:
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
        return {
            "kind": "binary-confidence-set",
            "grid": list(self.grid.points),
            "evidence": _json_evidence(self.evidence),
            "membership": [bool(m) for m in self.membership],
            "alpha": self.alpha,
            "calibration": list(self.calibration),
            "provenance": {"alternative": self.alternative, "utility": self.utility},
        }

    @classmethod
    def from_json_doc(cls, doc: dict) -> "BinaryConfidenceSet":
        _json_object(doc, "a confidence set document")
        if doc.get("kind") != "binary-confidence-set":
            raise ValueError(f"not a binary confidence set document: {doc.get('kind')!r}")
        prov = _json_object(doc.get("provenance", {}), "provenance")
        return cls(
            grid=PlugInGrid.from_points(_json_floats(doc.get("grid"), "grid")),
            membership=tuple(bool(m) for m in _json_list(doc.get("membership"), "membership")),
            alpha=_json_number(doc.get("alpha"), "alpha"),
            evidence=_json_floats(doc.get("evidence"), "evidence"),
            calibration=_json_floats(doc.get("calibration", []), "calibration"),
            alternative=prov.get("alternative", "unspecified"),
            utility=prov.get("utility", "unspecified"),
        )


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


def sublevel_set(fuzzy: FuzzyConfidenceSet, alpha: float) -> BinaryConfidenceSet:
    """Binary set {z : evidence(z) < 1/alpha}; the inequality is strict."""
    if not 0.0 < alpha <= 1.0:
        raise DomainError("alpha must lie in (0, 1]")
    thr = 1.0 / alpha
    membership = tuple(e < thr for e in fuzzy.evidence)
    return BinaryConfidenceSet(
        fuzzy.grid, membership, alpha, fuzzy.evidence,
        fuzzy.calibration, fuzzy.alternative, fuzzy.utility,
    )


def smallest_exclusion_level(fuzzy: FuzzyConfidenceSet, z: float) -> float:
    """Smallest data-dependent level at which z is excluded: 1/evidence(z).

    Returns +inf when the evidence is zero (z is never excluded).
    """
    e = fuzzy.evidence_at(z)
    return math.inf if e == 0.0 else 1.0 / e


def randomized_binary(fuzzy: FuzzyConfidenceSet, alpha: float, u: float) -> BinaryConfidenceSet:
    """Randomized binary set: exclude z when its exclusion degree
    min(alpha * evidence(z), 1) reaches the uniform draw u.

    Marginally over u this recovers classical level-alpha coverage.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must lie in (0, 1)")
    if not 0.0 <= u <= 1.0:
        raise DomainError("u must lie in [0, 1]")
    membership = tuple(not (min(alpha * e, 1.0) >= u) for e in fuzzy.evidence)
    return BinaryConfidenceSet(
        fuzzy.grid, membership, alpha, fuzzy.evidence,
        fuzzy.calibration, fuzzy.alternative, fuzzy.utility + "+randomized",
    )
