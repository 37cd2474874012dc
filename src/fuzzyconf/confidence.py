"""Fuzzy confidence sets by test inversion over a plug-in grid.

A fuzzy confidence set maps each plug-in value z to nonnegative evidence
against it: the reciprocal of the smallest significance level at which z is
excluded. Binary sets are recovered as strict sublevel sets
{z : evidence(z) < 1/alpha}, or by randomizing the exclusion degree.

Grids are explicit and fixed; membership between grid points is deliberately
undefined rather than interpolated, so outputs are reproducible bit for bit.
"""

from __future__ import annotations

import csv
import math
import os
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .alternatives import AlternativeSpec, IidRatio, lr_matrix, resolve_alternative
from .errors import DomainError
from .evalues import UtilitySpec, evalue_rows, utility_id
from .orbits import TupleLike, tuple_values

_REL_STEP_TOL = 1e-9


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
        if step <= 0:
            raise ValueError("grid step must be positive")
        if hi <= lo:
            raise ValueError("grid max must exceed min")
        span = hi - lo
        n = round(span / step)
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


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _json_evidence(evidence) -> list:
    # strict JSON has no infinity; "inf" matches the CSV and reads back
    # through float()
    return ["inf" if e == math.inf else e for e in evidence]


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
        _write_csv(path_or_file, ["z", "evidence"],
                   zip(self.grid.points, self.evidence))

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
        if doc.get("kind") != "fuzzy-confidence-set":
            raise ValueError(f"not a fuzzy confidence set document: {doc.get('kind')!r}")
        prov = doc.get("provenance", {})
        return cls(
            grid=PlugInGrid.from_points(doc["grid"]),
            evidence=tuple(float(e) for e in doc["evidence"]),
            calibration=tuple(float(z) for z in doc.get("calibration", [])),
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

    def member_indices(self) -> list[int]:
        return [i for i, m in enumerate(self.membership) if m]

    def is_empty(self) -> bool:
        return not any(self.membership)

    def to_csv(self, path_or_file) -> None:
        rows = zip(self.grid.points, self.evidence, (int(m) for m in self.membership))
        _write_csv(path_or_file, ["z", "evidence", "membership"], rows)

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
        if doc.get("kind") != "binary-confidence-set":
            raise ValueError(f"not a binary confidence set document: {doc.get('kind')!r}")
        prov = doc.get("provenance", {})
        return cls(
            grid=PlugInGrid.from_points(doc["grid"]),
            membership=tuple(bool(m) for m in doc["membership"]),
            alpha=float(doc["alpha"]),
            evidence=tuple(float(e) for e in doc["evidence"]),
            calibration=tuple(float(z) for z in doc.get("calibration", [])),
            alternative=prov.get("alternative", "unspecified"),
            utility=prov.get("utility", "unspecified"),
        )


def _write_csv(path_or_file, header: list[str], rows) -> None:
    def write(fh) -> None:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(x) if isinstance(x, float) else str(x) for x in row])

    if isinstance(path_or_file, (str, os.PathLike)):
        with open(path_or_file, "w", encoding="utf-8", newline="") as fh:
            write(fh)
    else:
        write(path_or_file)


def load_confidence_set(doc: dict) -> Union[FuzzyConfidenceSet, BinaryConfidenceSet]:
    """Load either serialized confidence-set document."""
    kind = doc.get("kind")
    if kind == "fuzzy-confidence-set":
        return FuzzyConfidenceSet.from_json_doc(doc)
    if kind == "binary-confidence-set":
        return BinaryConfidenceSet.from_json_doc(doc)
    raise ValueError(f"unknown confidence set kind {kind!r}")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def grid_evidence(
    calib_rows: np.ndarray, points: Sequence[float], ratio: Callable, utility: UtilitySpec
) -> np.ndarray:
    """Evidence matrix (T, G): the fuzzy set of each calibration row over the grid.

    Entry (t, g) is the optimal e-value at the final slot of the tuple
    (calib_rows[t], points[g]). One (T, n+1) matrix is formed per grid
    point, so memory stays O(T * n) whatever the grid size.
    """
    T = calib_rows.shape[0]
    ev = np.empty((T, len(points)))
    for gi, z in enumerate(points):
        aug = np.column_stack([calib_rows, np.full(T, z)])
        ev[:, gi] = evalue_rows(lr_matrix(aug, ratio), utility)
    return ev


def fuzzy_set(
    z_n: TupleLike,
    grid: PlugInGrid,
    alt: AlternativeSpec,
    utility: UtilitySpec,
) -> FuzzyConfidenceSet:
    """Invert the optimal test over the grid: evidence(z) is the e-value of
    the tuple (z_1, ..., z_n, z).

    The alternative is resolved once against the calibration data and must be
    an IidRatio; one OrbitWeights mapping exact at every grid point gives flat evidence.
    """
    calib = tuple_values(z_n)
    if len(calib) < 1:
        raise ValueError("calibration data must contain at least one observation")
    concrete = resolve_alternative(alt, calib)
    if not isinstance(concrete, IidRatio):
        raise TypeError("fuzzy sets need an IidRatio alternative, or a kernel resolving to one")
    row = grid_evidence(np.array([calib]), grid.points, concrete.ratio, utility)[0]
    name = getattr(alt, "name", "unspecified")
    return FuzzyConfidenceSet(grid, tuple(row.tolist()), calib, name, utility_id(utility))


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
