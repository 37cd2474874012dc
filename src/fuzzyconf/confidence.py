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

from .alternatives import (
    AlternativeSpec,
    _ratio_error,
    _ratio_matrix,
    _ratio_ok,
    _ratio_values,
    resolve_alternative,
)
from .errors import AllZeroRatioError, DomainError, NormalizationFailureError
from .evalues import (
    EXACTNESS_TOL,
    BoundedLog,
    ClippedLog,
    Dampened,
    Log,
    NeymanPearson,
    Power,
    UtilitySpec,
    utility_id,
)
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


def _count_leading(holds: Callable[[np.ndarray], np.ndarray], shape: tuple, hi: int) -> np.ndarray:
    """Per entry of ``shape``, how many leading indices j in [0, hi) satisfy
    ``holds(j)``, which must be true and then false along j.

    A binary search run on every entry at once: ``holds`` receives one int
    array of ``shape`` per pass, O(log hi) passes. np.searchsorted would do
    for a single row, but it is 1-D only.
    """
    count = np.zeros(shape, dtype=np.intp)
    step = 1 << (hi.bit_length() - 1) if hi > 0 else 0  # largest power of two <= hi
    while step:
        grown = count + step
        ok = (grown <= hi) & holds(np.minimum(grown, hi) - 1)
        count = np.where(ok, grown, count)
        step >>= 1
    return count


def _take(rows: np.ndarray, j: np.ndarray) -> np.ndarray:
    # rows[t, j[t, g]] as one flat gather, about twice as fast as
    # np.take_along_axis; rows must be C-contiguous
    return rows.ravel().take(j + np.arange(0, rows.size, rows.shape[1])[:, None])


def _np_grid(cal: np.ndarray, rz: np.ndarray, alpha: float) -> np.ndarray:
    # exact counts on the ratios themselves, the slot at z counting once
    n = cal.shape[1]
    m = n + 1
    asc = np.sort(cal, axis=1)
    shape = (cal.shape[0], rz.shape[1])
    below = _count_leading(lambda j: _take(asc, j) < rz, shape, n)
    upto = _count_leading(lambda j: _take(asc, j) <= rz, shape, n)
    gt = n - upto
    eq = upto - below + 1
    am = alpha * m
    boundary = (1.0 - gt / am) * (m / eq)
    return np.where(gt + eq < am, 1.0 / alpha, np.where(gt < am, boundary, 0.0))


def _power_grid(cal: np.ndarray, rz: np.ndarray, h: float) -> np.ndarray:
    # e = m * r_z^s / sum(r^s) over the augmented row; the mean cancels, and
    # scaling by the calibration maximum keeps each log a ratio's log
    s = 1.0 / (1.0 - h)
    m = cal.shape[1] + 1
    top = cal.max(axis=1, keepdims=True)
    scale = np.where(top > 0.0, top, 1.0)
    mass = np.exp(s * np.log(cal / scale)).sum(axis=1, keepdims=True)  # 0 if all zero
    b = s * np.log(rz / scale)  # -inf at zero ratios, which exp maps back to 0
    shift = np.maximum(b, np.where(mass > 0.0, 0.0, -math.inf))
    rest = np.where(mass > 0.0, mass * np.exp(-shift), 0.0)
    # one final exp, so a subnormal result is rounded once
    return np.exp(b - shift - np.log((rest + np.exp(b - shift)) / m))


def _level_grid(cal: np.ndarray, rz: np.ndarray, *, cap=None, floor=None):
    """min(kappa * r_z, cap) or max(kappa * r_z, floor), and the exactness
    residual, per (row, grid point).

    kappa = lam / mean is the constant of ``evalues.normalization_lambda`` in
    ratio space, in closed form. The shaped orbit mean is piecewise linear
    and monotone in kappa, with a breakpoint where each slot meets the cap
    (floor); the t breakpoints with mean <= 1 (>= 1) are those of the slots
    at the level at the root, so kappa = (m - t * level) / tail[t], or the
    last breakpoint when no slot is off the level. The augmented row's
    leading order (descending under the cap, ascending over the floor) is
    the calibration's with r_z inserted at p, so its slots and suffix sums
    come from the calibration arrays, and the breakpoint count t and the
    at-level count behind the residual are each one binary search.
    """
    T, n = cal.shape
    m = n + 1
    if cap is not None:
        level, start, at_level, bound, shaped = cap, 0.0, np.less_equal, np.maximum, np.minimum
        lead = np.ascontiguousarray(np.sort(cal, axis=1)[:, ::-1])  # descending: capped slots lead
        ahead = np.greater
    else:
        level, start, at_level, bound, shaped = floor, math.inf, np.greater_equal, np.minimum, np.maximum
        lead = np.sort(cal, axis=1)  # ascending: floored slots lead
        ahead = np.less
    # tails[:, j] = sum of lead[:, j:], summed directly: total - prefix
    # cancels when one slot dominates
    tails = np.zeros((T, m))
    np.cumsum(lead[:, ::-1], axis=1, out=tails[:, n - 1::-1])
    shape = (T, rz.shape[1])
    p = _count_leading(lambda j: ahead(_take(lead, j), rz), shape, n)

    def slot(j):
        # ratio and suffix sum at index j of the augmented leading order,
        # from index k of the calibration's
        before = j <= p
        k = np.where(before, j, j - 1)
        s = np.where(j == p, rz, _take(lead, np.minimum(k, n - 1)))
        tail = _take(tails, np.minimum(k, n)) + np.where(before, rz, 0.0)
        return s, tail

    def reached(j):
        # m times the shaped mean at slot j's breakpoint, against m
        s, tail = slot(j)
        return at_level(j * level + level / s * tail, m)

    t = _count_leading(reached, shape, m)
    near = np.where(t > 0, level / slot(np.maximum(t - 1, 0))[0], start)  # breakpoint t - 1
    tail = slot(t)[1]
    # the segment's line holds t slots at the level and lets the rest pass
    # it, so it bounds m * mean from above (cap) or below (floor): its root
    # errs toward breakpoint t - 1, and bounding by it undoes a miscount
    kappa = np.where(tail > 0.0, bound((m - t * level) / tail, near), near)
    # the slots at the level for kappa, plus kappa times the rest
    q = _count_leading(lambda j: at_level(level, kappa * slot(j)[0]), shape, m)
    residual = np.abs((q * level + kappa * slot(q)[1]) / m - 1.0)
    return shaped(kappa * rz, level), residual


def _grid_shaped(cal: np.ndarray, rz: np.ndarray, mean: np.ndarray, utility: UtilitySpec):
    """(evidence, exactness residual or None), both (T, G)."""
    if isinstance(utility, Log):
        return rz / mean, None
    if isinstance(utility, Power):
        return _power_grid(cal, rz, utility.h), None
    if isinstance(utility, NeymanPearson):
        return _np_grid(cal, rz, utility.alpha), None
    if isinstance(utility, BoundedLog):
        return _level_grid(cal, rz, cap=1.0 / utility.alpha)
    if isinstance(utility, ClippedLog):
        return _level_grid(cal, rz, floor=utility.b)
    if isinstance(utility, Dampened):
        inner, residual = _grid_shaped(cal, rz, mean, utility.inner)
        return utility.b + (1.0 - utility.b) * inner, residual
    raise TypeError(f"unknown utility {utility!r}")


def _final_slot_evidence(cal: np.ndarray, rz: np.ndarray, utility: UtilitySpec) -> np.ndarray:
    """Evidence (T, G) at the final slot of each tuple (calibration row, z).

    ``cal`` (T, n) holds the calibration ratios; ``rz`` the final slot's, as
    (1, G) for one grid shared by every row or (T, 1) for each row's own
    final slot. Comparisons are on the ratios themselves, so ties are exact.
    Raises for the lowest column holding a failing tuple: one whose ratio
    vanishes on every slot, or whose shaped e-value no constant makes exact.
    """
    if cal.shape[1] < 1:
        raise ValueError("calibration rows must hold at least one value")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        mean = (cal.sum(axis=1, keepdims=True) + rz) / (cal.shape[1] + 1)
        ev, residual = _grid_shaped(cal, rz, mean, utility)
    zero = (mean == 0.0).any(axis=0)
    failed = zero if residual is None else zero | ~(residual <= EXACTNESS_TOL).all(axis=0)
    if failed.any():
        g = int(np.argmax(failed))
        if zero[g]:
            raise AllZeroRatioError("the ratio vanishes on an entire sampled tuple")
        raise NormalizationFailureError(
            f"orbit mean misses 1 by {residual[:, g].max():.3g}; the shaped e-value is infeasible")
    return ev


def grid_evidence(
    calib_rows: np.ndarray, points: Sequence[float], ratio: Callable, utility: UtilitySpec
) -> np.ndarray:
    """Evidence matrix (T, G): the fuzzy set of each calibration row over the grid.

    Entry (t, g) is the optimal e-value at the final slot of the tuple
    (calib_rows[t], points[g]), as ``evalue_at`` gives it. Only that slot
    changes across the grid, so the ratio is evaluated once on the
    calibration values and once on the grid, each calibration row is sorted
    once with its suffix sums, and every grid point is placed by binary
    search: O((n + G) log n) work per row, O(T * (n + G)) memory.

    A bad calibration ratio raises first; after that the lowest failing grid
    point decides the error, as a per-point loop would.
    """
    cal = _ratio_matrix(np.asarray(calib_rows, dtype=float), ratio)
    z = np.asarray(points, dtype=float)
    rz = _ratio_values(z, ratio)
    bad = ~_ratio_ok(rz)
    # the points before the first bad ratio are the ones that can fail first
    first = int(np.argmax(bad)) if bad.any() else z.size
    ev = _final_slot_evidence(cal, rz[None, :first], utility)
    if first < z.size:
        raise _ratio_error(float(rz[first]), float(z[first]))
    return ev


def fuzzy_set(
    z_n: TupleLike,
    grid: PlugInGrid,
    alt: AlternativeSpec,
    utility: UtilitySpec,
) -> FuzzyConfidenceSet:
    """Invert the optimal test over the grid: evidence(z) is the e-value of
    the tuple (z_1, ..., z_n, z).

    The alternative is resolved once against the calibration data;
    ``grid_evidence`` computes the whole curve, evaluating the ratio on n + G
    values in all.
    """
    calib = tuple_values(z_n)
    if len(calib) < 1:
        raise ValueError("calibration data must contain at least one observation")
    concrete = resolve_alternative(alt, calib)
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
