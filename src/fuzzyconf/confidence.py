"""Fuzzy confidence sets by test inversion over a plug-in grid: the engine.

``grid_evidence`` computes the optimal e-value at the final slot of every
(calibration row, grid point) tuple on arrays, and ``fuzzy_set`` turns one
calibration sample into a ``FuzzyConfidenceSet``. The private
``_final_slot_evidence`` behind both is the one production implementation
of every utility's optimal e-value: the command line, fuzzy sets and the
Monte-Carlo validators all take their evidence from it, and the suite checks
it against the per-orbit oracle ``reference.evalue_at``. The containers
(grids, fuzzy and binary sets, their documents and sublevel operations) live
in ``sets``, which needs no numpy.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .alternatives import (
    AlternativeSpec,
    _ratio_error,
    _ratio_matrix,
    _ratio_ok,
    _ratio_values,
    resolve_alternative,
)
from .errors import AllZeroRatioError, NormalizationFailureError
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
from .sets import FuzzyConfidenceSet, PlugInGrid

TupleLike = Sequence[float]


def tuple_values(data: TupleLike) -> tuple[float, ...]:
    """Validate a sequence of observations as a tuple of finite floats."""
    out = []
    for v in data:
        x = float(v)
        if not math.isfinite(x):
            raise ValueError(f"observations must be finite, got {v!r}")
        # +0.0 collapses -0.0 onto 0.0 so == agrees with bit equality
        out.append(x + 0.0)
    return tuple(out)


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


def _count_where(op: Callable, cal: np.ndarray, rz: np.ndarray) -> np.ndarray:
    # per row, how many calibration ratios satisfy op(ratio, the row's own
    # final slot): one comparison of the block, no sort and no search
    return np.count_nonzero(op(cal, rz), axis=1, keepdims=True)


def _np_grid(cal: np.ndarray, rz: np.ndarray, alpha: float) -> np.ndarray:
    # exact counts on the ratios themselves, the slot at z counting once
    n = cal.shape[1]
    m = n + 1
    if rz.shape[1] == 1:
        below, upto = _count_where(np.less, cal, rz), _count_where(np.less_equal, cal, rz)
    else:
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
    chain = _log_quotient(np.divide(cal, scale), cal, scale)  # worked in place
    chain *= s
    np.exp(chain, out=chain)
    mass = chain.sum(axis=1, keepdims=True)  # 0 if all zero
    b = rz / scale
    over = np.isinf(b)
    _log_quotient(b, rz, scale)  # -inf at zero ratios, which exp maps back to 0
    if over.any():  # r_z past the float range of the scale: subtract the logs
        b = np.where(over, np.log(rz) - np.log(scale), b)
    b *= s
    shift = np.maximum(b, np.where(mass > 0.0, 0.0, -math.inf))
    rest = np.where(mass > 0.0, mass * np.exp(-shift), 0.0)
    # one final exp, so a subnormal result is rounded once
    return np.exp(b - shift - np.log((rest + np.exp(b - shift)) / m))


def _log_quotient(q: np.ndarray, r: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """log(r / scale), written over ``q``, which holds r / scale.

    Where q is within a factor 2 of 1, r - scale is exact, so
    log1p((r - scale) / scale) keeps the log's relative precision; log(q)
    would turn q's rounding into an absolute error, which the power's s =
    1 / (1 - h) then multiplies. Both are taken on every entry: numpy's
    masked arithmetic costs more than the second pass.
    """
    near = (q >= 0.5) & (q <= 2.0)
    d = np.subtract(r, scale)
    d /= scale
    np.log(q, out=q)
    np.copyto(q, np.log1p(d, out=d), where=near)
    return q


def _log_grid(cal: np.ndarray, rz: np.ndarray, mean: np.ndarray) -> np.ndarray:
    # r_z / mean; where the ratios' sum overflows, m * r_z / sum with every
    # ratio first divided by the tuple's largest, which leaves it unchanged
    ev = rz / mean
    wide = np.isinf(mean)
    if wide.any():
        top = cal.max(axis=1, keepdims=True)
        largest = np.maximum(top, rz)
        q = rz / largest
        total = (cal / top).sum(axis=1, keepdims=True) * (top / largest) + q
        ev = np.where(wide, (cal.shape[1] + 1) * q / total, ev)
    return ev


def _level_grid(cal: np.ndarray, rz: np.ndarray, *, cap=None, floor=None):
    """min(kappa * r_z, cap) or max(kappa * r_z, floor), and the exactness
    residual, per (row, grid point).

    kappa is the constant ``reference.optimal_evalue`` finds by an exact
    walk over the likelihood ratios, divided by the ratios' mean; here it is
    found on floats in closed form. The shaped orbit mean is piecewise linear
    and monotone in kappa, with a breakpoint where each slot meets the cap
    (floor); the t breakpoints with mean <= 1 (>= 1) are those of the slots
    at the level at the root, so kappa = (m - t * level) / tail[t], or the
    last breakpoint when no slot is off the level. The augmented row's
    leading order (descending under the cap, ascending over the floor) is
    the calibration's with r_z inserted at p, so its slots and suffix sums
    come from the calibration arrays, and p, the breakpoint count t and the
    at-level count behind the residual are each one binary search.
    """
    T, n = cal.shape
    m = n + 1
    if cap is not None:
        level, start, at_level, bound, shaped = cap, 0.0, np.less_equal, np.maximum, np.minimum
        ahead = np.greater
        lead = np.negative(cal)
        lead.sort(axis=1)
        np.negative(lead, out=lead)  # descending: capped slots lead
    else:
        level, start, at_level, bound, shaped = floor, math.inf, np.greater_equal, np.minimum, np.maximum
        ahead = np.less
        lead = np.sort(cal, axis=1)  # ascending: floored slots lead
    # every slot comes from lead or rz; adding 0.0 turns -0.0 into 0.0 and
    # changes nothing else, so level / slot is never -inf and the order of
    # tied zeros leaves no trace (ratios are never NaN, see _ratio_ok)
    lead += 0.0
    rz = rz + 0.0
    # tails[:, j] = sum of lead[:, j:], summed directly: total - prefix
    # cancels when one slot dominates
    tails = np.empty((T, m))
    tails[:, n] = 0.0
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
        return _log_grid(cal, rz, mean), None
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


class _Failures(NamedTuple):
    """Per grid column: does some tuple's ratio vanish on every slot, does
    some shaped e-value miss exactness, and the largest exactness residual;
    plus the error of a bad grid ratio, raised after the columns before it.

    Summaries of row blocks merge into the summary of their union, so a run
    that evaluates its rows in blocks raises what one call on every row
    would.
    """

    zero: np.ndarray
    infeasible: np.ndarray
    residual: np.ndarray
    after: Optional[ValueError] = None

    def any(self) -> bool:
        return bool(self.zero.any() or self.infeasible.any()) or self.after is not None

    def merge(self, other: "_Failures") -> "_Failures":
        return _Failures(self.zero | other.zero, self.infeasible | other.infeasible,
                         np.maximum(self.residual, other.residual), self.after or other.after)

    def raise_first(self) -> None:
        """Raise for the lowest failing column, all-zero before infeasible."""
        failed = self.zero | self.infeasible
        if failed.any():
            g = int(np.argmax(failed))
            if self.zero[g]:
                raise AllZeroRatioError("the ratio vanishes on an entire sampled tuple")
            raise NormalizationFailureError(
                f"orbit mean misses 1 by {self.residual[g]:.3g}; the shaped e-value is infeasible")
        if self.after is not None:
            raise self.after


def _final_slot_evidence(cal: np.ndarray, rz: np.ndarray,
                         utility: UtilitySpec) -> tuple[np.ndarray, _Failures]:
    """Evidence (T, G) at the final slot of each tuple (calibration row, z),
    and the failures its caller raises with ``raise_first``.

    ``cal`` (T, n) holds the calibration ratios; ``rz`` the final slot's, as
    (1, G) for one grid shared by every row or (T, 1) for each row's own
    final slot. Comparisons are on the ratios themselves, so ties are exact.
    A failing tuple is one whose ratio vanishes on every slot, or whose
    shaped e-value no constant makes exact.
    """
    if cal.shape[1] < 1:
        raise ValueError("calibration rows must hold at least one value")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        mean = (cal.sum(axis=1, keepdims=True) + rz) / (cal.shape[1] + 1)
        ev, residual = _grid_shaped(cal, rz, mean, utility)
    zero = (mean == 0.0).any(axis=0)
    if residual is None:
        return ev, _Failures(zero, np.zeros_like(zero), np.zeros(zero.shape))
    infeasible = ~(residual <= EXACTNESS_TOL).all(axis=0)
    return ev, _Failures(zero, infeasible, residual.max(axis=0, initial=0.0))


def _grid_evidence(
    cal: np.ndarray, points: Sequence[float], ratio: Callable, utility: UtilitySpec
) -> tuple[np.ndarray, _Failures]:
    """``grid_evidence`` on the calibration ratios ``cal``, with its failures
    returned rather than raised. The evidence covers the points before the
    first bad grid ratio."""
    z = np.asarray(points, dtype=float)
    rz = _ratio_values(z, ratio)
    bad = ~_ratio_ok(rz)
    # the points before the first bad ratio are the ones that can fail first
    first = int(np.argmax(bad)) if bad.any() else z.size
    ev, failures = _final_slot_evidence(cal, rz[None, :first], utility)
    if first < z.size:
        failures = failures._replace(after=_ratio_error(float(rz[first]), float(z[first])))
    return ev, failures


def grid_evidence(
    calib_rows: np.ndarray, points: Sequence[float], ratio: Callable, utility: UtilitySpec
) -> np.ndarray:
    """Evidence matrix (T, G): the fuzzy set of each calibration row over the grid.

    Entry (t, g) is the optimal e-value at the final slot of the tuple
    (calib_rows[t], points[g]), as ``reference.evalue_at`` gives it. Only that slot
    changes across the grid, so the ratio is evaluated once on the
    calibration values and once on the grid, each calibration row is sorted
    once with its suffix sums, and every grid point is placed by binary
    search: O((n + G) log n) work per row, O(T * (n + G)) memory.

    A bad calibration ratio raises first; after that the lowest failing grid
    point decides the error, as a per-point loop would.
    """
    cal = _ratio_matrix(np.asarray(calib_rows, dtype=float), ratio)
    ev, failures = _grid_evidence(cal, points, ratio, utility)
    failures.raise_first()
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
