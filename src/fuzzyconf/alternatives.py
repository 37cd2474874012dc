"""Alternative hypotheses and their density ratios.

An alternative is what the user wants the confidence set to be small
against. Conditionally on the orbit of a tuple, only the law of the final
slot matters, so an alternative reduces to a density ratio between the
final slot's law and the base law at each slot of the tuple. An
``IidRatio`` is a per-observation ratio ``r(z)``; a ``KernelAlternative``
maps a block of tuples to their ratios, so a slot's ratio may read the
rest of its tuple. Both are evaluated the same way, on a (B, m) block.

The e-value the core builds from a ratio is exact on every orbit when
permuting a tuple permutes its ratios: always for an iid ratio, and for a
kernel that is a function of the bag, the tuple's values taken as a
multiset.

This module evaluates and checks those ratios on arrays; the
sorted-calibration core in ``confidence`` turns them into e-values. The
per-orbit likelihood-ratio profile, r normalized to orbit mean 1 on one
tuple, lives with the other references in ``reference``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np


@dataclass(frozen=True)
class IidRatio:
    """Alternative given by a per-observation density ratio r(z).

    Only the ratio between the final slot's law and the base law matters;
    normalizing constants cancel, so unnormalized ratios are fine. The
    callable must be stateless and return finite nonnegative values.
    """

    ratio: Callable[[float], float]
    name: str = "custom-ratio"


@dataclass(frozen=True)
class KernelAlternative:
    """Alternative whose ratio at a slot may read the whole tuple.

    ``ratio`` maps a (B, m) block of tuples, calibration first and final
    slot last, to their (B, m) ratios. Every consumer evaluates a block in
    one call: the validators a block of trials, ``fuzzy_set`` a block of
    bags (the calibration values plus one grid point each), and the
    per-orbit oracle the one tuple as a (1, m) row.

    The resulting e-value is exact on orbits when permuting a row permutes
    its ratios, as for a ratio fitted on the bag; a kernel that reads
    slots by position carries no orbit guarantee.
    """

    ratio: Callable[[np.ndarray], np.ndarray]
    name: str = "kernel"


AlternativeSpec = Union[IidRatio, KernelAlternative]


def _ratio_matrix(data: np.ndarray, alt: AlternativeSpec) -> np.ndarray:
    """The alternative's ratio on every entry of ``data`` in one call,
    raising for the first entry in row order whose ratio is infinite,
    negative or NaN. An ``IidRatio`` that takes scalars only is applied
    entry by entry; a kernel's own errors propagate, and a kernel result
    not of its block's shape is an error naming both shapes."""
    if not isinstance(alt, (IidRatio, KernelAlternative)):
        raise TypeError(f"expected an IidRatio or KernelAlternative, got {type(alt).__name__}")
    try:
        r = np.asarray(alt.ratio(data), dtype=float)
        if r.shape != data.shape:
            raise ValueError(f"ratio returned shape {r.shape} for a block of shape {data.shape}")
    except (TypeError, ValueError):
        if isinstance(alt, KernelAlternative):
            raise  # a kernel reads whole rows: it has no entry-by-entry form
        r = np.vectorize(alt.ratio, otypes=[float])(data)
    bad = ~((r >= 0.0) & (r < math.inf))
    if bad.any():
        i = np.flatnonzero(bad)[0]
        bad_r, z = float(r.flat[i]), float(data.flat[i])
        if bad_r == math.inf:
            raise ValueError(f"ratio is infinite at z={z!r}; cap the ratio (infinite evidence "
                             "is expressed through the utility, not the alternative)")
        raise ValueError(f"ratio must be nonnegative, got {bad_r!r} at z={z!r}")
    return r


# ---------------------------------------------------------------------------
# Built-in alternatives. These are preferences, not estimates: they express
# the distribution against which the user wants the confidence set small.
# ---------------------------------------------------------------------------


def gaussian_mean_shift_ratio(mu: float, delta: float, sigma: float = 1.0) -> IidRatio:
    """Ratio of N(mu + delta, sigma^2) to N(mu, sigma^2)."""
    if not (math.isfinite(mu) and math.isfinite(delta) and math.isfinite(delta * delta)):
        raise ValueError(f"mu={mu!r} and delta={delta!r} are out of range: mu, delta and "
                         "delta^2 must be finite floats")
    # the ratio divides by 2 sigma^2
    if not all(0.0 < v < math.inf for v in (sigma, sigma * sigma, 2.0 * sigma * sigma)):
        raise ValueError(f"sigma={sigma!r} is out of range: sigma, sigma^2 and 2 sigma^2 must "
                         "be positive finite floats")

    def ratio(z):
        # an overflow gives +inf, which the ratio checks name
        with np.errstate(over="ignore"):
            return np.exp((2.0 * delta * (z - mu) - delta * delta) / (2.0 * sigma * sigma))

    return IidRatio(ratio, name=f"gaussian-mean-shift(mu={mu:g},delta={delta:g},sigma={sigma:g})")


def _check_centre(mu: float) -> None:
    if not math.isfinite(mu):
        raise ValueError(f"mu={mu!r} is out of range: mu must be a finite float")


def _check_scales(sigma: float, tau: float) -> None:
    s2, t2 = sigma * sigma, tau * tau
    # the scale ratio divides by 2 sigma^2 tau^2
    if not all(0.0 < v < math.inf for v in (s2, t2, s2 * t2, 2.0 * sigma * sigma * tau * tau)):
        raise ValueError(f"sigma={sigma!r} and tau={tau!r} are out of range: sigma^2, tau^2, "
                         "sigma^2 tau^2 and 2 sigma^2 tau^2 must be positive finite floats")


def _scale_ratio(z, mu, sigma: float, tau: float):
    """Ratio of N(mu, tau^2) to N(mu, sigma^2) at z, with mu a scalar or an
    array broadcasting against z.

    One buffer holds z - mu and is squared, scaled, exponentiated and scaled
    again in place. An overflowing exponent gives +inf, which the ratio
    checks name.
    """
    d = np.asarray(np.subtract(z, mu, dtype=float))
    with np.errstate(over="ignore"):
        np.multiply(d, d, out=d)
        d *= tau * tau - sigma * sigma
        d /= 2.0 * sigma * sigma * tau * tau
        np.exp(d, out=d)
        d *= sigma / tau
    return d if d.ndim else d[()]


def gaussian_scale_ratio(mu: float, sigma: float, tau: float) -> IidRatio:
    """Ratio of N(mu, tau^2) to N(mu, sigma^2); tau > sigma favors wide exclusion."""
    _check_centre(mu)
    if sigma <= 0 or tau <= 0:
        raise ValueError("sigma and tau must be positive")
    _check_scales(sigma, tau)
    return IidRatio(lambda z: _scale_ratio(z, mu, sigma, tau),
                    name=f"gaussian-scale(mu={mu:g},sigma={sigma:g},tau={tau:g})")


def ar1_kernel(mu: float, rho: float, tau: float) -> KernelAlternative:
    """First-order autoregressive preference with unit marginal variance.

    Each tuple's ratio is a scale family centred at the one-step conditional
    mean mu + rho * (z_n - mu), z_n its last calibration value. The centre
    reads a slot by position, so the e-value has no orbit guarantee.
    """
    _check_centre(mu)
    if not -1.0 < rho < 1.0:
        raise ValueError("rho must lie in (-1, 1)")
    if tau <= 1.0:
        raise ValueError("tau must exceed the unit marginal scale")
    _check_scales(1.0, tau)
    return KernelAlternative(
        lambda block: _scale_ratio(block, mu + rho * (block[:, -2:-1] - mu), 1.0, tau),
        f"ar1(mu={mu:g},rho={rho:g},tau={tau:g})")


def gaussian_composite_kernel(sigma: float, tau: float) -> KernelAlternative:
    """Scale alternative recentred at the mean of the bag.

    Expresses a location family whose centre is unknown and estimated, as
    in full conformal prediction, by the mean of all n + 1 values, the
    final slot included. The ratio is then a function of the bag, so the
    e-value is exact on orbits. A mean that overflows is left to the ratio
    checks.
    """
    if not 0 < sigma < tau:
        raise ValueError("need 0 < sigma < tau")
    _check_scales(sigma, tau)
    return KernelAlternative(
        lambda block: _scale_ratio(block, block.mean(axis=1, keepdims=True), sigma, tau),
        f"gaussian-composite(sigma={sigma:g},tau={tau:g})")
