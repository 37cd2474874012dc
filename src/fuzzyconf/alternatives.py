"""Alternative hypotheses and their per-observation density ratios.

An alternative is what the user wants the confidence set to be small
against. Conditionally on the orbit of a tuple, only the law of the final
slot matters, so an alternative reduces to a per-observation density ratio
``r(z)`` between the final slot's law and the base law, possibly re-fit to
each calibration tuple by a kernel.

This module evaluates and checks those ratios on arrays; the
sorted-calibration core in ``confidence`` turns them into e-values. The
per-orbit likelihood-ratio profile, r normalized to orbit mean 1 on one
tuple, lives with the other references in ``reference``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

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
    """Calibration-dependent alternative.

    The builder receives the calibration tuple z^n and returns an
    ``IidRatio`` for it, e.g. a scale alternative recentered at a running
    mean. Evaluated lazily, once per calibration tuple.

    ``row_ratio``, when given, is the same kernel on a block of tuples: it
    maps a (B, n + 1) array, calibration first and final slot last, to the
    (B, n + 1) ratios that resolving the builder against each row's
    calibration gives on that row. The Monte-Carlo validators then evaluate
    a block of trials in one call. The built-in kernels supply it, deriving
    both forms from one centre function of the calibration; custom kernels
    resolve row by row.

    Because the ratio is re-fit to each calibration, the resulting evidence
    is exact conditional on z^n: under a model whose conditional law of the
    target matches the resolved base (the autoregressive family, say), the
    mean evidence at the truth is 1. Unconditional exactness on permutation
    orbits is a property of fixed ratios, not of kernels, which re-resolve
    against every arrangement.
    """

    builder: Callable[[Sequence[float]], IidRatio]
    name: str = "kernel"
    row_ratio: Optional[Callable[[np.ndarray], np.ndarray]] = None


AlternativeSpec = Union[IidRatio, KernelAlternative]


def resolve_alternative(alt: AlternativeSpec, z_n: Sequence[float]) -> IidRatio:
    """The alternative itself, or what a kernel's builder returns for z^n."""
    if isinstance(alt, KernelAlternative):
        alt = alt.builder(tuple(z_n))
        if not isinstance(alt, IidRatio):
            raise TypeError(f"builder returned {type(alt).__name__}, not an IidRatio")
    elif not isinstance(alt, IidRatio):
        raise TypeError(f"expected an IidRatio or KernelAlternative, got {type(alt).__name__}")
    return alt


def _ratio_matrix(data: np.ndarray, ratio: Callable) -> np.ndarray:
    """The ratio on every entry of ``data``, raising for the first entry in
    row order whose ratio is infinite, negative or NaN; scalar-only
    callables are applied entry by entry."""
    try:
        r = np.asarray(ratio(data), dtype=float)
        if r.shape != data.shape:
            raise TypeError
    except (TypeError, ValueError):
        r = np.vectorize(ratio, otypes=[float])(data)
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
    return _scale_iid(mu, sigma, tau)


def _scale_iid(mu: float, sigma: float, tau: float) -> IidRatio:
    return IidRatio(lambda z: _scale_ratio(z, mu, sigma, tau),
                    name=f"gaussian-scale(mu={mu:g},sigma={sigma:g},tau={tau:g})")


def _centred_kernel(centre: Callable, sigma: float, tau: float, name: str) -> KernelAlternative:
    """The scale ratio of ``gaussian_scale_ratio(centre(z_n), sigma, tau)``
    as a kernel: ``centre`` maps a calibration tuple's values to its centre,
    or a block's (n, B) calibration columns to the B rows' centres, with the
    same arithmetic, so the builder and the row form agree bit for bit. The
    kernel checks its scales; a centre that overflows is left to the ratio
    checks in both forms."""

    def builder(z_n: Sequence[float]) -> IidRatio:
        return _scale_iid(centre(z_n), sigma, tau)

    def row_ratio(block: np.ndarray) -> np.ndarray:
        return _scale_ratio(block, centre(block[:, :-1].T)[:, None], sigma, tau)

    return KernelAlternative(builder, name, row_ratio)


def ar1_kernel(mu: float, rho: float, tau: float) -> KernelAlternative:
    """First-order autoregressive preference with unit marginal variance.

    For each calibration tuple the alternative is a scale family centered at
    the one-step conditional mean mu + rho * (z_n - mu).
    """
    _check_centre(mu)
    if not -1.0 < rho < 1.0:
        raise ValueError("rho must lie in (-1, 1)")
    if tau <= 1.0:
        raise ValueError("tau must exceed the unit marginal scale")
    _check_scales(1.0, tau)
    return _centred_kernel(lambda z_n: mu + rho * (z_n[-1] - mu), 1.0, tau,
                           f"ar1(mu={mu:g},rho={rho:g},tau={tau:g})")


def _calibration_mean(z_n):
    """Mean over the first axis of z_n, summed left to right: a tuple's mean,
    or the row means of a (n, B) array of calibration columns."""
    total = 0.0
    for z in z_n:
        total += z
    return total / len(z_n)


def gaussian_composite_kernel(sigma: float, tau: float) -> KernelAlternative:
    """Scale alternative recentered at the calibration mean.

    Expresses a location family whose center is unknown and estimated by the
    sample mean of z^n.
    """
    if not 0 < sigma < tau:
        raise ValueError("need 0 < sigma < tau")
    _check_scales(sigma, tau)
    return _centred_kernel(_calibration_mean, sigma, tau,
                           f"gaussian-composite(sigma={sigma:g},tau={tau:g})")
