"""Alternative hypotheses and orbit-conditional likelihood ratios.

An alternative is what the user wants the confidence set to be small
against. Conditionally on the orbit of a tuple, only the law of the final
slot matters, so an alternative reduces to a per-observation density ratio
``r(z)`` between the final slot's law and the base law, possibly re-fit to
each calibration tuple by a kernel.

The output is a likelihood-ratio profile: the density of the alternative's
final-slot law against the uniform law on the orbit. Its orbit mean is 1 by
construction, which is the single property every exact e-value built from
it inherits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .errors import AllZeroRatioError
from .orbits import TupleLike, orbit_of, tuple_values

ORBIT_MEAN_TOL = 1e-9


@dataclass(frozen=True)
class LikelihoodRatioProfile:
    """Conditional likelihood ratio per distinct orbit value.

    ``lr[i]`` is the ratio of the alternative's final-slot law to the
    uniform law on the orbit, evaluated at ``values[i]``; ``counts[i]`` is
    that value's multiplicity. The multiplicity-weighted mean of ``lr``
    equals 1 (it is a density with respect to the uniform orbit law).
    """

    values: tuple[float, ...]
    counts: tuple[int, ...]
    lr: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (len(self.values) == len(self.counts) == len(self.lr)):
            raise ValueError("values, counts and lr must have equal length")
        if any(c < 1 for c in self.counts):
            raise ValueError("multiplicities must be positive")
        for x in self.lr:
            if not (math.isfinite(x) and x >= 0.0):
                raise ValueError(f"likelihood ratios must be finite and >= 0, got {x!r}")
        mean = self.orbit_mean()
        if abs(mean - 1.0) > ORBIT_MEAN_TOL:
            raise ValueError(f"orbit mean of the likelihood ratio is {mean!r}, not 1")

    @property
    def size(self) -> int:
        return sum(self.counts)

    def orbit_mean(self) -> float:
        m = sum(self.counts)
        return sum(c * x for c, x in zip(self.counts, self.lr)) / m

    def lr_at(self, value: float) -> float:
        """Likelihood ratio at a value of the orbit (exact match)."""
        for v, x in zip(self.values, self.lr):
            if v == value:
                return x
        raise ValueError(f"{value!r} is not on this orbit")


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

    The builder receives the calibration tuple z^n and returns a concrete
    alternative for it, e.g. a scale alternative recentered at a running
    mean. Evaluated lazily, once per calibration tuple.

    Because the ratio is re-fit to each calibration, the resulting evidence
    is exact conditional on z^n: under a model whose conditional law of the
    target matches the resolved base (the autoregressive family, say), the
    mean evidence at the truth is 1. Unconditional exactness on permutation
    orbits is a property of fixed ratios, not of kernels, which re-resolve
    against every arrangement.
    """

    builder: Callable[[Sequence[float]], "AlternativeSpec"]
    name: str = "kernel"


AlternativeSpec = Union[IidRatio, KernelAlternative]


def kernel_alternative(
    builder: Callable[[Sequence[float]], AlternativeSpec], name: str = "kernel"
) -> KernelAlternative:
    """Wrap a z^n -> AlternativeSpec builder as a deferred alternative."""
    return KernelAlternative(builder, name)


def resolve_alternative(alt: AlternativeSpec, z_n: Sequence[float]) -> IidRatio:
    """Resolve any kernel layers against the calibration tuple z^n."""
    seen = 0
    while isinstance(alt, KernelAlternative):
        alt = alt.builder(tuple(z_n))
        seen += 1
        if seen > 32:
            raise ValueError("kernel alternative did not resolve (builder loop)")
    if not isinstance(alt, IidRatio):
        raise TypeError(f"builder returned {type(alt).__name__}, not an alternative spec")
    return alt


def _ratio_error(r: float, z: float) -> ValueError:
    if r == math.inf:
        return ValueError(
            f"ratio is infinite at z={z!r}; cap the ratio (infinite evidence "
            "is expressed through the utility, not the alternative)"
        )
    return ValueError(f"ratio must be nonnegative, got {r!r} at z={z!r}")


def _eval_ratio(ratio: Callable[[float], float], z: float) -> float:
    r = float(ratio(z))
    if not 0.0 <= r < math.inf:
        raise _ratio_error(r, z)
    return r


def conditional_lr_iid(data: TupleLike, ratio: Callable[[float], float]) -> LikelihoodRatioProfile:
    """Likelihood-ratio profile for an independent alternative.

    For a tuple (z_1, ..., z_m) and per-observation ratio r, the profile is
    lr(v) = r(v) / mean_i r(z_i), the mean running over all m slots. Scaling
    r by any positive constant leaves the profile unchanged.

    Raises AllZeroRatioError when r vanishes on every element of the tuple.
    """
    orbit = orbit_of(data)
    r = [_eval_ratio(ratio, v) for v in orbit.values]
    total = sum(c * x for c, x in zip(orbit.counts, r))
    if total == 0.0:
        raise AllZeroRatioError("the ratio is zero on every element of the tuple")
    mean = total / orbit.size
    return LikelihoodRatioProfile(orbit.values, orbit.counts, tuple(x / mean for x in r))


def _ratio_values(data: np.ndarray, ratio: Callable) -> np.ndarray:
    """The ratio on every entry of ``data``, unchecked; scalar-only callables
    are applied entry by entry."""
    try:
        r = np.asarray(ratio(data), dtype=float)
        if r.shape != data.shape:
            raise TypeError
    except (TypeError, ValueError):
        r = np.vectorize(ratio, otypes=[float])(data)
    return r


def _ratio_ok(r: np.ndarray) -> np.ndarray:
    return (r >= 0.0) & (r < math.inf)


def _ratio_matrix(data: np.ndarray, ratio: Callable) -> np.ndarray:
    r = _ratio_values(data, ratio)
    bad = ~_ratio_ok(r)
    if bad.any():
        i = np.flatnonzero(bad)[0]
        raise _ratio_error(float(r.flat[i]), float(data.flat[i]))
    return r


def profile_for(data: TupleLike, alt: AlternativeSpec) -> LikelihoodRatioProfile:
    """Resolve an alternative against a tuple and build its LR profile."""
    vals = tuple_values(data)
    return conditional_lr_iid(vals, resolve_alternative(alt, vals[:-1]).ratio)


# ---------------------------------------------------------------------------
# Built-in alternatives. These are preferences, not estimates: they express
# the distribution against which the user wants the confidence set small.
# ---------------------------------------------------------------------------


def gaussian_mean_shift_ratio(mu: float, delta: float, sigma: float = 1.0) -> IidRatio:
    """Ratio of N(mu + delta, sigma^2) to N(mu, sigma^2)."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")

    def ratio(z):
        return np.exp((2.0 * delta * (z - mu) - delta * delta) / (2.0 * sigma * sigma))

    return IidRatio(ratio, name=f"gaussian-mean-shift(mu={mu:g},delta={delta:g},sigma={sigma:g})")


def gaussian_scale_ratio(mu: float, sigma: float, tau: float) -> IidRatio:
    """Ratio of N(mu, tau^2) to N(mu, sigma^2); tau > sigma favors wide exclusion."""
    if sigma <= 0 or tau <= 0:
        raise ValueError("sigma and tau must be positive")

    def ratio(z):
        d2 = (z - mu) * (z - mu)
        return (sigma / tau) * np.exp(d2 * (tau * tau - sigma * sigma) / (2.0 * sigma * sigma * tau * tau))

    return IidRatio(ratio, name=f"gaussian-scale(mu={mu:g},sigma={sigma:g},tau={tau:g})")


def ar1_kernel(mu: float, rho: float, tau: float) -> KernelAlternative:
    """First-order autoregressive preference with unit marginal variance.

    For each calibration tuple the alternative is a scale family centered at
    the one-step conditional mean mu + rho * (z_n - mu).
    """
    if not -1.0 < rho < 1.0:
        raise ValueError("rho must lie in (-1, 1)")
    if tau <= 1.0:
        raise ValueError("tau must exceed the unit marginal scale")

    def builder(z_n: Sequence[float]) -> IidRatio:
        center = mu + rho * (z_n[-1] - mu)
        return gaussian_scale_ratio(center, 1.0, tau)

    return KernelAlternative(builder, name=f"ar1(mu={mu:g},rho={rho:g},tau={tau:g})")


def gaussian_composite_kernel(sigma: float, tau: float) -> KernelAlternative:
    """Scale alternative recentered at the calibration mean.

    Expresses a location family whose center is unknown and estimated by the
    sample mean of z^n.
    """
    if not 0 < sigma < tau:
        raise ValueError("need 0 < sigma < tau")

    def builder(z_n: Sequence[float]) -> IidRatio:
        zbar = sum(z_n) / len(z_n)
        return gaussian_scale_ratio(zbar, sigma, tau)

    return KernelAlternative(builder, name=f"gaussian-composite(sigma={sigma:g},tau={tau:g})")
