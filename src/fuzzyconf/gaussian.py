"""Closed-form prediction sets and fuzzy sets for Gaussian location models.

Known-variance families only. Three interval constructions (known mean,
estimated mean, first-order autoregressive center) and their fuzzy
counterparts: the raw scale likelihood ratio, its capped-and-boosted
version whose null mean is renormalized to 1, and the two-valued
step e-value matching the classical interval.

These double as analytic ground truth for the conformal machinery.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Optional

from .errors import DomainError, NormalizationFailureError

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)

_NULL_MEAN_TOL = 1e-6
_BOOST_RESIDUAL_TOL = 1e-9


def _norm_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / _SQRT2PI


def _norm_cdf(x: float) -> float:
    # erfc keeps full relative accuracy deep in the lower tail
    return 0.5 * math.erfc(-x / _SQRT2)


# Acklam's rational approximation to the standard normal quantile
# (relative error ~1.15e-9), then one Newton step on the CDF.
_ACKLAM_A = (
    -3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
    1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00,
)
_ACKLAM_B = (
    -5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
    6.680131188771972e+01, -1.328068155288572e+01,
)
_ACKLAM_C = (
    -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
    -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00,
)
_ACKLAM_D = (
    7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
    3.754408661907416e+00,
)
_ACKLAM_LOW = 0.02425


def std_normal_quantile(p: float) -> float:
    """Inverse standard normal CDF, absolute error below 1e-10.

    Rational initial guess refined by one Newton step on the CDF, which
    drives the error to machine precision everywhere in (0, 1).
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"quantile level must lie strictly in (0, 1), got {p!r}")
    a, b, c, d = _ACKLAM_A, _ACKLAM_B, _ACKLAM_C, _ACKLAM_D
    if p < _ACKLAM_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    elif p <= 1.0 - _ACKLAM_LOW:
        q = p - 0.5
        r = q * q
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)

    pdf = _norm_pdf(x)
    if pdf > 0.0:
        x -= (_norm_cdf(x) - p) / pdf
    return x


# ---------------------------------------------------------------------------
# Intervals
# ---------------------------------------------------------------------------


def simple_interval(mu: float, sigma: float, alpha: float) -> tuple[float, float]:
    """Two-sided interval [mu -+ sigma * c] with c the (1 - alpha/2)-quantile."""
    _check(sigma=sigma, alpha=alpha, mu=mu)
    c = std_normal_quantile(1.0 - alpha / 2.0)
    return (mu - sigma * c, mu + sigma * c)


def composite_interval(zbar: float, sigma: float, n: int, alpha: float) -> tuple[float, float]:
    """Interval centered at the sample mean, widened by sqrt(1 + 1/n) for the
    estimation of the center."""
    _check(sigma=sigma, alpha=alpha, n=n, zbar=zbar)
    c = std_normal_quantile(1.0 - alpha / 2.0)
    half = c * sigma * math.sqrt(1.0 + 1.0 / n)
    return (zbar - half, zbar + half)


def ar1_interval(mu: float, rho: float, z_last: float, alpha: float) -> tuple[float, float]:
    """Interval centered at the one-step conditional mean mu + rho*(z_n - mu);
    unit marginal variance."""
    _check(alpha=alpha, rho=rho, mu=mu, z_last=z_last)
    c = std_normal_quantile(1.0 - alpha / 2.0)
    center = mu + rho * (z_last - mu)
    return (center - c, center + c)


# ---------------------------------------------------------------------------
# Fuzzy sets
# ---------------------------------------------------------------------------


# Each family's ``_*_curve`` checks its parameters and solves its boost once,
# then returns the unchecked per-point core z -> evidence. The public scalar
# function evaluates the core at one point; a grid curve (``cli``) evaluates
# it at every point, with the same arithmetic.


def _log_curve(mu: float, sigma: float, tau: float) -> Callable[[float], float]:
    _check(sigma=sigma, tau=tau, mu=mu)
    log_ratio = math.log(sigma / tau)
    spread = tau * tau - sigma * sigma
    scale = 2.0 * sigma * sigma * tau * tau

    def lr(z: float) -> float:
        d = z - mu
        logval = log_ratio + d * d * spread / scale
        if logval > 709.0:
            return math.inf
        return math.exp(logval)

    return lr


def _composite_log_curve(zbar: float, sigma: float, tau: float, n: int) -> Callable[[float], float]:
    _check(sigma=sigma, tau=tau, n=n, zbar=zbar)
    f = math.sqrt(1.0 + 1.0 / n)
    return _log_curve(zbar, sigma * f, tau * f)


def _bounded_log_curve(mu: float, sigma: float, tau: float, alpha: float) -> Callable[[float], float]:
    _check(sigma=sigma, tau=tau, alpha=alpha, mu=mu)
    b = bounded_log_boost(mu, sigma, tau, alpha)
    lr = _log_curve(mu, sigma, tau)
    cap = 1.0 / alpha
    return lambda z: min(b * lr(z), cap)


def _composite_bounded_log_curve(
    zbar: float, sigma: float, tau: float, n: int, alpha: float
) -> Callable[[float], float]:
    _check(sigma=sigma, tau=tau, n=n, alpha=alpha, zbar=zbar)
    f = math.sqrt(1.0 + 1.0 / n)
    return _bounded_log_curve(zbar, sigma * f, tau * f, alpha)


def _np_curve(mu: float, sigma: float, alpha: float) -> Callable[[float], float]:
    _check(sigma=sigma, alpha=alpha, mu=mu)
    half = sigma * std_normal_quantile(1.0 - alpha / 2.0)
    top = 1.0 / alpha
    return lambda z: top if abs(z - mu) > half else 0.0


def _composite_np_curve(zbar: float, sigma: float, n: int, alpha: float) -> Callable[[float], float]:
    _check(sigma=sigma, n=n, alpha=alpha, zbar=zbar)
    return _np_curve(zbar, sigma * math.sqrt(1.0 + 1.0 / n), alpha)


def gaussian_log_fuzzy(z: float, mu: float, sigma: float, tau: float) -> float:
    """Evidence = density ratio of N(mu, tau^2) to N(mu, sigma^2) at z.

    Grows without bound in the tails (tau > sigma); equals sigma/tau at mu.
    """
    return _log_curve(mu, sigma, tau)(z)


def gaussian_composite_log_fuzzy(z: float, zbar: float, sigma: float, tau: float, n: int) -> float:
    """Same ratio centered at the sample mean, with both variances inflated
    by the 1/n estimation term."""
    return _composite_log_curve(zbar, sigma, tau, n)(z)


@lru_cache(maxsize=256)
def bounded_log_boost(mu: float, sigma: float, tau: float, alpha: float) -> float:
    """Boost constant b for the capped ratio min(b * LR, 1/alpha).

    Solved so the null mean E_{N(mu, sigma^2)}[min(b*LR, 1/alpha)] equals 1
    within 1e-6, by bisection on b. The null mean has a closed form: where
    the cap does not bind, LR * N(mu, sigma^2) = N(mu, tau^2), so the core is
    b * P(|Z_tau| < radius); where it binds, the cap times the null tail mass.
    """
    _check(sigma=sigma, tau=tau, alpha=alpha, mu=mu)
    cap = 1.0 / alpha

    def null_mean(b: float) -> float:
        # cap binds where b*LR(z) >= cap, i.e. |z - mu| >= radius(b)
        arg = math.log(cap * tau / (b * sigma))
        if arg <= 0.0:
            return cap  # capped everywhere
        radius = math.sqrt(2.0 * sigma * sigma * tau * tau * arg / (tau * tau - sigma * sigma))
        core = b * math.erf(radius / (tau * _SQRT2))
        # the lower tail keeps its relative accuracy; 1 - cdf would cancel
        tail = 2.0 * cap * _norm_cdf(-radius / sigma)
        return core + tail

    lo, hi = 1.0, 2.0  # every check below fails on a NaN null mean
    if not null_mean(lo) <= 1.0 + _BOOST_RESIDUAL_TOL:
        raise NormalizationFailureError(f"capped ratio has null mean {null_mean(lo)!r} at boost 1")
    while not null_mean(hi) >= 1.0:
        hi *= 2.0
        if hi > 1e12:
            raise NormalizationFailureError("no boost constant brackets mean 1")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if null_mean(mid) < 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * hi:
            break
    b = 0.5 * (lo + hi)
    if not abs(null_mean(b) - 1.0) <= _NULL_MEAN_TOL:
        raise NormalizationFailureError("bisection on the boost constant stalled")
    return b


def gaussian_bounded_log_fuzzy(
    z: float, mu: float, sigma: float, tau: float, alpha: float
) -> float:
    """Evidence = min(b * LR(z), 1/alpha) with the boost b renormalizing the
    null mean to 1; ``bounded_log_boost`` caches b."""
    return _bounded_log_curve(mu, sigma, tau, alpha)(z)


def gaussian_composite_bounded_log_fuzzy(
    z: float, zbar: float, sigma: float, tau: float, n: int, alpha: float
) -> float:
    """Capped-and-boosted ratio in the estimated-center family.

    Caveat: optimality of the capped form under an estimated center is a
    conjecture; validity (null mean 1) holds regardless and is what this
    function renormalizes.
    """
    return _composite_bounded_log_curve(zbar, sigma, tau, n, alpha)(z)


def composite_bounded_log_boost(sigma: float, tau: float, n: int, alpha: float, zbar: float = 0.0) -> float:
    """Boost constant for the composite capped ratio (center drops out)."""
    f = math.sqrt(1.0 + 1.0 / n)
    return bounded_log_boost(zbar, sigma * f, tau * f, alpha)


def gaussian_np_evalue(z: float, mu: float, sigma: float, alpha: float) -> float:
    """Two-valued step e-value: 1/alpha outside [mu -+ sigma*c], else 0.

    Its alpha-sublevel set is exactly ``simple_interval``.
    """
    return _np_curve(mu, sigma, alpha)(z)


def gaussian_composite_np_evalue(z: float, zbar: float, sigma: float, n: int, alpha: float) -> float:
    """Step e-value whose sublevel set is ``composite_interval``."""
    return _composite_np_curve(zbar, sigma, n, alpha)(z)


def _check(sigma: Optional[float] = None, tau: Optional[float] = None,
           alpha: Optional[float] = None, n: Optional[int] = None,
           rho: Optional[float] = None, **centers: float) -> None:
    """Validate the parameters given; ``centers`` are locations (mu, zbar,
    z_last), each of which must be finite."""
    for name, value in centers.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if sigma is not None and not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma!r}")
    if tau is not None:
        if sigma is None:
            raise ValueError("tau requires sigma")
        if tau <= sigma:
            raise ValueError("tau must exceed sigma")
        s2, t2 = sigma * sigma, tau * tau
        # the closed forms divide by sigma^2 tau^2 and tau^2 - sigma^2
        if not all(0.0 < v < math.inf for v in (s2, t2, t2 - s2, s2 * t2)):
            raise DomainError(f"sigma={sigma!r} and tau={tau!r} are out of range: sigma^2, tau^2, "
                              "tau^2 - sigma^2 and sigma^2 tau^2 must be positive finite floats")
    if alpha is not None and not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if n is not None and n < 1:
        raise ValueError("n must be at least 1")
    if rho is not None and not -1.0 < rho < 1.0:
        raise ValueError("rho must lie in (-1, 1)")
