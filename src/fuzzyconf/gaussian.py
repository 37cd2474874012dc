"""Closed-form prediction sets and fuzzy sets for Gaussian location models.

Known-variance families only. Three interval constructions (known mean,
estimated mean, first-order autoregressive center) and their fuzzy
counterparts: the raw scale likelihood ratio, its capped-and-boosted
version whose null mean is renormalized to 1, and the two-valued
step e-value matching the classical interval.

``simple_interval`` is the one interval rule: the only place that forms the
critical value and the endpoints. The composite interval is a simple
interval at the widened scale, the AR(1) interval one at the conditional
mean with unit scale, and each NP step e-value is 1/alpha exactly off its
interval's endpoints: its alpha-sublevel set is its interval family's
output, endpoints included, float for float.

These double as analytic ground truth for the conformal machinery.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Optional

from .errors import NormalizationFailureError

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)
_LOG_SQRT2PI = math.log(_SQRT2PI)
_SMALLEST_NORMAL = 2.0 ** -1022

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
    """Inverse standard normal CDF, absolute error below 1e-13 everywhere in
    (0, 1), subnormal p included (against 50-digit arithmetic, the largest
    error on a log-spaced sweep down to 5e-324 is 2.7e-14).

    Rational initial guess refined by one Newton step on the CDF. Below the
    smallest normal float, where the CDF and the pdf at the guess are both
    subnormal and their ratio keeps few digits, the step is taken on the log
    CDF instead, from the asymptotic series of the Mills ratio. The upper
    half is the mirror image of the lower, -std_normal_quantile(1 - p):
    1 - p is exact there, while a Newton step on a CDF near 1 would cancel.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile level must lie strictly in (0, 1), got {p!r}")
    if p > 0.5:
        return -std_normal_quantile(1.0 - p)
    a, b, c, d = _ACKLAM_A, _ACKLAM_B, _ACKLAM_C, _ACKLAM_D
    if p < _ACKLAM_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    else:
        q = p - 0.5
        r = q * q
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)

    if p < _SMALLEST_NORMAL:
        # the step on log Phi, whose slope is 1/m(-x): Phi(x) = pdf(x) m(-x)
        # with the Mills ratio m(t) = (1/t) sum_k (-1)^k (2k-1)!!/t^(2k), and
        # at t > 37 eight terms reach the last digit
        t2, term, series = x * x, 1.0, 1.0
        for k in range(1, 8):
            term *= -(2 * k - 1) / t2
            series += term
        mills = -series / x
        return x - (-0.5 * t2 - _LOG_SQRT2PI + math.log(mills) - math.log(p)) * mills
    pdf = _norm_pdf(x)
    if pdf > 0.0:
        x -= (_norm_cdf(x) - p) / pdf
    return x


# ---------------------------------------------------------------------------
# Intervals
# ---------------------------------------------------------------------------


def simple_interval(mu: float, sigma: float, alpha: float) -> tuple[float, float]:
    """Two-sided interval [mu -+ sigma * c] with c the (1 - alpha/2)-quantile,
    taken as -std_normal_quantile(alpha/2): forming 1 - alpha/2 would drop
    the digits of a small alpha. An endpoint that overflows is a
    ``ValueError``."""
    _check(sigma=sigma, alpha=alpha, mu=mu)
    c = -std_normal_quantile(alpha / 2.0)
    lo, hi = mu - sigma * c, mu + sigma * c
    if not math.isfinite(lo) or not math.isfinite(hi):
        raise ValueError(f"the interval endpoints overflow, got lo={lo!r} and hi={hi!r}")
    return (lo, hi)


def composite_interval(zbar: float, sigma: float, n: int, alpha: float) -> tuple[float, float]:
    """Interval centered at the sample mean, widened by sqrt(1 + 1/n) for the
    estimation of the center: ``simple_interval`` at the scale
    sigma * sqrt(1 + 1/n)."""
    _check(sigma=sigma, alpha=alpha, zbar=zbar)
    return simple_interval(zbar, sigma * _widening(n), alpha)


def ar1_interval(mu: float, rho: float, z_last: float, alpha: float) -> tuple[float, float]:
    """Interval centered at the one-step conditional mean mu + rho*(z_n - mu);
    unit marginal variance: ``simple_interval`` there with sigma 1."""
    _check(alpha=alpha, rho=rho, mu=mu, z_last=z_last)
    center = mu + rho * (z_last - mu)
    if not math.isfinite(center):  # finite inputs far apart overflow it
        raise ValueError(f"the conditional mean mu + rho*(z_last - mu) overflows, got {center!r}")
    return simple_interval(center, 1.0, alpha)


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
        try:
            return math.exp(log_ratio + d * d * spread / scale)
        except OverflowError:  # the ratio is past the float range
            return math.inf

    return lr


def _composite_log_curve(zbar: float, sigma: float, tau: float, n: int) -> Callable[[float], float]:
    _check(sigma=sigma, tau=tau, zbar=zbar)
    f = _widening(n)
    return _log_curve(zbar, sigma * f, tau * f)


def _bounded_log_curve(mu: float, sigma: float, tau: float, alpha: float) -> Callable[[float], float]:
    _check(sigma=sigma, tau=tau, alpha=alpha, mu=mu)
    b = bounded_log_boost(sigma, tau, alpha)
    lr = _log_curve(mu, sigma, tau)
    cap = 1.0 / alpha
    return lambda z: min(b * lr(z), cap)


def _composite_bounded_log_curve(
    zbar: float, sigma: float, tau: float, n: int, alpha: float
) -> Callable[[float], float]:
    _check(sigma=sigma, tau=tau, alpha=alpha, zbar=zbar)
    f = _widening(n)
    return _bounded_log_curve(zbar, sigma * f, tau * f, alpha)


def _np_curve(mu: float, sigma: float, alpha: float) -> Callable[[float], float]:
    lo, hi = simple_interval(mu, sigma, alpha)
    top = 1.0 / alpha
    return lambda z: top if z < lo or z > hi else 0.0


def _composite_np_curve(zbar: float, sigma: float, n: int, alpha: float) -> Callable[[float], float]:
    _check(sigma=sigma, alpha=alpha, zbar=zbar)
    return _np_curve(zbar, sigma * _widening(n), alpha)


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
def bounded_log_boost(sigma: float, tau: float, alpha: float) -> float:
    """Boost constant b for the capped ratio min(b * LR, 1/alpha), LR the
    ratio of N(mu, tau^2) to N(mu, sigma^2); the centre mu drops out.

    Solved so the null mean E_{N(mu, sigma^2)}[min(b*LR, 1/alpha)] equals 1,
    by Newton steps on b from b = 1. The null mean has a closed form: where
    the cap does not bind, LR * N(mu, sigma^2) = N(mu, tau^2), so the core is
    b * P(|Z_tau| < radius), whose slope in b is that uncapped mass; where it
    binds, the cap times the null tail mass. Each term min(b*LR, cap) is
    concave in b, so no step passes the root: b rises until it stops there.
    """
    _check(sigma=sigma, tau=tau, alpha=alpha)
    cap = 1.0 / alpha

    def null_mean(b: float) -> tuple[float, float]:
        # cap binds where b*LR(z) >= cap, i.e. |z - mu| >= radius(b)
        arg = math.log(cap * tau / (b * sigma))
        if arg <= 0.0:
            return cap, 0.0  # capped everywhere
        radius = math.sqrt(2.0 * sigma * sigma * tau * tau * arg / (tau * tau - sigma * sigma))
        mass = math.erf(radius / (tau * _SQRT2))
        # the lower tail keeps its relative accuracy; 1 - cdf would cancel
        tail = 2.0 * cap * _norm_cdf(-radius / sigma)
        return b * mass + tail, mass

    b = 1.0
    mean, slope = null_mean(b)  # every check below fails on a NaN null mean
    if not mean <= 1.0 + _BOOST_RESIDUAL_TOL:
        raise NormalizationFailureError(f"capped ratio has null mean {mean!r} at boost 1")
    while mean < 1.0 and (step := b + (1.0 - mean) / slope) > b:
        b = step
        mean, slope = null_mean(b)
    if not abs(mean - 1.0) <= _BOOST_RESIDUAL_TOL:
        raise NormalizationFailureError(f"capped ratio has null mean {mean!r} at boost {b!r}")
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


def gaussian_np_evalue(z: float, mu: float, sigma: float, alpha: float) -> float:
    """Two-valued step e-value: 1/alpha outside ``simple_interval(mu, sigma,
    alpha)``, else 0 (NaN too).

    The step is the interval's complement, tested against the interval's own
    endpoints, so its alpha-sublevel set is exactly ``simple_interval``: each
    endpoint is kept, each float past it excluded.
    """
    return _np_curve(mu, sigma, alpha)(z)


def gaussian_composite_np_evalue(z: float, zbar: float, sigma: float, n: int, alpha: float) -> float:
    """Step e-value whose alpha-sublevel set is exactly ``composite_interval``:
    the simple step at the widened scale."""
    return _composite_np_curve(zbar, sigma, n, alpha)(z)


def _widening(n: int) -> float:
    """sqrt(1 + 1/n), the factor by which estimating the center from n
    values widens every scale of a composite family."""
    if not n >= 1:  # NaN too
        raise ValueError("n must be at least 1")
    return math.sqrt(1.0 + 1.0 / n)


def _check(sigma: Optional[float] = None, tau: Optional[float] = None,
           alpha: Optional[float] = None, rho: Optional[float] = None,
           **centers: float) -> None:
    """Validate the parameters given; ``centers`` are locations (mu, zbar,
    z_last), each of which must be finite."""
    for name, value in centers.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if sigma is not None and not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma!r}")
    if tau is not None:
        if tau <= sigma:
            raise ValueError("tau must exceed sigma")
        s2, t2 = sigma * sigma, tau * tau
        # the closed forms divide by 2 sigma^2 tau^2 and tau^2 - sigma^2;
        # alternatives._check_scales keeps the same bounds for the conformal
        # scale ratio, whose calls must not load this module
        if not all(0.0 < v < math.inf for v in (s2, t2, t2 - s2, s2 * t2,
                                                 2.0 * sigma * sigma * tau * tau)):
            raise ValueError(f"sigma={sigma!r} and tau={tau!r} are out of range: sigma^2, tau^2, "
                             "tau^2 - sigma^2, sigma^2 tau^2 and 2 sigma^2 tau^2 must be "
                             "positive finite floats")
    if alpha is not None and not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if rho is not None and not -1.0 < rho < 1.0:
        raise ValueError("rho must lie in (-1, 1)")
