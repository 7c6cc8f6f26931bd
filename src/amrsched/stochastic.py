"""Normal-law helpers of the stochastic timing model.

Arrival times are carried as normal (mean, variance) pairs.  Waiting at a
request window turns the start time into the left-truncated variable
Y = max(X, e); only its first two moments are propagated, re-read as a
normal for the next leg.  The time-window test compares the
``normal_quantile(1 - epsilon)`` quantile of the arrival against the window
close.  The trip recurrence in ``evaluation`` computes the truncated moments
inline; ``truncated_start`` is the reference closed form the tests hold it to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import erfc, exp, sqrt

from .model import Gaussian

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / _SQRT2)


def normal_pdf(x: float) -> float:
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF (Acklam's rational fit, one Newton step)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile needs 0 < p < 1, got {p}")
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    p_low, p_high = 0.02425, 1 - 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    elif p <= p_high:
        q = p - 0.5
        r = q * q
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    # one Newton refinement pushes the fit to near machine precision
    err = normal_cdf(x) - p
    x -= err / normal_pdf(x)
    return x


def truncated_start(arrival: Gaussian, e: float) -> Gaussian:
    """Moments of the service start Y = max(X, e) for X ~ N(arrival)."""
    return Gaussian(*_truncated_moments(arrival.mean, arrival.variance, e))


def _truncated_moments(mu: float, var: float, e: float) -> tuple[float, float]:
    """(mean, variance) of Y = max(X, e) for X ~ N(mu, var).

    Computed in the frame centered at e, which keeps the variance stable even
    when the window opening sits many sigmas above the arrival mean.  A
    degenerate arrival (variance <= 0) reduces to the deterministic max.
    """
    if var <= 0.0:
        return max(mu, e), 0.0
    sigma = sqrt(var)
    z = (e - mu) / sigma
    upper = 0.5 * erfc(z / _SQRT2)             # P(X > e)
    pdf = _INV_SQRT_2PI * exp(-0.5 * z * z)
    c = mu - e
    excess = c * upper + sigma * pdf           # E[Y] - e, always >= 0
    second = (c * c + var) * upper + c * sigma * pdf
    var_y = second - excess * excess
    if var_y < 0.0:
        var_y = 0.0
    elif var_y > var:
        var_y = var
    return e + excess, var_y


def violation_probability(arrival: Gaussian, h: float) -> float:
    """P(arrival > h); 0/1 step when the arrival is deterministic."""
    if arrival.variance <= 0.0:
        return 0.0 if arrival.mean <= h else 1.0
    return 0.5 * math.erfc((h - arrival.mean) / (_SQRT2 * math.sqrt(arrival.variance)))


@dataclass(frozen=True)
class NodeTiming:
    """Arrival/start distributions plus the mean departure at one trip node."""

    arrival: Gaussian
    start: Gaussian
    departure_mean: float
