"""Normal-law helpers of the stochastic timing model.

Arrival times are carried as normal (mean, variance) pairs.  Waiting at a
request window turns the start time into the left-truncated variable
Y = max(X, e); only its first two moments are propagated, re-read as a
normal for the next leg.  The time-window test compares the ``1 - epsilon``
quantile of the arrival against the window close; its standard normal z
comes from ``statistics.NormalDist().inv_cdf``, which ``normal_quantile``
wraps.  The trip recurrence in ``evaluation`` computes the truncated moments
inline; ``truncated_start`` is the reference closed form the tests hold it to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import erfc, exp, sqrt
from statistics import NormalDist

from .model import Gaussian

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF; ValueError unless 0 < p < 1."""
    return NormalDist().inv_cdf(p)


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
