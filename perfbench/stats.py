"""Quantile estimators for the benchmark's latency metrics."""

import math
import statistics


def quantile(values, q):
    """The q-th percentile, interpolated between the two nearest order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def hd_quantile(values, q):
    """Harrell-Davis estimate of the q-quantile (0 < q < 1).

    A weighted mean of every order statistic, with Beta((n+1)q, (n+1)(1-q))
    weights. A run's requests come from a few command classes with distinct
    times, so the plain estimate jumps whenever noise reorders the samples at
    a class boundary; this one moves smoothly. Recomputed over one ten-run
    set of analyze-cold, it cut the run-to-run spread of both percentiles by
    about half.
    """
    v = sorted(values)
    n = len(v)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    cdf = [_ibeta(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * v[i] for i in range(n))


def _ibeta(a, b, x):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0:
        return 0.0
    if x >= 1:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) +
                     a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _beta_fraction(a, b, x) / a
    return 1 - front * _beta_fraction(b, a, 1 - x) / b


def _beta_fraction(a, b, x):
    """Continued fraction for the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1 - (a + b) * x / (a + 1)
    d = 1 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 300):
        for numerator in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                          -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1 + numerator * d
            d = 1 / (d if abs(d) > tiny else tiny)
            c = 1 + numerator / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1) < 1e-15:
            break
    return h
