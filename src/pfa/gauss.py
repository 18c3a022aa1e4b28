"""Standard normal kernel: CDF, density, quantile, two-sided p-values.

Everything tail-sensitive is phrased through Phi(-|x|) so that thresholds
far in the tail (t down to ~1e-9) never suffer cancellation against 1.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr, ndtri

__all__ = ["norm_cdf", "norm_pdf", "norm_quantile", "two_sided_pvalue"]

_SQRT_2PI = np.sqrt(2.0 * np.pi)


def norm_cdf(x, out=None):
    """Standard normal CDF; accepts scalars or arrays, saturates at 0/1.

    With `out`, an array of x's shape, the values are written there.
    """
    return ndtr(x, out=out)


def norm_pdf(x):
    """Standard normal density (2*pi)^(-1/2) * exp(-x^2/2)."""
    return np.exp(-0.5 * np.square(x)) / _SQRT_2PI


def norm_quantile(q):
    """Inverse standard normal CDF for q strictly inside (0, 1), elementwise; a float for a scalar q."""
    q = check_unit_interval(q, "quantile argument")
    return float(ndtri(q)) if q.ndim == 0 else ndtri(q)


def two_sided_pvalue(z):
    """Two-sided p-value 2*Phi(-|z|) of a standard normal test statistic."""
    return 2.0 * ndtr(-np.abs(z))


def check_unit_interval(values, name: str) -> np.ndarray:
    """values as a float array, each strictly inside (0, 1); else a ValueError naming the first outside."""
    values = np.asarray(values, dtype=float)
    outside = ~((values > 0.0) & (values < 1.0))
    if np.any(outside):
        raise ValueError(f"{name} must lie in (0, 1), got {float(values.flat[np.argmax(outside)])}")
    return values
