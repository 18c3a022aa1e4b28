"""FDR control and baseline procedures.

The factor-adjusted FDR at a fixed threshold is a Monte-Carlo expectation
over factor draws of N(t) / (N(t) + p1), where N(t) is the all-index
false-count numerator and p1 (the number of false nulls) is assumed known.
A single draw matrix is shared across threshold values (common random
numbers), which makes the estimated curve monotone in t and bisection for
a target rate well posed.

Baselines: Benjamini-Hochberg step-up, Storey's fixed-threshold estimate
and his adaptive step-up, and a dispersion-variate estimate in the style of
Efron (2007). The exact
recipe Efron uses to estimate the dispersion variate is not reproduced
here; see `efron_estimate` for the moment-matching stand-in this module
uses instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from .factors import FactorModel, numerator_over_draws
from .gauss import norm_pdf, norm_quantile, two_sided_pvalue

__all__ = [
    "UnreachableAlphaError",
    "ControlResult",
    "RejectionSet",
    "approx_fdr",
    "solve_threshold",
    "bh_procedure",
    "storey_procedure",
    "storey_estimate",
    "efron_estimate",
]

_T_LOW = 1e-12
_T_HIGH = 0.5
_MIN_INTERVAL = 1e-14


class UnreachableAlphaError(RuntimeError):
    """Target rate is outside the reachable range of the FDR curve."""

    def __init__(self, alpha: float, boundary_t: float, boundary_fdr: float, side: str):
        self.alpha = alpha
        self.boundary_t = boundary_t
        self.boundary_fdr = boundary_fdr
        self.side = side
        super().__init__(
            f"target rate {alpha} unreachable: FDR({boundary_t:g}) = {boundary_fdr:.6g}"
        )


@dataclass(frozen=True)
class ControlResult:
    """Solved threshold for a target approximate FDR."""

    alpha: float
    t_star: float
    fdr_at_t: float


@dataclass(frozen=True)
class RejectionSet:
    """Indices a step-up procedure rejects, and its threshold.

    The rejections are exactly the p-values at or below `threshold`, the
    largest rejected p-value (0.0 when none is rejected).
    """

    indices: np.ndarray
    threshold: float

    @property
    def size(self) -> int:
        return self.indices.shape[0]


def approx_fdr(t: float, model: FactorModel, p1: int, draws: np.ndarray) -> float:
    """Approximate FDR at threshold t with p1 false nulls assumed known.

    The expectation runs over the rows of `draws`, an (n, k) matrix from
    `standard_factor_draws`; sharing one matrix across thresholds makes the
    curve monotone in t. For k = 0 it collapses to p*t / (p*t + p1) exactly
    and the draws are not used.
    """
    if not 0.0 < t < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {t}")
    if not 0 <= p1 <= model.p:
        raise ValueError(f"p1 must lie in [0, {model.p}], got {p1}")
    if model.k == 0:
        numerator = model.p * t
        return numerator / (numerator + p1)
    numerators = numerator_over_draws(t, model, draws)
    totals = numerators + p1
    ratios = np.divide(
        numerators,
        totals,
        out=np.zeros_like(numerators),
        where=totals > 0.0,
    )
    return float(np.mean(ratios))


def solve_threshold(
    alpha: float,
    model: FactorModel,
    p1: int,
    draws: np.ndarray,
    tol: float = 1e-4,
) -> ControlResult:
    """Bisection for the threshold whose approximate FDR equals alpha.

    `draws` is an (n, k) matrix from `standard_factor_draws`, n >= 1, used
    at every trial threshold, so the curve being bisected is monotone in t.
    Raises UnreachableAlphaError (with the boundary value) when alpha lies
    outside the curve's range on [1e-12, 0.5].
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if draws.shape[0] < 1:
        raise ValueError("need at least one factor draw")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")

    def curve(t: float) -> float:
        return approx_fdr(t, model, p1, draws)

    low, high = _T_LOW, _T_HIGH
    fdr_high = curve(high)
    if fdr_high < alpha:
        raise UnreachableAlphaError(alpha, high, fdr_high, side="high")
    fdr_low = curve(low)
    if fdr_low > alpha:
        raise UnreachableAlphaError(alpha, low, fdr_low, side="low")

    mid, fdr_mid = high, fdr_high
    while high - low > _MIN_INTERVAL:
        mid = 0.5 * (low + high)
        fdr_mid = curve(mid)
        if abs(fdr_mid - alpha) <= tol:
            break
        if fdr_mid < alpha:
            low = mid
        else:
            high = mid
    return ControlResult(alpha=alpha, t_star=mid, fdr_at_t=fdr_mid)


def _step_up(pvalues: np.ndarray, alpha: float, null_count: float) -> RejectionSet:
    """Reject through the largest order statistic P_(i) <= alpha * i / null_count."""
    sorted_p = np.sort(pvalues)
    with np.errstate(divide="ignore"):  # a null count of 0 makes every bar infinite
        bars = alpha * np.arange(1, pvalues.shape[0] + 1) / null_count
    passing = np.flatnonzero(sorted_p <= bars)
    if passing.size == 0:
        return RejectionSet(indices=np.empty(0, dtype=np.intp), threshold=0.0)
    threshold = float(sorted_p[passing[-1]])
    return RejectionSet(indices=np.flatnonzero(pvalues <= threshold), threshold=threshold)


def bh_procedure(pvalues: np.ndarray, alpha: float) -> RejectionSet:
    """Benjamini-Hochberg step-up at level alpha."""
    pvalues = np.asarray(pvalues, dtype=float)
    return _step_up(pvalues, alpha, pvalues.shape[0])


def _null_count(pvalues: np.ndarray, lambda_param: float) -> float:
    """Storey's p0_hat = #{P_i > lambda} / (1 - lambda), capped at p."""
    if not 0.0 < lambda_param < 1.0:
        raise ValueError(f"lambda must lie in (0, 1), got {lambda_param}")
    return min(np.count_nonzero(pvalues > lambda_param) / (1.0 - lambda_param), float(pvalues.shape[0]))


def storey_procedure(pvalues: np.ndarray, alpha: float, lambda_param: float = 0.5) -> RejectionSet:
    """Storey's adaptive step-up at level alpha: B-H with p replaced by p0_hat.

    Since p0_hat <= p, each bar alpha * i / p0_hat is at least B-H's (the
    same float when the cap fires), so the rejections include B-H's.
    """
    pvalues = np.asarray(pvalues, dtype=float)
    return _step_up(pvalues, alpha, _null_count(pvalues, lambda_param))


def storey_estimate(pvalues: np.ndarray, t: float, lambda_param: float = 0.5) -> float:
    """Storey's fixed-threshold FDR estimate p0_hat * t / (R(t) v 1)."""
    pvalues = np.asarray(pvalues, dtype=float)
    n_rejected = int(np.count_nonzero(pvalues <= t))
    return float(_null_count(pvalues, lambda_param) * t / max(n_rejected, 1))


@lru_cache(maxsize=None)
def _central_band_constants(x0: float) -> tuple[float, float]:
    """Variance and inflation sensitivity of a normal restricted to [-x0, x0].

    Returns (v0, r0): v0 is the variance of a standard normal truncated to
    the band, and r0 the derivative of log(truncated variance) with respect
    to a small inflation of the underlying variance, both by quadrature.
    """

    def band_variance(total_var: float) -> float:
        sd = np.sqrt(total_var)
        density = lambda x: norm_pdf(x / sd) / sd
        mass, _ = quad(density, -x0, x0)
        second, _ = quad(lambda x: x * x * density(x), -x0, x0)
        return second / mass

    v0 = band_variance(1.0)
    eps = 1e-4
    slope = (band_variance(1.0 + eps) - band_variance(1.0 - eps)) / (2.0 * eps)
    return v0, slope / v0


def efron_estimate(z: np.ndarray, t: float, p0: int, x0: float = 1.0) -> float:
    """Dispersion-variate FDP estimate, clipped to [0, 1].

    Correlation inflates or shrinks the spread of the null statistics; a
    scalar dispersion variate A captures this, giving the false-count model
    p0*t*[1 + 2*A*(-z_{t/2})*phi(z_{t/2}) / (sqrt(2)*t)]. A is estimated
    here by moment matching: the mean square of the statistics inside
    [-x0, x0] is compared with the value it would take under a unit normal,
    and the discrepancy is converted to A through the band's inflation
    sensitivity. This recipe is a documented stand-in, not a reproduction
    of Efron's own estimator for A.
    """
    if x0 <= 0.0:
        raise ValueError(f"x0 must be positive, got {x0}")
    z = np.asarray(z, dtype=float)
    n_rejected = int(np.count_nonzero(two_sided_pvalue(z) <= t))
    if n_rejected == 0:
        return 0.0
    central = z[np.abs(z) <= x0]
    if central.size == 0:
        a_hat = 0.0
    else:
        v0, r0 = _central_band_constants(float(x0))
        a_hat = (float(np.mean(np.square(central))) - v0) / (np.sqrt(2.0) * v0 * r0)
    z_half = norm_quantile(0.5 * t)
    est_false = p0 * t * (1.0 + 2.0 * a_hat * (-z_half) * norm_pdf(z_half) / (np.sqrt(2.0) * t))
    return float(np.clip(est_false / n_rejected, 0.0, 1.0))
