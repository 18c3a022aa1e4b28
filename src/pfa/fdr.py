"""FDR control and baseline procedures.

The factor-adjusted FDR at a fixed threshold is a Monte-Carlo expectation
over factor draws of N(t) / (N(t) + p1), where N(t) is the all-index
false-count numerator and p1 (the number of false nulls) is assumed known.
A single draw matrix is shared across threshold values (common random
numbers), which makes the estimated curve monotone in t and a root search
for a target rate well posed.

Baselines: Benjamini-Hochberg step-up, Storey's fixed-threshold estimate
and his adaptive step-up, and a dispersion-variate estimate in the style of
Efron (2007). The exact
recipe Efron uses to estimate the dispersion variate is not reproduced
here; see `efron_estimate` for the moment-matching stand-in this module
uses instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .factors import FactorModel, numerator_over_draws
from .gauss import norm_pdf, norm_quantile, two_sided_pvalue

__all__ = [
    "UnreachableAlphaError",
    "ControlResult",
    "RejectionSet",
    "approx_fdr",
    "approx_fdr_curve",
    "solve_threshold",
    "bh_procedure",
    "storey_procedure",
    "storey_estimate",
    "efron_estimate",
]

_T_LOW = 1e-12
_T_HIGH = 0.5
# The reported FDR curve; its last point is _T_HIGH.
_CURVE_GRID = (*(float(t) for t in np.logspace(-10, np.log10(_T_HIGH), 40)[:-1]), _T_HIGH)
# Illinois steps inside one bracket of the curve before giving up.
_MAX_SOLVE_STEPS = 60


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
    """Solved threshold for a target approximate FDR.

    `curve` holds (t, FDR(t)) on 40 log-spaced points from 1e-10 to 0.5
    (the last is the solve's upper end), `evaluations`
    counts the thresholds the solve evaluated in all, and `converged` is
    whether |fdr_at_t - alpha| <= tol.
    """

    alpha: float
    t_star: float
    fdr_at_t: float
    curve: tuple[tuple[float, float], ...]
    evaluations: int
    converged: bool


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
    """`approx_fdr_curve` at the one threshold t."""
    return approx_fdr_curve((t,), model, p1, draws)[0]


def approx_fdr_curve(thresholds: tuple[float, ...], model: FactorModel, p1: int, draws: np.ndarray) -> list[float]:
    """Approximate FDR at each threshold with p1 false nulls assumed known.

    The expectation runs over the rows of `draws`, an (n, k) matrix from
    `standard_factor_draws`, swept once for all thresholds; sharing one
    matrix across thresholds makes the curve monotone in t. For k = 0 it
    collapses to p*t / (p*t + p1) exactly and the draws are not used.
    """
    for t in thresholds:
        if not 0.0 < t < 1.0:
            raise ValueError(f"threshold must lie in (0, 1), got {t}")
    if not 0 <= p1 <= model.p:
        raise ValueError(f"p1 must lie in [0, {model.p}], got {p1}")
    if model.k == 0:
        return [model.p * t / (model.p * t + p1) for t in thresholds]
    return [mean_fdr(counts, p1) for counts in numerator_over_draws(np.asarray(thresholds), model, draws)[0]]


def mean_fdr(counts: np.ndarray, p1: int) -> float:
    """Mean of N / (N + p1) over the false counts N of the factor draws; 0/0 counts 0."""
    totals = counts + p1
    return float(np.mean(np.divide(counts, totals, out=np.zeros_like(counts), where=totals > 0.0)))


def solve_threshold(
    alpha: float,
    model: FactorModel,
    p1: int,
    draws: np.ndarray,
    tol: float = 1e-4,
) -> ControlResult:
    """The threshold whose approximate FDR lies within tol of alpha.

    `draws` is an (n, k) matrix from `standard_factor_draws`, n >= 1, used at every trial threshold,
    so the curve is monotone in t. One sweep of the draws evaluates the 40-point curve and the lower
    end 1e-12; if alpha lies outside the curve's range on [1e-12, 0.5], UnreachableAlphaError (with
    the boundary value) is raised. Otherwise Illinois steps (regula falsi on the logit of the FDR
    against log t), one `approx_fdr` call each, run inside the bracket of known points that holds
    alpha until |FDR - alpha| <= tol, and the point nearest alpha is returned.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if draws.shape[0] < 1:
        raise ValueError("need at least one factor draw")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")

    *values, fdr_low = approx_fdr_curve((*_CURVE_GRID, _T_LOW), model, p1, draws)
    evaluations = len(_CURVE_GRID) + 1
    if values[-1] < alpha:
        raise UnreachableAlphaError(alpha, _T_HIGH, values[-1], side="high")
    if fdr_low > alpha:
        raise UnreachableAlphaError(alpha, _T_LOW, fdr_low, side="low")

    points = [(_T_LOW, fdr_low), *zip(_CURVE_GRID, values)]
    # The first point at or above alpha and the one before it bracket alpha.
    upper = next(i for i, (_, fdr) in enumerate(points) if fdr >= alpha)
    (t_low, fdr_low), (t_high, fdr_high) = points[max(upper - 1, 0)], points[upper]
    best = min((t_low, fdr_low), (t_high, fdr_high), key=lambda point: abs(point[1] - alpha))
    # Far into the tail the FDR is about p t / (p t + p1), so its logit is
    # nearly linear in log t: interpolating there takes few steps.
    x_low, g_low = np.log(t_low), _logit(fdr_low) - _logit(alpha)
    x_high, g_high = np.log(t_high), _logit(fdr_high) - _logit(alpha)
    side = 0
    for _ in range(_MAX_SOLVE_STEPS):
        if abs(best[1] - alpha) <= tol:
            break
        with np.errstate(invalid="ignore"):  # an infinite logit at an end
            x = x_high - g_high * (x_high - x_low) / (g_high - g_low)
        if not x_low < x < x_high:
            x = 0.5 * (x_low + x_high)
            if not x_low < x < x_high:
                break  # the bracket is down to adjacent floats
        t = float(np.exp(x))
        fdr = approx_fdr(t, model, p1, draws)
        evaluations += 1
        if abs(fdr - alpha) < abs(best[1] - alpha):
            best = (t, fdr)
        # Illinois: halve the value kept at the end that stays a second time.
        g = _logit(fdr) - _logit(alpha)
        if g < 0.0:
            x_low, g_low = x, g
            if side == -1:
                g_high /= 2.0
            side = -1
        else:
            x_high, g_high = x, g
            if side == 1:
                g_low /= 2.0
            side = 1
    t_star, fdr_at_t = best
    return ControlResult(
        alpha=alpha,
        t_star=t_star,
        fdr_at_t=fdr_at_t,
        curve=tuple(zip(_CURVE_GRID, values)),
        evaluations=evaluations,
        converged=abs(fdr_at_t - alpha) <= tol,
    )


def _logit(fdr: float) -> float:
    with np.errstate(divide="ignore"):  # an FDR of 0 or 1 has an infinite logit
        return float(np.log(fdr) - np.log1p(-fdr))


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


def efron_estimate(z: np.ndarray, t: float, p0: int, x0: float = 1.0) -> float:
    """Dispersion-variate FDP estimate, clipped to [0, 1].

    Correlation inflates or shrinks the spread of the null statistics; a
    scalar dispersion variate A captures this, giving the false-count model
    p0*t*[1 + 2*A*(-z_{t/2})*phi(z_{t/2}) / (sqrt(2)*t)]. A is estimated
    here by moment matching: the mean square of the statistics inside
    [-x0, x0] is compared with the value it would take under a unit normal,
    and the discrepancy is converted to A through the band's inflation
    sensitivity. With h = x0*phi(x0) / (2*Phi(x0) - 1), both band constants
    are closed forms: v0 = 1 - 2h, the variance of N(0, 1) restricted to the
    band, and slope = v0 + h*(1 - x0^2) - 2h^2, the derivative of
    E[X^2 | |X| <= x0] with respect to Var X at 1; then
    A = (mean square - v0) / (sqrt(2)*slope). This recipe is a documented
    stand-in, not a reproduction of Efron's own estimator for A.
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
        h = x0 * norm_pdf(x0) / (1.0 - two_sided_pvalue(x0))
        v0 = 1.0 - 2.0 * h
        slope = v0 + h * (1.0 - x0 * x0) - 2.0 * h * h
        a_hat = (float(np.mean(np.square(central))) - v0) / (np.sqrt(2.0) * slope)
    z_half = norm_quantile(0.5 * t)
    est_false = p0 * t * (1.0 + 2.0 * a_hat * (-z_half) * norm_pdf(z_half) / (np.sqrt(2.0) * t))
    return float(np.clip(est_false / n_rejected, 0.0, 1.0))
