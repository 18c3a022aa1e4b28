"""Principal-factor core: factor-count selection, factor models, and the
false-discovery-proportion formulas driven by realized factor values.

A FactorModel holds the loadings B (column h is sqrt(lambda_h) * gamma_h)
and the residual precision scales a_i. Given realized factors W, with
shifts eta = B W, the count of false discoveries at threshold t
concentrates on

    sum_i [ Phi(a_i (z_{t/2} + eta_i)) + Phi(a_i (z_{t/2} - eta_i)) ]

`numerator_over_draws` evaluates this sum for every row of a matrix of
factor realizations; one fitted or drawn realization is a one-row matrix.
The estimate, the limiting FDP, the approximate FDR and the Monte-Carlo
variance of the count are all sums or ratios of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gauss import norm_cdf, norm_quantile, two_sided_pvalue
from .linalg import EigenSystem

__all__ = [
    "FactorModel",
    "FdpReport",
    "select_num_factors",
    "build_factor_model",
    "numerator_over_draws",
    "fdp_limit",
    "estimate_fdp",
    "standard_factor_draws",
]

# Rows whose residual variance 1 - sum_h b_ih^2 falls below this are
# degenerate (common with singular sample correlation matrices); their
# precision scale is capped instead of diverging.
DEGENERATE_RESIDUAL = 1e-12
A_CAP = 1e6

# Ratio denominators below this count as zero discoveries.
DENOMINATOR_FLOOR = 1e-300

# Draws are processed in blocks to bound the (n_draws x p) intermediates.
_DRAW_CHUNK = 256


@dataclass(frozen=True)
class FactorModel:
    """Loadings and residual precision scales for the first k factors."""

    p: int
    k: int
    loadings: np.ndarray        # (p, k); column h is sqrt(lambda_h) * gamma_h
    a: np.ndarray               # (p,); (1 - sum_h b_ih^2)^(-1/2), capped
    eigenvalues: np.ndarray     # full spectrum, for diagnostics
    degenerate_rows: np.ndarray  # indices where the cap fired


@dataclass(frozen=True)
class FdpReport:
    """Estimated false-discovery summary at one threshold."""

    threshold: float
    n_rejected: int
    est_false_count: float
    fdp: float


def select_num_factors(values: np.ndarray, epsilon: float) -> int:
    """Smallest k with tail_energy(values, k) strictly below epsilon * sum(values).

    Exact boundary ties (e.g. exchangeable spectra with decimal epsilon) are
    kept on the strict side: binary rounding of epsilon must not admit a k
    whose tail energy equals the threshold in exact arithmetic.
    """
    values = np.asarray(values, dtype=float)
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    total = float(np.sum(values))
    if total <= 0.0:
        return 0
    squares = np.square(values)
    tail_sq = np.concatenate([np.cumsum(squares[::-1])[::-1], [0.0]])
    threshold = epsilon * total * (1.0 - 1e-9)
    satisfied = np.sqrt(tail_sq) < threshold
    return int(np.argmax(satisfied))


def build_factor_model(system: EigenSystem, k: int) -> FactorModel:
    """Factor model from the top k eigenpairs of a correlation matrix."""
    p = system.dim
    if k < 0 or k > p:
        raise IndexError(f"k={k} outside [0, {p}]")
    values = system.values
    if values[-1] < 0.0:
        raise ValueError("eigenvalues must be clamped nonnegative")
    loadings = system.vectors[:, :k] * np.sqrt(values[:k])
    residual = 1.0 - np.sum(np.square(loadings), axis=1)
    degenerate = np.flatnonzero(residual < DEGENERATE_RESIDUAL)
    a = np.full(p, A_CAP)
    ok = residual >= DEGENERATE_RESIDUAL
    a[ok] = 1.0 / np.sqrt(residual[ok])
    return FactorModel(
        p=p,
        k=k,
        loadings=loadings,
        a=a,
        eigenvalues=values.copy(),
        degenerate_rows=degenerate,
    )


def numerator_over_draws(
    t: float,
    model: FactorModel,
    draws: np.ndarray,
    subset: np.ndarray | None = None,
    shift: np.ndarray | None = None,
) -> np.ndarray:
    """Conditional false-discovery count at threshold t, one per row of draws.

    Each row of the (n, k) matrix `draws` is a factor realization W. Its
    value is the sum over `subset` (all indices when None) of
    Phi(a_i (z_{t/2} + s_i)) + Phi(a_i (z_{t/2} - s_i)) with s = B W + mu,
    where mu is `shift`, the length-p mean shifts (zero when None). With
    subset equal to all indices this is the conservative surrogate the
    estimator uses; with subset equal to the true nulls it is the exact
    limiting count.
    """
    z_half = norm_quantile(0.5 * t)
    a = model.a
    loadings = model.loadings
    if subset is not None:
        subset = np.asarray(subset, dtype=np.intp)
        a = a[subset]
        loadings = loadings[subset]
        if shift is not None:
            shift = np.asarray(shift, dtype=float)[subset]
    draws = np.asarray(draws, dtype=float)
    n = draws.shape[0]
    out = np.empty(n)
    for start in range(0, n, _DRAW_CHUNK):
        stop = min(start + _DRAW_CHUNK, n)
        eta = draws[start:stop] @ loadings.T
        if shift is not None:
            eta += shift
        out[start:stop] = np.sum(norm_cdf(a * (z_half + eta)) + norm_cdf(a * (z_half - eta)), axis=1)
    return out


def fdp_limit(
    t: float,
    model: FactorModel,
    mu: np.ndarray,
    true_nulls: np.ndarray,
    draws: np.ndarray,
) -> np.ndarray:
    """Limiting FDP for each row of `draws`, given the mean shifts and the null set."""
    denominator = numerator_over_draws(t, model, draws, shift=mu)
    numerator = numerator_over_draws(t, model, draws, subset=true_nulls)
    ratios = np.divide(
        numerator,
        denominator,
        out=np.zeros_like(numerator),
        where=denominator >= DENOMINATOR_FLOOR,
    )
    return np.minimum(ratios, 1.0)


def estimate_fdp(t: float, z: np.ndarray, model: FactorModel, w_hat: np.ndarray) -> FdpReport:
    """FDP estimate at threshold t from observed statistics and fitted factors.

    The estimated false count is the all-index numerator evaluated at the
    fitted realization, capped at the observed rejection count R(t); the
    estimate is 0 when R(t) = 0.
    """
    if not 0.0 < t < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {t}")
    z = np.asarray(z, dtype=float)
    pvalues = two_sided_pvalue(z)
    n_rejected = int(np.count_nonzero(pvalues <= t))
    if n_rejected == 0:
        return FdpReport(threshold=t, n_rejected=0, est_false_count=0.0, fdp=0.0)
    numerator = float(numerator_over_draws(t, model, np.asarray(w_hat, dtype=float)[None, :])[0])
    est_false = min(numerator, float(n_rejected))
    return FdpReport(
        threshold=t,
        n_rejected=n_rejected,
        est_false_count=est_false,
        fdp=est_false / n_rejected,
    )


def standard_factor_draws(k: int, n_mc: int, seed: int) -> np.ndarray:
    """(n_mc, k) matrix of independent standard normal factor draws."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return rng.standard_normal((n_mc, k))
