"""Principal-factor core: factor-count selection, factor models, and the
false-discovery-proportion formulas driven by realized factor values.

The central objects are a FactorModel (loadings sqrt(lambda_h)*gamma_h and
residual precision scales a_i) and a FactorRealization (factor values W and
the induced shifts eta_i). Conditional on a realization, the count of false
discoveries at threshold t concentrates on

    sum_i [ Phi(a_i (z_{t/2} + eta_i)) + Phi(a_i (z_{t/2} - eta_i)) ]

and every estimator and limit formula here is a ratio built from such sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gauss import norm_cdf, norm_quantile, two_sided_pvalue
from .linalg import EigenSystem

__all__ = [
    "FactorModel",
    "FactorRealization",
    "FdpReport",
    "select_num_factors",
    "build_factor_model",
    "fdp_numerator",
    "fdp_limit",
    "estimate_fdp",
    "standard_factor_draws",
    "variance_of_false_count",
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

    @property
    def has_degenerate_rows(self) -> bool:
        return self.degenerate_rows.size > 0


@dataclass(frozen=True)
class FactorRealization:
    """Realized factor values w and the induced per-hypothesis shifts eta."""

    w: np.ndarray
    eta: np.ndarray

    @classmethod
    def from_w(cls, model: FactorModel, w) -> "FactorRealization":
        w = np.asarray(w, dtype=float)
        if w.shape != (model.k,):
            raise ValueError(f"expected {model.k} factor values, got shape {w.shape}")
        return cls(w=w, eta=model.loadings @ w)


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


def _rejection_probabilities(z_half: float, a: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Per-hypothesis conditional rejection probabilities, each in [0, 2]."""
    return norm_cdf(a * (z_half + shift)) + norm_cdf(a * (z_half - shift))


def fdp_numerator(
    t: float,
    model: FactorModel,
    realization: FactorRealization,
    subset: np.ndarray | None = None,
) -> float:
    """Expected false-discovery count over `subset` given realized factors.

    With subset equal to all indices this is the conservative surrogate used
    by the estimator; with subset equal to the true nulls it is the exact
    limiting count.
    """
    z_half = norm_quantile(0.5 * t)
    a = model.a
    eta = realization.eta
    if subset is not None:
        subset = np.asarray(subset, dtype=np.intp)
        a = a[subset]
        eta = eta[subset]
    return float(np.sum(_rejection_probabilities(z_half, a, eta)))


def fdp_limit(
    t: float,
    model: FactorModel,
    mu: np.ndarray,
    true_nulls: np.ndarray,
    realization: FactorRealization,
) -> float:
    """Limiting FDP given realized factors, mean shifts, and the null set."""
    mu = np.asarray(mu, dtype=float)
    z_half = norm_quantile(0.5 * t)
    denom_terms = _rejection_probabilities(z_half, model.a, realization.eta + mu)
    denominator = float(np.sum(denom_terms))
    if denominator < DENOMINATOR_FLOOR:
        return 0.0
    numerator = fdp_numerator(t, model, realization, subset=true_nulls)
    return min(numerator / denominator, 1.0)


def estimate_fdp(t: float, z: np.ndarray, model: FactorModel, w_hat: np.ndarray) -> FdpReport:
    """FDP estimate at threshold t from observed statistics and fitted factors.

    The estimated false count is the all-index numerator evaluated at the
    fitted realization, capped at the observed rejection count R(t); the
    estimate is 0 when R(t) = 0.
    """
    z = np.asarray(z, dtype=float)
    pvalues = two_sided_pvalue(z)
    n_rejected = int(np.count_nonzero(pvalues <= t))
    if n_rejected == 0:
        return FdpReport(threshold=t, n_rejected=0, est_false_count=0.0, fdp=0.0)
    realization = FactorRealization.from_w(model, w_hat)
    numerator = fdp_numerator(t, model, realization)
    est_false = min(numerator, float(n_rejected))
    return FdpReport(
        threshold=t,
        n_rejected=n_rejected,
        est_false_count=est_false,
        fdp=est_false / n_rejected,
    )


def numerator_over_draws(
    t: float,
    model: FactorModel,
    draws: np.ndarray,
    subset: np.ndarray | None = None,
) -> np.ndarray:
    """fdp_numerator evaluated at each row of an (n, k) matrix of factor draws."""
    z_half = norm_quantile(0.5 * t)
    a = model.a
    loadings = model.loadings
    if subset is not None:
        subset = np.asarray(subset, dtype=np.intp)
        a = a[subset]
        loadings = loadings[subset]
    draws = np.asarray(draws, dtype=float)
    n = draws.shape[0]
    out = np.empty(n)
    for start in range(0, n, _DRAW_CHUNK):
        stop = min(start + _DRAW_CHUNK, n)
        eta = draws[start:stop] @ loadings.T
        out[start:stop] = np.sum(_rejection_probabilities(z_half, a, eta), axis=1)
    return out


def standard_factor_draws(k: int, n_mc: int, seed: int) -> np.ndarray:
    """(n_mc, k) matrix of independent standard normal factor draws."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return rng.standard_normal((n_mc, k))


def variance_of_false_count(
    t: float,
    model: FactorModel,
    draws: np.ndarray,
    subset: np.ndarray | None = None,
) -> float:
    """Monte-Carlo variance of the false-count numerator over factor draws.

    `draws` is an (n, k) matrix from `standard_factor_draws`, n >= 2. Exactly
    0 for k = 0, where the numerator does not depend on the factors.
    """
    if draws.shape[0] < 2:
        raise ValueError(f"need at least 2 factor draws, got {draws.shape[0]}")
    if model.k == 0:
        return 0.0
    values = numerator_over_draws(t, model, draws, subset=subset)
    return float(np.var(values, ddof=1))
