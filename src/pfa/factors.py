"""Principal-factor core: factor-count selection, factor models, and the
false-discovery-proportion formulas driven by realized factor values.

A FactorModel holds the loadings B (column h is sqrt(lambda_h) * gamma_h)
and the residual precision scales a_i. Given realized factors W, with
shifts eta = B W, the count of false discoveries at threshold t
concentrates on

    sum_i [ Phi(a_i (z_{t/2} + eta_i)) + Phi(a_i (z_{t/2} - eta_i)) ]

`numerator_over_draws` evaluates the terms once for every row of a matrix
of factor realizations (a fitted realization is a one-row matrix) and sums
them over all indices and over the true nulls. The estimate, the limiting
FDP, the approximate FDR and the count's variance are sums or ratios of these.
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
    eigenvalues: np.ndarray     # the leading eigenvalues the decomposition held, at least k
    degenerate_rows: np.ndarray  # indices where the cap fired


@dataclass(frozen=True)
class FdpReport:
    """Estimated false-discovery summary at one threshold."""

    threshold: float
    n_rejected: int
    est_false_count: float
    fdp: float


def select_num_factors(system: EigenSystem, epsilon: float) -> int:
    """Smallest k with tail energy strictly below epsilon * trace.

    Exact boundary ties (e.g. exchangeable spectra with decimal epsilon) are
    kept on the strict side: binary rounding of epsilon must not admit a k
    whose tail energy equals the threshold in exact arithmetic. A partial
    system must hold that k, as `spectral_decompose(sigma, epsilon)` does.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if system.trace <= 0.0:
        return 0
    satisfied = system.within(epsilon)
    if not satisfied[-1]:
        raise ValueError(f"the {system.values.size} eigenvalues held do not reach epsilon={epsilon}")
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
    nulls: np.ndarray | None = None,
    shift: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Conditional false-discovery count at threshold t, one per row of draws.

    Each row of the (n, k) matrix `draws` is a factor realization W, and
    index i contributes Phi(a_i (z_{t/2} + s_i)) + Phi(a_i (z_{t/2} - s_i))
    with s = B W + mu, where mu is `shift`, the length-p mean shifts (zero
    when None). The terms are evaluated once per block of rows and summed
    twice: over all indices (`over_all`, the conservative surrogate the
    estimator uses) and over the index set `nulls` (`over_nulls`, None when
    `nulls` is None). With nulls the true nulls, where mu vanishes, the
    second sum is the exact limiting count.

    Each sum is at least Phi(a_low z_{t/2}), a_low the smallest a_i over `nulls` (over all indices
    without them), so terms with arguments at or below c = Phi^-1(2^-54 Phi(a_low z_{t/2}) / (2p))
    count as 0 (`_cdf_above`): the at most 2p of them change a sum by less than 2^-54 of it. c
    rises more slowly in t than any argument, so the sums stay monotone in t.
    """
    z_half = norm_quantile(0.5 * t)
    draws = np.asarray(draws, dtype=float)
    n = draws.shape[0]
    over_all = np.empty(n)
    over_nulls = None if nulls is None else np.empty(n)
    a_low = np.min(model.a[nulls] if nulls is not None and len(nulls) else model.a)
    negligible = np.ldexp(norm_cdf(a_low * z_half), -54) / (2 * model.p)
    cut = norm_quantile(negligible) if negligible > 0.0 else -np.inf
    # Two blocks reused by every chunk; each step writes into one of them.
    terms_block = np.empty((min(_DRAW_CHUNK, n), model.p))
    eta_block = np.empty_like(terms_block)
    for start in range(0, n, _DRAW_CHUNK):
        stop = min(start + _DRAW_CHUNK, n)
        terms, eta = terms_block[: stop - start], eta_block[: stop - start]
        np.matmul(draws[start:stop], model.loadings.T, out=eta)
        if shift is not None:
            eta += shift
        np.add(eta, z_half, out=terms)
        np.multiply(terms, model.a, out=terms)
        np.subtract(z_half, eta, out=eta)
        np.multiply(eta, model.a, out=eta)
        _cdf_above(terms, cut)
        _cdf_above(eta, cut)
        terms += eta
        over_all[start:stop] = np.sum(terms, axis=1)
        if nulls is not None:
            # Gathered C-ordered into eta's storage, the null columns sum as in a null-only model.
            gathered = eta.ravel()[: eta.shape[0] * len(nulls)].reshape(eta.shape[0], len(nulls))
            over_nulls[start:stop] = np.sum(np.take(terms, nulls, axis=1, out=gathered, mode="wrap"), axis=1)
    return over_all, over_nulls


def _cdf_above(args: np.ndarray, cut: float) -> None:
    """Overwrite the C-contiguous `args` with Phi(args) where args > cut, and with 0 elsewhere.

    The CDF sees only the arguments above cut: they are gathered, evaluated and scattered back.
    """
    at = np.flatnonzero(args > cut)
    values = args.ravel()[at]
    args.fill(0.0)
    args.ravel()[at] = norm_cdf(values, out=values)


def fdp_limit(
    t: float,
    model: FactorModel,
    mu: np.ndarray,
    true_nulls: np.ndarray,
    draws: np.ndarray,
) -> np.ndarray:
    """Limiting FDP for each row of `draws`, given the mean shifts mu (zero on true_nulls)."""
    denominator, numerator = numerator_over_draws(t, model, draws, nulls=true_nulls, shift=mu)
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
    numerator = float(numerator_over_draws(t, model, np.asarray(w_hat, dtype=float)[None, :])[0][0])
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
