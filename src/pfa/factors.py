"""Principal-factor core: factor-count selection, factor models, and the
false-discovery-proportion formulas driven by realized factor values.

A FactorModel holds the loadings B (column h is sqrt(lambda_h) * gamma_h)
and the residual precision scales a_i. Given realized factors W, with
shifts eta = B W, the count of false discoveries at threshold t
concentrates on

    sum_i [ Phi(a_i (z_{t/2} + eta_i)) + Phi(a_i (z_{t/2} - eta_i)) ]

`numerator_over_draws` evaluates the terms once for every row of a matrix of factor realizations
(a fitted realization is a one-row matrix) and sums them over all indices and over the true nulls,
all but the first p1. The estimate, the limiting FDP, the approximate FDR and the count's variance
are sums or ratios of these, each at one threshold t or at a 1-D array of them swept at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gauss import check_unit_interval, norm_cdf, norm_quantile, two_sided_pvalue
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

# Draws are processed in blocks to bound the (n_draws x p) intermediates: the shifts eta = B W
# of 256 rows come from one matmul (a block size its bits depend on), and the arguments, CDF
# values and sums from slices of 64 of those rows.
_DRAW_CHUNK = 256
_CDF_SLICE = 64


@dataclass(frozen=True)
class FactorModel:
    """Loadings and residual precision scales for the first k factors."""

    loadings: np.ndarray        # (p, k); column h is sqrt(lambda_h) * gamma_h
    a: np.ndarray               # (p,); (1 - sum_h b_ih^2)^(-1/2), capped
    eigenvalues: np.ndarray     # the leading eigenvalues the decomposition held, at least k
    degenerate_rows: np.ndarray  # indices where the cap fired

    @property
    def p(self) -> int:
        return self.loadings.shape[0]

    @property
    def k(self) -> int:
        return self.loadings.shape[1]


@dataclass(frozen=True)
class FdpReport:
    """Estimated false-discovery summary at one threshold, or arrays of them at each of a grid."""

    n_rejected: int | np.ndarray
    est_false_count: float | np.ndarray
    fdp: float | np.ndarray


DEFAULT_EPSILON = 0.01


def select_num_factors(system: EigenSystem, epsilon: float) -> int:
    """Smallest k with tail energy strictly below epsilon * trace.

    Exact boundary ties (e.g. exchangeable spectra with decimal epsilon) are
    kept on the strict side: binary rounding of epsilon must not admit a k
    whose tail energy equals the threshold in exact arithmetic. A partial
    system must hold that k, as `spectral_decompose(sigma, epsilon)` does.
    """
    check_unit_interval(epsilon, "epsilon")
    if system.trace <= 0.0:
        return 0
    satisfied = system.within(epsilon)
    if not satisfied[-1]:
        raise ValueError(f"the {system.values.size} eigenvalues held do not reach epsilon={epsilon}")
    return int(np.argmax(satisfied))


def build_factor_model(system: EigenSystem, k: int) -> FactorModel:
    """Factor model from the top k eigenpairs of a correlation matrix; the system must hold k eigenvectors."""
    p, held = system.vectors.shape
    if k < 0 or k > held:
        raise IndexError(f"k={k} outside [0, {held}], the eigenvectors the system holds")
    values = system.values
    if values[-1] < 0.0:
        raise ValueError("eigenvalues must be clamped nonnegative")
    loadings = system.vectors[:, :k] * np.sqrt(values[:k])
    # Each column's largest entry in magnitude (the first, on ties) made positive: no output rests on solver signs.
    # Only a column whose largest and smallest entries tie in magnitude needs the search for the first of them.
    top, bottom = np.max(loadings, axis=0), np.min(loadings, axis=0)
    flip = top < -bottom
    for h in np.flatnonzero(top == -bottom):
        flip[h] = loadings[np.argmax(np.abs(loadings[:, h])), h] < 0.0
    loadings *= np.where(flip, -1.0, 1.0)
    residual = 1.0 - np.sum(np.square(loadings), axis=1)
    degenerate = np.flatnonzero(residual < DEGENERATE_RESIDUAL)
    a = np.full(p, A_CAP)
    ok = residual >= DEGENERATE_RESIDUAL
    a[ok] = 1.0 / np.sqrt(residual[ok])
    return FactorModel(loadings=loadings, a=a, eigenvalues=values.copy(), degenerate_rows=degenerate)


def numerator_over_draws(
    t: float | np.ndarray,
    model: FactorModel,
    draws: np.ndarray,
    p1: int | None = None,
    shift: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Conditional false-discovery count at threshold t, one per row of draws.

    Each row of the (n, k) matrix `draws` is a factor realization W, and
    index i contributes Phi(a_i (z_{t/2} + s_i)) + Phi(a_i (z_{t/2} - s_i))
    with s = B W + mu, where mu is `shift`, the length-p mean shifts (zero
    when None). The terms are evaluated once per block of rows and summed
    twice: over all indices (`over_all`, the conservative surrogate the
    estimator uses) and over the indices from p1 on (`over_nulls`, None when
    p1 is None). With the p1 false nulls first and mu vanishing beyond them,
    the second sum is the exact limiting count. For a 1-D array t, the sums
    have one row per threshold, in the order given.

    Each sum is at least Phi(a_low z_{t/2}), a_low the smallest a_i from p1 on (over all indices
    when p1 is None or p), so terms with arguments at or below c = Phi^-1(2^-54 Phi(a_low z_{t/2}) / (2p))
    count as 0: the at most 2p of them change a sum by less than 2^-54 of it. In z = z_{t/2} an
    argument a_i (z + s_i) rises at rate a_i >= a_low and c at rate a_low lambda(a_low z) /
    lambda(c) < a_low (the hazard lambda = phi / Phi decreases; c < a_low z), so a term cut at t
    stays cut at every smaller t and the sums stay monotone in t. Thresholds are swept from the
    largest down on each slice's s, each forming arguments only where the ones before it kept a
    term (the first, everywhere): its sums are a one-threshold call's, bit for bit, but for terms
    at the cut-off (inside the 2^-54 bound) that rounding can drop between thresholds only floats
    apart.
    """
    thresholds = np.asarray(t, dtype=float)
    draws = np.asarray(draws, dtype=float)
    n = draws.shape[0]
    over_all = np.empty(thresholds.shape + (n,))
    if p1 is not None and not 0 <= p1 <= model.p:
        raise ValueError(f"p1 must lie in [0, {model.p}], got {p1}")
    over_nulls = None if p1 is None else np.empty_like(over_all)
    a_low = np.min(model.a if p1 in (None, model.p) else model.a[p1:])
    sweep = []  # (row of the sums, z_{t/2}, c), the largest threshold first
    for j in np.argsort(-thresholds.ravel(), kind="stable"):
        z_half = norm_quantile(0.5 * thresholds.flat[j])
        negligible = np.ldexp(norm_cdf(a_low * z_half), -54) / (2 * model.p)
        sweep.append((j, z_half, norm_quantile(negligible) if negligible > 0.0 else -np.inf))
    # Blocks reused by every slice: the shifts of a matmul block, and per slice the terms, one
    # side's flat arguments and a tiled over the slice's rows.
    eta_block = np.empty((min(_DRAW_CHUNK, n), model.p))
    terms_block = np.empty((min(_CDF_SLICE, eta_block.shape[0]), model.p))
    args_block = np.empty(terms_block.size)
    a_flat = np.tile(model.a, terms_block.shape[0])
    for chunk in range(0, n, _DRAW_CHUNK):
        eta_chunk = eta_block[: min(_DRAW_CHUNK, n - chunk)]
        np.matmul(draws[chunk : chunk + eta_chunk.shape[0]], model.loadings.T, out=eta_chunk)
        if shift is not None:
            eta_chunk += shift
        for offset in range(0, eta_chunk.shape[0], _CDF_SLICE):
            eta = eta_chunk[offset : offset + _CDF_SLICE]
            rows = eta.shape[0]
            start, stop = chunk + offset, chunk + offset + rows
            terms = terms_block[:rows]
            # Per side, the flat indices (None: every one) where earlier thresholds kept a term, with their eta and a.
            kept = [(None, eta.ravel(), a_flat[: eta.size])] * 2
            for step, (j, z_half, cut) in enumerate(sweep):
                terms.fill(0.0)
                for side, (at, eta_kept, a_kept) in enumerate(kept):
                    args = args_block[: eta_kept.size]
                    if side == 0:
                        np.add(eta_kept, z_half, out=args)
                    else:
                        np.subtract(z_half, eta_kept, out=args)
                    args *= a_kept
                    above = np.flatnonzero(args > cut)
                    values, at_above = args.take(above), above if at is None else at.take(above)
                    norm_cdf(values, out=values)
                    if side == 0:
                        terms.ravel()[at_above] = values
                    else:
                        terms.ravel()[at_above] += values
                    # Forming an argument costs less than compressing it, and the last threshold keeps none.
                    if 2 * above.size < eta_kept.size and step + 1 < len(sweep):
                        kept[side] = at_above, eta_kept.take(above), a_kept.take(above)
                    del above, at_above, values  # else this side's survivors outlive it under the next one's
                over_all.reshape(-1, n)[j, start:stop] = np.sum(terms, axis=1)
                if p1 is not None:
                    over_nulls.reshape(-1, n)[j, start:stop] = np.sum(terms[:, p1:], axis=1)
    return over_all, over_nulls


def fdp_limit(
    t: float | np.ndarray,
    model: FactorModel,
    mu: np.ndarray,
    p1: int,
    draws: np.ndarray,
) -> np.ndarray:
    """Limiting FDP for each row of `draws` (a row of them per threshold of a 1-D t); mu is 0 from p1 on."""
    denominator, numerator = numerator_over_draws(t, model, draws, p1=p1, shift=mu)
    ratios = np.divide(
        numerator,
        denominator,
        out=np.zeros_like(numerator),
        where=denominator >= DENOMINATOR_FLOOR,
    )
    return np.minimum(ratios, 1.0)


def estimate_fdp(t: float | np.ndarray, z: np.ndarray, model: FactorModel, w_hat: np.ndarray) -> FdpReport:
    """FDP estimate at threshold t from observed statistics and fitted factors.

    The estimated false count is the all-index numerator evaluated at the
    fitted realization, capped at the observed rejection count R(t), so the
    estimate is 0 when R(t) = 0. For a 1-D array t the report's fields are
    arrays, one entry per threshold, from one sweep of the numerator.
    """
    thresholds = check_unit_interval(t, "threshold")
    n_rejected = np.count_nonzero(two_sided_pvalue(np.asarray(z, dtype=float)) <= thresholds[..., None], axis=-1)
    numerator = numerator_over_draws(thresholds, model, np.asarray(w_hat, dtype=float)[None, :])[0][..., 0]
    est_false = np.minimum(numerator, n_rejected)
    report = FdpReport(n_rejected=n_rejected, est_false_count=est_false, fdp=est_false / np.maximum(n_rejected, 1))
    return report if thresholds.ndim else FdpReport(int(n_rejected), float(est_false), float(report.fdp))


DEFAULT_N_MC = 10000


def standard_factor_draws(k: int, n_mc: int, seed: int) -> np.ndarray:
    """(n_mc, k) matrix of independent standard normal factor draws."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return rng.standard_normal((n_mc, k))
