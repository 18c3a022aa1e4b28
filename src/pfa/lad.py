"""Recovery of realized factor values from observed statistics.

The statistics with the smallest |z| are treated as (approximately) pure
noise-plus-factors, and the factor values are fitted by least absolute
deviation regression on that calibration set, solved exactly by basis
exchange with the linear program's dual as its optimality certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .factors import FactorModel

__all__ = [
    "RankDeficientError",
    "ZeroEigenvalueError",
    "FactorFit",
    "select_calibration_set",
    "lad_regress",
    "ls_regress",
    "misspecification_bound",
]

# Fixed-mu IRLS steps before the first vertex, mu a fraction of the median
# absolute least-squares residual; they cut the pivot count by about 2/3.
_IRLS_STEPS = 10
_IRLS_MU = 0.1
# Residuals within this multiple of max(1, max|z|) count as zero: float
# noise only, since with k = n - 1 the true residuals are about 1e-8.
_ZERO_BAND = 1e-12
# Slack on the dual certificate |u_j| <= 1, and the pivot cap per factor.
_DUAL_TOL = 1e-9
_PIVOTS_PER_FACTOR = 20
# A starting basis whose 1-norm condition number exceeds this is replaced.
_MAX_CONDITION = 1e12
# A Gram matrix whose smallest eigenvalue exceeds this share of its largest
# has full rank beyond rounding doubt; any other design gets the SVD test.
_GRAM_FULL_RANK = 1e-8


class RankDeficientError(ValueError):
    """Design matrix does not have full column rank."""


class ZeroEigenvalueError(ValueError):
    """A retained eigenvalue is zero where a positive one is required."""


@dataclass(frozen=True)
class FactorFit:
    """Fitted factor values with the L1 objective and certificate status."""

    w_hat: np.ndarray
    objective: float
    iterations: int
    converged: bool


def select_calibration_set(z: np.ndarray, fraction: float) -> np.ndarray:
    """Sorted indices of the round(fraction * p) statistics with smallest |z|.

    Ties in |z| are broken by the lower index.
    """
    z = np.asarray(z, dtype=float)
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must lie in (0, 1], got {fraction}")
    p = z.shape[0]
    m = int(np.floor(fraction * p + 0.5))
    if m == 0:
        raise ValueError(f"calibration set is empty: fraction={fraction}, p={p}")
    order = np.argsort(np.abs(z), kind="stable")
    return np.sort(order[:m])


def lad_regress(loadings_sub: np.ndarray, z_sub: np.ndarray) -> FactorFit:
    """Least-absolute-deviation fit of factor values on a calibration set.

    Minimizes sum_i |z_i - b_i . w| over w by basis exchange, the L1 simplex
    of Barrodale and Roberts (1973). A vertex fits k basis rows B exactly.
    Its dual values solve X_B' u = -X_N' sign(r_N) over the other rows N,
    and it is optimal exactly when every |u_j| <= 1: `converged` is this
    certificate, checked on a fresh inverse of X_B, or at a degenerate
    vertex the same test with every exactly fitted row in the dual (see
    `_degenerate_certificate`). Otherwise the row with
    the largest |u_j| leaves, and an exact line search along the edge that
    frees it picks the row that enters. The first basis is the k rows with
    the smallest residuals after a least-squares fit and a few IRLS steps;
    `iterations` counts those steps plus the pivots. Each pivot lowers the
    objective or keeps it, so a fit that hits the pivot cap returns its
    last vertex, the best seen, with `converged=False`. A least-squares fit with every
    residual in the zero band (usual at k = n - 1) is certified at once: 0 bounds any L1 objective.
    """
    design = np.asarray(loadings_sub, dtype=float)
    z = np.asarray(z_sub, dtype=float)
    m, k = design.shape
    if k < 1:
        raise ValueError("at least one factor is required")
    if m < k:
        raise ValueError(f"need at least as many rows as factors: m={m}, k={k}")
    gram = design.T @ design
    spectrum = np.linalg.eigvalsh(gram)
    if spectrum[0] <= _GRAM_FULL_RANK * spectrum[-1] and np.linalg.matrix_rank(design) < k:
        raise RankDeficientError(f"design has rank below {k}")

    band = _ZERO_BAND * max(1.0, float(np.max(np.abs(z))))
    # Start: least squares, then IRLS steps on sqrt(r^2 + mu^2) at one mu.
    beta = np.linalg.solve(gram, design.T @ z)
    residual = np.abs(z - design @ beta)
    if np.all(residual <= band):
        return FactorFit(w_hat=beta, objective=float(np.sum(residual)), iterations=0, converged=True)
    mu = max(_IRLS_MU * float(np.median(residual)), band)
    for _ in range(_IRLS_STEPS):
        weights = 1.0 / np.sqrt(np.square(z - design @ beta) + mu * mu)
        weighted = design * weights[:, None]
        beta = np.linalg.solve(design.T @ weighted, weighted.T @ z)
    residual = z - design @ beta
    basis = np.argsort(np.abs(residual), kind="stable")[:k]
    try:
        inverse = np.linalg.inv(design[basis])
        condition = np.linalg.norm(design[basis], 1) * np.linalg.norm(inverse, 1)
    except np.linalg.LinAlgError:  # exactly singular
        condition = np.inf
    if not condition <= _MAX_CONDITION:
        basis = scipy.linalg.qr(design.T, pivoting=True)[2][:k]
        inverse = np.linalg.inv(design[basis])
    # Residual signs of the non-basic rows, 0 on the basis. A row whose
    # residual is within the zero band keeps the sign it was last given.
    signs = np.where(residual < 0.0, -1.0, 1.0)
    signs[basis] = 0.0
    fresh, converged, pivots = True, False, 0
    while True:
        beta = inverse @ z[basis]
        residual = z - design @ beta
        residual[basis] = 0.0
        moved = np.abs(residual) > band
        signs[moved] = np.sign(residual[moved])
        dual = -(signs @ design) @ inverse
        j = int(np.argmax(np.abs(dual)))
        if abs(dual[j]) <= 1.0 + _DUAL_TOL:
            if fresh:
                converged = True
                break
            inverse, fresh = np.linalg.inv(design[basis]), True
            continue
        if np.count_nonzero(~moved) > k and _degenerate_certificate(design[~moved], signs[moved] @ design[moved]):
            converged = True
            break
        if pivots == _PIVOTS_PER_FACTOR * k:
            break
        # Row j leaves: along the edge its residual is -tau * sigma, the
        # other basic rows stay exact, and the slope starts at 1 - |u_j|.
        sigma = -np.sign(dual[j])
        along = design @ (sigma * inverse[:, j])
        crossing = np.flatnonzero(signs * along > 0.0)
        order = crossing[np.argsort(np.maximum(residual[crossing] / along[crossing], 0.0), kind="stable")]
        slope = np.cumsum(2.0 * np.abs(along[order])) + 1.0 - abs(dual[j])
        entering = order[int(np.argmax(slope >= 0.0))]
        # Sherman-Morrison update of X_B^-1 for the row exchange.
        row = design[entering] @ inverse
        column = inverse[:, j] / row[j]
        row[j] -= 1.0
        inverse -= np.outer(column, row)
        signs[basis[j]], signs[entering] = -sigma, 0.0
        basis[j] = entering
        pivots += 1
        fresh = False
    return FactorFit(
        w_hat=beta,
        objective=float(np.sum(np.abs(z - design @ beta))),
        iterations=_IRLS_STEPS + pivots,
        converged=converged,
    )


def _degenerate_certificate(exact: np.ndarray, pull: np.ndarray) -> bool:
    """Whether the rows fitted exactly can balance the pull of the others.

    At a degenerate vertex more than k rows have zero residual, and each of
    them, not only the basic ones, may take a dual value in [-1, 1]. The
    vertex is optimal when some such values s solve exact' s = -pull; the
    least-norm solution is tried. With k = n - 1 factors the statistics of
    the true nulls lie in the span of the loadings, so every null row of the
    calibration set is fitted exactly and the basis alone cannot certify.
    """
    dual = exact @ np.linalg.solve(exact.T @ exact, -pull)
    return float(np.max(np.abs(dual))) <= 1.0 + _DUAL_TOL


def ls_regress(model: FactorModel, z: np.ndarray) -> np.ndarray:
    """Closed-form least-squares factor fit on the full set of statistics.

    The loading columns are orthogonal with squared norms lambda_h, so the
    normal equations reduce to w_h = (gamma_h . z) / sqrt(lambda_h).
    """
    z = np.asarray(z, dtype=float)
    retained = model.eigenvalues[: model.k]
    if np.any(retained <= 0.0):
        raise ZeroEigenvalueError("least-squares fit requires positive retained eigenvalues")
    return (model.loadings.T @ z) / retained


def misspecification_bound(model: FactorModel, mu: np.ndarray) -> float:
    """Bound on the least-squares bias from ignoring the nonzero means.

    ||mu||_2 * sqrt(sum of reciprocal retained eigenvalues); an algebraic
    bound on the distance between the fits with and without mean shifts.
    """
    mu = np.asarray(mu, dtype=float)
    retained = model.eigenvalues[: model.k]
    if np.any(retained <= 0.0):
        raise ZeroEigenvalueError("bound requires positive retained eigenvalues")
    return float(np.linalg.norm(mu) * np.sqrt(np.sum(1.0 / retained)))
