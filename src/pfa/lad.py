"""Recovery of realized factor values from observed statistics.

The statistics with the smallest |z| are treated as (approximately) pure
noise-plus-factors, and the factor values are fitted by least absolute
deviation regression on that calibration set. A few Frisch-Newton
interior-point steps on the linear program's dual pick the first basis;
basis exchange then solves the fit exactly, with the dual as its
optimality certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

from .factors import FactorModel

__all__ = [
    "RankDeficientError",
    "TooManyFactorsError",
    "ZeroEigenvalueError",
    "FactorFit",
    "select_calibration_set",
    "lad_regress",
    "ls_regress",
    "misspecification_bound",
]

# Frisch-Newton steps before the first vertex, and the share of the way to
# the bounds each step may go. On k = 92 calibration fits of 750 rows they
# cut the pivots from a median of 76 (least-squares start) to 4.
_INTERIOR_STEPS = 10
_STEP_SHARE = 0.9995
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


class TooManyFactorsError(ValueError):
    """More factors than calibration rows: the fit would be underdetermined."""


class ZeroEigenvalueError(ValueError):
    """A retained eigenvalue is zero where a positive one is required."""


@dataclass(frozen=True)
class FactorFit:
    """Fitted factor values with the L1 objective and certificate status."""

    w_hat: np.ndarray
    objective: float
    iterations: int
    converged: bool


DEFAULT_FRACTION = 0.75


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
    the smallest residuals after the interior-point steps of
    `_interior_point` (which start from the least-squares fit), taken in
    index order so that the fit depends on that set alone and not on the
    last bits of the residuals that rank it;
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
        raise TooManyFactorsError(f"k={k} factors exceed the m={m} calibration rows")
    gram = design.T @ design
    spectrum = np.linalg.eigvalsh(gram)
    if spectrum[0] <= _GRAM_FULL_RANK * spectrum[-1] and np.linalg.matrix_rank(design) < k:
        raise RankDeficientError(f"design has rank below {k}")

    band = _ZERO_BAND * max(1.0, float(np.max(np.abs(z))))
    beta = np.linalg.solve(gram, design.T @ z)
    residual = z - design @ beta
    if np.all(np.abs(residual) <= band):
        return FactorFit(w_hat=beta, objective=float(np.sum(np.abs(residual))), iterations=0, converged=True)
    beta, steps = _interior_point(design, beta, residual)
    residual = z - design @ beta
    basis = np.sort(np.argsort(np.abs(residual), kind="stable")[:k])
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
        iterations=steps + pivots,
        converged=converged,
    )


def _interior_point(design: np.ndarray, beta: np.ndarray, residual: np.ndarray) -> tuple[np.ndarray, int]:
    """beta after the Frisch-Newton steps from the least-squares fit (beta, residual), and the step count.

    The predictor-corrector of Koenker and Morillo (Portnoy and Koenker
    1997) on the LAD dual: maximize z'x over X'x = X'1/2 with 0 <= x <= 1
    (x = d + 1/2 for the dual values d in [-1/2, 1/2]), slack s = 1 - x, and
    multipliers v, w >= 0 of its bounds, kept dual feasible as
    w - v = z - X beta. Each step solves the weighted normal equations
    X'QX dbeta = X'Q e, Q = 1 / (v/x + w/s), once for the predictor and once
    for the corrector with one Cholesky factor. X'QX is formed as Y'Y with
    Y = sqrt(Q) X, which BLAS computes as a symmetric rank-k update, half
    the work of a general product. A factor that fails (the weights span
    too many magnitudes near the optimum) ends the steps there.
    """
    m = design.shape[0]
    x, s = np.full(m, 0.5), np.full(m, 0.5)
    residual = np.where(residual == 0.0, -0.001, residual)  # so that v + w > 0 on every row
    v, w = np.maximum(-residual, 0.0), np.maximum(residual, 0.0)
    # X' and Y' = X' sqrt(Q) in C order, so that the scaling runs along contiguous rows.
    transposed = np.ascontiguousarray(design.T)
    scaled = np.empty_like(transposed)

    def newton(q, factor, target):
        dbeta = scipy.linalg.lapack.dpotrs(factor, transposed @ (q * target), lower=True)[0]
        return dbeta, q * (target - dbeta @ transposed)

    # A multiplier still at 0 (v or w, before the first corrector) has a step ratio of 0/0 or +-inf.
    with np.errstate(divide="ignore", invalid="ignore"):
        for step in range(_INTERIOR_STEPS):
            q = 1.0 / (v / x + w / s)
            np.multiply(transposed, np.sqrt(q), out=scaled)
            # Y'Y is symmetric, so its transpose is the Fortran-ordered array LAPACK factors in place.
            gram = (scaled @ scaled.T).T
            factor, info = scipy.linalg.lapack.dpotrf(gram, lower=True, overwrite_a=True, clean=False)
            if info != 0:
                return beta, step
            e = w - v
            dbeta, dx = newton(q, factor, e)
            dx_x, dx_s = dx / x, dx / s
            dv, dw = -v * (dx_x + 1.0), w * (dx_s - 1.0)
            fp, fd = _step_length(dx_x, -dx_s), _step_length(dv / v, dw / w)
            if min(fp, fd) < 1.0:
                # Corrector: aim at the centring mu the affine step suggests.
                mu = v @ x + w @ s
                reach = (v + fd * dv) @ (x + fp * dx) + (w + fd * dw) @ (s - fp * dx)
                mu *= (reach / mu) ** 3 / (2 * m)
                mu_x, mu_s, cross_v, cross_w = mu / x, mu / s, dx * dv, dx * dw
                dbeta, dx = newton(q, factor, e + mu_x - mu_s - cross_v - cross_w)
                dx_x, dx_s = dx / x, dx / s
                dv = mu_x - v - v * dx_x - cross_v
                dw = mu_s - w + w * dx_s + cross_w
                fp, fd = _step_length(dx_x, -dx_s), _step_length(dv / v, dw / w)
            x, s = x + fp * dx, s - fp * dx
            beta, v, w = beta + fd * dbeta, v + fd * dv, w + fd * dw
    return beta, _INTERIOR_STEPS


def _step_length(*ratios: np.ndarray) -> float:
    """_STEP_SHARE of the longest part of a step (da, ...) that keeps (a, ...) positive, at most 1.

    Takes the ratios da / a; a NaN (da = a = 0) bounds nothing.
    """
    least = min(np.fmin.reduce(ratio, initial=0.0) for ratio in ratios)
    return 1.0 if -least <= _STEP_SHARE else -_STEP_SHARE / least


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
