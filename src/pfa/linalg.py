"""Symmetric linear algebra for correlation matrices.

Correlation matrices here are exactly symmetric with an exactly unit
diagonal; eigenvalues that come out slightly negative (sample matrices
with n < p are singular) are clamped to zero within a dimension-scaled
tolerance.

A sample correlation of n < p observations has rank r < n. A pivoted
Cholesky factorization finds that rank and a p x r factor F with
Sigma = FF' in O(p^2 r) work, and the whole spectrum then comes from the
r x r Gram F'F (`gram_spectrum`), with no p x p eigendecomposition.

Otherwise a decomposition may hold only the leading eigenpairs. What the
factor-count rule needs from the rest of the spectrum, its sum and its sum
of squares, comes from the trace and from the Frobenius norm of the entries:
tail^2(k) = ||Sigma||_F^2 - sum_{i<=k} lambda_i^2.

The pivoted factorization, those leading eigenpairs and the
positive-definiteness check are computed in Sigma's own storage, which
LAPACK overwrites on one triangle and the diagonal; Sigma is rebuilt from
its other triangle after each, so that path holds no second p x p matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

__all__ = [
    "NotSymmetricError",
    "NotPSDError",
    "CorrelationMatrix",
    "EigenSystem",
    "equal_correlation",
    "spectral_decompose",
    "gram_spectrum",
]

# Eigenvalues below -EIG_CLAMP_TOL * p are treated as genuinely negative.
EIG_CLAMP_TOL = 1e-8

# Leading eigenpairs computed first when only the factor-count rule's share
# of the spectrum is needed. When the rule is not met inside them, or they
# would pass half the dimension, the full decomposition runs instead.
_WINDOW = 128

# Rows of the residual sigma - FF' formed at a time when a pivoted Cholesky factor is checked.
_ROW_BLOCK = 64

# Boundary ties of the factor-count rule are kept on the strict side: binary
# rounding of a decimal epsilon must not admit a k whose tail energy equals
# the threshold in exact arithmetic.
_TIE_SHRINK = 1.0 - 1e-9


class NotSymmetricError(ValueError):
    """Matrix is not exactly symmetric."""


class NotPSDError(ValueError):
    """Matrix has an eigenvalue below the negativity tolerance."""


@dataclass(frozen=True)
class CorrelationMatrix:
    """p x p symmetric matrix with unit diagonal; entries are correlations."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {entries.shape}")
        if not np.all(np.isfinite(entries)):
            raise ValueError("correlation matrix has non-finite entries")
        if not np.array_equal(entries, entries.T):
            raise NotSymmetricError("correlation matrix is not exactly symmetric")
        if not np.all(np.diagonal(entries) == 1.0):
            raise ValueError("correlation matrix diagonal must be exactly 1")
        object.__setattr__(self, "entries", entries)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_gram(cls, gram: np.ndarray) -> "CorrelationMatrix":
        """Gram matrix of unit-norm columns, made exactly symmetric with unit diagonal."""
        entries = (gram + gram.T) / 2.0
        np.fill_diagonal(entries, 1.0)
        return cls(entries)


@dataclass(frozen=True)
class EigenSystem:
    """Leading eigenpairs of a p x p symmetric PSD matrix, eigenvalues descending.

    `values` may hold fewer than p eigenvalues, and `vectors` (p rows) has
    r orthonormal eigenvector columns for the leading ones, r <= len(values)
    (`gram_spectrum` holds r <= min(n, p), the nonzero ones). `trace` is the sum
    of all p eigenvalues and `tail_sq[k]`, for k = 0..len(values), the sum
    of the squares of all but the first k. Left out, both are computed from
    `values` taken as the whole spectrum.
    """

    values: np.ndarray
    vectors: np.ndarray
    trace: float | None = None
    tail_sq: np.ndarray | None = None

    def __post_init__(self):
        if self.trace is None:
            object.__setattr__(self, "trace", float(np.sum(self.values)))
        if self.tail_sq is None:
            squares = np.square(self.values)
            object.__setattr__(self, "tail_sq", np.concatenate([np.cumsum(squares[::-1])[::-1], [0.0]]))

    def tail_energy(self, k: int) -> float:
        """Frobenius norm of the spectrum beyond the first k eigenvalues, the number `within` compares."""
        if k < 0 or k >= self.tail_sq.shape[0]:
            raise IndexError(f"k={k} outside [0, {self.tail_sq.shape[0] - 1}]")
        return float(np.sqrt(self.tail_sq[k]))

    def within(self, epsilon: float) -> np.ndarray:
        """For k = 0..len(values): whether the tail energy at k is strictly below epsilon * trace."""
        return np.sqrt(self.tail_sq) < epsilon * self.trace * _TIE_SHRINK


def equal_correlation(p: int, rho: float) -> CorrelationMatrix:
    """Exchangeable correlation matrix: unit diagonal, rho off-diagonal."""
    entries = np.full((p, p), float(rho))
    np.fill_diagonal(entries, 1.0)
    return CorrelationMatrix(entries)


def spectral_decompose(sigma: CorrelationMatrix, epsilon: float | None = None) -> EigenSystem:
    """Eigendecomposition with descending eigenvalues.

    Without epsilon, or when 128 would pass p/2, the full spectrum. With it,
    a pivoted Cholesky factorization (LAPACK's dpstrf) of sigma first finds
    its numerical rank r and a p x r factor F, and then:

    - r <= p/2 and ||sigma - FF'||_F <= p * eps * ||sigma||_F: the whole
      spectrum of FF' from its r x r Gram (`gram_spectrum`), exact zeros
      beyond its nonzero eigenvalues and an eigenvector for each of those.
      By Weyl's inequality each eigenvalue of sigma lies within that residual
      of the one returned. The bound is within sqrt(r) of a dense eigh's own
      backward error, about p * eps * ||sigma||_2. And since FF' then has a
      unit diagonal, ||sigma||_F is at most about p, so the bound is under
      p^2 * eps, below the negativity tolerance EIG_CLAMP_TOL*p for any
      p < 4e7: sigma passes the PSD test.
    - r = p: sigma is positive definite. The leading 128 eigenpairs when the
      factor-count rule at epsilon is met within them, with `tail_sq` from
      the Frobenius-norm identity and `trace` from the diagonal; otherwise
      the full spectrum.
    - Otherwise (p/2 < r < p, or a larger residual, as on an indefinite
      sigma): the same leading window, but a window does not see the
      smallest eigenvalue, so a Cholesky factorization of
      sigma + EIG_CLAMP_TOL*p*I checks that none lies below the tolerance
      before the window is kept.

    Eigenvalues in (-EIG_CLAMP_TOL*p, 0) are clamped to 0; anything more
    negative raises NotPSDError.

    With epsilon, the LAPACK calls work in sigma's own storage and restore
    it, bit for bit, before returning or raising, so no other thread may read
    sigma during the call; a read-only sigma is worked on in one private copy
    instead.
    """
    p = sigma.dim
    entries = sigma.entries
    floor = -EIG_CLAMP_TOL * p
    if epsilon is not None and 2 * _WINDOW <= p:
        frobenius_sq = float(np.vdot(entries, entries))
        trace = float(np.trace(entries))
        # The transpose is the same symmetric matrix in the Fortran order LAPACK works in, so no call
        # below copies it. Each destroys only its lower triangle, entries' upper one and diagonal.
        work = entries if entries.flags.writeable else entries.copy()
        factor = None
        try:
            chol, pivots, rank, _ = scipy.linalg.lapack.dpstrf(work.T, lower=1, overwrite_a=1)
            if 2 * rank <= p:
                factor = np.empty((p, rank))
                factor[pivots - 1] = np.tril(chol[:, :rank])  # rows back in sigma's order
        finally:
            _mirror_lower(work, 1.0)
        if factor is not None and _residual_sq(entries, factor) <= (p * np.finfo(float).eps) ** 2 * frobenius_sq:
            return gram_spectrum(factor.T)
        del factor  # as large as half of sigma when the rank is p/2
        try:
            values, vectors = scipy.linalg.eigh(
                work.T, subset_by_index=[p - _WINDOW, p - 1], overwrite_a=True, check_finite=False
            )
            values, vectors = np.maximum(values[::-1], 0.0), np.ascontiguousarray(vectors[:, ::-1])
            tail_sq = np.maximum(frobenius_sq - np.concatenate([[0.0], np.cumsum(np.square(values))]), 0.0)
            system = EigenSystem(values, vectors, trace, tail_sq)
            if system.within(epsilon)[-1]:
                if rank < p:  # a complete pivoted Cholesky has already shown sigma positive definite
                    _mirror_lower(work, 1.0 - floor)
                    try:
                        scipy.linalg.cho_factor(work.T, lower=True, overwrite_a=True, check_finite=False)
                    except np.linalg.LinAlgError:
                        raise NotPSDError(f"an eigenvalue is below the tolerance {floor:.3e}") from None
                return system
        finally:
            _mirror_lower(work, 1.0)
        del work  # a private copy would otherwise stay alive through the full decomposition
    values, vectors = np.linalg.eigh(entries)
    values = np.ascontiguousarray(values[::-1])
    vectors = np.ascontiguousarray(vectors[:, ::-1])
    if values[-1] < floor:
        raise NotPSDError(
            f"smallest eigenvalue {values[-1]:.3e} is below the tolerance {floor:.3e}"
        )
    np.maximum(values, 0.0, out=values)
    return EigenSystem(values=values, vectors=vectors)


def _residual_sq(entries: np.ndarray, factor: np.ndarray) -> float:
    """Squared Frobenius norm of entries - factor factor', summed over row blocks, so no p x p temporary."""
    total = 0.0
    for start in range(0, entries.shape[0], _ROW_BLOCK):
        block = entries[start : start + _ROW_BLOCK] - factor[start : start + _ROW_BLOCK] @ factor.T
        total += float(np.vdot(block, block))
    return total


def _mirror_lower(entries: np.ndarray, diagonal: float) -> None:
    """Copy the strict lower triangle of `entries` onto its upper one, a row at a time, and fill its diagonal."""
    for i in range(entries.shape[0] - 1):
        entries[i, i + 1 :] = entries[i + 1 :, i]
    np.fill_diagonal(entries, diagonal)


def gram_spectrum(x: np.ndarray) -> EigenSystem:
    """Eigensystem of x'x for the n x p matrix x from the smaller Gram, never forming x'x when n < p.

    The m x m Gram (xx' when n < p, else x'x) is decomposed; its r eigenvalues
    above the solver's own error m * eps * lambda_1 are those of x'x.
    Eigenvalues: those r, descending, then exactly 0 up to length p.
    Vectors: r <= min(n, p) orthonormal columns, x'u / sqrt(lambda) for each
    eigenvector u of xx' (the eigenvectors themselves when n >= p).
    """
    x = np.asarray(x, dtype=float)
    wide = x.shape[0] < x.shape[1]
    values, basis = np.linalg.eigh(x @ x.T if wide else x.T @ x)
    values, basis = values[::-1], basis[:, ::-1]
    r = int(np.count_nonzero(values > values.size * np.finfo(float).eps * values[0]))
    vectors = x.T @ basis[:, :r] if wide else np.ascontiguousarray(basis[:, :r])
    if wide:
        vectors /= np.sqrt(values[:r])  # in place: the p x r projection is the largest array here
    spectrum = np.zeros(x.shape[1])
    spectrum[:r] = values[:r]
    return EigenSystem(values=spectrum, vectors=vectors)
