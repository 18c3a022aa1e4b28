"""Symmetric linear algebra for correlation matrices.

Correlation matrices here are exactly symmetric with an exactly unit
diagonal; eigenvalues that come out slightly negative (sample matrices
with n < p are singular) are clamped to zero within a dimension-scaled
tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NotSymmetricError",
    "NotPSDError",
    "CorrelationMatrix",
    "EigenSystem",
    "equal_correlation",
    "spectral_decompose",
    "gram_spectrum",
    "tail_energy",
]

# Eigenvalues below -EIG_CLAMP_TOL * p are treated as genuinely negative.
EIG_CLAMP_TOL = 1e-8


class NotSymmetricError(ValueError):
    """Matrix is not exactly symmetric."""


class NotPSDError(ValueError):
    """Matrix has an eigenvalue below the negativity tolerance."""


@dataclass(frozen=True)
class CorrelationMatrix:
    """p x p symmetric matrix with unit diagonal; entries are correlations."""

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {entries.shape}")
        if entries.shape[0] != self.dim:
            raise ValueError(f"dim={self.dim} does not match shape {entries.shape}")
        if not np.all(np.isfinite(entries)):
            raise ValueError("correlation matrix has non-finite entries")
        if not np.array_equal(entries, entries.T):
            raise NotSymmetricError("correlation matrix is not exactly symmetric")
        if not np.all(np.diagonal(entries) == 1.0):
            raise ValueError("correlation matrix diagonal must be exactly 1")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_entries(cls, entries) -> "CorrelationMatrix":
        entries = np.asarray(entries, dtype=float)
        return cls(dim=entries.shape[0], entries=entries)

    @classmethod
    def from_gram(cls, gram: np.ndarray) -> "CorrelationMatrix":
        """Gram matrix of unit-norm columns, made exactly symmetric with unit diagonal."""
        entries = (gram + gram.T) / 2.0
        np.fill_diagonal(entries, 1.0)
        return cls.from_entries(entries)


@dataclass(frozen=True)
class EigenSystem:
    """Full spectrum, descending, with orthonormal eigenvector columns for its leading values."""

    values: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.values.shape[0]


def equal_correlation(p: int, rho: float) -> CorrelationMatrix:
    """Exchangeable correlation matrix: unit diagonal, rho off-diagonal."""
    entries = np.full((p, p), float(rho))
    np.fill_diagonal(entries, 1.0)
    return CorrelationMatrix(dim=p, entries=entries)


def spectral_decompose(sigma: CorrelationMatrix) -> EigenSystem:
    """Full eigendecomposition with descending eigenvalues.

    Eigenvalues in (-EIG_CLAMP_TOL*p, 0) are clamped to 0; anything more
    negative raises NotPSDError.
    """
    p = sigma.dim
    values, vectors = np.linalg.eigh(sigma.entries)
    values = np.ascontiguousarray(values[::-1])
    vectors = np.ascontiguousarray(vectors[:, ::-1])
    floor = -EIG_CLAMP_TOL * p
    if values[-1] < floor:
        raise NotPSDError(
            f"smallest eigenvalue {values[-1]:.3e} is below the tolerance {floor:.3e}"
        )
    np.maximum(values, 0.0, out=values)
    return EigenSystem(values=values, vectors=vectors)


def gram_spectrum(x: np.ndarray) -> EigenSystem:
    """Eigensystem of x'x from a thin SVD of the n x p matrix x, never forming x'x.

    Eigenvalues: the squared singular values, zero-padded to length p.
    Vectors: the min(n, p) right singular vectors.
    """
    x = np.asarray(x, dtype=float)
    vectors, singular, _ = np.linalg.svd(x.T, full_matrices=False)
    values = np.zeros(x.shape[1])
    values[: singular.size] = np.square(singular)
    return EigenSystem(values=values, vectors=vectors)


def tail_energy(values: np.ndarray, k: int) -> float:
    """Frobenius norm of the spectrum beyond the first k eigenvalues."""
    values = np.asarray(values, dtype=float)
    if k < 0 or k > values.shape[0]:
        raise IndexError(f"k={k} outside [0, {values.shape[0]}]")
    return float(np.sqrt(np.sum(np.square(values[k:]))))
