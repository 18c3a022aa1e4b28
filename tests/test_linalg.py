import numpy as np
import pytest

from pfa.linalg import (
    CorrelationMatrix,
    NotPSDError,
    NotSymmetricError,
    equal_correlation,
    gram_spectrum,
    spectral_decompose,
    tail_energy,
)


def random_correlation(rng, p, n=None):
    """Sample correlation of a random Gaussian design; singular when n <= p."""
    n = n if n is not None else 2 * p
    data = rng.standard_normal((n, p))
    centered = data - data.mean(axis=0)
    sds = centered.std(axis=0, ddof=1)
    standardized = centered / sds
    entries = standardized.T @ standardized / (n - 1)
    entries = (entries + entries.T) / 2.0
    np.fill_diagonal(entries, 1.0)
    return CorrelationMatrix.from_entries(entries)


def test_identity_eigenvalues():
    system = spectral_decompose(equal_correlation(3, 0.0))
    np.testing.assert_allclose(system.values, np.ones(3), atol=1e-12)


def test_equicorrelation_closed_form_small():
    # Characteristic-polynomial oracle for p=4, rho=0.5: det(S - x I) has
    # roots 1 + 3*rho and 1 - rho (triple).
    system = spectral_decompose(equal_correlation(4, 0.5))
    np.testing.assert_allclose(system.values, [2.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_equicorrelation_closed_form_large():
    system = spectral_decompose(equal_correlation(2000, 0.5))
    assert system.values[0] == pytest.approx(1000.5, abs=1e-8)
    np.testing.assert_allclose(system.values[1:], 0.5, atol=1e-8)


def test_reconstruction_and_orthonormality():
    rng = np.random.default_rng(7)
    for p, n in [(30, 60), (40, 20)]:
        sigma = random_correlation(rng, p, n)
        system = spectral_decompose(sigma)
        assert np.all(np.diff(system.values) <= 1e-12)
        gram = system.vectors.T @ system.vectors
        assert np.max(np.abs(gram - np.eye(p))) <= 1e-8
        rebuilt = (system.vectors * system.values) @ system.vectors.T
        assert np.linalg.norm(rebuilt - sigma.entries) <= 1e-7 * p
        assert abs(system.values.sum() - p) <= 1e-6 * p


@pytest.mark.parametrize("n, p", [(10, 40), (40, 10), (25, 25)])
def test_gram_spectrum_matches_dense_decomposition(n, p):
    x = np.random.default_rng(n * p).standard_normal((n, p))
    system = gram_spectrum(x)
    r = min(n, p)
    assert system.values.shape == (p,) and system.vectors.shape == (p, r)
    assert np.all(np.diff(system.values) <= 0.0) and np.all(system.values[r:] == 0.0)
    dense = np.linalg.eigvalsh(x.T @ x)[::-1]
    np.testing.assert_allclose(system.values, dense, rtol=0, atol=1e-12 * dense[0])
    np.testing.assert_allclose(system.vectors.T @ system.vectors, np.eye(r), atol=1e-12)
    rebuilt = (system.vectors * system.values[:r]) @ system.vectors.T
    np.testing.assert_allclose(rebuilt, x.T @ x, atol=1e-10 * dense[0])


def test_not_symmetric_rejected():
    entries = np.eye(3)
    entries[0, 1] = 0.2
    with pytest.raises(NotSymmetricError):
        CorrelationMatrix.from_entries(entries)


def test_not_unit_diagonal_rejected():
    entries = np.eye(3)
    entries[1, 1] = 0.99
    with pytest.raises(ValueError):
        CorrelationMatrix.from_entries(entries)


def test_not_psd_rejected():
    entries = np.array([[1.0, 0.99, -0.99], [0.99, 1.0, 0.99], [-0.99, 0.99, 1.0]])
    with pytest.raises(NotPSDError):
        spectral_decompose(CorrelationMatrix.from_entries(entries))


def test_small_negative_eigenvalues_clamped():
    rng = np.random.default_rng(3)
    sigma = random_correlation(rng, 25, 10)  # rank deficient
    system = spectral_decompose(sigma)
    assert np.all(system.values >= 0.0)


def test_tail_energy_examples():
    assert tail_energy(np.array([1.0, 1.0, 1.0]), 3) == 0.0
    assert tail_energy(np.array([2.5, 0.5, 0.5, 0.5]), 1) == pytest.approx(np.sqrt(0.75))
    assert tail_energy(np.array([1.0, 1.0, 1.0]), 0) == pytest.approx(np.sqrt(3.0))


def test_tail_energy_monotone_and_total():
    values = np.sort(np.random.default_rng(0).uniform(0, 3, size=17))[::-1]
    energies = [tail_energy(values, k) for k in range(18)]
    assert all(energies[i] >= energies[i + 1] for i in range(17))
    assert energies[0] == pytest.approx(np.sqrt(np.sum(values**2)))
    assert energies[-1] == 0.0


@pytest.mark.parametrize("k", [-1, 4])
def test_tail_energy_bounds(k):
    with pytest.raises(IndexError):
        tail_energy(np.array([1.0, 1.0, 1.0]), k)
