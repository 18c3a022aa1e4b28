import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from pfa.factors import build_factor_model, select_num_factors
from pfa.linalg import (
    CorrelationMatrix,
    EigenSystem,
    NotPSDError,
    NotSymmetricError,
    equal_correlation,
    gram_spectrum,
    spectral_decompose,
)
from pfa.simulate import Scenario, generate_design, standardize


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
    return CorrelationMatrix(entries)


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


def scaled_design(kind, p, n, seed):
    """Standardized n x p design of a scenario over sqrt(n - 1): x'x is its sample correlation, rank n - 1."""
    standardized, _ = standardize(generate_design(Scenario(kind=kind, p=p, n=n), np.random.default_rng(seed)))
    return standardized / np.sqrt(n - 1)


@pytest.mark.parametrize("kind, seed", [("two_factor", 1), ("equal_correlation", 2), ("independent_cauchy", 3)])
def test_gram_spectrum_of_a_centered_design_with_p_much_larger_than_n(kind, seed):
    n, p = 100, 600
    x = scaled_design(kind, p, n, seed)
    system = gram_spectrum(x)
    r = system.vectors.shape[1]
    assert r == n - 1  # the centering direction is cut
    assert system.values.shape == (p,) and np.all(system.values[r:] == 0.0)
    assert np.all(system.values[:r] > 0.0) and np.all(np.diff(system.values) <= 0.0)
    np.testing.assert_allclose(system.vectors.T @ system.vectors, np.eye(r), rtol=0, atol=1e-12)
    rebuilt = (system.vectors * system.values[:r]) @ system.vectors.T
    np.testing.assert_allclose(rebuilt, x.T @ x, rtol=0, atol=1e-12 * system.values[0])
    assert system.trace == pytest.approx(p, rel=1e-12)


@pytest.mark.parametrize("epsilon", [0.01, 1e-6])
@pytest.mark.parametrize("kind, seed", [("two_factor", 4), ("equal_correlation", 5), ("fan_song", 6)])
def test_gram_spectrum_gives_the_dense_factor_model(kind, seed, epsilon):
    x = scaled_design(kind, 600, 100, seed)
    system = gram_spectrum(x)
    dense = spectral_decompose(CorrelationMatrix.from_gram(x.T @ x))
    k = select_num_factors(system, epsilon)
    assert select_num_factors(dense, epsilon) == k > 0
    model, dense_model = build_factor_model(system, k), build_factor_model(dense, k)
    np.testing.assert_array_equal(model.degenerate_rows, dense_model.degenerate_rows)
    np.testing.assert_allclose(model.loadings, dense_model.loadings, rtol=0, atol=1e-10)


def two_factor_correlation(rng, p, n):
    """Sample correlation of a two-factor design: rank n - 1, a few large eigenvalues."""
    design = rng.standard_normal((n, 2)) @ rng.uniform(-1.0, 1.0, (2, p)) + rng.standard_normal((n, p))
    centered = design - design.mean(axis=0)
    standardized = centered / centered.std(axis=0, ddof=1)
    entries = standardized.T @ standardized / (n - 1)
    entries = (entries + entries.T) / 2.0
    np.fill_diagonal(entries, 1.0)
    return CorrelationMatrix(entries)


def shrunk_two_factor_correlation(rng, p, n, weight=0.05):
    """(1 - weight) times a two-factor sample correlation plus weight * I: full rank, every eigenvalue >= weight."""
    entries = (1.0 - weight) * two_factor_correlation(rng, p, n).entries
    entries[np.diag_indices(p)] = 1.0
    return CorrelationMatrix(entries)


def record_calls(monkeypatch):
    """Record the width of each scipy eigh window, the size of each full np.linalg.eigh and each Cholesky check."""
    calls = {"windows": [], "full": [], "checks": 0}
    eigh, full_eigh, cho_factor = scipy.linalg.eigh, np.linalg.eigh, scipy.linalg.cho_factor

    def recording_eigh(a, **kwargs):
        calls["windows"].append(kwargs["subset_by_index"][1] - kwargs["subset_by_index"][0] + 1)
        return eigh(a, **kwargs)

    def recording_full_eigh(a, *args, **kwargs):
        calls["full"].append(a.shape[0])
        return full_eigh(a, *args, **kwargs)

    def recording_cho_factor(a, **kwargs):
        calls["checks"] += 1
        return cho_factor(a, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", recording_eigh)
    monkeypatch.setattr(np.linalg, "eigh", recording_full_eigh)
    monkeypatch.setattr(scipy.linalg, "cho_factor", recording_cho_factor)
    return calls


# name: (matrix, epsilon, the eigh windows tried, the Cholesky checks made, the sizes of the full eigh calls,
# eigenvalues held, eigenvectors held)
PARTIAL_CASES = {
    # Full rank, k = 1 inside the window (the other eigenvalues are all equal): no check is needed.
    "equal_correlation": (lambda: equal_correlation(400, 0.5), 0.05, [128], 0, [], 128, 128),
    # Full rank, k of about 85 inside the window.
    "two_factor_shrunk": (
        lambda: shrunk_two_factor_correlation(np.random.default_rng(1), 400, 100), 0.01, [128], 0, [], 128, 128
    ),
    # Rank 99 <= p/2: the whole spectrum from the pivoted Cholesky factor's 99 x 99 Gram, no p x p eigh.
    "two_factor": (lambda: two_factor_correlation(np.random.default_rng(1), 400, 100), 0.01, [], 0, [99], 400, 99),
    # Rank 199 <= p/2 and k of about 180, beyond the window: the whole spectrum again, decomposed once.
    "two_factor_wide": (
        lambda: two_factor_correlation(np.random.default_rng(2), 600, 200), 0.01, [], 0, [199], 600, 199
    ),
    # Rank 199 > p/2, k of about 110 inside the window: the window is kept after the Cholesky check.
    "two_factor_mid_rank": (
        lambda: two_factor_correlation(np.random.default_rng(2), 300, 200), 0.01, [128], 1, [], 128, 128
    ),
    # Full rank: k near p, so the full spectrum follows.
    "full_rank": (lambda: random_correlation(np.random.default_rng(3), 300, 600), 0.01, [128], 0, [300], 300, 300),
    # p < 256: the window would pass p/2, so only the full spectrum is computed.
    "small": (lambda: two_factor_correlation(np.random.default_rng(4), 200, 100), 0.01, [], 0, [200], 200, 200),
}


@pytest.mark.parametrize("case", sorted(PARTIAL_CASES))
def test_partial_spectrum_matches_full_decomposition(case, monkeypatch):
    make, epsilon, windows, checks, full_sizes, held, vectors_held = PARTIAL_CASES[case]
    sigma = make()
    calls = record_calls(monkeypatch)
    partial = spectral_decompose(sigma, epsilon)
    monkeypatch.undo()
    full = spectral_decompose(sigma)

    assert calls == {"windows": windows, "full": full_sizes, "checks": checks}
    assert partial.values.size == held
    assert partial.vectors.shape == (sigma.dim, vectors_held)
    k = select_num_factors(partial, epsilon)
    assert k == select_num_factors(full, epsilon)
    np.testing.assert_allclose(partial.values, full.values[:held], rtol=0, atol=1e-12 * full.values[0])
    assert partial.tail_energy(k) == pytest.approx(full.tail_energy(k), rel=1e-9)
    leading, reference = build_factor_model(partial, k).loadings, build_factor_model(full, k).loadings
    np.testing.assert_allclose(leading @ leading.T, reference @ reference.T, rtol=0, atol=1e-10)


def test_full_rank_window_is_lapacks_own_window(monkeypatch):
    """A positive definite sigma gets the bytes of the bare 128-wide eigh window, with no Cholesky check."""
    sigma = shrunk_two_factor_correlation(np.random.default_rng(1), 400, 100)
    values, vectors = scipy.linalg.eigh(
        sigma.entries.copy().T, subset_by_index=[400 - 128, 399], overwrite_a=True, check_finite=False
    )
    calls = record_calls(monkeypatch)
    system = spectral_decompose(sigma, 0.01)
    assert calls == {"windows": [128], "full": [], "checks": 0}
    assert system.values.tobytes() == np.maximum(values[::-1], 0.0).tobytes()
    assert system.vectors.tobytes() == np.ascontiguousarray(vectors[:, ::-1]).tobytes()
    assert system.trace == float(np.trace(sigma.entries))


def spiked_correlation(smallest):
    """p = 300 correlation with five large eigenvalues and one near `smallest`, outside the leading window."""
    rng = np.random.default_rng(5)
    p = 300
    basis, _ = np.linalg.qr(rng.standard_normal((p, p)))
    values = np.full(p, 1.0)
    values[:5] = [150.0, 60.0, 40.0, 25.0, 12.0]
    values[-1] = smallest
    entries = (basis * values) @ basis.T
    scale = 1.0 / np.sqrt(np.diagonal(entries))
    entries = entries * scale[:, None] * scale[None, :]
    entries = (entries + entries.T) / 2.0
    np.fill_diagonal(entries, 1.0)
    return CorrelationMatrix(entries)


@pytest.mark.parametrize("smallest", [0.05, -0.05])
def test_partial_spectrum_checks_the_smallest_eigenvalue(smallest):
    sigma = spiked_correlation(smallest)
    if smallest > 0.0:
        assert spectral_decompose(sigma, 0.5).values.size == 128
    else:
        with pytest.raises(NotPSDError):
            spectral_decompose(sigma)
        with pytest.raises(NotPSDError):
            spectral_decompose(sigma, 0.5)


def indefinite_low_rank_correlation():
    """p = 300: a rank-5 correlation with one pair of entries moved by 0.05, so an eigenvalue near -0.05.

    The pivoted Cholesky factorization stops at rank 6, far below p/2, with the moved pair left in its residual.
    """
    rng = np.random.default_rng(8)
    factor = rng.standard_normal((300, 5))
    factor /= np.linalg.norm(factor, axis=1, keepdims=True)
    entries = factor @ factor.T
    entries[0, 1] += 0.05
    entries[1, 0] = entries[0, 1]
    entries[np.diag_indices(300)] = 1.0
    return CorrelationMatrix(entries)


@pytest.mark.parametrize("epsilon", [0.01, 0.5])
def test_indefinite_sigma_of_small_pivoted_rank_raises(epsilon):
    sigma = indefinite_low_rank_correlation()
    rank = scipy.linalg.lapack.dpstrf(sigma.entries.copy().T, lower=1)[2]
    assert 2 * rank <= sigma.dim
    with pytest.raises(NotPSDError):
        spectral_decompose(sigma, epsilon)
    with pytest.raises(NotPSDError):
        spectral_decompose(sigma)


# name: (matrix, epsilon, the error the call raises); each works in sigma's storage.
RESTORE_CASES = {
    "pivoted": (lambda: two_factor_correlation(np.random.default_rng(1), 400, 100), 0.01, None),
    "window_kept": (lambda: shrunk_two_factor_correlation(np.random.default_rng(1), 400, 100), 0.01, None),
    "window_checked": (lambda: two_factor_correlation(np.random.default_rng(2), 300, 200), 0.01, None),
    "falls_back": (lambda: random_correlation(np.random.default_rng(3), 300, 600), 0.01, None),
    "not_psd": (lambda: spiked_correlation(-0.05), 0.5, NotPSDError),
    "not_psd_low_rank": (indefinite_low_rank_correlation, 0.5, NotPSDError),
}


@pytest.mark.parametrize("read_only", [False, True])
@pytest.mark.parametrize("case", sorted(RESTORE_CASES))
def test_partial_window_leaves_sigma_as_it_was(case, read_only):
    make, epsilon, error = RESTORE_CASES[case]
    sigma = make()
    original = sigma.entries.copy()
    sigma.entries.flags.writeable = not read_only
    # The same matrix with the other flag is decomposed in the other storage: in place or in a copy.
    other = CorrelationMatrix(original.copy())
    other.entries.flags.writeable = read_only
    if error is not None:
        with pytest.raises(error):
            spectral_decompose(sigma, epsilon)
    else:
        system, reference = spectral_decompose(sigma, epsilon), spectral_decompose(other, epsilon)
        for name in ("values", "vectors", "tail_sq"):
            assert getattr(system, name).tobytes() == getattr(reference, name).tobytes()
        assert system.trace == reference.trace
    assert sigma.entries.tobytes() == original.tobytes()
    assert sigma.entries.flags.writeable is not read_only


def failing_after(real, sigma, original, seen):
    """Run `real`, record whether sigma changed and whether its strict lower triangle did not, then raise."""

    def failing(a, **kwargs):
        real(a, **kwargs)
        entries = sigma.entries
        seen.append((np.array_equal(entries, original), np.array_equal(np.tril(entries, -1), np.tril(original, -1))))
        raise np.linalg.LinAlgError("injected")

    return failing


def test_partial_window_restores_sigma_when_eigh_raises(monkeypatch):
    sigma = shrunk_two_factor_correlation(np.random.default_rng(1), 400, 100)
    original = sigma.entries.copy()
    seen = []
    monkeypatch.setattr(scipy.linalg, "eigh", failing_after(scipy.linalg.eigh, sigma, original, seen))
    with pytest.raises(np.linalg.LinAlgError, match="injected"):
        spectral_decompose(sigma, 0.01)
    # LAPACK overwrote sigma's upper triangle and diagonal, and only those.
    assert seen == [(False, True)]
    assert sigma.entries.tobytes() == original.tobytes()


@pytest.mark.parametrize("read_only", [False, True])
def test_pivoted_cholesky_restores_sigma_when_it_raises(read_only, monkeypatch):
    sigma = two_factor_correlation(np.random.default_rng(1), 400, 100)
    original = sigma.entries.copy()
    sigma.entries.flags.writeable = not read_only
    seen = []
    dpstrf = scipy.linalg.lapack.dpstrf
    monkeypatch.setattr(scipy.linalg.lapack, "dpstrf", failing_after(dpstrf, sigma, original, seen))
    with pytest.raises(np.linalg.LinAlgError, match="injected"):
        spectral_decompose(sigma, 0.01)
    # In place, LAPACK overwrote sigma's upper triangle and diagonal, and only those; a read-only sigma's copy.
    assert seen == [(read_only, True)]
    assert sigma.entries.tobytes() == original.tobytes()
    assert sigma.entries.flags.writeable is not read_only


def peak_of_second_call(sigma, epsilon):
    """tracemalloc peak of a spectral_decompose call made after a first one, and its result."""
    spectral_decompose(sigma, epsilon)
    tracemalloc.start()
    try:
        system = spectral_decompose(sigma, epsilon)
        return tracemalloc.get_traced_memory()[1], system
    finally:
        tracemalloc.stop()


def test_partial_window_makes_no_copy_of_sigma():
    p = 600
    peak, system = peak_of_second_call(shrunk_two_factor_correlation(np.random.default_rng(1), p, 100), 0.01)
    assert system.values.size == 128
    # LAPACK's p x 128 eigenvectors and their descending copy, and less than a quarter of sigma besides.
    assert peak < 2 * system.vectors.nbytes + p * p * 8 / 4


def test_pivoted_factor_makes_no_copy_of_sigma():
    p = 1000
    peak, system = peak_of_second_call(two_factor_correlation(np.random.default_rng(1), p, 100), 0.01)
    rank = system.vectors.shape[1]
    assert rank == 99 and system.values.size == p
    # The factor, its triangle and the eigenvectors, p x rank each, and three 64-row blocks of the residual
    # sigma - FF': under half of sigma.
    assert peak < 3 * p * rank * 8 + 3 * 64 * p * 8 < p * p * 8 / 2


def test_not_symmetric_rejected():
    entries = np.eye(3)
    entries[0, 1] = 0.2
    with pytest.raises(NotSymmetricError):
        CorrelationMatrix(entries)


def test_not_unit_diagonal_rejected():
    entries = np.eye(3)
    entries[1, 1] = 0.99
    with pytest.raises(ValueError):
        CorrelationMatrix(entries)


def test_not_psd_rejected():
    entries = np.array([[1.0, 0.99, -0.99], [0.99, 1.0, 0.99], [-0.99, 0.99, 1.0]])
    with pytest.raises(NotPSDError):
        spectral_decompose(CorrelationMatrix(entries))


def test_small_negative_eigenvalues_clamped():
    rng = np.random.default_rng(3)
    sigma = random_correlation(rng, 25, 10)  # rank deficient
    system = spectral_decompose(sigma)
    assert np.all(system.values >= 0.0)


def whole_spectrum(values):
    values = np.asarray(values, dtype=float)
    return EigenSystem(values=values, vectors=np.eye(values.size))


def test_tail_energy_examples():
    assert whole_spectrum([1.0, 1.0, 1.0]).tail_energy(3) == 0.0
    assert whole_spectrum([2.5, 0.5, 0.5, 0.5]).tail_energy(1) == pytest.approx(np.sqrt(0.75))
    assert whole_spectrum([1.0, 1.0, 1.0]).tail_energy(0) == pytest.approx(np.sqrt(3.0))


def test_tail_energy_monotone_and_total():
    values = np.sort(np.random.default_rng(0).uniform(0, 3, size=17))[::-1]
    system = whole_spectrum(values)
    energies = [system.tail_energy(k) for k in range(18)]
    assert all(energies[i] >= energies[i + 1] for i in range(17))
    assert energies[0] == pytest.approx(np.sqrt(np.sum(values**2)))
    assert energies[-1] == 0.0


@pytest.mark.parametrize("k", [-1, 4])
def test_tail_energy_bounds(k):
    with pytest.raises(IndexError):
        whole_spectrum([1.0, 1.0, 1.0]).tail_energy(k)
