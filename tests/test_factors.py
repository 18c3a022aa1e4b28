import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfa.factors import (
    _CDF_SLICE,
    _DRAW_CHUNK,
    A_CAP,
    FactorModel,
    build_factor_model,
    estimate_fdp,
    fdp_limit,
    numerator_over_draws,
    select_num_factors,
    standard_factor_draws,
)
from pfa.fdr import _CURVE_GRID, _T_LOW, solve_threshold
from pfa.gauss import norm_cdf, norm_quantile, two_sided_pvalue
from pfa.harness import variance_study
from pfa.linalg import CorrelationMatrix, EigenSystem, equal_correlation, gram_spectrum, spectral_decompose
from pfa.simulate import Scenario


def unit_columns(x):
    """x with each column scaled to unit Euclidean norm."""
    return x / np.linalg.norm(x, axis=0)


def exchangeable_model(p, rho):
    """Single-factor model with loading sqrt(rho) on every row.

    This is the exact one-factor decomposition of the exchangeable
    correlation matrix (scale (1-rho)^(-1/2)), not its principal-factor
    truncation, so closed-form comparisons are exact.
    """
    loadings = np.full((p, 1), np.sqrt(rho))
    scale = np.full(p, 1.0 / np.sqrt(1.0 - rho))
    return FactorModel(
        loadings=loadings,
        a=scale,
        eigenvalues=np.ones(p),
        degenerate_rows=np.zeros(0, dtype=np.intp),
    )


def cdf_slices(n):
    """Row slices the numerator evaluates n draws in: each _DRAW_CHUNK-row block cut into _CDF_SLICE rows."""
    return sum(-(-min(_DRAW_CHUNK, n - start) // _CDF_SLICE) for start in range(0, n, _DRAW_CHUNK))


def one_row(*w):
    """One factor realization as a (1, k) draw matrix."""
    return np.array([w], dtype=float)


def count_at(t, model, w, p1=None):
    """The conditional false count at the single realization w, over the indices from p1 on when given."""
    over_all, over_nulls = numerator_over_draws(t, model, one_row(*w), p1=p1)
    values = over_all if p1 is None else over_nulls
    assert values.shape == (1,)
    return float(values[0])


def exchangeable_closed_form(p0, rho, t, w):
    d = 1.0 / np.sqrt(1.0 - rho)
    z = norm_quantile(t / 2.0)
    return p0 * (norm_cdf(d * (z + np.sqrt(rho) * w)) + norm_cdf(d * (z - np.sqrt(rho) * w)))


def spectrum(values):
    """An EigenSystem holding the whole spectrum `values` and no vectors."""
    values = np.asarray(values, dtype=float)
    return EigenSystem(values=values, vectors=np.zeros((values.size, 0)))


def exact_minimal_k(values, epsilon: Fraction) -> int:
    """Exhaustive scan of the selection rule in exact rational arithmetic."""
    vals = [Fraction(float(v)) for v in values]
    total = sum(vals)
    if total <= 0:
        return 0
    threshold_sq = (epsilon * total) ** 2
    for k in range(len(vals) + 1):
        if sum(v * v for v in vals[k:]) < threshold_sq:
            return k
    return len(vals)


class TestSelectNumFactors:
    def test_rank_one(self):
        values = np.zeros(50)
        values[0] = 50.0
        assert select_num_factors(spectrum(values), 0.01) == 1

    def test_equicorrelation_p2000(self):
        values = np.full(2000, 0.5)
        values[0] = 1000.5
        assert select_num_factors(spectrum(values), 0.01) == 401
        assert exact_minimal_k(values, Fraction(1, 100)) == 401

    def test_identity_p100(self):
        assert select_num_factors(spectrum(np.ones(100)), 0.01) == 100

    def test_epsilon_domain(self):
        with pytest.raises(ValueError):
            select_num_factors(spectrum(np.ones(3)), 0.0)
        with pytest.raises(ValueError):
            select_num_factors(spectrum(np.ones(3)), 1.0)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=50.0)),
            min_size=1,
            max_size=200,
        ),
        st.integers(min_value=1, max_value=99),
    )
    def test_matches_exact_scan(self, raw, eps_hundredths):
        values = np.sort(np.asarray(raw))[::-1]
        epsilon = eps_hundredths / 100.0
        got = select_num_factors(spectrum(values), epsilon)
        want = exact_minimal_k(values, Fraction(eps_hundredths, 100))
        assert got == want


class TestBuildFactorModel:
    def test_no_factors(self):
        system = spectral_decompose(equal_correlation(5, 0.3))
        model = build_factor_model(system, 0)
        assert model.loadings.shape == (5, 0)
        np.testing.assert_array_equal(model.a, np.ones(5))
        assert model.degenerate_rows.size == 0

    def test_equicorrelation_single_factor(self):
        system = spectral_decompose(equal_correlation(2000, 0.5))
        model = build_factor_model(system, 1)
        np.testing.assert_allclose(np.abs(model.loadings[:, 0]), np.sqrt(1000.5 / 2000), atol=1e-9)
        np.testing.assert_allclose(model.a, (1.0 - 0.50025) ** -0.5, atol=1e-9)
        # approaches the exchangeable closed-form scale (1-rho)^(-1/2) as p grows
        assert model.a[0] == pytest.approx(np.sqrt(2.0), abs=5e-4)

    def test_rank_one_matrix_caps_every_row(self):
        ones = np.ones((4, 4))
        values, vectors = np.linalg.eigh(ones)
        system = EigenSystem(
            values=np.maximum(values[::-1], 0.0), vectors=np.ascontiguousarray(vectors[:, ::-1])
        )
        model = build_factor_model(system, 1)
        assert np.array_equal(model.degenerate_rows, np.arange(4))
        np.testing.assert_array_equal(model.a, np.full(4, A_CAP))

    def test_row_energy_and_column_norms(self):
        system = spectral_decompose(equal_correlation(40, 0.6))
        model = build_factor_model(system, 5)
        energy = np.sum(model.loadings**2, axis=1)
        assert np.all(energy <= 1.0 + 1e-10)
        assert np.all(model.a >= 1.0)
        for h in range(5):
            assert np.sum(model.loadings[:, h] ** 2) == pytest.approx(
                system.values[h], abs=1e-8
            )

    @pytest.mark.parametrize("flipped", [(0,), (3,), (1, 4), (0, 1, 2, 3, 4, 5)])
    def test_negated_eigenvectors_give_the_same_model_bytes(self, flipped):
        x = np.random.default_rng(11).standard_normal((30, 80))
        system = spectral_decompose(CorrelationMatrix.from_gram(unit_columns(x).T @ unit_columns(x)))
        vectors = system.vectors.copy()
        vectors[:, list(flipped)] *= -1.0
        base = build_factor_model(system, 6)
        negated = build_factor_model(EigenSystem(system.values, vectors), 6)
        for name in ("loadings", "a", "eigenvalues", "degenerate_rows"):
            assert getattr(base, name).tobytes() == getattr(negated, name).tobytes(), name

    def test_largest_entry_of_each_loading_column_is_positive(self):
        system = spectral_decompose(equal_correlation(40, 0.6))
        model = build_factor_model(EigenSystem(system.values, -system.vectors), 3)
        largest = model.loadings[np.argmax(np.abs(model.loadings), axis=0), np.arange(3)]
        assert np.all(largest > 0.0)

    def test_k_beyond_the_window_raises(self):
        system = spectral_decompose(equal_correlation(300, 0.5), 0.5)
        assert system.vectors.shape == (300, 128)  # the eigh window
        assert build_factor_model(system, 128).loadings.shape == (300, 128)
        with pytest.raises(IndexError, match=r"k=140 outside \[0, 128\]"):
            build_factor_model(system, 140)

    def test_k_beyond_the_gram_vectors_raises(self):
        x = np.random.default_rng(5).standard_normal((50, 300))
        system = gram_spectrum(unit_columns(x - np.mean(x, axis=0)))
        assert system.values.shape == (300,) and system.vectors.shape == (300, 49)
        assert build_factor_model(system, 49).loadings.shape == (300, 49)
        with pytest.raises(IndexError, match=r"k=60 outside \[0, 49\]"):
            build_factor_model(system, 60)

    def test_a_tie_goes_to_the_first_index(self):
        vectors = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, np.sqrt(2.0)]]) / np.sqrt(2.0)
        model = build_factor_model(EigenSystem(values=np.array([0.5, 0.25, 0.0]), vectors=vectors), 1)
        np.testing.assert_array_equal(np.sign(model.loadings[:, 0]), [1.0, -1.0, 0.0])


class TestNumeratorAtOneRealization:
    def test_no_factors_gives_nulls_times_t(self):
        system = spectral_decompose(equal_correlation(100, 0.2))
        model = build_factor_model(system, 0)
        assert count_at(0.01, model, (), 10) == pytest.approx(0.9, rel=1e-9)

    def test_zero_shift_unit_scale(self):
        model = exchangeable_model(50, 0.5)
        flat = FactorModel(
            loadings=np.zeros((50, 1)),
            a=np.ones(50),
            eigenvalues=np.ones(50),
            degenerate_rows=np.zeros(0, dtype=np.intp),
        )
        assert count_at(0.05, flat, (2.0,), 30) == pytest.approx(1.0, rel=1e-9)
        del model

    def test_matches_exchangeable_closed_form(self):
        p, rho, t, w = 100, 0.5, 0.01, 1.0
        model = exchangeable_model(p, rho)
        got = count_at(t, model, (w,))
        assert got == pytest.approx(exchangeable_closed_form(p, rho, t, w), abs=1e-12)

    def test_strictly_increasing_in_t(self):
        model = exchangeable_model(30, 0.4)
        grid = np.linspace(0.0005, 0.2, 25)
        values = [count_at(t, model, (0.7,)) for t in grid]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_summands_bounded(self):
        model = exchangeable_model(10, 0.9)
        total = count_at(0.5, model, (5.0,))
        assert 0.0 <= total <= 2.0 * 10


class TestFdpLimit:
    def test_all_null_is_one(self):
        model = exchangeable_model(60, 0.5)
        value = fdp_limit(0.01, model, np.zeros(60), 0, one_row(0.3))
        assert value.shape == (1,)
        assert value[0] == pytest.approx(1.0, rel=1e-12)

    def test_strong_signals_no_factors(self):
        p, p1 = 200, 20
        system = spectral_decompose(equal_correlation(p, 0.0))
        model = build_factor_model(system, 0)
        mu = np.zeros(p)
        mu[:p1] = 60.0  # saturates the shifted terms at 1
        t = 0.001
        (value,) = fdp_limit(t, model, mu, p1, one_row())
        p0 = p - p1
        assert value == pytest.approx(p0 * t / (p0 * t + p1), rel=1e-9)

    def test_matches_exchangeable_display(self):
        rng = np.random.default_rng(5)
        p, rho, p1 = 400, 0.5, 7
        model = exchangeable_model(p, rho)
        mu = np.zeros(p)
        mu[:p1] = rng.uniform(1.0, 4.0, size=p1)
        d = np.sqrt(2.0)
        for _ in range(50):
            t = float(rng.uniform(0.0005, 0.1))
            w = float(rng.standard_normal())
            (got,) = fdp_limit(t, model, mu, p1, one_row(w))
            z = norm_quantile(t / 2.0)
            numerator = (p - p1) * (
                norm_cdf(d * (z + np.sqrt(rho) * w)) + norm_cdf(d * (z - np.sqrt(rho) * w))
            )
            denominator = np.sum(
                norm_cdf(d * (z + np.sqrt(rho) * w + mu))
                + norm_cdf(d * (z - np.sqrt(rho) * w - mu))
            )
            assert got == pytest.approx(numerator / denominator, abs=1e-10)


class TestEstimateFdp:
    def test_no_rejections(self):
        model = exchangeable_model(20, 0.5)
        report = estimate_fdp(0.001, np.zeros(20), model, np.array([0.0]))
        assert report.n_rejected == 0
        assert report.fdp == 0.0
        assert report.est_false_count == 0.0

    def test_cap_at_rejection_count(self):
        model = exchangeable_model(20, 0.5)
        z = np.concatenate([np.full(2, 9.0), np.zeros(18)])
        report = estimate_fdp(0.5, z, model, np.array([0.0]))
        assert report.fdp == 1.0
        assert report.est_false_count == report.n_rejected

    def test_no_factor_reduction(self):
        rng = np.random.default_rng(9)
        p, t = 500, 0.05
        system = spectral_decompose(equal_correlation(p, 0.0))
        model = build_factor_model(system, 0)
        z = rng.standard_normal(p)
        report = estimate_fdp(t, z, model, np.zeros(0))
        rejected = int(np.sum(two_sided_pvalue(z) <= t))
        assert report.n_rejected == rejected
        assert report.fdp == pytest.approx(min(p * t, rejected) / rejected, rel=1e-9)
        assert 0.0 <= report.fdp <= 1.0

    def test_scalar_thresholds_give_python_numbers(self):
        model = exchangeable_model(20, 0.5)
        z = np.concatenate([np.full(2, 9.0), np.zeros(18)])
        for t in (0.001, 1e-30):  # two rejections, then none
            report = estimate_fdp(t, z, model, np.array([0.3]))
            assert (type(report.n_rejected), type(report.est_false_count), type(report.fdp)) == (int, float, float)

    def test_a_grid_gives_one_entry_per_threshold(self):
        model = exchangeable_model(20, 0.5)
        z = np.concatenate([np.full(2, 9.0), np.zeros(18)])
        grid = np.array([1e-30, 0.001, 0.5])
        report = estimate_fdp(grid, z, model, np.array([0.3]))
        singles = [estimate_fdp(t, z, model, np.array([0.3])) for t in grid]
        assert report.n_rejected.tolist() == [0, 2, 2]
        assert report.fdp.tolist() == [single.fdp for single in singles]
        assert report.est_false_count.tolist() == [single.est_false_count for single in singles]

    def test_a_threshold_outside_the_unit_interval_is_named(self):
        model = exchangeable_model(20, 0.5)
        with pytest.raises(ValueError, match=r"threshold must lie in \(0, 1\), got -0.2"):
            estimate_fdp(np.array([0.01, -0.2, 1.5]), np.zeros(20), model, np.array([0.0]))

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=1e-4, max_value=0.5),
        st.floats(min_value=-6.0, max_value=6.0),
        st.floats(min_value=-3.0, max_value=3.0),
    )
    def test_estimate_always_in_unit_interval(self, t, z_scale, w):
        model = exchangeable_model(40, 0.6)
        z = z_scale * np.linspace(-1.0, 1.0, 40)
        report = estimate_fdp(t, z, model, np.array([w]))
        assert 0.0 <= report.fdp <= 1.0
        assert report.est_false_count <= report.n_rejected or report.n_rejected == 0


class TestNumeratorVariance:
    """Monte-Carlo variance of the false count over rows of factor draws."""

    def test_no_factors_exactly_zero(self):
        system = spectral_decompose(equal_correlation(50, 0.0))
        model = build_factor_model(system, 0)
        _, values = numerator_over_draws(0.01, model, standard_factor_draws(0, 1000, 3), p1=0)
        assert np.all(values == values[0])
        # The harness reports exactly 0.0 for k = 0, not the rounding noise of np.var.
        scenario = Scenario(kind="equal_correlation", p=120, n=40, p1=6, rho=0.0)
        result = variance_study(scenario, t=0.01, n_reps=20, n_mc=100, seed=3, epsilon=0.5)
        assert result["k"] == 0
        assert result["var_numerator_all"] == 0.0
        assert result["var_numerator_nulls"] == 0.0

    def test_deterministic_in_seed(self):
        model_system = spectral_decompose(equal_correlation(80, 0.5))
        model = build_factor_model(model_system, 3)

        def variance(seed):
            _, over_nulls = numerator_over_draws(0.01, model, standard_factor_draws(3, 4000, seed), p1=10)
            return np.var(over_nulls, ddof=1)

        a, b, c = variance(17), variance(17), variance(18)
        assert a == b
        assert a != c

    def test_matches_exchangeable_quadrature(self):
        # Independent route: 1-d Gauss-Hermite quadrature over the factor.
        from numpy.polynomial.hermite_e import hermegauss

        p, rho, t = 300, 0.5, 0.01
        model = exchangeable_model(p, rho)
        nodes, weights = hermegauss(151)
        weights = weights / np.sqrt(2.0 * np.pi)
        values = np.array([exchangeable_closed_form(p, rho, t, x) for x in nodes])
        mean = np.sum(weights * values)
        var = np.sum(weights * (values - mean) ** 2)
        over_all, _ = numerator_over_draws(t, model, standard_factor_draws(1, 60000, 123))
        mc = np.var(over_all, ddof=1)
        assert mc == pytest.approx(var, rel=0.15)

    def test_requires_two_draws(self):
        scenario = Scenario(kind="equal_correlation", p=50, n=20, p1=2)
        with pytest.raises(ValueError, match="n_mc must be at least 2"):
            variance_study(scenario, t=0.01, n_reps=10, n_mc=1, seed=0)


class TestFdpLimitOverRows:
    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_rows_match_one_row_calls_bit_for_bit(self, k):
        # Loadings are multiples of 1/8 and draws of 1/4, so every product and
        # partial sum of eta = B W is exact: the summation order BLAS picks
        # for one row or for many cannot change a bit. 600 rows span three
        # internal chunks.
        rng = np.random.default_rng(k)
        p, p1, n = 300, 12, 600
        loadings = rng.integers(-3, 4, size=(p, k)) / 8.0
        model = FactorModel(
            loadings=loadings,
            a=1.0 / np.sqrt(1.0 - np.sum(loadings**2, axis=1)),
            eigenvalues=np.ones(p),
            degenerate_rows=np.zeros(0, dtype=np.intp),
        )
        draws = rng.integers(-8, 9, size=(n, k)) / 4.0
        assert draws.shape == (n, k)
        mu = np.zeros(p)
        mu[:p1] = rng.uniform(0.5, 4.0, size=p1)
        for t in (0.001, 0.05):
            stacked = fdp_limit(t, model, mu, p1, draws)
            rows = np.concatenate([fdp_limit(t, model, mu, p1, draws[i : i + 1]) for i in range(n)])
            assert stacked.shape == (n,)
            np.testing.assert_array_equal(stacked, rows)


class TestNullSum:
    """The sum over the indices from p1 on comes from the same terms as the all-index sum."""

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_matches_a_null_only_model_bit_for_bit(self, k):
        # Dyadic loadings and draws make eta = B W exact, as above, so the
        # null-only model and the null columns see identical terms and
        # the comparison tests the summation alone. 600 rows span three chunks.
        rng = np.random.default_rng(10 + k)
        p, p1, n = 300, 12, 600
        loadings = rng.integers(-3, 4, size=(p, k)) / 8.0
        # A random null set of the rows, made the suffix from p1 on by permuting them.
        nulls = np.sort(rng.choice(p, size=p - p1, replace=False))
        loadings = loadings[np.concatenate([np.setdiff1d(np.arange(p), nulls), nulls])]
        a = 1.0 / np.sqrt(1.0 - np.sum(loadings**2, axis=1))
        no_rows = np.zeros(0, dtype=np.intp)
        model = FactorModel(loadings=loadings, a=a, eigenvalues=np.ones(p), degenerate_rows=no_rows)
        null_model = FactorModel(
            loadings=loadings[p1:], a=a[p1:], eigenvalues=np.ones(p), degenerate_rows=no_rows
        )
        draws = rng.integers(-8, 9, size=(n, k)) / 4.0
        mu = np.zeros(p)
        mu[:p1] = rng.uniform(0.5, 4.0, size=p1)
        for t in (0.001, 0.05):
            expected, none = numerator_over_draws(t, null_model, draws)
            assert none is None
            for shift in (None, mu):
                over_all, over_nulls = numerator_over_draws(t, model, draws, p1=p1, shift=shift)
                np.testing.assert_array_equal(over_nulls, expected)
                np.testing.assert_array_equal(over_all, numerator_over_draws(t, model, draws, shift=shift)[0])

    @pytest.mark.parametrize("p1", [-1, 51])
    def test_p1_outside_the_indices_is_an_error(self, p1):
        with pytest.raises(ValueError, match=r"p1 must lie in \[0, 50\]"):
            numerator_over_draws(0.01, exchangeable_model(50, 0.5), one_row(0.3), p1=p1)


class TestOneEvaluationPerChunk:
    def test_fdp_limit_and_variance_study_evaluate_terms_once(self, monkeypatch):
        calls = []

        def counting_cdf(x, out=None):
            calls.append(np.shape(x))
            return norm_cdf(x, out=out)

        monkeypatch.setattr("pfa.factors.norm_cdf", counting_cdf)
        p = 50
        fdp_limit(0.01, exchangeable_model(p, 0.5), np.zeros(p), 5, standard_factor_draws(1, 600, 0))
        # Each slice of the 600 rows evaluates Phi(a(z + eta)) and Phi(a(z - eta)) once, after one
        # scalar call for the cut-off.
        assert len(calls) == 1 + 2 * cdf_slices(600)
        calls.clear()
        scenario = Scenario(kind="equal_correlation", p=60, n=30, p1=4)
        result = variance_study(scenario, t=0.01, n_reps=20, n_mc=600, seed=1)
        assert result["k"] > 0
        assert len(calls) == 1 + 2 * cdf_slices(600)


def assert_within_pruning_bound(got, want, p):
    """Per draw, |got - want| <= (2^-54 + 2p 2^-53) want.

    2^-54 bounds the terms numerator_over_draws skips, and 2p 2^-53 the
    rounding of a sum of at most 2p positive terms, in either evaluation.
    """
    bound = (2.0**-54 + 2 * p * 2.0**-53) * want
    assert np.all(np.abs(got - want) <= bound), np.max(np.abs(got - want) / want)


class TestBufferedNumerator:
    """The chunked, buffer-reusing evaluation against the formula over all rows at once."""

    @staticmethod
    def plain_numerator(t, model, draws, p1, shift):
        z_half = norm_quantile(0.5 * t)
        eta = draws @ model.loadings.T
        if shift is not None:
            eta = eta + shift
        terms = norm_cdf(model.a * (z_half + eta)) + norm_cdf(model.a * (z_half - eta))
        return np.sum(terms, axis=1), None if p1 is None else np.sum(terms[:, p1:], axis=1)

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 600])
    @pytest.mark.parametrize("with_nulls", [False, True])
    @pytest.mark.parametrize("with_shift", [False, True])
    def test_within_the_pruning_bound_of_the_plain_formula(self, n, with_nulls, with_shift):
        # Dyadic loadings and draws make eta exact in any BLAS blocking, so
        # the comparison sees only the buffered elementwise steps, the skipped
        # terms and the sums.
        rng = np.random.default_rng(n)
        p, k = 150, 3
        loadings = rng.integers(-3, 4, size=(p, k)) / 8.0
        model = FactorModel(
            loadings=loadings,
            a=1.0 / np.sqrt(1.0 - np.sum(loadings**2, axis=1)),
            eigenvalues=np.ones(p),
            degenerate_rows=np.zeros(0, dtype=np.intp),
        )
        draws = rng.integers(-8, 9, size=(n, k)) / 4.0
        p1 = 9 if with_nulls else None
        shift = rng.uniform(0.0, 3.0, size=p) if with_shift else None
        for t in (1e-6, 0.01, 0.3):
            over_all, over_nulls = numerator_over_draws(t, model, draws, p1=p1, shift=shift)
            want_all, want_nulls = self.plain_numerator(t, model, draws, p1, shift)
            assert_within_pruning_bound(over_all, want_all, p)
            if with_nulls:
                assert_within_pruning_bound(over_nulls, want_nulls, p)
            else:
                assert over_nulls is None


def steep_model(p=400, k=5, seed=0, capped=0):
    """Factor model with a_i log-uniform on [4, 40], the row of the smallest first and the last `capped` rows at A_CAP.

    Uncapped rows satisfy a_i = (1 - ||b_i||^2)^(-1/2) exactly as a
    principal-factor model does, and with a_low > 3 most terms fall below
    the cut-off of numerator_over_draws at moderate thresholds. The indices
    from p1 on, for 0 < p1 < p - capped, hold the capped rows and leave out
    the smallest a_i.
    """
    rng = np.random.default_rng(seed)
    a = np.exp(rng.uniform(np.log(4.0), np.log(40.0), size=p))
    directions = rng.standard_normal((p, k))
    smallest = [int(np.argmin(a)), 0]
    a[smallest[::-1]], directions[smallest[::-1]] = a[smallest], directions[smallest]
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    loadings = directions * np.sqrt(1.0 - 1.0 / a**2)[:, None]
    tail = np.arange(p - capped, p)
    a[tail] = A_CAP
    loadings[tail] = directions[tail]
    return FactorModel(loadings=loadings, a=a, eigenvalues=np.ones(p), degenerate_rows=tail)


def dense_numerator(t, model, draws, p1=None, shift=None):
    """Every term of the false count, summed over all indices and over those from p1 on."""
    z_half = norm_quantile(0.5 * t)
    s = draws @ model.loadings.T
    if shift is not None:
        s = s + shift
    terms = norm_cdf(model.a * (z_half + s)) + norm_cdf(model.a * (z_half - s))
    return np.sum(terms, axis=1), None if p1 is None else np.sum(terms[:, p1:], axis=1)


class TestPrunedNumerator:
    """numerator_over_draws skips the terms below its cut-off and nothing else."""

    @pytest.mark.parametrize("t", [1e-12, 1e-6, 0.005, 0.5])
    @pytest.mark.parametrize("with_nulls", [False, True])
    @pytest.mark.parametrize("with_shift", [False, True])
    def test_agrees_with_the_dense_formula(self, t, with_nulls, with_shift):
        rng = np.random.default_rng(7)
        model = steep_model(p=300, capped=6)
        draws = standard_factor_draws(model.k, 300, 1)
        # The nulls from index 3 on hold the capped rows and leave out row 0, the smallest a.
        p1 = 3 if with_nulls else None
        shift = rng.uniform(0.0, 3.0, size=model.p) if with_shift else None
        over_all, over_nulls = numerator_over_draws(t, model, draws, p1=p1, shift=shift)
        want_all, want_nulls = dense_numerator(t, model, draws, p1, shift)
        assert_within_pruning_bound(over_all, want_all, model.p)
        if with_nulls:
            assert_within_pruning_bound(over_nulls, want_nulls, model.p)
        else:
            assert over_nulls is None

    @pytest.mark.parametrize("t", [1e-12, 0.005])
    def test_edge_cases_agree_with_the_dense_formula(self, t):
        model = steep_model(p=200, capped=4)
        draws = standard_factor_draws(model.k, 50, 2)
        # No nulls (p1 = p), then every index null (p1 = 0).
        over_all, over_nulls = numerator_over_draws(t, model, draws, p1=model.p)
        assert_within_pruning_bound(over_all, dense_numerator(t, model, draws)[0], model.p)
        assert np.all(over_nulls == 0.0)
        over_all, over_nulls = numerator_over_draws(t, model, draws, p1=0)
        np.testing.assert_array_equal(over_nulls, over_all)
        (one,), _ = numerator_over_draws(t, model, draws[:1])
        assert_within_pruning_bound(one, dense_numerator(t, model, draws[:1])[0][0], model.p)
        # Nulls all capped: Phi(a_low z) underflows, so no term may be skipped.
        _, over_capped = numerator_over_draws(t, model, draws, p1=model.p - 4)
        assert_within_pruning_bound(over_capped, dense_numerator(t, model, draws, model.p - 4)[1], model.p)
        no_factors = FactorModel(
            loadings=np.zeros((200, 0)), a=model.a, eigenvalues=np.ones(200), degenerate_rows=model.degenerate_rows
        )
        got, _ = numerator_over_draws(t, no_factors, np.zeros((3, 0)))
        assert_within_pruning_bound(got, dense_numerator(t, no_factors, np.zeros((3, 0)))[0], model.p)

    @pytest.mark.parametrize("t", [0.005, 0.05])
    def test_mean_is_p_times_t(self, t):
        # With eta_i ~ N(0, ||b_i||^2) and a_i = (1 - ||b_i||^2)^(-1/2),
        # E Phi(a_i (z + eta_i)) = Phi(z) for every i, so E N(W) = p t exactly.
        model = steep_model()
        over_all, _ = numerator_over_draws(t, model, standard_factor_draws(model.k, 20000, 3))
        standard_error = np.std(over_all, ddof=1) / np.sqrt(over_all.size)
        assert abs(np.mean(over_all) - model.p * t) <= 5.0 * standard_error

    def test_curve_is_monotone(self):
        model = steep_model()
        draws = standard_factor_draws(model.k, 500, 4)
        grid = np.logspace(-10, np.log10(0.5), 40)
        sums = np.stack([numerator_over_draws(t, model, draws)[0] for t in grid])
        assert np.all(np.diff(sums, axis=0) > 0.0)
        result = solve_threshold(0.05, model, 10, draws)
        fdr = [value for _, value in result.curve]
        assert all(low < high for low, high in zip(fdr, fdr[1:]))

    @staticmethod
    def cut_dense_numerator(t, model, draws, p1, shift):
        """Every term cut at the numerator's c, where(a (z +- s) > c, Phi, 0), s from _DRAW_CHUNK-row products."""
        z_half = norm_quantile(0.5 * t)
        a_low = np.min(model.a if p1 in (None, model.p) else model.a[p1:])
        negligible = np.ldexp(norm_cdf(a_low * z_half), -54) / (2 * model.p)
        cut = norm_quantile(negligible) if negligible > 0.0 else -np.inf
        s = np.concatenate([draws[i : i + _DRAW_CHUNK] @ model.loadings.T for i in range(0, len(draws), _DRAW_CHUNK)])
        if shift is not None:
            s = s + shift
        plus, minus = model.a * (s + z_half), model.a * (z_half - s)
        terms = np.where(plus > cut, norm_cdf(plus), 0.0) + np.where(minus > cut, norm_cdf(minus), 0.0)
        # Summed as a contiguous copy: the numerator's strided slice of the columns must round the same.
        return np.sum(terms, axis=1), None if p1 is None else np.sum(np.ascontiguousarray(terms[:, p1:]), axis=1)

    @pytest.mark.parametrize("n", [1, 64, 257, 600])
    @pytest.mark.parametrize("t", [0.5, 0.01, 1e-6])
    def test_one_threshold_is_the_cut_dense_formula_bit_for_bit(self, n, t):
        # Few terms kept (steep), every term kept (exchangeable) and a principal-factor model between.
        rng = np.random.default_rng(n)
        x = rng.standard_normal((60, 2)) @ rng.uniform(-1.0, 1.0, (2, 300)) + rng.standard_normal((60, 300))
        system = gram_spectrum(unit_columns(x - np.mean(x, axis=0)))
        models = (
            steep_model(p=300, capped=6),
            exchangeable_model(300, 0.5),
            build_factor_model(system, select_num_factors(system, 0.1)),
        )
        for model in models:
            draws = standard_factor_draws(model.k, n, 8)
            shift = rng.uniform(0.0, 3.0, size=model.p)
            for p1, case_shift in ((None, None), (3, None), (None, shift), (3, shift)):
                over_all, over_nulls = numerator_over_draws(t, model, draws, p1=p1, shift=case_shift)
                want_all, want_nulls = self.cut_dense_numerator(t, model, draws, p1, case_shift)
                assert over_all.tobytes() == want_all.tobytes()
                assert over_nulls is None if p1 is None else over_nulls.tobytes() == want_nulls.tobytes()

    @pytest.mark.parametrize("with_nulls", [False, True])
    def test_cdf_sees_only_the_arguments_above_the_cut_off(self, monkeypatch, with_nulls):
        seen = []

        def counting_cdf(x, out=None):
            seen.append(np.size(x))
            return norm_cdf(x, out=out)

        monkeypatch.setattr("pfa.factors.norm_cdf", counting_cdf)
        model = steep_model()
        n, t = 250, 0.005  # one chunk of draws
        draws = standard_factor_draws(model.k, n, 5)
        # Without row 0, the smallest a, the nulls give a lower cut-off.
        p1 = 1 if with_nulls else None
        numerator_over_draws(t, model, draws, p1=p1)
        assert sum(seen) < 0.2 * 2 * n * model.p
        z_half = norm_quantile(0.5 * t)
        a_low = np.min(model.a if p1 is None else model.a[p1:])
        cut = norm_quantile(2.0**-54 * norm_cdf(a_low * z_half) / (2 * model.p))
        size = np.abs(draws @ model.loadings.T)
        above = np.count_nonzero((size + z_half) * model.a > cut) + np.count_nonzero((z_half - size) * model.a > cut)
        assert sum(seen) == 1 + above  # and one scalar call for the cut-off itself


# Both ends of the solver's bracket and its 40-point curve grid.
SOLVER_GRID = (_T_LOW, *_CURVE_GRID)


def one_call_per_threshold(thresholds, model, draws, p1=None, shift=None):
    """The sums of numerator_over_draws at each threshold alone, stacked one row per threshold."""
    calls = [numerator_over_draws(t, model, draws, p1=p1, shift=shift) for t in thresholds]
    return np.stack([c[0] for c in calls]), None if p1 is None else np.stack([c[1] for c in calls])


class TestThresholdSweep:
    """Several thresholds in one call give the sums of one call per threshold, bit for bit."""

    @staticmethod
    def assert_sweep_matches(thresholds, model, draws, p1=None, shift=None):
        over_all, over_nulls = numerator_over_draws(np.asarray(thresholds), model, draws, p1=p1, shift=shift)
        want_all, want_nulls = one_call_per_threshold(thresholds, model, draws, p1, shift)
        assert over_all.shape == (len(thresholds), draws.shape[0])
        np.testing.assert_array_equal(over_all, want_all)
        if p1 is None:
            assert over_nulls is None
        else:
            np.testing.assert_array_equal(over_nulls, want_nulls)

    @pytest.mark.parametrize("with_nulls", [False, True])
    @pytest.mark.parametrize("with_shift", [False, True])
    def test_solver_grid(self, with_nulls, with_shift):
        rng = np.random.default_rng(11)
        model = steep_model(p=300, capped=6)
        draws = standard_factor_draws(model.k, 300, 1)
        # The nulls from index 3 on hold the rows capped at A_CAP and leave out row 0, the smallest a.
        p1 = 3 if with_nulls else None
        shift = rng.uniform(0.0, 3.0, size=model.p) if with_shift else None
        self.assert_sweep_matches(SOLVER_GRID, model, draws, p1, shift)

    def test_unsorted_thresholds_and_neighbouring_floats(self):
        model = steep_model(p=200, capped=3)
        draws = standard_factor_draws(model.k, 100, 2)
        t = 0.005
        thresholds = [0.01, np.nextafter(t, 1.0), 1e-8, t, 0.3, np.nextafter(t, 0.0), 1e-8]
        self.assert_sweep_matches(thresholds, model, draws)
        self.assert_sweep_matches(thresholds, model, draws, p1=3, shift=np.linspace(0.0, 2.0, 200))

    def test_principal_factor_model_keeps_most_terms(self):
        # a_i near 1.4 puts almost every argument above the cut-off.
        model = build_factor_model(spectral_decompose(equal_correlation(150, 0.5)), 1)
        draws = standard_factor_draws(1, 300, 3)
        self.assert_sweep_matches(SOLVER_GRID, model, draws, p1=10)

    @pytest.mark.parametrize("n", [1, 257])
    def test_one_row_and_a_chunk_boundary(self, n):
        model = steep_model(p=150, capped=2)
        draws = standard_factor_draws(model.k, n, 4)
        self.assert_sweep_matches(SOLVER_GRID, model, draws, p1=2, shift=np.full(150, 0.5))
        # A one-element array is one threshold, with its sums in one row.
        (row,), _ = numerator_over_draws(np.array([0.01]), model, draws)
        np.testing.assert_array_equal(row, numerator_over_draws(0.01, model, draws)[0])

    def test_no_factors(self):
        p = 120
        model = FactorModel(
            loadings=np.zeros((p, 0)), a=np.ones(p), eigenvalues=np.ones(p), degenerate_rows=np.arange(0)
        )
        self.assert_sweep_matches(SOLVER_GRID, model, np.zeros((5, 0)), p1=4)

    def test_fdp_limit_over_thresholds(self):
        model = steep_model(p=200, capped=2)
        draws = standard_factor_draws(model.k, 300, 6)
        mu = np.zeros(model.p)
        mu[:8] = 3.0
        thresholds = (0.05, 0.001, 0.02)
        limits = fdp_limit(np.asarray(thresholds), model, mu, 8, draws)
        for t, row in zip(thresholds, limits):
            np.testing.assert_array_equal(row, fdp_limit(t, model, mu, 8, draws))

    @pytest.mark.parametrize("with_nulls", [False, True])
    def test_cdf_sees_the_arguments_of_separate_calls(self, monkeypatch, with_nulls):
        seen = []

        def counting_cdf(x, out=None):
            seen.append(np.size(x))
            return norm_cdf(x, out=out)

        monkeypatch.setattr("pfa.factors.norm_cdf", counting_cdf)
        model = steep_model()
        draws = standard_factor_draws(model.k, 600, 5)
        p1 = 1 if with_nulls else None  # the nulls leave out row 0, the smallest a
        numerator_over_draws(np.asarray(SOLVER_GRID), model, draws, p1=p1)
        swept = list(seen)
        seen.clear()
        one_call_per_threshold(SOLVER_GRID, model, draws, p1)
        # Per threshold one scalar call for its cut-off, then per slice one call for each side.
        assert len(swept) == len(seen) == len(SOLVER_GRID) * (1 + 2 * cdf_slices(600))
        assert sum(swept) == sum(seen)


class TestCdfSlices:
    """The CDF stages run on row slices of each matmul block; the slice size moves no bit and bounds the memory."""

    @pytest.mark.parametrize("n", [1, 63, 65, 257, 600])
    @pytest.mark.parametrize("rows", [1, 7, 64, 256])
    def test_sums_do_not_depend_on_the_slice_size(self, monkeypatch, rows, n):
        model = steep_model(p=150, k=3, seed=n)
        draws = standard_factor_draws(model.k, n, n)
        shift = np.zeros(model.p)
        shift[:10] = 2.5
        thresholds = (0.005, np.asarray((0.05, 0.001, 0.02)))
        cases = [(t, p1, mu) for t in thresholds for p1 in (None, 10) for mu in (None, shift)]
        want = [numerator_over_draws(t, model, draws, p1=p1, shift=mu) for t, p1, mu in cases]
        monkeypatch.setattr("pfa.factors._CDF_SLICE", rows)
        for (t, p1, mu), (want_all, want_nulls) in zip(cases, want):
            over_all, over_nulls = numerator_over_draws(t, model, draws, p1=p1, shift=mu)
            assert np.array_equal(over_all, want_all)
            assert (over_nulls is None) if p1 is None else np.array_equal(over_nulls, want_nulls)

    def test_solve_threshold_memory_is_bounded_by_slices(self):
        # Every term of an exchangeable model lies above the cut-off, so each slice keeps all of them.
        p = 1000
        model = exchangeable_model(p, 0.5)
        draws = standard_factor_draws(model.k, 4 * _DRAW_CHUNK, 1)
        solve_threshold(0.1, model, 10, draws)
        tracemalloc.start()
        try:
            solve_threshold(0.1, model, 10, draws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The matmul block, and slice-sized arrays for the arguments, the kept terms of both sides and
        # one threshold's temporaries: 24 slices is about a third more than they take.
        assert peak < 8 * p * (_DRAW_CHUNK + 24 * _CDF_SLICE)

    def test_one_threshold_memory_is_the_blocks_and_the_survivors(self):
        # Every term lies above the cut-off, so each side's survivors are a whole slice.
        p = 2000
        model = exchangeable_model(p, 0.5)
        draws = standard_factor_draws(model.k, 2 * _DRAW_CHUNK, 1)
        numerator_over_draws(0.01, model, draws, p1=10)
        tracemalloc.start()
        try:
            numerator_over_draws(0.01, model, draws, p1=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The matmul block of eta; the terms, arguments and tiled a of a slice; and per slice argument
        # the survivors of one side (an index and a CDF value, 8 bytes apiece) and the gathered terms
        # its scatter-add reads: side 0's survivors are freed before side 1 forms its own.
        assert peak < 8 * p * (_DRAW_CHUNK + 3 * _CDF_SLICE) + 25 * p * _CDF_SLICE
