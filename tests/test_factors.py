from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfa.factors import (
    A_CAP,
    FactorModel,
    build_factor_model,
    estimate_fdp,
    fdp_limit,
    numerator_over_draws,
    select_num_factors,
    standard_factor_draws,
)
from pfa.gauss import norm_cdf, norm_quantile, two_sided_pvalue
from pfa.harness import variance_study
from pfa.linalg import EigenSystem, equal_correlation, spectral_decompose
from pfa.simulate import Scenario


def exchangeable_model(p, rho):
    """Single-factor model with loading sqrt(rho) on every row.

    This is the exact one-factor decomposition of the exchangeable
    correlation matrix (scale (1-rho)^(-1/2)), not its principal-factor
    truncation, so closed-form comparisons are exact.
    """
    loadings = np.full((p, 1), np.sqrt(rho))
    scale = np.full(p, 1.0 / np.sqrt(1.0 - rho))
    return FactorModel(
        p=p,
        k=1,
        loadings=loadings,
        a=scale,
        eigenvalues=np.ones(p),
        degenerate_rows=np.zeros(0, dtype=np.intp),
    )


def one_row(*w):
    """One factor realization as a (1, k) draw matrix."""
    return np.array([w], dtype=float)


def count_at(t, model, w, nulls=None):
    """The conditional false count at the single realization w, over nulls when given."""
    over_all, over_nulls = numerator_over_draws(t, model, one_row(*w), nulls=nulls)
    values = over_all if nulls is None else over_nulls
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


class TestNumeratorAtOneRealization:
    def test_no_factors_gives_nulls_times_t(self):
        system = spectral_decompose(equal_correlation(100, 0.2))
        model = build_factor_model(system, 0)
        nulls = np.arange(90)
        assert count_at(0.01, model, (), nulls) == pytest.approx(0.9, rel=1e-9)

    def test_zero_shift_unit_scale(self):
        model = exchangeable_model(50, 0.5)
        flat = FactorModel(
            p=50,
            k=1,
            loadings=np.zeros((50, 1)),
            a=np.ones(50),
            eigenvalues=np.ones(50),
            degenerate_rows=np.zeros(0, dtype=np.intp),
        )
        nulls = np.arange(20)
        assert count_at(0.05, flat, (2.0,), nulls) == pytest.approx(1.0, rel=1e-9)
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
        value = fdp_limit(0.01, model, np.zeros(60), np.arange(60), one_row(0.3))
        assert value.shape == (1,)
        assert value[0] == pytest.approx(1.0, rel=1e-12)

    def test_strong_signals_no_factors(self):
        p, p1 = 200, 20
        system = spectral_decompose(equal_correlation(p, 0.0))
        model = build_factor_model(system, 0)
        mu = np.zeros(p)
        mu[:p1] = 60.0  # saturates the shifted terms at 1
        t = 0.001
        (value,) = fdp_limit(t, model, mu, np.arange(p1, p), one_row())
        p0 = p - p1
        assert value == pytest.approx(p0 * t / (p0 * t + p1), rel=1e-9)

    def test_matches_exchangeable_display(self):
        rng = np.random.default_rng(5)
        p, rho, p1 = 400, 0.5, 7
        model = exchangeable_model(p, rho)
        mu = np.zeros(p)
        mu[:p1] = rng.uniform(1.0, 4.0, size=p1)
        nulls = np.arange(p1, p)
        d = np.sqrt(2.0)
        for _ in range(50):
            t = float(rng.uniform(0.0005, 0.1))
            w = float(rng.standard_normal())
            (got,) = fdp_limit(t, model, mu, nulls, one_row(w))
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
        _, values = numerator_over_draws(0.01, model, standard_factor_draws(0, 1000, 3), nulls=np.arange(50))
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
        nulls = np.arange(70)

        def variance(seed):
            _, over_nulls = numerator_over_draws(0.01, model, standard_factor_draws(3, 4000, seed), nulls=nulls)
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
            p=p,
            k=k,
            loadings=loadings,
            a=1.0 / np.sqrt(1.0 - np.sum(loadings**2, axis=1)),
            eigenvalues=np.ones(p),
            degenerate_rows=np.zeros(0, dtype=np.intp),
        )
        draws = rng.integers(-8, 9, size=(n, k)) / 4.0
        assert draws.shape == (n, k)
        mu = np.zeros(p)
        mu[:p1] = rng.uniform(0.5, 4.0, size=p1)
        nulls = np.arange(p1, p)
        for t in (0.001, 0.05):
            stacked = fdp_limit(t, model, mu, nulls, draws)
            rows = np.concatenate([fdp_limit(t, model, mu, nulls, draws[i : i + 1]) for i in range(n)])
            assert stacked.shape == (n,)
            np.testing.assert_array_equal(stacked, rows)


class TestNullSum:
    """The sum over `nulls` comes from the same terms as the all-index sum."""

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_matches_a_null_only_model_bit_for_bit(self, k):
        # Dyadic loadings and draws make eta = B W exact, as above, so the
        # null-only model and the gathered columns see identical terms and
        # the comparison tests the summation alone. 600 rows span three chunks.
        rng = np.random.default_rng(10 + k)
        p, p1, n = 300, 12, 600
        loadings = rng.integers(-3, 4, size=(p, k)) / 8.0
        a = 1.0 / np.sqrt(1.0 - np.sum(loadings**2, axis=1))
        no_rows = np.zeros(0, dtype=np.intp)
        model = FactorModel(p=p, k=k, loadings=loadings, a=a, eigenvalues=np.ones(p), degenerate_rows=no_rows)
        nulls = np.sort(rng.choice(p, size=p - p1, replace=False))
        null_model = FactorModel(
            p=nulls.size, k=k, loadings=loadings[nulls], a=a[nulls], eigenvalues=np.ones(p), degenerate_rows=no_rows
        )
        draws = rng.integers(-8, 9, size=(n, k)) / 4.0
        mu = np.zeros(p)
        mu[np.setdiff1d(np.arange(p), nulls)] = rng.uniform(0.5, 4.0, size=p1)
        for t in (0.001, 0.05):
            expected, none = numerator_over_draws(t, null_model, draws)
            assert none is None
            for shift in (None, mu):
                over_all, over_nulls = numerator_over_draws(t, model, draws, nulls=nulls, shift=shift)
                np.testing.assert_array_equal(over_nulls, expected)
                np.testing.assert_array_equal(over_all, numerator_over_draws(t, model, draws, shift=shift)[0])


class TestOneEvaluationPerChunk:
    def test_fdp_limit_and_variance_study_evaluate_terms_once(self, monkeypatch):
        calls = []

        def counting_cdf(x, out=None):
            calls.append(np.shape(x))
            return norm_cdf(x, out=out)

        monkeypatch.setattr("pfa.factors.norm_cdf", counting_cdf)
        p = 50
        fdp_limit(0.01, exchangeable_model(p, 0.5), np.zeros(p), np.arange(5, p), standard_factor_draws(1, 600, 0))
        # 600 rows are three chunks; each evaluates Phi(a(z + eta)) and Phi(a(z - eta)) once.
        assert len(calls) == 2 * 3
        calls.clear()
        scenario = Scenario(kind="equal_correlation", p=60, n=30, p1=4)
        result = variance_study(scenario, t=0.01, n_reps=20, n_mc=600, seed=1)
        assert result["k"] > 0
        assert len(calls) == 2 * 3


class TestBufferedNumerator:
    """The chunked, buffer-reusing evaluation against the formula over all rows at once."""

    @staticmethod
    def plain_numerator(t, model, draws, nulls, shift):
        z_half = norm_quantile(0.5 * t)
        eta = draws @ model.loadings.T
        if shift is not None:
            eta = eta + shift
        terms = norm_cdf(model.a * (z_half + eta)) + norm_cdf(model.a * (z_half - eta))
        # terms[:, nulls] comes out column-major, which would sum in another order.
        return np.sum(terms, axis=1), None if nulls is None else np.sum(np.ascontiguousarray(terms[:, nulls]), axis=1)

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 600])
    @pytest.mark.parametrize("with_nulls", [False, True])
    @pytest.mark.parametrize("with_shift", [False, True])
    def test_bit_identical_to_the_plain_formula(self, n, with_nulls, with_shift):
        # Dyadic loadings and draws make eta exact in any BLAS blocking, so
        # the comparison sees only the buffered elementwise steps and the sums.
        rng = np.random.default_rng(n)
        p, k = 150, 3
        loadings = rng.integers(-3, 4, size=(p, k)) / 8.0
        model = FactorModel(
            p=p,
            k=k,
            loadings=loadings,
            a=1.0 / np.sqrt(1.0 - np.sum(loadings**2, axis=1)),
            eigenvalues=np.ones(p),
            degenerate_rows=np.zeros(0, dtype=np.intp),
        )
        draws = rng.integers(-8, 9, size=(n, k)) / 4.0
        nulls = np.sort(rng.choice(p, size=p - 9, replace=False)) if with_nulls else None
        shift = rng.uniform(0.0, 3.0, size=p) if with_shift else None
        for t in (1e-6, 0.01, 0.3):
            over_all, over_nulls = numerator_over_draws(t, model, draws, nulls=nulls, shift=shift)
            want_all, want_nulls = self.plain_numerator(t, model, draws, nulls, shift)
            np.testing.assert_array_equal(over_all, want_all)
            if with_nulls:
                np.testing.assert_array_equal(over_nulls, want_nulls)
            else:
                assert over_nulls is None
