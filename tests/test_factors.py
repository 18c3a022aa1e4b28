from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfa.factors import (
    A_CAP,
    FactorModel,
    _cdf_above,
    build_factor_model,
    estimate_fdp,
    fdp_limit,
    numerator_over_draws,
    select_num_factors,
    standard_factor_draws,
)
from pfa.fdr import solve_threshold
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
        # 600 rows are three chunks; each evaluates Phi(a(z + eta)) and Phi(a(z - eta)) once,
        # after one scalar call for the cut-off.
        assert len(calls) == 1 + 2 * 3
        calls.clear()
        scenario = Scenario(kind="equal_correlation", p=60, n=30, p1=4)
        result = variance_study(scenario, t=0.01, n_reps=20, n_mc=600, seed=1)
        assert result["k"] > 0
        assert len(calls) == 1 + 2 * 3


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
    def test_within_the_pruning_bound_of_the_plain_formula(self, n, with_nulls, with_shift):
        # Dyadic loadings and draws make eta exact in any BLAS blocking, so
        # the comparison sees only the buffered elementwise steps, the skipped
        # terms and the sums.
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
            assert_within_pruning_bound(over_all, want_all, p)
            if with_nulls:
                assert_within_pruning_bound(over_nulls, want_nulls, p)
            else:
                assert over_nulls is None


def steep_model(p=400, k=5, seed=0, capped=0):
    """Factor model with a_i log-uniform on [4, 40], the first `capped` rows at A_CAP.

    Uncapped rows satisfy a_i = (1 - ||b_i||^2)^(-1/2) exactly as a
    principal-factor model does, and with a_low > 3 most terms fall below
    the cut-off of numerator_over_draws at moderate thresholds.
    """
    rng = np.random.default_rng(seed)
    a = np.exp(rng.uniform(np.log(4.0), np.log(40.0), size=p))
    directions = rng.standard_normal((p, k))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    loadings = directions * np.sqrt(1.0 - 1.0 / a**2)[:, None]
    a[:capped] = A_CAP
    loadings[:capped] = directions[:capped]
    return FactorModel(p=p, k=k, loadings=loadings, a=a, eigenvalues=np.ones(p), degenerate_rows=np.arange(capped))


def dense_numerator(t, model, draws, nulls=None, shift=None):
    """Every term of the false count, summed over all indices and over nulls."""
    z_half = norm_quantile(0.5 * t)
    s = draws @ model.loadings.T
    if shift is not None:
        s = s + shift
    terms = norm_cdf(model.a * (z_half + s)) + norm_cdf(model.a * (z_half - s))
    return np.sum(terms, axis=1), None if nulls is None else np.sum(terms[:, nulls], axis=1)


class TestPrunedNumerator:
    """numerator_over_draws skips the terms below its cut-off and nothing else."""

    @pytest.mark.parametrize("t", [1e-12, 1e-6, 0.005, 0.5])
    @pytest.mark.parametrize("with_nulls", [False, True])
    @pytest.mark.parametrize("with_shift", [False, True])
    def test_agrees_with_the_dense_formula(self, t, with_nulls, with_shift):
        rng = np.random.default_rng(7)
        model = steep_model(p=300, capped=6)
        draws = standard_factor_draws(model.k, 300, 1)
        # The nulls hold capped rows and leave out the row with the smallest a.
        nulls = np.setdiff1d(np.arange(model.p), [0, 1, int(np.argmin(model.a))]) if with_nulls else None
        shift = rng.uniform(0.0, 3.0, size=model.p) if with_shift else None
        over_all, over_nulls = numerator_over_draws(t, model, draws, nulls=nulls, shift=shift)
        want_all, want_nulls = dense_numerator(t, model, draws, nulls, shift)
        assert_within_pruning_bound(over_all, want_all, model.p)
        if with_nulls:
            assert_within_pruning_bound(over_nulls, want_nulls, model.p)
        else:
            assert over_nulls is None

    @pytest.mark.parametrize("t", [1e-12, 0.005])
    def test_edge_cases_agree_with_the_dense_formula(self, t):
        model = steep_model(p=200, capped=4)
        draws = standard_factor_draws(model.k, 50, 2)
        empty = np.zeros(0, dtype=np.intp)
        over_all, over_nulls = numerator_over_draws(t, model, draws, nulls=empty)
        assert_within_pruning_bound(over_all, dense_numerator(t, model, draws)[0], model.p)
        assert np.all(over_nulls == 0.0)
        (one,), _ = numerator_over_draws(t, model, draws[:1])
        assert_within_pruning_bound(one, dense_numerator(t, model, draws[:1])[0][0], model.p)
        # Nulls all capped: Phi(a_low z) underflows, so no term may be skipped.
        capped = np.arange(4)
        _, over_capped = numerator_over_draws(t, model, draws, nulls=capped)
        assert_within_pruning_bound(over_capped, dense_numerator(t, model, draws, capped)[1], model.p)
        no_factors = FactorModel(
            p=200, k=0, loadings=np.zeros((200, 0)), a=model.a, eigenvalues=np.ones(200), degenerate_rows=capped
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

    def test_matches_the_masked_formula(self):
        # From a tenth of the block above the cut-off to nine tenths of it.
        rng = np.random.default_rng(3)
        for share in (0.1, 0.5, 0.9):
            args = 5.0 * rng.standard_normal((7, 50))
            cut = float(np.quantile(args, 1.0 - share))
            got = args.copy()
            _cdf_above(got, cut)
            np.testing.assert_array_equal(got, np.where(args > cut, norm_cdf(args), 0.0))

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
        # Without the row of the smallest a, the nulls give a lower cut-off.
        nulls = np.setdiff1d(np.arange(model.p), [np.argmin(model.a)]) if with_nulls else None
        numerator_over_draws(t, model, draws, nulls=nulls)
        assert sum(seen) < 0.2 * 2 * n * model.p
        z_half = norm_quantile(0.5 * t)
        a_low = np.min(model.a if nulls is None else model.a[nulls])
        cut = norm_quantile(2.0**-54 * norm_cdf(a_low * z_half) / (2 * model.p))
        size = np.abs(draws @ model.loadings.T)
        above = np.count_nonzero((size + z_half) * model.a > cut) + np.count_nonzero((z_half - size) * model.a > cut)
        assert sum(seen) == 1 + above  # and one scalar call for the cut-off itself
