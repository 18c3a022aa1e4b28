import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtri

from pfa.factors import build_factor_model, standard_factor_draws
from pfa.fdr import (
    UnreachableAlphaError,
    approx_fdr,
    approx_fdr_curve,
    bh_procedure,
    efron_estimate,
    solve_threshold,
    storey_estimate,
    storey_procedure,
)
from pfa.gauss import norm_pdf, norm_quantile, two_sided_pvalue
from pfa.linalg import equal_correlation, spectral_decompose


def model_with_k(p, rho, k):
    return build_factor_model(spectral_decompose(equal_correlation(p, rho)), k)


def bh_exhaustive_oracle(pvalues, alpha):
    """Scan every cutoff: the largest order statistic passing its own bar."""
    p = len(pvalues)
    ordered = np.sort(pvalues)
    k_hat = 0
    for i in range(1, p + 1):
        if ordered[i - 1] <= i * alpha / p:
            k_hat = i
    if k_hat == 0:
        return np.empty(0, dtype=np.intp)
    return np.flatnonzero(pvalues <= k_hat * alpha / p)


def storey_exhaustive_oracle(pvalues, alpha, lambda_param):
    """Scan every cutoff with the capped null count p0 = #{P > lambda} / (1 - lambda)."""
    p = len(pvalues)
    p0 = min(sum(value > lambda_param for value in pvalues) / (1.0 - lambda_param), p)
    ordered = np.sort(pvalues)
    cutoff = None
    for i in range(1, p + 1):
        if p0 == 0 or ordered[i - 1] <= i * alpha / p0:
            cutoff = ordered[i - 1]
    if cutoff is None:
        return np.empty(0, dtype=np.intp)
    return np.flatnonzero(pvalues <= cutoff)


def assert_step_up_form(rejected, pvalues):
    """A step-up result: a sorted intp array of exactly the p-values at or below its largest rejected one."""
    assert rejected.dtype == np.intp and rejected.ndim == 1
    cutoff = pvalues[rejected].max() if rejected.size else -np.inf
    np.testing.assert_array_equal(rejected, np.flatnonzero(pvalues <= cutoff))


def efron_quadrature_oracle(z, t, p0, x0):
    """Dispersion-variate estimate with the band constants by quadrature and a central difference."""

    def band_variance(total_var):
        sd = np.sqrt(total_var)
        density = lambda x: norm_pdf(x / sd) / sd
        mass, _ = quad(density, -x0, x0)
        second, _ = quad(lambda x: x * x * density(x), -x0, x0)
        return second / mass

    n_rejected = np.count_nonzero(two_sided_pvalue(z) <= t)
    v0, eps = band_variance(1.0), 1e-4
    slope = (band_variance(1.0 + eps) - band_variance(1.0 - eps)) / (2.0 * eps)
    a_hat = (np.mean(np.square(z[np.abs(z) <= x0])) - v0) / (np.sqrt(2.0) * slope)
    z_half = norm_quantile(0.5 * t)
    est_false = p0 * t * (1.0 + 2.0 * a_hat * (-z_half) * norm_pdf(z_half) / (np.sqrt(2.0) * t))
    return float(np.clip(est_false / n_rejected, 0.0, 1.0))


class TestApproxFdr:
    def test_no_factor_closed_form(self):
        model = model_with_k(2000, 0.0, 0)
        assert approx_fdr(0.001, model, 10, standard_factor_draws(0, 10, 0)) == pytest.approx(2.0 / 12.0, rel=1e-12)

    def test_no_false_nulls_gives_one(self):
        model = model_with_k(100, 0.0, 0)
        assert approx_fdr(0.01, model, 0, standard_factor_draws(0, 10, 0)) == 1.0
        factored = model_with_k(100, 0.5, 1)
        assert approx_fdr(0.01, factored, 0, standard_factor_draws(1, 500, 1)) == 1.0

    def test_deterministic_and_monotone_with_shared_draws(self):
        model = model_with_k(300, 0.5, 1)
        grid = np.logspace(-5, -0.5, 20)
        values = [approx_fdr(float(t), model, 10, standard_factor_draws(1, 2000, 11)) for t in grid]
        again = [approx_fdr(float(t), model, 10, standard_factor_draws(1, 2000, 11)) for t in grid]
        assert values == again
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_parameter_validation(self):
        model = model_with_k(10, 0.0, 0)
        draws = standard_factor_draws(0, 10, 0)
        with pytest.raises(ValueError):
            approx_fdr(0.0, model, 1, draws)
        with pytest.raises(ValueError, match=r"threshold must lie in \(0, 1\), got 0.0"):
            approx_fdr_curve((0.01, 0.0, 2.0), model, 1, draws)
        with pytest.raises(ValueError):
            approx_fdr(0.1, model, 11, draws)


_SOLVER_MODEL = model_with_k(200, 0.4, 1)


def record_threshold_batches(monkeypatch) -> list:
    """The thresholds of every approx_fdr_curve call that solve_threshold makes from now on, one list per call."""
    batches = []

    def recording_curve(thresholds, *args):
        batches.append(list(thresholds))
        return approx_fdr_curve(thresholds, *args)

    monkeypatch.setattr("pfa.fdr.approx_fdr_curve", recording_curve)
    return batches


class TestSolveThreshold:
    def test_no_factor_closed_form_inversion(self):
        model = model_with_k(2000, 0.0, 0)
        result = solve_threshold(0.15, model, 10, standard_factor_draws(0, 10, 0), tol=1e-6)
        assert result.t_star == pytest.approx(1.5 / 1700.0, rel=1e-3)
        assert abs(result.fdr_at_t - 0.15) <= 1e-6

    def test_round_trip_with_factors(self):
        model = model_with_k(400, 0.5, 1)
        draws = standard_factor_draws(1, 4000, 3)
        result = solve_threshold(0.08, model, 10, draws, tol=1e-5)
        back = approx_fdr(result.t_star, model, 10, draws)
        assert abs(back - 0.08) <= 1e-4

    def test_alpha_above_curve_raises(self):
        model = model_with_k(100, 0.0, 0)
        # FDR(0.5) = 50/(50+90) < 0.9 when p1 = 90
        with pytest.raises(UnreachableAlphaError) as info:
            solve_threshold(0.9, model, 90, standard_factor_draws(0, 10, 0))
        assert info.value.side == "high"
        assert info.value.boundary_t == 0.5

    def test_alpha_below_curve_raises(self):
        model = model_with_k(100, 0.0, 0)
        with pytest.raises(UnreachableAlphaError) as info:
            solve_threshold(1e-13, model, 1, standard_factor_draws(0, 10, 0))
        assert info.value.side == "low"

    @pytest.mark.parametrize("model_args, p1", [((2000, 0.0, 0), 10), ((400, 0.5, 1), 10), ((300, 0.3, 1), 40)])
    @pytest.mark.parametrize("alpha", [0.02, 0.08, 0.15, 0.3, 0.6])
    def test_curve_first_then_few_solver_calls(self, monkeypatch, model_args, p1, alpha):
        model = model_with_k(*model_args)
        draws = standard_factor_draws(model.k, 500, 3)
        batches = record_threshold_batches(monkeypatch)
        result = solve_threshold(alpha, model, p1, draws)
        # One sweep for the curve and the lower end, then at most three one-threshold steps.
        assert batches[0] == [*(t for t, _ in result.curve), 1e-12]
        assert all(len(batch) == 1 for batch in batches[1:]) and len(batches) <= 4
        assert sum(map(len, batches)) == result.evaluations <= 44
        assert result.converged and abs(result.fdr_at_t - alpha) <= 1e-4
        assert result.fdr_at_t == approx_fdr(result.t_star, model, p1, draws)
        assert [fdr for _, fdr in result.curve] == [approx_fdr(t, model, p1, draws) for t, _ in result.curve]

    @pytest.mark.parametrize("alpha", [0.02, 0.15, 0.6])
    def test_illinois_steps_call_approx_fdr(self, monkeypatch, alpha):
        steps = []

        def recording_fdr(t, *args):
            steps.append(t)
            return approx_fdr(t, *args)

        monkeypatch.setattr("pfa.fdr.approx_fdr", recording_fdr)
        result = solve_threshold(alpha, _SOLVER_MODEL, 10, standard_factor_draws(1, 300, 8), tol=1e-6)
        assert len(steps) == result.evaluations - 41 > 0
        assert steps[-1] == result.t_star

    @pytest.mark.parametrize("alpha, p1", [(0.9, 90), (1e-13, 1)])
    def test_unreachable_alpha_costs_one_sweep(self, monkeypatch, alpha, p1):
        batches = record_threshold_batches(monkeypatch)
        with pytest.raises(UnreachableAlphaError):
            solve_threshold(alpha, model_with_k(100, 0.0, 0), p1, standard_factor_draws(0, 10, 0))
        grid = [*np.logspace(-10, np.log10(0.5), 40)[:-1].tolist(), 0.5]
        assert batches == [[*grid, 1e-12]]

    @pytest.mark.parametrize("alpha", [1e-303, 1e-302])
    def test_zero_fdr_tail_falls_back_to_bisection(self, monkeypatch, alpha):
        # Every a_i is about 10, so the FDR is exactly 0 up to t of about 1e-9: the bracket's lower
        # logit is -inf, which puts the regula-falsi point on the bracket's end, and the step bisects.
        model = model_with_k(200, 0.99, 1)
        draws = standard_factor_draws(1, 20, 0)
        batches = record_threshold_batches(monkeypatch)
        result = solve_threshold(alpha, model, 10, draws, tol=alpha * 1e-3)
        steps = [batch[0] for batch in batches if len(batch) == 1]
        (t_low, fdr_low), (t_high, _) = next(
            pair for pair in zip(result.curve, result.curve[1:]) if pair[0][1] < alpha <= pair[1][1]
        )
        assert fdr_low == 0.0
        assert steps[0] == float(np.exp(0.5 * (np.log(t_low) + np.log(t_high))))
        assert t_low < result.t_star < t_high
        assert result.converged and abs(result.fdr_at_t - alpha) <= alpha * 1e-3
        assert result.evaluations == 44

    @settings(max_examples=40, deadline=None)
    @given(
        alpha=st.floats(min_value=0.005, max_value=0.95),
        tol=st.sampled_from([1e-3, 1e-4, 1e-6]),
    )
    def test_solution_lies_within_tol_of_alpha(self, alpha, tol):
        model = _SOLVER_MODEL
        draws = standard_factor_draws(1, 300, 8)
        try:
            result = solve_threshold(alpha, model, 10, draws, tol=tol)
        except UnreachableAlphaError:
            assert not approx_fdr(1e-12, model, 10, draws) <= alpha <= approx_fdr(0.5, model, 10, draws)
            return
        assert result.converged
        assert abs(result.fdr_at_t - alpha) <= tol
        assert 1e-12 <= result.t_star <= 0.5

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
    def test_non_positive_tolerance_rejected(self, tol):
        # A tolerance no value can meet would bisect to the interval floor.
        with pytest.raises(ValueError, match="tol must be positive"):
            solve_threshold(0.15, model_with_k(100, 0.0, 0), 10, standard_factor_draws(0, 10, 0), tol=tol)

    @pytest.mark.parametrize("k", [0, 1])
    def test_empty_draw_matrix_rejected(self, k):
        # With factors, an empty matrix would make every curve value NaN.
        with pytest.raises(ValueError, match="at least one factor draw"):
            solve_threshold(0.15, model_with_k(100, 0.5, k), 10, standard_factor_draws(k, 0, 0))


class TestBhProcedure:
    def test_hand_example(self):
        pvalues = np.array([0.02, 0.9, 0.001])
        result = bh_procedure(pvalues, 0.05)
        np.testing.assert_array_equal(result, [0, 2])
        assert_step_up_form(result, pvalues)

    def test_all_ones_rejects_nothing(self):
        result = bh_procedure(np.ones(10), 0.05)
        assert result.dtype == np.intp and result.shape == (0,)

    def test_all_zeros_rejects_everything(self):
        result = bh_procedure(np.zeros(7), 0.05)
        np.testing.assert_array_equal(result, np.arange(7))
        assert_step_up_form(result, np.zeros(7))

    def test_matches_exhaustive_oracle_on_random_inputs(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            p = int(rng.integers(1, 51))
            pvalues = rng.uniform(size=p) ** rng.uniform(0.5, 3.0)
            alpha = float(rng.uniform(0.01, 0.3))
            got = bh_procedure(pvalues, alpha)
            assert_step_up_form(got, pvalues)
            np.testing.assert_array_equal(got, bh_exhaustive_oracle(pvalues, alpha))

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=40),
        st.floats(min_value=0.01, max_value=0.5),
    )
    def test_oracle_property(self, pvalues, alpha):
        pvalues = np.asarray(pvalues)
        got = bh_procedure(pvalues, alpha)
        assert_step_up_form(got, pvalues)
        np.testing.assert_array_equal(got, bh_exhaustive_oracle(pvalues, alpha))


class TestStoreyEstimate:
    def test_cap_fires(self):
        pvalues = np.concatenate([np.full(50, 0.7), np.full(50, 0.2)])
        # 50 above lambda=0.5 -> p0_hat = 50/0.5 = 100 = p (cap); R(0.2) = 50
        assert storey_estimate(pvalues, 0.2, 0.5) == pytest.approx(100 * 0.2 / 50)

    def test_no_rejections_guard(self):
        pvalues = np.full(20, 0.9)
        expected = min(20 / 0.5, 20) * 0.001 / 1
        assert storey_estimate(pvalues, 0.001, 0.5) == pytest.approx(expected)

    def test_zero_threshold(self):
        with pytest.raises(ValueError, match=r"threshold must lie in \(0, 1\), got 0.0"):
            storey_estimate(np.random.default_rng(0).uniform(size=50), 0.0, 0.5)

    def test_a_threshold_outside_the_unit_interval_is_named(self):
        with pytest.raises(ValueError, match=r"threshold must lie in \(0, 1\), got -0.2"):
            storey_estimate(np.full(20, 0.9), np.array([0.3, -0.2, 0.0]))

    def test_lambda_domain(self):
        with pytest.raises(ValueError):
            storey_estimate(np.ones(5), 0.1, 1.0)

    def test_capped_at_one(self):
        # p0_hat = 20 and R(0.5) = 0, so p0_hat * t / (R v 1) = 10 before the cap
        assert storey_estimate(np.full(20, 0.9), 0.5) == 1.0
        assert storey_estimate(np.full(20, 0.9), np.array([0.001, 0.5])).tolist() == [20 * 0.001, 1.0]

    def test_returns_python_float(self):
        # 10 above lambda=0.5 -> p0_hat = 20 < p, so the cap does not fire
        pvalues = np.concatenate([np.full(10, 0.7), np.full(30, 0.01)])
        value = storey_estimate(pvalues, 0.05, 0.5)
        assert type(value) is float
        assert value == pytest.approx(20 * 0.05 / 30)


class TestStoreyProcedure:
    def test_matches_exhaustive_oracle_on_random_inputs(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            p = int(rng.integers(1, 51))
            pvalues = rng.uniform(size=p) ** rng.uniform(0.5, 3.0)
            alpha = float(rng.uniform(0.01, 0.3))
            lambda_param = float(rng.uniform(0.1, 0.9))
            got = storey_procedure(pvalues, alpha, lambda_param)
            assert_step_up_form(got, pvalues)
            np.testing.assert_array_equal(got, storey_exhaustive_oracle(pvalues, alpha, lambda_param))

    def test_no_threshold_qualifies(self):
        # every p-value above lambda -> p0_hat = p, and p * 0.9 / i > alpha for all i
        result = storey_procedure(np.full(10, 0.9), 0.05, 0.5)
        assert result.dtype == np.intp and result.shape == (0,)
        assert storey_exhaustive_oracle(np.full(10, 0.9), 0.05, 0.5).size == 0

    def test_underflowed_pvalues_are_rejected(self):
        pvalues = two_sided_pvalue(np.array([50.0, -45.0, 0.3, 1.2, 2.0, 0.1]))
        assert np.count_nonzero(pvalues == 0.0) == 2
        result = storey_procedure(pvalues, 0.1, 0.5)
        assert_step_up_form(result, pvalues)
        np.testing.assert_array_equal(result, storey_exhaustive_oracle(pvalues, 0.1, 0.5))
        assert {0, 1} <= set(result.tolist())

    def test_zero_null_count_rejects_everything(self):
        result = storey_procedure(np.full(5, 0.2), 0.05, 0.5)
        np.testing.assert_array_equal(result, np.arange(5))
        assert_step_up_form(result, np.full(5, 0.2))

    def test_lambda_domain(self):
        with pytest.raises(ValueError):
            storey_procedure(np.ones(5), 0.1, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=40),
        st.floats(min_value=0.01, max_value=0.5),
        st.floats(min_value=0.05, max_value=0.95),
    )
    def test_rejections_include_bh(self, pvalues, alpha, lambda_param):
        # p0_hat is capped at p, so each Storey bar alpha * i / p0_hat is at
        # least B-H's alpha * i / p
        pvalues = np.asarray(pvalues)
        bh = set(bh_procedure(pvalues, alpha).tolist())
        storey = set(storey_procedure(pvalues, alpha, lambda_param).tolist())
        assert bh <= storey

    def test_rejections_include_bh_at_exact_bh_bars(self):
        # p-values sitting exactly on B-H's bars, where rounding decides
        rng = np.random.default_rng(14)
        for _ in range(2000):
            p = int(rng.integers(1, 40))
            alpha = float(rng.uniform(0.01, 0.5))
            bars = alpha * np.arange(1, p + 1) / p
            pvalues = np.where(rng.uniform(size=p) < 0.5, bars, rng.uniform(size=p))
            bh = set(bh_procedure(pvalues, alpha).tolist())
            assert bh <= set(storey_procedure(pvalues, alpha, 0.5).tolist())


class TestEfronEstimate:
    def test_no_central_statistics_reduces_to_plain_ratio(self):
        # every |z| above x0 -> dispersion term drops out
        z = np.full(100, 5.0)
        value = efron_estimate(z, 0.01, p0=90, x0=1.0)
        assert value == pytest.approx(min(90 * 0.01 / 100, 1.0))

    def test_no_rejections(self):
        assert efron_estimate(np.zeros(50), 1e-6, p0=50) == 0.0

    def test_clipped_to_unit_interval(self):
        rng = np.random.default_rng(8)
        z = rng.standard_normal(200) * 3.0
        for t in (0.001, 0.05, 0.3):
            assert 0.0 <= efron_estimate(z, t, p0=200) <= 1.0

    def test_wide_central_band_raises_estimate(self):
        # inflate the central spread -> positive dispersion -> larger estimate
        rng = np.random.default_rng(9)
        narrow = rng.standard_normal(4000) * 0.6
        wide = rng.standard_normal(4000) * 0.95
        narrow[:20] = 9.0
        wide[:20] = 9.0
        t = 0.001
        assert efron_estimate(wide, t, p0=3980) > efron_estimate(narrow, t, p0=3980)

    @pytest.mark.parametrize("x0", [0.25, 0.5, 1.0, 2.0, 3.0])
    def test_matches_the_quadrature_oracle(self, x0):
        # 1960 null quantiles of N(0, spread^2) and 40 signals; the narrow bands clip some cases to 0 or 1
        inside = 0
        for spread in (0.98, 1.0, 1.02):
            z = np.concatenate([spread * ndtri((np.arange(1960) + 0.5) / 1960), np.full(40, 5.0)])
            for t in (0.001, 0.01, 0.05):
                expected = efron_quadrature_oracle(z, t, 1960, x0)
                inside += 0.0 < expected < 1.0
                assert efron_estimate(z, t, 1960, x0) == pytest.approx(expected, rel=1e-6)
        assert inside >= 2

    def test_x0_domain(self):
        with pytest.raises(ValueError):
            efron_estimate(np.ones(5), 0.1, 4, x0=0.0)

    def test_a_grid_equals_one_threshold_calls_bit_for_bit(self):
        # A narrow central band gives a negative dispersion that clips small thresholds to 0, a band of
        # statistics all at +-x0 a positive one that clips them to 1; t = 1e-12 rejects nothing.
        grid = np.array([1e-12, 1e-6, 1e-3, 0.01, 0.05, 0.2, 0.6])
        narrow = np.random.default_rng(10).standard_normal(2000) * 0.3
        edge = np.where(np.arange(2000) % 2 == 0, 1.0, -1.0)
        clipped = set()
        for z in (narrow, edge):
            z[:10] = 6.0
            values = efron_estimate(z, grid, p0=1990)
            assert values.tobytes() == np.array([efron_estimate(z, t, p0=1990) for t in grid]).tobytes()
            rejected = np.count_nonzero(two_sided_pvalue(z) <= grid[:, None], axis=1)
            assert rejected[0] == 0 and values[0] == 0.0
            clipped.update(float(value) for value in values[rejected > 0] if value in (0.0, 1.0))
        assert clipped == {0.0, 1.0}

    def test_scalar_thresholds_give_python_floats(self):
        z = np.concatenate([np.full(10, 6.0), np.random.default_rng(11).standard_normal(90)])
        assert type(efron_estimate(z, 0.01, p0=90)) is float
        assert type(efron_estimate(np.zeros(50), 1e-6, p0=50)) is float  # R = 0

    def test_a_threshold_outside_the_unit_interval_is_named(self):
        with pytest.raises(ValueError, match=r"threshold must lie in \(0, 1\), got 1.5"):
            efron_estimate(np.ones(5), np.array([0.01, 1.5, -0.2]), 4)


def test_independent_statistics_estimators_agree():
    # identity correlation, k = 0: the factor-adjusted estimate, Storey, and
    # the oracle p0 t / R(t) all collapse to the same ratio up to the p1
    # surrogate terms and the null-count noise.
    rng = np.random.default_rng(123)
    p, p1, t = 500, 50, 0.02
    model = model_with_k(p, 0.0, 0)
    mu = np.zeros(p)
    mu[:p1] = 5.0
    from pfa.factors import estimate_fdp

    for _ in range(20):
        z = mu + rng.standard_normal(p)
        pvalues = two_sided_pvalue(z)
        rejected = int(np.sum(pvalues <= t))
        if rejected == 0:
            continue
        oracle = (p - p1) * t / rejected
        tolerance = 2.0 * p1 * t / rejected
        adjusted = estimate_fdp(t, z, model, np.zeros(0)).fdp
        storey = storey_estimate(pvalues, t, 0.5)
        assert abs(adjusted - oracle) <= tolerance
        assert abs(storey - oracle) <= tolerance
