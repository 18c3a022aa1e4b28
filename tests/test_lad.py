import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import pfa.lad
from pfa.factors import FactorModel, build_factor_model, numerator_over_draws
from pfa.gauss import two_sided_pvalue
from pfa.harness import ExperimentConfig, _draw_statistics, prepare_scenario
from pfa.lad import (
    RankDeficientError,
    ZeroEigenvalueError,
    lad_regress,
    ls_regress,
    misspecification_bound,
    select_calibration_set,
)
from pfa.linalg import equal_correlation, spectral_decompose
from pfa.simulate import Scenario


def l1_objective(design, z, beta):
    return float(np.sum(np.abs(z - design @ beta)))


def grid_search_oracle(design, z, center, half_width=2.5):
    """Coarse-to-fine 2-d grid minimization of the L1 objective."""
    best = np.asarray(center, dtype=float)
    step = 0.1
    while step > 2e-5:
        offsets = np.arange(-25, 26) * step
        grid = np.stack(
            np.meshgrid(best[0] + offsets, best[1] + offsets), axis=-1
        ).reshape(-1, 2)
        objectives = np.sum(np.abs(z[None, :] - grid @ design.T), axis=1)
        best = grid[int(np.argmin(objectives))]
        step /= 5.0
    del half_width
    return best


class TestSelectCalibrationSet:
    def test_smallest_half(self):
        z = np.array([3.0, -0.1, 0.5, -2.0])
        cal = select_calibration_set(z, 0.5)
        np.testing.assert_array_equal(cal, [1, 2])

    def test_full_fraction(self):
        cal = select_calibration_set(np.arange(5.0), 1.0)
        np.testing.assert_array_equal(cal, np.arange(5))

    def test_default_fraction_size(self):
        cal = select_calibration_set(np.random.default_rng(0).standard_normal(1000), 0.75)
        assert cal.size == 750

    def test_rounding_half_up(self):
        cal = select_calibration_set(np.array([1.0, 2.0]), 0.75)  # 1.5 rounds to 2
        assert cal.size == 2

    def test_ties_broken_by_lower_index(self):
        z = np.array([1.0, -1.0, 1.0, 0.5])
        cal = select_calibration_set(z, 0.5)
        np.testing.assert_array_equal(cal, [0, 3])

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            select_calibration_set(np.array([1.0]), 0.2)

    def test_fraction_domain(self):
        with pytest.raises(ValueError):
            select_calibration_set(np.ones(3), 0.0)
        with pytest.raises(ValueError):
            select_calibration_set(np.ones(3), 1.1)


class TestLadRegress:
    def test_uniform_column_is_median(self):
        z = np.array([1.0, 3.0, -2.0, 0.5, 10.0])
        fit = lad_regress(np.full((5, 1), 2.0), z)
        assert fit.w_hat[0] == pytest.approx(np.median(z) / 2.0, abs=1e-12)
        assert fit.converged

    def test_even_count_median_interval(self):
        z = np.array([0.0, 1.0, 2.0, 5.0])
        design = np.ones((4, 1))
        fit = lad_regress(design, z)
        # any point of the median interval is optimal; compare objectives
        assert fit.objective == pytest.approx(l1_objective(design, z, np.array([np.median(z)])))
        assert 1.0 <= fit.w_hat[0] <= 2.0

    def test_exact_fit(self):
        rng = np.random.default_rng(1)
        design = rng.standard_normal((40, 3))
        w0 = np.array([1.5, -0.7, 0.2])
        fit = lad_regress(design, design @ w0)
        np.testing.assert_allclose(fit.w_hat, w0, atol=1e-9)
        assert fit.objective <= 1e-9
        assert fit.converged

    def test_degenerate_exact_fit_is_certified_without_pivots(self):
        # Most rows fitted exactly: the basis alone cannot certify, the
        # exactly fitted rows together do.
        rng = np.random.default_rng(2)
        design = rng.standard_normal((300, 60))
        w0 = rng.standard_normal(60)
        z = design @ w0
        z[:3] += np.array([2.0, -1.5, 3.0])
        fit = lad_regress(design, z)
        assert fit.converged
        assert fit.iterations == pfa.lad._IRLS_STEPS
        np.testing.assert_allclose(fit.w_hat, w0, atol=1e-9)
        assert fit.objective == pytest.approx(6.5, rel=1e-9)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(5):
            design = rng.standard_normal((50, 2))
            w0 = rng.uniform(-1.5, 1.5, size=2)
            z = design @ w0 + rng.laplace(scale=0.4, size=50)
            fit = lad_regress(design, z)
            start, *_ = np.linalg.lstsq(design, z, rcond=None)
            oracle = grid_search_oracle(design, z, start)
            np.testing.assert_allclose(fit.w_hat, oracle, atol=5e-3)

    def test_objective_never_above_least_squares(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = int(rng.integers(8, 60))
            k = int(rng.integers(1, 5))
            design = rng.standard_normal((m, k))
            z = rng.standard_normal(m) * 3.0
            fit = lad_regress(design, z)
            ls, *_ = np.linalg.lstsq(design, z, rcond=None)
            assert fit.objective <= l1_objective(design, z, ls) + 1e-9
            assert fit.objective <= l1_objective(design, z, np.zeros(k)) + 1e-9

    def test_subgradient_certificate_on_fit(self):
        rng = np.random.default_rng(4)
        design = rng.standard_normal((60, 3))
        z = design @ np.array([0.5, 2.0, -1.0]) + rng.standard_normal(60)
        fit = lad_regress(design, z)
        residual = z - design @ fit.w_hat
        zero = np.abs(residual) <= 1e-10 * max(1.0, np.max(np.abs(z)))
        signs = np.sign(residual)
        signs[zero] = 0.0
        gradient = design.T @ signs
        slack = np.sum(np.abs(design[zero]), axis=0) + 1e-8 * np.sum(np.abs(design), axis=0)
        assert np.all(np.abs(gradient) <= slack)
        assert fit.converged

    def test_rank_deficient_rejected(self):
        design = np.ones((10, 2))
        with pytest.raises(RankDeficientError):
            lad_regress(design, np.arange(10.0))

    def test_nearly_collinear_column_rejected(self):
        rng = np.random.default_rng(5)
        design = rng.standard_normal((40, 4))
        design[:, 3] = design[:, 1] + 1e-14 * rng.standard_normal(40)
        singular = np.linalg.svd(design, compute_uv=False)
        assert singular[-1] / singular[0] < 1e-13
        assert np.linalg.matrix_rank(design) == 3
        with pytest.raises(RankDeficientError):
            lad_regress(design, rng.standard_normal(40))

    def test_well_conditioned_design_skips_the_svd_rank_test(self, monkeypatch):
        rng = np.random.default_rng(6)
        design, z = rng.standard_normal((60, 5)), rng.standard_normal(60)
        expected = lad_regress(design, z)

        def no_svd(*args, **kwargs):
            raise AssertionError("matrix_rank called on a well-conditioned design")

        monkeypatch.setattr(np.linalg, "matrix_rank", no_svd)
        fit = lad_regress(design, z)
        np.testing.assert_array_equal(fit.w_hat, expected.w_hat)
        assert fit.converged

    def test_shape_preconditions(self):
        with pytest.raises(ValueError):
            lad_regress(np.ones((1, 2)), np.ones(1))
        with pytest.raises(ValueError):
            lad_regress(np.ones((3, 0)), np.ones(3))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=25))
    def test_location_fit_matches_median_objective(self, values):
        z = np.asarray(values)
        design = np.ones((z.size, 1))
        fit = lad_regress(design, z)
        target = l1_objective(design, z, np.array([np.median(z)]))
        assert fit.objective <= target + 1e-9 * (1.0 + abs(target))


def highs_objective(design, z):
    """L1 objective at the HiGHS solution of min 1'(r+ + r-) s.t. Xw + r+ - r- = z."""
    m, k = design.shape
    result = linprog(
        np.concatenate([np.zeros(k), np.ones(2 * m)]),
        A_eq=np.hstack([design, np.eye(m), -np.eye(m)]),
        b_eq=z,
        bounds=[(None, None)] * k + [(0.0, None)] * (2 * m),
        method="highs",
    )
    assert result.status == 0, result.message
    return l1_objective(design, z, result.x[:k])


def random_instance(seed):
    """A small LAD instance; every third one is integer-valued, with ties."""
    rng = np.random.default_rng(seed)
    m, k = int(rng.integers(8, 80)), int(rng.integers(1, 7))
    if seed % 3 == 0:
        return rng.integers(-2, 3, size=(m, k)).astype(float), rng.integers(-3, 4, size=m).astype(float)
    design = rng.standard_normal((m, k))
    return design, design @ rng.standard_normal(k) + rng.standard_cauchy(m)


def repeated_rows_instance():
    """The two smallest residuals of the start sit on one repeated row."""
    design = np.vstack([np.tile([1.0, 0.0], (6, 1)), np.tile([0.0, 1.0], (5, 1)), [[1.0, 1.0], [1.0, 2.0], [2.0, 1.0]]])
    return design, np.concatenate([np.zeros(11), [5.0, 7.0, 6.0]])


def scenario_instances():
    """Calibration-set fits of three replications of a k = 91 scenario."""
    config = ExperimentConfig(
        scenario=Scenario(kind="two_factor", p=1000, n=100), t_grid=(0.01,), n_reps=3, seed=7, epsilon=0.01
    )
    state = prepare_scenario(config)
    _, statistics = next(_draw_statistics(config, state))
    for z in statistics:
        rows = select_calibration_set(z, config.calibration_fraction)
        yield state.model.loadings[rows], z[rows]


class TestLadMatchesLinearProgram:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_instances(self, seed):
        self._check(*random_instance(seed))

    def test_repeated_rows(self):
        self._check(*repeated_rows_instance())

    def test_scenario_calibration_fits(self):
        for design, z in scenario_instances():
            assert design.shape == (750, 91)
            self._check(design, z)

    def test_pivot_cap_returns_best_vertex_uncertified(self, monkeypatch):
        design, z = random_instance(1)
        optimum = lad_regress(design, z)
        monkeypatch.setattr(pfa.lad, "_PIVOTS_PER_FACTOR", 0)
        capped = lad_regress(design, z)
        assert optimum.iterations > capped.iterations
        assert not capped.converged
        assert capped.objective == pytest.approx(l1_objective(design, z, capped.w_hat), rel=1e-12)
        assert capped.objective > optimum.objective

    @staticmethod
    def _check(design, z):
        fit = lad_regress(design, z)
        assert fit.converged
        assert fit.objective <= highs_objective(design, z) * (1.0 + 1e-9)


class TestLsRegress:
    def test_exact_recovery(self):
        system = spectral_decompose(equal_correlation(100, 0.4))
        model = build_factor_model(system, 3)
        w0 = np.array([0.5, -2.0, 1.0])
        np.testing.assert_allclose(ls_regress(model, model.loadings @ w0), w0, atol=1e-10)

    def test_single_direction(self):
        system = spectral_decompose(equal_correlation(50, 0.4))
        model = build_factor_model(system, 3)
        z = system.vectors[:, 0] * np.sqrt(system.values[0])
        np.testing.assert_allclose(ls_regress(model, z), [1.0, 0.0, 0.0], atol=1e-10)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(5)
        system = spectral_decompose(equal_correlation(200, 0.3))
        model = build_factor_model(system, 3)
        z = rng.standard_normal(200)
        direct = ls_regress(model, z)
        design = model.loadings
        generic = np.linalg.solve(design.T @ design, design.T @ z)
        np.testing.assert_allclose(direct, generic, atol=1e-10)

    def test_zero_eigenvalue_rejected(self):
        from pfa.linalg import EigenSystem

        system = EigenSystem(values=np.array([2.0, 0.0]), vectors=np.eye(2))
        model = build_factor_model(system, 2)
        with pytest.raises(ZeroEigenvalueError):
            ls_regress(model, np.ones(2))


class TestMisspecificationBound:
    def test_zero_shift(self):
        system = spectral_decompose(equal_correlation(20, 0.5))
        model = build_factor_model(system, 2)
        assert misspecification_bound(model, np.zeros(20)) == 0.0

    def test_single_factor_value(self):
        system = spectral_decompose(equal_correlation(2000, 0.5))
        model = build_factor_model(system, 1)
        mu = np.zeros(2000)
        mu[:4] = 5.0  # norm 10
        assert misspecification_bound(model, mu) == pytest.approx(10.0 / np.sqrt(1000.5), rel=1e-12)

    def test_bound_dominates_actual_shift_bias(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            p = int(rng.integers(10, 60))
            base = rng.standard_normal((2 * p, p))
            centered = base - base.mean(axis=0)
            sds = centered.std(axis=0, ddof=1)
            standardized = centered / sds
            entries = standardized.T @ standardized / (2 * p - 1)
            entries = (entries + entries.T) / 2.0
            np.fill_diagonal(entries, 1.0)
            from pfa.linalg import CorrelationMatrix

            system = spectral_decompose(CorrelationMatrix.from_entries(entries))
            k = int(rng.integers(1, min(5, p)))
            model = build_factor_model(system, k)
            mu = np.zeros(p)
            n_signals = int(rng.integers(1, p // 2 + 1))
            mu[:n_signals] = rng.uniform(-6.0, 6.0, size=n_signals)
            noise = rng.standard_normal(p)
            with_shift = ls_regress(model, mu + noise)
            without_shift = ls_regress(model, noise)
            gap = np.linalg.norm(with_shift - without_shift)
            assert gap <= misspecification_bound(model, mu) + 1e-9


def _two_factor_rows(rng, p):
    """Exact two-factor rows: unit-variance loadings plus independent noise scale."""
    coeffs = rng.uniform(-1.0, 1.0, size=(p, 2))
    total = np.sqrt(1.0 + np.sum(coeffs**2, axis=1))
    loadings = coeffs / total[:, None]
    residual_sd = 1.0 / total
    return loadings, residual_sd


def test_estimation_error_shrinks_with_more_rows():
    # Fit-error consistency carried through to the FDP scale: quadrupling the
    # usable rows should roughly halve both the factor-fit error and the
    # induced estimate error.
    rng = np.random.default_rng(42)
    p, p1, t = 4000, 100, 0.01
    loadings, residual_sd = _two_factor_rows(rng, p)
    mu = np.zeros(p)
    mu[p - p1 :] = 6.0
    model = FactorModel(
        p=p,
        k=2,
        loadings=loadings,
        a=1.0 / residual_sd,
        eigenvalues=np.ones(p),
        degenerate_rows=np.zeros(0, dtype=np.intp),
    )
    gaps = {}
    fit_errors = {}
    for m in (500, 2000):
        gap = np.empty(200)
        err = np.empty(200)
        for rep in range(200):
            w = rng.standard_normal(2)
            z = mu + loadings @ w + residual_sd * rng.standard_normal(p)
            fit = lad_regress(loadings[:m], z[:m])
            err[rep] = np.linalg.norm(fit.w_hat - w)
            rejected = int(np.sum(two_sided_pvalue(z) <= t))
            numerator_hat, numerator_true = numerator_over_draws(t, model, np.stack([fit.w_hat, w]))
            denom = max(rejected, 1)
            gap[rep] = abs(min(numerator_hat, denom) - min(numerator_true, denom)) / denom
        gaps[m] = float(np.median(gap))
        fit_errors[m] = float(np.median(err))
    assert fit_errors[2000] <= 0.55 * fit_errors[500]
    assert gaps[2000] <= 0.65 * gaps[500]
