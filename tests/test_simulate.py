import numpy as np
import pytest

from pfa.gauss import two_sided_pvalue
from pfa.harness import variance_study
from pfa.linalg import spectral_decompose
from pfa.simulate import (
    ConstantColumnError,
    Scenario,
    generate_design,
    realized_counts,
    sample_correlation,
)


def two_pass_correlation_oracle(design):
    """Textbook two-pass pairwise correlation."""
    n, p = design.shape
    means = design.mean(axis=0)
    out = np.eye(p)
    for i in range(p):
        for j in range(i + 1, p):
            xi = design[:, i] - means[i]
            xj = design[:, j] - means[j]
            out[i, j] = out[j, i] = np.sum(xi * xj) / np.sqrt(np.sum(xi**2) * np.sum(xj**2))
    return out


class TestScenario:
    def test_round_trip(self):
        scenario = Scenario(kind="two_factor", p=500, n=80, p1=25, beta=0.8, sigma=1.5)
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_from_dict_names_unknown_and_missing_keys(self):
        with pytest.raises(ValueError, match="unknown scenario key 'rh0'"):
            Scenario.from_dict({"kind": "equal_correlation", "rh0": 0.3})
        with pytest.raises(ValueError, match="scenario is missing required key 'kind'"):
            Scenario.from_dict({"p": 100})
        with pytest.raises(ValueError, match="scenario must be a JSON object"):
            Scenario.from_dict("two_factor")

    def test_validation(self):
        with pytest.raises(ValueError):
            Scenario(kind="unknown")
        with pytest.raises(ValueError):
            Scenario(kind="two_factor", p1=3000)
        with pytest.raises(ValueError):
            Scenario(kind="two_factor", n=1)
        with pytest.raises(ValueError):
            Scenario(kind="two_factor", sigma=0.0)
        with pytest.raises(ValueError):
            Scenario(kind="equal_correlation", rho=1.0)


class TestGenerateDesign:
    def test_zero_rho_is_iid_standard_normal(self):
        rng = np.random.default_rng(0)
        design = generate_design(Scenario(kind="equal_correlation", p=400, n=250, rho=0.0), rng)
        assert design.shape == (250, 400)
        flat = design.ravel()
        assert abs(flat.mean()) < 4.0 / np.sqrt(flat.size)
        assert abs(flat.std() - 1.0) < 0.02
        corr = np.corrcoef(design[:, :10].T)
        off = corr[np.triu_indices(10, 1)]
        assert np.max(np.abs(off)) < 0.35

    def test_equal_rho_population_correlation(self):
        rng = np.random.default_rng(1)
        design = generate_design(
            Scenario(kind="equal_correlation", p=6, n=120000, p1=0, rho=0.5), rng
        )
        corr = np.corrcoef(design.T)
        off = corr[np.triu_indices(6, 1)]
        assert np.allclose(off, 0.5, atol=0.02)

    def test_dependent_block_unit_variance(self):
        rng = np.random.default_rng(2)
        scenario = Scenario(kind="fan_song", p=2000, n=4000)
        design = generate_design(scenario, rng)
        tail_sds = design[:, 1900:].std(axis=0, ddof=1)
        # population variance of each dependent column is 10/25 + (1 - 10/25) = 1
        assert np.all(np.abs(tail_sds - 1.0) < 3.0 * 1.0 / np.sqrt(2 * 4000))

    def test_dependent_block_scales_with_p(self):
        rng = np.random.default_rng(3)
        design = generate_design(Scenario(kind="fan_song", p=400, n=30), rng)
        assert design.shape == (30, 400)
        rng2 = np.random.default_rng(4)
        corr = np.corrcoef(generate_design(Scenario(kind="fan_song", p=400, n=5000), rng2).T)
        # last 5% of columns correlate with the first column; the middle does not
        assert abs(corr[0, 395]) > 0.1
        assert abs(corr[0, 200]) < 0.06

    def test_fan_song_tiny_p_has_no_dependent_block(self):
        # round(0.05 * 10) = 0 dependent columns: plain iid design
        design = generate_design(
            Scenario(kind="fan_song", p=10, n=30), np.random.default_rng(0)
        )
        assert design.shape == (30, 10)
        assert np.all(np.isfinite(design))

    def test_cauchy_heavy_tails(self):
        rng = np.random.default_rng(5)
        design = generate_design(Scenario(kind="independent_cauchy", p=50, n=2000), rng)
        # Cauchy inter-quartile range is 2 (quartiles at +/- tan(pi/4))
        iqr = np.quantile(design.ravel(), 0.75) - np.quantile(design.ravel(), 0.25)
        assert abs(iqr - 2.0) < 0.1
        assert np.max(np.abs(design)) > 50.0

    def test_two_factor_population_covariance(self):
        rng = np.random.default_rng(6)
        scenario = Scenario(kind="two_factor", p=5, n=200000, p1=0)
        design = generate_design(scenario, rng)
        cov = np.cov(design.T)
        # covariance between columns i != j is rho_i . rho_j; recover the
        # coefficient Gram from the diagonal: var = |rho_i|^2 + 1
        gram_diag = np.diag(cov) - 1.0
        assert np.all(gram_diag > -0.05)
        for i in range(5):
            for j in range(i + 1, 5):
                assert abs(cov[i, j]) <= np.sqrt(max(gram_diag[i], 0) * max(gram_diag[j], 0)) + 0.05

    def test_three_factor_and_nonlinear_shapes(self):
        rng = np.random.default_rng(7)
        for kind in ("three_factor", "nonlinear_factor"):
            design = generate_design(Scenario(kind=kind, p=40, n=25), rng)
            assert design.shape == (25, 40)
            assert np.all(np.isfinite(design))

    def test_sample_top_eigenvalue_approaches_population(self):
        # population: 1 + (p-1)*rho; the sample value drifts toward it as n grows
        rng = np.random.default_rng(17)
        p, rho = 100, 0.5
        population = 1.0 + (p - 1) * rho
        gaps = []
        for n in (50, 200, 800):
            scenario = Scenario(kind="equal_correlation", p=p, n=n, p1=0, rho=rho)
            sigma, _ = sample_correlation(generate_design(scenario, rng))
            top = spectral_decompose(sigma).values[0]
            gaps.append(abs(top - population))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 0.05 * population


class TestSampleCorrelation:
    def test_identical_columns(self):
        rng = np.random.default_rng(8)
        col = rng.standard_normal(30)
        design = np.stack([col, col, rng.standard_normal(30)], axis=1)
        sigma, _ = sample_correlation(design)
        assert sigma.entries[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_two_points_are_collinear(self):
        rng = np.random.default_rng(9)
        sigma, _ = sample_correlation(rng.standard_normal((2, 6)))
        assert np.allclose(np.abs(sigma.entries), 1.0, atol=1e-10)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(10)
        design = rng.standard_normal((100, 5)) * rng.uniform(0.5, 3.0, size=5) + rng.uniform(
            -2, 2, size=5
        )
        sigma, sds = sample_correlation(design)
        np.testing.assert_allclose(sigma.entries, two_pass_correlation_oracle(design), atol=1e-12)
        np.testing.assert_allclose(sds, design.std(axis=0, ddof=1), atol=1e-12)

    def test_constant_column_rejected(self):
        design = np.ones((10, 3))
        design[:, 0] = np.arange(10.0)
        with pytest.raises(ConstantColumnError):
            sample_correlation(design)


class TestRealizedCounts:
    def test_threshold_one_rejects_all(self):
        z = np.array([0.0, 1.0, -2.0, 8.0])
        v, s, r = realized_counts(z, np.arange(4), 1.0)
        assert (v, s, r) == (4, 0, 4)

    def test_threshold_zero_boundary(self):
        z = np.array([0.5, 50.0])  # p-value of 50 underflows to exactly 0
        v, s, r = realized_counts(z, np.array([0]), 0.0)
        assert r == 1 and s == 1 and v == 0

    def test_identity_v_plus_s(self):
        rng = np.random.default_rng(15)
        z = rng.standard_normal(300) * 2.0
        nulls = np.arange(200)
        for t in (0.001, 0.05, 0.5):
            v, s, r = realized_counts(z, nulls, t)
            assert v + s == r
            pvals = two_sided_pvalue(z)
            assert r == int(np.sum(pvals <= t))
            assert v == int(np.sum(pvals[:200] <= t))

    def test_batch_counts_match_per_row_counts(self):
        rng = np.random.default_rng(17)
        batch = rng.standard_normal((6, 40)) * 2.0
        nulls = np.arange(5, 40)
        v, s, r = realized_counts(batch, nulls, 0.05)
        assert v.shape == s.shape == r.shape == (6,)
        per_row = np.array([realized_counts(z, nulls, 0.05) for z in batch])
        np.testing.assert_array_equal(np.stack([v, s, r], axis=1), per_row)

    def test_mean_false_count_matches_null_level(self):
        # variance_study counts false discoveries with realized_counts over
        # batched draws from N(mu, Sigma)
        scenario = Scenario(kind="equal_correlation", p=300, n=60, p1=30, rho=0.5)
        t, n_reps = 0.05, 800
        result = variance_study(scenario, t=t, n_reps=n_reps, n_mc=200, seed=16)
        expected = 270 * t
        stderr = np.sqrt(result["var_V_empirical"] / n_reps)
        assert abs(result["mean_V"] - expected) <= 3.0 * stderr
