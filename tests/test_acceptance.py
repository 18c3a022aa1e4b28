"""Acceptance suite: one check (and one printed pass/fail line) per criterion.

The long simulation studies (variance agreement, FDR comparison, estimator
relative error, FDP-distribution convergence) are marked slow; deselect with
`-m "not slow"` for the fast tier.
"""

import numpy as np
import pytest

from pfa.factors import (
    FactorModel,
    build_factor_model,
    fdp_limit,
)
from pfa.fdr import bh_procedure
from pfa.gauss import norm_cdf, norm_quantile
from pfa.harness import (
    ExperimentConfig,
    run_convergence,
    run_experiment,
    substream,
    variance_study,
)
from pfa.lad import lad_regress, ls_regress, misspecification_bound
from pfa.linalg import spectral_decompose
from pfa.simulate import SCENARIO_KINDS, Scenario, generate_design, sample_correlation


def report(name: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'} ({detail})")


# --------------------------------------------------------------------------
# Criterion 1: variance of the false-discovery count matches the
# factor-formula Monte-Carlo value and the reference magnitude.
#
# Replication/draw counts are raised far above 2000: the count numerator has
# kurtosis ~10^3 under strong dependence, so a 2000-rep variance estimate
# carries ~70% relative error; the counts below bring the estimator standard
# errors inside the stated tolerance bands (see "Acceptance-suite notes" in
# CHANGES.md).
# --------------------------------------------------------------------------

VARIANCE_ROWS = [
    # (kind, reference, rel. band, n_reps, n_mc, seed)
    ("equal_correlation", 180.97, 0.15, 250_000, 250_000, 34),
    ("fan_song", 5.25, 0.20, 30_000, 100_000, 20260811),
    ("two_factor", 53.95, 0.20, 150_000, 150_000, 56),
]


@pytest.mark.slow
@pytest.mark.parametrize("kind, reference, band, n_reps, n_mc, seed", VARIANCE_ROWS)
def test_criterion_1_false_count_variance(kind, reference, band, n_reps, n_mc, seed):
    scenario = Scenario(kind=kind, p=2000, n=100, p1=10, beta=1.0, sigma=2.0)
    result = variance_study(scenario, t=0.001, n_reps=n_reps, n_mc=n_mc, seed=seed)
    empirical = result["var_V_empirical"]
    formula = result["var_numerator_all"]
    in_band_emp = abs(empirical - reference) <= band * reference
    in_band_formula = abs(formula - reference) <= band * reference
    close = abs(empirical - formula) <= 0.10 * formula
    passed = in_band_emp and in_band_formula and close
    report(
        f"criterion-1[{kind}]",
        passed,
        f"var(V)={empirical:.2f}, formula={formula:.2f}, reference={reference}",
    )
    assert in_band_emp, f"empirical var(V) {empirical:.2f} outside {reference} +- {band:.0%}"
    assert in_band_formula, f"formula variance {formula:.2f} outside {reference} +- {band:.0%}"
    assert close, f"empirical {empirical:.2f} vs formula {formula:.2f} differ by more than 10%"


# --------------------------------------------------------------------------
# Criterion 2: FDR comparison at t = 0.001 (equal correlation, n = 200).
# --------------------------------------------------------------------------

FDR_SEED = 20260811
FDR_ALPHA = 0.0667  # step-up baselines run at the row's true-FDR level


@pytest.fixture(scope="module")
def fdr_comparison_output():
    config = ExperimentConfig(
        scenario=Scenario(kind="equal_correlation", p=2000, n=200, p1=10, beta=1.0, sigma=2.0),
        t_grid=(0.001,),
        n_reps=2000,
        seed=FDR_SEED,
        n_mc=10000,
        with_estimators=False,
        control_alpha=FDR_ALPHA,
    )
    return run_experiment(config).aggregates["per_t"][repr(0.001)]


@pytest.mark.slow
def test_criterion_2_true_fdr(fdr_comparison_output):
    value = fdr_comparison_output["mean_fdp_true"]
    passed = abs(value - 0.0667) <= 0.015
    report("criterion-2[true-FDR]", passed, f"mean FDP={value:.4f} vs 0.0667")
    assert passed


@pytest.mark.slow
def test_criterion_2_factor_adjusted_fdr(fdr_comparison_output):
    value = fdr_comparison_output["approx_fdr"]
    passed = abs(value - 0.0661) <= 0.015
    report("criterion-2[factor-FDR]", passed, f"approx FDR={value:.4f} vs 0.0661")
    assert passed


@pytest.mark.slow
def test_criterion_2_bh_realized_fdr(fdr_comparison_output):
    value = fdr_comparison_output["mean_fdp_bh_proc"]
    passed = abs(value - 0.0390) <= 0.015
    report("criterion-2[B-H]", passed, f"B-H realized FDR={value:.4f} vs 0.0390")
    assert passed


@pytest.mark.slow
def test_criterion_2_storey_realized_fdr(fdr_comparison_output):
    # Known-red clause: no Storey construction derivable from the published
    # description realizes an FDR below B-H's under strong equicorrelation
    # (the lambda-based null-count estimate collapses exactly in the
    # high-common-factor replications). Every Storey variant tried, with its
    # realized FDR, is listed under "Acceptance-suite notes" in CHANGES.md.
    value = fdr_comparison_output["mean_fdp_storey_proc"]
    passed = abs(value - 0.0299) <= 0.015
    report("criterion-2[Storey]", passed, f"Storey realized FDR={value:.4f} vs 0.0299")
    assert passed, (
        f"Storey step-up realized FDR {value:.4f} cannot reach 0.0299 +- 0.015; "
        "every faithful variant is anti-conservative relative to B-H here"
    )


# --------------------------------------------------------------------------
# Criterion 3: estimator relative error across the six dependence
# structures, against the dispersion-variate baseline.
#
# epsilon = 1e-6 keeps every positive factor (k = rank of the singular
# sample correlation), the regime that reproduces the reference behavior;
# see "Acceptance-suite notes" in CHANGES.md for the 0.01 default.
# --------------------------------------------------------------------------

ESTIMATOR_SEED = 42


@pytest.mark.slow
@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_criterion_3_estimator_relative_error(kind):
    config = ExperimentConfig(
        scenario=Scenario(kind=kind, p=1000, n=100, p1=50, beta=1.0, sigma=2.0),
        t_grid=(0.005,),
        n_reps=1000,
        seed=ESTIMATOR_SEED,
        n_mc=2000,
        epsilon=1e-6,
        with_estimators=True,
    )
    summary = run_experiment(config).aggregates["per_t"][repr(0.005)]
    mean_re = summary["mean_re_pfa"]
    sd_re = summary["sd_re_pfa"]
    ratio = summary["mean_re_efron"] / mean_re
    in_band = -0.02 <= mean_re <= 0.12
    tight = sd_re < 0.30
    separated = summary["mean_re_efron"] >= 5.0 * mean_re
    passed = in_band and tight and separated
    report(
        f"criterion-3[{kind}]",
        passed,
        f"mean RE={mean_re:.4f}, SD={sd_re:.4f}, baseline ratio={ratio:.1f}x",
    )
    assert in_band, f"mean RE {mean_re:.4f} outside [-0.02, 0.12]"
    assert tight, f"SD(RE) {sd_re:.4f} not below 0.30"
    assert separated, f"baseline mean RE only {ratio:.2f}x the factor-adjusted mean RE"


# --------------------------------------------------------------------------
# Criterion 4: the empirical FDP distribution approaches its factor-driven
# limit as p grows (two-sample KS distance decreasing in p at both
# thresholds).
# --------------------------------------------------------------------------

CONVERGENCE_SEED = 11


@pytest.mark.slow
def test_criterion_4_fdp_distribution_convergence():
    summary = run_convergence(
        scenario=Scenario(kind="two_factor", p=100, n=100, p1=10, beta=1.0, sigma=2.0),
        p_grid=(100, 500, 1000),
        t_grid=(0.01, 0.001),
        n_reps=2000,
        seed=CONVERGENCE_SEED,
    )
    passed = True
    details = []
    for t_key, by_p in summary["ks"].items():
        distances = [by_p[str(p)] for p in (100, 500, 1000)]
        details.append(f"t={t_key}: " + " > ".join(f"{d:.3f}" for d in distances))
        passed = passed and distances[0] > distances[1] > distances[2]
    report("criterion-4", passed, "; ".join(details))
    assert passed, f"KS distances not decreasing in p: {summary['ks']}"


# --------------------------------------------------------------------------
# Criterion 5: the factor-fit error shrinks like the square root of the
# calibration size (median error at m=2000 at most 0.55x that at m=500).
# --------------------------------------------------------------------------

RATE_SEED = 5


def test_criterion_5_fit_error_rate_in_calibration_size():
    rng = substream(RATE_SEED, 9)
    p = 2000
    coeffs = rng.uniform(-1.0, 1.0, size=(p, 2))
    total = np.sqrt(1.0 + np.sum(coeffs**2, axis=1))
    loadings = coeffs / total[:, None]
    residual_sd = 1.0 / total
    errors = {500: [], 2000: []}
    for _ in range(200):
        w = rng.standard_normal(2)
        z = loadings @ w + residual_sd * rng.standard_normal(p)
        for m in (500, 2000):
            fit = lad_regress(loadings[:m], z[:m])
            errors[m].append(float(np.linalg.norm(fit.w_hat - w)))
    ratio = np.median(errors[2000]) / np.median(errors[500])
    passed = ratio <= 0.55
    report("criterion-5", passed, f"median error ratio (m=2000 / m=500) = {ratio:.4f}")
    assert passed, f"error ratio {ratio:.4f} above 0.55"


# --------------------------------------------------------------------------
# Criterion 6: the least-squares misspecification bound holds on every
# randomized instance (algebraic inequality; float tolerance only).
# --------------------------------------------------------------------------


def test_criterion_6_misspecification_bound_always_holds():
    rng = np.random.default_rng(606)
    holds = 0
    for _ in range(100):
        p = int(rng.integers(10, 80))
        n = int(rng.integers(p // 2 + 2, 3 * p + 2))
        design = rng.standard_normal((n, p)) * rng.uniform(0.5, 2.0, size=p)
        sigma, _ = sample_correlation(design)
        system = spectral_decompose(sigma)
        rank = int(np.sum(system.values > 1e-10))
        k = int(rng.integers(1, max(2, min(6, rank))))
        model = build_factor_model(system, k)
        mu = np.zeros(p)
        signals = int(rng.integers(1, p // 2 + 1))
        mu[:signals] = rng.uniform(-8.0, 8.0, size=signals)
        noise = rng.standard_normal(p)
        gap = np.linalg.norm(ls_regress(model, mu + noise) - ls_regress(model, noise))
        if gap <= misspecification_bound(model, mu) + 1e-9:
            holds += 1
    passed = holds == 100
    report("criterion-6", passed, f"bound held on {holds}/100 instances")
    assert passed


# --------------------------------------------------------------------------
# Criterion 7: oracle equivalences.
# --------------------------------------------------------------------------


def test_criterion_7_lad_matches_grid_oracle():
    from test_lad import grid_search_oracle

    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(20):
        design = rng.standard_normal((50, 2))
        w0 = rng.uniform(-1.5, 1.5, size=2)
        z = design @ w0 + rng.laplace(scale=0.5, size=50)
        fit = lad_regress(design, z)
        start, *_ = np.linalg.lstsq(design, z, rcond=None)
        oracle = grid_search_oracle(design, z, start)
        worst = max(worst, float(np.max(np.abs(fit.w_hat - oracle))))
    passed = worst <= 5e-3
    report("criterion-7[lad-grid]", passed, f"worst coordinate gap {worst:.2e}")
    assert passed


def test_criterion_7_bh_matches_exhaustive_scan():
    from test_fdr import bh_exhaustive_oracle

    rng = np.random.default_rng(717)
    for _ in range(100):
        p = int(rng.integers(1, 51))
        pvalues = rng.uniform(size=p) ** rng.uniform(0.5, 3.0)
        alpha = float(rng.uniform(0.01, 0.3))
        got = np.sort(bh_procedure(pvalues, alpha).indices)
        want = np.sort(bh_exhaustive_oracle(pvalues, alpha))
        np.testing.assert_array_equal(got, want)
    report("criterion-7[bh-scan]", True, "exact match on 100 instances")


def test_criterion_7_spectral_reconstruction_on_scenario_matrices():
    worst = 0.0
    for index, kind in enumerate(SCENARIO_KINDS):
        scenario = Scenario(kind=kind, p=300, n=100, p1=10)
        design = generate_design(scenario, substream(727, index))
        sigma, _ = sample_correlation(design)
        system = spectral_decompose(sigma)
        rebuilt = (system.vectors * system.values) @ system.vectors.T
        worst = max(worst, float(np.linalg.norm(rebuilt - sigma.entries)) / scenario.p)
    passed = worst <= 1e-7
    report("criterion-7[reconstruction]", passed, f"worst Frobenius gap {worst:.2e} * p")
    assert passed


def test_criterion_7_exchangeable_limit_closed_form():
    rng = np.random.default_rng(737)
    p, rho, p1 = 500, 0.5, 9
    loadings = np.full((p, 1), np.sqrt(rho))
    scale = np.full(p, 1.0 / np.sqrt(1.0 - rho))
    model = FactorModel(
        p=p,
        k=1,
        loadings=loadings,
        a=scale,
        eigenvalues=np.ones(p),
        degenerate_rows=np.zeros(0, dtype=np.intp),
    )
    mu = np.zeros(p)
    mu[:p1] = rng.uniform(1.0, 5.0, size=p1)
    nulls = np.arange(p1, p)
    d = 1.0 / np.sqrt(1.0 - rho)
    worst = 0.0
    for _ in range(50):
        t = float(rng.uniform(0.0005, 0.1))
        w = float(rng.standard_normal())
        (value,) = fdp_limit(t, model, mu, nulls, np.array([[w]]))
        z = norm_quantile(t / 2.0)
        numerator = (p - p1) * (
            norm_cdf(d * (z + np.sqrt(rho) * w)) + norm_cdf(d * (z - np.sqrt(rho) * w))
        )
        denominator = float(
            np.sum(
                norm_cdf(d * (z + np.sqrt(rho) * w + mu))
                + norm_cdf(d * (z - np.sqrt(rho) * w - mu))
            )
        )
        worst = max(worst, abs(value - numerator / denominator))
    passed = worst <= 1e-10
    report("criterion-7[closed-form]", passed, f"worst gap {worst:.2e}")
    assert passed


# --------------------------------------------------------------------------
# Criterion 8: the module invariants run in the per-module test files; the
# fast tier excludes only the slow-marked studies above.
# --------------------------------------------------------------------------


def test_criterion_8_fast_tier_configuration():
    from pathlib import Path

    here = Path(__file__).parent
    modules = {
        "test_gauss.py",
        "test_linalg.py",
        "test_factors.py",
        "test_lad.py",
        "test_fdr.py",
        "test_simulate.py",
        "test_harness.py",
        "test_cli.py",
    }
    present = {path.name for path in here.glob("test_*.py")}
    missing = modules - present
    pyproject = (here.parent / "pyproject.toml").read_text()
    marker_registered = "slow" in pyproject
    passed = not missing and marker_registered
    report("criterion-8", passed, f"invariant modules present, slow marker registered")
    assert passed, f"missing invariant modules {missing} or slow marker unregistered"
