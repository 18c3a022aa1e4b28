"""Experiment orchestration and file I/O.

One experiment fixes a scenario: a single design draw determines the known
correlation matrix, the factor model, and the mean shifts; replications
then draw fresh test statistics from N(mu, Sigma) and evaluate the realized
counts and the estimators. Every random stream is a spawn of the master
seed keyed by purpose (design, replication index, Monte-Carlo draws), so
output is bit-identical for a given config and seed.

The p x p sample correlation Sigma = X'X / (n-1) of the standardized n x p
design X has rank below n, and no harness path forms it: its spectrum comes
from a thin SVD of X, and each replication draws n standard normals g and
takes mu + X'g / sqrt(n-1), which is exactly N(mu, Sigma), at O(np) a draw.

Outputs are a per-replication CSV plus an aggregates JSON that embeds the
config, seed, and library version; the loader recomputes the record-derived
aggregates and refuses output that does not match.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np
from scipy.stats import ks_2samp

from . import __version__
from .factors import (
    FactorModel,
    build_factor_model,
    estimate_fdp,
    fdp_limit,
    numerator_over_draws,
    select_num_factors,
    standard_factor_draws,
)
from .fdr import approx_fdr, bh_procedure, efron_estimate, mean_fdr, storey_estimate, storey_procedure
from .gauss import two_sided_pvalue
from .lad import FactorFit, lad_regress, select_calibration_set
from .linalg import CorrelationMatrix, gram_spectrum, spectral_decompose
from .simulate import Scenario, check_ints, check_keys, check_reals, generate_design, real, realized_counts, standardize

__all__ = [
    "ExperimentConfig",
    "ExperimentOutput",
    "ScenarioState",
    "prepare_scenario",
    "run_experiment",
    "variance_study",
    "write_output",
    "load_output",
    "run_estimate",
    "convergence_configs",
    "run_convergence",
    "read_matrix_csv",
    "read_vector_csv",
]

# Substream namespaces under the master seed.
_NS_DESIGN = 0
_NS_REPLICATION = 1
_NS_LIMIT = 3

_HISTOGRAM_BINS = 50

RECORD_COLUMNS = (
    "rep",
    "t",
    "R",
    "V",
    "S",
    "fdp_true",
    "fdp_pfa",
    "fdp_efron",
    "fdp_storey",
    "fdp_bh_proc",
    "fdp_storey_proc",
    "lad_converged",
)

# Per-threshold aggregates of the Monte-Carlo draws; the loader recomputes all others from the records.
_MC_KEYS = ("approx_fdr", "var_numerator_all", "var_numerator_nulls")


def _check_distinct(what: str, values: tuple | list) -> None:
    repeated = [value for i, value in enumerate(values) if value in values[:i]]
    if repeated:
        raise ValueError(f"{what} repeats {repeated[0]!r}")


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator for one purpose-keyed substream of the master seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one simulation experiment needs, JSON-serializable."""

    scenario: Scenario
    t_grid: tuple[float, ...]
    n_reps: int
    seed: int
    n_mc: int = 10000
    epsilon: float = 0.01
    calibration_fraction: float = 0.75
    placement: str = "first"
    with_estimators: bool = True
    control_alpha: float | None = None
    efron_x0: float = 1.0
    storey_lambda: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "t_grid", tuple(real("t_grid entry", t) for t in self.t_grid))
        if not self.t_grid:
            raise ValueError("t_grid must not be empty")
        if any(not 0.0 < t < 1.0 for t in self.t_grid):
            raise ValueError(f"every threshold must lie in (0, 1), got {self.t_grid}")
        _check_distinct("t_grid", self.t_grid)
        check_ints(self, "n_reps", "seed", "n_mc")
        check_reals(self, "epsilon", "calibration_fraction", "control_alpha", "efron_x0", "storey_lambda")
        if not isinstance(self.with_estimators, (bool, np.bool_)):
            raise TypeError(f"with_estimators must be a boolean, got {self.with_estimators!r}")
        object.__setattr__(self, "with_estimators", bool(self.with_estimators))
        if self.n_reps < 1:
            raise ValueError(f"n_reps must be at least 1, got {self.n_reps}")
        if self.seed < 0:
            raise ValueError(f"seed must not be negative, got {self.seed}")
        if self.placement not in ("first", "random"):
            raise ValueError(f"placement must be 'first' or 'random', got {self.placement!r}")
        if self.n_mc < 2:
            raise ValueError(f"n_mc must be at least 2, got {self.n_mc}")
        if not 0.0 < self.calibration_fraction <= 1.0:
            raise ValueError(f"calibration_fraction must lie in (0, 1], got {self.calibration_fraction}")
        if not self.efron_x0 > 0.0:
            raise ValueError(f"efron_x0 must be positive, got {self.efron_x0}")
        for name in ("epsilon", "control_alpha", "storey_lambda"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {value}")

    def to_dict(self) -> dict:
        return {**asdict(self), "t_grid": list(self.t_grid)}

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        required = ("scenario", "t_grid", "n_reps", "seed")
        check_keys(data, "config", required, tuple(field.name for field in fields(cls)))
        return cls(**{**data, "scenario": Scenario.from_dict(data["scenario"])})


@dataclass(frozen=True)
class ScenarioState:
    """Per-experiment fixed state: design summary, factor model, shifts."""

    scenario: Scenario
    key: tuple[int, ...]
    x: np.ndarray  # standardized n x p design over sqrt(n-1): x'x is sigma_hat
    sds: np.ndarray
    model: FactorModel
    tail_energy: float  # Frobenius norm of sigma_hat's spectrum beyond the first k
    mu: np.ndarray
    true_nulls: np.ndarray
    false_nulls: np.ndarray

    @property
    def k(self) -> int:
        return self.model.k


@dataclass
class ExperimentOutput:
    """Per-replication records plus aggregate summaries."""

    config: ExperimentConfig
    records: list[dict]
    aggregates: dict


def prepare_scenario(config: ExperimentConfig, key: tuple[int, ...] = ()) -> ScenarioState:
    """Draw the design, build the factor model, place the false nulls.

    `key` prefixes the design and replication substreams, which sets them
    apart from those of other scenarios built under the same seed
    (run_convergence keys one per dimension).
    """
    rng = substream(config.seed, _NS_DESIGN, *key)
    standardized, sds = standardize(generate_design(config.scenario, rng))
    x = standardized / np.sqrt(config.scenario.n - 1)
    system = gram_spectrum(x)
    k = select_num_factors(system, config.epsilon)
    model = build_factor_model(system, k)
    p, p1 = config.scenario.p, config.scenario.p1
    if config.placement == "random":
        false_nulls = np.sort(rng.choice(p, size=p1, replace=False)).astype(np.intp)
    else:
        false_nulls = np.arange(p1, dtype=np.intp)
    mu = np.zeros(p)
    mu[false_nulls] = np.sqrt(config.scenario.n) * config.scenario.beta * sds[false_nulls] / config.scenario.sigma
    mask = np.ones(p, dtype=bool)
    mask[false_nulls] = False
    return ScenarioState(
        scenario=config.scenario,
        key=tuple(key),
        x=x,
        sds=sds,
        model=model,
        tail_energy=system.tail_energy(k),
        mu=mu,
        true_nulls=np.flatnonzero(mask),
        false_nulls=false_nulls,
    )


def _fit_factors(model: FactorModel, z: np.ndarray, fraction: float) -> tuple[FactorFit, int]:
    """LAD fit of the realized factors on the calibration set of z, and its size.

    With no factors no fit runs: the values are empty and the fit certified.
    """
    calibration = select_calibration_set(z, fraction)
    if model.k == 0:
        return FactorFit(w_hat=np.zeros(0), objective=0.0, iterations=0, converged=True), calibration.size
    return lad_regress(model.loadings[calibration], z[calibration]), calibration.size


def _replication_row(
    config: ExperimentConfig, state: ScenarioState, rep: int, z: np.ndarray, counts: list[list[int]]
) -> list[dict]:
    """One record per threshold; `counts` holds the replication's V, S and R lists over t_grid."""
    fit = pvalues = None
    if config.with_estimators or config.control_alpha is not None:
        pvalues = two_sided_pvalue(z)
    if config.with_estimators:
        fit, _ = _fit_factors(state.model, z, config.calibration_fraction)

    procedures = {"fdp_bh_proc": None, "fdp_storey_proc": None}
    if config.control_alpha is not None:
        alpha = config.control_alpha
        for name, rejections in (
            ("fdp_bh_proc", bh_procedure(pvalues, alpha)),
            ("fdp_storey_proc", storey_procedure(pvalues, alpha, config.storey_lambda)),
        ):
            v = int(np.count_nonzero(np.isin(rejections.indices, state.true_nulls)))
            procedures[name] = v / max(rejections.size, 1)

    rows = []
    p0 = state.scenario.p - state.scenario.p1
    for t, v, s, r in zip(config.t_grid, *counts):
        row = {
            "rep": rep,
            "t": t,
            "R": r,
            "V": v,
            "S": s,
            "fdp_true": v / max(r, 1),
            "fdp_pfa": None,
            "fdp_efron": None,
            "fdp_storey": None,
            **procedures,
            "lad_converged": None,
        }
        if config.with_estimators:
            row["fdp_pfa"] = estimate_fdp(t, z, state.model, fit.w_hat).fdp
            row["fdp_efron"] = efron_estimate(z, t, p0, config.efron_x0)
            row["fdp_storey"] = min(storey_estimate(pvalues, t, config.storey_lambda), 1.0)
            row["lad_converged"] = int(fit.converged)
        rows.append(row)
    return rows


def _draw_statistics(config: ExperimentConfig, state: ScenarioState, chunk_size: int = 256):
    """(reps, statistics) chunks of the N(mu, x'x) draws of every replication.

    Each replication takes its n standard normals g from its own substream
    and draws mu + g @ x.
    """
    for start in range(0, config.n_reps, chunk_size):
        reps = range(start, min(start + chunk_size, config.n_reps))
        noise = np.stack(
            [substream(config.seed, _NS_REPLICATION, *state.key, rep).standard_normal(state.scenario.n) for rep in reps]
        )
        statistics = noise @ state.x
        statistics += state.mu
        yield reps, statistics


def _mc_aggregates(t: float, state: ScenarioState, draws: np.ndarray) -> dict:
    """The `_MC_KEYS` at t from one numerator pass; for k = 0 exactly p t / (p t + p1), 0 and 0."""
    if state.k == 0:
        fdr = approx_fdr(t, state.model, state.scenario.p1, draws)
        return {"approx_fdr": fdr, "var_numerator_all": 0.0, "var_numerator_nulls": 0.0}
    over_all, over_nulls = numerator_over_draws(t, state.model, draws, nulls=state.true_nulls)
    return {
        "approx_fdr": mean_fdr(over_all, state.scenario.p1),
        "var_numerator_all": float(np.var(over_all, ddof=1)),
        "var_numerator_nulls": float(np.var(over_nulls, ddof=1)),
    }


def _relative_errors(estimates: np.ndarray, truths: np.ndarray) -> np.ndarray:
    out = np.zeros_like(truths)
    nonzero = truths != 0.0
    out[nonzero] = (estimates[nonzero] - truths[nonzero]) / truths[nonzero]
    return out


def _column(records: list[dict], t: float, name: str) -> np.ndarray | None:
    values = [row[name] for row in records if row["t"] == t]
    if any(value is None for value in values):
        return None
    return np.asarray(values, dtype=float)


def _aggregate_per_t(records: list[dict], t: float) -> dict:
    out: dict = {}
    v = _column(records, t, "V")
    r = _column(records, t, "R")
    fdp_true = _column(records, t, "fdp_true")
    out["mean_V"] = float(np.mean(v))
    out["var_V"] = float(np.var(v, ddof=1)) if v.size > 1 else 0.0
    out["mean_R"] = float(np.mean(r))
    out["mean_fdp_true"] = float(np.mean(fdp_true))
    out["sd_fdp_true"] = float(np.std(fdp_true, ddof=1)) if fdp_true.size > 1 else 0.0
    for name in ("fdp_pfa", "fdp_efron", "fdp_storey"):
        estimates = _column(records, t, name)
        if estimates is None:
            continue
        out[f"mean_{name}"] = float(np.mean(estimates))
        if name != "fdp_storey":
            out[f"sd_{name}"] = float(np.std(estimates, ddof=1)) if estimates.size > 1 else 0.0
            errors = _relative_errors(estimates, fdp_true)
            short = name.removeprefix("fdp_")
            out[f"mean_re_{short}"] = float(np.mean(errors))
            out[f"sd_re_{short}"] = float(np.std(errors, ddof=1)) if errors.size > 1 else 0.0
    for name in ("fdp_bh_proc", "fdp_storey_proc"):
        values = _column(records, t, name)
        if values is not None:
            out[f"mean_{name}"] = float(np.mean(values))
    certified = _column(records, t, "lad_converged")
    if certified is not None:
        out["n_lad_uncertified"] = int(np.sum(certified == 0.0))
    return out


def run_experiment(config: ExperimentConfig) -> ExperimentOutput:
    """Run all replications and aggregate; deterministic in (config, seed)."""
    state = prepare_scenario(config)
    records: list[dict] = []
    for reps, statistics in _draw_statistics(config, state):
        # (reps, 3, thresholds): every replication's V, S and R, counted once per chunk.
        counts = np.array([realized_counts(statistics, state.true_nulls, t) for t in config.t_grid]).T.tolist()
        # Indexed, not iterated: a row view still bound after the loop would keep this chunk alive
        # while the next one is counted, whose temporaries would then take fresh pages.
        for i, rep in enumerate(reps):
            records.extend(_replication_row(config, state, rep, statistics[i], counts[i]))

    aggregates: dict = {
        "version": __version__,
        "config": config.to_dict(),
        "k": state.k,
        "tail_energy_at_k": state.tail_energy,
        "n_degenerate_rows": int(state.model.degenerate_rows.size),
        "false_nulls": state.false_nulls.tolist(),
        "per_t": {},
    }
    draws = standard_factor_draws(state.k, config.n_mc, config.seed)
    for t in config.t_grid:
        summary = _aggregate_per_t(records, t)
        summary.update(_mc_aggregates(t, state, draws))
        aggregates["per_t"][_t_key(t)] = summary
    return ExperimentOutput(config=config, records=records, aggregates=aggregates)


def variance_study(
    scenario: Scenario,
    t: float,
    n_reps: int,
    n_mc: int,
    seed: int,
    epsilon: float = 0.01,
) -> dict:
    """Empirical false-count variance versus the factor-formula MC variance.

    This is run_experiment at the one threshold t without estimators, so very large replication
    counts stay cheap: the variance of V over n_reps statistic draws against the Monte-Carlo
    variance of the conditional false-count numerator, over all indices and over the true nulls.
    """
    config = ExperimentConfig(scenario, (t,), n_reps, seed, n_mc=n_mc, epsilon=epsilon, with_estimators=False)
    aggregates = run_experiment(config).aggregates
    summary = aggregates["per_t"][_t_key(t)]
    return {
        "version": __version__,
        "config": aggregates["config"],
        "k": aggregates["k"],
        "tail_energy_at_k": aggregates["tail_energy_at_k"],
        "t": float(t),
        "mean_V": summary["mean_V"],
        "var_V_empirical": summary["var_V"],
        "var_numerator_all": summary["var_numerator_all"],
        "var_numerator_nulls": summary["var_numerator_nulls"],
    }


def _t_key(t: float) -> str:
    return repr(float(t))


def _format_cell(value) -> str:
    if value is None:
        return ""
    # float() strips numpy scalar types, whose numpy-2 repr is "np.float64(...)"
    return repr(float(value)) if isinstance(value, float) else str(value)


def write_output(output: ExperimentOutput, out_dir: str | Path) -> tuple[Path, Path]:
    """Write records.csv and aggregates.json under out_dir."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records_path = out_dir / "records.csv"
    with records_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(RECORD_COLUMNS)
        for row in output.records:
            writer.writerow([_format_cell(row[name]) for name in RECORD_COLUMNS])
    aggregates_path = out_dir / "aggregates.json"
    with aggregates_path.open("w") as handle:
        json.dump(output.aggregates, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return records_path, aggregates_path


def _parse_cell(name: str, text: str):
    if text == "":
        return None
    if name in ("rep", "R", "V", "S", "lad_converged"):
        return int(text)
    return float(text)


def load_output(out_dir: str | Path) -> ExperimentOutput:
    """Read an experiment back and verify record-derived aggregates."""
    out_dir = Path(out_dir)
    with (out_dir / "aggregates.json").open() as handle:
        aggregates = json.load(handle)
    config = ExperimentConfig.from_dict(aggregates["config"])
    records: list[dict] = []
    with (out_dir / "records.csv").open(newline="") as handle:
        reader = csv.DictReader(handle)
        for row in reader:
            records.append({name: _parse_cell(name, row[name]) for name in RECORD_COLUMNS})
    for t in config.t_grid:
        stored = aggregates["per_t"][_t_key(t)]
        recomputed = _aggregate_per_t(records, t)
        one_sided = sorted(set(stored).difference(_MC_KEYS) ^ set(recomputed))
        if one_sided:
            raise ValueError(f"aggregate key {one_sided[0]!r} present on only one side at t={t}")
        for key, actual in recomputed.items():
            expected = stored[key]
            tolerance = 1e-9 * max(1.0, abs(expected))
            if abs(expected - actual) > tolerance:
                raise ValueError(
                    f"aggregate {key!r} at t={t} does not match its records: "
                    f"stored {expected!r}, recomputed {actual!r}"
                )
    return ExperimentOutput(config=config, records=records, aggregates=aggregates)


def run_estimate(
    z: np.ndarray,
    sigma: CorrelationMatrix,
    t: float,
    epsilon: float = 0.01,
    fraction: float = 0.75,
) -> dict:
    """Full estimation pipeline on observed statistics and known correlation.

    Decompose, select the factor count, fit realized factors on the
    calibration set, and estimate the FDP at threshold t.
    """
    z = np.asarray(z, dtype=float)
    if z.shape[0] != sigma.dim:
        raise ValueError(f"z has length {z.shape[0]} but the matrix has dimension {sigma.dim}")
    system = spectral_decompose(sigma, epsilon)
    k = select_num_factors(system, epsilon)
    model = build_factor_model(system, k)
    fit, m = _fit_factors(model, z, fraction)
    report = estimate_fdp(t, z, model, fit.w_hat)
    return {
        "version": __version__,
        "t": t,
        "epsilon": epsilon,
        "fraction": fraction,
        "k": k,
        "tail_energy_at_k": system.tail_energy(k),
        "m": m,
        "w_hat": fit.w_hat.tolist(),
        "R": report.n_rejected,
        "est_false_count": report.est_false_count,
        "fdp": report.fdp,
        "degenerate_rows": model.degenerate_rows.tolist(),
        "lad": {"converged": fit.converged, "objective": fit.objective, "iterations": fit.iterations},
    }


def convergence_configs(scenario: Scenario, p_grid, t_grid, n_reps, seed, epsilon=0.01) -> list[ExperimentConfig]:
    """One experiment config per dimension of a convergence study; a bad setting fails here, before any work."""
    base = ExperimentConfig(scenario, tuple(t_grid), n_reps, seed, epsilon=epsilon, with_estimators=False)
    configs = [replace(base, scenario=scenario.with_p(p)) for p in p_grid]
    if not configs:
        raise ValueError("p_grid must not be empty")
    _check_distinct("p_grid", [config.scenario.p for config in configs])
    return configs


def run_convergence(
    scenario: Scenario,
    p_grid: tuple[int, ...],
    t_grid: tuple[float, ...],
    n_reps: int,
    seed: int,
    epsilon: float = 0.01,
    out_dir: str | Path | None = None,
) -> dict:
    """Empirical FDP distribution versus its factor-driven limit, per p.

    For each dimension the same replication seeds drive both sides: the
    statistics draw behind the empirical FDP and the factor draw behind the
    limit value. Emits one histogram CSV per (p, t) (50 bins on [0, 1]) plus
    a summary with two-sample Kolmogorov-Smirnov distances.
    """
    configs = convergence_configs(scenario, p_grid, t_grid, n_reps, seed, epsilon)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    edges = np.linspace(0.0, 1.0, _HISTOGRAM_BINS + 1)
    summary: dict = {
        "version": __version__,
        "scenario": scenario.to_dict(),
        "p_grid": list(p_grid),
        "t_grid": [float(t) for t in t_grid],
        "n_reps": n_reps,
        "seed": seed,
        "epsilon": epsilon,
        "ks": {},
    }
    for p_index, (p, config) in enumerate(zip(p_grid, configs)):
        state = prepare_scenario(config, (p_index,))
        empirical = {t: np.empty(n_reps) for t in t_grid}
        for reps, statistics in _draw_statistics(config, state):
            for t in t_grid:
                v, _, r = realized_counts(statistics, state.true_nulls, t)
                empirical[t][reps.start : reps.stop] = v / np.maximum(r, 1)
        draws = np.stack(
            [substream(seed, _NS_LIMIT, p_index, rep).standard_normal(state.k) for rep in range(n_reps)]
        )
        limit = {t: fdp_limit(t, state.model, state.mu, state.true_nulls, draws) for t in t_grid}

        for t in t_grid:
            distance = float(ks_2samp(empirical[t], limit[t]).statistic)
            summary["ks"].setdefault(_t_key(t), {})[str(p)] = distance
            if out_dir is not None:
                counts_emp, _ = np.histogram(empirical[t], bins=edges)
                counts_lim, _ = np.histogram(limit[t], bins=edges)
                path = out_dir / f"convergence_p{p}_t{t:g}.csv"
                with path.open("w", newline="") as handle:
                    writer = csv.writer(handle)
                    writer.writerow(["bin_left", "bin_right", "count_empirical", "count_limit"])
                    for left, right, n_emp, n_lim in zip(edges[:-1], edges[1:], counts_emp, counts_lim):
                        writer.writerow([_format_cell(left), _format_cell(right), int(n_emp), int(n_lim)])
    if out_dir is not None:
        with (out_dir / "convergence_summary.json").open("w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return summary


def _read_csv(path: Path, width: int | None) -> np.ndarray:
    """Rows of a headerless numeric CSV; errors carry the file and line.

    Blank lines are skipped. Every row must have `width` cells (the first
    row's count when None) and every cell must be a finite real.
    """
    rows: list[np.ndarray] = []
    with path.open() as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = np.array(line.split(","), dtype=float)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: could not parse: {exc}") from None
            width = width or row.size
            if row.size != width:
                raise ValueError(f"{path}:{lineno}: expected {width} columns, found {row.size}")
            if not np.all(np.isfinite(row)):
                raise ValueError(f"{path}:{lineno}: non-finite value")
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: empty file")
    return np.stack(rows)


def read_matrix_csv(path: str | Path) -> CorrelationMatrix:
    """Headerless dense CSV of p rows; errors name the file and line."""
    path = Path(path)
    entries = _read_csv(path, None)
    try:
        return CorrelationMatrix.from_entries(entries)
    except ValueError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def read_vector_csv(path: str | Path) -> np.ndarray:
    """Single-column CSV of reals; errors name the file and line."""
    return _read_csv(Path(path), 1)[:, 0]
