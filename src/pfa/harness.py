"""Experiment orchestration and file I/O.

One experiment fixes a scenario: a single design draw determines the known
correlation matrix, the factor model, and the mean shifts; replications
then draw fresh test statistics from N(mu, Sigma) and evaluate the realized
counts and the estimators. The design and the replications each draw from
one substream of the master seed keyed by purpose (`substream`), the
replications one after another, so a run builds one generator per purpose,
not one per replication. The Monte-Carlo factor draws come from
`standard_factor_draws`, which seeds its generator with the master seed
itself. So output is bit-identical for a given config and seed.

The p x p sample correlation Sigma = X'X / (n-1) of the standardized n x p
design X has rank below n, and no harness path forms it: its spectrum comes
from the n x n Gram XX' (`gram_spectrum`), and each replication draws n
standard normals g and takes mu + X'g / sqrt(n-1), which is exactly
N(mu, Sigma), at O(np) a draw.

Outputs are a per-replication CSV plus an aggregates JSON that embeds the
config, seed, and library version; the loader recomputes the record-derived
aggregates and refuses output that does not match.
"""

from __future__ import annotations

import csv
import json
import re
import warnings
from dataclasses import asdict, dataclass, fields, replace
from itertools import zip_longest
from pathlib import Path

import numpy as np
from scipy.stats import ks_2samp

from . import __version__
from .factors import (
    DEFAULT_EPSILON,
    DEFAULT_N_MC,
    FactorModel,
    build_factor_model,
    estimate_fdp,
    fdp_limit,
    numerator_over_draws,
    select_num_factors,
    standard_factor_draws,
)
from .fdr import approx_fdr_curve, bh_procedure, efron_estimate, mean_fdr, storey_estimate, storey_procedure
from .gauss import check_unit_interval, two_sided_pvalue
from .lad import DEFAULT_FRACTION, FactorFit, lad_regress, select_calibration_set
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
    "lad_iterations",
    "lad_objective",
)

_INT_COLUMNS = ("R", "V", "S", "lad_converged", "lad_iterations")
# Columns a run leaves out (None) with estimators off, and with no control_alpha.
_ESTIMATOR_COLUMNS = ("fdp_pfa", "fdp_efron", "fdp_storey", "lad_converged", "lad_iterations", "lad_objective")
_PROCEDURE_COLUMNS = ("fdp_bh_proc", "fdp_storey_proc")

# Per-threshold aggregates of the Monte-Carlo draws; the loader recomputes all others from the records.
_MC_KEYS = ("approx_fdr", "var_numerator_all", "var_numerator_nulls")

# The code points a "surrogateescape" decode gives the bytes that are not UTF-8.
_UNDECODED = re.compile("[\udc80-\udcff]")


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
    n_mc: int = DEFAULT_N_MC
    epsilon: float = DEFAULT_EPSILON
    calibration_fraction: float = DEFAULT_FRACTION
    with_estimators: bool = True
    control_alpha: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "t_grid", tuple(real("t_grid entry", t) for t in self.t_grid))
        if not self.t_grid:
            raise ValueError("t_grid must not be empty")
        check_unit_interval(self.t_grid, "t_grid entry")
        _check_distinct("t_grid", self.t_grid)
        check_ints(self, "n_reps", "seed", "n_mc")
        check_reals(self, "epsilon", "calibration_fraction", "control_alpha")
        if not isinstance(self.with_estimators, (bool, np.bool_)):
            raise TypeError(f"with_estimators must be a boolean, got {self.with_estimators!r}")
        object.__setattr__(self, "with_estimators", bool(self.with_estimators))
        if self.n_reps < 1:
            raise ValueError(f"n_reps must be at least 1, got {self.n_reps}")
        if self.seed < 0:
            raise ValueError(f"seed must not be negative, got {self.seed}")
        if self.n_mc < 2:
            raise ValueError(f"n_mc must be at least 2, got {self.n_mc}")
        if not 0.0 < self.calibration_fraction <= 1.0:
            raise ValueError(f"calibration_fraction must lie in (0, 1], got {self.calibration_fraction}")
        check_unit_interval(self.epsilon, "epsilon")
        if self.control_alpha is not None:
            check_unit_interval(self.control_alpha, "control_alpha")

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

    key: tuple[int, ...]
    x: np.ndarray  # standardized n x p design over sqrt(n-1): x'x is sigma_hat
    model: FactorModel
    tail_energy: float  # Frobenius norm of sigma_hat's spectrum beyond the first k
    mu: np.ndarray  # the mean shifts, zero beyond the p1 false nulls


@dataclass(eq=False)
class ExperimentOutput:
    """Per-replication records plus aggregate summaries.

    `columns` maps each record column after `rep` and `t` (in RECORD_COLUMNS order) to an
    (n_reps, len(t_grid)) array, or to None where the run does not compute it.
    """

    config: ExperimentConfig
    columns: dict[str, np.ndarray | None]
    aggregates: dict

    def _rows(self):
        """Each record's cells in records.csv order: Python numbers, None where blank, a block at a time."""
        n_reps, block = self.config.n_reps, 1024
        for start in range(0, n_reps, block):
            cells = [None if c is None else c[start : start + block].tolist() for c in self.columns.values()]
            for i, rep in enumerate(range(start, min(start + block, n_reps))):
                for j, t in enumerate(self.config.t_grid):
                    yield [rep, t, *(None if c is None else c[i][j] for c in cells)]

    @property
    def records(self) -> list[dict]:
        """One dict per replication and threshold, built from the columns on each access."""
        return [dict(zip(RECORD_COLUMNS, row)) for row in self._rows()]


def prepare_scenario(config: ExperimentConfig, key: tuple[int, ...] = ()) -> ScenarioState:
    """Draw the design, build the factor model, shift the false nulls, the first p1 indices.

    `key` prefixes the design and replication substreams, which sets them
    apart from those of other scenarios built under the same seed
    (run_convergence keys one per dimension).
    """
    standardized, sds = standardize(generate_design(config.scenario, substream(config.seed, _NS_DESIGN, *key)))
    x = standardized / np.sqrt(config.scenario.n - 1)
    system = gram_spectrum(x)
    k = select_num_factors(system, config.epsilon)
    model = build_factor_model(system, k)
    p1 = config.scenario.p1
    mu = np.zeros(config.scenario.p)
    mu[:p1] = np.sqrt(config.scenario.n) * config.scenario.beta * sds[:p1] / config.scenario.sigma
    return ScenarioState(key=tuple(key), x=x, model=model, tail_energy=system.tail_energy(k), mu=mu)


def _fit_factors(model: FactorModel, z: np.ndarray, fraction: float) -> tuple[FactorFit, int]:
    """LAD fit of the realized factors on the calibration set of z, and its size.

    With no factors no fit runs: the values are empty and the fit certified.
    """
    calibration = select_calibration_set(z, fraction)
    if model.k == 0:
        return FactorFit(w_hat=np.zeros(0), objective=0.0, iterations=0, converged=True), calibration.size
    return lad_regress(model.loadings[calibration], z[calibration]), calibration.size


def _empty_columns(config: ExperimentConfig) -> dict:
    """The record columns after rep and t, unfilled; None for those the config leaves out."""
    skipped = () if config.with_estimators else _ESTIMATOR_COLUMNS
    skipped += () if config.control_alpha is not None else _PROCEDURE_COLUMNS
    shape = (config.n_reps, len(config.t_grid))
    return {
        name: None if name in skipped else np.empty(shape, np.int64 if name in _INT_COLUMNS else float)
        for name in RECORD_COLUMNS[2:]
    }


def _fill_replication(config: ExperimentConfig, state: ScenarioState, rep: int, z: np.ndarray, columns: dict) -> None:
    """Write replication rep's estimator and step-up cells into `columns`."""
    pvalues = two_sided_pvalue(z)
    if config.control_alpha is not None:
        for name, procedure in (("fdp_bh_proc", bh_procedure), ("fdp_storey_proc", storey_procedure)):
            rejections = procedure(pvalues, config.control_alpha)
            v = np.count_nonzero(rejections.indices >= config.scenario.p1)  # the true nulls, from p1 on
            columns[name][rep] = v / max(rejections.size, 1)
    if config.with_estimators:
        fit, _ = _fit_factors(state.model, z, config.calibration_fraction)
        columns["fdp_pfa"][rep] = estimate_fdp(config.t_grid, z, state.model, fit.w_hat).fdp
        columns["fdp_efron"][rep] = efron_estimate(z, config.t_grid, config.scenario.p - config.scenario.p1)
        columns["fdp_storey"][rep] = storey_estimate(pvalues, config.t_grid)
        columns["lad_converged"][rep] = int(fit.converged)
        columns["lad_iterations"][rep] = fit.iterations
        columns["lad_objective"][rep] = fit.objective


def _draw_statistics(config: ExperimentConfig, state: ScenarioState, chunk_size: int = 256):
    """(reps, statistics) chunks of the N(mu, x'x) draws of every replication.

    Every replication takes its n standard normals g from one generator, the
    `_NS_REPLICATION` substream under the scenario key, a chunk of rows at a
    time in replication order, and draws mu + g @ x. A generator drawn in
    pieces yields the bits of one draw of the whole (n_reps, n) block, so the
    draws do not depend on chunk_size. A chunk of one replication is
    multiplied as one of two rows: numpy would give a lone row to its
    matrix-vector product, which rounds differently from the rows of a matrix
    product.
    """
    rng = substream(config.seed, _NS_REPLICATION, *state.key)
    for start in range(0, config.n_reps, chunk_size):
        reps = range(start, min(start + chunk_size, config.n_reps))
        noise = rng.standard_normal((len(reps), config.scenario.n))
        statistics = (noise if len(reps) > 1 else np.vstack([noise, noise])) @ state.x
        statistics = statistics[: len(reps)]
        statistics += state.mu
        yield reps, statistics


def _chunk_counts(config: ExperimentConfig, statistics: np.ndarray) -> np.ndarray:
    """(3, reps, thresholds): V, S and R of each replication in a chunk, one batched count per t."""
    return np.stack([realized_counts(statistics, config.scenario.p1, t) for t in config.t_grid], axis=-1)


def _mc_aggregates(config: ExperimentConfig, state: ScenarioState, draws: np.ndarray) -> list[dict]:
    """The `_MC_KEYS` at each t from one numerator sweep; for k = 0 exactly p t / (p t + p1), 0 and 0."""
    t_grid, p1 = config.t_grid, config.scenario.p1
    if state.model.k == 0:
        return [dict(zip(_MC_KEYS, (fdr, 0.0, 0.0))) for fdr in approx_fdr_curve(t_grid, state.model, p1, draws)]
    sums = numerator_over_draws(np.asarray(t_grid), state.model, draws, p1=p1)
    return [
        dict(zip(_MC_KEYS, (mean_fdr(counts, p1), float(np.var(counts, ddof=1)), float(np.var(null_counts, ddof=1)))))
        for counts, null_counts in zip(*sums)
    ]


def _aggregate_per_t(columns: dict, j: int) -> dict:
    """Record-derived aggregates at the j-th threshold; each column's slice is cast to float first."""
    at_t = {name: values[:, j].astype(float) for name, values in columns.items() if values is not None}
    unaveraged = ("S", "lad_converged", "lad_iterations", "lad_objective")
    out = {f"mean_{name}": float(np.mean(x)) for name, x in at_t.items() if name not in unaveraged}
    v, fdp_true = at_t["V"], at_t["fdp_true"]
    out["var_V"] = float(np.var(v, ddof=1)) if v.size > 1 else 0.0
    out["sd_fdp_true"] = float(np.std(fdp_true, ddof=1)) if fdp_true.size > 1 else 0.0
    for name in ("fdp_pfa", "fdp_efron"):
        if name in at_t:
            estimates, short = at_t[name], name.removeprefix("fdp_")
            errors = np.divide(estimates - fdp_true, fdp_true, out=np.zeros_like(fdp_true), where=fdp_true != 0.0)
            out[f"sd_{name}"] = float(np.std(estimates, ddof=1)) if estimates.size > 1 else 0.0
            out[f"mean_re_{short}"] = float(np.mean(errors))
            out[f"sd_re_{short}"] = float(np.std(errors, ddof=1)) if errors.size > 1 else 0.0
    if "lad_converged" in at_t:
        out["n_lad_uncertified"] = int(np.sum(at_t["lad_converged"] == 0.0))
    return out


def run_experiment(config: ExperimentConfig) -> ExperimentOutput:
    """Run all replications and aggregate; deterministic in (config, seed)."""
    state = prepare_scenario(config)
    columns = _empty_columns(config)
    for reps, statistics in _draw_statistics(config, state):
        rows = slice(reps.start, reps.stop)
        columns["V"][rows], columns["S"][rows], columns["R"][rows] = _chunk_counts(config, statistics)
        if config.with_estimators or config.control_alpha is not None:
            # Indexed, not iterated: a row view still bound after the loop would keep this chunk alive
            # while the next one is counted, whose temporaries would then take fresh pages.
            for i, rep in enumerate(reps):
                _fill_replication(config, state, rep, statistics[i], columns)
    columns["fdp_true"] = columns["V"] / np.maximum(columns["R"], 1)

    aggregates: dict = {
        "version": __version__,
        "config": config.to_dict(),
        "k": state.model.k,
        "tail_energy_at_k": state.tail_energy,
        "n_degenerate_rows": int(state.model.degenerate_rows.size),
        "false_nulls": list(range(config.scenario.p1)),
        "per_t": {},
    }
    draws = standard_factor_draws(state.model.k, config.n_mc, config.seed)
    for j, (t, mc) in enumerate(zip(config.t_grid, _mc_aggregates(config, state, draws))):
        aggregates["per_t"][_t_key(t)] = {**_aggregate_per_t(columns, j), **mc}
    return ExperimentOutput(config=config, columns=columns, aggregates=aggregates)


def variance_study(
    scenario: Scenario,
    t: float,
    n_reps: int,
    n_mc: int,
    seed: int,
    epsilon: float = DEFAULT_EPSILON,
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


def json_text(payload: dict) -> str:
    """The text of every JSON output: indented, keys sorted, one final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_output(output: ExperimentOutput, out_dir: str | Path) -> tuple[Path, Path]:
    """Write records.csv and aggregates.json under out_dir."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records_path = out_dir / "records.csv"
    with records_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(RECORD_COLUMNS)
        writer.writerows(output._rows())  # a float as its repr, None as an empty cell
    aggregates_path = out_dir / "aggregates.json"
    aggregates_path.write_text(json_text(output.aggregates))
    return records_path, aggregates_path


def _read_records(path: Path, config: ExperimentConfig) -> dict:
    """records.csv as run_experiment's columns; its rows must come in the order write_output writes."""
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header, rows = next(reader, None), list(reader)
    if header != list(RECORD_COLUMNS):
        raise ValueError(f"{path}:1: the header must be {','.join(RECORD_COLUMNS)}")
    order = ([str(rep), _t_key(t)] for rep in range(config.n_reps) for t in config.t_grid)
    for lineno, (row, want) in enumerate(zip_longest(rows, order, fillvalue=[]), start=2):
        if row[:2] != want or len(row) != len(RECORD_COLUMNS):
            expected = f"rep,t = {','.join(want)} and {len(RECORD_COLUMNS)} cells" if want else "no further record"
            found = f"rep,t = {','.join(row[:2])} and {len(row)} cells" if row else "no cells"
            raise ValueError(f"{path}:{lineno}: expected {expected}, found {found}")
    columns = _empty_columns(config)
    for (name, values), cells in zip(columns.items(), list(zip(*rows))[2:]):
        if values is None:
            if any(cells):
                raise ValueError(f"{path}: column {name!r} holds values, but this run computes no such column")
            continue
        try:
            columns[name] = np.array(cells, dtype=values.dtype).reshape(values.shape)
        except ValueError as exc:
            raise ValueError(f"{path}: column {name!r}: {exc}") from None
    return columns


def load_output(out_dir: str | Path) -> ExperimentOutput:
    """Read an experiment back and verify record-derived aggregates."""
    out_dir = Path(out_dir)
    with (out_dir / "aggregates.json").open() as handle:
        aggregates = json.load(handle)
    config = ExperimentConfig.from_dict(aggregates["config"])
    columns = _read_records(out_dir / "records.csv", config)
    for j, t in enumerate(config.t_grid):
        stored = aggregates["per_t"][_t_key(t)]
        recomputed = _aggregate_per_t(columns, j)
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
    return ExperimentOutput(config=config, columns=columns, aggregates=aggregates)


def run_estimate(
    z: np.ndarray,
    sigma: CorrelationMatrix,
    t: float,
    epsilon: float = DEFAULT_EPSILON,
    fraction: float = DEFAULT_FRACTION,
) -> dict:
    """Full estimation pipeline on observed statistics and known correlation.

    Decompose, select the factor count, fit realized factors on the
    calibration set, and estimate the FDP at threshold t. Sigma and its decomposition
    are dropped before the fit, which frees them unless the caller holds sigma.
    """
    z = np.asarray(z, dtype=float)
    if z.shape[0] != sigma.dim:
        raise ValueError(f"z has length {z.shape[0]} but the matrix has dimension {sigma.dim}")
    system = spectral_decompose(sigma, epsilon)
    del sigma
    k = select_num_factors(system, epsilon)
    tail_energy = system.tail_energy(k)
    model = build_factor_model(system, k)
    del system
    fit, m = _fit_factors(model, z, fraction)
    report = estimate_fdp(t, z, model, fit.w_hat)
    return {
        "version": __version__,
        "t": t,
        "epsilon": epsilon,
        "fraction": fraction,
        "k": k,
        "tail_energy_at_k": tail_energy,
        "m": m,
        "w_hat": fit.w_hat.tolist(),
        "R": report.n_rejected,
        "est_false_count": report.est_false_count,
        "fdp": report.fdp,
        "degenerate_rows": model.degenerate_rows.tolist(),
        "lad": {"converged": fit.converged, "objective": fit.objective, "iterations": fit.iterations},
    }


def convergence_configs(
    scenario: Scenario, p_grid, t_grid, n_reps, seed, epsilon=DEFAULT_EPSILON
) -> list[ExperimentConfig]:
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
    epsilon: float = DEFAULT_EPSILON,
    out_dir: str | Path | None = None,
) -> dict:
    """Empirical FDP distribution versus its factor-driven limit, per p.

    For each dimension, the replications draw the statistics behind their
    empirical FDPs from the `_NS_REPLICATION` substream (`_draw_statistics`)
    and the factors behind their limit values as one (n_reps, k) block from
    the `_NS_LIMIT` substream, both keyed by the dimension's index; row i of
    each belongs to replication i. Emits one histogram CSV per (p, t) (50
    bins on [0, 1]) plus a summary with two-sample Kolmogorov-Smirnov
    distances.
    """
    configs = convergence_configs(scenario, p_grid, t_grid, n_reps, seed, epsilon)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    edges = np.linspace(0.0, 1.0, _HISTOGRAM_BINS + 1)
    lefts, rights = edges[:-1].tolist(), edges[1:].tolist()
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
        empirical = np.empty((n_reps, len(t_grid)))
        for reps, statistics in _draw_statistics(config, state):
            v, _, r = _chunk_counts(config, statistics)
            empirical[reps.start : reps.stop] = v / np.maximum(r, 1)
        draws = substream(seed, _NS_LIMIT, p_index).standard_normal((n_reps, state.model.k))
        limit = fdp_limit(np.asarray(t_grid), state.model, state.mu, config.scenario.p1, draws)

        for j, t in enumerate(t_grid):
            distance = float(ks_2samp(empirical[:, j], limit[j]).statistic)
            summary["ks"].setdefault(_t_key(t), {})[str(p)] = distance
            if out_dir is not None:
                counts_emp, _ = np.histogram(empirical[:, j], bins=edges)
                counts_lim, _ = np.histogram(limit[j], bins=edges)
                path = out_dir / f"convergence_p{p}_t{t:g}.csv"
                with path.open("w", newline="") as handle:
                    writer = csv.writer(handle)
                    writer.writerow(["bin_left", "bin_right", "count_empirical", "count_limit"])
                    writer.writerows(zip(lefts, rights, counts_emp.tolist(), counts_lim.tolist()))
    if out_dir is not None:
        (out_dir / "convergence_summary.json").write_text(json_text(summary))
    return summary


def _read_csv(path: Path, width: int | None) -> np.ndarray:
    """Rows of a headerless numeric CSV; errors carry the file and line.

    numpy's C reader parses a well-formed file in one pass. Any file it
    rejects, or whose array is empty, of the wrong width or not finite,
    is read again by `_scan_csv`, which names the bad line and also takes
    the spellings only Python's `float` accepts (`1_0`, non-ASCII digits).
    Both round correctly, so a file both accept gives the same bits. A
    UTF-8 byte-order mark opening the file, as spreadsheets write, is skipped.

    Given the file's line count as its row limit, the C reader allocates
    the array once instead of growing it by reallocation, which leaves
    freed blocks of up to the array's size behind in the heap.
    """
    try:
        with path.open(encoding="utf-8-sig") as handle, warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an empty input warns; `_scan_csv` reports it
            rows = _line_count(path)
            entries = np.loadtxt(handle, delimiter=",", dtype=float, ndmin=2, comments=None, max_rows=rows)
    except ValueError:
        return _scan_csv(path, width)
    if entries.size and width in (None, entries.shape[1]) and np.all(np.isfinite(entries)):
        return entries
    return _scan_csv(path, width)


def _line_count(path: Path) -> int | None:
    """Lines of a file whose only line break is \\n, a bound on its rows; None when it holds a \\r."""
    breaks, last = 0, b""
    with path.open("rb") as raw:
        for block in iter(lambda: raw.read(1 << 16), b""):
            if b"\r" in block:
                return None
            breaks, last = breaks + block.count(b"\n"), block
    return breaks + (not last.endswith(b"\n"))


def _scan_csv(path: Path, width: int | None) -> np.ndarray:
    """`_read_csv` one line at a time, raising at the first bad line.

    Blank lines are skipped. Every row must have `width` cells (the first
    row's count when None) and every cell must be a finite real. Text that
    is not UTF-8 fails on the line that holds it.
    """
    rows: list[np.ndarray] = []
    with path.open(encoding="utf-8-sig", errors="surrogateescape") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = np.array(line.split(","), dtype=float)
            except ValueError as exc:
                reason = "not valid UTF-8 text" if _UNDECODED.search(line) else f"could not parse: {exc}"
                raise ValueError(f"{path}:{lineno}: {reason}") from None
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
        return CorrelationMatrix(entries)
    except ValueError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def read_vector_csv(path: str | Path) -> np.ndarray:
    """Single-column CSV of reals; errors name the file and line."""
    return _read_csv(Path(path), 1)[:, 0]
