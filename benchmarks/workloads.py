"""The three benchmark workloads: inputs from a seed, one pass, its checks.

Each workload is a closed loop of passes with one client: the next pass
starts when the previous one has returned. A pass calls pfa's public API
(`pfa.harness` or `pfa.cli.main`) and returns its outputs plus one Op per
checked operation. The checks hold for any random stream, so a change that
legitimately alters output bytes still passes them.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent

FDP_COLUMNS = ("fdp_true", "fdp_pfa", "fdp_efron", "fdp_storey", "fdp_bh_proc", "fdp_storey_proc")


@dataclass
class Op:
    """One checked operation: its wall time, a raised error, failed invariants."""

    name: str
    seconds: float = 0.0
    error: str | None = None
    violations: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.violations)


@dataclass
class Pass:
    outputs: object
    ops: list[Op]


def pass_seed(seed: int, index: int) -> int:
    """Seed of pass `index` in a run: distinct per pass, fixed by the run seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _timed(op: Op, call):
    """Run call() for op, recording its wall time and any error it raises."""
    start = time.perf_counter()
    try:
        return call()
    except Exception as exc:  # a failing pfa call is a failed op, not a crash
        op.error = f"{type(exc).__name__}: {exc}"
        return None
    finally:
        op.seconds = time.perf_counter() - start


class EstimatorStudy:
    """run_experiment with estimators on, then write_output -> load_output."""

    name = "estimator_study"
    setup_binding = ("harness", "prepare_scenario")

    def __init__(self, tiny: bool, work_dir: Path):
        from pfa.simulate import Scenario

        self.scenario = Scenario("two_factor", p=200 if tiny else 1000, n=100, p1=50)
        self.n_reps = 3 if tiny else 20
        self.n_mc = 200 if tiny else 2000
        self.work_dir = work_dir

    def prepare(self, seed: int) -> None:
        pass

    def config(self, seed: int, tiny: bool = False):
        from pfa.harness import ExperimentConfig

        scenario = self.scenario.with_p(200) if tiny else self.scenario
        return ExperimentConfig(
            scenario=scenario,
            t_grid=(0.005,),
            n_reps=2 if tiny else self.n_reps,
            seed=seed,
            n_mc=self.n_mc,
            epsilon=0.01,
            control_alpha=0.1,
        )

    def inputs(self, seed: int, index: int):
        return self.config(pass_seed(seed, index))

    def warmup_inputs(self, seed: int):
        return self.config(seed, tiny=True)

    def draw_flops(self) -> int:
        return 2 * self.scenario.p**2 * self.n_reps

    def run_pass(self, config) -> Pass:
        from pfa import harness

        study = Op("run_experiment")
        output = _timed(study, lambda: harness.run_experiment(config))
        ops = [study]
        if output is None:
            return Pass(outputs=None, ops=ops)
        study.violations = _record_violations(output.records)

        round_trip = Op("write_load_round_trip")
        out_dir = self.work_dir / "study"
        try:
            loaded = _timed(round_trip, lambda: _write_then_load(harness, output, out_dir))
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if loaded is not None and loaded.records != output.records:
            round_trip.violations.append("loaded records differ from the written ones")
        ops.append(round_trip)
        return Pass(outputs=(output.records, output.aggregates), ops=ops)


def _write_then_load(harness, output, out_dir: Path):
    harness.write_output(output, out_dir)
    return harness.load_output(out_dir)


def _record_violations(records: list[dict]) -> list[str]:
    found = []
    for row in records:
        where = f"rep {row['rep']} t={row['t']}"
        for name, value in row.items():
            if value is None or not math.isfinite(value):
                found.append(f"{where}: {name}={value!r} is not a finite number")
        if row["R"] != row["V"] + row["S"]:
            found.append(f"{where}: R={row['R']} != V+S={row['V'] + row['S']}")
        for name in FDP_COLUMNS:
            value = row[name]
            if value is not None and not 0.0 <= value <= 1.0:
                found.append(f"{where}: {name}={value!r} outside [0, 1]")
    return found


class VarianceStudy:
    """variance_study on equal_correlation at the criterion-1 shape."""

    name = "variance_study"
    setup_binding = ("harness", "prepare_scenario")

    def __init__(self, tiny: bool, work_dir: Path):
        from pfa.simulate import Scenario

        self.scenario = Scenario("equal_correlation", p=200 if tiny else 2000, n=100, p1=10)
        self.n_reps = 400 if tiny else 2000

    def prepare(self, seed: int) -> None:
        pass

    def inputs(self, seed: int, index: int):
        return (self.scenario, self.n_reps, pass_seed(seed, index))

    def warmup_inputs(self, seed: int):
        return (self.scenario.with_p(200), 400, seed)

    def draw_flops(self) -> int:
        return 2 * self.scenario.p**2 * self.n_reps

    def run_pass(self, inputs) -> Pass:
        from pfa import harness

        scenario, n_reps, seed = inputs
        study = Op("variance_study")
        result = _timed(
            study,
            lambda: harness.variance_study(scenario, t=0.001, n_reps=n_reps, n_mc=n_reps, seed=seed),
        )
        if result is not None:
            for key in ("var_V_empirical", "var_numerator_all", "var_numerator_nulls"):
                value = result[key]
                if not (math.isfinite(value) and value > 0.0):
                    study.violations.append(f"{key}={value!r} is not finite and positive")
        return Pass(outputs=result, ops=[study])


class DenseCli:
    """`pfa estimate` then `pfa control` in-process on a dense CSV sigma."""

    name = "dense_cli"
    setup_binding = ("cli", "read_matrix_csv")
    t = 0.005
    p1 = 10
    alpha = 0.15
    tol = 1e-4

    def __init__(self, tiny: bool, work_dir: Path):
        self.p = 200 if tiny else 2000
        self.mc = 200 if tiny else 2000
        self.work_dir = work_dir

    def prepare(self, seed: int) -> None:
        """Write the CSV inputs in a separate process, outside the measured one.

        The measured process then pays neither the CSV formatting time nor
        its memory in any timing or in peak RSS.
        """
        for p, sub in ((self.p, "full"), (200, "warmup")):
            subprocess.run(
                [sys.executable, str(BENCH_DIR / "dense_inputs.py"),
                 "--seed", str(seed), "--p", str(p), "--p1", str(self.p1),
                 "--out", str(self.work_dir / sub)],
                check=True,
                timeout=170,
            )

    def inputs(self, seed: int, index: int):
        # One input pair per run: CSV generation dominates a pass otherwise.
        return self.work_dir / "full"

    def warmup_inputs(self, seed: int):
        return self.work_dir / "warmup"

    def draw_flops(self) -> int:
        return 0

    def run_pass(self, in_dir: Path) -> Pass:
        from pfa import cli

        sigma, z_path = str(in_dir / "sigma.csv"), in_dir / "z.csv"
        estimate_out, control_out = in_dir / "estimate.json", in_dir / "control.json"
        estimate = Op("estimate")
        code = _timed(estimate, lambda: cli.main(
            ["estimate", "--sigma", sigma, "--z", str(z_path), "--t", repr(self.t),
             "--out", str(estimate_out)]))
        estimate_report = _cli_report(estimate, code, estimate_out)
        if estimate_report is not None:
            z = [float(line) for line in z_path.read_text().split()]
            expected = sum(math.erfc(abs(value) / math.sqrt(2.0)) <= self.t for value in z)
            if estimate_report["R"] != expected:
                estimate.violations.append(f"R={estimate_report['R']} but 2*Phi(-|z|) <= t counts {expected}")

        control = Op("control")
        code = _timed(control, lambda: cli.main(
            ["control", "--sigma", sigma, "--p1", str(self.p1), "--alpha", repr(self.alpha),
             "--mc", str(self.mc), "--tol", repr(self.tol), "--out", str(control_out)]))
        control_report = _cli_report(control, code, control_out)
        if control_report is not None and not abs(control_report["fdr_at_t"] - self.alpha) <= self.tol:
            control.violations.append(
                f"fdr_at_t={control_report['fdr_at_t']!r} is not within {self.tol} of alpha={self.alpha}"
            )
        return Pass(outputs=(estimate_report, control_report), ops=[estimate, control])


def _cli_report(op: Op, code, out_path: Path) -> dict | None:
    if op.error is not None:
        return None
    if code != 0:
        op.error = f"exit code {code}"
        return None
    report = json.loads(out_path.read_text())
    out_path.unlink()
    return report


WORKLOADS = {w.name: w for w in (EstimatorStudy, VarianceStudy, DenseCli)}
