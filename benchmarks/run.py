"""pfa benchmark: one workload, a closed loop of passes, checked outputs.

    python3 benchmarks/run.py --workload estimator_study --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; pfa is imported from `src/`. The
workloads are defined in `workloads.py`; the metric names and units are
the ones declared in `BENCHMARK.json` at the root.

--trace 0 times untraced passes and prints the end-to-end metrics.
--trace 1 runs every pass twice on the same inputs, untraced and with a
span on each pfa module boundary, checks that both give the same outputs,
and prints the per-layer metrics (per pass, from the traced passes).

Every run prints the machine and a readable report, writes the full report
(spans included) under `.bench_out/`, and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
`attempted` counts checked operations; an operation fails when it raises
or breaks an output invariant; `correct` is false when an invariant broke.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy

from spans import Tracer, all_bindings
from workloads import WORKLOADS, Op

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "PFA_THREADS")
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _import_pfa():
    if not (ROOT / "src" / "pfa" / "__init__.py").is_file():
        sys.exit(f"error: no pfa sources under {ROOT / 'src'}; run from a pfa source checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import pfa

    return pfa


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref.removeprefix("ref: ")
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine(pfa) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "pfa": pfa.__version__,
        "git_commit": _git_commit(),
    }


def untraced_pass(workload, inputs):
    """One pass with only the set-up call wrapped; returns (pass, wall, setup times)."""
    with Tracer([workload.setup_binding]) as probe:
        start = time.perf_counter()
        result = workload.run_pass(inputs)
        wall = time.perf_counter() - start
    return result, wall, [(s[2] - s[1]) * 1e-9 for s in probe.spans]


def traced_pass(workload, inputs, tracer):
    with tracer, tracer.span("bench.pass") as root:
        result = workload.run_pass(inputs)
    return result, (root[2] - root[1]) * 1e-9


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def end_to_end_metrics(workload, runs: list[dict]) -> tuple[dict, dict]:
    """(gated metrics, report-only figures) from the untraced passes."""
    setups = [s for run in runs for s in run["setup"]]
    work = [sum(op.seconds for op in run["pass"].ops) - sum(run["setup"]) for run in runs]
    metrics = {
        "setup_s": _median(setups),
        "work_s": _median(work),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {"passes": len(runs)}
    for name in ("run_experiment", "variance_study"):
        study = [
            workload.n_reps / (op.seconds - sum(run["setup"]))
            for run in runs for op in run["pass"].ops if op.name == name
        ]
        if study:
            extra["reps_per_s"] = _median(study)
    for name in ("estimate", "control"):
        times = [op.seconds for run in runs for op in run["pass"].ops if op.name == name]
        if times:
            extra[f"{name}_s"] = _median(times)
    return metrics, extra


def _tail(values: list[float]) -> tuple[float, float, int]:
    """Highest ladder percentile with at least ten values beyond it."""
    if not values:
        return 0.0, 0.0, 0
    data = np.asarray(values)
    for q in TAIL_LADDER:
        cut = float(np.percentile(data, q))
        beyond = int(np.count_nonzero(data > cut))
        if beyond >= 10 or q == TAIL_LADDER[-1]:
            return cut, q, beyond


def layer_metrics(workload, tracer, n_passes: int, untraced_walls, traced_walls) -> dict:
    """Per-layer metrics, per traced pass, from the recorded spans."""
    spans = tracer.spans
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[0]].append(span)
    own = tracer.self_seconds()
    self_by_layer = defaultdict(float)
    for span, seconds in zip(spans, own):
        self_by_layer[span[0].split(".")[0]] += seconds

    def seconds(name):
        return sum((s[2] - s[1]) * 1e-9 for s in by_name[name]) / n_passes

    def calls(name):
        return len(by_name[name]) / n_passes

    def facts(name, key):
        return [s[4][key] for s in by_name[name] if s[4] is not None]

    fits = by_name["lad.lad_regress"]
    fit_ms = [(s[2] - s[1]) * 1e-6 for s in fits]
    iterations = facts("lad.lad_regress", "iterations")
    tail_ms, tail_pct, tail_beyond = _tail(fit_ms)
    numerator = [s[4] for s in by_name["factors.numerator_over_draws"]]
    cli_commands = defaultdict(float)
    for span in by_name["cli.main"]:
        cli_commands[span[4]["command"]] += (span[2] - span[1]) * 1e-9 / n_passes
    read_bytes = facts("harness.read_matrix_csv", "csv_bytes") + facts("harness.read_vector_csv", "csv_bytes")
    loaded_csv = facts("harness.load_output", "csv_bytes")
    loaded_json = facts("harness.load_output", "json_bytes")

    values = {
        "lad.lad_regress_s": seconds("lad.lad_regress"),
        "lad.fits": calls("lad.lad_regress"),
        "lad.fit_ms_p50": _median(fit_ms),
        "lad.fit_ms_tail": tail_ms,
        "lad.fit_ms_tail_pct": tail_pct,
        "lad.fit_ms_tail_beyond": tail_beyond,
        "lad.iterations_p50": _median(iterations),
        "lad.iterations_max": max(iterations, default=0),
        "lad.certified_ratio": (
            sum(facts("lad.lad_regress", "converged")) / len(fits) if fits else 0.0
        ),
        "lad.select_calibration_set_s": seconds("lad.select_calibration_set"),
        "linalg.spectral_decompose_s": seconds("linalg.spectral_decompose"),
        "linalg.spectral_decompose_calls": calls("linalg.spectral_decompose"),
        "linalg.symmetric_sqrt_s": seconds("linalg.symmetric_sqrt"),
        "simulate.generate_design_s": seconds("simulate.generate_design"),
        "simulate.sample_correlation_s": seconds("simulate.sample_correlation"),
        "simulate.realized_counts_s": seconds("simulate.realized_counts"),
        "simulate.realized_counts_calls": calls("simulate.realized_counts"),
        "harness.prepare_scenario_s": seconds("harness.prepare_scenario"),
        "harness.write_output_s": seconds("harness.write_output"),
        "harness.load_output_s": seconds("harness.load_output"),
        "harness.read_matrix_csv_s": seconds("harness.read_matrix_csv"),
        "harness.read_vector_csv_s": seconds("harness.read_vector_csv"),
        "harness.input_bytes": (sum(read_bytes) + sum(loaded_csv) + sum(loaded_json)) / n_passes,
        "harness.csv_bytes_parsed_computed": (sum(read_bytes) + sum(loaded_csv)) / n_passes,
        "harness.draw_flops_computed": float(workload.draw_flops()),
        "factors.k": _median(facts("factors.build_factor_model", "k")),
        "factors.select_num_factors_s": seconds("factors.select_num_factors"),
        "factors.build_factor_model_s": seconds("factors.build_factor_model"),
        "factors.estimate_fdp_s": seconds("factors.estimate_fdp"),
        "factors.numerator_over_draws_s": seconds("factors.numerator_over_draws"),
        "factors.numerator_draw_rows": sum(f["rows"] for f in numerator) / n_passes,
        "factors.cdf_evals_computed": sum(2 * f["rows"] * f["width"] for f in numerator) / n_passes,
        "fdr.approx_fdr_calls": calls("fdr.approx_fdr"),
        "fdr.approx_fdr_s": seconds("fdr.approx_fdr"),
        "fdr.solve_threshold_s": seconds("fdr.solve_threshold"),
        "fdr.standard_factor_draws_calls": calls("factors.standard_factor_draws"),
        "fdr.standard_factor_draws_s": seconds("factors.standard_factor_draws"),
        "fdr.baselines_s": sum(
            seconds(name) for name in ("fdr.bh_procedure", "fdr.storey_estimate", "fdr.efron_estimate")
        ),
        "gauss.two_sided_pvalue_s": seconds("gauss.two_sided_pvalue"),
        "gauss.two_sided_pvalue_calls": calls("gauss.two_sided_pvalue"),
        "cli.estimate_s": cli_commands["estimate"],
        "cli.control_s": cli_commands["control"],
        "trace.wall_s": sum(traced_walls) / n_passes,
        "trace.untraced_wall_s": sum(untraced_walls) / n_passes,
        "trace.overhead_ratio": sum(traced_walls) / sum(untraced_walls),
        "trace.spans": len(spans) / n_passes,
    }
    for layer in ("lad", "linalg", "simulate", "harness", "factors", "fdr", "gauss", "cli"):
        values[f"{layer}.self_s"] = self_by_layer[layer] / n_passes
    values["trace.bench_self_s"] = self_by_layer["bench"] / n_passes
    return values


def _same(left, right) -> bool:
    return json.dumps(left, sort_keys=True, default=float) == json.dumps(right, sort_keys=True, default=float)


def run(args) -> int:
    # Replications run on one thread; BLAS keeps its own default thread count.
    os.environ.pop("PFA_THREADS", None)
    pfa = _import_pfa()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    info = machine(pfa)
    print("machine: " + json.dumps(info, sort_keys=True), flush=True)

    OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        workload = WORKLOADS[args.workload](args.tiny, work_dir)
        workload.prepare(args.seed)
        workload.run_pass(workload.warmup_inputs(args.seed))

        untraced, traced_walls, ops = [], [], []
        tracer = Tracer(all_bindings()) if args.trace else None
        start = time.perf_counter()
        index = 0
        while True:
            inputs = workload.inputs(args.seed, index)
            if tracer is None:
                result, wall, setup = untraced_pass(workload, inputs)
            elif index % 2 == 0:
                result, wall, setup = untraced_pass(workload, inputs)
                traced, traced_wall = traced_pass(workload, inputs, tracer)
            else:
                traced, traced_wall = traced_pass(workload, inputs, tracer)
                result, wall, setup = untraced_pass(workload, inputs)
            untraced.append({"pass": result, "wall": wall, "setup": setup})
            ops.extend(result.ops)
            if tracer is not None:
                traced_walls.append(traced_wall)
                ops.extend(traced.ops)
                match = Op("traced_equals_untraced")
                if not _same(traced.outputs, result.outputs):
                    match.violations.append(f"pass {index}: traced outputs differ from untraced ones")
                ops.append(match)
            index += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / index > args.seconds:
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if tracer is None:
        metrics, extra = end_to_end_metrics(workload, untraced)
    else:
        metrics = layer_metrics(workload, tracer, index, [r["wall"] for r in untraced], traced_walls)
        extra = {"passes": index}
    if set(metrics) != set(declared):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(declared))}")
    failed = [op for op in ops if op.failed]
    extra["failed_ops_ratio"] = len(failed) / len(ops)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {index}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:16.6f} {declared[name]}")
    for name, value in extra.items():
        print(f"  {name:36s} {value:16.6f} (report only)")
    for name in dict.fromkeys(op.name for op in failed):
        first = next(op for op in failed if op.name == name)
        count = sum(op.name == name for op in failed)
        print(f"  FAILED {name} x{count}, first: {first.error or '; '.join(first.violations[:3])}")

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        "machine": info,
        "metrics": metrics,
        "report_only": extra,
        "ops": [
            {"name": op.name, "seconds": op.seconds, "error": op.error, "violations": op.violations}
            for op in ops
        ],
        "spans": tracer.to_json() if tracer is not None else [],
    }
    report_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, default=float) + "\n")
    print(f"report: {report_path.relative_to(ROOT)}")

    print(json.dumps({
        "correct": not any(op.violations for op in ops),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": declared[name]} for name, value in metrics.items()},
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description="pfa benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes (p=200, a few reps)")
    return run(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
