"""Smoke test of the benchmark at tiny sizes (p=200, a few reps).

    python3 -m pytest benchmarks/test_smoke.py -q

Checks that every metric BENCHMARK.json declares is emitted with its unit,
that a traced pass returns the same outputs as an untraced one, and that
the benchmark refuses to run without the pfa sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
from spans import Tracer, all_bindings  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _scratch_dir() -> Path:
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="smoke-", dir=ROOT / ".bench_out"))


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace, section):
    out = _bench(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_pass_returns_the_untraced_outputs(workload):
    work_dir = _scratch_dir()
    try:
        bench = WORKLOADS[workload](True, work_dir)
        bench.prepare(7)
        inputs = bench.inputs(7, 0)
        plain, _, setup = run.untraced_pass(bench, inputs)
        tracer = Tracer(all_bindings())
        traced, _ = run.traced_pass(bench, inputs, tracer)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    assert plain.outputs is not None and setup
    assert run._same(traced.outputs, plain.outputs)
    assert len(tracer.spans) > 1
    assert abs(sum(tracer.self_seconds()) - (tracer.spans[0][2] - tracer.spans[0][1]) * 1e-9) < 1e-6


def test_refuses_to_run_without_the_pfa_sources():
    bare = _scratch_dir()
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
        out = _bench(bare, WORKLOAD_NAMES[0], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
