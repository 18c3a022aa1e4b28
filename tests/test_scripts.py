"""Smoke test of the experiment scripts: each runs at a tiny size and writes its outputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pfa.harness import load_output, variance_study
from pfa.simulate import SCENARIO_KINDS, Scenario

ROOT = Path(__file__).resolve().parents[1]
TINY = ["--p", "60", "--n", "40", "--p1", "4"]

SCRIPTS = {
    "run_estimator_comparison.py": ["--reps", "3", "--mc", "50", *TINY],
    "run_fdr_comparison.py": ["--reps", "3", "--mc", "50", "--t", "0.01", "--alpha", "0.1", *TINY],
    "run_variance_study.py": ["--reps", "20", "--mc", "20", "--t", "0.01", *TINY],
    "run_convergence_study.py": ["--reps", "20", "--p-grid", "40,60", "--t-grid", "0.05", "--n", "30", "--p1", "4"],
    "run_stream_spread_study.py": [
        "--reps-grid", "20,40", "--spread-seeds", "1,2", "--spread-reps", "20", "--mc", "50", "--t", "0.01",
        "--seed", "3", "--kind", "two_factor", *TINY,
    ],
}


def run_script(name, *args):
    """stdout of scripts/<name> run with args; it must exit 0."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    completed = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def run_preset(name, out_dir):
    assert f"written to {out_dir}" in run_script(name, *SCRIPTS[name], "--out", str(out_dir))


@pytest.mark.parametrize("name", ["run_estimator_comparison.py", "run_fdr_comparison.py"])
def test_experiment_scripts_write_loadable_output(tmp_path, name):
    run_preset(name, tmp_path)
    for kind in SCENARIO_KINDS:
        output = load_output(tmp_path / kind)
        assert output.config.scenario.kind == kind


def test_variance_study_script(tmp_path):
    run_preset("run_variance_study.py", tmp_path)
    for kind in SCENARIO_KINDS:
        result = json.loads((tmp_path / f"{kind}.json").read_text())
        assert result["config"]["scenario"]["kind"] == kind
        assert result["var_numerator_all"] >= 0.0


def test_convergence_study_script(tmp_path):
    run_preset("run_convergence_study.py", tmp_path)
    summary = json.loads((tmp_path / "convergence_summary.json").read_text())
    assert set(summary["ks"]["0.05"]) == {"40", "60"}
    for p in (40, 60):
        assert (tmp_path / f"convergence_p{p}_t0.05.csv").exists()


def test_stream_spread_study_script(tmp_path):
    run_preset("run_stream_spread_study.py", tmp_path)
    study = json.loads((tmp_path / "stream_spread.json").read_text())
    assert [run["seed"] for run in study["spread"]] == [1, 2]
    grid = study["reps_grid"]
    assert set(grid["schemes"]) == {"one_stream", "per_replication"}
    for scheme in grid["schemes"].values():
        assert set(scheme["by_n_reps"]) == {"20", "40"}
    # The one-stream scheme is the harness's own: its reading is variance_study's.
    scenario = Scenario(kind="two_factor", p=60, n=40, p1=4, beta=1.0, sigma=2.0)
    result = variance_study(scenario, t=0.01, n_reps=40, n_mc=50, seed=3)
    assert grid["formula"] == result["var_numerator_all"]
    assert grid["schemes"]["one_stream"]["by_n_reps"]["40"]["var_V"] == result["var_V_empirical"]
    assert grid["schemes"]["per_replication"]["by_n_reps"]["40"]["var_V"] != result["var_V_empirical"]


def test_lad_timing_script():
    args = ["--seeds", "1,2", "--reps", "2", "--rounds", "2", "--p", "200", "--n", "40", "--p1", "4"]
    lines = run_script("time_lad_fits.py", *args).splitlines()
    assert lines[0].startswith("fits: 4 (m=150 k=")
    assert lines[1].startswith("ms per fit: ")
    assert lines[2].startswith("pivots: p50 ")
    assert lines[3] == "certified: 1.000"


def test_bench_pairs_script(tmp_path):
    # The same checkout on both sides, at smoke-test sizes: the file has BENCH_<n>.json's layout.
    out = tmp_path / "BENCH.json"
    args = [
        "--parent", str(ROOT), "--change", str(ROOT), "--parent-commit", "a", "--change-commit", "b",
        "--workloads", "variance_study", "--seeds", "3", "--pairs", "2", "--seconds", "0.2", "--tiny",
        "--claim", "variance_study:peak_rss_mb:0.5", "--unseen-seeds", "3", "--out", str(out),
    ]
    assert f"written to {out}" in run_script("bench_pairs.py", *args)
    bench = json.loads(out.read_text())
    assert bench["commits"] == {"parent": "a", "change": "b"}
    assert bench["version"]["parent"] == bench["version"]["change"]
    assert [(w["workload"], w["seed"], w["pairs"]) for w in bench["workloads"]] == [("variance_study", 3, 2)]
    for entry in bench["workloads"]:
        assert set(entry["metrics"]) == {"setup_s", "work_s", "peak_rss_mb"}
        assert entry["failed_ops"] == {"parent": 0, "change": 0}
        rss = entry["metrics"]["peak_rss_mb"]
        assert len(rss["runs_parent"]) == len(rss["runs_change"]) == 2
        assert rss["parent"]["q1"] <= rss["parent"]["median"] <= rss["parent"]["q3"]
    # One checkout against itself gains nothing.
    assert set(bench["claim"]) == {"metric", "workload", "target", "seed_3_not_used_while_building"}
    assert not bench["claim"]["seed_3_not_used_while_building"]["met"]
