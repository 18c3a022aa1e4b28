#!/usr/bin/env python3
"""Run the benchmark on two pfa checkouts in alternating pairs and write a BENCH_<n>.json file.

For each workload and seed, runs `benchmarks/run.py --trace 0` once from the
parent checkout and once from the change checkout per pair, one run at a
time, the parent first in odd pairs and the change first in even ones. For
each end-to-end metric it records every run, the median [q1, q3] of each side
(inclusive quartiles), the pairs in which the change read lower, the median
gap (parent minus change) against the parent's interquartile range, and
whether the change stays within the bound `BENCHMARK.json` declares.

A claimed gain (`--claim WORKLOAD:METRIC:RATIO`) is met on a seed when the
change's median is at most RATIO times the parent's, the change reads better
in at least 9 of 10 pairs, and the median gap exceeds the parent's IQR.
`--traced` adds one `--trace 1` run a side per workload (first seed), a
per-layer split rather than a measurement; `--tier1` adds one Tier-1 run a
side with its wall time.

Both checkouts are plain source trees (a `git archive` copy has no .git), so
their commits are passed in. Run from anywhere:

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --parent-commit 33b0209 --change-commit HEAD-tree-abc123 \\
        --workloads dense_cli --seeds 1,41 --pairs 10 --seconds 30 \\
        --claim dense_cli:peak_rss_mb:0.88 --title "..." --out BENCH_22.json
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def run_bench(checkout: Path, workload: str, seed: int, args, trace: int = 0) -> dict:
    """One run of the checkout's benchmarks/run.py: its machine, final JSON line and pass count."""
    command = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(trace), *(["--tiny"] if args.tiny else [])]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"error: {' '.join(command)} in {checkout} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    result["machine"] = json.loads(next(line for line in lines if line.startswith("machine: "))[len("machine: "):])
    result["passes"] = int(re.search(r" passes (\d+)", done.stdout).group(1))
    return result


def quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(median), 6), "q1": round(float(q1), 6), "q3": round(float(q3), 6)}


def wins(parent: list, change: list, better: str) -> int:
    """Pairs in which the change read better than the parent."""
    sign = 1.0 if better == "lower" else -1.0
    return sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))


def compare(runs: dict, unit: str, better: str, bound: float) -> dict:
    """Summary of one metric's paired runs, {side: [value per pair]}."""
    parent, change = (quartiles(runs[side]) for side in SIDES)
    sign = 1.0 if better == "lower" else -1.0
    return {
        "unit": unit,
        "parent": parent,
        "change": change,
        "change_over_parent_median": round(change["median"] / parent["median"], 4) if parent["median"] else None,
        f"change_{better}_in": f"{wins(runs['parent'], runs['change'], better)}/{len(runs['change'])}",
        "median_gap": round(sign * (parent["median"] - change["median"]), 6),
        "parent_iqr": round(parent["q3"] - parent["q1"], 6),
        "runs_parent": [round(v, 6) for v in runs["parent"]],
        "runs_change": [round(v, 6) for v in runs["change"]],
        "within_bound": sign * (change["median"] - parent["median"]) <= bound * abs(parent["median"]),
        "spread_below_bound": all(s["q3"] - s["q1"] <= bound * abs(s["median"]) for s in (parent, change)),
    }


def paired_runs(checkouts: dict, workload: str, seed: int, spec: dict, args, log) -> tuple[dict, dict]:
    """(workload entry of the BENCH file, machine of the last run) from args.pairs alternating pairs."""
    results = {side: [] for side in SIDES}
    for pair in range(1, args.pairs + 1):
        for side in SIDES if pair % 2 else SIDES[::-1]:
            result = run_bench(checkouts[side], workload, seed, args)
            results[side].append(result)
            values = {name: round(m["value"], 4) for name, m in result["metrics"].items()}
            log(f"{workload} seed {seed} pair {pair} {side}: {values} failed {result['failed']}")
    metrics = {
        m["name"]: compare(
            {side: [r["metrics"][m["name"]]["value"] for r in results[side]] for side in SIDES},
            m["unit"], m["better"], m["bound"],
        )
        for m in spec["end_to_end"]
    }
    entry = {
        "workload": workload,
        "seed": seed,
        "pairs": args.pairs,
        "order": "parent first in odd pairs, change first in even pairs",
        "metrics": metrics,
        "failed_ops": {side: sum(r["failed"] for r in results[side]) for side in SIDES},
        "attempted_ops": {side: sum(r["attempted"] for r in results[side]) for side in SIDES},
        "all_correct": {side: all(r["correct"] for r in results[side]) for side in SIDES},
    }
    return entry, results["change"][-1]["machine"]


def claim_verdict(metric: dict, better: str, ratio: float) -> dict:
    """Whether a metric summary meets the claim: median ratio, 9/10 wins, gap above the parent's IQR."""
    won, pairs = wins(metric["runs_parent"], metric["runs_change"], better), len(metric["runs_change"])
    over = metric["change_over_parent_median"]
    reached = over is not None and (over <= ratio if better == "lower" else over >= ratio)
    return {
        "parent_median": metric["parent"]["median"],
        "change_median": metric["change"]["median"],
        "change_over_parent": over,
        "wins": f"{won}/{pairs}",
        "median_gap": metric["median_gap"],
        "parent_iqr": metric["parent_iqr"],
        "met": reached and won >= math.ceil(0.9 * pairs) and metric["median_gap"] > metric["parent_iqr"],
    }


def tier1(checkout: Path) -> dict:
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"],
        cwd=checkout, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": "src"},
    )
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    return {"result": lines[-1].strip("= ") if lines else "", "wall_s": round(time.perf_counter() - start, 2)}


def version(checkout: Path) -> str:
    text = (checkout / "src" / "pfa" / "__init__.py").read_text()
    return re.search(r"__version__\s*=\s*[\"']([^\"']+)", text).group(1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent source checkout")
    parser.add_argument("--change", type=Path, required=True, help="change source checkout")
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--change-commit", required=True)
    parser.add_argument("--workloads", type=lambda text: text.split(","), required=True)
    parser.add_argument("--seeds", type=lambda text: [int(s) for s in text.split(",")], default=[1])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--claim", help="WORKLOAD:METRIC:RATIO, e.g. dense_cli:peak_rss_mb:0.88")
    parser.add_argument("--unseen-seeds", type=lambda text: [int(s) for s in text.split(",")], default=[],
                        help="seeds of the claim not used while building the change")
    parser.add_argument("--traced", action="store_true", help="add one --trace 1 run a side per workload")
    parser.add_argument("--tier1", action="store_true", help="add one Tier-1 run a side")
    parser.add_argument("--tiny", action="store_true", help="pass --tiny to run.py (smoke-test sizes)")
    parser.add_argument("--title", default="")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())

    def log(message):
        print(message, file=sys.stderr, flush=True)

    entries, machine = [], None
    for workload in args.workloads:
        for seed in args.seeds:
            entry, machine = paired_runs(checkouts, workload, seed, spec, args, log)
            entries.append(entry)
    machine = {k: v for k, v in machine.items() if k not in ("pfa", "git_commit")}
    bounds = ", ".join(f"{m['name']} {m['bound']}" for m in spec["end_to_end"])
    bench = {
        "title": args.title,
        "version": {side: version(checkouts[side]) for side in SIDES},
        "commits": {"parent": args.parent_commit, "change": args.change_commit},
        "machine": machine,
        "method": {
            "command": f"python3 benchmarks/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0"
                       + (" --tiny" if args.tiny else ""),
            "pairing": "alternating parent/change pairs, parent first in odd pairs and change first in even "
                       "pairs, one run at a time",
            "summary": "median [q1, q3] of each side (inclusive quartiles); change_lower_in counts pairs where "
                       "the change read lower; median_gap is parent median minus change",
            "bounds": f"from BENCHMARK.json: {bounds} (relative worsening of the median); spread_below_bound: "
                      "each side's IQR is at most the bound times its median",
        },
    }
    if args.claim:
        workload, metric, ratio = args.claim.split(":")
        ratio = float(ratio)
        better = next(m["better"] for m in spec["end_to_end"] if m["name"] == metric)
        claim = {"metric": metric, "workload": workload,
                 "target": f"median at most {ratio:g} of the parent's, >= 9/10 wins, median gap above the parent IQR"}
        for entry in entries:
            if entry["workload"] == workload:
                unseen = "_not_used_while_building" if entry["seed"] in args.unseen_seeds else ""
                claim[f"seed_{entry['seed']}{unseen}"] = claim_verdict(entry["metrics"][metric], better, ratio)
        bench["claim"] = claim
    bench["workloads"] = entries
    if args.traced:
        seed = args.seeds[0]
        traced = {"command": f"python3 benchmarks/run.py --workload W --seed {seed} --seconds {args.seconds:g} "
                             "--trace 1 (one run a side; a split, not a measurement)"}
        for workload in args.workloads:
            traced[workload] = {}
            for side in SIDES:
                result = run_bench(checkouts[side], workload, seed, args, trace=1)
                traced[workload][side] = {"passes": result["passes"],
                                          **{n: round(m["value"], 6) for n, m in result["metrics"].items()}}
                log(f"{workload} traced {side}: {result['passes']} passes")
        bench["traced"] = traced
    if args.tier1:
        bench["tier1"] = {"command": "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors "
                                     "(one run a side, as pytest reports it)"}
        for side in SIDES:
            bench["tier1"][side] = tier1(checkouts[side])
            log(f"tier1 {side}: {bench['tier1'][side]}")
    args.out.write_text(json.dumps(bench, indent=1, ensure_ascii=False) + "\n")
    print(f"written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
