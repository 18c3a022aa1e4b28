#!/usr/bin/env python3
"""Variance of the false-discovery count across the six dependence structures.

For each scenario: the empirical variance of V(t) over many statistic draws
next to the Monte-Carlo variance of the conditional false-count numerator
(all-index and true-null versions). Writes one JSON per scenario.
"""

import argparse
import json
from pathlib import Path

from pfa.factors import DEFAULT_N_MC
from pfa.harness import variance_study
from pfa.simulate import SCENARIO_KINDS, Scenario


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=10000)
    parser.add_argument("--mc", type=int, default=DEFAULT_N_MC)
    parser.add_argument("--t", type=float, default=0.001)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--p", type=int, default=2000)
    parser.add_argument("--n", type=int, default=100)
    parser.add_argument("--p1", type=int, default=10)
    parser.add_argument("--out", default="results/variance_study")
    args = parser.parse_args()

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for kind in SCENARIO_KINDS:
        scenario = Scenario(kind=kind, p=args.p, n=args.n, p1=args.p1)
        result = variance_study(
            scenario, t=args.t, n_reps=args.reps, n_mc=args.mc, seed=args.seed
        )
        path = out_dir / f"{kind}.json"
        path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
        print(
            f"{kind:20s} k={result['k']:4d} mean V={result['mean_V']:.3f} "
            f"var V={result['var_V_empirical']:.2f} "
            f"var formula (all)={result['var_numerator_all']:.2f} "
            f"var formula (nulls)={result['var_numerator_nulls']:.2f}"
        )
    print(f"written to {out_dir}")


if __name__ == "__main__":
    main()
