#!/usr/bin/env python3
"""Realized FDR of the factor-adjusted rule versus step-up baselines.

For each dependence structure: the mean realized FDP at a fixed threshold,
the factor-model FDR value at that threshold (false-null count known), and
the realized FDR of the Benjamini-Hochberg and Storey step-up procedures
run at the target level. Writes the standard records/aggregates pair per
scenario.
"""

import argparse
from pathlib import Path

from pfa.factors import DEFAULT_N_MC
from pfa.harness import ExperimentConfig, run_experiment, write_output
from pfa.simulate import SCENARIO_KINDS, Scenario


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=10000)
    parser.add_argument("--mc", type=int, default=DEFAULT_N_MC)
    parser.add_argument("--t", type=float, default=0.001)
    parser.add_argument("--alpha", type=float, default=0.0667)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--p", type=int, default=2000)
    parser.add_argument("--n", type=int, default=200)
    parser.add_argument("--p1", type=int, default=10)
    parser.add_argument("--out", default="results/fdr_comparison")
    args = parser.parse_args()

    for kind in SCENARIO_KINDS:
        config = ExperimentConfig(
            scenario=Scenario(kind=kind, p=args.p, n=args.n, p1=args.p1),
            t_grid=(args.t,),
            n_reps=args.reps,
            seed=args.seed,
            n_mc=args.mc,
            with_estimators=False,
            control_alpha=args.alpha,
        )
        output = run_experiment(config)
        write_output(output, Path(args.out) / kind)
        summary = output.aggregates["per_t"][repr(float(args.t))]
        print(
            f"{kind:20s} mean FDP={summary['mean_fdp_true']:.4f} "
            f"factor FDR={summary['approx_fdr']:.4f} "
            f"BH={summary['mean_fdp_bh_proc']:.4f} "
            f"Storey={summary['mean_fdp_storey_proc']:.4f}"
        )
    print(f"written to {args.out}")


if __name__ == "__main__":
    main()
