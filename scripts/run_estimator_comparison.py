#!/usr/bin/env python3
"""Estimated versus realized FDP across the six dependence structures.

Per replication: the realized FDP at the threshold, the factor-adjusted
estimate (calibration set, L1 factor fit), and the dispersion-variate and
Storey baselines. Aggregates include the relative-error mean and SD for
the factor-adjusted and dispersion-variate estimators.
"""

import argparse
from pathlib import Path

from pfa.factors import DEFAULT_N_MC
from pfa.harness import ExperimentConfig, run_experiment, write_output
from pfa.lad import DEFAULT_FRACTION
from pfa.simulate import SCENARIO_KINDS, Scenario


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=1000)
    parser.add_argument("--mc", type=int, default=DEFAULT_N_MC)
    parser.add_argument("--t", type=float, default=0.005)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--p", type=int, default=1000)
    parser.add_argument("--n", type=int, default=100)
    parser.add_argument("--p1", type=int, default=50)
    parser.add_argument("--fraction", type=float, default=DEFAULT_FRACTION)
    # tiny tolerance keeps every positive factor of the singular sample
    # correlation; the exact-decomposition regime is where the estimator
    # comparison is sharpest when n < p
    parser.add_argument("--epsilon", type=float, default=1e-6)
    parser.add_argument("--out", default="results/estimator_comparison")
    args = parser.parse_args()

    for kind in SCENARIO_KINDS:
        config = ExperimentConfig(
            scenario=Scenario(kind=kind, p=args.p, n=args.n, p1=args.p1),
            t_grid=(args.t,),
            n_reps=args.reps,
            seed=args.seed,
            n_mc=args.mc,
            epsilon=args.epsilon,
            calibration_fraction=args.fraction,
            with_estimators=True,
        )
        output = run_experiment(config)
        write_output(output, Path(args.out) / kind)
        summary = output.aggregates["per_t"][repr(float(args.t))]
        print(
            f"{kind:20s} mean RE (factor)={summary['mean_re_pfa']:7.4f} "
            f"SD={summary['sd_re_pfa']:6.4f}   "
            f"mean RE (dispersion)={summary['mean_re_efron']:7.4f} "
            f"SD={summary['sd_re_efron']:6.4f}"
        )
    print(f"written to {args.out}")


if __name__ == "__main__":
    main()
