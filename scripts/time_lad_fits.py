#!/usr/bin/env python3
"""Time `lad_regress` on the calibration fits of an estimator study.

Builds the fits that `run_experiment` makes with estimators on (two_factor,
calibration fraction 0.75 and epsilon = 0.01 as in the estimator study; by
default p = 1000, n = 100, p1 = 50): for each seed, the scenario's factor
model and one calibration set per replication. Then it times every fit
once per round, in the same order each round, so that slow spells of the
machine spread over all fits. Prints ms per fit as median [q1, q3] over
every timed call, the pivots per fit (iterations beyond the interior
steps) at p50 and max, and the share of fits certified optimal.

    PYTHONPATH=src python scripts/time_lad_fits.py --seeds 1,2,3 --reps 20 --rounds 12
"""

import argparse
import time

import numpy as np

from pfa import lad
from pfa.harness import ExperimentConfig, _draw_statistics, prepare_scenario
from pfa.simulate import Scenario


def calibration_fits(args):
    """(design, z) of every replication's calibration set, seed by seed."""
    scenario = Scenario(kind="two_factor", p=args.p, n=args.n, p1=args.p1)
    fits = []
    for seed in args.seeds:
        # epsilon and the calibration fraction are ExperimentConfig's defaults, as in the estimator study
        config = ExperimentConfig(scenario=scenario, t_grid=(0.005,), n_reps=args.reps, seed=seed)
        state = prepare_scenario(config)
        for _, statistics in _draw_statistics(config, state):
            for z in statistics:
                rows = lad.select_calibration_set(z, config.calibration_fraction)
                fits.append((state.model.loadings[rows], z[rows]))
    return fits


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=lambda text: [int(s) for s in text.split(",")], default=[1, 2, 3])
    parser.add_argument("--reps", type=int, default=20, help="replications (fits) per seed")
    parser.add_argument("--rounds", type=int, default=12)
    parser.add_argument("--p", type=int, default=1000)
    parser.add_argument("--n", type=int, default=100)
    parser.add_argument("--p1", type=int, default=50)
    args = parser.parse_args()

    fits = calibration_fits(args)
    results = [lad.lad_regress(design, z) for design, z in fits]  # also warms the calls
    seconds = np.empty((args.rounds, len(fits)))
    for r in range(args.rounds):
        for i, (design, z) in enumerate(fits):
            start = time.perf_counter()
            lad.lad_regress(design, z)
            seconds[r, i] = time.perf_counter() - start
    ms = 1e3 * seconds.ravel()
    q1, median, q3 = np.percentile(ms, [25, 50, 75])
    # An exact least-squares fit takes no interior steps and no pivots (iterations == 0).
    pivots = np.maximum(np.array([fit.iterations for fit in results]) - lad._INTERIOR_STEPS, 0)
    shapes = sorted({design.shape for design, _ in fits})
    print(f"fits: {len(fits)} ({', '.join(f'm={m} k={k}' for m, k in shapes)}), rounds: {args.rounds}")
    print(f"ms per fit: {median:.2f} [{q1:.2f}, {q3:.2f}]")
    print(f"pivots: p50 {np.median(pivots):g}, max {pivots.max()}")
    print(f"certified: {np.mean([fit.converged for fit in results]):.3f}")


if __name__ == "__main__":
    main()
