#!/usr/bin/env python3
"""Spread of the criterion-1 false-count variance gap over replication counts, streams and seeds.

For one variance-study scenario (by default the criterion-1 fan_song row:
p = 2000, n = 100, p1 = 10, t = 0.001, n_mc = 100,000, seed 20260811) the
gap is (var(V) - formula) / formula, where var(V) is the empirical variance
of the false-discovery count over the replications and formula is the
Monte-Carlo variance of the conditional false-count numerator, as
`variance_study` reports them. Each gap comes with the standard error that
the replication spread alone puts on it (from the fourth central moment of
V); the formula's own Monte-Carlo error is not in it. The gap is read on
two replication-stream schemes:

- `one_stream`: the harness's draws (`_draw_statistics`), one generator for
  all replications;
- `per_replication`: the streams of pfa 0.6.0 and earlier, one
  `SeedSequence` per replication keyed by its index.

Replication i is the same draw whatever the replication count, on both
schemes, so the gap at each count of --reps-grid comes from prefixes of one
run. The run is then repeated under each seed of --spread-seeds, at the
counts of --spread-reps; a seed redraws the design and the Monte-Carlo
factor draws as well as the replications. Writes stream_spread.json.
"""

import argparse
import json
import time
from pathlib import Path

import numpy as np

from pfa.factors import standard_factor_draws
from pfa.harness import _NS_REPLICATION, ExperimentConfig, _draw_statistics, _mc_aggregates, prepare_scenario, substream
from pfa.simulate import Scenario, realized_counts

def per_replication_draws(config, state, chunk_size=256):
    """(reps, statistics) chunks drawn as pfa 0.6.0 did: one substream per replication."""
    for start in range(0, config.n_reps, chunk_size):
        reps = range(start, min(start + chunk_size, config.n_reps))
        noise = np.stack(
            [
                substream(config.seed, _NS_REPLICATION, *state.key, rep).standard_normal(config.scenario.n)
                for rep in reps
            ]
        )
        statistics = (noise if len(reps) > 1 else np.vstack([noise, noise])) @ state.x
        yield reps, statistics[: len(reps)] + state.mu


DRAWS = {"one_stream": _draw_statistics, "per_replication": per_replication_draws}


def gaps(scenario, t, n_mc, seed, counts) -> dict:
    """The formula, and per scheme var(V), the gap and the draw time at each replication count."""
    config = ExperimentConfig(scenario, (t,), max(counts), seed, n_mc=n_mc, with_estimators=False)
    state = prepare_scenario(config)
    draws = standard_factor_draws(state.model.k, n_mc, seed)
    formula = _mc_aggregates(config, state, draws)[0]["var_numerator_all"]
    result = {"seed": seed, "k": state.model.k, "formula": formula, "schemes": {}}
    for scheme, draw in DRAWS.items():
        started = time.perf_counter()
        false_counts = np.empty(config.n_reps)
        for reps, statistics in draw(config, state):
            false_counts[reps.start : reps.stop] = realized_counts(statistics, scenario.p1, t)[0]
        seconds = time.perf_counter() - started
        by_count = {}
        for count in counts:
            sample = false_counts[:count]
            var_v = float(np.var(sample, ddof=1))
            # Var(s^2) = (m4 - (n-3)/(n-1) s^4) / n: the replication spread alone, not the formula's.
            m4 = float(np.mean((sample - sample.mean()) ** 4))
            se = float(np.sqrt(max(m4 - (count - 3) / (count - 1) * var_v**2, 0.0) / count))
            by_count[str(count)] = {"var_V": var_v, "gap": (var_v - formula) / formula, "gap_se": se / formula}
        result["schemes"][scheme] = {"draw_s": seconds, "by_n_reps": by_count}
    return result


def _ints(text: str) -> list[int]:
    return [int(value) for value in text.split(",")]


def _print(result: dict, counts) -> None:
    print(f"seed {result['seed']}: k={result['k']} formula={result['formula']:.3f}")
    for scheme, data in result["schemes"].items():
        cells = " ".join(
            f"{c}:{data['by_n_reps'][str(c)]['gap']:+.1%}±{data['by_n_reps'][str(c)]['gap_se']:.1%}" for c in counts
        )
        print(f"  {scheme:16s} {cells}  ({data['draw_s']:.1f} s to draw {max(counts)})")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", default="fan_song")
    parser.add_argument("--p", type=int, default=2000)
    parser.add_argument("--n", type=int, default=100)
    parser.add_argument("--p1", type=int, default=10)
    parser.add_argument("--t", type=float, default=0.001)
    parser.add_argument("--mc", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=20260811)
    parser.add_argument("--reps-grid", type=_ints, default=[30_000, 60_000, 120_000, 240_000])
    parser.add_argument("--spread-seeds", type=_ints, default=list(range(1, 9)))
    parser.add_argument("--spread-reps", type=_ints, default=[30_000, 120_000, 240_000])
    parser.add_argument("--out", default="results/stream_spread")
    args = parser.parse_args()

    scenario = Scenario(kind=args.kind, p=args.p, n=args.n, p1=args.p1, beta=1.0, sigma=2.0)
    study = {
        "scenario": scenario.to_dict(),
        "t": args.t,
        "n_mc": args.mc,
        "reps_grid": gaps(scenario, args.t, args.mc, args.seed, args.reps_grid),
        "spread": [],
    }
    print(f"gap (var(V) - formula) / formula at n_reps {args.reps_grid}")
    _print(study["reps_grid"], args.reps_grid)
    print(f"spread over seeds {args.spread_seeds} at n_reps {args.spread_reps}")
    for seed in args.spread_seeds:
        study["spread"].append(gaps(scenario, args.t, args.mc, seed, args.spread_reps))
        _print(study["spread"][-1], args.spread_reps)
    for scheme in DRAWS:
        for count in args.spread_reps:
            values = [run["schemes"][scheme]["by_n_reps"][str(count)]["gap"] for run in study["spread"]]
            print(
                f"{scheme:16s} n_reps {count}: gap over {len(values)} seeds "
                f"min {min(values):+.1%} median {float(np.median(values)):+.1%} max {max(values):+.1%}"
            )

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "stream_spread.json").write_text(json.dumps(study, indent=2, sort_keys=True) + "\n")
    print(f"written to {out_dir}")


if __name__ == "__main__":
    main()
