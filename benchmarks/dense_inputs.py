"""Write the dense_cli inputs: sigma.csv and z.csv, made from a seed.

sigma is the sample correlation of a two-factor design (n = 100 rows),
written as a headerless dense CSV with every float in round-trip form, so
the file parses back to an exactly symmetric matrix with a unit diagonal.
z is drawn from N(mu, sigma) as mu + X'g / sqrt(n - 1), where X is the
standardized design; the first p1 coordinates carry the mean shift
sqrt(n) * beta * sd / sigma_noise of the paper's simulation design.

Uses numpy only, never pfa, so a change to pfa's generators does not change
the benchmark's inputs.

    python3 benchmarks/dense_inputs.py --seed 1 --p 2000 --p1 10 --out DIR
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

N_ROWS = 100
BETA = 1.0
NOISE_SD = 2.0


def make_inputs(seed: int, p: int, p1: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(np.random.SeedSequence([seed, p]))
    n = N_ROWS
    design = rng.standard_normal((n, 2)) @ rng.uniform(-1.0, 1.0, (2, p)) + rng.standard_normal((n, p))
    centered = design - design.mean(axis=0)
    sds = np.sqrt(np.sum(np.square(centered), axis=0) / (n - 1))
    standardized = centered / sds
    sigma = standardized.T @ standardized / (n - 1)
    sigma = (sigma + sigma.T) / 2.0
    np.fill_diagonal(sigma, 1.0)
    mu = np.zeros(p)
    mu[:p1] = np.sqrt(n) * BETA * sds[:p1] / NOISE_SD
    z = mu + standardized.T @ rng.standard_normal(n) / np.sqrt(n - 1)
    return sigma, z


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--p", type=int, required=True)
    parser.add_argument("--p1", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    sigma, z = make_inputs(args.seed, args.p, args.p1)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with (out / "sigma.csv").open("w") as handle:
        for row in sigma.tolist():
            handle.write(",".join(map(repr, row)))
            handle.write("\n")
    (out / "z.csv").write_text("".join(f"{value!r}\n" for value in z.tolist()))


if __name__ == "__main__":
    main()
