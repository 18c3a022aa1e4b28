"""Command-line front end.

Subcommands:
    simulate     run a scenario experiment from a JSON config
    estimate     FDP estimate for observed statistics and a known correlation
    control      solve the threshold for a target approximate FDR
    convergence  empirical-versus-limit FDP histograms across dimensions

Exit codes: 0 success, 2 input error, 3 unreachable target rate,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .factors import build_factor_model, select_num_factors, standard_factor_draws
from .fdr import UnreachableAlphaError, approx_fdr, solve_threshold
from .harness import (
    ExperimentConfig,
    read_matrix_csv,
    read_vector_csv,
    run_convergence,
    run_estimate,
    run_experiment,
    write_output,
)
from .lad import RankDeficientError, ZeroEigenvalueError
from .linalg import NotPSDError, NotSymmetricError, spectral_decompose
from .simulate import Scenario, check_keys

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNREACHABLE = 3
EXIT_NUMERIC = 4


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _load_json(path: str) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from None


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


def _cmd_simulate(args: argparse.Namespace) -> int:
    data = _load_json(args.config)
    for flag, key in (
        ("seed", "seed"),
        ("reps", "n_reps"),
        ("mc", "n_mc"),
        ("epsilon", "epsilon"),
        ("fraction", "calibration_fraction"),
        ("alpha", "control_alpha"),
    ):
        value = getattr(args, flag)
        if value is not None:
            data[key] = value
    if "seed" not in data or data["seed"] is None:
        raise ValueError("a seed is required: set it in the config or pass --seed")
    try:
        config = ExperimentConfig.from_dict(data)
    except (TypeError, ValueError) as exc:  # TypeError: a value of the wrong JSON type
        raise ValueError(f"{args.config}: {exc}") from None
    output = run_experiment(config)
    records_path, aggregates_path = write_output(output, args.out)
    sys.stdout.write(f"records: {records_path}\naggregates: {aggregates_path}\n")
    return EXIT_OK


def _cmd_estimate(args: argparse.Namespace) -> int:
    # Argument ranges are checked before the matrix is read and decomposed.
    _require(0.0 < args.t < 1.0, f"threshold must lie in (0, 1), got {args.t}")
    _require(0.0 < args.epsilon < 1.0, f"epsilon must lie in (0, 1), got {args.epsilon}")
    _require(0.0 < args.fraction <= 1.0, f"fraction must lie in (0, 1], got {args.fraction}")
    sigma = read_matrix_csv(args.sigma)
    z = read_vector_csv(args.z)
    report = run_estimate(
        z,
        sigma,
        t=args.t,
        epsilon=args.epsilon,
        fraction=args.fraction,
    )
    _emit(report, args.out)
    return EXIT_OK


def _cmd_control(args: argparse.Namespace) -> int:
    _require(0.0 < args.alpha < 1.0, f"alpha must lie in (0, 1), got {args.alpha}")
    _require(0.0 < args.epsilon < 1.0, f"epsilon must lie in (0, 1), got {args.epsilon}")
    _require(args.p1 >= 0, f"p1 must not be negative, got {args.p1}")
    _require(args.mc >= 1, f"mc must be positive, got {args.mc}")
    _require(args.tol > 0.0, f"tol must be positive, got {args.tol}")
    sigma = read_matrix_csv(args.sigma)
    system = spectral_decompose(sigma)
    k = select_num_factors(system.values, args.epsilon)
    model = build_factor_model(system, k)
    draws = standard_factor_draws(k, args.mc, args.seed)
    try:
        result = solve_threshold(args.alpha, model, args.p1, draws, tol=args.tol)
    except UnreachableAlphaError as exc:
        _emit(
            {
                "version": __version__,
                "alpha": exc.alpha,
                "unreachable": True,
                "side": exc.side,
                "boundary_t": exc.boundary_t,
                "boundary_fdr": exc.boundary_fdr,
            },
            args.out,
        )
        return EXIT_UNREACHABLE
    grid = np.logspace(-10, np.log10(0.5), 40)
    curve = [
        {"t": float(t), "fdr": approx_fdr(float(t), model, args.p1, draws)}
        for t in grid
    ]
    _emit(
        {
            "version": __version__,
            "alpha": result.alpha,
            "t_star": result.t_star,
            "fdr_at_t": result.fdr_at_t,
            "mc_draws": args.mc,
            "seed": args.seed,
            "k": k,
            "p1": args.p1,
            "curve": curve,
        },
        args.out,
    )
    return EXIT_OK


def _cmd_convergence(args: argparse.Namespace) -> int:
    data = _load_json(args.config)
    required = ("p_grid", "t_grid", "n_reps", "seed")
    try:
        check_keys(data, "config", required, required + ("scenario", "epsilon"))
        settings = dict(
            scenario=Scenario.from_dict(data.get("scenario", {"kind": "two_factor"})),
            p_grid=tuple(int(p) for p in data["p_grid"]),
            t_grid=tuple(float(t) for t in data["t_grid"]),
            n_reps=int(data["n_reps"]),
            seed=int(data["seed"]),
            epsilon=float(data.get("epsilon", 0.01)),
        )
    except (TypeError, ValueError) as exc:  # TypeError: a value of the wrong JSON type
        raise ValueError(f"{args.config}: {exc}") from None
    summary = run_convergence(**settings, out_dir=args.out)
    sys.stdout.write(json.dumps(summary["ks"], indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pfa", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"pfa {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="run a scenario experiment")
    simulate.add_argument("--config", required=True, help="JSON experiment config")
    simulate.add_argument("--out", required=True, help="output directory")
    simulate.add_argument("--seed", type=int, help="override the config seed")
    simulate.add_argument("--reps", type=int, help="override the replication count")
    simulate.add_argument("--mc", type=int, help="override the Monte-Carlo draw count")
    simulate.add_argument("--epsilon", type=float, help="override the factor-count tolerance")
    simulate.add_argument("--fraction", type=float, help="override the calibration fraction")
    simulate.add_argument("--alpha", type=float, help="run the step-up baselines at this level")
    simulate.set_defaults(func=_cmd_simulate)

    estimate = sub.add_parser("estimate", help="estimate the FDP at a threshold")
    estimate.add_argument("--sigma", required=True, help="correlation matrix CSV")
    estimate.add_argument("--z", required=True, help="observed statistics CSV")
    estimate.add_argument("--t", type=float, required=True, help="p-value threshold")
    estimate.add_argument("--epsilon", type=float, default=0.01)
    estimate.add_argument("--fraction", type=float, default=0.75)
    estimate.add_argument("--out", help="write the JSON report here instead of stdout")
    estimate.set_defaults(func=_cmd_estimate)

    control = sub.add_parser("control", help="solve the threshold for a target FDR")
    control.add_argument("--sigma", required=True, help="correlation matrix CSV")
    control.add_argument("--p1", type=int, required=True, help="number of false nulls (assumed known)")
    control.add_argument("--alpha", type=float, required=True, help="target rate")
    control.add_argument("--epsilon", type=float, default=0.01)
    control.add_argument("--mc", type=int, default=10000)
    control.add_argument("--tol", type=float, default=1e-4)
    control.add_argument("--seed", type=int, default=0)
    control.add_argument("--out", help="write the JSON result here instead of stdout")
    control.set_defaults(func=_cmd_control)

    convergence = sub.add_parser("convergence", help="empirical vs limiting FDP histograms")
    convergence.add_argument("--config", required=True, help="JSON config with p_grid/t_grid/n_reps/seed")
    convergence.add_argument("--out", required=True, help="output directory")
    convergence.set_defaults(func=_cmd_convergence)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NotSymmetricError, NotPSDError) as exc:
        sys.stderr.write(f"error: invalid correlation matrix: {exc}\n")
        return EXIT_INPUT
    except (RankDeficientError, ZeroEigenvalueError, np.linalg.LinAlgError, FloatingPointError) as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return EXIT_NUMERIC
    except (ValueError, KeyError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
