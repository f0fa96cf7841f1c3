"""Command-line front end: one subcommand per experiment.

Every experiment ships a built-in default configuration so each subcommand
runs out of the box; ``--config`` swaps in an INI file, ``--seed`` and
``--out`` override the two most common knobs, and ``--threads`` sets the FFT
worker count (the sweeps themselves stay sequential for reproducibility).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

from .config import log_spaced, parse_config
from .fields import GridSpec, set_fft_workers
from .harness import (
    EXPERIMENT_BILINEAR,
    EXPERIMENT_LIFTING,
    EXPERIMENT_MMS,
    EXPERIMENT_PICARD_STEADY,
    EXPERIMENT_PICARD_TP,
    EXPERIMENT_SCALING_STEADY,
    EXPERIMENT_SCALING_TP,
    EXPERIMENTS,
    ExperimentConfig,
    emit_csv,
    exponent_report,
    run_experiment,
)


def default_config(experiment: str) -> ExperimentConfig:
    """The built-in configuration for one experiment subcommand."""
    box = math.pi
    if experiment == EXPERIMENT_MMS:
        return ExperimentConfig(
            experiment=experiment,
            grid=GridSpec(3, box, 32),
            lambda_grid=(0.5, 2.0),
            q=4.0,
            r=2.0,
            time_modes=2,
        )
    if experiment == EXPERIMENT_SCALING_STEADY:
        return ExperimentConfig(
            experiment=experiment,
            grid=GridSpec(3, box, 64),
            lambda_grid=log_spaced(4.0 / box, 40.0 / box, 7),
            q=4.0,
            r=2.0,
            forcing_shell=(14.0, 18.0),
            drift_mode_cap=1,
        )
    if experiment == EXPERIMENT_SCALING_TP:
        return ExperimentConfig(
            experiment=experiment,
            grid=GridSpec(3, box, 32),
            lambda_grid=log_spaced(4.0 / box, 40.0 / box, 7),
            q=2.0,
            r=2.0,
            period=1.0,
            time_modes=1,
            forcing_shell=(7.0, 9.0),
            drift_mode_cap=1,
        )
    if experiment == EXPERIMENT_BILINEAR:
        return ExperimentConfig(
            experiment=experiment,
            grid=GridSpec(3, 1.0e7, 16),
            lambda_grid=log_spaced(10.0, 100.0, 7),
            q=4.0,
            r=2.0,
            lambda_ceiling=100.0,
            forcing_shell=(1.0, 1.8),
            sample_count=100,
        )
    if experiment == EXPERIMENT_PICARD_STEADY:
        return ExperimentConfig(
            experiment=experiment,
            grid=GridSpec(3, box, 32),
            lambda_grid=(1.0,),
            q=4.0,
            r=2.0,
            gamma=1.1,
            tol=1e-10,
        )
    if experiment == EXPERIMENT_PICARD_TP:
        return ExperimentConfig(
            experiment=experiment,
            grid=GridSpec(3, box, 24),
            lambda_grid=(1.0,),
            q=4.0,
            r=2.0,
            time_modes=2,
            gamma=1.1,
            tol=1e-10,
        )
    if experiment == EXPERIMENT_LIFTING:
        return ExperimentConfig(
            experiment=experiment,
            grid=GridSpec(3, box, 32),
            lambda_grid=log_spaced(1e-3, 1e-1, 7),
            q=2.0,
            r=2.0,
        )
    raise ValueError(f"no default configuration for {experiment!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oseenlab",
        description=(
            "Numerical laboratory for the drift (Oseen) solution operator on a "
            "periodic box and the small-data fixed-point construction built "
            "on it."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for experiment in EXPERIMENTS:
        each = sub.add_parser(experiment, help=f"run the {experiment} experiment")
        each.add_argument(
            "--config", help="INI file overriding the built-in configuration"
        )
        each.add_argument("--out", help="write the sweep table to this CSV path")
        each.add_argument("--seed", type=int, help="override the ensemble seed")
        each.add_argument(
            "--threads", type=int, help="FFT worker count (default 1)"
        )
    exponents = sub.add_parser(
        "exponents", help="print the exponent table for one (dim, q, r)"
    )
    exponents.add_argument("--dim", type=int, default=3)
    exponents.add_argument("--q", type=float, default=4.0)
    exponents.add_argument("--r", type=float, default=2.0)
    return parser


def _run_exponents(args) -> int:
    report = exponent_report(args.dim, args.q, args.r)
    for key, value in report.items():
        print(f"{key} = {value}")
    return 0


def _print_result(result) -> None:
    print(f"experiment: {result.experiment}")
    print(f"rows: {len(result.rows)}  columns: {len(result.columns)}")
    for name in sorted(result.constants):
        print(f"constant {name} = {result.constants[name]:.6g}")
    for name in sorted(result.slopes):
        print(f"slope {name} = {result.slopes[name]:.6g}")
    for flag in result.flags:
        print(f"note: {flag}")
    for check in result.checks:
        print(check.describe())
    print("ALL CHECKS PASSED" if result.all_passed else "CHECKS FAILED")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "exponents":
        return _run_exponents(args)
    if args.threads is not None:
        try:
            set_fft_workers(args.threads)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
    if args.config:
        cfg = parse_config(args.config)
        if cfg.experiment != args.command:
            print(
                f"error: config names experiment {cfg.experiment!r}, "
                f"subcommand is {args.command!r}",
                file=sys.stderr,
            )
            return 1
    else:
        cfg = default_config(args.command)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.out:
        cfg = dataclasses.replace(cfg, output_path=args.out)
    try:
        result = run_experiment(cfg)
    except Exception as error:  # noqa: BLE001 - the CLI reports, tests raise
        print(f"error: {error}", file=sys.stderr)
        return 1
    if cfg.output_path:
        emit_csv(result, cfg.output_path)
        print(f"wrote {cfg.output_path}")
    _print_result(result)
    return 0 if result.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
