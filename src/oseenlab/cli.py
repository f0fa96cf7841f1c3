"""Command-line front end: one subcommand per experiment.

Every experiment ships a built-in default configuration in the experiment
table at the end of :mod:`oseenlab.harness`, so each subcommand runs out of
the box.  ``--config`` replaces it with an INI file whose unset keys take the
:class:`~oseenlab.harness.ExperimentConfig` defaults (not the built-in
values); ``--seed`` and ``--out`` override the two most common knobs, and
``--threads`` sets the FFT worker count (the sweeps themselves stay
sequential for reproducibility).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .config import parse_config
from .fields import set_fft_workers
from .harness import (
    EXPERIMENTS,
    default_config,
    emit_csv,
    exponent_report,
    run_experiment,
)


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
            "--config",
            help="INI file replacing the built-in configuration; unset keys "
            "take the ExperimentConfig defaults",
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
    try:
        cfg = parse_config(args.config) if args.config else default_config(args.command)
        if cfg.experiment != args.command:
            raise ValueError(
                f"config names experiment {cfg.experiment!r}, "
                f"subcommand is {args.command!r}"
            )
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        if args.out:
            cfg = dataclasses.replace(cfg, output_path=args.out)
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
