"""Command-line front end.

    fptmc run --config FILE [--engine unif|cmc|both] [--runs N] [--dt D]
              [--seed S] [--workers W] [--out DIR]
    fptmc validate --config FILE

Exit codes: 0 success, 1 configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import sys

from .config import ENGINES, ConfigError, apply_overrides, parse_config
from .report import format_report, run_experiment

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fptmc",
        description="First-passage-time Monte Carlo for multivariate jump-diffusions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the configured experiment")
    run.add_argument("--config", required=True, help="configuration file")
    run.add_argument("--engine", choices=ENGINES)
    run.add_argument("--runs", type=int)
    run.add_argument("--dt", type=float)
    run.add_argument("--seed", type=int)
    run.add_argument("--workers", type=int)
    run.add_argument("--out", help="output directory")

    val = sub.add_parser("validate", help="check a configuration file")
    val.add_argument("--config", required=True, help="configuration file")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.command == "run":
            cfg = apply_overrides(
                cfg,
                engine=args.engine,
                runs=args.runs,
                dt=args.dt,
                seed=args.seed,
                workers=args.workers,
                out=args.out,
            )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        print(f"OK: {args.config}")
        print(
            f"m = {cfg.m}, engine = {cfg.engine}, runs = {cfg.runs}, "
            f"horizon = {cfg.horizon}, lambda = {cfg.jump_rate}"
        )
        return 0

    try:
        report = run_experiment(cfg)
    except Exception as exc:  # runtime failure: I/O, numerical setup, ...
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(format_report(report))
    print(f"outputs written to {cfg.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
