"""Command-line entry point: run a configured experiment and write its outputs.

    lqr-influence run config.json --out results/ [--solver dense|cg]
                                                 [--no-exact] [--seeds 0,1,2]

Exit codes: 0 success, 1 config error (a malformed config, dataset file or
output directory), 2 numerical failure,
3 success with some trajectories excluded (their refit had no stabilizing
controller; they are listed in the report and flagged in the score CSVs).
"""
from __future__ import annotations

import argparse
import dataclasses
import sys

from .errors import InvalidConfig, LqrInfluenceError
from .experiments import load_config, run_experiment, write_outputs

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_PARTIAL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lqr-influence",
        description="Score trajectory influence on a certainty-equivalent LQR controller.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run an experiment from a JSON config")
    run.add_argument("config", help="path to the experiment config (JSON)")
    run.add_argument("--out", default="influence_run", help="output directory")
    run.add_argument("--solver", choices=["dense", "cg"], default=None,
                     help="override the config's linear solver")
    run.add_argument("--no-exact", action="store_true",
                     help="skip the exact leave-one-out sweep")
    run.add_argument("--seeds", default=None,
                     help="comma-separated seed override, e.g. 0,1,2")
    return parser


def _parse_seeds(text: str) -> tuple:
    try:
        seeds = tuple(int(s) for s in text.split(",") if s.strip() != "")
    except ValueError as exc:
        raise InvalidConfig(f"bad --seeds value {text!r}") from exc
    if not seeds:
        raise InvalidConfig("--seeds must name at least one seed")
    return seeds


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    try:
        cfg = load_config(args.config)
        overrides = {}
        if args.solver is not None:
            overrides["solver"] = args.solver
        if args.no_exact:
            overrides["run_exact_loto"] = False
        if args.seeds is not None:
            overrides["seeds"] = _parse_seeds(args.seeds)
        if overrides:
            cfg = dataclasses.replace(cfg, **overrides)
    except (InvalidConfig, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        report = run_experiment(cfg, progress=lambda msg: print(msg, file=sys.stderr))
        written = write_outputs(report, args.out)
    except (InvalidConfig, OSError) as exc:  # a bad dataset file or output directory
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except LqrInfluenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    for path in written:
        print(path)
    excluded = sum(len(e["excluded"]) for e in report.per_seed)
    if excluded:
        print(f"warning: {excluded} refit(s) excluded across seeds", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
