"""Command-line entry point: run a configured experiment and write its outputs.

    lqr-influence run config.json --out results/ [--no-exact] [--seeds 0,1,2]

Exit codes: 0 success, 1 config error (a malformed command line, config,
dataset file or output directory, or sizes too large to allocate), 2 numerical failure,
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


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits 2 on a usage error, the code this CLI documents for a numerical failure
    def error(self, message):
        raise InvalidConfig(f"{message}\n{self.format_usage().rstrip()}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="lqr-influence",
        description="Score trajectory influence on a certainty-equivalent LQR controller.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run an experiment from a JSON config")
    run.add_argument("config", help="path to the experiment config (JSON)")
    run.add_argument("--out", default="influence_run", help="output directory")
    run.add_argument("--no-exact", action="store_true",
                     help="skip the exact leave-one-out sweep")
    run.add_argument("--seeds", type=seed_list,
                     help="comma-separated seed override, e.g. 0,1,2")
    return parser


def seed_list(text: str) -> tuple:
    """--seeds' integers; argparse reports the ValueError of one that is not as a usage error."""
    return tuple(int(s) for s in text.split(",") if s.strip())


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = load_config(args.config)
        if args.no_exact:
            cfg = dataclasses.replace(cfg, run_exact_loto=False)
        if args.seeds is not None:   # ExperimentConfig rejects an empty list
            cfg = dataclasses.replace(cfg, seeds=args.seeds)
        report = run_experiment(cfg, progress=lambda msg: print(msg, file=sys.stderr))
        written = write_outputs(report, args.out)
    except (InvalidConfig, OSError) as exc:  # the command line, config, dataset or output directory
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:   # configured sizes no allocation can hold
        print(f"config error: the configured sizes do not fit in memory: {exc}", file=sys.stderr)
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
