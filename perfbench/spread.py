"""Run the benchmark several times per workload and report each metric's spread.

    python3 perfbench/spread.py [--runs 10] [--first-seed 100] [workload ...]

Each run is an end-to-end run (--trace 0) of BENCHMARK.json's run_seconds,
as the bounds are checked.  Spread is the distance between the first and
third quartiles of the runs' values (statistics.quantiles, n=4) as a share of
their median; the bounds in BENCHMARK.json are meant to sit at three times
the spread or more.  Raw results are appended to .perfbench_work/spread.jsonl.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    log = ROOT / ".perfbench_work" / "spread.jsonl"
    log.parent.mkdir(exist_ok=True)
    status = 0
    for workload in args.workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            elapsed = time.monotonic() - t0
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(log, "a") as fh:
                fh.write(json.dumps(dict(result, workload=workload, seed=seed,
                                         exit=proc.returncode, wall_s=elapsed)) + "\n")
            if proc.returncode or not result["correct"]:
                print(f"{workload} seed {seed}: exit {proc.returncode}, {result}")
                status = 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, vals in sorted(values.items()):
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound}  {'ok' if spread < bound / 3 else 'WIDE'}"
            print(f"{workload:<16} {name:<40} median {med:.6g}  spread {spread:.4f}{flag}")
    return status


if __name__ == "__main__":
    sys.exit(main())
