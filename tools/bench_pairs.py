"""Alternating parent/change benchmark runs, summarized into one BENCH_*.json file.

    python3 tools/bench_pairs.py PARENT --out BENCH_<n>.json [--pairs 10] [--scratch DIR]

Run from the root of a source checkout: the working tree is the change. The
PARENT commit is exported with `git archive` into DIR (the system's temporary
directory by default), which leaves the repository's own state as it was.
Each pair runs, in both trees,

    python3 perfbench/run.py --workload W --seed s --seconds 36 --trace 0

on each of the three workloads for the benchmark's 36 s, with seed s = 1, 2,
... for pair s, the parent first in odd pairs and the change first in even
ones, and reads each run's last stdout line,
{"correct", "attempted", "failed", "metrics"}. Each tree's Tier-1 suite is
timed once, wall clock. perfbench/ is run as it is; this script reads no
bound and changes none.

The output holds, per workload and metric, each side's median and
quartiles, the number of pairs in which the change read lower, the seeds
and the failed calls of every run; the machine; and both commits.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

WORKLOADS = ("msd_exact", "logs_score", "mission_heldout")
SECONDS = 36   # the benchmark's run length, the same for every recorded pair
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]


def git(*args: str) -> str:
    return subprocess.run(["git", *args], capture_output=True, text=True,
                          check=True).stdout.rstrip()


def export(commit: str, dest: Path) -> Path:
    """The files of commit, written into a fresh dest."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", commit], capture_output=True,
                             check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def parse_run(stdout: str) -> dict | None:
    """A perfbench run's result line, the last non-empty line of its stdout; None if absent."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None
    if not isinstance(result, dict) or not {"correct", "failed", "metrics"} <= result.keys():
        return None
    return result


def run_perfbench(tree: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    result = parse_run(proc.stdout)
    if result is None:   # a crashed run: no metrics, and every call counts as failed
        return {"correct": False, "attempted": None, "failed": None, "metrics": {},
                "exit": proc.returncode, "stderr": proc.stderr[-2000:]}
    return dict(result, exit=proc.returncode)


def quartiles(values: list) -> dict:
    if not values:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1
                   else values * 3)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def summarize(pairs: list) -> dict:
    """Per workload: seeds, failed calls and per-metric statistics of a list of pair records.

    A pair record is {"workload", "seed", "parent": result, "change": result}.
    Every benchmark metric is lower-is-better.
    """
    out = {}
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        mine = [p for p in pairs if p["workload"] == workload]
        names = sorted({m for p in mine for side in ("parent", "change")
                        for m in p[side]["metrics"]})
        metrics = {}
        for name in names:
            value = {side: [p[side]["metrics"].get(name, {}).get("value") for p in mine]
                     for side in ("parent", "change")}
            both = [(a, b) for a, b in zip(value["parent"], value["change"])
                    if a is not None and b is not None]
            parent, change = (quartiles([v for v in value[s] if v is not None])
                              for s in ("parent", "change"))
            gain = (None if parent["median"] is None or change["median"] is None
                    else parent["median"] - change["median"])
            metrics[name] = {
                "parent": parent, "change": change,
                "pairs": len(both), "change_lower": sum(b < a for a, b in both),
                "median_gain": gain,
                "gain_exceeds_parent_iqr": (None if gain is None
                                            else gain > parent["q3"] - parent["q1"]),
                "values": value,
            }
        out[workload] = {
            "seeds": [p["seed"] for p in mine],
            "failed": {side: [p[side]["failed"] for p in mine] for side in ("parent", "change")},
            "correct": {side: [p[side]["correct"] for p in mine]
                        for side in ("parent", "change")},
            "metrics": metrics,
        }
    return out


def machine() -> dict:
    import numpy as np

    cpuinfo = Path("/proc/cpuinfo")
    models = [line.split(":", 1)[1].strip() for line in
              (cpuinfo.read_text().splitlines() if cpuinfo.exists() else [])
              if line.startswith("model name")]
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "cpu_model": models[0] if models else platform.processor(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def tier1_wall(tree: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(tree / "src"), os.environ.get("PYTHONPATH")) if p))
    t0 = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    tail = [line for line in proc.stdout.splitlines() if line.strip()]
    return {"wall_s": wall, "summary": tail[-1] if tail else "", "exit": proc.returncode}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the commit to compare against, e.g. HEAD~1")
    parser.add_argument("--out", required=True, help="the JSON file to write")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--scratch", type=Path, default=Path(tempfile.gettempdir()))
    args = parser.parse_args(argv)

    change = Path.cwd()
    commits = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", "HEAD"),
               # the working tree runs as the change: files it holds that HEAD does not
               "change_modified": git("status", "--porcelain", "--untracked-files=no").splitlines()}
    parent = export(commits["parent"], args.scratch / f"bench-parent-{commits['parent'][:12]}")
    trees = {"parent": parent, "change": change}
    record = {"commits": commits, "machine": machine(), "seconds": SECONDS,
              "pairs_per_workload": args.pairs, "command": "perfbench/run.py --trace 0",
              "tier1": {side: tier1_wall(tree) for side, tree in trees.items()}}

    pairs = []
    for workload in WORKLOADS:
        for i in range(args.pairs):
            seed = i + 1
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"workload": workload, "seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_perfbench(trees[side], workload, seed)
            pairs.append(pair)
            print(json.dumps({k: pair[k] for k in ("workload", "seed", "first")}
                             | {s: pair[s]["metrics"] for s in ("parent", "change")}),
                  flush=True)
            record["workloads"] = summarize(pairs)
            record["crashed_runs"] = [
                {"workload": p["workload"], "seed": p["seed"], "side": side,
                 "exit": p[side]["exit"], "stderr": p[side]["stderr"]}
                for p in pairs for side in ("parent", "change") if "stderr" in p[side]]
            Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
