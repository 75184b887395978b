"""Capture the reference outputs the correctness gate compares against.

    python3 perfbench/capture.py [workload ...]

Runs every pool input of each workload once through `lqr-influence run` and
stores the checked outputs in reference/<workload>.json.gz.  References pin
the program's results as they were when captured; recapture only when a
change is meant to alter scores, and say so with the change.
"""
from __future__ import annotations

import sys

import run as harness


def capture(workload) -> int:
    from gate import consistency_problems, read_outputs, save_reference
    from workloads import write_inputs

    work = harness.WORK / "capture" / workload.name
    work.mkdir(parents=True, exist_ok=True)
    outputs = {}
    for input_id in workload.pool:
        out_dir = work / "out"
        code, elapsed, *_ = harness.run_cli(write_inputs(workload, input_id, work), out_dir)
        problems = [f"exit code {code}"] if code else consistency_problems(out_dir, input_id)
        if problems:
            print(f"{workload.name} input {input_id}: {problems}", file=sys.stderr)
            return 1
        outputs[input_id] = read_outputs(out_dir, input_id)
        excluded = [e["excluded"] for e in outputs[input_id]["report"]["per_seed"]]
        if any(excluded):
            print(f"{workload.name} input {input_id}: excluded {excluded}", file=sys.stderr)
            return 1
        print(f"{workload.name} input {input_id}: {elapsed:.3f} s")
    print(save_reference(workload.name, outputs))
    return 0


def main(argv: list) -> int:
    harness.bootstrap()
    from workloads import WORKLOADS

    names = argv or sorted(WORKLOADS)
    for name in names:
        if capture(WORKLOADS[name]):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
