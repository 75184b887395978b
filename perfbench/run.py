"""Benchmark `lqr-influence run` end to end, or per layer with tracing.

    python3 perfbench/run.py --workload msd_exact --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` directory and nowhere else.  Each run is a closed loop with one
client: `lqrinfluence.cli.main(["run", config, "--out", dir])` in-process,
one call at a time, over the workload's input pool in an order fixed by
`--seed`, until `--seconds` have passed.  Every call is checked against the
stored reference outputs (see gate.py).  BLAS runs on THREADS threads.

The benchmark pins itself (and the processes it starts) to one CPU.  Times
are reported in reference-speed seconds: each wall time is divided by the
slowdown a fixed kernel shows right around it on that CPU (see
calibrate.py), which takes out most of the machine's own speed swings.  For a
workload with memory_bound_scoring, score_s is divided by the geometric mean
of that slowdown and a memory kernel's.  Wall times are printed and kept too.

--trace 0 reports the end-to-end metrics: the time per call (run_s) and its
fit + Riccati + scoring part (score_s, the report's score_pipeline_s), each
the mean over the pool of every input's median; the median time from a
fresh interpreter to an importable `lqrinfluence.cli` (setup_s, SETUP_SAMPLES
fresh processes spread evenly over the measured seconds, between calls); and
the peak memory of a fresh process running one call (peak_rss_mb).
--trace 1 alternates untraced and traced calls on the same input, checks that
their outputs are byte-identical, and reports per-layer self times and
counters per call plus the tracing overhead, as a difference and as a ratio.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Details, samples and spans go to .perfbench_work/<workload>/.
"""
from __future__ import annotations

import os

# fixed before numpy loads: one BLAS thread is both the steadiest and, for the
# small Riccati matrices that dominate two workloads, the fastest setting
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse
import contextlib
import gc
import io
import itertools
import json
import math
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = Path(".perfbench_work")   # relative to ROOT, the working directory
SETUP_SAMPLES = 13
CHILD_TIMEOUT_S = 150

SETUP_CHILD = "import time, lqrinfluence.cli; print(time.monotonic())"
# Peak resident memory less the file-backed pages still mapped at exit: the
# shared libraries' pages count in 2 MB folios or not depending on the page
# cache, which moved the plain peak RSS of one and the same run by 20 MB.
RSS_CHILD = (
    "import sys, lqrinfluence.cli as cli\n"
    "rc = cli.main(sys.argv[1:])\n"
    "kb = {k: int(v.split()[0]) for k, v in (l.split(':', 1) for l in open('/proc/self/status'))\n"
    "      if k in ('VmHWM', 'RssFile')}\n"
    "print(rc, kb['VmHWM'] - kb['RssFile'])\n"
)


class SourceMissing(Exception):
    pass


def bootstrap() -> None:
    """Import the program from this checkout's src/, or raise SourceMissing."""
    if not (SRC / "lqrinfluence" / "cli.py").is_file():
        raise SourceMissing(f"no lqrinfluence sources under {SRC}")
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    import lqrinfluence

    if not Path(lqrinfluence.__file__).resolve().is_relative_to(SRC):
        raise SourceMissing(f"lqrinfluence imported from {lqrinfluence.__file__}, not {SRC}")


def run_cli(cfg_path: Path, out_dir: Path) -> tuple[int, float, float, float]:
    """One in-process `lqr-influence run`.

    Returns (exit code, wall seconds, slowdown, memory slowdown), each
    slowdown the mean of its probe's readings just before and just after
    the call.
    """
    from calibrate import memory_slowdown, slowdown
    from lqrinfluence import cli

    shutil.rmtree(out_dir, ignore_errors=True)
    gc.collect()
    memory_before = memory_slowdown()
    before = slowdown()
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        try:
            code = cli.main(["run", str(cfg_path), "--out", str(out_dir)])
        except Exception as exc:  # a crash is a failed call, not a failed benchmark
            print(f"{type(exc).__name__}: {exc}", file=sys.__stderr__)
            code = -1
        elapsed = time.perf_counter() - t0
    after = slowdown()
    return code, elapsed, (before + after) / 2.0, (memory_before + memory_slowdown()) / 2.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def measure_setup() -> tuple[float, float]:
    """(wall seconds, slowdown) of one fresh interpreter, from spawn to
    `lqrinfluence.cli` imported."""
    from calibrate import slowdown

    before = slowdown()
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", SETUP_CHILD], env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          check=True)
    wall = float(proc.stdout.split()[-1]) - t0
    return wall, (before + slowdown()) / 2.0


def measure_rss(cfg_path: Path, out_dir: Path) -> tuple[int, float]:
    """(exit code, peak anonymous RSS in MB) of a fresh process running one call."""
    shutil.rmtree(out_dir, ignore_errors=True)
    proc = subprocess.run([sys.executable, "-c", RSS_CHILD, "run", str(cfg_path),
                           "--out", str(out_dir)],
                          env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        return proc.returncode, float("nan")
    code, peak_kb = proc.stdout.split("\n")[-2].split()
    return int(code), int(peak_kb) / 1024.0


def tail(values: list):
    """(q, value) for the highest of p99/p95/p90/p75/p50 with >= 10 samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    for q in (99, 95, 90, 75, 50):
        idx = math.ceil(q / 100 * n) - 1
        if n - 1 - idx >= 10:
            return q, ordered[idx]
    return None


def summary_line(name: str, values: list, unit: str) -> str:
    med = statistics.median(values)
    t = tail(values)
    tail_txt = f"p{t[0]} {t[1]:.6g}" if t else "tail n/a (<11 samples)"
    return f"{name:<14} median {med:.6g} {unit}  {tail_txt}  n={len(values)}"


def pin_to_one_cpu() -> int:
    """Pin this process, and so every process it starts, to its lowest CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def environment() -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": THREADS,
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
    }


class Run:
    """One benchmark run: inputs, the call loop, the gate tallies."""

    def __init__(self, workload, seed: int):
        from gate import load_reference
        from workloads import input_order, write_inputs

        self.workload = workload
        self.work = WORK / workload.name
        self.work.mkdir(parents=True, exist_ok=True)
        self.clean()
        self.reference = load_reference(workload.name)
        self.order = input_order(workload, seed)
        self.configs = {i: write_inputs(workload, i, self.work) for i in self.order}
        self.attempted = 0
        self.problems = []
        self.new_keys = []   # report keys the reference does not have

    def check(self, code: int, out_dir: Path, input_id: int) -> bool:
        from gate import run_problems

        self.attempted += 1
        notes = []
        problems = run_problems(code, out_dir, input_id, self.reference[input_id], notes)
        self.new_keys.extend(k for k in notes if k not in self.new_keys)
        if problems:
            self.problems.append((input_id, problems))
        return not problems

    @property
    def failed(self) -> int:
        return len(self.problems)

    def inputs(self, seconds: float):
        """Inputs in seed order, cycling, until the time is up and each was seen once."""
        start = time.perf_counter()
        for n, input_id in enumerate(itertools.cycle(self.order)):
            if n >= len(self.order) and time.perf_counter() - start >= seconds:
                return
            yield input_id

    def clean(self) -> None:
        for path in self.work.iterdir():
            if path.is_dir():
                shutil.rmtree(path)
            elif not path.name.startswith(("result-", "spans-")):
                path.unlink()


def read_timings(out_dir: Path) -> dict:
    return json.loads((out_dir / "report.json").read_text())["timings"]["per_seed"][0]


def pool_mean(by_input: dict) -> float:
    """Mean over inputs of each input's median, so every input weighs the same
    however many times a run got to visit it."""
    return statistics.fmean(statistics.median(v) for v in by_input.values())


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    """Untraced metrics; returns (metrics, details)."""
    first = run.order[0]
    code, peak_mb = measure_rss(run.configs[first], run.work / "out_rss")
    run.check(code, run.work / "out_rss", first)

    out = run.work / "out"
    code, *_ = run_cli(run.configs[first], out)   # warm-up: lazy imports, caches
    run.check(code, out, first)
    # (input id, slowdown, memory slowdown, wall run_s, score_pipeline_s, exact_sweep_s)
    calls = []
    setup = []   # (wall setup_s, slowdown)
    start = time.perf_counter()
    for input_id in run.inputs(seconds):
        # setup samples at an even pace over the run, so a slow spell of the
        # machine reaches only a few of them
        share = min(1.0, (time.perf_counter() - start) / seconds) if seconds > 0 else 1.0
        while len(setup) < math.ceil(SETUP_SAMPLES * share):
            setup.append(measure_setup())
        code, elapsed, slowdown, memory = run_cli(run.configs[input_id], out)
        if run.check(code, out, input_id):
            timing = read_timings(out)
            calls.append((input_id, slowdown, memory, elapsed, timing["score_pipeline_s"],
                          timing.get("exact_sweep_s")))
    while len(setup) < SETUP_SAMPLES:
        setup.append(measure_setup())

    wall = {name: {} for name in ("run_s", "score_s", "exact_s")}
    ref = {name: {} for name in wall}
    for input_id, slowdown, memory, *times in calls:
        score_slowdown = (math.sqrt(slowdown * memory) if run.workload.memory_bound_scoring
                          else slowdown)
        for name, t, divisor in zip(wall, times, (slowdown, score_slowdown, slowdown)):
            if t is not None:
                wall[name].setdefault(input_id, []).append(t)
                ref[name].setdefault(input_id, []).append(t / divisor)
    wall["setup_s"] = {"all": [w for w, _ in setup]}
    ref["setup_s"] = {"all": [w / f for w, f in setup]}
    metrics = {name: {"value": pool_mean(ref[name]), "unit": "s"}
               for name in ("run_s", "score_s", "setup_s") if ref[name]}
    if math.isfinite(peak_mb):
        metrics["peak_rss_mb"] = {"value": peak_mb, "unit": "MB"}
    details = {"calls": calls, "setup": setup, "wall": wall, "ref": ref}
    return metrics, details


def _same_outputs(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    for name in names:
        if name == "report.json":
            ra, rb = (json.loads((d / name).read_text()) for d in (a, b))
            ra.pop("timings")
            rb.pop("timings")
            if ra != rb:
                return False
        elif (a / name).read_bytes() != (b / name).read_bytes():
            return False
    return True


PER_CALL_SELF = ("linalg.solve_dare", "linalg.cholesky_factor", "linalg.solve_dlyap",
                 "sysid.fit_ridge", "lqr.riccati_artifacts", "influence.score_all",
                 "influence.build_score_table", "experiments.run_experiment",
                 "experiments.write_outputs", "cli.main")
PER_CALL_COUNTS = ("linalg.solve_dare.calls", "linalg.cholesky_factor.calls",
                   "sysid.load_dataset.calls", "sysid.loto_refit.calls",
                   "influence.diagnostics_from_record.calls", "bench.generate_dataset.calls",
                   "bench.generate_heldout.calls", "bench.heldout_prediction_scores.calls")
PER_CALL_SIZES = ("sysid.fit_ridge.model_bytes", "sysid.load_dataset.bytes_read",
                  "experiments.write_outputs.bytes_written")


def per_layer(run: Run, seconds: float) -> tuple[dict, dict]:
    """Traced metrics, per call; returns (metrics, details)."""
    from spans import MODULES, Tracer

    tracer = Tracer()
    plain, traced = run.work / "out_plain", run.work / "out_traced"
    code, *_ = run_cli(run.configs[run.order[0]], plain)   # warm-up
    run.check(code, plain, run.order[0])
    overhead, ratio, slowdown_of, n_traced = [], [], {}, 0
    for input_id in run.inputs(seconds):
        code, t_plain, s_plain, _ = run_cli(run.configs[input_id], plain)
        ok_plain = run.check(code, plain, input_id)
        tracer.trace_id += 1
        tracer.install()
        try:
            code, t_traced, s_traced, _ = run_cli(run.configs[input_id], traced)
        finally:
            tracer.uninstall()
        n_traced += 1
        slowdown_of[tracer.trace_id] = s_traced
        if run.check(code, traced, input_id) and ok_plain:
            if _same_outputs(plain, traced):
                overhead.append(t_traced / s_traced - t_plain / s_plain)
                ratio.append((t_traced / s_traced) / (t_plain / s_plain))
            else:
                run.problems.append((input_id, ["traced outputs differ from untraced"]))

    # times per call, in reference-speed seconds
    self_s = {k: t / n_traced for k, t in sorted(tracer.self_times(slowdown_of).items())}
    inclusive_s = {k: t / n_traced
                   for k, t in sorted(tracer.inclusive_times(slowdown_of).items())}
    counters = tracer.counters
    values = {}
    for module in MODULES:
        values[f"{module}.self_s"] = sum(
            t for name, t in self_s.items() if name.split(".")[0] == module)
    for name in PER_CALL_SELF:
        values[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in PER_CALL_COUNTS + PER_CALL_SIZES + ("influence.excluded",):
        values[name] = counters.get(name, 0.0) / n_traced
    values["linalg.cholesky_factor.max_dim"] = tracer.maxima["linalg.cholesky_factor.max_dim"]
    values["linalg.solve_dare.rel_residual_max"] = tracer.dare_residual_max()
    # where tracing costs less than the machine's noise, the difference can
    # read below 0; the ratio of each pair stays positive and comparable
    values["trace.overhead_s"] = statistics.median(overhead) if overhead else float("nan")
    values["trace.overhead_ratio"] = statistics.median(ratio) if ratio else float("nan")

    units = {"calls": "count", "max_dim": "count", "excluded": "count",
             "model_bytes": "B", "bytes_read": "B", "bytes_written": "B",
             "rel_residual_max": "ratio", "overhead_ratio": "ratio"}
    metrics = {name: {"value": v, "unit": units.get(name.rsplit(".", 1)[1], "s")}
               for name, v in values.items()}
    details = {
        "traced_calls": n_traced,
        "slowdown": slowdown_of,
        "overhead_s": overhead,
        "overhead_ratio": ratio,
        "self_s_per_call": self_s,
        "inclusive_s_per_call": inclusive_s,
        "calls_per_call": {k[:-6]: v / n_traced for k, v in sorted(counters.items())
                           if k.endswith(".calls")},
        "spans": tracer.span_records(),
    }
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        bootstrap()
        pin_to_one_cpu()
    except SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    run = Run(WORKLOADS[args.workload], args.seed)
    env = environment()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"inputs {run.order}")
    print("environment " + json.dumps(env))
    if args.trace:
        metrics, details = per_layer(run, args.seconds)
        spans = details.pop("spans")
        (run.work / f"spans-seed{args.seed}.json").write_text(json.dumps(spans))
        print(f"traced calls {details['traced_calls']}; per call, largest self time first:")
        print(f"  {'function':<38} {'self':>10}   {'inclusive':>10}   {'calls':>8}")
        for name, t in sorted(details["self_s_per_call"].items(), key=lambda kv: -kv[1]):
            incl = details["inclusive_s_per_call"][name]
            calls = details["calls_per_call"].get(name, 0.0)
            print(f"  {name:<38} {t:10.6f} s {incl:10.6f} s {calls:8.1f}")
    else:
        metrics, details = end_to_end(run, args.seconds)
        print("reference-speed seconds over all calls; pooled = mean over inputs of "
              "per-input medians (the metric); wall = the same in wall seconds")
        for name in ("run_s", "score_s", "exact_s", "setup_s"):
            ref, wall = details["ref"][name], details["wall"][name]
            if ref:
                print(summary_line(name, [t for v in ref.values() for t in v], "s")
                      + f"  pooled {pool_mean(ref):.6g} s  wall {pool_mean(wall):.6g} s")
        if "peak_rss_mb" in metrics:
            print(f"{'peak_rss_mb':<14} {metrics['peak_rss_mb']['value']:.6g} MB  n=1")
        out = run.work / "out"
        if (out / "report.json").exists():
            for entry in json.loads((out / "report.json").read_text())["per_seed"]:
                for key in ("spearman_stoch", "spearman_pred"):
                    if key in entry:
                        print(f"{key:<14} {entry[key]!r} (last input; deterministic)")
    for name, value in sorted(metrics.items()):
        print(f"metric {name} = {value['value']!r} {value['unit']}")
    print(f"failed_frac {run.failed}/{run.attempted} = {run.failed / max(run.attempted, 1):g}")
    if run.new_keys:
        print("report keys not in the reference (not checked): " + ", ".join(run.new_keys[:10]))
    for input_id, problems in run.problems[:5]:
        print(f"FAILED input {input_id}: " + "; ".join(problems[:3]), file=sys.stderr)

    # a value that could not be measured is left out, which fails the run
    metrics = {k: v for k, v in metrics.items() if math.isfinite(v["value"])}
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, environment=env, details=details)
    (run.work / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    run.clean()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
