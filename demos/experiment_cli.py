"""The experiment runner end to end, the way the command line drives it.

Writes a config file, invokes the CLI entry point (`lqr-influence run`), and
walks the emitted artifacts: report.json with per-seed and aggregate metrics,
one score CSV per seed, scatter data for score-vs-exact plots, and the
remainder diagnostics.  Everything is deterministic given the config, so a
rerun reproduces the files byte for byte (timings live in their own section).
"""
import json
import tempfile
from pathlib import Path

from lqrinfluence.cli import main

config = {
    "system": {"kind": "dc_motor"},
    "generation": {"n_trajectories": 20, "t_min": 5, "t_max": 30},
    "seeds": [0, 1, 2],
    "lambda": 1e-3,
    "Q": "identity",
    "R": "identity",
    "top_k": 5,
    "run_exact_loto": True,
}

workdir = Path(tempfile.mkdtemp(prefix="influence_demo_"))
cfg_path = workdir / "experiment.json"
cfg_path.write_text(json.dumps(config, indent=2))
out_dir = workdir / "results"

code = main(["run", str(cfg_path), "--out", str(out_dir)])
print(f"\nexit code {code} (0 = success, 1 = config error, "
      "2 = numerical failure, 3 = partial with exclusions)")

report = json.loads((out_dir / "report.json").read_text())
print("\naggregate metrics over 3 seeds (mean / sample std):")
for name, stats in report["aggregate"].items():
    std = f" +/- {stats['std']:.3f}" if stats["std"] is not None else ""
    print(f"  {name:18s}: {stats['mean']:.3f}{std}")

speedup = report["timings"]["aggregate"]["speedup"]
print(f"\nexact sweep / scoring pipeline wall-time ratio: {speedup['mean']:.1f}x")

scatter = (out_dir / "scatter.csv").read_text().splitlines()
print(f"\nscatter.csv rows (score vs exact, for plotting): {len(scatter) - 1}")
print("   " + scatter[0])
for line in scatter[1:4]:
    print("   " + line)
