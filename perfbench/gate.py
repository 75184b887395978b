"""Correctness gate: one `lqr-influence run` against the stored reference outputs.

A run passes when it exits 0, excludes no trajectory, its scatter and
diagnostics files agree with its score file, and every number matches the
reference captured from the seed implementation:

* report.json's deterministic sections (config, per_seed, aggregate), each
  number within RTOL of the reference value.  A key the reference lacks is
  noted, not failed, so the report can gain fields without a recapture; a
  missing key fails;
* every score-CSV column and the diagnostics-only columns, within RTOL of the
  column's largest reference magnitude.  The exact shift and the three
  remainders share one scale, the largest |delta_j_exact|, because the
  remainders are its second-order parts and carry its absolute round-off.

RTOL is the 1e-10 relative agreement a refactor must keep, so round-off from
a different Riccati solver or a Gram downdate passes and a changed score fails.
"""
from __future__ import annotations

import csv
import gzip
import json
import math
from pathlib import Path

RTOL = 1e-10
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REPORT_SECTIONS = ("config", "per_seed", "aggregate")
DIAGNOSTICS_ONLY = ("delta_theta_norm", "bound_w")
SHIFT_COLUMNS = ("delta_j_exact", "r_ric", "r_w", "r_cross")


def _cell(text: str):
    return None if text == "" else float(text)


def _read_csv(path: Path) -> tuple[list, list]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _columns(path: Path) -> dict:
    header, rows = _read_csv(path)
    return {name: [_cell(row[i]) for row in rows] for i, name in enumerate(header)}


def read_outputs(out_dir: Path, input_id: int) -> dict:
    """The checked part of one run's outputs, as plain JSON-able data."""
    out_dir = Path(out_dir)
    report = json.loads((out_dir / "report.json").read_text())
    det = {key: report[key] for key in REPORT_SECTIONS}
    if det["config"].get("dataset"):
        # the dataset's directory depends on where the run happened
        det["config"]["dataset"] = Path(det["config"]["dataset"]).name
    diag = _columns(out_dir / "diagnostics.csv")
    return {
        "report": det,
        "scores": _columns(out_dir / f"scores_seed{input_id}.csv"),
        "diagnostics": {name: diag[name] for name in DIAGNOSTICS_ONLY},
    }


def consistency_problems(out_dir: Path, input_id: int) -> list:
    """scatter.csv and diagnostics.csv must repeat the score file's own strings."""
    out_dir = Path(out_dir)
    header, rows = _read_csv(out_dir / f"scores_seed{input_id}.csv")
    by_k = {row[0]: dict(zip(header, row)) for row in rows}
    problems = []
    _, scatter = _read_csv(out_dir / "scatter.csv")
    for seed, k, s, f, dj in scatter:
        row = by_k.get(k)
        if seed != str(input_id) or row is None or (s, f, dj) != (
                row["if_stoch"], row["if_fixed"], row["delta_j_exact"]):
            problems.append(f"scatter.csv row k={k} disagrees with the score file")
    dheader, drows = _read_csv(out_dir / "diagnostics.csv")
    for drow in drows:
        d = dict(zip(dheader, drow))
        row = by_k.get(d["k"])
        if row is None or any(d[c] != row[c] for c in ("r_ric", "r_w", "r_cross")):
            problems.append(f"diagnostics.csv row k={d['k']} disagrees with the score file")
    if not any(dj != "" for dj in (r["delta_j_exact"] for r in by_k.values())):
        if scatter or drows:
            problems.append("scatter/diagnostics rows without an exact sweep")
    return problems


def _close(a, b) -> bool:
    return a == b or abs(a - b) <= RTOL * abs(b)


def _compare_tree(out, ref, where: str, problems: list, notes: list) -> None:
    if isinstance(ref, dict):
        if not isinstance(out, dict):
            problems.append(f"{where}: not a mapping")
            return
        missing = sorted(set(ref) - set(out))
        if missing:
            problems.append(f"{where}: keys missing: {missing}")
        notes.extend(f"{where}.{key}" for key in sorted(set(out) - set(ref)))
        for key in set(ref) & set(out):
            _compare_tree(out[key], ref[key], f"{where}.{key}", problems, notes)
    elif isinstance(ref, list):
        if not isinstance(out, list) or len(out) != len(ref):
            problems.append(f"{where}: length differs")
            return
        for i, (o, r) in enumerate(zip(out, ref)):
            _compare_tree(o, r, f"{where}[{i}]", problems, notes)
    elif isinstance(ref, float) and isinstance(out, (int, float)) and not isinstance(out, bool):
        if not _close(float(out), ref):
            problems.append(f"{where}: {out!r} != reference {ref!r}")
    elif out != ref or type(out) is not type(ref):
        problems.append(f"{where}: {out!r} != reference {ref!r}")


def _scale(values) -> float:
    return max((abs(v) for v in values if v is not None), default=0.0)


def _compare_columns(out: dict, ref: dict, where: str, problems: list,
                     shared_scale: float | None = None) -> None:
    if set(out) != set(ref):
        problems.append(f"{where}: columns differ")
        return
    for name, ref_col in ref.items():
        out_col = out[name]
        if len(out_col) != len(ref_col):
            problems.append(f"{where}.{name}: length differs")
            continue
        scale = shared_scale if (shared_scale and name in SHIFT_COLUMNS) else _scale(ref_col)
        for k, (o, r) in enumerate(zip(out_col, ref_col)):
            if (o is None) != (r is None):
                problems.append(f"{where}.{name}[{k}]: missing value differs")
            elif r is not None and not (math.isfinite(o) and abs(o - r) <= RTOL * scale):
                problems.append(f"{where}.{name}[{k}]: {o!r} != reference {r!r}")


def output_problems(out: dict, ref: dict, notes: list | None = None) -> list:
    """What in `out` fails the reference; report keys the reference lacks
    go to `notes`."""
    problems = []
    _compare_tree(out["report"], ref["report"], "report", problems,
                  [] if notes is None else notes)
    shift_scale = _scale(ref["scores"].get("delta_j_exact", []))
    _compare_columns(out["scores"], ref["scores"], "scores", problems, shift_scale)
    _compare_columns(out["diagnostics"], ref["diagnostics"], "diagnostics", problems)
    return problems


def run_problems(exit_code: int, out_dir: Path, input_id: int, ref: dict,
                 notes: list | None = None) -> list:
    """Everything wrong with one run; an empty list means it passed the gate.
    Report keys the reference lacks go to `notes`."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        out = read_outputs(out_dir, input_id)
        problems = consistency_problems(out_dir, input_id)
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable outputs: {exc!r}"]
    for entry in out["report"]["per_seed"]:
        if entry["excluded"]:
            problems.append(f"seed {entry['seed']} excluded {entry['excluded']}")
    return problems + output_problems(out, ref, notes)


def reference_path(workload_name: str) -> Path:
    return REFERENCE_DIR / f"{workload_name}.json.gz"


def load_reference(workload_name: str) -> dict:
    """{input id: outputs} for the workload's pool."""
    with gzip.open(reference_path(workload_name), "rt") as fh:
        doc = json.load(fh)
    return {int(k): v for k, v in doc["inputs"].items()}


def save_reference(workload_name: str, outputs: dict) -> Path:
    path = reference_path(workload_name)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"workload": workload_name, "inputs": {str(k): v for k, v in sorted(outputs.items())}}
    # mtime=0 keeps the file byte-identical across captures of the same outputs
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(json.dumps(doc, separators=(",", ":")).encode())
    return path
