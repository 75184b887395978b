"""Self-tests of the benchmark: inputs, the correctness gate, the span wrappers.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run as harness

harness.bootstrap()

import gate  # noqa: E402  (needs the program on sys.path)
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def msd_run(tmp_path_factory):
    """One real msd_exact call on pool input 0: (out dir, reference outputs)."""
    work = tmp_path_factory.mktemp("msd")
    cfg = workloads.write_inputs(workloads.MSD_EXACT, 0, work)
    code, *_ = harness.run_cli(cfg, work / "out")
    assert code == 0
    return work / "out", gate.load_reference("msd_exact")[0]


def test_inputs_are_deterministic_given_the_seed(tmp_path):
    for workload in workloads.WORKLOADS.values():
        assert workloads.input_order(workload, 7) == workloads.input_order(workload, 7)
        assert sorted(workloads.input_order(workload, 7)) == sorted(workload.pool)
    configs = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        configs.append(workloads.write_inputs(workloads.MSD_EXACT, 3, tmp_path / sub).read_bytes())
    assert configs[0] == configs[1]
    d1, d2 = workloads.logs_dataset(1), workloads.logs_dataset(1)
    for name in ("states", "inputs", "next_states", "offsets"):
        assert np.array_equal(getattr(d1, name), getattr(d2, name))
    assert d1.M == workloads.LOGS_M and d1.N == workloads.LOGS_N
    assert not np.array_equal(d1.states, workloads.logs_dataset(2).states)


def test_gate_passes_the_reference_and_round_off(msd_run):
    out_dir, ref = msd_run
    assert gate.run_problems(0, out_dir, 0, ref) == []
    out = gate.read_outputs(out_dir, 0)
    for column in ("if_stoch", "delta_j_exact", "r_ric"):
        out["scores"][column][4] *= 1 + 1e-13
    assert gate.output_problems(out, ref) == []


def test_gate_rejects_a_perturbed_score(msd_run):
    out_dir, ref = msd_run
    for column in ("if_fixed", "if_stoch", "delta_j_exact", "r_w"):
        out = gate.read_outputs(out_dir, 0)
        out["scores"][column][4] *= 1 + 1e-7
        assert gate.output_problems(out, ref), column
    out = gate.read_outputs(out_dir, 0)
    out["report"]["aggregate"]["spearman_stoch"]["mean"] += 1e-6
    assert gate.output_problems(out, ref)


def test_gate_notes_an_added_report_key_and_rejects_a_removed_one(msd_run):
    out_dir, ref = msd_run
    out = gate.read_outputs(out_dir, 0)
    out["report"]["per_seed"][0]["dare_iterations"] = 421
    notes = []
    assert gate.output_problems(out, ref, notes) == []
    assert notes == ["report.per_seed[0].dare_iterations"]
    out = gate.read_outputs(out_dir, 0)
    del out["report"]["per_seed"][0]["spearman_stoch"]
    assert gate.output_problems(out, ref)


def test_gate_rejects_a_failed_exit_and_exclusions(msd_run, tmp_path):
    out_dir, ref = msd_run
    assert gate.run_problems(2, out_dir, 0, ref) == ["exit code 2"]
    copy = tmp_path / "out"
    shutil.copytree(out_dir, copy)
    report = json.loads((copy / "report.json").read_text())
    report["per_seed"][0]["excluded"] = [3]
    (copy / "report.json").write_text(json.dumps(report))
    assert any("excluded" in p for p in gate.run_problems(0, copy, 0, ref))
    (copy / "scatter.csv").unlink()
    assert gate.run_problems(0, copy, 0, ref)


def test_span_wrappers_bind_everywhere_and_keep_outputs(msd_run, tmp_path):
    from lqrinfluence import influence, linalg, lqr, sysid

    out_dir, ref = msd_run
    original_dare = linalg.solve_dare
    tracer = Tracer()
    tracer.install()
    try:
        bound = set(tracer.bindings())
        for where in ("linalg", "lqr", "influence"):
            assert (f"lqrinfluence.{where}", "solve_dare") in bound
        for where in ("sysid", "influence"):
            assert (f"lqrinfluence.{where}", "loto_refit") in bound
        for where in ("linalg", "sysid"):
            assert (f"lqrinfluence.{where}", "cholesky_factor") in bound
        assert lqr.solve_dare is influence.solve_dare is linalg.solve_dare
        assert linalg.solve_dare is not original_dare
        cfg = workloads.write_inputs(workloads.MSD_EXACT, 0, tmp_path)
        code, *_ = harness.run_cli(cfg, tmp_path / "traced")
    finally:
        tracer.uninstall()
    assert lqr.solve_dare is influence.solve_dare is linalg.solve_dare is original_dare
    assert sysid.loto_refit is influence.loto_refit
    assert code == 0
    assert harness._same_outputs(out_dir, tmp_path / "traced")

    spans = tracer.span_records()
    roots = [s for s in spans if s["parent"] is None]
    assert [s["name"] for s in roots] == ["cli.main"]
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]
    self_total = sum(tracer.self_times().values())
    assert self_total == pytest.approx(roots[0]["end"] - roots[0]["start"], rel=1e-9)
    assert tracer.counters["linalg.solve_dare.calls"] == 51
    assert tracer.dare_residual_max() < 1e-10


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_emitted_metrics_match_benchmark_json(capsys):
    declared = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        argv = ["--workload", "mission_heldout", "--seed", "3", "--seconds", "0",
                "--trace", str(trace)]
        assert harness.main(argv) == 0
        result = _last_json(capsys)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > len(workloads.MISSION_HELDOUT.pool)
        units = {m["name"]: m["unit"] for m in declared[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "msd_exact",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
