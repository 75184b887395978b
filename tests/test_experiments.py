"""Ranking metrics, config parsing, the experiment runner, and the CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

import lqrinfluence
from lqrinfluence.bench import GenerationConfig, dc_motor_spec
from lqrinfluence.cli import main
from lqrinfluence.errors import DegenerateInput, InvalidConfig
from lqrinfluence.experiments import (
    ExperimentConfig,
    load_config,
    parse_config,
    rankdata,
    run_experiment,
    spearman,
    topk_jaccard,
    write_outputs,
)
from lqrinfluence.sysid import TrajectoryDataset, save_dataset

BASE_DOC = {
    "system": {"kind": "dc_motor"},
    "generation": {"n_trajectories": 8, "t_min": 5, "t_max": 12},
    "seeds": [0, 1],
}


def small_config(**overrides):
    cfg = ExperimentConfig(
        system=dc_motor_spec(),
        generation=GenerationConfig(8, 5, 12),
        seeds=(0, 1),
    )
    import dataclasses

    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def test_spearman_oracles():
    assert spearman([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)
    assert spearman([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)
    assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)


def test_spearman_average_ranks_on_ties():
    # ranks (1.5, 1.5, 3) vs (1, 2, 3): Pearson = 1.5 / sqrt(1.5 * 2)
    assert spearman([1, 1, 2], [1, 2, 3]) == pytest.approx(np.sqrt(3) / 2)


def test_rankdata_matches_scipy_average_ranks():
    rng = np.random.default_rng(3)
    cases = [np.zeros(5), np.array([-0.0, 0.0, -0.0, 1.0]), np.array([2.0]),
             np.array([np.nan, 1.0])]
    for _ in range(300):
        n = int(rng.integers(1, 30))
        a = rng.integers(-3, 4, size=n) * 0.5   # many ties
        a[rng.uniform(size=n) < 0.2] = -0.0
        if rng.uniform() < 0.3:
            a = rng.normal(size=n)
        if rng.uniform() < 0.1:
            a[:] = a[0]                          # one all-equal run
        cases.append(a)
    for a in cases:
        want = scipy.stats.rankdata(a)
        assert np.array_equal(rankdata(a), want, equal_nan=True), a


def test_spearman_degenerate_inputs():
    with pytest.raises(DegenerateInput):
        spearman([1, 1, 1], [1, 2, 3])
    with pytest.raises(DegenerateInput):
        spearman([1, 2, 3], [5, 5, 5])
    with pytest.raises(DegenerateInput):
        spearman([1], [2])
    with pytest.raises(DegenerateInput):
        spearman([1, 2], [1, 2, 3])


def test_spearman_affine_invariance():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=30), rng.normal(size=30)
    base = spearman(a, b)
    assert spearman(2.5 * a + 7.0, b) == pytest.approx(base)
    assert spearman(a, 0.1 * b - 3.0) == pytest.approx(base)


def test_topk_jaccard_oracles():
    a = np.array([9.0, 0, 1, 2, 3, 4, 8, 7])
    assert topk_jaccard(a, a, 5) == 1.0
    b = np.array([9.0, 0, 1, 2, 3, 8, 4, 7])
    assert topk_jaccard(a, b, 5) == pytest.approx(4 / 6)
    assert topk_jaccard([0.0, 1, 5, 6], [6.0, 5, 1, 0], 2) == 0.0


def test_topk_jaccard_ties_break_by_index():
    assert topk_jaccard([0.0, 0, 0, 0], [1.0, 0, 0, 1], 2) == pytest.approx(1 / 3)


def test_topk_jaccard_invalid_k():
    with pytest.raises(ValueError):
        topk_jaccard([1.0, 2], [1.0, 2], 0)
    with pytest.raises(ValueError):
        topk_jaccard([1.0, 2], [1.0, 2], 3)
    with pytest.raises(ValueError):
        topk_jaccard([1.0, 2, 3], [1.0, 2], 1)


def test_topk_jaccard_affine_invariance():
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=20), rng.normal(size=20)
    base = topk_jaccard(a, b, 5)
    assert topk_jaccard(3.0 * a + 1.0, b, 5) == base
    assert topk_jaccard(a, 0.5 * b - 9.0, 5) == base


def test_parse_config_defaults():
    cfg = parse_config(BASE_DOC)
    assert cfg.system.kind == "dc_motor"
    assert cfg.lam == 1e-3 and cfg.top_k == 5 and cfg.solver == "dense"
    assert cfg.run_exact_loto and not cfg.run_heldout
    assert cfg.heldout_size == 10_000 and cfg.seeds == (0, 1)
    Q, R = cfg.cost_matrices()
    assert np.array_equal(Q, np.eye(2)) and np.array_equal(R, np.eye(1))


def test_parse_config_explicit_matrices():
    doc = dict(BASE_DOC, Q=[[2.0, 0.0], [0.0, 1.0]], R="identity", top_k=3)
    cfg = parse_config(doc)
    Q, R = cfg.cost_matrices()
    assert np.array_equal(Q, np.diag([2.0, 1.0]))
    assert np.array_equal(R, np.eye(1))
    assert cfg.top_k == 3


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("system"),
        lambda d: d.pop("generation"),
        lambda d: d.pop("seeds"),
        lambda d: d.update(seeds=[]),
        lambda d: d.update(seeds="0,1"),
        lambda d: d["system"].pop("kind"),
        lambda d: d["system"].update(kind="pendulum"),
        lambda d: d["generation"].pop("t_min"),
        lambda d: d.update(Q=[[1.0]]),
        lambda d: d.update(top_k=99),
        lambda d: d.update(solver="lu"),
        lambda d: d.update({"lambda": 0.0}),
        lambda d: d.update(heldout_size=1),
    ],
)
def test_parse_config_rejects_malformed(mutate):
    doc = json.loads(json.dumps(BASE_DOC))
    mutate(doc)
    with pytest.raises(InvalidConfig):
        parse_config(doc)


def test_parse_config_rejects_non_object():
    with pytest.raises(InvalidConfig):
        parse_config(["not", "a", "dict"])


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(InvalidConfig):
        load_config(path)


def test_run_experiment_metrics_and_accounting():
    report = run_experiment(small_config())
    assert len(report.per_seed) == 2
    for entry in report.per_seed:
        assert entry["n_trajectories"] == entry["scored_count"] + len(entry["excluded"])
        assert -1.0 <= entry["spearman_stoch"] <= 1.0
        assert -1.0 <= entry["spearman_fixed"] <= 1.0
        assert 0.0 <= entry["jaccard_stoch"] <= 1.0
        assert 0.0 <= entry["jaccard_fixed"] <= 1.0
    for timing in report.timings["per_seed"]:
        assert timing["speedup"] > 0
    agg = report.aggregate
    assert agg["spearman_stoch"]["mean"] is not None
    assert agg["spearman_stoch"]["std"] is not None  # two seeds -> sample std defined
    assert len(report.scatter_rows) == 16
    assert len(report.diagnostics_rows) == 16


def test_run_experiment_without_exact_sweep():
    report = run_experiment(small_config(run_exact_loto=False))
    for entry in report.per_seed:
        assert "spearman_stoch" not in entry and "jaccard_fixed" not in entry
    assert report.scatter_rows == [] and report.diagnostics_rows == []
    assert "aggregate" not in report.timings
    for table in report.tables.values():
        assert table.delta_j_exact is None


def test_run_experiment_heldout_metric():
    report = run_experiment(
        small_config(run_heldout=True, heldout_size=300, seeds=(0,))
    )
    val = report.per_seed[0]["spearman_pred"]
    assert val is not None and -1.0 <= val <= 1.0


def test_run_experiment_deterministic_modulo_timings():
    r1 = run_experiment(small_config())
    r2 = run_experiment(small_config())
    d1, d2 = r1.to_json_dict(), r2.to_json_dict()
    d1.pop("timings"), d2.pop("timings")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)
    assert r1.scatter_rows == r2.scatter_rows


def test_write_outputs_deterministic_files(tmp_path):
    cfg = small_config()
    p1 = write_outputs(run_experiment(cfg), tmp_path / "a")
    p2 = write_outputs(run_experiment(cfg), tmp_path / "b")
    names = sorted(p.name for p in p1)
    assert names == sorted(p.name for p in p2)
    assert "report.json" in names and "scatter.csv" in names
    assert "scores_seed0.csv" in names and "scores_seed1.csv" in names
    for a, b in zip(sorted(p1), sorted(p2)):
        if a.name == "report.json":
            da, db = json.loads(a.read_text()), json.loads(b.read_text())
            da.pop("timings"), db.pop("timings")
            assert da == db
        else:
            assert a.read_bytes() == b.read_bytes()


def test_scatter_csv_shape(tmp_path):
    report = run_experiment(small_config(seeds=(0,)))
    write_outputs(report, tmp_path)
    lines = (tmp_path / "scatter.csv").read_text().strip().splitlines()
    assert lines[0] == "seed,k,if_stoch,if_fixed,delta_j_exact"
    assert len(lines) == 1 + 8
    first = lines[1].split(",")
    assert int(first[0]) == 0 and int(first[1]) == 0
    assert np.isfinite(float(first[2]))


def write_cli_config(tmp_path, **extra):
    doc = json.loads(json.dumps(BASE_DOC))
    doc.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_cli_run_success(tmp_path, capsys):
    cfg_path = write_cli_config(tmp_path)
    out_dir = tmp_path / "results"
    code = main(["run", str(cfg_path), "--out", str(out_dir)])
    assert code == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert str(out_dir / "report.json") in printed
    report = json.loads((out_dir / "report.json").read_text())
    assert report["config"]["seeds"] == [0, 1]
    assert (out_dir / "scores_seed1.csv").exists()


def test_cli_missing_config_is_config_error(tmp_path):
    assert main(["run", str(tmp_path / "absent.json"), "--out", str(tmp_path)]) == 1


def test_cli_malformed_config_is_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 1


def test_cli_bad_seed_override_is_config_error(tmp_path):
    cfg_path = write_cli_config(tmp_path)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o"),
                 "--seeds", "a,b"]) == 1


def test_cli_overrides_apply(tmp_path):
    cfg_path = write_cli_config(tmp_path)
    out_dir = tmp_path / "o"
    code = main(["run", str(cfg_path), "--out", str(out_dir),
                 "--seeds", "5", "--no-exact", "--solver", "cg"])
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["config"]["seeds"] == [5]
    assert report["config"]["run_exact_loto"] is False
    assert report["config"]["solver"] == "cg"
    assert (out_dir / "scores_seed5.csv").exists()


@pytest.mark.parametrize(
    "dataset",
    [
        {"n_x": 1, "n_u": 1, "trajectories": []},
        {"n_x": 1, "n_u": 1, "trajectories": [[]]},
        {"n_x": 1, "n_u": 1},
        {"n_x": 1, "n_u": 1, "trajectories": [[{"x": [np.nan], "u": [0.0], "x_next": [0.0]}]]},
        None,
    ],
    ids=["no_trajectories", "empty_trajectory", "missing_trajectories", "non_finite",
         "missing_file"],
)
def test_cli_malformed_dataset_is_config_error(tmp_path, capsys, dataset):
    ds_path = tmp_path / "data.json"
    if dataset is not None:
        ds_path.write_text(json.dumps(dataset))
    cfg_path = write_cli_config(
        tmp_path, system={"kind": "dc_motor", "n_x": 1, "n_u": 1}, dataset=str(ds_path)
    )
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert "config error" in capsys.readouterr().err


def test_cli_wrong_shape_system_matrix_is_config_error(tmp_path, capsys):
    cfg_path = write_cli_config(tmp_path, system={"kind": "dc_motor", "a_d": np.eye(3).tolist()})
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert "a_d" in capsys.readouterr().err


def test_cli_dataset_dimension_mismatch_is_config_error(tmp_path, capsys):
    # a 1-state dataset under the 2-state dc_motor system
    traj = (np.ones((3, 1)), np.ones((3, 1)), np.ones((3, 1)))
    ds_path = tmp_path / "data.json"
    save_dataset(TrajectoryDataset.from_arrays([traj, traj]), ds_path)
    cfg_path = write_cli_config(tmp_path, dataset=str(ds_path))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "n_x=1" in err


def explosive_trajectory(a, x0, inputs):
    X, U, Xn = [], [], []
    x = x0
    for u in inputs:
        xn = a * x + u
        X.append([x]), U.append([u]), Xn.append([xn])
        x = xn
    return np.array(X), np.array(U), np.array(Xn)


def test_cli_unstabilizable_fit_is_numerical_failure(tmp_path):
    # open-loop unstable, input never moves: no stabilizing controller exists
    trajs = [explosive_trajectory(2.0, x0, [0.0] * 6) for x0 in (0.01, -0.02, 0.015)]
    data = TrajectoryDataset.from_arrays(trajs, n_x=1, n_u=1)
    ds_path = tmp_path / "data.json"
    save_dataset(data, ds_path)
    cfg_path = write_cli_config(
        tmp_path,
        system={"kind": "dc_motor", "n_x": 1, "n_u": 1},
        generation={"n_trajectories": 3, "t_min": 6, "t_max": 6},
        dataset=str(ds_path),
        top_k=2,
    )
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 2


def test_cli_partial_exclusions_exit_code(tmp_path, capsys):
    # trajectory 0 carries all input excitation; without it the refit sees an
    # uncontrollable unstable model and its removal is excluded, not scored
    rng = np.random.default_rng(0)
    rich = explosive_trajectory(1.5, 0.0, rng.choice([-1.0, 1.0], size=12))
    quiet = [explosive_trajectory(1.5, x0, [0.0] * 6) for x0 in (1.0, -1.2)]
    data = TrajectoryDataset.from_arrays([rich] + quiet, n_x=1, n_u=1)
    ds_path = tmp_path / "data.json"
    save_dataset(data, ds_path)
    cfg_path = write_cli_config(
        tmp_path,
        system={"kind": "dc_motor", "n_x": 1, "n_u": 1},
        generation={"n_trajectories": 3, "t_min": 6, "t_max": 12},
        dataset=str(ds_path),
        top_k=2,
    )
    out_dir = tmp_path / "o"
    code = main(["run", str(cfg_path), "--out", str(out_dir)])
    assert code == 3
    report = json.loads((out_dir / "report.json").read_text())
    entry = report["per_seed"][0]
    assert entry["excluded"] == [0]
    assert entry["scored_count"] == 2
    rows = (out_dir / "scores_seed0.csv").read_text().strip().splitlines()
    flags = [r.split(",")[-1] for r in rows[1:]]
    assert flags == ["1", "0", "0"]


def test_cli_run_imports_no_scipy(tmp_path):
    # the exact sweep on dc_motor reaches expm, spearman, solve_dare and loto_refit
    cfg_path = write_cli_config(tmp_path, run_exact_loto=True)
    script = (
        "import sys\n"
        "from lqrinfluence.cli import main\n"
        "code = main(['run', sys.argv[1], '--out', sys.argv[2]])\n"
        "print(code, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    src = Path(lqrinfluence.__file__).resolve().parents[1]
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, str(cfg_path), str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip().splitlines()[-1] == "0 []"
