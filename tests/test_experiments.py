"""Ranking metrics, config parsing, the experiment runner, and the CLI."""

import csv
import dataclasses
import io
import json
import os
import pkgutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lqrinfluence
from lqrinfluence.bench import GenerationConfig, dc_motor_spec, generate_dataset
from lqrinfluence.cli import main
from lqrinfluence.errors import DegenerateInput, InvalidConfig
from lqrinfluence.experiments import (
    ExperimentConfig,
    ExperimentReport,
    _config_echo,
    load_config,
    parse_config,
    rankdata,
    run_experiment,
    spearman,
    topk_jaccard,
    write_outputs,
)
from lqrinfluence.influence import (
    SCORE_CSV_HEADER,
    DecompositionDiagnostics,
    ScoreTable,
    build_score_table,
    csv_cell,
)
from lqrinfluence.lqr import riccati_artifacts
from lqrinfluence import influence, sysid
from lqrinfluence.sysid import TrajectoryDataset, fit_ridge, save_dataset

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
    assert cfg.lam == 1e-3 and cfg.top_k == 5
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
    # a singular Q is semidefinite: its zero eigenvalue, up to round-off, is accepted
    for singular in ([[0.0, 0.0], [0.0, 0.0]], [[1.0, 1.0], [1.0, 1.0]], [[0.1, 0.3], [0.3, 0.9]]):
        assert np.array_equal(parse_config(dict(BASE_DOC, Q=singular)).Q, singular)


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
        lambda d: d["system"].update(drag=0.5),   # a UAV field under dc_motor
        lambda d: d.update({"lambda": 0.0}),
        lambda d: d.update(heldout_size=1),
        lambda d: d.update(seeds=["a"]),
        lambda d: d.update({"lambda": "abc"}),
        lambda d: d.update(top_k="x"),
        lambda d: d["generation"].update(t_min="x"),
        lambda d: d.update(Q=[["a", 0.0], [0.0, 1.0]]),
        lambda d: d.update(heldout_size=None),
        lambda d: d.update(run_exact_loto="false"),
        lambda d: d.update(run_exact_loto=0),
        lambda d: d.update(run_heldout="false"),
        lambda d: d.update(run_heldout=1),
        lambda d: d.update(dataset=7),
        lambda d: d.update(dataset=0),
        lambda d: d.update(dataset=["logs.json"]),
        lambda d: d.update({"lambda": float("nan")}),
        lambda d: d.update({"lambda": float("inf")}),
        lambda d: d["generation"].update(x0_scale=float("nan")),
        lambda d: d["generation"].update(x0_scale=float("inf")),
        lambda d: d.update(Q=[[float("nan"), 0.0], [0.0, 1.0]]),
        lambda d: d.update(R=[[float("inf")]]),
        lambda d: d.update(Q=[[1.0, 0.5], [0.0, 1.0]]),
        lambda d: d["system"].update(a_d=[[float("nan"), 0.0], [0.0, 0.5]]),
        lambda d: d["system"].update(x0_std=[float("inf"), 1.0]),
        lambda d: d["system"].update(dt="x"),
        lambda d: d["system"].update(dt=0.0),
        lambda d: d["system"].update(input_std=float("nan")),
        lambda d: d["system"].update(n_x="3"),
        lambda d: d["system"].update(n_u=0),
        lambda d: d.update(system={"kind": "msd", "sigma_sq_range": [1.0, -1.0]}),
        lambda d: d.update(system={"kind": "msd", "sigma_sq_range": [-1.0, 1.0]}),
        lambda d: d.update(system={"kind": "msd", "sigma_sq_range": [1.0, 0.5]}),
        lambda d: d.update(system={"kind": "msd", "sigma_sq_range": "wide"}),
        lambda d: d["system"].update(noise_cov=[[1.0, 0.0], [0.0, -1.0]]),
        # integer fields take JSON integers only, lambda and x0_scale numbers only
        lambda d: d.update(seeds=[1.5]),
        lambda d: d.update(seeds=[True]),
        lambda d: d.update(top_k="3"),
        lambda d: d.update(heldout_size="7"),
        lambda d: d["generation"].update(n_trajectories=6.9),
        lambda d: d["generation"].update(t_min=True),
        lambda d: d.update({"lambda": "0.01"}),
        lambda d: d.update({"lambda": True}),
        lambda d: d["generation"].update(x0_scale="1.0"),
        lambda d: d["generation"].update(x0_scale=True),
        # R positive definite, Q positive semidefinite
        lambda d: d.update(R=[[0.0]]),
        lambda d: d.update(R=[[-1.0]]),
        lambda d: d.update(Q=[[-1.0, 0.0], [0.0, -1.0]]),
        lambda d: d.update(Q=[[1.0, 2.0], [2.0, 1.0]]),
        # an object is a JSON object, and system.kind a string
        lambda d: d["system"].update(kind=["dc_motor"]),
        lambda d: d["system"].update(kind={"name": "dc_motor"}),
        lambda d: d.update(system=[["kind", "dc_motor"]]),
        lambda d: d.update(generation=[["n_trajectories", 8], ["t_min", 5], ["t_max", 12]]),
        # array entries take JSON numbers only
        lambda d: d.update(Q=[["1", "0"], ["0", "1"]]),
        lambda d: d.update(R=[[True]]),
        lambda d: d.update(R=[["1"]]),
        lambda d: d["system"].update(a_d=[["0.5", 0.0], [0.0, 0.5]]),
        lambda d: d["system"].update(b_d=[[True], [0.0]]),
        lambda d: d["system"].update(noise_cov=[["1", 0], [0, 1]]),
        lambda d: d["system"].update(x0_std=[True, 1.0]),
        # a number beyond binary64 raised OverflowError
        lambda d: d.update({"lambda": 10**400}),
        lambda d: d["generation"].update(x0_scale=-(10**400)),
        # a key nothing reads: run_exact_lotto=false still ran the exact sweep
        lambda d: d["generation"].update(seed=3),
        lambda d: d["generation"].update(n_trajectory=8),
        lambda d: d.update(run_exact_lotto=False),
        lambda d: d.update(lamda=5),
        lambda d: d["system"].update(mass=2.0),
        lambda d: d.update(dataset=""),   # it ran on generated data
    ],
)
def test_parse_config_rejects_malformed(mutate):
    doc = json.loads(json.dumps(BASE_DOC))
    mutate(doc)
    with pytest.raises(InvalidConfig):
        parse_config(doc)


@pytest.mark.parametrize(
    "mutate, key",
    [
        (lambda d: d["generation"].update(seed=3), "generation.seed"),
        (lambda d: d["generation"].update(n_trajectory=8), "generation.n_trajectory"),
        (lambda d: d.update(run_exact_lotto=False), "run_exact_lotto"),
        (lambda d: d.update(lamda=5), "lamda"),
        (lambda d: d["system"].update(mass=2.0), "system.mass"),
    ],
)
def test_parse_config_names_the_unread_key(mutate, key):
    doc = json.loads(json.dumps(BASE_DOC))
    mutate(doc)
    with pytest.raises(InvalidConfig, match=f"^{key} is never read") as err:
        parse_config(doc)
    assert "__init__" not in str(err.value)   # not dataclasses.replace's TypeError


def test_parse_config_ignores_the_old_solver_key():
    def echo(cfg):
        return _config_echo(cfg, cfg.seeds, *cfg.cost_matrices())
    assert echo(parse_config(dict(BASE_DOC, solver="cg"))) == echo(parse_config(BASE_DOC))


# every value of a full config, at any depth, may be replaced by any JSON value
FULL_DOC = dict(BASE_DOC, system={"kind": "dc_motor", "n_x": 2, "n_u": 1, "dt": 0.1,
                                  "x0_std": [1.0, 1.0], "a_d": [[0.5, 0.0], [0.0, 0.5]]},
                generation=dict(BASE_DOC["generation"], x0_scale=1.0),
                Q=[[1.0, 0.0], [0.0, 1.0]], R="identity", top_k=3, run_exact_loto=True,
                run_heldout=False, heldout_size=100, dataset=None, solver="dense",
                **{"lambda": 1e-3})


def _value_paths(doc, prefix=()):
    for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _value_paths(value, prefix + (key,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                  max_size=2),
    max_leaves=4,
)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(list(_value_paths(FULL_DOC))), JSON_VALUES),
                min_size=1, max_size=3))
def test_parse_config_raises_only_invalid_config_property(replacements):
    # the README promises a config error, never a traceback, for any config
    doc = json.loads(json.dumps(FULL_DOC))
    for path, value in replacements:
        parent = doc
        try:
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]]
        except (KeyError, IndexError, TypeError):   # an earlier replacement removed it
            continue
        parent[path[-1]] = value
    try:
        parse_config(doc)
    except InvalidConfig:
        pass


def test_parse_config_reads_json_flags_and_dataset():
    cfg = parse_config(dict(BASE_DOC, run_exact_loto=False, run_heldout=True, dataset=None))
    assert cfg.run_exact_loto is False and cfg.run_heldout is True
    assert cfg.dataset_path is None
    assert parse_config(dict(BASE_DOC, dataset="logs.json")).dataset_path == "logs.json"
    # next to a dataset, dt is echoed and n_x/n_u size Q and R; with a held-out
    # set the generator runs, so its overrides are read
    sized = {"kind": "dc_motor", "n_x": 3, "n_u": 2, "dt": 0.5}
    assert parse_config(dict(BASE_DOC, system=sized, dataset="logs.json")).system.dt == 0.5
    heldout = dict(BASE_DOC, system={"kind": "dc_motor", "input_std": 2.0}, dataset="logs.json",
                   run_heldout=True)
    assert parse_config(heldout).system.input_std == 2.0


def test_parse_config_rejects_non_object():
    with pytest.raises(InvalidConfig):
        parse_config(["not", "a", "dict"])


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(InvalidConfig):
        load_config(path)
    path.write_bytes(b"\xff\xfe" + json.dumps(BASE_DOC).encode("utf-16-le"))   # not UTF-8
    with pytest.raises(InvalidConfig, match="UTF-8"):
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
    tables = report.tables.values()
    assert sum(int(np.isfinite(t.delta_j_exact).sum()) for t in tables) == 16
    assert sum(int(np.isfinite(t.diagnostics.r_w).sum()) for t in tables) == 16


def test_run_experiment_without_exact_sweep():
    report = run_experiment(small_config(run_exact_loto=False))
    for entry in report.per_seed:
        assert "spearman_stoch" not in entry and "jaccard_fixed" not in entry
    assert "aggregate" not in report.timings
    for table in report.tables.values():
        assert table.delta_j_exact is None and table.diagnostics is None


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
    for seed, t1 in r1.tables.items():
        t2 = r2.tables[seed]
        for name in ("if_stoch", "if_fixed", "delta_j_exact"):
            assert np.array_equal(getattr(t1, name), getattr(t2, name))


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


def test_diagnostics_csv_fills_every_column(tmp_path):
    write_outputs(run_experiment(small_config()), tmp_path)
    with open(tmp_path / "diagnostics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["seed", "k", "delta_theta_norm", "r_ric", "r_w", "r_cross", "bound_w"]
    assert len(rows) == 1 + 16
    for row in rows[1:]:
        assert len(row) == len(rows[0]) and all(np.isfinite(float(cell)) for cell in row)


def scalar_rule_csvs(report) -> dict:
    # the three kinds of CSV as csv.writer writes csv_cell's strings one cell at a time:
    # the oracle of write_outputs' column formatter and joined rows
    def text(header, rows):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([csv_cell(x) for x in row] for row in rows)
        return buf.getvalue()

    names = [f.name for f in dataclasses.fields(DecompositionDiagnostics)]
    files, scatter, diagnostics = {}, [], []
    for seed, t in report.tables.items():
        d = t.diagnostics
        cols = [range(t.N), t.lengths, t.if_fixed, t.if_stoch, t.delta_j_exact, t.direct_trace,
                *([None] * 3 if d is None else [d.r_ric, d.r_w, d.r_cross]),
                [0] * t.N if t.excluded is None else t.excluded.astype(int)]
        files[f"scores_seed{seed}.csv"] = text(
            SCORE_CSV_HEADER, [[None if c is None else c[k] for c in cols] for k in range(t.N)])
        for k in [] if d is None else np.flatnonzero(~t.excluded):
            scatter.append([seed, k, t.if_stoch[k], t.if_fixed[k], t.delta_j_exact[k]])
            diagnostics.append([seed, k, *(getattr(d, name)[k] for name in names)])
    files["scatter.csv"] = text(["seed", "k", "if_stoch", "if_fixed", "delta_j_exact"], scatter)
    files["diagnostics.csv"] = text(["seed", "k", *names], diagnostics)
    return files


def edge_value_tables() -> dict:
    # every float field holds NaN, +-inf, -0.0, the smallest subnormal and the largest
    # double, rotated so each lands in every column; lengths are numpy unsigned integers
    values = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7976931348623157e308, 0.1, -7.25])
    cols = [np.roll(values, i) for i in range(9)]
    lengths = np.array([0, 3, 17, 2**32, 2**63, 2**64 - 1, 40, 1], dtype=np.uint64)
    exact = ScoreTable(lengths, *cols[:3], delta_j_exact=cols[3], excluded=np.isnan(cols[3]),
                       diagnostics=DecompositionDiagnostics(*cols[4:]))
    return {3: exact, 11: ScoreTable(lengths[:5], *(c[:5] for c in cols[:3]))}


@pytest.mark.parametrize("case", ["two_seed_run_with_exclusion", "edge_values"])
def test_written_csvs_equal_the_scalar_rule_bytewise(case, tmp_path, partial_exclusion_dataset):
    if case == "edge_values":
        tables = edge_value_tables()
    else:   # seeds 0 and 1 of an exact run, then a table whose removal 0 is excluded
        tables = dict(run_experiment(small_config()).tables)
        fit = fit_ridge(partial_exclusion_dataset, 1e-3)
        tables[2] = build_score_table(fit, riccati_artifacts(fit, np.eye(1), np.eye(1)),
                                      with_exact=True)
        assert tables[2].excluded.tolist() == [True, False, False]
    report = ExperimentReport(config_echo={}, tables=tables)
    written = write_outputs(report, tmp_path)
    expected = scalar_rule_csvs(report)
    assert [p.name for p in written] == ["report.json", *expected]
    for path in written[1:]:
        assert path.read_bytes() == expected[path.name].encode(), path.name


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
    assert report["config"]["solver"] == "dense"   # the one H^-1 method, echoed
    assert (out_dir / "scores_seed1.csv").exists()


def test_cli_missing_config_is_config_error(tmp_path):
    assert main(["run", str(tmp_path / "absent.json"), "--out", str(tmp_path)]) == 1


def test_cli_malformed_config_is_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 1


def test_cli_integer_dataset_is_config_error(tmp_path, capsys):
    # an integer would reach open() as a file descriptor (0 reads stdin)
    cfg_path = write_cli_config(tmp_path, dataset=0)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert "dataset" in capsys.readouterr().err


def test_cli_bad_seed_override_is_config_error(tmp_path, capsys):
    cfg_path = write_cli_config(tmp_path)
    for seeds, message in (
        ("a,b", "argument --seeds: invalid seed_list value: 'a,b'"),   # argparse's usage error
        (",", "seeds must be non-empty"),                              # ExperimentConfig's rule
    ):
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "o"), "--seeds", seeds]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {message}")


# finite input whose sums overflow, and a doubling step that is singular in floating point
_OVERFLOW_DATASET = {"n_x": 1, "n_u": 1, "trajectories": [
    [{"x": [s * 1e200], "u": [-s * 1e200], "x_next": [s * 1e200]}] for s in (1, -1)]}
_NUMERICAL_REPROS = {
    "gram-overflow": ({"system": {"kind": "dc_motor", "input_std": 1e300},
                       "generation": {"n_trajectories": 3, "t_min": 1, "t_max": 6},
                       "seeds": [33], "top_k": 1}, "Gram matrix overflows"),
    "dataset-overflow": ({"system": {"kind": "dc_motor", "n_x": 1, "n_u": 1},
                          "generation": {"n_trajectories": 2, "t_min": 1, "t_max": 1},
                          "seeds": [0], "top_k": 1, "dataset": "big.json"}, "Gram matrix overflows"),
    "singular-doubling": ({"system": {"kind": "msd", "sigma_sq_range": [1e160, 2e160]},
                           "generation": {"n_trajectories": 5, "t_min": 1, "t_max": 1,
                                          "x0_scale": 1e5},
                           "seeds": [32], "top_k": 1}, "doubling step 1 failed"),
}


@pytest.mark.parametrize("name", list(_NUMERICAL_REPROS))
def test_cli_numerical_extremes_are_numerical_failures(tmp_path, monkeypatch, capsys, name):
    # each escaped main as a bare ValueError or LinAlgError after RuntimeWarning lines
    doc, message = _NUMERICAL_REPROS[name]
    monkeypatch.chdir(tmp_path)
    Path("big.json").write_text(json.dumps(_OVERFLOW_DATASET))
    Path("config.json").write_text(json.dumps(doc))
    assert main(["run", "config.json", "--out", "o"]) == 2
    last = capsys.readouterr().err.splitlines()[-1]   # after the "seed N" progress line
    assert last.startswith("numerical failure: ") and message in last


# 1e100 makes Lyapunov solutions whose entries pass 1e154, where ||X||_F's square overflowed
_MAGNITUDES = (0.0, 1e-300, 1.0, 1e100, 1e160, 1e300)


@st.composite
def extreme_run_configs(draw):
    """Small configs whose noise, excitation and drag scales are drawn from _MAGNITUDES."""
    kind = draw(st.sampled_from(["dc_motor", "msd", "uav_hover", "uav_mission"]))
    n_x = 2 if kind == "dc_motor" else 4
    names = (["x0_std", "drag", "gust_std", "excitation_std"] if kind.startswith("uav")
             else ["x0_std", "input_std", "sigma_sq_range"] + ["noise_cov"] * (kind == "dc_motor"))
    system = {"kind": kind}
    for name in draw(st.lists(st.sampled_from(names), unique=True)):
        m = draw(st.sampled_from(_MAGNITUDES))
        system[name] = {"x0_std": [m] * n_x, "sigma_sq_range": [m, 2 * m],
                        "noise_cov": (m * np.eye(n_x)).tolist()}.get(name, m)
    t_min = draw(st.integers(1, 5))
    doc = {"system": system,
           "generation": {"n_trajectories": draw(st.integers(2, 5)), "t_min": t_min,
                          "t_max": draw(st.integers(t_min, 5)),
                          "x0_scale": draw(st.sampled_from([1.0, 1e5]))},
           "seeds": [draw(st.integers(0, 40))], "top_k": 1,
           "run_exact_loto": draw(st.booleans())}
    if draw(st.booleans()):
        doc.update(run_heldout=True, heldout_size=draw(st.integers(2, 50)))
    return doc


@settings(max_examples=60, deadline=None)
@given(extreme_run_configs())
# the Lyapunov solution's entries reach 1e169: its certificate's norms overflowed
@example({"system": {"kind": "dc_motor", "input_std": 1e100},
          "generation": {"n_trajectories": 5, "t_min": 3, "t_max": 6},
          "seeds": [0], "top_k": 1, "run_exact_loto": False})
def test_cli_run_never_raises(doc):
    # every outcome is a documented exit code; a RuntimeWarning is an error in this suite
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "config.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["run", str(cfg_path), "--out", str(Path(tmp) / "o")]) in (0, 1, 2, 3)


@pytest.mark.parametrize("exact", [False, True])
def test_cli_constant_shifts_give_null_rank_metrics(tmp_path, capsys, exact):
    # every held-out and exact shift is 0, so no rank ordering exists: spearman
    # raised, the run exited 2 and wrote no score file
    doc = {"system": {"kind": "msd", "input_std": 1e-300, "sigma_sq_range": [0.0, 0.0],
                      "x0_std": [1e-300] * 4},
           "generation": {"n_trajectories": 3, "t_min": 1, "t_max": 5}, "seeds": [12],
           "top_k": 1, "run_exact_loto": exact, "run_heldout": True, "heldout_size": 47}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    assert "numerical failure" not in capsys.readouterr().err
    assert (tmp_path / "o" / "scores_seed12.csv").exists()
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    nulls = ["spearman_pred"] + ["spearman_stoch", "spearman_fixed"] * exact
    for key in nulls:
        assert report["per_seed"][0][key] is None
        assert report["aggregate"][key] == {"mean": None, "std": None}


@pytest.mark.parametrize("seeds, argv", [
    ([-1], []),
    ([0], ["--seeds=-1"]),
    ([0], ["--seeds", "1,1"]),
    ([3, 0, 3], []),
], ids=["negative", "negative-override", "duplicate-override", "duplicate"])
def test_cli_negative_or_duplicate_seeds_are_config_errors(tmp_path, capsys, seeds, argv):
    # a negative seed reached SeedSequence; a repeated one was scored and aggregated twice
    cfg_path = write_cli_config(tmp_path, seeds=seeds)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o"), *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [[], ["run"], ["run", "x.json", "--solver", "dense"]],
                         ids=["bare", "run-without-config", "unknown-solver"])
def test_cli_usage_error_is_config_error(argv, capsys):
    # argparse's own exit code 2 is the documented code for a numerical failure
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("config error: ")


def test_cli_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--no-exact" in out and "--solver" not in out


def test_cli_overrides_apply(tmp_path):
    # a config that still names the removed "cg" solver runs: parse_config reads no such key
    cfg_path = write_cli_config(tmp_path, solver="cg")
    out_dir = tmp_path / "o"
    code = main(["run", str(cfg_path), "--out", str(out_dir), "--seeds", "5", "--no-exact"])
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["config"]["seeds"] == [5]
    assert report["config"]["run_exact_loto"] is False
    assert report["config"]["solver"] == "dense"
    assert (out_dir / "scores_seed5.csv").exists()


def test_cli_unread_key_is_config_error(tmp_path, capsys):
    # "lamda" left lambda at its default and the run exited 0
    cfg_path = write_cli_config(tmp_path, lamda=5)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert "config error: lamda is never read" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "doc",
    [
        {"system": {"kind": "msd"}, "generation": {"n_trajectories": 6, "t_min": 5, "t_max": 9},
         "seeds": [2]},
        {"system": {"kind": "uav_mission"},
         "generation": {"n_trajectories": 6, "t_min": 5, "t_max": 9, "x0_scale": 0.5},
         "seeds": [1], "run_exact_loto": False, "run_heldout": True, "heldout_size": 40},
    ],
    ids=["msd", "uav_mission_heldout"],
)
def test_config_echo_round_trips(tmp_path, doc):
    # every key the report echoes is one parse_config reads, to the same value
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) in (0, 3)
    echo = json.loads((tmp_path / "o" / "report.json").read_text())["config"]
    cfg = parse_config(echo)
    assert json.loads(json.dumps(_config_echo(cfg, cfg.seeds, *cfg.cost_matrices()))) == echo


@pytest.mark.parametrize(
    "dataset",
    [
        {"n_x": 1, "n_u": 1, "trajectories": []},
        {"n_x": 1, "n_u": 1, "trajectories": [[]]},
        {"n_x": 1, "n_u": 1},
        {"n_x": 1, "n_u": 1, "trajectories": [[{"x": [np.nan], "u": [0.0], "x_next": [0.0]}]]},
        None,
        {"n_x": 1, "n_u": 1, "trajectories": [[{"x": [x], "u": [u], "x_next": [0.5 * x + u]}
                                                for x, u in ((1.0, 0.3), (0.8, -0.2), (0.2, 0.1))]]},
        b"\xff\xfe" + '{"n_x": 1, "n_u": 1, "trajectories": []}'.encode("utf-16-le"),
        b"[" * 100_000,   # json's scanner raised RecursionError
    ],
    ids=["no_trajectories", "empty_trajectory", "missing_trajectories", "non_finite",
         "missing_file", "one_trajectory", "not_utf8", "deeply_nested"],
)
def test_cli_malformed_dataset_is_config_error(tmp_path, capsys, dataset):
    ds_path = tmp_path / "data.json"
    if isinstance(dataset, bytes):
        ds_path.write_bytes(dataset)
    elif dataset is not None:
        ds_path.write_text(json.dumps(dataset))
    cfg_path = write_cli_config(
        tmp_path, system={"kind": "dc_motor", "n_x": 1, "n_u": 1}, dataset=str(ds_path)
    )
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert "config error" in capsys.readouterr().err


_CONTRACT_ROWS = [[{"x": [1.0], "u": [0.3], "x_next": [0.8]}],
                  [{"x": [0.8], "u": [-2], "x_next": [-1.6]}]]
_CONTRACT_DOC = {"n_x": 1, "n_u": 1, "trajectories": _CONTRACT_ROWS}
_BAD = "config error: malformed dataset file data.json: missing or bad "
_TRAJ_0 = "config error: trajectory 0 in data.json is malformed: "


@pytest.mark.parametrize("text, code, last", [
    (json.dumps({"trajectories": _CONTRACT_ROWS, "n_u": 1, "n_x": 1}), 0, "seed 0"),
    (json.dumps(_CONTRACT_DOC, indent=2), 0, "seed 0"),
    (json.dumps({**_CONTRACT_DOC, "rig": {"id": [1, 2]}}), 0, "seed 0"),
    (json.dumps(_CONTRACT_DOC).replace("0.8]", "NaN]", 1), 1,
     "config error: dataset data.json: dataset has non-finite entries"),
    (json.dumps({"n_x": 1, "n_u": 1, "trajectories": {"a": _CONTRACT_ROWS}}), 1,
     _TRAJ_0 + "string indices must be integers, not 'str'"),
    (json.dumps({"n_x": 1, "n_u": 1, "trajectories": "abc"}), 1,
     _TRAJ_0 + "string indices must be integers, not 'str'"),
    (json.dumps({"n_x": 1, "n_u": 1, "trajectories": 5}), 1,
     _BAD + "'int' object is not iterable"),
    (json.dumps({"n_x": 1, "n_u": 1, "trajectories": None}), 1,
     _BAD + "'NoneType' object is not iterable"),
    (json.dumps([_CONTRACT_DOC]), 1, _BAD + "list indices must be integers or slices, not str"),
    (json.dumps(_CONTRACT_DOC) + " {}", 1, "config error: dataset data.json is not valid "
                                           "UTF-8 JSON: Extra data: line 1 column 130 (char 129)"),
    ('{"n_x": 1, "n_u": 1, "n_x": 1, "trajectories": %s}' % json.dumps(_CONTRACT_ROWS), 1,
     "config error: dataset data.json repeats the top-level member 'n_x'"),
    (json.dumps({**_CONTRACT_DOC, "trajectories": [
        [{"x": [True], "u": [0.1], "x_next": [0.5]}] + _CONTRACT_ROWS[0], _CONTRACT_ROWS[1]]}),
     1, "config error: trajectory 0 in data.json has x entries that are not all numbers"),
    (json.dumps({**_CONTRACT_DOC, "trajectories": [
        _CONTRACT_ROWS[0], _CONTRACT_ROWS[1] + [{"x": [-1.6], "u": [False], "x_next": [-0.8]}]]}),
     1, "config error: trajectory 1 in data.json has u entries that are not all numbers"),
], ids=["reordered", "indented", "extra_member", "nan", "trajectories_object",
        "trajectories_string", "trajectories_number", "trajectories_null", "top_level_array",
        "trailing_data", "repeated_member", "bool_row_beside_floats", "bool_row_beside_integers"])
def test_cli_dataset_reader_contract(tmp_path, monkeypatch, capsys, text, code, last):
    # the reader walks the file itself and reads one trajectory at a time; each
    # outcome is json.load's, but a repeated member, which json.load let the
    # last one win, is an error, and so is a bool that numpy read as 1 or 0
    # beside the numbers of its array
    monkeypatch.chdir(tmp_path)
    Path("data.json").write_text(text)
    cfg_path = write_cli_config(tmp_path, system={"kind": "dc_motor", "n_x": 1, "n_u": 1},
                                dataset="data.json", seeds=[0], top_k=1)
    assert main(["run", str(cfg_path), "--out", "o"]) == code
    assert capsys.readouterr().err.splitlines()[-1] == last


@pytest.mark.parametrize("which", ["file", "value"])
def test_cli_deeply_nested_config_is_config_error(tmp_path, capsys, which):
    # 100,000 nested [ escaped main as a RecursionError from json's scanner; an
    # array 500 deep, which json reads, exhausted the entry-type check's recursion
    cfg_path = write_cli_config(tmp_path)
    if which == "file":
        cfg_path.write_text("[" * 100_000)
    else:
        cfg_path.write_text(cfg_path.read_text()[:-1] + ', "Q": ' + "[" * 500 + "1"
                            + "]" * 500 + "}")
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and (
        "maximum recursion depth exceeded" if which == "file" else "Q is not a rectangular") in err


@pytest.mark.parametrize(
    "text, key",
    [('{"system": {"kind": "dc_motor"}, "seeds": [0], "seeds": [5]}', "seeds"),
     ('{"system": {"kind": "dc_motor", "dt": 0.1, "dt": 0.05}, "seeds": [0]}', "dt")],
    ids=["seeds", "system_dt"],
)
def test_cli_repeated_config_key_is_config_error(tmp_path, capsys, text, key):
    # json.loads kept the last value silently: seeds (5,), or dt 0.05
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(text)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == f"config error: config repeats the key {key!r}"
    assert not (tmp_path / "o").exists()


def test_cli_unfactorable_refit_names_the_removed_trajectory(tmp_path, capsys):
    # the refit without trajectory 2 retains a Gram that is singular at entries near
    # 1e150; the message named "system 2" of the stack
    rows = [((1e150, 1e150), 5e149), ((2e150, 2e150), 1e150), ((1e150, -1e150), 3e149)]
    ds_path = tmp_path / "data.json"
    ds_path.write_text(json.dumps({"n_x": 1, "n_u": 1, "trajectories": [
        [{"x": [x], "u": [u], "x_next": [xn]}] for (x, u), xn in rows]}))
    cfg_path = write_cli_config(tmp_path, system={"kind": "dc_motor", "n_x": 1, "n_u": 1},
                                dataset=str(ds_path), seeds=[0], top_k=1, run_exact_loto=True)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "numerical failure: refit without trajectory 2: retained Gram + lam I pivot "
        "5.948e+284 at column 1 under floor 2.500e+286")


def numeric_entries_dataset():
    # two trajectories of the scalar system x+ = 0.5 x + u, integers allowed
    rows = [{"x": [x], "u": [u], "x_next": [0.5 * x + u]} for x, u in ((1, 0.3), (0.8, -2))]
    return {"n_x": 1, "n_u": 1, "trajectories": [rows[:1], rows[1:]]}


@pytest.mark.parametrize(
    "key, values, bad",
    [("x", ["1.0", 0.8], 0), ("x_next", [0.8, None], 1), ("u", [True, False], 0),
     ("u", [True, 0.5], 0), ("x", [1, 10**20], 1)],
    ids=["string", "null", "all_bool", "bool_trajectory", "beyond_uint64"],
)
def test_cli_dataset_entries_must_be_numbers(tmp_path, capsys, key, values, bad):
    # np.array(..., dtype=float) read "1.0" as 1.0 and true as 1.0; each is an
    # error now, naming the first trajectory that holds one, whatever the
    # other trajectories hold
    doc = numeric_entries_dataset()
    for (row,), value in zip(doc["trajectories"], values):
        row[key] = [value]
    ds_path = tmp_path / "data.json"
    ds_path.write_text(json.dumps(doc))
    cfg_path = write_cli_config(
        tmp_path, system={"kind": "dc_motor", "n_x": 1, "n_u": 1}, dataset=str(ds_path)
    )
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and f"trajectory {bad} " in err and f"{key} entries" in err


def test_cli_wrong_shape_system_matrix_is_config_error(tmp_path, capsys):
    cfg_path = write_cli_config(tmp_path, system={"kind": "dc_motor", "a_d": np.eye(3).tolist()})
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert "a_d" in capsys.readouterr().err


def write_dc_motor_dataset(tmp_path):
    # six dc_motor trajectories of 5-10 steps, as data.json
    ds_path = tmp_path / "data.json"
    save_dataset(generate_dataset(dc_motor_spec(), GenerationConfig(6, 5, 10)), ds_path)
    return str(ds_path)


@pytest.mark.parametrize(
    "extra",
    [
        {"lambda": float("nan")},   # json writes and reads NaN
        {"Q": [[1.0, 2.0], [0.0, 1.0]]},
        {"system": {"kind": "dc_motor", "n_x": 3}},
        {"system": {"kind": "uav_hover", "n_x": 3}},
        {"system": {"kind": "uav_hover", "n_u": 3}},
        {"system": {"kind": "dc_motor", "noise_cov": [[1.0, 0.0], [0.0, -1.0]]}},
        {"system": {"kind": "dc_motor", "a_d": [[50.0, 0.0], [0.0, 50.0]]},
         "generation": {"n_trajectories": 8, "t_min": 5, "t_max": 400}},
        {"system": {"kind": "msd", "noise_cov": np.eye(4).tolist()}},
        {"system": {"kind": "uav_hover", "a_d": np.eye(4).tolist()}},
        {"system": {"kind": "dc_motor", "a_d": [[50.0, 0.0], [0.0, 50.0]]},
         "dataset": "data.json"},
        {"system": {"kind": "dc_motor", "noise_cov": (9 * np.eye(2)).tolist()},
         "dataset": "data.json"},
        {"R": [[0.0]]},
        {"R": [[-1.0]]},
        {"Q": [[-1.0, 0.0], [0.0, -1.0]]},
        # a list kind failed system_spec's dict lookup as unhashable, and a
        # list of pairs passed through dict() as if it were an object
        {"system": {"kind": ["dc_motor"]}},
        {"system": [["kind", "dc_motor"]]},
        {"generation": [["n_trajectories", 8], ["t_min", 5], ["t_max", 12]]},
        {"Q": [["1", "0"], ["0", "1"]]},
        {"R": [[True]]},
        # the rollout's (T_max, N) step mask would take 7.11 PiB: a MemoryError
        # escaped main as a traceback; the allocation fails before touching memory
        {"system": {"kind": "msd"}, "top_k": 1,
         "generation": {"n_trajectories": 2, "t_min": 10**15, "t_max": 10**15}},
    ],
    ids=["nan_lambda", "asymmetric_Q", "dc_motor_n_x", "uav_n_x", "uav_n_u",
         "indefinite_noise_cov", "overflowing_a_d", "msd_noise_cov", "uav_a_d",
         "dataset_a_d", "dataset_noise_cov", "R_zero", "R_negative", "Q_indefinite",
         "list_kind", "system_pairs", "generation_pairs", "string_Q_entries", "bool_R",
         "unallocatable_length"],
)
def test_cli_unusable_config_value_is_config_error(tmp_path, capsys, extra):
    # dimensions the generator cannot honour are found before any data is drawn,
    # an indefinite noise covariance or a field the kind never reads when the
    # config is read, and a diverging system at the first step whose state is
    # no longer finite; next to a usable external dataset nothing is generated,
    # so a generator override is named as unread
    if "dataset" in extra:
        extra = dict(extra, dataset=write_dc_motor_dataset(tmp_path))
    cfg_path = write_cli_config(tmp_path, **extra)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "config error: " in err
    if "dataset" in extra:
        (unread,) = set(extra["system"]) - {"kind"}
        assert f"system.{unread} is never read" in err
    for weight in {"Q", "R"} & set(extra):   # the message names the matrix
        assert f" {weight} " in err


_DIVERGES = "is not finite after step {}: the configured system diverges"


@pytest.mark.parametrize("extra, code, last", [
    # the training set stays finite; held-out trajectory 5 (not 8 + 5) diverges
    ({"system": {"kind": "uav_hover", "drag": 30}}, 1,
     "config error: generated trajectory 5 " + _DIVERGES.format(8)),
    # both sets diverge, the held-out one at an earlier step: training's error comes first
    ({"system": {"kind": "uav_hover", "drag": 30},
      "generation": {"n_trajectories": 8, "t_min": 1, "t_max": 30}}, 1,
     "config error: generated trajectory 5 " + _DIVERGES.format(10)),
    # the held-out set diverges, but the training fit fails first
    ({"system": {"kind": "dc_motor", "a_d": [[1e7, 0.0], [0.0, 1e7]]},
      "generation": {"n_trajectories": 8, "t_min": 2, "t_max": 4}}, 2, "numerical failure: "),
    # 2e13 held-out trajectories: no allocation holds their lengths
    ({"system": {"kind": "uav_hover"}, "heldout_size": 10**15}, 1,
     "config error: the configured sizes do not fit in memory: "),
    # a linear held-out set diverges after its training set fits: state 0 grows 1e7-fold
    # per step and gets no noise or input, so only the held-out x0 scale of 1 overflows it
    ({"system": {"kind": "msd", "a_d": np.diag([1e7, 0.5, 0.5, 0.5]).tolist(),
                 "sigma_sq_range": [0.0, 0.0]},
      "generation": {"n_trajectories": 8, "t_min": 1, "t_max": 2, "x0_scale": 1e-300}}, 1,
     "config error: generated trajectory 0 " + _DIVERGES.format(44)),
], ids=["heldout_diverges", "both_diverge", "fit_fails_first", "heldout_unallocatable",
        "linear_heldout_diverges"])
def test_cli_generation_errors_come_as_one_set_at_a_time(tmp_path, capsys, extra, code, last):
    # one pass generates a seed's training and held-out sets together, yet each
    # error is the one generating the training set, fitting it and only then
    # generating the held-out set meets, with k counted within its own set
    extra = {"generation": {"n_trajectories": 8, "t_min": 1, "t_max": 2}, "heldout_size": 500,
             **extra}
    cfg_path = write_cli_config(tmp_path, run_heldout=True, top_k=3, **extra)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == code
    assert capsys.readouterr().err.splitlines()[-1].startswith(last)


@pytest.mark.parametrize("dataset, run_heldout, calls", [
    (False, False, [(0, True, 0), (1, True, 0)]),
    (False, True, [(0, True, 300), (1, True, 300)]),
    (True, True, [(0, False, 300)]),
    (True, False, []),
], ids=["generated", "generated_heldout", "dataset_heldout", "dataset"])
def test_run_experiment_generates_each_seed_in_one_call(tmp_path, monkeypatch, dataset,
                                                        run_heldout, calls):
    # one _simulate call makes every set a seed needs; next to a dataset only the first
    # seed runs, its held-out check asks for no training set, and without one nothing runs
    simulate, seen = lqrinfluence.experiments._simulate, []

    def counted(spec, seed, gen=None, heldout_size=0):
        seen.append((seed, gen is not None, heldout_size))
        return simulate(spec, seed, gen, heldout_size)

    monkeypatch.setattr(lqrinfluence.experiments, "_simulate", counted)
    cfg = small_config(run_exact_loto=False, run_heldout=run_heldout, heldout_size=300,
                       dataset_path=write_dc_motor_dataset(tmp_path) if dataset else None)
    report = run_experiment(cfg)
    assert seen == calls
    assert ("spearman_pred" in report.per_seed[0]) == run_heldout


def test_cli_dataset_dimension_mismatch_is_config_error(tmp_path, capsys):
    # a 1-state dataset under the 2-state dc_motor system
    traj = (np.ones((3, 1)), np.ones((3, 1)), np.ones((3, 1)))
    ds_path = tmp_path / "data.json"
    save_dataset(TrajectoryDataset.from_arrays([traj, traj]), ds_path)
    cfg_path = write_cli_config(tmp_path, dataset=str(ds_path))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "n_x=1" in err


@pytest.mark.parametrize("argv, ran", [([], 4), (["--seeds", "7,8"], 7)],
                         ids=["config_seeds", "cli_seeds"])
def test_cli_dataset_run_echoes_the_seed_that_ran(tmp_path, argv, ran):
    # next to a dataset only the first seed runs, and the echo names only that seed
    cfg_path = write_cli_config(tmp_path, dataset=write_dc_motor_dataset(tmp_path), seeds=[4, 5, 6])
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")] + argv) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["config"]["seeds"] == [e["seed"] for e in report["per_seed"]] == [ran]


@pytest.mark.parametrize("top_k, code", [(7, 1), (6, 0)])
def test_cli_top_k_is_checked_against_the_dataset(tmp_path, capsys, top_k, code):
    # next to a 6-trajectory dataset top_k is bounded by those 6, not by the
    # unread generation.n_trajectories 3
    cfg_path = write_cli_config(tmp_path, dataset=write_dc_motor_dataset(tmp_path), top_k=top_k,
                                generation={"n_trajectories": 3, "t_min": 5, "t_max": 12})
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == code
    if code:
        assert "config error: top_k 7 exceeds the 6 trajectories" in capsys.readouterr().err


@pytest.mark.parametrize("n_x, with_dataset", [(2**62, False), (10**400, True)],
                         ids=["generated", "dataset"])
def test_cli_huge_n_x_is_config_error(tmp_path, capsys, n_x, with_dataset):
    # n_x sizes Q = I only after the generator or the dataset has accepted it;
    # neither size would fit in memory, so neither may reach numpy.eye
    extra = {"dataset": write_dc_motor_dataset(tmp_path)} if with_dataset else {}
    cfg_path = write_cli_config(tmp_path, system={"kind": "dc_motor", "n_x": n_x}, **extra)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert "config error: " in capsys.readouterr().err


def test_cli_unstabilizable_fit_is_numerical_failure(tmp_path, explosive_trajectory):
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


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_excluded_removal_is_nan_in_every_exact_array(partial_exclusion_dataset):
    fit = fit_ridge(partial_exclusion_dataset, 1e-3)
    Q, R = np.eye(1), np.eye(1)
    table = build_score_table(fit, riccati_artifacts(fit, Q, R), with_exact=True)
    assert table.excluded.tolist() == [True, False, False]
    assert np.isnan(table.delta_j_exact[0]) and np.isfinite(table.delta_j_exact[1:]).all()
    for field in dataclasses.fields(table.diagnostics):
        values = getattr(table.diagnostics, field.name)
        assert np.isnan(values[0]) and np.isfinite(values[1:]).all(), field.name


def test_cli_partial_exclusions_exit_code(tmp_path, capsys, partial_exclusion_dataset):
    ds_path = tmp_path / "data.json"
    save_dataset(partial_exclusion_dataset, ds_path)
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
    # scatter.csv and diagnostics.csv list only the scored removals, with the
    # score file's own strings
    scores, scatter, diags = (
        read_csv_rows(out_dir / name)
        for name in ("scores_seed0.csv", "scatter.csv", "diagnostics.csv")
    )
    assert [r["k"] for r in scatter] == ["1", "2"]
    assert [r["k"] for r in diags] == ["1", "2"]
    for row, drow in zip(scatter, diags):
        score = scores[int(row["k"])]
        assert row["seed"] == drow["seed"] == "0"
        for col in ("if_stoch", "if_fixed", "delta_j_exact"):
            assert row[col] == score[col] != ""
        for col in ("r_ric", "r_w", "r_cross"):
            assert drow[col] == score[col] != ""


def test_cli_run_with_every_refit_excluded_exits_partial(tmp_path, monkeypatch, capsys):
    # the msd_exact benchmark config, with no refit DARE stabilizable: no removal is
    # kept, so there is no top-k set to overlap and the run reports null, not a traceback
    monkeypatch.setattr(influence, "loto_record", lambda *args: None)
    cfg_path = write_cli_config(
        tmp_path, system={"kind": "msd"}, seeds=[0], run_exact_loto=True, run_heldout=False,
        generation={"n_trajectories": 50, "t_min": 5, "t_max": 40})
    out_dir = tmp_path / "o"
    assert main(["run", str(cfg_path), "--out", str(out_dir)]) == 3
    assert "50 refit(s) excluded" in capsys.readouterr().err
    entry = json.loads((out_dir / "report.json").read_text())["per_seed"][0]
    assert entry["excluded"] == list(range(50)) and entry["scored_count"] == 0
    for key in ("jaccard_stoch", "jaccard_fixed", "spearman_stoch", "spearman_fixed"):
        assert entry[key] is None, key
    rows = read_csv_rows(out_dir / "scores_seed0.csv")
    assert len(rows) == 50 and {r["excluded_flag"] for r in rows} == {"1"}


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


MODULES = sorted(m.name for m in pkgutil.iter_modules(lqrinfluence.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    # a fresh interpreter imports one module and only what it needs: an eager
    # package __init__ would import everything first and could hide a cycle
    script = (
        "import sys, types\n"
        f"import lqrinfluence.{module}\n"
        "pkg = sys.modules['lqrinfluence']\n"
        "print(pkg.__version__, sorted(name for name, value in vars(pkg).items()\n"
        "      if not name.startswith('__') and not isinstance(value, types.ModuleType)))\n"
        # numpy loads numpy.random lazily; importing it costs every fresh interpreter
        "assert 'numpy.random' not in sys.modules\n"
        # load_dataset imports the dataset reader when called: compiled from source
        # in every fresh interpreter, it raised the peak memory of runs without a dataset
        f"assert {module!r} == 'datafile' or 'lqrinfluence.datafile' not in sys.modules\n"
    )
    src = Path(lqrinfluence.__file__).resolve().parents[1]
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", script],
                          env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "0.1.0 []"


def test_every_csv_ends_lines_with_lf(tmp_path):
    cfg_path = write_cli_config(tmp_path, seeds=[0])
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    paths = sorted((tmp_path / "o").glob("*.csv"))
    assert [p.name for p in paths] == ["diagnostics.csv", "scatter.csv", "scores_seed0.csv"]
    for path in paths:
        data = path.read_bytes()
        assert data.endswith(b"\n") and b"\r" not in data, path.name


def test_exact_and_heldout_run_factors_the_refit_stack_once_per_seed(tmp_path, monkeypatch):
    # the exact sweep and the held-out sweep both read loto_refit; the (N, q, q)
    # stack is factored once per fit and shared
    stacks = []
    factor = sysid.cholesky_factor

    def counting(mat, *names):
        if np.ndim(mat) == 3:
            stacks.append(len(mat))
        return factor(mat, *names)

    monkeypatch.setattr(sysid, "cholesky_factor", counting)
    cfg_path = write_cli_config(tmp_path, seeds=[0, 1, 2], run_heldout=True, heldout_size=120)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    assert stacks == [BASE_DOC["generation"]["n_trajectories"]] * 3


def _logs_sized_dataset(path):
    """A 20-state, 5-input stable system's 200 trajectories, 10,000 transitions, from one stream."""
    rng = np.random.default_rng(2024)
    n_x, n_u, N = 20, 5, 200
    A = rng.normal(size=(n_x, n_x))
    A *= 0.9 / np.max(np.abs(np.linalg.eigvals(A)))
    B = rng.normal(size=(n_x, n_u)) / np.sqrt(n_x)
    lengths = np.full(N, 50)
    lengths[::2] += rng.integers(-30, 31, size=N // 2)
    lengths[1::2] = 100 - lengths[::2]   # pairs sum to 100: M is exactly 10,000
    triples = []
    for T in lengths:
        x, X, U, Xn = rng.normal(size=n_x), [], rng.normal(size=(T, n_u)), []
        for u in U:
            X.append(x)
            x = A @ x + B @ u + 0.1 * rng.normal(size=n_x)
            Xn.append(x)
        triples.append((np.array(X), U, np.array(Xn)))
    save_dataset(TrajectoryDataset.from_arrays(triples, n_x=n_x, n_u=n_u), path)


def test_outputs_are_byte_reproducible_at_one_blas_thread_count(tmp_path):
    # the documented contract: every CSV, and report.json outside "timings", is
    # byte-identical across runs on one NumPy/BLAS build at one BLAS thread count
    _logs_sized_dataset(tmp_path / "logs.json")
    cfg_path = write_cli_config(tmp_path, system={"kind": "dc_motor", "n_x": 20, "n_u": 5},
                                seeds=[0], dataset="logs.json", run_exact_loto=False)
    src = Path(lqrinfluence.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        runs = []
        for attempt in range(2):
            out = tmp_path / f"out-{threads}-{attempt}"
            subprocess.run([sys.executable, "-m", "lqrinfluence.cli", "run", str(cfg_path),
                            "--out", str(out)], cwd=tmp_path, env=env, check=True,
                           capture_output=True)
            raw = (out / "report.json").read_text()
            report = json.loads(raw)
            assert raw == json.dumps(report, indent=2) + "\n"   # its bytes follow its values
            assert report.pop("timings")
            files = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
            assert len(files) == 3
            runs.append((files, report))
        assert runs[0] == runs[1], f"{threads} BLAS thread(s)"
