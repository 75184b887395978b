"""Experiment configuration, ranking metrics, and the score-vs-retrain runner.

run_experiment ties the library together: generate (or load) a dataset per
seed, fit the ridge model, build the Riccati artifacts, score every
trajectory, optionally run the exact leave-one-out sweep, and aggregate
rank-agreement metrics across seeds.  Outputs are deterministic given the
config: the report is byte-identical across runs except for its separate
"timings" section.
"""
from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bench import (
    GenerationConfig,
    SystemSpec,
    generate_dataset,
    generate_heldout,
    heldout_prediction_scores,
    residual_lag1_autocorr,
    system_spec,
)
from .errors import DegenerateInput, InvalidConfig
from .influence import ScoreTable, build_score_table
from .lqr import riccati_artifacts
from .sysid import fit_ridge, load_dataset

_SOLVERS = ("dense", "cg")


def rankdata(a) -> np.ndarray:
    """1-based ranks of a flat array, tied values sharing their average rank.

    A NaN anywhere makes every rank NaN.
    """
    a = np.asarray(a, dtype=float).ravel()
    if np.isnan(a).any():
        return np.full(a.size, np.nan)
    order = np.argsort(a, kind="stable")
    ordered = a[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    bounds = np.r_[starts, a.size]
    # a tie group occupying sorted positions [lo, hi) holds ranks lo+1 .. hi
    group_rank = 0.5 * (bounds[:-1] + 1 + bounds[1:])
    ranks = np.empty(a.size)
    ranks[order] = np.repeat(group_rank, np.diff(bounds))
    return ranks


def spearman(a, b) -> float:
    """Spearman rank correlation (average ranks on ties)."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.shape != b.shape:
        raise DegenerateInput("inputs must have equal length")
    if a.size < 2:
        raise DegenerateInput("need at least two observations")
    if np.ptp(a) == 0 or np.ptp(b) == 0:
        raise DegenerateInput("constant input has no rank ordering")
    ra = rankdata(a)
    rb = rankdata(b)
    return float(np.corrcoef(ra, rb)[0, 1])


def topk_jaccard(a, b, k: int) -> float:
    """Jaccard overlap of the k smallest-score index sets (ties broken by index)."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.shape != b.shape:
        raise ValueError("inputs must have equal length")
    if not 1 <= k <= a.size:
        raise ValueError(f"k must be in [1, {a.size}], got {k}")
    # stable sort keeps ascending-index order among exact ties
    top_a = set(np.argsort(a, kind="stable")[:k].tolist())
    top_b = set(np.argsort(b, kind="stable")[:k].tolist())
    return len(top_a & top_b) / len(top_a | top_b)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment end to end."""

    system: SystemSpec
    generation: GenerationConfig
    seeds: tuple
    lam: float = 1e-3
    Q: np.ndarray | None = None      # None means identity
    R: np.ndarray | None = None
    top_k: int = 5
    solver: str = "dense"
    run_exact_loto: bool = True
    run_heldout: bool = False
    heldout_size: int = 10_000
    dataset_path: str | None = None

    def __post_init__(self):
        if len(self.seeds) == 0:
            raise InvalidConfig("seeds must be non-empty")
        if not 1 <= self.top_k <= self.generation.n_trajectories:
            raise InvalidConfig("top_k must be in [1, n_trajectories]")
        if self.solver not in _SOLVERS:
            raise InvalidConfig(f"solver must be one of {_SOLVERS}")
        if self.lam <= 0:
            raise InvalidConfig("lambda must be positive")
        if self.heldout_size < 2:
            raise InvalidConfig("heldout_size must be at least 2")

    def cost_matrices(self):
        Q = np.eye(self.system.n_x) if self.Q is None else self.Q
        R = np.eye(self.system.n_u) if self.R is None else self.R
        return Q, R


def _parse_matrix(value, dim: int, name: str):
    if value is None or value == "identity":
        return None
    M = np.asarray(value, dtype=float)
    if M.shape != (dim, dim):
        raise InvalidConfig(f"{name} must be {dim}x{dim}")
    return M


def parse_config(doc: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise InvalidConfig("config root must be an object")
    try:
        sys_doc = dict(doc["system"])
        gen_doc = dict(doc["generation"])
    except (KeyError, TypeError) as exc:
        raise InvalidConfig(f"config needs 'system' and 'generation' objects: {exc}") from exc
    kind = sys_doc.pop("kind", None)
    if kind is None:
        raise InvalidConfig("system.kind is required")
    spec = system_spec(kind, **sys_doc)
    try:
        gen = GenerationConfig(
            n_trajectories=int(gen_doc["n_trajectories"]),
            t_min=int(gen_doc["t_min"]),
            t_max=int(gen_doc["t_max"]),
            x0_scale=float(gen_doc.get("x0_scale", 1.0)),
        )
    except KeyError as exc:
        raise InvalidConfig(f"generation needs n_trajectories, t_min, t_max: {exc}") from exc
    seeds = doc.get("seeds")
    if not isinstance(seeds, (list, tuple)) or not seeds:
        raise InvalidConfig("seeds must be a non-empty list of integers")
    return ExperimentConfig(
        system=spec,
        generation=gen,
        seeds=tuple(int(s) for s in seeds),
        lam=float(doc.get("lambda", 1e-3)),
        Q=_parse_matrix(doc.get("Q", "identity"), spec.n_x, "Q"),
        R=_parse_matrix(doc.get("R", "identity"), spec.n_u, "R"),
        top_k=int(doc.get("top_k", 5)),
        solver=str(doc.get("solver", "dense")),
        run_exact_loto=bool(doc.get("run_exact_loto", True)),
        run_heldout=bool(doc.get("run_heldout", False)),
        heldout_size=int(doc.get("heldout_size", 10_000)),
        dataset_path=doc.get("dataset"),
    )


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidConfig(f"config is not valid JSON: {exc}") from exc
    return parse_config(doc)


@dataclass
class ExperimentReport:
    """Per-seed score tables plus deterministic aggregates and separate timings."""

    config_echo: dict
    per_seed: list = field(default_factory=list)       # metric dicts, one per seed
    aggregate: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)         # seed -> ScoreTable
    diagnostics_rows: list = field(default_factory=list)
    scatter_rows: list = field(default_factory=list)   # (seed, k, if_stoch, if_fixed, dj)

    def to_json_dict(self) -> dict:
        return {
            "config": self.config_echo,
            "per_seed": self.per_seed,
            "aggregate": self.aggregate,
            "timings": self.timings,
        }


def _config_echo(cfg: ExperimentConfig) -> dict:
    spec = cfg.system
    sys_echo = {"kind": spec.kind, "n_x": spec.n_x, "n_u": spec.n_u, "dt": spec.dt}
    Q, R = cfg.cost_matrices()
    return {
        "system": sys_echo,
        "generation": {
            "n_trajectories": cfg.generation.n_trajectories,
            "t_min": cfg.generation.t_min,
            "t_max": cfg.generation.t_max,
            "x0_scale": cfg.generation.x0_scale,
        },
        "seeds": list(cfg.seeds),
        "lambda": cfg.lam,
        "Q": Q.tolist(),
        "R": R.tolist(),
        "top_k": cfg.top_k,
        "solver": cfg.solver,
        "run_exact_loto": cfg.run_exact_loto,
        "run_heldout": cfg.run_heldout,
        "heldout_size": cfg.heldout_size,
        "dataset": cfg.dataset_path,
    }


def _finite_or_none(x) -> float | None:
    x = float(x)
    return x if np.isfinite(x) else None


def _mean_std(values: list) -> dict:
    vals = np.asarray([v for v in values if v is not None], dtype=float)
    if vals.size == 0:
        return {"mean": None, "std": None}
    mean = float(vals.mean())
    std = float(vals.std(ddof=1)) if vals.size > 1 else None
    return {"mean": mean, "std": std}


def run_experiment(cfg: ExperimentConfig, progress=None) -> ExperimentReport:
    """Run the score pipeline (and optional exact sweep) for every seed."""
    Q, R = cfg.cost_matrices()
    report = ExperimentReport(config_echo=_config_echo(cfg))
    external = load_dataset(cfg.dataset_path) if cfg.dataset_path else None
    if external is not None and (external.n_x, external.n_u) != (cfg.system.n_x, cfg.system.n_u):
        raise InvalidConfig(
            f"dataset {cfg.dataset_path} has n_x={external.n_x}, n_u={external.n_u}; "
            f"the config's system has n_x={cfg.system.n_x}, n_u={cfg.system.n_u}"
        )
    seeds = cfg.seeds[:1] if external is not None else cfg.seeds

    for seed in seeds:
        if progress:
            progress(f"seed {seed}")
        if external is not None:
            data = external
        else:
            data = generate_dataset(cfg.system, dataclasses.replace(cfg.generation, seed=seed))

        t0 = time.perf_counter()
        fit = fit_ridge(data, cfg.lam)
        art = riccati_artifacts(fit, Q, R, fit.W_hat, solver=cfg.solver)
        prep_time = time.perf_counter() - t0

        table = build_score_table(fit, art, Q, R, with_exact=cfg.run_exact_loto)
        table.score_time += prep_time  # pipeline time includes fit + Riccati prep
        report.tables[seed] = table

        entry = {
            "seed": seed,
            "n_trajectories": fit.N,
            "total_transitions": fit.M,
            "excluded": table.excluded_indices(),
            "scored_count": fit.N - len(table.excluded_indices()),
            "residual_autocorr": _finite_or_none(residual_lag1_autocorr(fit)),
        }
        timing = {"seed": seed, "score_pipeline_s": table.score_time}

        if cfg.run_exact_loto:
            mask = np.isfinite(table.delta_j_exact)
            dj = table.delta_j_exact[mask]
            entry["spearman_stoch"] = _finite_or_none(spearman(table.if_stoch[mask], dj))
            entry["spearman_fixed"] = _finite_or_none(spearman(table.if_fixed[mask], dj))
            k_eff = min(cfg.top_k, int(mask.sum()))
            entry["jaccard_stoch"] = topk_jaccard(table.if_stoch[mask], dj, k_eff)
            entry["jaccard_fixed"] = topk_jaccard(table.if_fixed[mask], dj, k_eff)
            timing["exact_sweep_s"] = table.refit_time
            timing["speedup"] = (table.refit_time / table.score_time
                                 if table.score_time > 0 else None)
            for k in np.flatnonzero(mask):
                report.scatter_rows.append(
                    (seed, int(k), table.if_stoch[k], table.if_fixed[k],
                     table.delta_j_exact[k]))
            if table.diagnostics is not None:
                for k, diag in enumerate(table.diagnostics):
                    if diag is None:
                        continue
                    report.diagnostics_rows.append({
                        "seed": seed, "k": k,
                        "delta_theta_norm": diag.delta_theta_norm,
                        "r_ric": diag.r_ric, "r_w": diag.r_w, "r_cross": diag.r_cross,
                        "bound_w": diag.bound_w, "bound_ric": diag.bound_ric,
                        "bound_cross": diag.bound_cross,
                    })

        if cfg.run_heldout:
            heldout = generate_heldout(cfg.system, seed, cfg.heldout_size)
            if_pred, delta_l = heldout_prediction_scores(fit, heldout)
            entry["spearman_pred"] = _finite_or_none(spearman(if_pred, delta_l))

        report.per_seed.append(entry)
        report.timings.setdefault("per_seed", []).append(timing)

    metric_keys = sorted({key for entry in report.per_seed
                          for key in entry
                          if isinstance(entry[key], (int, float, type(None)))
                          and key not in ("seed", "n_trajectories",
                                          "total_transitions", "scored_count")})
    report.aggregate = {key: _mean_std([e.get(key) for e in report.per_seed])
                        for key in metric_keys}
    if cfg.run_exact_loto:
        report.timings["aggregate"] = {
            "speedup": _mean_std([t.get("speedup") for t in report.timings["per_seed"]]),
        }
    return report


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    return "" if not np.isfinite(x) else format(x, ".17g")


def write_outputs(report: ExperimentReport, out_dir) -> list:
    """Write report.json, per-seed score CSVs, scatter.csv, diagnostics.csv."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    path = out / "report.json"
    with open(path, "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2)
        fh.write("\n")
    written.append(path)

    for seed, table in report.tables.items():
        path = out / f"scores_seed{seed}.csv"
        table.to_csv(path)
        written.append(path)

    path = out / "scatter.csv"
    with open(path, "w") as fh:
        fh.write("seed,k,if_stoch,if_fixed,delta_j_exact\n")
        for seed, k, s, f, dj in report.scatter_rows:
            fh.write(f"{seed},{k},{_fmt(s)},{_fmt(f)},{_fmt(dj)}\n")
    written.append(path)

    path = out / "diagnostics.csv"
    cols = ["seed", "k", "delta_theta_norm", "r_ric", "r_w", "r_cross",
            "bound_w", "bound_ric", "bound_cross"]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in report.diagnostics_rows:
            fh.write(",".join(_fmt(row[c]) for c in cols) + "\n")
    written.append(path)
    return written
