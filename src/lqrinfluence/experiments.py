"""Experiment configuration, ranking metrics, and the score-vs-retrain runner.

run_experiment ties the library together: generate a seed's sets in one pass
(or load a dataset), fit the ridge model, build the Riccati artifacts, score
every trajectory, optionally run the exact leave-one-out sweep, and aggregate
rank-agreement metrics across seeds.  Outputs are deterministic given the
config: the report is byte-identical across runs except for its separate
"timings" section, on the same NumPy/BLAS build at the same BLAS thread count
(a threaded BLAS may sum a product over all transitions in another order).
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
    _check_generable,
    _ok,
    _simulate,
    heldout_prediction_scores,
    residual_lag1_autocorr,
    system_spec,
)
from .errors import DegenerateInput, InvalidConfig
from .influence import DecompositionDiagnostics, build_score_table, csv_column, write_csv
from .lqr import riccati_artifacts
from .sysid import _json_array, _json_keys, _json_scalar, fit_ridge, load_dataset, load_json


def rankdata(a) -> np.ndarray:
    """1-based ranks of a flat array, tied values sharing their average rank.

    A NaN anywhere makes every rank NaN.
    """
    a = np.asarray(a, dtype=float).ravel()
    if np.isnan(a).any():
        return np.full(a.size, np.nan)
    _, group, counts = np.unique(a, return_inverse=True, return_counts=True)
    # the c values of a tie group ending at rank hi hold ranks hi-c+1 .. hi
    return (np.cumsum(counts) - (counts - 1) / 2)[group]


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
    return float(np.corrcoef(rankdata(a), rankdata(b))[0, 1])


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
    run_exact_loto: bool = True
    run_heldout: bool = False
    heldout_size: int = 10_000
    dataset_path: str | None = None

    def __post_init__(self):
        if len(self.seeds) == 0:
            raise InvalidConfig("seeds must be non-empty")
        if min(self.seeds) < 0 or len(set(self.seeds)) < len(self.seeds):
            raise InvalidConfig(f"seeds must be distinct and non-negative, got {list(self.seeds)}")
        # next to a dataset run_experiment checks top_k against the dataset's N instead
        n_max = self.generation.n_trajectories if self.dataset_path is None else np.inf
        if not 1 <= self.top_k <= n_max:
            raise InvalidConfig("top_k must be in [1, n_trajectories]")
        if not 0 < self.lam < np.inf:
            raise InvalidConfig("lambda must be positive and finite")
        if self.heldout_size < 2:
            raise InvalidConfig("heldout_size must be at least 2")
        # bool("false") is True and open(7) opens a file descriptor: take no other type
        if not isinstance(self.run_exact_loto, bool) or not isinstance(self.run_heldout, bool):
            raise InvalidConfig("run_exact_loto and run_heldout must be true or false")
        # "" is no path: the runner would read it as no dataset, parse_config as one
        if not isinstance(self.dataset_path, (str, type(None))) or self.dataset_path == "":
            raise InvalidConfig(f"dataset must be a path string or null, not {self.dataset_path!r}")

    def cost_matrices(self):
        Q = np.eye(self.system.n_x) if self.Q is None else self.Q
        R = np.eye(self.system.n_u) if self.R is None else self.R
        return Q, R


# the config keys parse_config reads; the removed "solver" key is still accepted and ignored
_CONFIG_KEYS = ("system", "generation", "seeds", "lambda", "Q", "R", "top_k", "run_exact_loto",
                "run_heldout", "heldout_size", "dataset", "solver")


def _weight(doc: dict, name: str, dim: int, definite: bool):
    """Q or R: None for identity, else a symmetric dim x dim positive (semi)definite matrix."""
    value = doc.get(name)
    return None if value in (None, "identity") else _json_array(value, name, (dim, dim), definite)


def parse_config(doc: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed JSON document.

    A missing entry, a key nothing reads, a value of the wrong JSON type
    (integer fields take integers only, lambda and x0_scale numbers only,
    array entries numbers only), a Q that is not positive semidefinite or an
    R that is not positive definite raises InvalidConfig, and so does a
    system override that an external dataset leaves unread.
    """
    if not isinstance(doc, dict):
        raise InvalidConfig("config root must be an object")
    _json_keys(doc, _CONFIG_KEYS, "")
    if not all(isinstance(doc.get(key), dict) for key in ("system", "generation")):
        raise InvalidConfig("config needs 'system' and 'generation' objects")
    sys_doc, gen_doc = dict(doc["system"]), doc["generation"]
    _json_keys(gen_doc, ("n_trajectories", "t_min", "t_max", "x0_scale"), "generation.")
    kind = sys_doc.pop("kind", None)
    # nothing is generated then: n_x, n_u size Q and R, dt is echoed, the rest is unread
    if doc.get("dataset") is not None and doc.get("run_heldout") is not True:
        _json_keys(sys_doc, ("n_x", "n_u", "dt"), "system.",
                   " next to an external dataset without run_heldout")
    spec = system_spec(kind, **sys_doc)
    seeds = doc.get("seeds")
    if not isinstance(seeds, (list, tuple)) or not seeds:
        raise InvalidConfig("seeds must be a non-empty list of integers")
    gen = GenerationConfig(
        **{key: _json_scalar(gen_doc.get(key), f"generation.{key}")
           for key in ("n_trajectories", "t_min", "t_max")},
        x0_scale=_json_scalar(gen_doc.get("x0_scale", 1.0), "generation.x0_scale", number=True),
    )
    return ExperimentConfig(
        system=spec,
        generation=gen,
        seeds=tuple(_json_scalar(s, "seeds") for s in seeds),
        lam=_json_scalar(doc.get("lambda", 1e-3), "lambda", number=True),
        Q=_weight(doc, "Q", spec.n_x, definite=False),
        R=_weight(doc, "R", spec.n_u, definite=True),
        top_k=_json_scalar(doc.get("top_k", 5), "top_k"),
        run_exact_loto=doc.get("run_exact_loto", True),
        run_heldout=doc.get("run_heldout", False),
        heldout_size=_json_scalar(doc.get("heldout_size", 10_000), "heldout_size"),
        dataset_path=doc.get("dataset"),
    )


def _unique_keys(pairs: list) -> dict:
    """A config object's members; a repeated key raises InvalidConfig where dict keeps the last."""
    keys = [key for key, _ in pairs]
    if len(set(keys)) < len(keys):
        key = next(key for key in keys if keys.count(key) > 1)
        raise InvalidConfig(f"config repeats the key {key!r}")
    return dict(pairs)


def load_config(path) -> ExperimentConfig:
    return parse_config(load_json(path, "config",
                                  lambda fh: json.load(fh, object_pairs_hook=_unique_keys)))


@dataclass
class ExperimentReport:
    """Per-seed score tables plus deterministic aggregates and separate timings."""

    config_echo: dict
    per_seed: list = field(default_factory=list)       # metric dicts, one per seed
    aggregate: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)         # seed -> ScoreTable

    def to_json_dict(self) -> dict:
        return {
            "config": self.config_echo,
            "per_seed": self.per_seed,
            "aggregate": self.aggregate,
            "timings": self.timings,
        }


def _config_echo(cfg: ExperimentConfig, seeds, Q: np.ndarray, R: np.ndarray) -> dict:
    """The effective config: the seeds that run and the Q, R the controller uses."""
    spec = cfg.system
    return {
        "system": {"kind": spec.kind, "n_x": spec.n_x, "n_u": spec.n_u, "dt": spec.dt},
        "generation": {
            "n_trajectories": cfg.generation.n_trajectories,
            "t_min": cfg.generation.t_min,
            "t_max": cfg.generation.t_max,
            "x0_scale": cfg.generation.x0_scale,
        },
        "seeds": list(seeds),
        "lambda": cfg.lam,
        "Q": Q.tolist(),
        "R": R.tolist(),
        "top_k": cfg.top_k,
        "solver": "dense",   # the one H^-1 method: a solve on the Gram factor
        "run_exact_loto": cfg.run_exact_loto,
        "run_heldout": cfg.run_heldout,
        "heldout_size": cfg.heldout_size,
        "dataset": cfg.dataset_path,
    }


def _finite_or_none(x) -> float | None:
    x = float(x)
    return x if np.isfinite(x) else None


def _rank_agreement(a, b) -> float | None:
    """spearman(a, b), or None where either side has no rank ordering to compare."""
    try:
        return _finite_or_none(spearman(a, b))
    except DegenerateInput:   # constant, or fewer than two kept removals
        return None


def _mean_std(values: list) -> dict:
    vals = np.asarray([v for v in values if v is not None], dtype=float)
    if vals.size == 0:
        return {"mean": None, "std": None}
    return {"mean": float(vals.mean()), "std": float(vals.std(ddof=1)) if vals.size > 1 else None}


def run_experiment(cfg: ExperimentConfig, progress=None) -> ExperimentReport:
    """Run the score pipeline (and optional exact sweep) per seed; next to a dataset, the first only.

    One _simulate call per seed makes its training set (none next to a dataset)
    and its held-out set (with run_heldout); a dataset alone needs no call.
    """
    external = load_dataset(cfg.dataset_path) if cfg.dataset_path else None
    if external is not None and (external.n_x, external.n_u) != (cfg.system.n_x, cfg.system.n_u):
        raise InvalidConfig(
            f"dataset {cfg.dataset_path} has n_x={external.n_x}, n_u={external.n_u}; "
            f"the config's system has n_x={cfg.system.n_x}, n_u={cfg.system.n_u}"
        )
    if external is not None and external.N < 2:
        raise InvalidConfig(f"dataset {cfg.dataset_path} holds a single trajectory; "
                            "leave-one-trajectory-out scoring needs at least two")
    if external is not None and cfg.top_k > external.N:
        raise InvalidConfig(f"top_k {cfg.top_k} exceeds the {external.N} trajectories "
                            f"of dataset {cfg.dataset_path}")
    if external is None or cfg.run_heldout:
        _check_generable(cfg.system)
    seeds = cfg.seeds[:1] if external is not None else cfg.seeds
    Q, R = cfg.cost_matrices()   # only now: n_x and n_u size nothing before they are checked
    report = ExperimentReport(config_echo=_config_echo(cfg, seeds, Q, R))
    gen = cfg.generation if external is None else None
    heldout_size = cfg.heldout_size if cfg.run_heldout else 0

    for seed in seeds:
        if progress:
            progress(f"seed {seed}")
        # one pass makes the seed's sets; the held-out set's error waits until it is read
        sets = _simulate(cfg.system, seed, gen, heldout_size) if gen or heldout_size else []
        data = _ok(sets.pop(0)) if gen else external

        t0 = time.perf_counter()
        fit = fit_ridge(data, cfg.lam)
        art = riccati_artifacts(fit, Q, R)
        prep_time = time.perf_counter() - t0

        table = build_score_table(fit, art, with_exact=cfg.run_exact_loto)
        report.tables[seed] = table
        pipeline_time = prep_time + table.score_time   # fit + Riccati prep + scores

        entry = {
            "seed": seed,
            "n_trajectories": fit.N,
            "total_transitions": fit.M,
            "excluded": table.excluded_indices(),
            "scored_count": fit.N - len(table.excluded_indices()),
            "residual_autocorr": _finite_or_none(residual_lag1_autocorr(fit)),
        }
        timing = {"seed": seed, "score_pipeline_s": pipeline_time}

        if cfg.run_exact_loto:
            mask = np.isfinite(table.delta_j_exact)
            dj = table.delta_j_exact[mask]
            entry["spearman_stoch"] = _rank_agreement(table.if_stoch[mask], dj)
            entry["spearman_fixed"] = _rank_agreement(table.if_fixed[mask], dj)
            k_eff = min(cfg.top_k, int(mask.sum()))   # 0 when every refit is excluded: no top set
            for name, score in (("stoch", table.if_stoch), ("fixed", table.if_fixed)):
                entry[f"jaccard_{name}"] = topk_jaccard(score[mask], dj, k_eff) if k_eff else None
            timing["exact_sweep_s"] = table.refit_time
            timing["speedup"] = table.refit_time / pipeline_time if pipeline_time > 0 else None

        if cfg.run_heldout:
            if_pred, delta_l = heldout_prediction_scores(fit, _ok(sets[0]))
            entry["spearman_pred"] = _rank_agreement(if_pred, delta_l)

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


def write_outputs(report: ExperimentReport, out_dir) -> list:
    """Write report.json, per-seed score CSVs, scatter.csv, diagnostics.csv."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "report.json"
    path.write_text(json.dumps(report.to_json_dict(), indent=2) + "\n")
    written = [path]

    # scatter.csv and diagnostics.csv: a row per scored removal, in the score file's strings
    diag = [f.name for f in dataclasses.fields(DecompositionDiagnostics)]
    files = {out / "scatter.csv": ["seed", "k", "if_stoch", "if_fixed", "delta_j_exact"],
             out / "diagnostics.csv": ["seed", "k", *diag]}
    rows = {c: [] for header in files.values() for c in header}   # column -> its cells
    for seed, table in report.tables.items():
        path = out / f"scores_seed{seed}.csv"
        cells = table.to_csv(path)
        written.append(path)
        if table.diagnostics is not None:   # add the columns the score file lacks
            cells["seed"] = [str(seed)] * table.N
            cells.update((c, csv_column(getattr(table.diagnostics, c)))
                         for c in diag if c not in cells)
            kept = np.flatnonzero(~table.excluded).tolist()
            for c, col in rows.items():
                col.extend(map(cells[c].__getitem__, kept))
    for path, header in files.items():
        write_csv(path, header, [rows[c] for c in header])
        written.append(path)
    return written
