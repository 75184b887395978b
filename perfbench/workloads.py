"""The benchmark's workloads: what each one feeds `lqr-influence run`.

Every workload owns a pool of inputs whose reference outputs are stored in
`reference/<workload>.json.gz`.  A run's `--seed` fixes a permutation of that
pool; the run walks the permutation, cycling, until its time is up.  The
program itself only ever sees the config file (and, for `logs_score`, the
dataset file) written here.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    pool: tuple          # input ids with stored reference outputs
    config: dict         # config template; "seeds" / "dataset" are filled per input
    # score_s is calibrated by the memory probe as well as the CPU probe
    # (calibrate.py): its scoring works on matrices of a few megabytes
    memory_bound_scoring: bool = False


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.

# gate 5's config: the fixed-point DARE of 51 solves per call dominates
MSD_EXACT = Workload(
    name="msd_exact",
    pool=tuple(range(10)),   # gate 5's seeds 0-9
    config={
        "system": {"kind": "msd"},
        "generation": {"n_trajectories": 50, "t_min": 5, "t_max": 40},
        "run_exact_loto": True,
        "run_heldout": False,
    },
)

# the score-your-own-logs route: dataset load dominates, the DARE is <1%
LOGS_SCORE = Workload(
    name="logs_score",
    pool=tuple(range(4)),
    config={
        # with an external dataset the system entry only sets the Q/R dimensions
        "system": {"kind": "dc_motor", "n_x": 20, "n_u": 5},
        "generation": {"n_trajectories": 200, "t_min": 20, "t_max": 80},
        "run_exact_loto": False,
        "run_heldout": False,
    },
    # the 500 x 500 ridge Hessian; over six 22-second runs (2 vCPUs, Intel Xeon) the CPU probe
    # alone left a 5.1% coefficient of variation in score_s, both probes 2.0%
    memory_bound_scoring=True,
)

# controller-free validation: the Python simulators dominate
MISSION_HELDOUT = Workload(
    name="mission_heldout",
    pool=tuple(range(10)),
    config={
        "system": {"kind": "uav_mission"},
        "generation": {"n_trajectories": 30, "t_min": 30, "t_max": 60},
        "run_exact_loto": False,
        "run_heldout": True,
        "heldout_size": 10_000,
    },
)

WORKLOADS = {w.name: w for w in (MSD_EXACT, LOGS_SCORE, MISSION_HELDOUT)}

# Size of the logs_score system and corpus.  At 40 states (p=2000) the fit's
# p x p factorization streams 32 MB matrices from memory, and its run-to-run
# spread on a shared machine (up to 22% over five runs) swamped the bounds;
# at p=500 the matrices stay in cache.
LOGS_NX, LOGS_NU, LOGS_N, LOGS_TMIN, LOGS_TMAX, LOGS_M = 20, 5, 200, 20, 80, 10_000


def input_order(workload: Workload, seed: int) -> list:
    """The pool in the order a run with this seed visits it."""
    perm = np.random.default_rng(seed).permutation(len(workload.pool))
    return [workload.pool[i] for i in perm]


def logs_lengths(rng: np.random.Generator) -> np.ndarray:
    """LOGS_N lengths in [LOGS_TMIN, LOGS_TMAX] summing to exactly LOGS_M.

    A fixed total keeps the load and fit cost the same across pool inputs.
    """
    lengths = rng.integers(LOGS_TMIN, LOGS_TMAX + 1, size=LOGS_N)
    while (gap := LOGS_M - int(lengths.sum())) != 0:
        k = int(rng.integers(LOGS_N))
        step = 1 if gap > 0 else -1
        if LOGS_TMIN <= lengths[k] + step <= LOGS_TMAX:
            lengths[k] += step
    return lengths


def logs_dataset(input_id: int):
    """A random stable linear system's trajectories, as a TrajectoryDataset."""
    from lqrinfluence.sysid import TrajectoryDataset

    rng = np.random.default_rng(np.random.SeedSequence(entropy=input_id, spawn_key=(7,)))
    A = rng.normal(size=(LOGS_NX, LOGS_NX))
    A *= 0.9 / np.max(np.abs(np.linalg.eigvals(A)))
    B = rng.normal(size=(LOGS_NX, LOGS_NU)) / np.sqrt(LOGS_NX)
    lengths = logs_lengths(rng)
    # all trajectories step together; each keeps its first T_k steps
    x = rng.normal(size=(LOGS_N, LOGS_NX))
    U = rng.normal(size=(LOGS_TMAX, LOGS_N, LOGS_NU))
    noise = 0.1 * rng.normal(size=(LOGS_TMAX, LOGS_N, LOGS_NX))
    X = np.empty((LOGS_TMAX, LOGS_N, LOGS_NX))
    Xn = np.empty_like(X)
    for t in range(LOGS_TMAX):
        X[t] = x
        x = x @ A.T + U[t] @ B.T + noise[t]
        Xn[t] = x
    triples = [(X[:T, k], U[:T, k], Xn[:T, k]) for k, T in enumerate(lengths)]
    return TrajectoryDataset.from_arrays(triples, n_x=LOGS_NX, n_u=LOGS_NU)


def write_inputs(workload: Workload, input_id: int, work_dir: Path) -> Path:
    """Write the config (and any dataset) for one pool input; return the config path.

    Paths inside the config are relative to the directory the benchmark runs
    from, so reports are the same in every checkout.
    """
    from lqrinfluence.sysid import save_dataset

    doc = dict(workload.config, seeds=[int(input_id)])
    if workload is LOGS_SCORE:
        data_path = work_dir / f"logs-{input_id}.json"
        if not data_path.exists():
            save_dataset(logs_dataset(input_id), data_path)
        doc["dataset"] = data_path.as_posix()
    cfg_path = work_dir / f"{workload.name}-{input_id}.json"
    cfg_path.write_text(json.dumps(doc, indent=2) + "\n")
    return cfg_path
