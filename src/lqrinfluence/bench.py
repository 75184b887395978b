"""Benchmark systems, seeded dataset generation, and held-out prediction validation.

Four systems of increasing identification difficulty:

* dc_motor   — two-state motor (speed, current), exact zero-order-hold
               discretization, homogeneous noise W = 0.1 I;
* msd        — two-mass spring-damper chain, Euler discretized, per-trajectory
               noise variance drawn from a wide range (heterogeneous);
* uav_hover  — planar point-mass quadrotor with quadratic drag and wind gusts,
               regulated near the origin (mild model mismatch);
* uav_mission— same vehicle tracking aggressive references (figure-eight,
               descending-S, circle), far outside the linear regime.

All randomness derives from (seed, stream, k) keyed NumPy streams. Stream 0
draws a dataset's lengths, trajectory k of a dataset draws from (seed, 1, k)
and held-out trajectory k from (seed, 2, k), each
default_rng(SeedSequence(entropy=seed, spawn_key=(stream, k))) bit for bit.
_simulate makes a seed's training and held-out sets in one pass. One loop takes
each trajectory's draws in a serial loop's order (tests/test_bench.py keeps it
as the oracle). Elementwise array kernels then advance every trajectory in
lockstep. So serial and parallel generation agree bit for bit, for every kind.
Each set's error comes when that set is asked for.
"""
from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidConfig
from .linalg import expm
from .sysid import (ModelFit, TrajectoryDataset, _json_array, _json_keys, _json_scalar,
                    eta_dot, loto_refit)

_LINEAR_KINDS = ("dc_motor", "msd")
_UAV_KINDS = ("uav_hover", "uav_mission")

# dc motor physical constants (SI): inertia, friction, torque/back-emf, resistance, inductance
_DC_J, _DC_B, _DC_K, _DC_RA, _DC_LA = 0.01, 0.1, 0.01, 1.0, 0.5

# planar quadrotor constants
_UAV_DRAG = 0.3
_HOVER_GAINS = (1.2, 1.8)     # kp, kd regulating to the origin
_MISSION_GAINS = (2.0, 2.8)   # kp, kd tracking the reference
_MISSION_REFS = ("figure_eight", "descending_s", "circle")

# msd per-trajectory noise variance range; held-out trajectory length
_MSD_SIGMA_SQ_RANGE = (0.01, 1.0)
_HELDOUT_TRAJ_LEN = 50


@dataclass(frozen=True)
class SystemSpec:
    """One benchmark system: true dynamics, noise model, and input/reference policy."""

    kind: str
    n_x: int
    n_u: int
    dt: float
    a_d: np.ndarray | None = None          # discrete-time truth (linear kinds)
    b_d: np.ndarray | None = None
    noise_cov: np.ndarray | None = None    # homogeneous process noise
    sigma_sq_range: tuple[float, float] | None = None  # per-trajectory variance range
    input_std: float = 0.0                 # excitation std (linear kinds)
    x0_std: np.ndarray | None = None
    drag: float = 0.0
    gust_std: float = 0.0
    excitation_std: float = 0.0            # policy excitation (uav kinds)


def _discretize(A_c, B_c, dt: float, zoh: bool):
    """(a_d, b_d) of x' = A_c x + B_c u at step dt: zero-order hold through expm, or Euler."""
    n, m = B_c.shape
    with np.errstate(over="ignore"):
        block = np.vstack([np.hstack([A_c, B_c]), np.zeros((m, n + m))]) * dt
    if not np.isfinite(block).all():
        raise InvalidConfig(f"system.dt {dt!r} overflows the continuous-time dynamics")
    eblock = expm(block) if zoh else np.eye(n + m) + block
    return eblock[:n, :n], eblock[:n, n:]


def dc_motor_spec(dt: float = 0.1) -> SystemSpec:
    """Two-state DC motor (angular velocity, armature current), voltage input, ZOH at dt."""
    A_c = np.array([[-_DC_B / _DC_J, _DC_K / _DC_J],
                    [-_DC_K / _DC_LA, -_DC_RA / _DC_LA]])
    B_c = np.array([[0.0], [1.0 / _DC_LA]])
    A_d, B_d = _discretize(A_c, B_c, dt, zoh=True)
    return SystemSpec(kind="dc_motor", n_x=2, n_u=1, dt=dt, a_d=A_d, b_d=B_d,
                      noise_cov=0.1 * np.eye(2), input_std=0.25, x0_std=np.array([1.0, 1.0]))


def msd_spec(dt: float = 0.05) -> SystemSpec:
    """Two-mass spring-damper chain, force input per mass, Euler at dt."""
    m1 = m2 = 1.0
    k1 = k2 = 2.0
    c1 = c2 = 1.0
    A_c = np.array([
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [-(k1 + k2) / m1, k2 / m1, -(c1 + c2) / m1, c2 / m1],
        [k2 / m2, -k2 / m2, c2 / m2, -c2 / m2],
    ])
    B_c = np.array([[0.0, 0.0], [0.0, 0.0], [1.0 / m1, 0.0], [0.0, 1.0 / m2]])
    A_d, B_d = _discretize(A_c, B_c, dt, zoh=False)
    return SystemSpec(kind="msd", n_x=4, n_u=2, dt=dt, a_d=A_d, b_d=B_d,
                      sigma_sq_range=_MSD_SIGMA_SQ_RANGE, input_std=4.0, x0_std=0.5 * np.ones(4))


def uav_hover_spec(dt: float = 0.1) -> SystemSpec:
    return SystemSpec(kind="uav_hover", n_x=4, n_u=2, dt=dt, drag=_UAV_DRAG, gust_std=0.3,
                      excitation_std=0.25, x0_std=np.array([0.6, 0.6, 0.15, 0.15]))


def uav_mission_spec(dt: float = 0.1) -> SystemSpec:
    return SystemSpec(kind="uav_mission", n_x=4, n_u=2, dt=dt, drag=_UAV_DRAG, gust_std=0.5,
                      excitation_std=0.25, x0_std=np.array([0.3, 0.3, 0.2, 0.2]))


_SPEC_FACTORIES = {
    "dc_motor": dc_motor_spec,
    "msd": msd_spec,
    "uav_hover": uav_hover_spec,
    "uav_mission": uav_mission_spec,
}


# array fields a config may override: their shapes in terms of n_x/n_u, and
# whether they must be symmetric positive definite
_ARRAY_FIELDS = {
    "a_d": (("n_x", "n_x"), None),
    "b_d": (("n_x", "n_u"), None),
    "noise_cov": (("n_x", "n_x"), True),
    "x0_std": (("n_x",), None),
}

# scalar fields a config may override, each a finite number >= 0 (dt > 0)
_SCALAR_FIELDS = ("dt", "input_std", "drag", "gust_std", "excitation_std")

# fields the generators read: every kind, only the linear ones, only the quadrotor ones
_COMMON_FIELDS = ("n_x", "n_u", "dt", "x0_std")
_LINEAR_ONLY = ("a_d", "b_d", "noise_cov", "sigma_sq_range", "input_std")
_UAV_ONLY = ("drag", "gust_std", "excitation_std")


def _read_arrays(dims: dict, values: dict) -> dict:
    """The array fields set in values, read as float arrays shaped by dims' n_x and n_u."""
    return {name: _json_array(values[name], f"system.{name}",
                              tuple(dims[d] for d in shape), definite)
            for name, (shape, definite) in _ARRAY_FIELDS.items() if values.get(name) is not None}


def system_spec(kind: str, **overrides) -> SystemSpec:
    """Build a benchmark spec by kind, with optional field overrides.

    n_x/n_u must be positive integers, the scalar fields finite and
    nonnegative (dt positive), and sigma_sq_range a [low, high] pair of
    them. Overridden array fields (a_d, b_d, noise_cov, x0_std) must hold
    numbers only (a bool or a string is neither), be finite and match the
    resulting n_x/n_u, noise_cov symmetric positive definite; they are
    converted to float arrays, and fields not overridden are left as the kind
    defines them. Anything else raises InvalidConfig, and so does an override
    the kind's generator never reads: a_d, b_d, noise_cov, sigma_sq_range or
    input_std on a UAV kind, drag, gust_std or excitation_std on a linear
    kind, noise_cov where sigma_sq_range sets the noise, and any name that is
    not a field.
    """
    if not isinstance(kind, str) or kind not in _SPEC_FACTORIES:   # a list is unhashable
        raise InvalidConfig(f"unknown system kind {kind!r}; known: {', '.join(_SPEC_FACTORIES)}")
    spec = _SPEC_FACTORIES[kind]()
    read = set(_COMMON_FIELDS + (_UAV_ONLY if kind in _UAV_KINDS else _LINEAR_ONLY))
    if spec.sigma_sq_range is not None or "sigma_sq_range" in overrides:   # it sets the noise
        read.discard("noise_cov")
    _json_keys(overrides, read, "system.", f" by the {kind} generator")
    fields = {name: _json_scalar(overrides[name], f"system.{name}", low=1)
              for name in ("n_x", "n_u") if name in overrides}
    fields.update((name, _json_scalar(overrides[name], f"system.{name}", number=True, low=0))
                  for name in _SCALAR_FIELDS if name in overrides)
    if fields.get("dt") == 0:
        raise InvalidConfig("system.dt must be positive")
    if "dt" in fields:   # the linear kinds discretize at it
        spec = _SPEC_FACTORIES[kind](fields["dt"])
    if "sigma_sq_range" in overrides:
        pair = overrides["sigma_sq_range"]
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise InvalidConfig(f"system.sigma_sq_range must be [low, high], got {pair!r}")
        low, high = (_json_scalar(v, "system.sigma_sq_range", number=True, low=0) for v in pair)
        if low > high:
            raise InvalidConfig(f"system.sigma_sq_range needs low <= high, got {pair!r}")
        fields["sigma_sq_range"] = (low, high)
    dims = {name: fields.get(name, getattr(spec, name)) for name in ("n_x", "n_u")}
    return replace(spec, **fields, **_read_arrays(dims, overrides))


@dataclass(frozen=True)
class GenerationConfig:
    """How many trajectories, how long, and from which seed."""

    n_trajectories: int
    t_min: int
    t_max: int
    seed: int = 0
    x0_scale: float = 1.0

    def __post_init__(self):
        if not (1 <= self.t_min <= self.t_max):
            raise InvalidConfig("need 1 <= t_min <= t_max")
        if self.n_trajectories < 2:
            raise InvalidConfig("need at least two trajectories")
        if not 0 < self.x0_scale < np.inf:
            raise InvalidConfig("x0_scale must be positive and finite")


# NumPy's SeedSequence hashing (NEP 19): the pool and generate_state constants
_WORD = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(h: int, mult: int):
    """SeedSequence's running hash constant: each hash xors with it, advances it, multiplies."""
    while True:
        xor, h = h, h * mult & _WORD
        yield xor, h


def _hashmix(v, key):
    xor, mul = key
    v = (v ^ xor) * mul & _WORD
    return v ^ (v >> 16)


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _WORD
    return r ^ (r >> 16)


@functools.cache
def _seed_words_type():
    """An ISeedSequence handing PCG64 its four seeding words; built on first use, so
    importing this module does not import numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64:
                raise ValueError("SeedWords holds only PCG64's four 64-bit seeding words")
            return self.words

    return SeedWords


def _generators(seed: int, counts: dict) -> list:
    """Generators of the streams (seed, s, k), k < counts[s], in counts' order then k's.

    Each is default_rng(SeedSequence(entropy=seed, spawn_key=(s, k))) bit for
    bit. SeedSequence mixes the seed's uint32 words (lowest first, padded to
    its pool of four) and then the spawn key's into the pool, with constants
    that depend only on how many words came before. So the seed part is
    hashed once, in Python integers, and only (s, k) run as uint32 arrays,
    through the same _hashmix and _mix. A negative seed raises ValueError, as
    SeedSequence does; a count above 2**32 raises InvalidConfig before
    anything is allocated, since its k would take two words.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"expected non-negative integer seed, got {seed}")
    if max(counts.values()) > 2**32:
        raise InvalidConfig(f"at most 2**32 trajectories per stream, got {max(counts.values())}")
    words = [seed >> shift & _WORD for shift in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words))

    keys = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hashmix(w, next(keys)) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(keys)))
    for w in words[4:]:   # a seed of 2**128 or more has words past the pool's four
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hashmix(w, next(keys)))
    streams = np.repeat(np.array(list(counts), dtype=np.uint32), list(counts.values()))
    ks = np.concatenate([np.arange(n, dtype=np.uint32) for n in counts.values()])
    pool = [np.full(ks.size, w, dtype=np.uint32) for w in pool]
    for w in (streams, ks):
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hashmix(w, next(keys)))

    keys = _hash_constants(_INIT_B, _MULT_B)
    state = [_hashmix(pool[i % 4], next(keys)).astype(np.uint64) for i in range(8)]
    rows = np.stack([lo | hi << 32 for lo, hi in zip(state[::2], state[1::2])], axis=1)
    from numpy.random import PCG64, Generator
    SeedWords = _seed_words_type()
    return [Generator(PCG64(SeedWords(row))) for row in rows]


def _ok(result):
    """The dataset _simulate or _dataset made, or the error it met in its place, raised."""
    if isinstance(result, Exception):
        raise result
    return result


def _live(lengths) -> np.ndarray:
    """(T_max, N) mask of recorded steps: step t of trajectory k is live while t < lengths[k]."""
    return np.arange(np.max(lengths))[:, None] < np.asarray(lengths)


def _dataset(spec: SystemSpec, X: np.ndarray, U: np.ndarray, lengths):
    """Trajectory k's first lengths[k] steps of the time-major rollout buffers X
    (max(lengths)+1, N, n_x), row t+1 following row t, and U (max(lengths), N, n_u).
    A non-finite state returns InvalidConfig instead, naming the first step
    where one appears and the first trajectory in it."""
    diverged = ~np.isfinite(X[1:]).all(axis=2)
    if diverged.any():
        t, k = np.argwhere(diverged)[0]
        return InvalidConfig(f"generated trajectory {k} is not finite after step {t}: "
                             "the configured system diverges")
    live = _live(lengths).T   # (N, T_max): the dataset stores trajectory after trajectory
    cols = [A[:, :, i] for A in (X[:-1], U, X[1:]) for i in range(A.shape[2])]
    rows = np.empty((np.count_nonzero(live), len(cols)))
    for i, col in enumerate(cols):   # masking 2-D views is 2x faster than 3-D
        rows[:, i] = col.T[live]
    return TrajectoryDataset(spec.n_x, spec.n_u, rows, np.concatenate([[0], np.cumsum(lengths)]))


def _product_sum(M, V):
    """M @ V over V's rows (axis -2), summed in order, elementwise: columns stay independent."""
    return functools.reduce(operator.add, (M[:, j, None] * V[..., j, None, :]
                                           for j in range(M.shape[1])))


@np.errstate(over="ignore", invalid="ignore")   # an overflow ends in _dataset
def _rollout_linear(spec: SystemSpec, x0, noise_std, draws, live):
    """Roll trajectory k out from x0[k] while live[:, k] (_live), all at once.

    draws (T_max, N, n_u + n_x) holds each step's input, then noise normals;
    noise_std (N,) scales the noise; None uses the spec's noise_cov.
    Products: _product_sum. Returns _dataset's time-major buffers X
    (T_max+1, N, n_x) and U; a trajectory is frozen past its end.
    """
    T_max, N = live.shape
    X = np.empty((T_max + 1, spec.n_x, N))   # component-major, as in _rollout_uav
    X[0] = np.transpose(x0)
    U, w = draws[..., :spec.n_u] * spec.input_std, draws[..., spec.n_u:].transpose(0, 2, 1)
    noise = (w * noise_std if noise_std is not None
             else _product_sum(np.linalg.cholesky(spec.noise_cov), w))
    BU_w = _product_sum(spec.b_d, U.transpose(0, 2, 1)) + noise
    for t in range(T_max):
        X[t + 1] = np.where(live[t], _product_sum(spec.a_d, X[t]) + BU_w[t], X[t])
    return X.transpose(0, 2, 1), U


# each mission reference's parameters, with the value a policy that omits one gets
_REFERENCE_DEFAULTS = {
    "figure_eight": {"amp_x": 4.0, "amp_z": 2.0, "omega": 0.8, "phase": 0.0},
    "descending_s": {"amp_x": 4.0, "omega": 0.8, "phase": 0.0, "z0": 6.0, "rate": 1.0,
                     "t_mid": 2.0},
    "circle": {"radius": 4.0, "omega": 0.8, "phase": 0.0},
}


def _wave(amp, rate, fa, dfa):
    """Position, velocity, acceleration of amp * f(arg): fa = f(arg), dfa = f'(arg), rate = arg'."""
    return amp * fa, amp * rate * dfa, -amp * rate * rate * fa


def _reference(kind: str, prm: dict, t):
    """p_x, p_z, v_x, v_z, a_x, a_z of a mission kind's reference at time(s) t, from prm's
    value of each of its parameters (_REFERENCE_DEFAULTS[kind]), broadcast with t."""
    w = prm["omega"]
    arg = w * t + prm["phase"]
    sin, cos = np.sin(arg), np.cos(arg)
    if kind == "figure_eight":
        a2 = 2 * arg
        x, z = _wave(prm["amp_x"], w, sin, cos), _wave(prm["amp_z"], 2 * w, np.sin(a2), np.cos(a2))
    elif kind == "descending_s":
        z0, rate = prm["z0"], prm["rate"]
        # sigmoid altitude from z0 down to 0; past rate (t - t_mid) = 709 exp is inf, s exactly 0
        with np.errstate(over="ignore"):
            s = 1.0 / (1.0 + np.exp(rate * (t - prm["t_mid"])))
        ds = -rate * s * (1.0 - s)
        dds = -rate * ds * (1.0 - 2.0 * s)
        x, z = _wave(prm["amp_x"], w, sin, cos), (z0 * s, z0 * ds, z0 * dds)
    else:
        x, z = _wave(prm["radius"], w, cos, -sin), _wave(prm["radius"], w, sin, cos)
    return x[0], z[0], x[1], z[1], x[2], z[2]


def _reference_grid(t, n: int, missions) -> np.ndarray:
    """(len(t), 6, n) p_ref, v_ref, a_ref at the times t: each (kind, cols, prm) of missions
    sets columns cols, entry j of prm's arrays column cols[j]; the rest (hover) stay zero."""
    ref = np.zeros((len(t), 6, n))
    for kind, cols, prm in missions:
        ref[:, :, cols] = np.stack(_reference(kind, prm, t[:, None]), axis=1)
    return ref


@np.errstate(over="ignore", invalid="ignore")   # an overflow ends in _dataset
def _rollout_uav(spec: SystemSpec, x0, hover: bool, ref, draws, live):
    """Roll quadrotor trajectory k out from x0[k] while live[:, k] (_live), all at once.

    Trajectory k tracks ref[..., k] (_reference_grid; hover: zero) with the hover or
    mission gains, at the spec's drag and noise scales; draws (T_max, N, 4) holds each
    step's excitation, then gust normals. Every step writes into preallocated
    component-major (., N) buffers. Returns _dataset's time-major views X and U; a
    trajectory past its end stays frozen.
    """
    T_max, N = live.shape
    scale = np.repeat([spec.excitation_std, spec.gust_std], 2)   # per step: excitation, gust
    noise = np.multiply(draws.transpose(0, 2, 1), scale[:, None], out=np.empty((T_max, 4, N)))
    gains = np.repeat(_HOVER_GAINS if hover else _MISSION_GAINS, 2)[:, None]   # kp, kp, kd, kd

    X = np.empty((T_max + 1, 4, N))
    X[0] = np.transpose(x0)
    U = np.empty((T_max, 2, N))
    err, step, speed = np.empty((4, N)), np.empty((4, N)), np.empty(N)
    ended = ~live.all(axis=1)   # steps past some trajectory's end
    for t in range(T_max):
        x, r, u = X[t], ref[t], U[t]
        v, acc = x[2:], step[2:]
        np.multiply(np.subtract(r[:4], x, out=err), gains, out=err)
        np.add(np.add(r[4:], err[:2], out=u), err[2:], out=u)
        u += noise[t, :2]
        np.multiply(v, v, out=acc)
        np.sqrt(np.add(acc[0], acc[1], out=speed), out=speed)
        speed *= spec.drag
        np.subtract(u, np.multiply(speed, v, out=acc), out=acc)   # u - drag ||v|| v
        acc += noise[t, 2:]
        step[:2] = v
        np.add(x, np.multiply(step, spec.dt, out=step), out=X[t + 1])   # p + dt v, v + dt acc
        if ended[t]:
            np.copyto(X[t + 1], x, where=~live[t])
    return X.transpose(0, 2, 1), U.transpose(0, 2, 1)


def simulate_uav(spec: SystemSpec, x0, policy: dict, T: int, seed) -> tuple:
    """Roll out the planar point-mass quadrotor for T steps.

    State (p_x, p_z, v_x, v_z); commanded accelerations (a_x, a_z) with gravity
    already compensated; dynamics v' = u - drag * ||v|| v + gust, Euler at dt.
    policy: {"kind": "hover"} or a mission reference
    ({"kind": "figure_eight" | "descending_s" | "circle", ...}) holding only
    keys its reference reads; drag and noise scales come from spec.
    Returns arrays (X, U, X_next): the one-trajectory case of the generators' rollout.
    """
    if spec.kind not in _UAV_KINDS:
        raise InvalidConfig(f"simulate_uav needs a uav spec, got kind {spec.kind!r}")
    kind = policy.get("kind")
    if kind not in ("hover",) + _MISSION_REFS:
        raise InvalidConfig(f"unknown policy kind {kind!r}")
    defaults = _REFERENCE_DEFAULTS.get(kind, {})
    unread = sorted(set(policy) - {"kind", *defaults})
    if unread:
        raise InvalidConfig(f"policy key {unread[0]!r} is never read by the {kind} reference")
    prm = {name: np.array([policy.get(name, d)]) for name, d in defaults.items()}   # one row
    ref = _reference_grid(np.arange(T) * spec.dt, 1, [(kind, slice(None), prm)] if prm else [])
    draws = np.random.default_rng(seed).normal(size=(T, 1, 4))   # a Generator seed is used as is
    X, U = _rollout_uav(spec, [x0], kind == "hover", ref, draws, _live([T]))
    data = _ok(_dataset(spec, X, U, [T]))
    return data.states, data.inputs, data.next_states


# Fraction of mission sorties flown as aggressive dashes (large amplitude, fast).
# Most logs are gentle cruise profiles (small amplitude, slow); the dash minority
# reaches the speeds where drag curvature dominates and velocity regions the rest
# of the corpus never visits, so each dash carries outsized leverage over the fit.
_DASH_FRACTION = 0.3


def _uniform(u, low, high):
    """What Generator.uniform(low, high) makes of its draw u: low + (high - low) * u."""
    return low + (high - low) * u


# uniforms mission trajectory k's policy draws, by k % 3: dash, amp, omega, phase[, z0, rate, t_mid]
_MISSION_DRAWS = (4, 7, 4)


def _mission_policies(draws: np.ndarray, kinds: np.ndarray) -> list:
    """(kind, cols, prm) per mission kind j: trajectory cols[i] (where kinds == j) flies
    _MISSION_REFS[j] at parameters prm[name][i], read off the first _MISSION_DRAWS[j]
    uniforms of its row of draws: its own amplitude, frequency and phase, cruise or dash."""
    missions = []
    for j, kind in enumerate(_MISSION_REFS):
        cols = np.flatnonzero(kinds == j)
        dash, *v = draws[cols, :_MISSION_DRAWS[j]].T
        dash = dash < _DASH_FRACTION
        amp = _uniform(v[0], np.where(dash, 7.0, 1.0), np.where(dash, 10.0, 2.5))
        prm = {"omega": _uniform(v[1], np.where(dash, 1.0, 0.4), np.where(dash, 1.5, 0.8)),
               "phase": _uniform(v[2], 0.0, 2.0 * np.pi)}
        if kind == "figure_eight":
            prm.update(amp_x=amp, amp_z=amp / 2.0)
        elif kind == "descending_s":
            prm.update(amp_x=amp, z0=_uniform(v[3], 4.0, 8.0), rate=_uniform(v[4], 0.6, 1.2),
                       t_mid=_uniform(v[5], 1.5, 3.0))
        else:
            prm["radius"] = amp
        missions.append((kind, cols, prm))
    return missions


# Hover logs mix steady station-keeping (75%, starts near the origin) with
# recovery segments (25%, starts displaced far enough that the return
# transient passes through the drag-dominated velocity regime).
_RECOVERY_FRACTION = 0.25
_RECOVERY_SCALE = 8.0
_STATION_SCALE = 0.3


def _check_generable(spec: SystemSpec) -> None:
    """InvalidConfig unless the generators can honour spec's kind, n_x, n_u and arrays."""
    if spec.kind not in _LINEAR_KINDS + _UAV_KINDS:
        raise InvalidConfig(f"unknown system kind {spec.kind!r}")
    # checked here, not in system_spec: with an external dataset n_x/n_u only size Q and R
    if spec.kind in _UAV_KINDS and (spec.n_x, spec.n_u) != (4, 2):
        raise InvalidConfig(f"{spec.kind} has n_x=4, n_u=2, not n_x={spec.n_x}, n_u={spec.n_u}")
    _read_arrays(vars(spec), vars(spec))   # every array, the kind's own too, against n_x/n_u


def _simulate(spec: SystemSpec, seed: int, gen: GenerationConfig | None = None,
              heldout_size: int = 0) -> list:
    """gen's training set, then heldout_size held-out transitions, from one generation pass.

    Held-out trajectories have 50 steps, the last one shorter when 50 does not
    divide heldout_size. One _generators call seeds both sets' streams, one
    loop draws them and one lockstep rollout advances them. A trajectory's set
    sets only its x0 scale (gen.x0_scale, held-out 1) and its mission kind (k
    mod 3 within its set), so each set is bitwise what it is alone. A set
    gets its dataset or the error it meets alone (_dataset, MemoryError).
    """
    try:
        n_full, rest = divmod(heldout_size, _HELDOUT_TRAJ_LEN)
        heldout = [_HELDOUT_TRAJ_LEN] * n_full + ([rest] if rest else [])
        rngs = _generators(seed, ({0: 1, 1: gen.n_trajectories} if gen else {})
                           | ({2: len(heldout)} if heldout else {}))
        sets = [(rngs.pop(0).integers(gen.t_min, gen.t_max + 1, size=gen.n_trajectories),
                 gen.x0_scale)] if gen else []   # (lengths, x0 scale) of each set
        sets += [(np.array(heldout), 1.0)] if heldout else []
        _check_generable(spec)
        sizes = [len(steps) for steps, _ in sets]
        lengths = np.concatenate([steps for steps, _ in sets])
        live = _live(lengths)
        (T_max, N), n_x = live.shape, spec.n_x
        linear = spec.kind in _LINEAR_KINDS
        width = spec.n_u + n_x if linear else 4
        # after x0 a trajectory draws the msd noise variance, or hover's recovery uniform
        bounds = spec.sigma_sq_range if linear else (0.0, 1.0) if spec.kind == "uav_hover" else None
        kinds = np.concatenate([np.arange(n) % len(_MISSION_REFS) for n in sizes])
        policies = np.empty((N, max(_MISSION_DRAWS))) if spec.kind == "uav_mission" else None
        # row k: trajectory k's x0 normals, then its per-step normals, zero past its end
        normals, uniforms = np.zeros((N, n_x + T_max * width)), np.empty(N)
        ends = (n_x + lengths * width).tolist()
        for k, (rng, end, kind) in enumerate(zip(rngs, ends, kinds.tolist())):
            if policies is not None:
                rng.random(out=policies[k, :_MISSION_DRAWS[kind]])
            if bounds is None:   # nothing is drawn between x0 and the steps: one call takes both
                rng.standard_normal(out=normals[k, :end])
            else:
                rng.standard_normal(out=normals[k, :n_x])
                uniforms[k] = rng.uniform(*bounds)
                rng.standard_normal(out=normals[k, n_x:end])
        x0 = normals[:, :n_x] * spec.x0_std * np.repeat([s for _, s in sets], sizes)[:, None]
        draws = normals[:, n_x:].reshape(N, T_max, width).swapaxes(0, 1)
        if linear:
            X, U = _rollout_linear(spec, x0, None if bounds is None else np.sqrt(uniforms),
                                   draws, live)
        else:
            hover = bounds is not None
            if hover:
                x0 *= np.where(uniforms < _RECOVERY_FRACTION, _RECOVERY_SCALE,
                               _STATION_SCALE)[:, None]
            missions = [] if hover else _mission_policies(policies, kinds)
            ref = _reference_grid(np.arange(T_max) * spec.dt, N, missions)
            X, U = _rollout_uav(spec, ref[0, :4].T + x0, hover, ref, draws, live)
        edges = np.cumsum([0] + sizes).tolist()
        return [_dataset(spec, X[:max(steps) + 1, a:b], U[:max(steps), a:b], steps)
                for a, b, (steps, _) in zip(edges, edges[1:], sets)]
    except MemoryError as err:   # the shared buffers pad every trajectory to the longest one,
        if gen and heldout_size:   # so each set alone may still fit
            return _simulate(spec, seed, gen) + _simulate(spec, seed, heldout_size=heldout_size)
        return [err]


def generate_dataset(spec: SystemSpec, cfg: GenerationConfig) -> TrajectoryDataset:
    """Simulate cfg.n_trajectories trajectories with (seed, index)-keyed streams."""
    return _ok(_simulate(spec, cfg.seed, cfg)[0])


def generate_heldout(spec: SystemSpec, seed: int, size: int = 10_000) -> TrajectoryDataset:
    """Fresh transitions from the same system for prediction-loss validation.

    size transitions in trajectories of 50 steps, the last one shorter when
    50 does not divide size.
    """
    if size < 1:
        raise InvalidConfig(f"held-out size must be positive, got {size}")
    return _ok(_simulate(spec, seed, heldout_size=size)[0])


def prediction_loss(theta: np.ndarray, data: TrajectoryDataset) -> float:
    """(1/2M) sum ||x_next - [A B] z||^2 at the given parameters."""
    Theta = np.asarray(theta).reshape(data.n_x + data.n_u, data.n_x)
    E = data.next_states - data.Z @ Theta
    return float(0.5 * np.sum(E * E) / data.M)


def heldout_prediction_scores(fit: ModelFit, heldout: TrajectoryDataset):
    """Predicted vs exact held-out loss shifts for every trajectory removal.

    if_pred_k = grad L_pred(theta_hat)^T IF_m_k = eta_k^T H^-1 grad, from one
    Hessian solve with n_x right sides and one eta_dot, so no IF_m_k is
    formed; delta_l_exact_k refits without trajectory k (one stacked
    loto_refit). The held-out loss is quadratic in theta, so with
    D = Theta_k - Theta and S_ho the held-out Gram its exact shift is
    grad^T d + (1/2) sum D o (S_ho D), read off one pass over the held-out rows.
    """
    if heldout.n_x != fit.n_x or heldout.n_u != fit.n_u:
        raise InvalidConfig("held-out dimensions disagree with the training data")
    Z_ho = heldout.Z
    Theta = fit.theta.reshape(fit.q, fit.n_x)
    E_ho = heldout.next_states - Z_ho @ Theta
    grad = -(Z_ho.T @ E_ho).ravel() / heldout.M
    S_ho = Z_ho.T @ Z_ho / heldout.M

    if_pred = eta_dot(fit, fit.hessian_solve(grad))
    D = loto_refit(fit)[0].reshape(fit.N, fit.q, fit.n_x) - Theta
    delta_l = D.reshape(fit.N, fit.p) @ grad + 0.5 * np.sum(D * (S_ho @ D), axis=(1, 2))
    return if_pred, delta_l


def residual_lag1_autocorr(fit: ModelFit) -> float:
    """Pooled lag-1 autocorrelation of within-trajectory residual norms.

    A whiteness test: near zero when the model captures the dynamics,
    positive when mismatch leaks into consecutive residuals. Norms are
    centered per trajectory: noise scale alone is white.
    """
    norms = np.hstack([np.linalg.norm(fit.residuals[i:i + 512], axis=1)
                       for i in range(0, fit.M, 512)])
    offsets, T = fit.data.offsets, fit.lengths
    r = norms - np.repeat(np.add.reduceat(norms, offsets[:-1]) / T, T)
    pairs = np.ones(fit.M - 1, dtype=bool)   # rows s and s+1 lie in one trajectory
    pairs[offsets[1:-1] - 1] = False
    a, b = r[:-1][pairs], r[1:][pairs]
    if a.size == 0 or a.std() == 0 or b.std() == 0:
        return float("nan")
    return float(np.corrcoef(a, b)[0, 1])
