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

All randomness derives from (seed, trajectory index) seed sequences, so
generating trajectories in parallel or serially yields identical datasets.
The generators roll every trajectory of a dataset out in lockstep: one loop
over time advances all N states, as (N, .) arrays (linear) or as (., N)
component rows (quadrotor), and one finiteness check (_transitions) reads
both state buffers. A per-trajectory loop only draws. Each trajectory first
takes from its own stream, in this order, what a one-trajectory loop would
draw before its first step (linear: x0, then the msd noise variance;
quadrotor: the mission policy's uniforms in one rng.random call, then x0),
then all its per-step normals in one (T, .) call (_step_normals), row t
holding step t's draws (linear: input then noise; quadrotor: excitation then
gust). Generator.normal and .random fill sequentially and uniform(low, high)
is low + (high - low) * random(), so these are the draws of a serial loop
with one scalar call per value; tests/test_bench.py keeps it as the oracle.
The quadrotor setup draws nothing else per trajectory: every reference is
evaluated once on the (T_max, N) time grid, one mission kind at a time with
its parameters stacked as arrays, and x0 starts from the grid's first row.
"""
from __future__ import annotations

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


def _zoh_discretize(A_c, B_c, dt):
    n, m = B_c.shape
    block = np.zeros((n + m, n + m))
    block[:n, :n] = A_c * dt
    block[:n, n:] = B_c * dt
    eblock = expm(block)
    return eblock[:n, :n], eblock[:n, n:]


def dc_motor_spec() -> SystemSpec:
    """Two-state DC motor (angular velocity, armature current), voltage input."""
    A_c = np.array([[-_DC_B / _DC_J, _DC_K / _DC_J],
                    [-_DC_K / _DC_LA, -_DC_RA / _DC_LA]])
    B_c = np.array([[0.0], [1.0 / _DC_LA]])
    A_d, B_d = _zoh_discretize(A_c, B_c, dt=0.1)
    return SystemSpec(
        kind="dc_motor", n_x=2, n_u=1, dt=0.1,
        a_d=A_d, b_d=B_d,
        noise_cov=0.1 * np.eye(2),
        input_std=0.25,
        x0_std=np.array([1.0, 1.0]),
    )


def msd_spec() -> SystemSpec:
    """Two-mass spring-damper chain, force input per mass, Euler at dt = 0.05."""
    m1 = m2 = 1.0
    k1 = k2 = 2.0
    c1 = c2 = 1.0
    A_c = np.array([
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [-(k1 + k2) / m1, k2 / m1, -(c1 + c2) / m1, c2 / m1],
        [k2 / m2, -k2 / m2, c2 / m2, -c2 / m2],
    ])
    B_c = np.array([
        [0.0, 0.0],
        [0.0, 0.0],
        [1.0 / m1, 0.0],
        [0.0, 1.0 / m2],
    ])
    dt = 0.05
    return SystemSpec(
        kind="msd", n_x=4, n_u=2, dt=dt,
        a_d=np.eye(4) + dt * A_c, b_d=dt * B_c,
        sigma_sq_range=_MSD_SIGMA_SQ_RANGE,
        input_std=4.0,
        x0_std=0.5 * np.ones(4),
    )


def uav_hover_spec() -> SystemSpec:
    return SystemSpec(
        kind="uav_hover", n_x=4, n_u=2, dt=0.1,
        drag=_UAV_DRAG, gust_std=0.3, excitation_std=0.25,
        x0_std=np.array([0.6, 0.6, 0.15, 0.15]),
    )


def uav_mission_spec() -> SystemSpec:
    return SystemSpec(
        kind="uav_mission", n_x=4, n_u=2, dt=0.1,
        drag=_UAV_DRAG, gust_std=0.5, excitation_std=0.25,
        x0_std=np.array([0.3, 0.3, 0.2, 0.2]),
    )


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


def _traj_rng(seed: int, k: int, stream: int = 1) -> np.random.Generator:
    # (seed, trajectory index) keyed streams: parallel generation == serial
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream, k)))


def _live(lengths) -> np.ndarray:
    """(T_max, N) mask of recorded steps: step t of trajectory k is live while t < lengths[k]."""
    lengths = np.asarray(lengths)
    return np.arange(lengths.max())[:, None] < lengths


def _step_normals(rngs, lengths, width: int) -> np.ndarray:
    """(T_max, N, width): rngs[k]'s next (lengths[k], width) normals in one call, 0 past its end."""
    draws = np.zeros((max(lengths), len(lengths), width))
    for k, (rng, T) in enumerate(zip(rngs, lengths)):
        draws[:T, k] = rng.normal(size=(T, width))
    return draws


def _transitions(X: np.ndarray, U: np.ndarray):
    """(X, U, X_next) of the (T_max+1, N, n) state buffer X, whose row t+1 is X_next[t].

    A state that is not finite raises InvalidConfig naming the first step
    where one appears, and the first trajectory within it.
    """
    diverged = ~np.isfinite(X[1:]).all(axis=2)
    if diverged.any():
        t, k = np.argwhere(diverged)[0]
        raise InvalidConfig(f"generated trajectory {k} is not finite after step {t}: "
                            "the configured system diverges")
    return X[:-1], U, X[1:]


@np.errstate(over="ignore", invalid="ignore")   # an overflow ends in _transitions
def _rollout_linear(spec: SystemSpec, rngs, lengths, x0_scale: float):
    """Roll trajectory k out for lengths[k] steps from rngs[k], all at once.

    Returns _transitions' time-major (T_max, N, .) arrays X, U, X_next. A
    trajectory past its end stays frozen at its last state.
    """
    live = _live(lengths)
    T_max, N = live.shape
    X = np.empty((T_max + 1, N, spec.n_x))
    noise_std = np.empty((N, 1))
    for k, rng in enumerate(rngs):
        X[0, k] = rng.normal(size=spec.n_x) * spec.x0_std * x0_scale
        if spec.sigma_sq_range is not None:
            noise_std[k] = np.sqrt(rng.uniform(*spec.sigma_sq_range))
    draws = _step_normals(rngs, lengths, spec.n_u + spec.n_x)   # per step: input, then noise
    U = draws[..., :spec.n_u] * spec.input_std
    if spec.sigma_sq_range is not None:
        noise = draws[..., spec.n_u:] * noise_std
    else:
        # one 2-D product, so every row, a length-1 trajectory's too, takes the same route
        w = draws[..., spec.n_u:].reshape(T_max * N, spec.n_x)
        noise = (w @ np.linalg.cholesky(spec.noise_cov).T).reshape(T_max, N, spec.n_x)
    BU = U @ spec.b_d.T
    for t in range(T_max):
        X[t + 1] = np.where(live[t, :, None], X[t] @ spec.a_d.T + BU[t] + noise[t], X[t])
    return _transitions(X, U)


# each mission reference's parameters, with the value a policy that omits one gets
_REFERENCE_DEFAULTS = {
    "figure_eight": {"amp_x": 4.0, "amp_z": 2.0, "omega": 0.8, "phase": 0.0},
    "descending_s": {"amp_x": 4.0, "omega": 0.8, "phase": 0.0, "z0": 6.0, "rate": 1.0,
                     "t_mid": 2.0},
    "circle": {"radius": 4.0, "omega": 0.8, "phase": 0.0},
}


def _wave(amp, arg, rate, f=np.sin, df=np.cos):
    """Position, velocity, acceleration of amp * f(arg) whose argument advances at rate."""
    return amp * f(arg), amp * rate * df(arg), -amp * rate * rate * f(arg)


def _reference(policy: dict, t):
    """Position, velocity, acceleration of the policy's reference at time(s) t.

    Hover is the zero reference. Each value has shape (2,) + the broadcast
    shape of t and the policy's parameters, which may be arrays.
    """
    kind = policy["kind"]
    if kind == "hover":
        zero = np.zeros((2,) + np.shape(t))
        return zero, zero, zero
    if kind not in _REFERENCE_DEFAULTS:
        raise InvalidConfig(f"unknown reference kind {kind!r}")
    prm = {**_REFERENCE_DEFAULTS[kind], **policy}
    w = prm["omega"]
    arg = w * t + prm["phase"]
    if kind == "figure_eight":
        x, z = _wave(prm["amp_x"], arg, w), _wave(prm["amp_z"], 2 * arg, 2 * w)
    elif kind == "descending_s":
        z0, rate = prm["z0"], prm["rate"]
        # sigmoid altitude from z0 down to 0; past rate (t - t_mid) = 709 exp is inf, s exactly 0
        with np.errstate(over="ignore"):
            s = 1.0 / (1.0 + np.exp(rate * (t - prm["t_mid"])))
        ds = -rate * s * (1.0 - s)
        dds = -rate * ds * (1.0 - 2.0 * s)
        x, z = _wave(prm["amp_x"], arg, w), (z0 * s, z0 * ds, z0 * dds)
    else:
        r = prm["radius"]
        x, z = _wave(r, arg, w, np.cos, lambda a: -np.sin(a)), _wave(r, arg, w)
    return tuple(np.array(pair) for pair in zip(x, z))


def _reference_grid(policies, t) -> np.ndarray:
    """Every policy's reference at the times t: (len(t), N, 6) rows p_ref, v_ref, a_ref.

    The policies of one kind are evaluated together, their parameters
    stacked as arrays; hover rows stay zero.
    """
    ref = np.zeros((len(t), len(policies), 6))
    kinds = [policy["kind"] for policy in policies]
    for kind, defaults in _REFERENCE_DEFAULTS.items():
        cols = [j for j, name in enumerate(kinds) if name == kind]
        if cols:
            stacked = {name: np.array([policies[j].get(name, d) for j in cols])
                       for name, d in defaults.items()}
            pva = _reference({"kind": kind, **stacked}, t[:, None])
            ref[:, cols] = np.concatenate(pva).transpose(1, 2, 0)
    return ref


@np.errstate(over="ignore", invalid="ignore")   # an overflow ends in _transitions
def _rollout_uav(spec: SystemSpec, x0, policies, ref, lengths, rngs):
    """Roll quadrotor trajectory k out from x0[k] under policies[k], all at once.

    Every policy tracks its reference ref (_reference_grid; hover: zero)
    with its gains, at the spec's drag and noise scales. The loop is
    component-major: states in one (T_max+1, 4, N) buffer whose row t+1 is
    X_next[t], per-trajectory gains as (N,) rows. Returns _transitions'
    time-major (T_max, N, .) views; a trajectory past its end stays frozen.
    """
    live = _live(lengths)
    T_max, N = live.shape
    scale = np.repeat([spec.excitation_std, spec.gust_std], 2)   # per step: excitation, gust
    noise = (_step_normals(rngs, lengths, 4) * scale).transpose(0, 2, 1).copy()
    hover = np.array([policy["kind"] == "hover" for policy in policies])
    kp = np.where(hover, _HOVER_GAINS[0], _MISSION_GAINS[0])
    kd = np.where(hover, _HOVER_GAINS[1], _MISSION_GAINS[1])
    ref = ref.transpose(0, 2, 1).copy()   # (T_max, 6, N): p_ref, v_ref, a_ref

    X = np.empty((T_max + 1, 4, N))
    X[0] = np.transpose(x0)
    U = np.empty((T_max, 2, N))
    first_end = min(lengths)
    for t in range(T_max):
        x, r, u = X[t], ref[t], U[t]
        p, v = x[:2], x[2:]
        u[:] = r[4:] + kp * (r[:2] - p) + kd * (r[2:4] - v) + noise[t, :2]
        speed = np.sqrt(v[0] * v[0] + v[1] * v[1])
        X[t + 1, :2] = p + spec.dt * v
        X[t + 1, 2:] = v + spec.dt * (u - spec.drag * speed * v + noise[t, 2:])
        if t >= first_end:
            np.copyto(X[t + 1], x, where=~live[t])
    return _transitions(X.transpose(0, 2, 1), U.transpose(0, 2, 1))


def simulate_uav(spec: SystemSpec, x0, policy: dict, T: int, seed) -> tuple:
    """Roll out the planar point-mass quadrotor for T steps.

    State (p_x, p_z, v_x, v_z); commanded accelerations (a_x, a_z) with gravity
    already compensated; dynamics v' = u - drag * ||v|| v + gust, Euler at dt.
    policy: {"kind": "hover"} or a mission reference
    ({"kind": "figure_eight" | "descending_s" | "circle", ...}) holding only
    keys its reference reads; drag and noise scales come from spec.
    Returns arrays (X, U, X_next) of the recorded transitions: the one-trajectory
    case of the lockstep rollout the generators use.
    """
    if spec.kind not in _UAV_KINDS:
        raise InvalidConfig(f"simulate_uav needs a uav spec, got kind {spec.kind!r}")
    kind = policy.get("kind")
    if kind not in ("hover",) + _MISSION_REFS:
        raise InvalidConfig(f"unknown policy kind {kind!r}")
    unread = sorted(set(policy) - {"kind", *_REFERENCE_DEFAULTS.get(kind, ())})
    if unread:
        raise InvalidConfig(f"policy key {unread[0]!r} is never read by the {kind} reference")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    ref = _reference_grid([policy], np.arange(T) * spec.dt)
    X, U, Xn = _rollout_uav(spec, [x0], [policy], ref, [T], [rng])
    return X[:, 0], U[:, 0], Xn[:, 0]


# Fraction of mission sorties flown as aggressive dashes.  Most logs are
# gentle cruise profiles; the dash minority reaches the speeds where drag
# curvature dominates, so each dash carries outsized leverage over the fit.
_DASH_FRACTION = 0.3


def _uav_policy(spec: SystemSpec, k: int, rng) -> dict:
    """Policy for trajectory k; mission profiles are drawn per trajectory.

    Mission logs mix two regimes: cruise sorties (small amplitude, slow) and a
    minority of aggressive dashes (large amplitude, fast).  Each trajectory
    gets its own amplitude, frequency, and phase, so single dashes cover
    velocity regions the rest of the corpus never visits. One rng.random call,
    sized by k's kind, takes every draw, and low + (high - low) * u is what
    Generator.uniform(low, high) would make of the same draw.
    """
    if spec.kind == "uav_hover":
        return {"kind": "hover"}
    kind = _MISSION_REFS[k % len(_MISSION_REFS)]
    draws = iter(rng.random(7 if kind == "descending_s" else 4).tolist())

    def uniform(low, high):
        return low + (high - low) * next(draws)

    dash = next(draws) < _DASH_FRACTION
    amp = uniform(7.0, 10.0) if dash else uniform(1.0, 2.5)
    omega = uniform(1.0, 1.5) if dash else uniform(0.4, 0.8)
    policy = {
        "kind": kind,
        "omega": omega,
        "phase": uniform(0.0, 2.0 * np.pi),
    }
    if kind == "figure_eight":
        policy["amp_x"] = amp
        policy["amp_z"] = amp / 2.0
    elif kind == "descending_s":
        policy["amp_x"] = amp
        policy["z0"] = uniform(4.0, 8.0)
        policy["rate"] = uniform(0.6, 1.2)
        policy["t_mid"] = uniform(1.5, 3.0)
    else:
        policy["radius"] = amp
    return policy


# Hover logs mix steady station-keeping (75%, starts near the origin) with
# recovery segments (25%, starts displaced far enough that the return
# transient passes through the drag-dominated velocity regime).
_RECOVERY_FRACTION = 0.25
_RECOVERY_SCALE = 8.0
_STATION_SCALE = 0.3


def _uav_x0_offset(spec: SystemSpec, policy: dict, rng, x0_scale: float) -> np.ndarray:
    """x0 minus the reference's start: scaled normals, and for hover a recovery draw."""
    noise = rng.normal(size=4) * spec.x0_std * x0_scale
    if policy["kind"] == "hover":
        far = rng.uniform() < _RECOVERY_FRACTION
        return noise * (_RECOVERY_SCALE if far else _STATION_SCALE)
    return noise


def _check_generable(spec: SystemSpec) -> None:
    """InvalidConfig unless the generators can honour spec's kind, n_x, n_u and arrays."""
    if spec.kind not in _LINEAR_KINDS + _UAV_KINDS:
        raise InvalidConfig(f"unknown system kind {spec.kind!r}")
    # checked here, not in system_spec: with an external dataset n_x/n_u only size Q and R
    if spec.kind in _UAV_KINDS and (spec.n_x, spec.n_u) != (4, 2):
        raise InvalidConfig(f"{spec.kind} has n_x=4, n_u=2, not n_x={spec.n_x}, n_u={spec.n_u}")
    _read_arrays(vars(spec), vars(spec))   # every array, the kind's own too, against n_x/n_u


def _simulate(spec: SystemSpec, seed: int, stream: int, lengths,
              x0_scale: float) -> TrajectoryDataset:
    """Trajectory k, lengths[k] steps, from stream (seed, stream, k); all k in lockstep."""
    _check_generable(spec)
    rngs = [_traj_rng(seed, k, stream) for k in range(len(lengths))]
    if spec.kind in _LINEAR_KINDS:
        X, U, Xn = _rollout_linear(spec, rngs, lengths, x0_scale)
    else:
        policies = [_uav_policy(spec, k, rng) for k, rng in enumerate(rngs)]
        ref = _reference_grid(policies, np.arange(max(lengths)) * spec.dt)
        x0 = ref[0, :, :4] + [_uav_x0_offset(spec, policy, rng, x0_scale)
                              for policy, rng in zip(policies, rngs)]
        X, U, Xn = _rollout_uav(spec, x0, policies, ref, lengths, rngs)
    rows = _live(lengths).T   # (N, T_max): the dataset stores trajectory after trajectory
    return TrajectoryDataset(
        n_x=spec.n_x, n_u=spec.n_u,
        states=X.swapaxes(0, 1)[rows],
        inputs=U.swapaxes(0, 1)[rows],
        next_states=Xn.swapaxes(0, 1)[rows],
        offsets=np.concatenate([[0], np.cumsum(lengths)]),
    )


def generate_dataset(spec: SystemSpec, cfg: GenerationConfig) -> TrajectoryDataset:
    """Simulate cfg.n_trajectories trajectories with (seed, index)-keyed streams."""
    len_rng = _traj_rng(cfg.seed, 0, stream=0)
    lengths = len_rng.integers(cfg.t_min, cfg.t_max + 1, size=cfg.n_trajectories)
    return _simulate(spec, cfg.seed, 1, lengths, cfg.x0_scale)


def generate_heldout(spec: SystemSpec, seed: int, size: int = 10_000) -> TrajectoryDataset:
    """Fresh transitions from the same system for prediction-loss validation.

    size transitions in trajectories of 50 steps, the last one shorter when
    50 does not divide size.
    """
    if size < 1:
        raise InvalidConfig(f"held-out size must be positive, got {size}")
    n_full, rest = divmod(size, _HELDOUT_TRAJ_LEN)
    lengths = np.array([_HELDOUT_TRAJ_LEN] * n_full + ([rest] if rest else []))
    return _simulate(spec, seed, 2, lengths, 1.0)


def prediction_loss(theta: np.ndarray, data: TrajectoryDataset) -> float:
    """(1/2M) sum ||x_next - [A B] z||^2 at the given parameters."""
    n_x = data.n_x
    Theta = np.asarray(theta).reshape(data.n_x + data.n_u, n_x)
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

    A whiteness diagnostic: near zero when the model captures the dynamics,
    positive when structured mismatch leaks into consecutive residuals.
    Norms are centered per trajectory first, so trajectories that merely
    differ in noise scale do not register as non-white.
    """
    norms = np.linalg.norm(fit.residuals, axis=1)
    offsets, T = fit.data.offsets, fit.lengths
    r = norms - np.repeat(np.add.reduceat(norms, offsets[:-1]) / T, T)
    pairs = np.ones(fit.M - 1, dtype=bool)   # rows s and s+1 lie in one trajectory
    pairs[offsets[1:-1] - 1] = False
    a, b = r[:-1][pairs], r[1:][pairs]
    if a.size == 0 or a.std() == 0 or b.std() == 0:
        return float("nan")
    return float(np.corrcoef(a, b)[0, 1])
