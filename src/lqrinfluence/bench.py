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
over time advances all N states as (N, .) arrays. Each trajectory first takes
from its own stream, in this order, what a one-trajectory loop would draw
before its first step (linear: x0, then the msd noise variance; quadrotor:
the policy, then x0), then all its per-step normals in one (T, .) call, row t
holding step t's draws (linear: input then noise; quadrotor: excitation then
gust). Generator.normal fills sequentially, so these are the draws of a
serial step-by-step loop; tests/test_bench.py keeps that loop as the oracle.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidConfig
from .linalg import expm
from .sysid import ModelFit, TrajectoryDataset, eta, theta_to_ab

_LINEAR_KINDS = ("dc_motor", "msd")
_UAV_KINDS = ("uav_hover", "uav_mission")

# dc motor physical constants (SI): inertia, friction, torque/back-emf, resistance, inductance
_DC_J, _DC_B, _DC_K, _DC_RA, _DC_LA = 0.01, 0.1, 0.01, 1.0, 0.5

# planar quadrotor constants
_UAV_DRAG = 0.3
_HOVER_GAINS = (1.2, 1.8)     # kp, kd regulating to the origin
_MISSION_GAINS = (2.0, 2.8)   # kp, kd tracking the reference
_MISSION_REFS = ("figure_eight", "descending_s", "circle")


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


def msd_spec(sigma_sq_range=(0.01, 1.0)) -> SystemSpec:
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
        sigma_sq_range=tuple(float(v) for v in sigma_sq_range),
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


# array fields a config may override, with their shapes in terms of the spec's dimensions
_ARRAY_FIELDS = {
    "a_d": ("n_x", "n_x"),
    "b_d": ("n_x", "n_u"),
    "noise_cov": ("n_x", "n_x"),
    "x0_std": ("n_x",),
}


def system_spec(kind: str, **overrides) -> SystemSpec:
    """Build a benchmark spec by kind, with optional field overrides.

    Overridden array fields (a_d, b_d, noise_cov, x0_std) are converted to
    float arrays and must match the resulting n_x/n_u; fields not overridden
    are left as the kind defines them.
    """
    if kind not in _SPEC_FACTORIES:
        raise InvalidConfig(f"unknown system kind {kind!r}")
    spec = _SPEC_FACTORIES[kind]()
    if overrides:
        try:
            spec = replace(spec, **overrides)
        except TypeError as exc:
            raise InvalidConfig(f"bad system override: {exc}") from exc
    arrays = {}
    for name, dims in _ARRAY_FIELDS.items():
        if name not in overrides:
            continue
        shape = tuple(getattr(spec, dim) for dim in dims)
        try:
            arrays[name] = np.asarray(overrides[name], dtype=float)
        except (TypeError, ValueError) as exc:
            raise InvalidConfig(f"system.{name} is not a numeric array: {exc}") from exc
        if arrays[name].shape != shape:
            raise InvalidConfig(
                f"system.{name} must have shape {shape}, got {arrays[name].shape}"
            )
    return replace(spec, **arrays)


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
        if self.x0_scale <= 0:
            raise InvalidConfig("x0_scale must be positive")


def _traj_rng(seed: int, k: int, stream: int = 1) -> np.random.Generator:
    # (seed, trajectory index) keyed streams: parallel generation == serial
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream, k)))


def _live(lengths) -> np.ndarray:
    """(T_max, N) mask of recorded steps: step t of trajectory k is live while t < lengths[k]."""
    lengths = np.asarray(lengths)
    return np.arange(lengths.max())[:, None] < lengths


def _rollout_linear(spec: SystemSpec, rngs, lengths, x0_scale: float):
    """Roll trajectory k out for lengths[k] steps from rngs[k], all at once.

    Returns time-major (T_max, N, .) arrays X, U, X_next. A trajectory past its
    end stays frozen at its last state.
    """
    live = _live(lengths)
    T_max, N = live.shape
    n_x, n_u = spec.n_x, spec.n_u
    x = np.empty((N, n_x))
    U = np.zeros((T_max, N, n_u))
    noise = np.zeros((T_max, N, n_x))
    heterogeneous = spec.sigma_sq_range is not None
    if not heterogeneous:
        noise_chol = np.linalg.cholesky(spec.noise_cov)
    for k, (rng, T) in enumerate(zip(rngs, lengths)):
        x[k] = rng.normal(size=n_x) * spec.x0_std * x0_scale
        if heterogeneous:
            noise_std = np.sqrt(rng.uniform(*spec.sigma_sq_range))
        draws = rng.normal(size=(T, n_u + n_x))   # per step: input, then noise
        U[:T, k] = draws[:, :n_u] * spec.input_std
        w = draws[:, n_u:]
        noise[:T, k] = w * noise_std if heterogeneous else w @ noise_chol.T
    BU = U @ spec.b_d.T
    X = np.empty((T_max, N, n_x))
    Xn = np.empty_like(X)
    for t in range(T_max):
        X[t] = x
        x = np.where(live[t, :, None], x @ spec.a_d.T + BU[t] + noise[t], x)
        Xn[t] = x
    return X, U, Xn


def _reference(policy: dict, t):
    """Position, velocity, acceleration of the policy's reference at time(s) t.

    Hover is the zero reference. For an array t each value has shape (2, len(t)).
    """
    kind = policy["kind"]
    ph = policy.get("phase", 0.0)
    if kind == "hover":
        zero = np.zeros((2,) + np.shape(t))
        return zero, zero, zero
    if kind == "figure_eight":
        ax, az, w = policy.get("amp_x", 4.0), policy.get("amp_z", 2.0), policy.get("omega", 0.8)
        p = np.array([ax * np.sin(w * t + ph), az * np.sin(2 * (w * t + ph))])
        v = np.array([ax * w * np.cos(w * t + ph), 2 * az * w * np.cos(2 * (w * t + ph))])
        a = np.array([-ax * w * w * np.sin(w * t + ph),
                      -4 * az * w * w * np.sin(2 * (w * t + ph))])
        return p, v, a
    if kind == "descending_s":
        ax, w = policy.get("amp_x", 4.0), policy.get("omega", 0.8)
        z0, rate, t_mid = policy.get("z0", 6.0), policy.get("rate", 1.0), policy.get("t_mid", 2.0)
        s = 1.0 / (1.0 + np.exp(rate * (t - t_mid)))   # sigmoid altitude from z0 down to 0
        ds = -rate * s * (1.0 - s)
        dds = -rate * ds * (1.0 - 2.0 * s)
        p = np.array([ax * np.sin(w * t + ph), z0 * s])
        v = np.array([ax * w * np.cos(w * t + ph), z0 * ds])
        a = np.array([-ax * w * w * np.sin(w * t + ph), z0 * dds])
        return p, v, a
    if kind == "circle":
        r, w = policy.get("radius", 4.0), policy.get("omega", 0.8)
        p = np.array([r * np.cos(w * t + ph), r * np.sin(w * t + ph)])
        v = np.array([-r * w * np.sin(w * t + ph), r * w * np.cos(w * t + ph)])
        a = np.array([-r * w * w * np.cos(w * t + ph), -r * w * w * np.sin(w * t + ph)])
        return p, v, a
    raise InvalidConfig(f"unknown reference kind {kind!r}")


def _rollout_uav(spec: SystemSpec, x0, policies, lengths, rngs):
    """Roll quadrotor trajectory k out from x0[k] under policies[k], all at once.

    Every policy tracks its reference (hover: the zero reference) with its
    gains; rngs[k] draws per step the excitation, then the gust normals.
    Returns time-major (T_max, N, .) arrays X, U, X_next. A trajectory past
    its end stays frozen at its last state.
    """
    live = _live(lengths)
    T_max, N = live.shape
    ref = np.zeros((T_max, N, 6))      # p_ref, v_ref, a_ref
    noise = np.zeros((T_max, N, 4))    # excitation, gust
    gains = np.empty((N, 2))
    drag = np.empty((N, 1))
    grid = np.arange(T_max) * spec.dt
    for k, (policy, rng, T) in enumerate(zip(policies, rngs, lengths)):
        gains[k] = _HOVER_GAINS if policy["kind"] == "hover" else _MISSION_GAINS
        drag[k] = policy.get("drag", spec.drag)
        draws = rng.normal(size=(T, 4))
        noise[:T, k, :2] = policy.get("excitation_std", spec.excitation_std) * draws[:, :2]
        noise[:T, k, 2:] = policy.get("gust_std", spec.gust_std) * draws[:, 2:]
        ref[:T, k] = np.concatenate(_reference(policy, grid[:T])).T
    kp, kd = gains[:, :1], gains[:, 1:]

    x = np.array(x0, dtype=float)
    X = np.empty((T_max, N, 4))
    U = np.empty((T_max, N, 2))
    Xn = np.empty_like(X)
    for t in range(T_max):
        p, v = x[:, :2], x[:, 2:]
        r = ref[t]
        u = r[:, 4:] + kp * (r[:, :2] - p) + kd * (r[:, 2:4] - v) + noise[t, :, :2]
        speed = np.linalg.norm(v, axis=1, keepdims=True)
        v_next = v + spec.dt * (u - drag * speed * v + noise[t, :, 2:])
        X[t], U[t] = x, u
        x = np.where(live[t, :, None], np.hstack([p + spec.dt * v, v_next]), x)
        Xn[t] = x
    return X, U, Xn


def simulate_uav(spec: SystemSpec, x0, policy: dict, T: int, seed) -> tuple:
    """Roll out the planar point-mass quadrotor for T steps.

    State (p_x, p_z, v_x, v_z); commanded accelerations (a_x, a_z) with gravity
    already compensated; dynamics v' = u - drag * ||v|| v + gust, Euler at dt.
    policy: {"kind": "hover"} or a mission reference
    ({"kind": "figure_eight" | "descending_s" | "circle", ...}).
    Returns arrays (X, U, X_next) of the recorded transitions: the one-trajectory
    case of the lockstep rollout the generators use.
    """
    if spec.kind not in _UAV_KINDS:
        raise InvalidConfig(f"simulate_uav needs a uav spec, got kind {spec.kind!r}")
    if policy.get("kind") not in ("hover",) + _MISSION_REFS:
        raise InvalidConfig(f"unknown policy kind {policy.get('kind')!r}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    X, U, Xn = _rollout_uav(spec, [x0], [policy], [T], [rng])
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
    velocity regions the rest of the corpus never visits.
    """
    if spec.kind == "uav_hover":
        return {"kind": "hover"}
    kind = _MISSION_REFS[k % len(_MISSION_REFS)]
    dash = rng.uniform() < _DASH_FRACTION
    amp = rng.uniform(7.0, 10.0) if dash else rng.uniform(1.0, 2.5)
    omega = rng.uniform(1.0, 1.5) if dash else rng.uniform(0.4, 0.8)
    policy = {
        "kind": kind,
        "omega": omega,
        "phase": rng.uniform(0.0, 2.0 * np.pi),
    }
    if kind == "figure_eight":
        policy["amp_x"] = amp
        policy["amp_z"] = amp / 2.0
    elif kind == "descending_s":
        policy["amp_x"] = amp
        policy["z0"] = rng.uniform(4.0, 8.0)
        policy["rate"] = rng.uniform(0.6, 1.2)
        policy["t_mid"] = rng.uniform(1.5, 3.0)
    else:
        policy["radius"] = amp
    return policy


# Hover logs mix steady station-keeping (75%, starts near the origin) with
# recovery segments (25%, starts displaced far enough that the return
# transient passes through the drag-dominated velocity regime).
_RECOVERY_FRACTION = 0.25
_RECOVERY_SCALE = 8.0
_STATION_SCALE = 0.3


def _uav_x0(spec: SystemSpec, policy: dict, rng, x0_scale: float) -> np.ndarray:
    noise = rng.normal(size=4) * spec.x0_std * x0_scale
    if policy["kind"] == "hover":
        far = rng.uniform() < _RECOVERY_FRACTION
        return noise * (_RECOVERY_SCALE if far else _STATION_SCALE)
    p_ref, v_ref, _ = _reference(policy, 0.0)
    return np.concatenate([p_ref, v_ref]) + noise


def _simulate(spec: SystemSpec, seed: int, stream: int, lengths,
              x0_scale: float) -> TrajectoryDataset:
    """Trajectory k, lengths[k] steps, from stream (seed, stream, k); all k in lockstep."""
    if spec.kind not in _LINEAR_KINDS + _UAV_KINDS:
        raise InvalidConfig(f"unknown system kind {spec.kind!r}")
    rngs = [_traj_rng(seed, k, stream) for k in range(len(lengths))]
    if spec.kind in _LINEAR_KINDS:
        X, U, Xn = _rollout_linear(spec, rngs, lengths, x0_scale)
    else:
        policies = [_uav_policy(spec, k, rng) for k, rng in enumerate(rngs)]
        x0 = [_uav_x0(spec, policy, rng, x0_scale) for policy, rng in zip(policies, rngs)]
        X, U, Xn = _rollout_uav(spec, x0, policies, lengths, rngs)
    rows = _live(lengths).T   # (N, T_max): the dataset stores trajectory after trajectory
    return TrajectoryDataset(
        n_x=spec.n_x,
        n_u=spec.n_u,
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


def generate_heldout(spec: SystemSpec, seed: int, size: int = 10_000,
                     traj_len: int = 50) -> TrajectoryDataset:
    """Fresh transitions from the same system for prediction-loss validation.

    size transitions in trajectories of traj_len steps, the last one shorter
    when traj_len does not divide size.
    """
    if size < 1 or traj_len < 1:
        raise InvalidConfig(
            f"held-out size and traj_len must be positive, got {size} and {traj_len}"
        )
    n_full, rest = divmod(size, traj_len)
    lengths = np.array([traj_len] * n_full + ([rest] if rest else []))
    return _simulate(spec, seed, 2, lengths, 1.0)


def prediction_loss(theta: np.ndarray, data: TrajectoryDataset) -> float:
    """(1/2M) sum ||x_next - [A B] z||^2 at the given parameters."""
    n_x = data.n_x
    Theta = np.asarray(theta).reshape(data.n_x + data.n_u, n_x)
    E = data.next_states - data.Z @ Theta
    return float(0.5 * np.sum(E * E) / data.M)


def heldout_prediction_scores(fit: ModelFit, heldout: TrajectoryDataset):
    """Predicted vs exact held-out loss shifts for every trajectory removal.

    if_pred_k = grad L_pred(theta_hat)^T IF_m_k; delta_l_exact_k refits without
    trajectory k. The held-out loss is quadratic in theta, so with
    D = Theta_k - Theta and S_ho the held-out Gram its exact shift is
    grad^T d + (1/2) sum D o (S_ho D), read off one pass over the held-out rows.
    """
    from .sysid import loto_refit

    if heldout.n_x != fit.n_x or heldout.n_u != fit.n_u:
        raise InvalidConfig("held-out dimensions disagree with the training data")
    Z_ho = heldout.Z
    Theta = fit.theta.reshape(fit.q, fit.n_x)
    E_ho = heldout.next_states - Z_ho @ Theta
    grad = -(Z_ho.T @ E_ho).ravel() / heldout.M
    S_ho = Z_ho.T @ Z_ho / heldout.M

    N = fit.N
    if_pred = np.empty(N)
    delta_l = np.empty(N)
    for k in range(N):
        if_m = fit.hessian_solve(eta(fit, k))
        if_pred[k] = grad @ if_m
        theta_k, _ = loto_refit(fit, k)
        D = (theta_k - fit.theta).reshape(fit.q, fit.n_x)
        delta_l[k] = grad @ D.ravel() + 0.5 * np.sum(D * (S_ho @ D))
    return if_pred, delta_l


def residual_lag1_autocorr(fit: ModelFit) -> float:
    """Pooled lag-1 autocorrelation of within-trajectory residual norms.

    A whiteness diagnostic: near zero when the model captures the dynamics,
    positive when structured mismatch leaks into consecutive residuals.
    Norms are centered per trajectory first, so trajectories that merely
    differ in noise scale do not register as non-white.
    """
    norms = np.linalg.norm(fit.residuals, axis=1)
    first, second = [], []
    for k in range(fit.N):
        sl = fit.data.traj_slice(k)
        r = norms[sl]
        if r.size >= 2:
            r = r - r.mean()
            first.append(r[:-1])
            second.append(r[1:])
    if not first:
        return float("nan")
    a = np.concatenate(first)
    b = np.concatenate(second)
    if a.std() == 0 or b.std() == 0:
        return float("nan")
    return float(np.corrcoef(a, b)[0, 1])


def true_parameter_error(fit: ModelFit, spec: SystemSpec) -> float:
    """Frobenius distance between the fitted [A B] and the true discrete dynamics."""
    if spec.a_d is None:
        raise InvalidConfig("true dynamics only available for linear kinds")
    A_hat, B_hat = theta_to_ab(fit.theta, fit.n_x, fit.n_u)
    return float(np.linalg.norm(np.hstack([A_hat - spec.a_d, B_hat - spec.b_d])))
