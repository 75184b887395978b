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
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla

from .errors import InvalidConfig
from .sysid import ModelFit, TrajectoryDataset, eta, solve_spd, theta_to_ab

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
    eblock = sla.expm(block)
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


def _simulate_linear(spec: SystemSpec, rng, T: int, x0_scale: float):
    x = rng.normal(size=spec.n_x) * spec.x0_std * x0_scale
    if spec.sigma_sq_range is not None:
        lo, hi = spec.sigma_sq_range
        noise_std = np.sqrt(rng.uniform(lo, hi))
    else:
        noise_chol = np.linalg.cholesky(spec.noise_cov)
        noise_std = None
    X = np.empty((T, spec.n_x))
    U = np.empty((T, spec.n_u))
    Xn = np.empty((T, spec.n_x))
    for t in range(T):
        u = rng.normal(size=spec.n_u) * spec.input_std
        if noise_std is not None:
            w = rng.normal(size=spec.n_x) * noise_std
        else:
            w = noise_chol @ rng.normal(size=spec.n_x)
        X[t] = x
        U[t] = u
        x = spec.a_d @ x + spec.b_d @ u + w
        Xn[t] = x
    return X, U, Xn


def _reference(policy: dict, t: float):
    """Position, velocity, acceleration of the mission reference at time t."""
    kind = policy["kind"]
    ph = policy.get("phase", 0.0)
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


def simulate_uav(spec: SystemSpec, x0, policy: dict, T: int, seed) -> tuple:
    """Roll out the planar point-mass quadrotor for T steps.

    State (p_x, p_z, v_x, v_z); commanded accelerations (a_x, a_z) with gravity
    already compensated; dynamics v' = u - drag * ||v|| v + gust, Euler at dt.
    policy: {"kind": "hover"} or a mission reference
    ({"kind": "figure_eight" | "descending_s" | "circle", ...}).
    Returns arrays (X, U, X_next) of the recorded transitions.
    """
    if spec.kind not in _UAV_KINDS:
        raise InvalidConfig(f"simulate_uav needs a uav spec, got kind {spec.kind!r}")
    if policy.get("kind") not in ("hover",) + _MISSION_REFS:
        raise InvalidConfig(f"unknown policy kind {policy.get('kind')!r}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    hover = policy["kind"] == "hover"
    kp, kd = _HOVER_GAINS if hover else _MISSION_GAINS
    exc = policy.get("excitation_std", spec.excitation_std)
    drag = policy.get("drag", spec.drag)
    gust_std = policy.get("gust_std", spec.gust_std)

    x = np.asarray(x0, dtype=float).copy()
    X = np.empty((T, 4))
    U = np.empty((T, 2))
    Xn = np.empty((T, 4))
    for t in range(T):
        p, v = x[:2], x[2:]
        if hover:
            u = -kp * p - kd * v
        else:
            p_ref, v_ref, a_ref = _reference(policy, t * spec.dt)
            u = a_ref + kp * (p_ref - p) + kd * (v_ref - v)
        u = u + exc * rng.normal(size=2)
        gust = gust_std * rng.normal(size=2)
        v_next = v + spec.dt * (u - drag * np.linalg.norm(v) * v + gust)
        p_next = p + spec.dt * v
        X[t] = x
        U[t] = u
        x = np.concatenate([p_next, v_next])
        Xn[t] = x
    return X, U, Xn


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


def generate_dataset(spec: SystemSpec, cfg: GenerationConfig) -> TrajectoryDataset:
    """Simulate cfg.n_trajectories trajectories with (seed, index)-keyed streams."""
    if spec.kind not in _LINEAR_KINDS + _UAV_KINDS:
        raise InvalidConfig(f"unknown system kind {spec.kind!r}")
    len_rng = _traj_rng(cfg.seed, 0, stream=0)
    lengths = len_rng.integers(cfg.t_min, cfg.t_max + 1, size=cfg.n_trajectories)
    triples = []
    for k in range(cfg.n_trajectories):
        rng = _traj_rng(cfg.seed, k, stream=1)
        T = int(lengths[k])
        if spec.kind in _LINEAR_KINDS:
            triples.append(_simulate_linear(spec, rng, T, cfg.x0_scale))
        else:
            policy = _uav_policy(spec, k, rng)
            x0 = _uav_x0(spec, policy, rng, cfg.x0_scale)
            triples.append(simulate_uav(spec, x0, policy, T, rng))
    return TrajectoryDataset.from_arrays(triples, n_x=spec.n_x, n_u=spec.n_u)


def generate_heldout(spec: SystemSpec, seed: int, size: int = 10_000,
                     traj_len: int = 50) -> TrajectoryDataset:
    """Fresh transitions from the same system for prediction-loss validation."""
    triples = []
    total = 0
    j = 0
    while total < size:
        rng = _traj_rng(seed, j, stream=2)
        T = min(traj_len, size - total)
        if spec.kind in _LINEAR_KINDS:
            triples.append(_simulate_linear(spec, rng, T, 1.0))
        else:
            policy = _uav_policy(spec, j, rng)
            x0 = _uav_x0(spec, policy, rng, 1.0)
            triples.append(simulate_uav(spec, x0, policy, T, rng))
        total += T
        j += 1
    return TrajectoryDataset.from_arrays(triples, n_x=spec.n_x, n_u=spec.n_u)


def prediction_loss(theta: np.ndarray, data: TrajectoryDataset) -> float:
    """(1/2M) sum ||x_next - [A B] z||^2 at the given parameters."""
    n_x = data.n_x
    Theta = np.asarray(theta).reshape(data.n_x + data.n_u, n_x)
    E = data.next_states - data.Z @ Theta
    return float(0.5 * np.sum(E * E) / data.M)


def heldout_prediction_scores(fit: ModelFit, heldout: TrajectoryDataset,
                              data: TrajectoryDataset, lam: float):
    """Predicted vs exact held-out loss shifts for every trajectory removal.

    if_pred_k = grad L_pred(theta_hat)^T IF_m_k; delta_l_exact_k refits without
    trajectory k and re-evaluates the held-out loss.
    """
    from .sysid import loto_refit

    if heldout.n_x != data.n_x or heldout.n_u != data.n_u:
        raise InvalidConfig("held-out dimensions disagree with the training data")
    Theta = fit.theta.reshape(fit.q, fit.n_x)
    E_ho = heldout.next_states - heldout.Z @ Theta
    grad = -(heldout.Z.T @ E_ho).ravel() / heldout.M

    N = fit.N
    if_pred = np.empty(N)
    delta_l = np.empty(N)
    base = prediction_loss(fit.theta, heldout)
    for k in range(N):
        if_m = solve_spd(fit.hessian_factor, eta(fit, k))
        if_pred[k] = grad @ if_m
        theta_k, _ = loto_refit(data, lam, k)
        delta_l[k] = prediction_loss(theta_k, heldout) - base
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
