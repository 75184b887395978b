"""Benchmark generators: determinism, hand-integration oracles, held-out validation."""

import re

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lqrinfluence import bench
from lqrinfluence.bench import (
    _DC_B,
    _DC_J,
    _DC_K,
    _DC_LA,
    _DC_RA,
    _DASH_FRACTION,
    _HOVER_GAINS,
    _MISSION_DRAWS,
    _MISSION_GAINS,
    _MISSION_REFS,
    _REFERENCE_DEFAULTS,
    _RECOVERY_FRACTION,
    _RECOVERY_SCALE,
    _STATION_SCALE,
    GenerationConfig,
    _discretize,
    _generators,
    _mission_policies,
    _reference,
    _reference_grid,
    _simulate,
    dc_motor_spec,
    generate_dataset,
    generate_heldout,
    heldout_prediction_scores,
    msd_spec,
    prediction_loss,
    residual_lag1_autocorr,
    simulate_uav,
    system_spec,
    uav_hover_spec,
    uav_mission_spec,
)
from lqrinfluence.errors import InvalidConfig, SingleTrajectory
from lqrinfluence.sysid import (
    TrajectoryDataset,
    fit_ridge,
    loto_refit,
    model_influence,
    theta_to_ab,
)

QUICK = GenerationConfig(n_trajectories=12, t_min=8, t_max=20, seed=0)
KINDS = ["dc_motor", "msd", "uav_hover", "uav_mission"]


def stream_rng(seed, k, stream=1):
    # the (seed, stream, k) stream as NumPy defines it, one SeedSequence per trajectory
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream, k)))


# Serial oracles: one trajectory, one step and one draw at a time, the way the
# generators rolled out before they advanced every trajectory in lockstep.
def column_sum(M, v):
    # M @ v as the rollout forms it: M's columns times v's entries, added in column order
    out = M[:, 0] * v[0]
    for j in range(1, len(v)):
        out = out + M[:, j] * v[j]
    return out


def serial_linear(spec, rng, T, x0_scale):
    x = rng.normal(size=spec.n_x) * spec.x0_std * x0_scale
    if spec.sigma_sq_range is not None:
        lo, hi = spec.sigma_sq_range
        noise_std = np.sqrt(rng.uniform(lo, hi))
    else:
        noise_chol = np.linalg.cholesky(spec.noise_cov)
        noise_std = None
    X, U, Xn = np.empty((T, spec.n_x)), np.empty((T, spec.n_u)), np.empty((T, spec.n_x))
    for t in range(T):
        u = rng.normal(size=spec.n_u) * spec.input_std
        if noise_std is not None:
            w = rng.normal(size=spec.n_x) * noise_std
        else:
            w = column_sum(noise_chol, rng.normal(size=spec.n_x))
        X[t], U[t] = x, u
        x = column_sum(spec.a_d, x) + (column_sum(spec.b_d, u) + w)
        Xn[t] = x
    return X, U, Xn


def policy_reference(policy, t):
    # (3, 2) + shape(t): p_ref, v_ref, a_ref of a dict policy, its omitted parameters at
    # their defaults; hover is the zero reference
    if policy["kind"] == "hover":
        return np.zeros((3, 2) + np.shape(t))
    prm = {**_REFERENCE_DEFAULTS[policy["kind"]], **policy}
    return np.reshape(_reference(policy["kind"], prm, t), (3, 2) + np.shape(t))


def serial_uav(spec, x0, policy, T, rng):
    hover = policy["kind"] == "hover"
    kp, kd = _HOVER_GAINS if hover else _MISSION_GAINS
    x = np.asarray(x0, dtype=float).copy()
    X, U, Xn = np.empty((T, 4)), np.empty((T, 2)), np.empty((T, 4))
    for t in range(T):
        p, v = x[:2], x[2:]
        if hover:
            u = -kp * p - kd * v
        else:
            p_ref, v_ref, a_ref = policy_reference(policy, t * spec.dt)
            u = a_ref + kp * (p_ref - p) + kd * (v_ref - v)
        u = u + spec.excitation_std * rng.normal(size=2)
        gust = spec.gust_std * rng.normal(size=2)
        v_next = v + spec.dt * (u - spec.drag * np.linalg.norm(v) * v + gust)
        X[t], U[t] = x, u
        x = np.concatenate([p + spec.dt * v, v_next])
        Xn[t] = x
    return X, U, Xn


def scalar_draw_policy(spec, k, rng):
    # one Generator.uniform call per parameter, in the order the generator draws them
    if spec.kind == "uav_hover":
        return {"kind": "hover"}
    kind = _MISSION_REFS[k % len(_MISSION_REFS)]
    dash = rng.uniform() < _DASH_FRACTION
    amp = rng.uniform(7.0, 10.0) if dash else rng.uniform(1.0, 2.5)
    omega = rng.uniform(1.0, 1.5) if dash else rng.uniform(0.4, 0.8)
    policy = {"kind": kind, "omega": omega, "phase": rng.uniform(0.0, 2.0 * np.pi)}
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


def scalar_draw_x0(spec, policy, rng, x0_scale):
    # the reference's start plus scaled normals; hover then draws station or recovery
    p_ref, v_ref, _ = policy_reference(policy, 0.0)
    noise = rng.normal(size=4) * spec.x0_std * x0_scale
    if policy["kind"] == "hover":
        far = rng.uniform() < _RECOVERY_FRACTION
        noise = noise * (_RECOVERY_SCALE if far else _STATION_SCALE)
    return np.concatenate([p_ref, v_ref]) + noise


def serial_trajectory(spec, seed, k, stream, T, x0_scale=1.0):
    rng = stream_rng(seed, k, stream)
    if spec.kind in ("dc_motor", "msd"):
        return serial_linear(spec, rng, T, x0_scale)
    policy = scalar_draw_policy(spec, k, rng)
    return serial_uav(spec, scalar_draw_x0(spec, policy, rng, x0_scale), policy, T, rng)


def assert_matches_serial(data, spec, seed, stream, x0_scale=1.0):
    # bytes for the linear kinds; the quadrotor oracle takes ||v|| through np.linalg.norm
    for k, T in enumerate(data.lengths):
        sl = data.traj_slice(k)
        oracle = serial_trajectory(spec, seed, k, stream, int(T), x0_scale)
        for got, want in zip((data.states[sl], data.inputs[sl], data.next_states[sl]), oracle):
            assert got.shape == want.shape
            if spec.kind in ("dc_motor", "msd"):
                assert got.tobytes() == want.tobytes()
            else:
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_dc_motor_zoh_block_matches_scipy_expm():
    A_c = np.array([[-_DC_B / _DC_J, _DC_K / _DC_J], [-_DC_K / _DC_LA, -_DC_RA / _DC_LA]])
    B_c = np.array([[0.0], [1.0 / _DC_LA]])
    for dt in (0.1, 0.05):   # the default step and a configured one
        block = np.zeros((3, 3))
        block[:2, :2], block[:2, 2:] = dt * A_c, dt * B_c
        want = sla.expm(block)
        spec = system_spec("dc_motor", dt=dt)
        assert spec.dt == dt
        for got, ref in ((spec.a_d, want[:2, :2]), (spec.b_d, want[:2, 2:])):
            assert np.linalg.norm(got - ref) <= 1e-15 * np.linalg.norm(ref)


@pytest.mark.parametrize("kind", KINDS)
def test_default_dt_override_is_the_default_spec(kind):
    # bitwise: the benchmark's stored references hold only if the default step is unchanged
    base = system_spec(kind)
    spec = system_spec(kind, dt=base.dt)
    for name, value in vars(base).items():
        assert np.array_equal(getattr(spec, name), value), name
        if isinstance(value, np.ndarray):
            assert getattr(spec, name).tobytes() == value.tobytes(), name


def test_msd_discretizes_at_the_configured_dt():
    A_c = (msd_spec().a_d - np.eye(4)) / 0.05
    spec = system_spec("msd", dt=0.01)
    assert np.allclose(spec.a_d, np.eye(4) + 0.01 * A_c, rtol=0, atol=1e-13)
    assert np.allclose(spec.b_d, 0.01 / 0.05 * msd_spec().b_d, rtol=0, atol=1e-15)
    fine, base = (generate_dataset(s, QUICK) for s in (spec, msd_spec()))
    assert np.array_equal(fine.inputs, base.inputs)   # the same draws
    assert not np.array_equal(fine.next_states, base.next_states)
    # an explicit a_d, b_d still wins over the discretization
    a_d = 0.5 * np.eye(4)
    assert np.array_equal(system_spec("msd", dt=0.01, a_d=a_d.tolist()).a_d, a_d)


def test_dt_that_overflows_the_dynamics_is_config_error():
    with pytest.raises(InvalidConfig, match="system.dt"):
        system_spec("dc_motor", dt=1e308)
    # a finite block is discretized, however coarse: the ZOH of a stable motor stays finite
    a_d, b_d = _discretize(-np.eye(1), np.eye(1), 1e300, zoh=True)
    assert np.isfinite(a_d).all() and np.isfinite(b_d).all()


def test_dc_motor_discretization_unchanged():
    # the scipy.linalg.expm discretization this library shipped with, to 17 digits
    a_d = [[0.36783052085214873, 0.05635455519699348],
           [-0.00112709110393987, 0.8186669624280964]]
    b_d = [[0.006855537180611048], [0.18126448220009744]]
    spec = dc_motor_spec()
    for got, want in ((spec.a_d, np.array(a_d)), (spec.b_d, np.array(b_d))):
        assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)


def test_spec_dispatch_dimensions():
    assert (system_spec("dc_motor").n_x, system_spec("dc_motor").n_u) == (2, 1)
    assert (system_spec("msd").n_x, system_spec("msd").n_u) == (4, 2)
    assert (system_spec("uav_hover").n_x, system_spec("uav_hover").n_u) == (4, 2)
    assert (system_spec("uav_mission").n_x, system_spec("uav_mission").n_u) == (4, 2)


def test_spec_dispatch_rejects_unknown():
    with pytest.raises(InvalidConfig):
        system_spec("pendulum")
    for kind in (["msd"], None, 3):   # a list used to fail the dict lookup as unhashable
        with pytest.raises(InvalidConfig, match="unknown system kind"):
            system_spec(kind)
    with pytest.raises(InvalidConfig):
        system_spec("dc_motor", not_a_field=3)


def test_spec_overrides_apply():
    spec = system_spec("uav_hover", gust_std=0.7)
    assert spec.gust_std == 0.7 and spec.kind == "uav_hover"
    spec = system_spec("dc_motor", a_d=[[0.5, 0.0], [0.0, 0.5]], x0_std=[1.0, 2.0])
    assert isinstance(spec.a_d, np.ndarray) and np.array_equal(spec.a_d, 0.5 * np.eye(2))
    assert np.array_equal(spec.x0_std, [1.0, 2.0])
    assert system_spec("msd", sigma_sq_range=[0.1, 0.2], input_std=1.0).input_std == 1.0
    assert system_spec("msd", dt=0.1).dt == 0.1
    # only supplied arrays are checked: dimensions alone may change (external datasets)
    assert system_spec("dc_motor", n_x=20, n_u=5).n_x == 20


@pytest.mark.parametrize(
    "overrides",
    [
        {"a_d": np.eye(3).tolist()},
        {"b_d": [[1.0, 0.0], [0.0, 1.0]]},
        {"noise_cov": [[1.0]]},
        {"x0_std": [1.0, 1.0, 1.0]},
        {"a_d": [[1.0, 0.0], [0.0]]},
        {"n_x": 3, "a_d": np.eye(2).tolist()},
    ],
)
def test_spec_array_overrides_must_match_dimensions(overrides):
    with pytest.raises(InvalidConfig):
        system_spec("dc_motor", **overrides)


@pytest.mark.parametrize(
    "kind, overrides, unread",
    [
        ("msd", {"noise_cov": np.eye(4).tolist()}, "noise_cov"),
        ("dc_motor", {"sigma_sq_range": [0.1, 0.2], "noise_cov": np.eye(2).tolist()},
         "noise_cov"),
        ("uav_hover", {"noise_cov": np.eye(4).tolist()}, "noise_cov"),
        ("uav_hover", {"a_d": np.eye(4).tolist()}, "a_d"),
        ("uav_mission", {"b_d": np.ones((4, 2)).tolist()}, "b_d"),
        ("uav_mission", {"sigma_sq_range": [0.1, 0.2]}, "sigma_sq_range"),
        ("uav_hover", {"input_std": 1.0}, "input_std"),
        ("dc_motor", {"drag": 0.5}, "drag"),
        ("msd", {"gust_std": 0.5}, "gust_std"),
        ("dc_motor", {"excitation_std": 0.5}, "excitation_std"),
    ],
)
def test_spec_rejects_fields_the_kind_never_reads(kind, overrides, unread):
    # the generator would silently ignore them: an msd noise_cov gives the default data
    with pytest.raises(InvalidConfig, match=f"system.{unread} is never read by the {kind} "):
        system_spec(kind, **overrides)


@pytest.mark.parametrize(
    "kind, dims",
    [("dc_motor", {"n_x": 3}), ("msd", {"n_u": 1}), ("uav_hover", {"n_x": 3}),
     ("uav_mission", {"n_u": 3})],
)
def test_generation_rejects_dimensions_the_kind_cannot_honour(kind, dims):
    spec = system_spec(kind, **dims)   # accepted: next to an external dataset they size Q, R
    with pytest.raises(InvalidConfig):
        generate_dataset(spec, GenerationConfig(4, 5, 8))
    with pytest.raises(InvalidConfig):
        generate_heldout(spec, 0, 20)


@pytest.mark.parametrize(
    "kind, overrides",
    [("dc_motor", {"a_d": [[50.0, 0.0], [0.0, 50.0]]}), ("uav_hover", {"drag": 1e3})],
)
def test_generation_stops_at_the_first_non_finite_step(kind, overrides):
    # a diverging system ends in InvalidConfig, not in overflow warnings and a
    # non-finite dataset; the step it names is the first whose state overflows
    spec = system_spec(kind, **overrides)
    with pytest.raises(InvalidConfig, match=r"trajectory \d+ is not finite after step") as err:
        generate_dataset(spec, GenerationConfig(4, 400, 400))
    t = int(re.search(r"after step (\d+)", str(err.value)).group(1))
    data = generate_dataset(spec, GenerationConfig(4, t, t))   # steps 0 .. t-1: the same draws
    assert np.isfinite(data.next_states).all()


def test_generation_config_validation():
    with pytest.raises(InvalidConfig):
        GenerationConfig(n_trajectories=5, t_min=0, t_max=10)
    with pytest.raises(InvalidConfig):
        GenerationConfig(n_trajectories=5, t_min=12, t_max=10)
    with pytest.raises(InvalidConfig):
        GenerationConfig(n_trajectories=1, t_min=5, t_max=10)
    with pytest.raises(InvalidConfig):
        GenerationConfig(n_trajectories=5, t_min=5, t_max=10, x0_scale=0.0)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**200 - 1),
       st.dictionaries(st.integers(0, 2), st.integers(1, 5000), min_size=1),
       st.integers(0, 4999))
@example(2**32, {0: 1, 1: 40}, 7)   # a seed of two words
@example(2**130 + 3, {2: 3}, 1)      # five words: one past the pool
@example(2**200 - 1, {1: 2, 0: 1}, 0)
def test_seeding_pass_matches_seed_sequence(seed, counts, k):
    # one vectorized pass gives every stream NumPy's own SeedSequence gives it
    rngs = iter(_generators(seed, counts))
    for stream, n in counts.items():
        for j, rng in enumerate(next(rngs) for _ in range(n)):
            if j in (0, k % n, n - 1):
                oracle = stream_rng(seed, j, stream)
                assert rng.bit_generator.state == oracle.bit_generator.state
                assert rng.integers(2**63, size=3).tolist() == oracle.integers(2**63, size=3).tolist()
                assert rng.normal() == oracle.normal()
    assert next(rngs, None) is None


def test_seeding_pass_rejects_what_seed_sequence_cannot_key():
    with pytest.raises(ValueError):
        np.random.SeedSequence(-1)
    with pytest.raises(ValueError, match="non-negative"):
        _generators(-1, {1: 2})
    # k = 2**32 would take two spawn-key words: refused before any allocation
    with pytest.raises(InvalidConfig, match="2\\*\\*32"):
        _generators(0, {0: 1, 1: 2**32 + 1})


@pytest.mark.parametrize("kind", ["dc_motor", "msd", "uav_hover", "uav_mission"])
def test_generation_deterministic(kind):
    spec = system_spec(kind)
    d1 = generate_dataset(spec, QUICK)
    d2 = generate_dataset(spec, QUICK)
    assert np.array_equal(d1.states, d2.states)
    assert np.array_equal(d1.inputs, d2.inputs)
    assert np.array_equal(d1.next_states, d2.next_states)
    assert np.array_equal(d1.lengths, d2.lengths)
    d3 = generate_dataset(spec, GenerationConfig(12, 8, 20, seed=1))
    assert not np.array_equal(d1.states, d3.states)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lockstep_generation_matches_serial_rollouts(kind, seed):
    # every trajectory of a lockstep rollout equals the one-at-a-time rollout
    # of its own (seed, k) stream: parallel generation == serial
    spec = system_spec(kind)
    cfg = GenerationConfig(9, 3, 25, seed=seed, x0_scale=1.5)
    data = generate_dataset(spec, cfg)
    assert np.array_equal(data.lengths, stream_rng(seed, 0, 0).integers(3, 26, size=9))
    assert len(set(data.lengths.tolist())) > 1   # padded steps are exercised
    assert_matches_serial(data, spec, seed, 1, x0_scale=1.5)
    for size in (437, 30):   # last trajectory shorter, or the only one
        heldout = generate_heldout(spec, seed, size=size)
        assert heldout.M == size
        assert_matches_serial(heldout, spec, seed, 2)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", [0, 3, 2**64 + 7])
def test_one_pass_sets_equal_separate_generation_bitwise(kind, seed):
    # one pass over a training and a held-out set gives each set bit for bit as its
    # own call does; 31 trajectories leave the held-out mission kinds counted from
    # k = 0 of their own set, t_max 20 and 80 lie on either side of the held-out 50
    # steps, a held-out size of 2 is one trajectory, 437 ends in a short one
    spec = system_spec(kind)
    for n, t_range, x0_scale, size in [(2, (1, 20), 1.0, 2), (31, (5, 20), 1.7, 437),
                                       (50, (45, 80), 1.7, 10_000), (31, (60, 80), 1.0, 2)]:
        gen = GenerationConfig(n, *t_range, seed=seed, x0_scale=x0_scale)
        train, heldout = _simulate(spec, seed, gen, size)
        for got, want in ((train, generate_dataset(spec, gen)),
                          (heldout, generate_heldout(spec, seed, size))):
            for name in ("states", "inputs", "next_states", "offsets"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (n, size, name)


@pytest.mark.parametrize("kind, overrides", [(kind, {}) for kind in KINDS] + [
    ("dc_motor", {"noise_cov": [[0.3, 0.12], [0.12, 0.2]]}),
    ("msd", {"b_d": [[0.01, 0.02], [0.02, -0.01], [0.05, 0.01], [-0.01, 0.05]]})],
    ids=KINDS + ["correlated_noise", "dense_b_d"])
def test_trajectory_rolled_out_alone_equals_its_batch_row_bitwise(kind, overrides, monkeypatch):
    # serial and parallel generation give the same datasets bit for bit: every rollout
    # kernel call of a training plus held-out pass is repeated on each trajectory alone,
    # over its own steps, with the inputs the batch gave it; an off-diagonal noise_cov
    # and a b_d with two inputs per row also put their products through the kernel
    linear = kind in ("dc_motor", "msd")
    name = "_rollout_linear" if linear else "_rollout_uav"
    kernel, calls = getattr(bench, name), []
    monkeypatch.setattr(bench, name, lambda *args: calls.append(args) or kernel(*args))
    spec = system_spec(kind, **overrides)
    _simulate(spec, 6, GenerationConfig(37, 3, 60, seed=6, x0_scale=1.5), 437)
    assert calls
    for _, x0, arg, *arrays in calls:
        X, U = kernel(spec, x0, arg, *arrays)
        live = arrays[-1]
        for k, T in enumerate(live.sum(axis=0).tolist()):
            c = slice(k, k + 1)
            if linear:   # arg: the (N,) noise scales, or None; arrays: draws, live
                alone = (arg if arg is None else arg[c], *(a[:T, c] for a in arrays))
            else:        # arg: hover; arrays: the reference grid, draws, live
                alone = (arg, arrays[0][:T, :, c], *(a[:T, c] for a in arrays[1:]))
            X1, U1 = kernel(spec, x0[c], *alone)
            assert X1.tobytes() == X[:T + 1, c].tobytes() and U1.tobytes() == U[:T, c].tobytes()


def test_one_pass_that_does_not_fit_generates_each_set_alone(monkeypatch):
    # the shared buffers pad every trajectory to the longest one, so when they do not
    # fit each set is generated alone; a set that does not fit alone holds its MemoryError
    live = bench._live

    def tight(lengths):   # room for 31 trajectories at a time
        if len(lengths) > 31:
            raise MemoryError("no room")
        return live(lengths)

    monkeypatch.setattr(bench, "_live", tight)
    spec, gen = system_spec("msd"), GenerationConfig(31, 5, 60, seed=3)
    for size, fits in ((437, True), (50 * 40, False)):   # 9 or 40 held-out trajectories
        train, heldout = _simulate(spec, 3, gen, size)
        for got, want in [(train, generate_dataset(spec, gen))] + (
                [(heldout, generate_heldout(spec, 3, size))] if fits else []):
            assert got.states.tobytes() == want.states.tobytes()
            assert got.next_states.tobytes() == want.next_states.tobytes()
        assert fits or isinstance(heldout, MemoryError)


def test_correlated_noise_matches_serial_rollouts():
    # the default noise covariances are diagonal; only an off-diagonal one
    # shows whether the lockstep product applies the Cholesky factor, not its transpose
    spec = system_spec("dc_motor", noise_cov=[[0.3, 0.12], [0.12, 0.2]])
    assert_matches_serial(generate_dataset(spec, GenerationConfig(9, 1, 6, seed=4)), spec, 4, 1)


@pytest.mark.parametrize("kind", ["uav_hover", "uav_mission"])
def test_uav_policy_matches_scalar_draw_oracle(kind):
    # a mission stream's one rng.random call, read into parameter arrays per mission
    # kind, gives bit for bit the values of one scalar draw per parameter and leaves
    # the stream where those draws leave it; hover draws no policy
    spec, n = system_spec(kind), 300
    for seed in range(5):
        rngs = [stream_rng(seed, k) for k in range(n)]
        oracle_rngs = [stream_rng(seed, k) for k in range(n)]
        want = [scalar_draw_policy(spec, k, rng) for k, rng in enumerate(oracle_rngs)]
        kinds, draws = np.arange(n) % 3, np.full((n, max(_MISSION_DRAWS)), np.nan)
        for k, rng in enumerate(rngs if kind == "uav_mission" else []):
            draws[k, :_MISSION_DRAWS[kinds[k]]] = rng.random(_MISSION_DRAWS[kinds[k]])
        missions = [] if kind == "uav_hover" else _mission_policies(draws, kinds)
        got = [{"kind": "hover"}] * n
        for mission, cols, prm in missions:
            for j, k in enumerate(cols.tolist()):
                got[k] = {"kind": mission, **{name: float(value[j]) for name, value in prm.items()}}
        assert got == want
        for rng, oracle_rng in zip(rngs, oracle_rngs):
            assert rng.random() == oracle_rng.random()


@pytest.mark.parametrize(
    "policy",   # the reference policy, and the drag and noise overrides of the spec
    [
        ({"kind": "hover"}, {"excitation_std": 0.7, "gust_std": 0.0, "drag": 1.1}),
        ({"kind": "circle", "radius": 6.0, "omega": 1.3}, {"gust_std": 0.9, "drag": 0.0}),
        ({"kind": "descending_s", "amp_x": 3.0, "z0": 5.0}, {"excitation_std": 0.0}),
        ({"kind": "figure_eight", "amp_x": 8.0, "amp_z": 4.0, "omega": 1.2, "phase": 0.4}, {}),
    ],
)
def test_simulate_uav_matches_serial_rollout(policy):
    policy, physics = policy
    spec = system_spec("uav_mission", **physics)
    x0 = np.array([0.5, -0.3, 2.0, 1.0])
    got = simulate_uav(spec, x0, policy, 40, seed=5)
    want = serial_uav(spec, x0, policy, 40, np.random.default_rng(5))
    for a, b in zip(got, want):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


def test_descending_s_reference_settles_without_overflow_warning():
    # at the top of the drawn rate range, rate (t - t_mid) passes 709 before t = 700:
    # exp overflows to inf, the sigmoid is exactly 0, and no warning escapes
    p, v, a = policy_reference({"kind": "descending_s", "rate": 1.2}, 700.0)
    assert p[1] == v[1] == a[1] == 0.0
    assert np.isfinite(np.concatenate([p, v, a])).all()


@pytest.mark.parametrize("kind", list(_REFERENCE_DEFAULTS))
def test_reference_velocity_and_acceleration_are_time_derivatives(kind):
    # central differences of p_ref and v_ref; the grid and the serial rollouts read the
    # same _reference, so only this check sees a wrong derivative term
    policy = {"kind": kind, "omega": 1.3, "phase": 0.4}
    t, h = np.linspace(0.0, 6.0, 61), 1e-5
    (p_hi, v_hi, _), (p_lo, v_lo, _) = (policy_reference(policy, t + d) for d in (h, -h))
    _, v, a = policy_reference(policy, t)
    for got, want in (((p_hi - p_lo) / (2 * h), v), ((v_hi - v_lo) / (2 * h), a)):
        assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()


def test_reference_grid_matches_per_policy_reference():
    # every kind with explicit parameters, with each default left out, and hover
    explicit = [
        {"kind": "figure_eight", "amp_x": 7.5, "amp_z": 3.1, "omega": 1.3, "phase": 2.2},
        {"kind": "descending_s", "amp_x": 1.7, "omega": 0.5, "phase": 4.0, "z0": 7.2,
         "rate": 0.9, "t_mid": 2.6},
        {"kind": "circle", "radius": 9.1, "omega": 1.1, "phase": 0.4},
    ]
    defaults = [{"kind": policy["kind"]} for policy in explicit]
    partial = [{key: value for key, value in policy.items() if key != drop}
               for policy in explicit for drop in policy if drop != "kind"]
    policies = explicit + defaults + partial + [{"kind": "hover"}] + explicit[::-1]
    # each kind's columns and parameter arrays, omitted parameters at their defaults
    missions = []
    for kind, prm in _REFERENCE_DEFAULTS.items():
        cols = [j for j, policy in enumerate(policies) if policy["kind"] == kind]
        missions.append((kind, cols, {name: np.array([policies[j].get(name, d) for j in cols])
                                      for name, d in prm.items()}))
    t = np.arange(60) * 0.1
    grid = _reference_grid(t, len(policies), missions)
    assert grid.shape == (60, 6, len(policies))
    for j, policy in enumerate(policies):
        want = policy_reference(policy, t).reshape(6, 60).T
        assert np.abs(grid[..., j] - want).max() <= 1e-15 * max(np.abs(want).max(), 1.0)
    assert not grid[..., policies.index({"kind": "hover"})].any()


@pytest.mark.parametrize("size", [0, -3])
def test_heldout_rejects_nonpositive_sizes(size):
    with pytest.raises(InvalidConfig):
        generate_heldout(dc_motor_spec(), seed=0, size=size)


def test_dc_motor_noise_is_homogeneous():
    spec = dc_motor_spec()
    assert np.array_equal(spec.noise_cov, 0.1 * np.eye(2))


def test_dc_motor_transition_count_and_boundedness():
    spec = dc_motor_spec()
    data = generate_dataset(spec, GenerationConfig(50, 5, 40, seed=3))
    assert 250 <= data.M <= 2000
    assert np.linalg.norm(data.states, axis=1).max() < 1e6
    assert np.linalg.norm(data.next_states, axis=1).max() < 1e6


def test_msd_collapsed_sigma_is_homogeneous():
    # with the variance range collapsed, per-trajectory covariances stay within
    # sampling spread; the default wide range blows far past it
    def max_pairwise_spread(spec, seed):
        data = generate_dataset(spec, GenerationConfig(12, 25, 35, seed=seed))
        fit = fit_ridge(data, 1e-3)
        covs = fit.per_traj_cov
        return max(
            np.linalg.norm(covs[i] - covs[j])
            for i in range(len(covs))
            for j in range(i + 1, len(covs))
        )

    flat = system_spec("msd", sigma_sq_range=[0.1, 0.1])
    spreads = [max_pairwise_spread(flat, s) for s in range(5)]
    ref = float(np.mean(spreads))
    assert all(s < 3.0 * ref for s in spreads)
    wide = msd_spec()
    assert max_pairwise_spread(wide, 0) > 3.0 * ref


def test_uav_equilibrium_at_origin():
    spec = system_spec("uav_hover", excitation_std=0.0, gust_std=0.0, drag=0.0)
    X, U, Xn = simulate_uav(spec, np.zeros(4), {"kind": "hover"}, 10, seed=0)
    assert np.array_equal(X, np.zeros((10, 4)))
    assert np.array_equal(U, np.zeros((10, 2)))
    assert np.array_equal(Xn, np.zeros((10, 4)))


def test_uav_one_step_hand_integration():
    # x0 = (0,0,1,0), hover gains (kp,kd)=(1.2,1.8), no noise:
    # u = -kd*v = (-1.8, 0); v_x' = 1 + dt*(u_x - 0.3*|v|*v_x) = 1 + 0.1*(-2.1)
    spec = system_spec("uav_hover", excitation_std=0.0, gust_std=0.0)
    x0 = np.array([0.0, 0.0, 1.0, 0.0])
    X, U, Xn = simulate_uav(spec, x0, {"kind": "hover"}, 1, seed=0)
    assert U[0] == pytest.approx([-1.8, 0.0])
    assert Xn[0] == pytest.approx([0.1, 0.0, 1.0 + 0.1 * (-1.8 - 0.3), 0.0])


def test_uav_drag_term_isolated():
    # same rollout with and without drag differs exactly by -dt*c_d*|v|*v
    quiet = {"excitation_std": 0.0, "gust_std": 0.0}
    x0 = np.array([0.0, 0.0, 1.0, 0.0])
    hover = {"kind": "hover"}
    _, _, with_drag = simulate_uav(system_spec("uav_hover", **quiet), x0, hover, 1, seed=0)
    _, _, no_drag = simulate_uav(system_spec("uav_hover", drag=0.0, **quiet), x0, hover, 1, seed=0)
    assert with_drag[0, 2] - no_drag[0, 2] == pytest.approx(-0.1 * 0.3 * 1.0 * 1.0)
    assert with_drag[0, 3] - no_drag[0, 3] == pytest.approx(0.0)


def test_uav_requires_uav_spec_and_known_policy():
    with pytest.raises(InvalidConfig):
        simulate_uav(dc_motor_spec(), np.zeros(2), {"kind": "hover"}, 5, seed=0)
    with pytest.raises(InvalidConfig):
        simulate_uav(uav_hover_spec(), np.zeros(4), {"kind": "spiral"}, 5, seed=0)
    # drag and the noise scales come from the spec alone; a policy key would be ignored
    for policy, key in (({"kind": "hover", "drag": 0.0}, "drag"),
                        ({"kind": "circle", "gust_std": 0.9}, "gust_std"),
                        ({"kind": "hover", "omega": 1.0}, "omega"),
                        ({"kind": "figure_eight", "radius": 6.0}, "radius")):
        with pytest.raises(InvalidConfig, match=f"policy key '{key}' is never read"):
            simulate_uav(uav_mission_spec(), np.zeros(4), policy, 5, seed=0)


def test_mission_reaches_velocities_hover_never_sees():
    hover = generate_dataset(uav_hover_spec(), GenerationConfig(30, 5, 40, seed=0))
    hover_vmax = np.linalg.norm(hover.states[:, 2:], axis=1).max()
    spec = uav_mission_spec()
    policy = {"kind": "figure_eight", "amp_x": 8.0, "amp_z": 4.0, "omega": 1.2}
    X, _, Xn = simulate_uav(spec, np.array([0.0, 0.0, 8.0 * 1.2, 8.0 * 1.2]),
                            policy, 60, seed=0)
    assert np.isfinite(X).all() and np.isfinite(Xn).all()
    assert np.linalg.norm(X[:, 2:], axis=1).max() > 2.0 * hover_vmax


def test_heldout_exact_size_and_fresh_stream():
    spec = dc_motor_spec()
    ho = generate_heldout(spec, seed=0, size=500)
    assert ho.M == 500
    ho2 = generate_heldout(spec, seed=0, size=500)
    assert np.array_equal(ho.states, ho2.states)
    train = generate_dataset(spec, GenerationConfig(12, 40, 50, seed=0))
    assert not np.array_equal(train.states[:500], ho.states)


def test_prediction_loss_hand_case():
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    U = np.array([[1.0], [0.0]])
    Xn = np.array([[1.0, 1.0], [0.5, 0.0]])
    data = TrajectoryDataset.from_arrays([(X, U, Xn)])
    theta = np.zeros(6)  # predicts 0: loss = (1/(2*2)) * sum of squares
    assert prediction_loss(theta, data) == pytest.approx(
        (1.0 + 1.0 + 0.25) / 4.0
    )


def test_heldout_scores_vanish_on_duplicated_data():
    rng = np.random.default_rng(7)
    A, B = np.array([[0.8, 0.1], [0.0, 0.7]]), np.array([[0.0], [1.0]])
    X, U, Xn = [], [], []
    x = rng.normal(size=2)
    for _ in range(15):
        u = rng.normal(size=1)
        xn = A @ x + B @ u + 0.1 * rng.normal(size=2)
        X.append(x), U.append(u), Xn.append(xn)
        x = xn
    traj = (np.array(X), np.array(U), np.array(Xn))
    data = TrajectoryDataset.from_arrays([traj] * 5)
    fit = fit_ridge(data, 1e-3)
    heldout = TrajectoryDataset.from_arrays([traj])
    if_pred, delta_l = heldout_prediction_scores(fit, heldout)
    assert np.allclose(if_pred, 0.0, atol=1e-12)
    assert np.allclose(delta_l, 0.0, atol=1e-12)


def test_heldout_scores_track_exact_shifts():
    spec = dc_motor_spec()
    data = generate_dataset(spec, GenerationConfig(20, 8, 25, seed=1))
    fit = fit_ridge(data, 1e-3)
    heldout = generate_heldout(spec, seed=1, size=2000)
    if_pred, delta_l = heldout_prediction_scores(fit, heldout)
    assert if_pred.shape == delta_l.shape == (20,)
    # the closed-form quadratic shift is the re-evaluated held-out loss
    # difference; that difference of two O(L) sums carries round-off near
    # eps * L, so agreement is relative to the largest shift
    base = prediction_loss(fit.theta, heldout)
    direct = [prediction_loss(theta_k, heldout) - base for theta_k in loto_refit(fit)[0]]
    assert np.abs(delta_l - direct).max() <= 1e-12 * np.abs(direct).max()
    # linear surrogate of a realizable system: high rank agreement
    from lqrinfluence.experiments import spearman

    assert spearman(if_pred, delta_l) > 0.9


@pytest.mark.parametrize("kind, gen", [("dc_motor", GenerationConfig(50, 5, 40)),
                                       ("uav_mission", GenerationConfig(30, 30, 60))])
def test_heldout_scores_equal_the_explicit_influence_product(kind, gen):
    # grad^T H^-1 eta_k from one solve against grad and one eta_dot, against
    # the (N, p) surrogates formed explicitly
    spec = system_spec(kind)
    fit = fit_ridge(generate_dataset(spec, gen), 1e-3)
    heldout = generate_heldout(spec, seed=0, size=2000)
    if_pred, _ = heldout_prediction_scores(fit, heldout)
    Z_ho = heldout.Z
    E_ho = heldout.next_states - Z_ho @ fit.theta.reshape(fit.q, fit.n_x)
    explicit = model_influence(fit) @ (-(Z_ho.T @ E_ho).ravel() / heldout.M)
    assert np.abs(if_pred - explicit).max() <= 1e-12 * np.abs(explicit).max()


def test_heldout_scores_reject_a_dominant_trajectory():
    spec = dc_motor_spec()
    only = generate_heldout(spec, seed=3, size=40)   # one trajectory, every transition
    with pytest.raises(SingleTrajectory):
        heldout_prediction_scores(fit_ridge(only, 1e-3), generate_heldout(spec, seed=4, size=100))


def test_heldout_dimension_mismatch():
    spec = dc_motor_spec()
    data = generate_dataset(spec, QUICK)
    fit = fit_ridge(data, 1e-3)
    wrong = generate_heldout(msd_spec(), seed=0, size=100)
    with pytest.raises(InvalidConfig):
        heldout_prediction_scores(fit, wrong)


def true_parameter_error(fit, spec):
    # Frobenius distance between the fitted [A B] and a linear kind's true dynamics
    A_hat, B_hat = theta_to_ab(fit.theta, fit.n_x, fit.n_u)
    return float(np.linalg.norm(np.hstack([A_hat - spec.a_d, B_hat - spec.b_d])))


def test_true_parameter_error_decreases_with_data():
    spec = dc_motor_spec()
    errs_small, errs_large = [], []
    for seed in range(3):
        small = generate_dataset(spec, GenerationConfig(10, 5, 15, seed=seed))
        large = generate_dataset(spec, GenerationConfig(80, 20, 40, seed=seed))
        errs_small.append(true_parameter_error(fit_ridge(small, 1e-3), spec))
        errs_large.append(true_parameter_error(fit_ridge(large, 1e-3), spec))
    assert np.median(errs_large) < np.median(errs_small)


def test_residual_autocorr_separates_mismatch():
    cfg = GenerationConfig(50, 5, 40, seed=0)
    rho = {}
    for kind in ("dc_motor", "msd", "uav_mission"):
        fit = fit_ridge(generate_dataset(system_spec(kind), cfg), 1e-3)
        rho[kind] = residual_lag1_autocorr(fit)
    assert abs(rho["dc_motor"]) < 0.2
    assert abs(rho["msd"]) < 0.2
    assert rho["uav_mission"] > max(abs(rho["dc_motor"]), abs(rho["msd"])) + 0.05


def test_residual_autocorr_degenerate():
    spec = dc_motor_spec()
    data = generate_dataset(spec, GenerationConfig(8, 1, 1, seed=0))
    fit = fit_ridge(data, 1e-3)
    assert np.isnan(residual_lag1_autocorr(fit))


def serial_autocorr(fit):
    # the per-trajectory loop the diagnostic replaced: slice, center, pair within the slice
    norms = np.linalg.norm(fit.residuals, axis=1)
    first, second = [], []
    for k in range(fit.N):
        r = norms[fit.data.traj_slice(k)]
        if r.size >= 2:
            r = r - r.mean()
            first.append(r[:-1])
            second.append(r[1:])
    if not first:
        return float("nan")
    a, b = np.concatenate(first), np.concatenate(second)
    if a.std() == 0 or b.std() == 0:
        return float("nan")
    return float(np.corrcoef(a, b)[0, 1])


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed, t_min, t_max",
                         [(0, 1, 1), (1, 1, 1), (0, 1, 2), (1, 1, 3), (2, 1, 40), (3, 5, 40)])
def test_residual_autocorr_matches_per_trajectory_loop(kind, seed, t_min, t_max):
    # the per-trajectory means are summed in another order: the value moves in its
    # last bits only; all length-1 trajectories leave no pair, and the value is NaN
    data = generate_dataset(system_spec(kind), GenerationConfig(30, t_min, t_max, seed=seed))
    fit = fit_ridge(data, 1e-3)
    got, want = residual_lag1_autocorr(fit), serial_autocorr(fit)
    assert np.isnan(got) == np.isnan(want) == (t_max == 1)
    assert np.isnan(want) or abs(got - want) <= 1e-15
