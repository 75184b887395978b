"""Benchmark generators: determinism, hand-integration oracles, held-out validation."""

import numpy as np
import pytest

from lqrinfluence.bench import (
    GenerationConfig,
    dc_motor_spec,
    generate_dataset,
    generate_heldout,
    heldout_prediction_scores,
    msd_spec,
    prediction_loss,
    residual_lag1_autocorr,
    simulate_uav,
    system_spec,
    true_parameter_error,
    uav_hover_spec,
    uav_mission_spec,
)
from lqrinfluence.errors import InvalidConfig
from lqrinfluence.sysid import TrajectoryDataset, fit_ridge

QUICK = GenerationConfig(n_trajectories=12, t_min=8, t_max=20, seed=0)


def test_spec_dispatch_dimensions():
    assert (system_spec("dc_motor").n_x, system_spec("dc_motor").n_u) == (2, 1)
    assert (system_spec("msd").n_x, system_spec("msd").n_u) == (4, 2)
    assert (system_spec("uav_hover").n_x, system_spec("uav_hover").n_u) == (4, 2)
    assert (system_spec("uav_mission").n_x, system_spec("uav_mission").n_u) == (4, 2)


def test_spec_dispatch_rejects_unknown():
    with pytest.raises(InvalidConfig):
        system_spec("pendulum")
    with pytest.raises(InvalidConfig):
        system_spec("dc_motor", not_a_field=3)


def test_spec_overrides_apply():
    spec = system_spec("uav_hover", gust_std=0.7)
    assert spec.gust_std == 0.7 and spec.kind == "uav_hover"
    spec = system_spec("dc_motor", a_d=[[0.5, 0.0], [0.0, 0.5]], x0_std=[1.0, 2.0])
    assert isinstance(spec.a_d, np.ndarray) and np.array_equal(spec.a_d, 0.5 * np.eye(2))
    assert np.array_equal(spec.x0_std, [1.0, 2.0])
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


def test_generation_config_validation():
    with pytest.raises(InvalidConfig):
        GenerationConfig(n_trajectories=5, t_min=0, t_max=10)
    with pytest.raises(InvalidConfig):
        GenerationConfig(n_trajectories=5, t_min=12, t_max=10)
    with pytest.raises(InvalidConfig):
        GenerationConfig(n_trajectories=1, t_min=5, t_max=10)
    with pytest.raises(InvalidConfig):
        GenerationConfig(n_trajectories=5, t_min=5, t_max=10, x0_scale=0.0)


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

    flat = msd_spec(sigma_sq_range=(0.1, 0.1))
    spreads = [max_pairwise_spread(flat, s) for s in range(5)]
    ref = float(np.mean(spreads))
    assert all(s < 3.0 * ref for s in spreads)
    wide = msd_spec()
    assert max_pairwise_spread(wide, 0) > 3.0 * ref


def test_uav_equilibrium_at_origin():
    spec = system_spec("uav_hover")
    policy = {"kind": "hover", "excitation_std": 0.0, "gust_std": 0.0, "drag": 0.0}
    X, U, Xn = simulate_uav(spec, np.zeros(4), policy, 10, seed=0)
    assert np.array_equal(X, np.zeros((10, 4)))
    assert np.array_equal(U, np.zeros((10, 2)))
    assert np.array_equal(Xn, np.zeros((10, 4)))


def test_uav_one_step_hand_integration():
    # x0 = (0,0,1,0), hover gains (kp,kd)=(1.2,1.8), no noise:
    # u = -kd*v = (-1.8, 0); v_x' = 1 + dt*(u_x - 0.3*|v|*v_x) = 1 + 0.1*(-2.1)
    spec = system_spec("uav_hover")
    x0 = np.array([0.0, 0.0, 1.0, 0.0])
    policy = {"kind": "hover", "excitation_std": 0.0, "gust_std": 0.0}
    X, U, Xn = simulate_uav(spec, x0, policy, 1, seed=0)
    assert U[0] == pytest.approx([-1.8, 0.0])
    assert Xn[0] == pytest.approx([0.1, 0.0, 1.0 + 0.1 * (-1.8 - 0.3), 0.0])


def test_uav_drag_term_isolated():
    # same rollout with and without drag differs exactly by -dt*c_d*|v|*v
    spec = system_spec("uav_hover")
    x0 = np.array([0.0, 0.0, 1.0, 0.0])
    base = {"kind": "hover", "excitation_std": 0.0, "gust_std": 0.0}
    _, _, with_drag = simulate_uav(spec, x0, base, 1, seed=0)
    _, _, no_drag = simulate_uav(spec, x0, {**base, "drag": 0.0}, 1, seed=0)
    assert with_drag[0, 2] - no_drag[0, 2] == pytest.approx(-0.1 * 0.3 * 1.0 * 1.0)
    assert with_drag[0, 3] - no_drag[0, 3] == pytest.approx(0.0)


def test_uav_requires_uav_spec_and_known_policy():
    with pytest.raises(InvalidConfig):
        simulate_uav(dc_motor_spec(), np.zeros(2), {"kind": "hover"}, 5, seed=0)
    with pytest.raises(InvalidConfig):
        simulate_uav(uav_hover_spec(), np.zeros(4), {"kind": "spiral"}, 5, seed=0)


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
    if_pred, delta_l = heldout_prediction_scores(fit, heldout, data, 1e-3)
    assert np.allclose(if_pred, 0.0, atol=1e-12)
    assert np.allclose(delta_l, 0.0, atol=1e-12)


def test_heldout_scores_track_exact_shifts():
    spec = dc_motor_spec()
    data = generate_dataset(spec, GenerationConfig(20, 8, 25, seed=1))
    fit = fit_ridge(data, 1e-3)
    heldout = generate_heldout(spec, seed=1, size=2000)
    if_pred, delta_l = heldout_prediction_scores(fit, heldout, data, 1e-3)
    assert if_pred.shape == delta_l.shape == (20,)
    # linear surrogate of a realizable system: high rank agreement
    from lqrinfluence.experiments import spearman

    assert spearman(if_pred, delta_l) > 0.9


def test_heldout_dimension_mismatch():
    spec = dc_motor_spec()
    data = generate_dataset(spec, QUICK)
    fit = fit_ridge(data, 1e-3)
    wrong = generate_heldout(msd_spec(), seed=0, size=100)
    with pytest.raises(InvalidConfig):
        heldout_prediction_scores(fit, wrong, data, 1e-3)


def test_true_parameter_error_decreases_with_data():
    spec = dc_motor_spec()
    errs_small, errs_large = [], []
    for seed in range(3):
        small = generate_dataset(spec, GenerationConfig(10, 5, 15, seed=seed))
        large = generate_dataset(spec, GenerationConfig(80, 20, 40, seed=seed))
        errs_small.append(true_parameter_error(fit_ridge(small, 1e-3), spec))
        errs_large.append(true_parameter_error(fit_ridge(large, 1e-3), spec))
    assert np.median(errs_large) < np.median(errs_small)


def test_true_parameter_error_needs_linear_kind():
    data = generate_dataset(uav_hover_spec(), QUICK)
    with pytest.raises(InvalidConfig):
        true_parameter_error(fit_ridge(data, 1e-3), uav_hover_spec())


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
