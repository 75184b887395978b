"""Ridge trajectory fits: recovery, stationarity, gradients, exact removal."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lqrinfluence.errors import (
    DimensionMismatch,
    DominantTrajectory,
    NotPositiveDefinite,
    SingleTrajectory,
)
from lqrinfluence.sysid import (
    TrajectoryDataset,
    ab_to_theta,
    build_regressor,
    covariance_direct_term,
    eta,
    fit_ridge,
    load_dataset,
    loto_refit,
    model_influence,
    save_dataset,
    stationarity_residual,
    theta_to_ab,
    trajectory_gradient,
)


def simulate_linear(rng, A, B, T, noise=0.1, x0=None):
    n_x, n_u = A.shape[0], B.shape[1]
    x = rng.normal(size=n_x) if x0 is None else np.asarray(x0, float)
    X, U, Xn = [], [], []
    for _ in range(T):
        u = rng.normal(size=n_u)
        xn = A @ x + B @ u + noise * rng.normal(size=n_x)
        X.append(x)
        U.append(u)
        Xn.append(xn)
        x = xn
    return np.array(X), np.array(U), np.array(Xn)


def make_dataset(rng, A, B, n_traj=8, t_lo=4, t_hi=12, noise=0.1):
    lengths = rng.integers(t_lo, t_hi + 1, size=n_traj)
    return TrajectoryDataset.from_arrays(
        [simulate_linear(rng, A, B, int(T), noise) for T in lengths]
    )


A0 = np.array([[0.8, 0.1], [0.0, 0.7]])
B0 = np.array([[0.0], [1.0]])


def test_regressor_prediction_matches_ab():
    rng = np.random.default_rng(0)
    x, u = rng.normal(size=2), rng.normal(size=1)
    theta = ab_to_theta(A0, B0)
    phi = build_regressor(x, u)
    assert np.allclose(phi @ theta, A0 @ x + B0 @ u, atol=1e-14)


def test_theta_ab_round_trip():
    theta = ab_to_theta(A0, B0)
    A, B = theta_to_ab(theta, 2, 1)
    assert np.array_equal(A, A0)
    assert np.array_equal(B, B0)


def test_noiseless_recovery_lambda_zero():
    rng = np.random.default_rng(1)
    data = make_dataset(rng, A0, B0, noise=0.0)
    fit = fit_ridge(data, 0.0)
    assert np.allclose(fit.theta, ab_to_theta(A0, B0), atol=1e-10)
    assert np.allclose(fit.W_hat, 0.0, atol=1e-20)


def test_huge_ridge_shrinks_to_zero():
    rng = np.random.default_rng(2)
    data = make_dataset(rng, A0, B0)
    fit = fit_ridge(data, 1e9)
    assert np.linalg.norm(fit.theta) <= 1e-6 * np.linalg.norm(data.next_states)


def test_matches_normal_equations_oracle():
    rng = np.random.default_rng(3)
    data = make_dataset(rng, A0, B0, n_traj=5, t_lo=6, t_hi=6)
    lam = 1e-3
    fit = fit_ridge(data, lam)
    # dense normal equations built from materialized per-step regressors
    p = fit.p
    H = np.zeros((p, p))
    rhs = np.zeros(p)
    for x, u, xn in zip(data.states, data.inputs, data.next_states):
        phi = build_regressor(x, u)
        H += phi.T @ phi / data.M
        rhs += phi.T @ xn / data.M
    H += lam * np.eye(p)
    assert np.allclose(H @ fit.theta, rhs, atol=1e-10)
    # the kron-structured matvec equals the materialized Hessian product
    v = np.random.default_rng(4).normal(size=p)
    assert np.allclose(fit.hessian_matvec(v), H @ v, atol=1e-12)


def test_stationarity_residual_small():
    rng = np.random.default_rng(5)
    data = make_dataset(rng, A0, B0)
    fit = fit_ridge(data, 1e-3)
    assert stationarity_residual(fit) <= 1e-9 * (1 + np.linalg.norm(fit.theta))


def test_gradients_sum_to_ridge_pull():
    rng = np.random.default_rng(6)
    data = make_dataset(rng, A0, B0)
    fit = fit_ridge(data, 1e-3)
    total = fit.g.sum(axis=0)
    assert np.allclose(total, -fit.lam * fit.theta, atol=1e-11)


def test_gradients_sum_to_zero_at_lambda_zero():
    rng = np.random.default_rng(7)
    data = make_dataset(rng, A0, B0)
    fit = fit_ridge(data, 0.0)
    assert np.linalg.norm(fit.g.sum(axis=0)) <= 1e-12


def test_single_trajectory_gradient_is_ridge_pull():
    rng = np.random.default_rng(8)
    data = TrajectoryDataset.from_arrays([simulate_linear(rng, A0, B0, 10)])
    fit = fit_ridge(data, 1e-3)
    assert np.allclose(trajectory_gradient(fit, 0), -fit.lam * fit.theta, atol=1e-14)


def test_eta_scaling_cases():
    rng = np.random.default_rng(9)
    # two equal-length trajectories, lam = 0: eta_k = 2 g_k
    data = TrajectoryDataset.from_arrays(
        [simulate_linear(rng, A0, B0, 8) for _ in range(2)]
    )
    fit = fit_ridge(data, 0.0)
    assert np.allclose(eta(fit, 0), 2.0 * fit.g[0], atol=1e-14)


def test_eta_dominant_trajectory():
    rng = np.random.default_rng(10)
    data = TrajectoryDataset.from_arrays([simulate_linear(rng, A0, B0, 10)])
    fit = fit_ridge(data, 1e-3)
    with pytest.raises(DominantTrajectory):
        eta(fit, 0)


def test_covariance_exact_mixture():
    # M W_hat = sum_k T_k W_bar_k
    rng = np.random.default_rng(11)
    data = make_dataset(rng, A0, B0)
    fit = fit_ridge(data, 1e-3)
    mix = sum(
        int(t) * w for t, w in zip(fit.lengths, fit.per_traj_cov)
    )
    assert np.allclose(fit.M * fit.W_hat, mix, atol=1e-13 * fit.M)


def test_covariance_direct_term_formula():
    rng = np.random.default_rng(12)
    data = make_dataset(rng, A0, B0)
    fit = fit_ridge(data, 1e-3)
    k = 2
    T_k = int(fit.lengths[k])
    expected = (T_k / (fit.M - T_k)) * (fit.W_hat - fit.per_traj_cov[k])
    assert np.allclose(covariance_direct_term(fit, k), expected, atol=1e-15)


def test_loto_gradient_identity():
    # gradient of the held-in loss at theta_hat equals -(M/M_k) g_k - (T_k/M_k) lam theta
    rng = np.random.default_rng(13)
    data = make_dataset(rng, A0, B0)
    fit = fit_ridge(data, 1e-3)
    for k in range(data.N):
        sl = data.traj_slice(k)
        keep = np.ones(data.M, dtype=bool)
        keep[sl] = False
        Z, Y = data.Z[keep], data.next_states[keep]
        M_rem = Z.shape[0]
        E = Y - Z @ fit.theta.reshape(fit.q, fit.n_x)
        grad_direct = -(Z.T @ E).ravel() / M_rem + fit.lam * fit.theta
        T_k = int(fit.lengths[k])
        expected = -(fit.M / M_rem) * fit.g[k] - (T_k / M_rem) * fit.lam * fit.theta
        assert np.allclose(grad_direct, expected, atol=1e-11)
        assert np.allclose(grad_direct, -eta(fit, k), atol=1e-11)


def test_influence_matches_sherman_morrison_on_unit_trajectories():
    # single-transition trajectories: rank-n_x downdate oracle, lam = 0
    rng = np.random.default_rng(14)
    n_traj = 40
    data = TrajectoryDataset.from_arrays(
        [simulate_linear(rng, A0, B0, 1) for _ in range(n_traj)]
    )
    fit = fit_ridge(data, 0.0)
    k = 7
    z_k = data.Z[data.traj_slice(k)][0]
    y_k = data.next_states[data.traj_slice(k)][0]
    M = data.M
    # exact downdate of the per-coordinate normal equations
    G = data.Z.T @ data.Z
    b = data.Z.T @ data.next_states
    G_k = G - np.outer(z_k, z_k)
    b_k = b - np.outer(z_k, y_k)
    theta_exact = np.linalg.solve(G_k, b_k).ravel()
    delta = theta_exact - fit.theta
    if_m = model_influence(fit, k)
    # agreement to O(1/M) relative
    assert np.linalg.norm(if_m - delta) <= 10.0 / M * np.linalg.norm(delta)


def test_influence_cg_equals_dense():
    rng = np.random.default_rng(15)
    data = make_dataset(rng, A0, B0)
    fit = fit_ridge(data, 1e-3)
    for k in range(3):
        d = model_influence(fit, k, solver="dense")
        c = model_influence(fit, k, solver="cg", cg_tol=1e-13)
        assert np.allclose(c, d, atol=1e-10 * (1 + np.linalg.norm(d)))


def test_loto_refit_matches_full_fit_on_remaining():
    rng = np.random.default_rng(16)
    data = make_dataset(rng, A0, B0, n_traj=6)
    lam = 1e-3
    k = 3
    theta_k, W_k = loto_refit(fit_ridge(data, lam), k)
    kept = [i for i in range(data.N) if i != k]
    sub = TrajectoryDataset.from_arrays(
        [
            (
                data.states[data.traj_slice(i)],
                data.inputs[data.traj_slice(i)],
                data.next_states[data.traj_slice(i)],
            )
            for i in kept
        ]
    )
    ref = fit_ridge(sub, lam)
    assert np.allclose(theta_k, ref.theta, atol=1e-12)
    assert np.allclose(W_k, ref.W_hat, atol=1e-14)


@st.composite
def removal_case(draw):
    """A random stable linear corpus, the removed index k, and whether only
    trajectory k carries input (the others hold exact zeros)."""
    n_x, n_u = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    lengths = draw(st.lists(st.integers(1, 8), min_size=2, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.normal(size=(n_x, n_x))
    A *= draw(st.floats(0.0, 0.95)) / max(np.abs(np.linalg.eigvals(A)).max(), 1e-12)
    B = rng.normal(size=(n_x, n_u))
    trajs = [simulate_linear(rng, A, B, T) for T in lengths]
    k = draw(st.integers(0, len(lengths) - 1))
    only_k_excited = draw(st.booleans())
    if only_k_excited:
        trajs = [(X, U if j == k else np.zeros_like(U), Xn) for j, (X, U, Xn) in enumerate(trajs)]
    lam = draw(st.sampled_from([1e-2, 1e-1, 1.0]))
    return TrajectoryDataset.from_arrays(trajs, n_x=n_x, n_u=n_u), k, lam, only_k_excited


@settings(max_examples=60, deadline=None)
@given(removal_case())
def test_loto_refit_matches_fit_on_retained_property(case):
    data, k, lam, only_k_excited = case
    theta_k, W_k = loto_refit(fit_ridge(data, lam), k)
    kept = [
        tuple(arr[data.traj_slice(i)] for arr in (data.states, data.inputs, data.next_states))
        for i in range(data.N)
        if i != k
    ]
    ref = fit_ridge(TrajectoryDataset.from_arrays(kept, n_x=data.n_x, n_u=data.n_u), lam)
    assert np.allclose(theta_k, ref.theta, rtol=0, atol=1e-12)
    assert np.allclose(W_k, ref.W_hat, rtol=0, atol=1e-14)
    if only_k_excited:
        # the retained data never move the input: B_k is exactly zero
        assert np.all(theta_to_ab(theta_k, data.n_x, data.n_u)[1] == 0.0)


@settings(max_examples=60, deadline=None)
@given(removal_case(), st.integers(0, 2**32 - 1))
def test_hessian_solve_matches_dense_kronecker_solve_property(case, seed):
    # H = (G + lam I) kron I_nx: one q x q solve with n_x right sides is H^-1 v
    data, _, lam, _ = case
    fit = fit_ridge(data, lam)
    v = np.random.default_rng(seed).normal(size=fit.p)
    dense = np.linalg.solve(np.kron(fit.gram + lam * np.eye(fit.q), np.eye(fit.n_x)), v)
    assert np.linalg.norm(fit.hessian_solve(v) - dense) <= 1e-12 * np.linalg.norm(dense)


def test_loto_refit_single_trajectory_raises():
    rng = np.random.default_rng(17)
    data = TrajectoryDataset.from_arrays([simulate_linear(rng, A0, B0, 10)])
    with pytest.raises(SingleTrajectory):
        loto_refit(fit_ridge(data, 1e-3), 0)


def test_fit_lambda_zero_rank_deficient_raises():
    # two identical transitions cannot identify a 2-state model
    X = np.array([[1.0, 0.0], [1.0, 0.0]])
    U = np.zeros((2, 1))
    Xn = np.array([[0.5, 0.0], [0.5, 0.0]])
    data = TrajectoryDataset.from_arrays([(X, U, Xn)])
    with pytest.raises(NotPositiveDefinite):
        fit_ridge(data, 0.0)


def test_dataset_validation():
    with pytest.raises(DimensionMismatch):
        TrajectoryDataset(
            n_x=2,
            n_u=1,
            states=np.zeros((3, 2)),
            inputs=np.zeros((3, 2)),  # wrong n_u
            next_states=np.zeros((3, 2)),
            offsets=np.array([0, 3]),
        )
    with pytest.raises(ValueError):
        TrajectoryDataset(
            n_x=1,
            n_u=1,
            states=np.array([[np.nan]]),
            inputs=np.zeros((1, 1)),
            next_states=np.zeros((1, 1)),
            offsets=np.array([0, 1]),
        )


def test_traj_slice_bounds():
    rng = np.random.default_rng(18)
    data = make_dataset(rng, A0, B0, n_traj=3)
    with pytest.raises(IndexError):
        data.traj_slice(3)
    with pytest.raises(IndexError):
        data.traj_slice(-1)


def test_dataset_json_round_trip(tmp_path):
    rng = np.random.default_rng(19)
    data = make_dataset(rng, A0, B0, n_traj=4)
    path = tmp_path / "data.json"
    save_dataset(data, path)
    back = load_dataset(path)
    assert np.array_equal(back.states, data.states)
    assert np.array_equal(back.inputs, data.inputs)
    assert np.array_equal(back.next_states, data.next_states)
    assert np.array_equal(back.offsets, data.offsets)


@st.composite
def any_corpus(draw):
    """Trajectories of arbitrary finite binary64 entries: signed zeros,
    subnormals and extremes included."""
    n_x, n_u = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    lengths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    trajs = [
        tuple(draw(hnp.arrays(np.float64, (T, n), elements=finite)) for n in (n_x, n_u, n_x))
        for T in lengths
    ]
    return TrajectoryDataset.from_arrays(trajs, n_x=n_x, n_u=n_u)


@settings(max_examples=100, deadline=None)
@given(data=any_corpus())
def test_dataset_json_round_trip_is_bit_exact_property(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("round_trip") / "data.json"
    save_dataset(data, path)
    back = load_dataset(path)
    assert (back.n_x, back.n_u) == (data.n_x, data.n_u)
    assert np.array_equal(back.offsets, data.offsets)
    for name in ("states", "inputs", "next_states"):
        assert getattr(back, name).tobytes() == getattr(data, name).tobytes()
