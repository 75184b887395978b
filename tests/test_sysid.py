"""Ridge trajectory fits: recovery, stationarity, gradients, exact removal."""

import dataclasses
import json
import os
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lqrinfluence import datafile, sysid
from lqrinfluence.bench import (GenerationConfig, generate_dataset, residual_lag1_autocorr,
                                 system_spec)
from lqrinfluence.errors import (
    DimensionMismatch,
    InvalidConfig,
    NotPositiveDefinite,
    SingleTrajectory,
)
from lqrinfluence.linalg import cholesky_factor, solve_spd, symmetrize
from lqrinfluence.lqr import residual_channel_gradient
from lqrinfluence.sysid import (
    TrajectoryDataset,
    covariance_direct_term,
    eta,
    eta_dot,
    fit_ridge,
    load_dataset,
    loto_refit,
    model_influence,
    save_dataset,
    theta_to_ab,
)


def ab_to_theta(A, B):
    # theta = vec([A B]), column-major: the inverse of theta_to_ab
    return np.hstack([A, B]).ravel(order="F")


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


def build_regressor(x, u):
    """Per-step regressor Phi = z^T kron I_nx with z = (x; u), so Phi theta = A x + B u."""
    z = np.concatenate([np.asarray(x, float).ravel(), np.asarray(u, float).ravel()])
    return np.kron(z[None, :], np.eye(np.asarray(x).size))


def per_slice_statistics(data, E):
    """fit_ridge's former loop over trajectory slices, kept verbatim as the
    oracle of its per-trajectory Gram stack: (traj_gram, g, per_traj_cov, W_hat)."""
    Z = data.Z
    M = data.M
    n_x, q = data.n_x, data.n_x + data.n_u
    N = data.N
    per_traj_cov = np.empty((N, n_x, n_x))
    g = np.empty((N, q * n_x))
    traj_gram = np.empty((N, q, q))
    cov_sum = np.zeros((n_x, n_x))
    for k in range(N):
        sl = data.traj_slice(k)
        Ek, Zk = E[sl], Z[sl]
        Ck = symmetrize(Ek.T @ Ek)
        cov_sum += Ck
        per_traj_cov[k] = Ck / data.lengths[k]
        g[k] = -(Zk.T @ Ek).ravel() / M
        traj_gram[k] = Zk.T @ Zk
    W_hat = cov_sum / M
    return traj_gram, g, per_traj_cov, W_hat


def stationarity_residual(fit):
    """Norm of the ridge optimality condition -(1/M) sum Phi^T e + lam theta."""
    grad = -(fit.data.Z.T @ fit.residuals).ravel() / fit.M + fit.lam * fit.theta
    return float(np.linalg.norm(grad))


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
    # the Gram-structured Hessian (G + lam I) kron I_nx equals the materialized one
    v = np.random.default_rng(4).normal(size=p)
    kron = np.kron(fit.gram + lam * np.eye(fit.q), np.eye(fit.n_x))
    assert np.allclose(kron @ v, H @ v, atol=1e-12)


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
    assert np.allclose(fit.g[0], -fit.lam * fit.theta, atol=1e-14)


def test_eta_scaling_cases():
    rng = np.random.default_rng(9)
    # two equal-length trajectories, lam = 0: eta_k = 2 g_k
    data = TrajectoryDataset.from_arrays(
        [simulate_linear(rng, A0, B0, 8) for _ in range(2)]
    )
    fit = fit_ridge(data, 0.0)
    assert np.allclose(eta(fit)[0], 2.0 * fit.g[0], atol=1e-14)


def test_eta_dominant_trajectory():
    rng = np.random.default_rng(10)
    data = TrajectoryDataset.from_arrays([simulate_linear(rng, A0, B0, 10)])
    fit = fit_ridge(data, 1e-3)
    with pytest.raises(SingleTrajectory):
        eta(fit)


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
    assert np.allclose(covariance_direct_term(fit)[k], expected, atol=1e-15)


def test_loto_gradient_identity():
    # gradient of the held-in loss at theta_hat equals -(M/M_k) g_k - (T_k/M_k) lam theta
    rng = np.random.default_rng(13)
    data = make_dataset(rng, A0, B0)
    fit = fit_ridge(data, 1e-3)
    every = eta(fit)
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
        assert np.allclose(grad_direct, -every[k], atol=1e-11)


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
    if_m = model_influence(fit)[k]
    # agreement to O(1/M) relative
    assert np.linalg.norm(if_m - delta) <= 10.0 / M * np.linalg.norm(delta)


def test_loto_refit_matches_full_fit_on_remaining():
    rng = np.random.default_rng(16)
    data = make_dataset(rng, A0, B0, n_traj=6)
    lam = 1e-3
    k = 3
    theta, W = loto_refit(fit_ridge(data, lam))
    assert theta.shape == (data.N, 6) and W.shape == (data.N, 2, 2)
    theta_k, W_k = theta[k], W[k]
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


def retained_covariance_magnitudes(data, j, thetas):
    """Entry by entry, the size of the terms any formula for the residual
    covariance without trajectory j adds up: with a_s = |x_s+| + |z_s|^T
    sum_theta |Theta|, sum over retained s of a_s a_s^T / (M - T_j). Each
    retained residual, and each cross or quadratic term in the parameter
    shift between the thetas, is bounded by these products, so both
    loto_refit's downdate and a refit from the raw rows round off relative
    to them, however much the terms cancel."""
    keep = np.ones(data.M, dtype=bool)
    keep[data.traj_slice(j)] = False
    q = data.n_x + data.n_u
    bound = sum(np.abs(np.reshape(t, (q, data.n_x))) for t in thetas)
    a = np.abs(data.next_states[keep]) + np.abs(data.Z[keep]) @ bound
    return a.T @ a / keep.sum()


@settings(max_examples=60, deadline=None)
@given(removal_case())
def test_loto_refit_matches_fit_on_retained_property(case):
    data, k, lam, only_k_excited = case
    fit = fit_ridge(data, lam)
    theta, W = loto_refit(fit)
    for j in range(data.N):
        kept = [
            tuple(arr[data.traj_slice(i)] for arr in (data.states, data.inputs, data.next_states))
            for i in range(data.N)
            if i != j
        ]
        ref = fit_ridge(TrajectoryDataset.from_arrays(kept, n_x=data.n_x, n_u=data.n_u), lam)
        assert np.allclose(theta[j], ref.theta, rtol=0, atol=1e-12)
        mag = retained_covariance_magnitudes(data, j, (theta[j], fit.theta))
        assert np.all(np.abs(W[j] - ref.W_hat) <= 1e-14 * mag)
    if only_k_excited:
        # the retained data never move the input: B_k is exactly zero
        assert np.all(theta_to_ab(theta[k], data.n_x, data.n_u)[1] == 0.0)


def test_loto_refit_covariance_is_free_of_cancellation():
    # trajectory 0's residuals are 1e6 times the others', orthogonal to its
    # regressors so they do not pull the fit: without it, the covariance is
    # as accurate as the retained data allow, which a total-minus-own sum of
    # the statistics would lose to cancellation
    rng = np.random.default_rng(23)
    trajs = [simulate_linear(rng, A0, B0, T) for T in (12, 6, 9, 7)]
    X, U, Xn = trajs[0]
    Z0 = np.hstack([X, U])
    xi = rng.normal(size=Xn.shape)
    xi -= Z0 @ np.linalg.lstsq(Z0, xi, rcond=None)[0]
    trajs[0] = (X, U, Xn + 1e6 * xi)
    data = TrajectoryDataset.from_arrays(trajs)
    fit = fit_ridge(data, 1e-2)
    theta, W = loto_refit(fit)
    ref = fit_ridge(TrajectoryDataset.from_arrays(trajs[1:]), 1e-2)
    assert np.allclose(theta[0], ref.theta, rtol=0, atol=1e-12)
    mag = retained_covariance_magnitudes(data, 0, (theta[0], fit.theta))
    assert np.all(np.abs(W[0] - ref.W_hat) <= 1e-14 * mag)


def test_loto_refit_keeps_unexcited_input_exactly_zero():
    # only trajectory 0 carries input: without it no retained row moves B
    rng = np.random.default_rng(21)
    trajs = [simulate_linear(rng, A0, B0, T) for T in (9, 6, 11, 7)]
    trajs = [(X, U if j == 0 else np.zeros_like(U), Xn) for j, (X, U, Xn) in enumerate(trajs)]
    theta, _ = loto_refit(fit_ridge(TrajectoryDataset.from_arrays(trajs), 1e-2))
    B = [theta_to_ab(theta_k, 2, 1)[1] for theta_k in theta]
    assert np.all(B[0] == 0.0)
    assert all(np.all(B_k != 0.0) for B_k in B[1:])


def test_stacked_eta_and_hessian_solve_match_per_trajectory():
    rng = np.random.default_rng(22)
    fit = fit_ridge(make_dataset(rng, A0, B0, n_traj=7), 1e-2)
    every = eta(fit)
    solved = fit.hessian_solve(every)
    assert every.shape == solved.shape == (fit.N, fit.p)
    scale, frac = fit.removal_weights
    for k in range(fit.N):
        assert np.array_equal(every[k], scale[k] * fit.g[k] + (frac[k] * fit.lam) * fit.theta)
        one = fit.hessian_solve(every[k])
        assert np.linalg.norm(solved[k] - one) <= 1e-15 * np.linalg.norm(one)
    assert np.array_equal(model_influence(fit), solved)
    # the amortized dot products, against the formed directions
    v = rng.normal(size=fit.p)
    assert np.abs(eta_dot(fit, v) - every @ v).max() <= 1e-14 * (np.abs(every) @ np.abs(v)).max()


# the acceptance suite's corpus for each benchmark kind
BENCHMARK_GENERATION = {
    "dc_motor": GenerationConfig(50, 5, 40),
    "msd": GenerationConfig(50, 5, 40),
    "uav_hover": GenerationConfig(30, 20, 60),
    "uav_mission": GenerationConfig(30, 30, 60),
}


def benchmark_case(kind):
    """A removal_case-shaped input: the kind's benchmark corpus at seed 0, lam 1e-3."""
    return generate_dataset(system_spec(kind), BENCHMARK_GENERATION[kind]), 0, 1e-3, False


@settings(max_examples=60, deadline=None)
@given(removal_case(), st.integers(0, 2**32 - 1))
@example(benchmark_case("dc_motor"), 0)
@example(benchmark_case("msd"), 0)
@example(benchmark_case("uav_hover"), 0)
@example(benchmark_case("uav_mission"), 0)
def test_hessian_solve_matches_dense_kronecker_solve_property(case, seed):
    # H = (G + lam I) kron I_nx: one q x q solve with n_x right sides is H^-1 v
    data, _, lam, _ = case
    fit = fit_ridge(data, lam)
    v = np.random.default_rng(seed).normal(size=fit.p)
    dense = np.linalg.solve(np.kron(fit.gram + lam * np.eye(fit.q), np.eye(fit.n_x)), v)
    assert np.linalg.norm(fit.hessian_solve(v) - dense) <= 1e-12 * np.linalg.norm(dense)


@settings(max_examples=60, deadline=None)
@given(removal_case(), st.data())
def test_gram_stack_matches_per_slice_loop_property(case, draw):
    # length-1 trajectories included; input column `dead` is zero throughout
    data, _, lam, _ = case
    dead = draw.draw(st.integers(0, data.n_u - 1))
    rows = data.rows.copy()
    rows[:, data.n_x + dead] = 0.0
    data = dataclasses.replace(data, rows=rows)
    fit = fit_ridge(data, lam)
    E = fit.residuals
    traj_gram = fit.traj_stats[:, :fit.q, :fit.q]
    for new, old in zip((traj_gram, fit.g, fit.per_traj_cov, fit.W_hat),
                        per_slice_statistics(data, E)):
        assert new.shape == old.shape
        assert np.abs(new - old).max() <= 1e-14 * np.abs(old).max()
    Z = data.Z
    assert np.abs(fit.ZtE - Z.T @ E).max() <= 1e-14 * (np.abs(Z).T @ np.abs(E)).max()
    # no product with the dead column is anything but an exact zero
    col = data.n_x + dead
    assert np.all(traj_gram[:, col, :] == 0.0) and np.all(traj_gram[:, :, col] == 0.0)
    assert np.all(fit.g.reshape(fit.N, fit.q, fit.n_x)[:, col] == 0.0)
    assert np.all(fit.ZtE[col] == 0.0)
    # the residual channel read off Z^T E equals the pass over the M rows; at
    # the ridge optimum Z^T E / M = lam Theta is a small difference of larger
    # terms, so the round-off scale is that of the terms, not of h
    P0 = np.random.default_rng(fit.M).normal(size=(fit.n_x, fit.n_x))
    P0 = P0 @ P0.T
    rows = 2.0 / fit.M * (Z.T @ E @ P0).ravel()
    terms = 2.0 / fit.M * (np.abs(Z).T @ np.abs(E) @ np.abs(P0)).ravel()
    h = residual_channel_gradient(fit, P0)
    assert np.linalg.norm(h - rows) <= 1e-12 * np.linalg.norm(terms)


def hstack_fit(data, lam):
    """fit_ridge before the row block, kept as the bitwise oracle of its arrays: it
    stacked [X U X+] into a new block and took each trajectory's Gram on its rows."""
    M, N = data.M, data.N
    n_x, q = data.n_x, data.n_x + data.n_u
    blk = np.hstack([data.states, data.inputs, data.next_states])
    Z, E = blk[:, :q], blk[:, q:]
    gram = symmetrize(Z.T @ Z / M)
    gram_factor = cholesky_factor(gram + lam * np.eye(q))
    Theta = solve_spd(gram_factor, Z.T @ E / M)
    E -= Z @ Theta
    stats = np.empty((N, q + n_x, q + n_x))
    for k, (a, b) in enumerate(zip(data.offsets[:-1], data.offsets[1:])):
        np.matmul(blk[a:b].T, blk[a:b], out=stats[k])
    EE = stats[:, q:, q:]
    return {"theta": Theta.ravel(), "gram": gram, "gram_factor": gram_factor.L, "residuals": E,
            "W_hat": symmetrize(EE.sum(axis=0)) / M,
            "per_traj_cov": symmetrize(EE) / data.lengths[:, None, None],
            "g": np.divide(stats[:, :q, q:], -M).reshape(N, q * n_x), "traj_stats": stats,
            "ZtE": stats[:, :q, q:].sum(axis=0)}


def assert_fit_is_bitwise_the_oracle(data, lam):
    fit = fit_ridge(data, lam)
    for name, want in hstack_fit(data, lam).items():
        got = getattr(fit, name)
        got = got.L if name == "gram_factor" else got
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


def fit_case(lengths, n_x=3, n_u=2, dead=None, seed=0):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n_x, n_x))
    A *= 0.9 / np.abs(np.linalg.eigvals(A)).max()
    data = TrajectoryDataset.from_arrays(
        [simulate_linear(rng, A, rng.normal(size=(n_x, n_u)), T) for T in lengths])
    if dead is not None:
        data.inputs[:, dead] = 0.0
    return data


_R = sysid._FIT_ROWS


@pytest.mark.parametrize("lengths, dead", [
    ([1, 1, 3, 1, 2, 1], None),                       # length-1 trajectories
    ([5, 9, 4, 12, 7], 1),                            # a dead input column
    ([_R // 4] * 3, None),                            # M below the buffer's rows
    ([_R // 3 + 1] * 7 + [_R, 1, _R - 1], None),      # trajectories straddle refills
    ([5, _R + 37, 3, 2 * _R + 1, 10, _R], 0),         # trajectories longer than _FIT_ROWS
], ids=["length_1", "dead_input", "below_buffer", "straddle_refill", "longer_than_buffer"])
def test_fit_ridge_is_bitwise_the_hstack_fit(lengths, dead):
    data = fit_case(lengths, dead=dead)
    assert_fit_is_bitwise_the_oracle(data, 1e-2)
    if dead is not None:
        assert np.all(fit_ridge(data, 1e-2).traj_stats[:, data.n_x + dead] == 0.0)


@settings(max_examples=60, deadline=None)
@given(lengths=st.lists(st.integers(1, 9), min_size=1, max_size=8), buf_rows=st.integers(1, 12),
       lam=st.sampled_from([1e-2, 1.0]))
# a refill of one row: numpy takes a one-row product through gemv, which rounds unlike gemm
@example(lengths=[3, 1], buf_rows=3, lam=1e-2)
@example(lengths=[5, 1], buf_rows=5, lam=1.0)
@example(lengths=[1, 2], buf_rows=1, lam=1e-2)
def test_fit_ridge_is_bitwise_the_hstack_fit_at_any_buffer_size_property(lengths, buf_rows, lam):
    # every way whole trajectories fill, straddle and outgrow the work buffer
    with mock.patch.object(sysid, "_FIT_ROWS", buf_rows):
        assert_fit_is_bitwise_the_oracle(fit_case(lengths, seed=sum(lengths)), lam)


def logs_sized_data():
    # M = 10^4 transitions of a 20-state, 5-input system, as in the logs benchmark
    rng = np.random.default_rng(22)
    n_x, n_u, lengths = 20, 5, np.repeat([20, 50, 80], [100, 80, 50])
    data = TrajectoryDataset.from_arrays(
        [tuple(rng.normal(size=(T, n)) for n in (n_x, n_u, n_x)) for T in lengths])
    assert data.M == 10_000 and np.shares_memory(data.Z, data.rows)
    return data


def test_fit_ridge_holds_no_copy_of_the_data():
    data = logs_sized_data()
    fit_ridge(data, 1e-3)   # caches and lazy imports outside the measurement
    tracemalloc.start()
    try:
        fit = fit_ridge(data, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    q = data.n_x + data.n_u
    work = min(data.M, max(sysid._FIT_ROWS, data.lengths.max())) * (q + data.n_x) * 8
    # 256 KiB for the fit's small temporaries: an (M, n_x) residual array is 1.6 MB, an
    # (M, q) copy of Z 2 MB and an (N, p) gradient stack 0.9 MB
    assert peak <= fit.traj_stats.nbytes + work + (1 << 18)
    # nothing stored but traj_stats is per trajectory or per transition: the residuals,
    # g and W_bar_k are built on read from traj_stats and the data
    for field in dataclasses.fields(fit):
        value = getattr(fit, field.name)
        if field.name not in ("data", "traj_stats") and isinstance(value, np.ndarray):
            assert value.ndim == 0 or value.shape[0] not in (data.M, data.N), field.name
            assert not np.shares_memory(value, fit.traj_stats), field.name


def whole_array_autocorr(fit):
    # residual_lag1_autocorr as it read the stored (M, n_x) residual array
    norms = np.linalg.norm(fit.residuals, axis=1)
    offsets, T = fit.data.offsets, fit.lengths
    r = norms - np.repeat(np.add.reduceat(norms, offsets[:-1]) / T, T)
    pairs = np.ones(fit.M - 1, dtype=bool)
    pairs[offsets[1:-1] - 1] = False
    return float(np.corrcoef(r[:-1][pairs], r[1:][pairs])[0, 1])


def test_readers_of_the_statistics_block_match_the_stored_copies():
    # residual_norms is formed in _FIT_ROWS-row pieces, eta_dot contracts the Z_k^T E_k
    # blocks in place of the (N, p) gradient stack
    fit = fit_ridge(logs_sized_data(), 1e-3)
    norms = np.linalg.norm(fit.residuals, axis=1)
    assert np.all(np.abs(fit.residual_norms - norms) <= 1e-14 * norms)
    assert fit.residual_norms is fit.residual_norms   # formed once per fit
    v = np.random.default_rng(5).normal(size=fit.p)
    scale, frac = fit.removal_weights
    want = scale * (fit.g @ v) + frac * (fit.lam * fit.theta @ v)
    assert np.abs(eta_dot(fit, v) - want).max() <= 1e-14 * np.abs(want).max()
    assert abs(residual_lag1_autocorr(fit) - whole_array_autocorr(fit)) <= 1e-12


def test_loto_refit_is_computed_once_per_fit_and_read_only():
    fit = fit_ridge(make_dataset(np.random.default_rng(23), A0, B0, n_traj=9), 1e-2)
    theta, W = loto_refit(fit)
    again = loto_refit(fit)
    assert again[0] is theta and again[1] is W
    # a copy of the fit caches nothing: its refit is computed anew, bit for bit the same
    fresh = loto_refit(dataclasses.replace(fit))
    assert fresh[0] is not theta
    assert np.array_equal(fresh[0], theta) and np.array_equal(fresh[1], W)
    for arr in (theta, W):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_loto_refit_single_trajectory_raises():
    rng = np.random.default_rng(17)
    data = TrajectoryDataset.from_arrays([simulate_linear(rng, A0, B0, 10)])
    with pytest.raises(SingleTrajectory):
        loto_refit(fit_ridge(data, 1e-3))


def test_fit_lambda_zero_rank_deficient_raises():
    # two identical transitions cannot identify a 2-state model
    X = np.array([[1.0, 0.0], [1.0, 0.0]])
    U = np.zeros((2, 1))
    Xn = np.array([[0.5, 0.0], [0.5, 0.0]])
    data = TrajectoryDataset.from_arrays([(X, U, Xn)])
    with pytest.raises(NotPositiveDefinite):
        fit_ridge(data, 0.0)


def test_dataset_validation():
    # n_x = 2, n_u = 1: a row (x, u, x+) is 5 wide
    for rows, offsets in [(np.zeros((3, 4)), [0, 3]),      # wrong width
                          (np.zeros((3, 5)), [0, 2]),      # offsets short of M
                          (np.zeros((3, 5)), [0, 4]),      # offsets past M
                          (np.zeros((3, 5)), [1, 3]),      # offsets not from row 0
                          (np.zeros((3, 5)), [0, 3, 3])]:  # an empty trajectory
        with pytest.raises(DimensionMismatch):
            TrajectoryDataset(n_x=2, n_u=1, rows=rows, offsets=np.array(offsets))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite") as exc:
            TrajectoryDataset(n_x=1, n_u=1, rows=np.array([[bad, 0.0, 0.0]]),
                              offsets=np.array([0, 1]))
        assert not isinstance(exc.value, DimensionMismatch)
    # from_arrays checks each triple's shape itself: numpy would broadcast a column of
    # one, or raise its own ValueError, when it writes the triple into the block
    X, U = np.zeros((3, 2)), np.zeros((3, 1))
    for triple in [(X, np.zeros((3, 2)), X),        # wrong n_u
                   (X, np.zeros((3, 1)), X[:, :1]),  # x_next too narrow: would broadcast
                   (X, U, np.zeros((3, 3))),        # x_next too wide
                   (X, U[:2], X),                   # U shorter than X
                   (X, U, X[:2])]:                  # X_next shorter than X
        with pytest.raises(DimensionMismatch):
            TrajectoryDataset.from_arrays([(X, U, X), triple], n_x=2, n_u=1)


def test_dataset_arrays_are_views_of_one_row_block():
    rng = np.random.default_rng(21)
    data = make_dataset(rng, A0, B0, n_traj=3)
    assert data.rows.flags.c_contiguous and data.rows.shape == (data.M, 5)
    for name, cols in [("states", slice(0, 2)), ("inputs", slice(2, 3)),
                       ("next_states", slice(3, 5)), ("Z", slice(0, 3))]:
        view = getattr(data, name)
        assert view.base is data.rows and np.array_equal(view, data.rows[:, cols])
    # a block that is not C-contiguous, or not float, is stored as one that is
    wide = np.asfortranarray(rng.integers(0, 9, size=(data.M, 5)))
    other = TrajectoryDataset(2, 1, wide, data.offsets)
    assert other.rows.flags.c_contiguous and other.rows.dtype == float
    assert np.array_equal(other.rows, wide)


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


@pytest.mark.parametrize("key", ["n_x", "n_u"])
@pytest.mark.parametrize("value", [True, 1.0, "1", None, [1], 0, -1],
                         ids=["bool", "float", "string", "null", "list", "zero", "negative"])
def test_load_dataset_takes_positive_json_integer_dimensions(tmp_path, key, value):
    # int() read true, 1.0 and "1" as 1; the file must say 1
    path = tmp_path / "data.json"
    traj = (np.ones((3, 1)), np.ones((3, 1)), np.ones((3, 1)))
    save_dataset(TrajectoryDataset.from_arrays([traj, traj]), path)
    doc = json.loads(path.read_text())
    doc[key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidConfig, match=f"{key} must be"):
        load_dataset(path)


# a file in the earlier layout: %.17g floats, one trajectory per line
OLD_LAYOUT_DATASET = """\
{"n_x": 2, "n_u": 1, "trajectories": [
[{"x": [0.10000000000000001, -0.0], "u": [-2.5000000000000171e-310], "x_next": [-0.0, 2]}, \
{"x": [0.33333333333333331, 4.9406564584124654e-324], "u": [1e+308], \
"x_next": [0.69999999999999996, -1.0000000000000001e-05]}],
[{"x": [3, 1e-300], "u": [-0.0], "x_next": [2.2250738585072014e-308, -7]}]
]}
"""


def test_old_layout_dataset_loads_bit_exactly(tmp_path):
    path = tmp_path / "data.json"
    path.write_text(OLD_LAYOUT_DATASET)
    back = load_dataset(path)
    want = TrajectoryDataset.from_arrays([
        ([[0.1, -0.0], [1 / 3, 5e-324]], [[-2.5e-310], [1e308]], [[-0.0, 2.0], [0.7, -1e-5]]),
        ([[3.0, 1e-300]], [[-0.0]], [[2.2250738585072014e-308, -7.0]]),
    ])
    assert (back.n_x, back.n_u) == (2, 1) and np.array_equal(back.offsets, [0, 2, 3])
    for name in ("states", "inputs", "next_states"):   # tobytes tells -0.0 from 0.0
        assert getattr(back, name).tobytes() == getattr(want, name).tobytes()
    assert np.signbit(back.inputs[2, 0]) and back.states[1, 1] == 5e-324


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


@pytest.mark.parametrize("n_x, n_u, M, T, chunk", [
    (20, 5, 2200, 50, None), (2, 1, 4600, 50, None), (20, 5, 2200, 10, 1 << 15)],
    ids=["wide", "narrow", "file_over_8x_the_window"])
def test_load_dataset_peak_memory_is_the_arrays_and_a_window(tmp_path, monkeypatch, n_x, n_u,
                                                             M, T, chunk):
    # a whole-text read holds about twice the file; the window is six chunks at most (its
    # text, a piece read and their join), and trajectories of half a chunk keep the
    # lookahead inside it
    if chunk:
        monkeypatch.setattr(datafile, "_CHUNK", chunk)
    rng = np.random.default_rng(20)
    data = TrajectoryDataset.from_arrays(
        [tuple(rng.normal(size=(T, n)) for n in (n_x, n_u, n_x)) for _ in range(M // T)])
    path = tmp_path / "data.json"
    save_dataset(data, path)
    window = 6 * datafile._CHUNK
    if chunk:
        assert path.stat().st_size >= 8 * window
    tracemalloc.start()
    try:
        back = load_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.states.tobytes() == data.states.tobytes()
    arrays = data.rows.nbytes
    # the row block, grown a quarter and 256 rows at a time, and the window: no trajectory's
    # arrays outlive their writing into the block (they held as much again as the block)
    assert peak <= arrays * 5 // 4 + 256 * data.rows[0].nbytes + window


_JSON_PIECES = list('{}[],:" \n0123456789.-eE') + ["true", "null", "NaN", '"x"', '"u"',
                                                   '"trajectories"', "\ufeff", "\\", "\x01",
                                                   "é", "😀"]


def _outcome(path):
    """load_dataset's arrays as bytes, or its error message."""
    try:
        data = load_dataset(path)
    except InvalidConfig as exc:
        return str(exc)
    return [getattr(data, name).tobytes() for name in ("states", "inputs", "next_states",
                                                       "offsets")]


@settings(max_examples=300, deadline=None)
@given(n_x=st.integers(1, 2), rows=st.lists(st.integers(0, 2), max_size=3),
       order=st.permutations(["n_x", "n_u", "trajectories", "extra"]),
       indent=st.sampled_from([None, 2]), edits=st.lists(
           st.tuples(st.floats(0, 1), st.sampled_from(["delete", "insert", "replace", "cut"]),
                     st.sampled_from(_JSON_PIECES)), max_size=3))
def test_load_dataset_reads_any_text_as_json_loads_does_property(tmp_path_factory, n_x, rows,
                                                                 order, indent, edits):
    # the reader walks the top level and the trajectories array itself; a JSON error is
    # json.loads's own, at the same place, and valid JSON reads as its compact re-dump does
    row = {"x": [0.5] * n_x, "u": [1], "x_next": [-2.25] * n_x}
    members = {"n_x": n_x, "n_u": 1, "trajectories": [[row] * T for T in rows], "extra": [{}]}
    text = json.dumps({key: members[key] for key in order}, indent=indent)
    for where, edit, piece in edits:
        i = int(where * len(text))
        text = {"delete": text[:i] + text[i + 1:], "insert": text[:i] + piece + text[i:],
                "replace": text[:i] + piece + text[i + 1:], "cut": text[:i]}[edit]
    assert_reads_as_json_loads(tmp_path_factory.mktemp("text") / "data.json", text)


def assert_reads_as_json_loads(path, text):
    path.write_text(text, encoding="utf-8")
    try:
        doc = json.loads(text, object_pairs_hook=lambda pairs: pairs)
    except json.JSONDecodeError as exc:
        assert _outcome(path) == f"dataset {path} is not valid UTF-8 JSON: {exc}"
        return
    got = _outcome(path)
    keys = [key for key, _ in doc] if text.lstrip(" \t\n\r").startswith("{") else []
    repeats = [key for i, key in enumerate(keys) if key in keys[:i]]
    if repeats:   # named only once the whole document has parsed
        assert got == f"dataset {path} repeats the top-level member {repeats[0]!r}"
        return
    path.write_text(json.dumps(json.loads(text)), encoding="utf-8")
    assert got == _outcome(path)


@pytest.mark.parametrize("text, want", [
    ('{"n_x": 1, "n_x" 1}', "Expecting ':' delimiter: line 1 column 18 (char 17)"),
    ('{"n_x": 1, "n_x": 1, "n_u": 1, "trajectories": [[]]} x', "Extra data"),
    ('{"trajectories": [], "trajectories": [[{"x": [1]}], "n_x": 1', "Expecting ',' delimiter"),
    ('{"n_x": 1, "n_u": 1, "n_x": 2, "n_u": 3}', "repeats the top-level member 'n_x'"),
], ids=["json_error_after_repeat", "extra_data_after_repeat", "trajectories_repeated",
        "first_repeat_named"])
def test_load_dataset_names_a_repeated_member_only_if_the_document_parses(tmp_path, text, want):
    path = tmp_path / "data.json"
    assert_reads_as_json_loads(path, text)
    assert want in _outcome(path)


@pytest.mark.parametrize("text", [
    '\ufeff{"n_x": 1, "n_u": 1, "trajectories": []}', "\ufeff[1]", " \n[1, [2.5], {}] \n",
    '\t"n_x" ', "\n 2.5e+300 \n", "[1, 2] [3]", "[1,", "", "[" * 100_000,
], ids=["bom_object", "bom_array", "array", "string", "number", "extra_data_after_array",
        "cut_array", "empty", "too_deep"])
def test_load_dataset_reads_a_top_level_value_that_is_not_an_object(tmp_path, text):
    # every top-level value goes through the window: json's BOM error at char 0, its errors
    # in and after the value, and a value that is not an object reads as a malformed dataset
    path = tmp_path / "data.json"
    path.write_text(text, encoding="utf-8")
    assert _outcome_in_reads_of(path, 1) == _outcome(path)
    if text.startswith("[" * 100):   # deeper than json.loads recurses
        with pytest.raises(RecursionError) as exc:
            json.loads(text)
        assert _outcome(path) == f"dataset {path} is not valid UTF-8 JSON: {exc.value}"
    else:
        assert_reads_as_json_loads(path, text)


def _outcome_in_reads_of(path, chunk):
    """_outcome with the reader reading chunk bytes at a time."""
    with mock.patch.object(datafile, "_CHUNK", chunk):
        return _outcome(path)


# "\r\n" and "\r" read as "\n", as open() reads text: json.loads of the text as written would
# place an error elsewhere, so the oracle here is the file read whole
_WINDOW_PIECES = _JSON_PIECES + ["\r\n", "\r"]


@settings(max_examples=300, deadline=None)
@given(chunk=st.integers(1, 7), n_x=st.integers(1, 2),
       rows=st.lists(st.integers(0, 2), max_size=3),
       order=st.permutations(["n_x", "n_u", "trajectories", "extra", "scale"]),
       indent=st.sampled_from([None, 2]), edits=st.lists(
           st.tuples(st.floats(0, 1), st.sampled_from(["delete", "insert", "replace", "cut"]),
                     st.sampled_from(_WINDOW_PIECES)), max_size=3))
def test_load_dataset_reads_any_text_in_any_window_property(tmp_path_factory, chunk, n_x, rows,
                                                            order, indent, edits):
    # reads of 1-7 bytes split characters, "\r\n", names, numbers and trajectories across
    # the window's edge; every outcome is the one of the file read whole
    row = {"x": [0.5] * n_x, "u": [1], "x_next": [-2.25] * n_x}
    # a top-level number may end, or seem to, at the window's edge: 2.5e+300 cut after "e+"
    members = {"n_x": n_x, "n_u": 1, "trajectories": [[row] * T for T in rows], "extra": [{}],
               "scale": 2.5e300}
    text = json.dumps({key: members[key] for key in order}, indent=indent)
    for where, edit, piece in edits:
        i = int(where * len(text))
        text = {"delete": text[:i] + text[i + 1:], "insert": text[:i] + piece + text[i:],
                "replace": text[:i] + piece + text[i + 1:], "cut": text[:i]}[edit]
    path = tmp_path_factory.mktemp("window") / "data.json"
    path.write_bytes(text.encode("utf-8"))
    whole = _outcome_in_reads_of(path, path.stat().st_size + 1)
    assert _outcome_in_reads_of(path, chunk) == whole


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
@pytest.mark.parametrize("chunk", [1, 2, 5, None])
def test_load_dataset_places_a_json_error_as_a_text_mode_read_does(tmp_path, newline, chunk):
    # universal newlines: the char, line and column of json.loads on the text open() reads
    path = tmp_path / "data.json"
    doc = {"n_x": 1, "n_u": 1, "trajectories": [[{"x": [1.0], "u": [2.0], "x_next": [3.0]}]]}
    path.write_bytes(json.dumps(doc, indent=2).replace("\n", newline)[:-3].encode() + b"]x}")
    with pytest.raises(json.JSONDecodeError) as exc:
        json.loads(path.read_text(encoding="utf-8"))
    assert "line 1 " not in str(exc.value)
    got = _outcome_in_reads_of(path, chunk or datafile._CHUNK)
    assert got == f"dataset {path} is not valid UTF-8 JSON: {exc.value}"


def _long_dataset_text() -> bytes:
    """A valid dataset of about 1.3 MB: more than a pipe's buffer and one read of the reader."""
    rng = np.random.default_rng(22)
    trajs = [[{"x": rng.normal(size=3).tolist(), "u": [float(rng.normal())],
               "x_next": rng.normal(size=3).tolist()} for _ in range(40)] for _ in range(200)]
    data = json.dumps({"n_x": 3, "n_u": 1, "trajectories": trajs}).encode()
    assert len(data) > datafile._CHUNK + 200_000
    return data


def _utf8_outcome(path) -> str:
    """load_dataset's message for the UTF-8 error a whole-file text read of path meets."""
    with pytest.raises(UnicodeDecodeError) as exc:
        path.read_text(encoding="utf-8")
    return f"dataset {path} is not valid UTF-8 JSON: {exc.value}"


@pytest.mark.parametrize("where", ["first_read", "later", "end"])
@pytest.mark.parametrize("bad", [b"\xff", b"\xe2\x82(", b"\xf0\x9f\x98"],
                         ids=["start_byte", "continuation", "truncated"])
@pytest.mark.parametrize("chunk", [3, None])
def test_load_dataset_names_a_utf8_error_by_its_offset_in_the_file(tmp_path, monkeypatch, chunk,
                                                                   bad, where):
    # each read is decoded on its own, and the decoder counts an error's place from the
    # first byte it was handed; the message names the offset in the file, as a whole read does
    data = _long_dataset_text()
    where = {"first_read": 100019, "later": datafile._CHUNK + 100019, "end": len(data)}[where]
    if chunk:
        monkeypatch.setattr(datafile, "_CHUNK", chunk)
    path = tmp_path / "data.json"
    path.write_bytes(data[:where] + bad + data[where:])
    want = _utf8_outcome(path)
    assert f" {where}" in want
    assert _outcome(path) == want


@pytest.mark.parametrize("edit", [(b", ", b" ; "), (b'"n_u"', b'"n_x"'), (b"]]}", b"]]} x"),
                                  (b"[[", b"[[" + b"[" * 100_000)],
                         ids=["json_error", "repeated_member", "extra_data", "too_deep"])
def test_load_dataset_puts_a_utf8_error_before_every_other_error(tmp_path, edit):
    # a whole-file read decodes every byte before it parses: a UTF-8 error at the file's
    # end, more than a read past the text, comes before every error in the text
    path = tmp_path / "data.json"
    pad = b" " * (datafile._CHUNK + 1)
    path.write_bytes(_long_dataset_text().replace(*edit, 1) + pad + b"\xff")
    assert _outcome(path) == _utf8_outcome(path)


def _outcome_through_pipe(data: bytes, path):
    """_outcome of a /dev/fd path of a pipe a thread feeds data into, the path named as path."""
    read_end, write_end = os.pipe()

    def feed():
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(write_end, view):]
        except BrokenPipeError:   # the reader stopped at a UTF-8 error
            pass
        finally:
            os.close(write_end)

    feeder = threading.Thread(target=feed)
    feeder.start()
    try:
        fd_path = f"/dev/fd/{read_end}"
        got = _outcome(fd_path)
    finally:
        os.close(read_end)
        feeder.join(timeout=60)
    assert not feeder.is_alive()
    return got.replace(fd_path, str(path)) if isinstance(got, str) else got


@pytest.mark.parametrize("edit", [None, (b", ", b" ; "), (b"]]}", b"]]"), (b"[[", b"[[\xff")],
                         ids=["valid", "json_error", "cut", "utf8_error"])
def test_load_dataset_reads_a_pipe_as_a_file(tmp_path, edit):
    # the file is opened once and read front to back, never sought or reopened
    data = _long_dataset_text()
    if edit:
        data = data.replace(*edit, 1)
    path = tmp_path / "data.json"
    path.write_bytes(data)
    want = _outcome(path)
    assert isinstance(want, list) == (edit is None)
    assert _outcome_through_pipe(data, path) == want


def checked_one_by_one(doc, path):
    """load_dataset's outcome as it checked trajectories before the row block: each
    converted, then its shapes held against the declared n_x, n_u, one after another."""
    n_x, n_u = doc["n_x"], doc["n_u"]
    triples = []
    for k, traj in enumerate(doc["trajectories"]):
        try:
            triples.append(datafile.trajectory_arrays(traj, k, path))
        except InvalidConfig as exc:
            return str(exc)
        X, U, Xn = triples[-1]
        if X.shape != (len(X), n_x) or Xn.shape != (len(X), n_x) or U.shape != (len(X), n_u):
            return f"trajectory {k} in {path} disagrees with declared n_x={n_x}, n_u={n_u}"
    data = TrajectoryDataset.from_arrays(triples, n_x=n_x, n_u=n_u)
    return [getattr(data, name).tobytes() for name in ("states", "inputs", "next_states",
                                                       "offsets")]


@st.composite
def trajectory_docs(draw):
    """A dataset document whose trajectories may have other widths than declared, no rows,
    or one row edited into a conversion error."""
    n_x, n_u = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    trajs = []
    for _ in range(draw(st.integers(1, 4))):
        wx = draw(st.sampled_from([n_x] * 5 + [n_x + 1]))
        wu = draw(st.sampled_from([n_u] * 5 + [0]))
        rows = [{"x": [0.5] * wx, "u": [1] * wu, "x_next": [-2.25] * wx}
                for _ in range(draw(st.sampled_from([1, 2, 3] * 3 + [0])))]
        edit = draw(st.sampled_from([None] * 12 + ["x", "u", "x_next", "key"]))
        if rows and edit:
            row = rows[draw(st.integers(0, len(rows) - 1))]
            if edit == "key":
                del row["u"]
            else:
                row[edit] = draw(st.sampled_from([1.5, ["a"], [], [0.5] * 3]))
        trajs.append(rows)
    return {"n_x": n_x, "n_u": n_u, "trajectories": trajs}


@settings(max_examples=300, deadline=None)
@given(doc=trajectory_docs())
def test_load_dataset_meets_errors_in_trajectory_order_property(tmp_path_factory, doc):
    # the reader stops writing at the first trajectory that does not fit the block and
    # holds the declared sizes against the block only at the end; the error it reports
    # is still the first one a check of each trajectory in turn meets
    path = tmp_path_factory.mktemp("order") / "data.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert _outcome(path) == checked_one_by_one(doc, path)


def test_load_dataset_decodes_each_trajectory_of_a_well_formed_file_once(tmp_path, monkeypatch):
    # the window holds twice the largest trajectory yet past the next one's start: in a file
    # of many reads, none whose size is within twice the ones before it meets the window's
    # end, so none is decoded a second time
    monkeypatch.setattr(datafile, "_CHUNK", 4096)
    rng = np.random.default_rng(23)
    data = TrajectoryDataset.from_arrays([tuple(rng.normal(size=(T, n)) for n in (3, 1, 3))
                                          for T in rng.integers(5, 8, size=60)])
    path = tmp_path / "data.json"
    save_dataset(data, path)
    assert path.stat().st_size > 8 * datafile._CHUNK
    calls = []

    class Counting(json.JSONDecoder):
        def raw_decode(self, s, idx=0):
            calls.append(idx)
            return super().raw_decode(s, idx)

    monkeypatch.setattr(datafile, "_DECODER", Counting())
    back = load_dataset(path)
    assert back.states.tobytes() == data.states.tobytes()
    assert len(calls) == 2 + data.N   # n_x, n_u and every trajectory, once each


@settings(max_examples=50, deadline=None)
@given(data=any_corpus())
def test_save_dataset_writes_json_dumps_of_the_whole_document_property(tmp_path_factory, data):
    # one trajectory at a time, byte for byte the document dumped whole
    rows = [{"x": x, "u": u, "x_next": xn} for x, u, xn in
            zip(data.states.tolist(), data.inputs.tolist(), data.next_states.tolist())]
    bounds = data.offsets.tolist()
    doc = {"n_x": data.n_x, "n_u": data.n_u,
           "trajectories": [rows[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]}
    path = tmp_path_factory.mktemp("save") / "data.json"
    save_dataset(data, path)
    assert path.read_bytes() == json.dumps(doc).encode()
