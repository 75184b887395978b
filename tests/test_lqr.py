"""Cost gradients against finite-difference oracles; stationary-cost identity."""

import numpy as np
import pytest

from lqrinfluence.errors import UnstableClosedLoop
from lqrinfluence.linalg import gain_and_closed_loop, solve_dare, solve_dlyap, spectral_radius
from lqrinfluence.lqr import (
    residual_channel_gradient,
    riccati_artifacts,
    riccati_gradient,
)
from lqrinfluence.sysid import TrajectoryDataset, fit_ridge, theta_to_ab


def random_system(rng, n_x, n_u, radius=0.85):
    A = rng.normal(size=(n_x, n_x))
    A *= radius / spectral_radius(A)
    B = rng.normal(size=(n_x, n_u))
    return A, B


def random_psd(rng, n, scale=1.0):
    m = rng.normal(size=(n, n))
    return m @ m.T / n + scale * np.eye(n)


def riccati_cost(theta, n_x, n_u, Q, R, Sigma):
    A, B = theta_to_ab(theta, n_x, n_u)
    return np.trace(solve_dare(A, B, Q, R) @ Sigma)


def make_fit(rng, A, B, n_traj=6, T=10, noise=0.1, lam=1e-3):
    n_x, n_u = A.shape[0], B.shape[1]
    triples = []
    for _ in range(n_traj):
        x = rng.normal(size=n_x)
        X, U, Xn = [], [], []
        for _ in range(T):
            u = rng.normal(size=n_u)
            xn = A @ x + B @ u + noise * rng.normal(size=n_x)
            X.append(x), U.append(u), Xn.append(xn)
            x = xn
        triples.append((np.array(X), np.array(U), np.array(Xn)))
    return fit_ridge(TrajectoryDataset.from_arrays(triples), lam)


def w_hat_at(fit, theta):
    E = fit.data.next_states - fit.data.Z @ theta.reshape(fit.q, fit.n_x)
    return E.T @ E / fit.M


def test_riccati_gradient_scalar_fd():
    a, b = 0.9, 1.0
    Q = R = Sigma = np.eye(1)
    A, B = np.array([[a]]), np.array([[b]])
    P0 = solve_dare(A, B, Q, R)
    K0, A_cl = gain_and_closed_loop(A, B, P0, R)
    zeta = riccati_gradient(P0, K0, A_cl, Sigma)
    theta = np.array([a, b])
    eps = 1e-6
    for i in range(2):
        d = np.zeros(2)
        d[i] = 1.0
        fd = (
            riccati_cost(theta + eps * d, 1, 1, Q, R, Sigma)
            - riccati_cost(theta - eps * d, 1, 1, Q, R, Sigma)
        ) / (2 * eps)
        assert zeta[i] == pytest.approx(fd, rel=1e-6)


def test_riccati_gradient_fd_random_directions():
    rng = np.random.default_rng(0)
    A, B = random_system(rng, 3, 2)
    Q, R = random_psd(rng, 3, 0.5), random_psd(rng, 2, 0.5)
    Sigma = random_psd(rng, 3)
    P0 = solve_dare(A, B, Q, R)
    K0, A_cl = gain_and_closed_loop(A, B, P0, R)
    zeta = riccati_gradient(P0, K0, A_cl, Sigma)
    theta = np.hstack([A, B]).ravel(order="F")
    eps = 1e-6 * (1 + np.abs(theta).max())
    for _ in range(20):
        d = rng.normal(size=theta.size)
        d /= np.linalg.norm(d)
        fd = (
            riccati_cost(theta + eps * d, 3, 2, Q, R, Sigma)
            - riccati_cost(theta - eps * d, 3, 2, Q, R, Sigma)
        ) / (2 * eps)
        assert zeta @ d == pytest.approx(fd, rel=1e-5)


def test_riccati_gradient_zero_sigma():
    rng = np.random.default_rng(1)
    A, B = random_system(rng, 3, 1)
    P0 = solve_dare(A, B, np.eye(3), np.eye(1))
    K0, A_cl = gain_and_closed_loop(A, B, P0, np.eye(1))
    assert np.array_equal(
        riccati_gradient(P0, K0, A_cl, np.zeros((3, 3))), np.zeros(12)
    )


def test_riccati_gradient_linear_in_sigma():
    rng = np.random.default_rng(2)
    A, B = random_system(rng, 3, 2)
    P0 = solve_dare(A, B, np.eye(3), np.eye(2))
    K0, A_cl = gain_and_closed_loop(A, B, P0, np.eye(2))
    s1, s2 = random_psd(rng, 3), random_psd(rng, 3)
    z1 = riccati_gradient(P0, K0, A_cl, s1)
    z2 = riccati_gradient(P0, K0, A_cl, s2)
    z12 = riccati_gradient(P0, K0, A_cl, 2.0 * s1 + 0.5 * s2)
    assert np.allclose(z12, 2.0 * z1 + 0.5 * z2, atol=1e-10 * (1 + np.abs(z12).max()))


def test_riccati_gradient_rejects_unstable_loop():
    with pytest.raises(UnstableClosedLoop):
        riccati_gradient(np.eye(2), np.zeros((2, 2)), 1.1 * np.eye(2), np.eye(2))


def test_residual_channel_gradient_fd():
    rng = np.random.default_rng(3)
    A, B = random_system(rng, 2, 1)
    fit = make_fit(rng, A, B)
    P0 = solve_dare(fit.A, fit.B, np.eye(2), np.eye(1))
    h = residual_channel_gradient(fit, P0)
    eps = 1e-6
    for _ in range(10):
        d = rng.normal(size=fit.p)
        d /= np.linalg.norm(d)
        fd = (
            np.trace(P0 @ w_hat_at(fit, fit.theta + eps * d))
            - np.trace(P0 @ w_hat_at(fit, fit.theta - eps * d))
        ) / (2 * eps)
        # sign convention: grad of Tr(P0 W_hat(theta)) is -h
        assert -h @ d == pytest.approx(fd, rel=1e-7, abs=1e-12)


def test_residual_channel_gradient_trivial_cases():
    rng = np.random.default_rng(4)
    A, B = random_system(rng, 2, 1)
    fit = make_fit(rng, A, B, noise=0.0, lam=0.0)
    # exact interpolation: residuals vanish
    assert np.allclose(residual_channel_gradient(fit, np.eye(2)), 0.0, atol=1e-12)
    fit2 = make_fit(rng, A, B)
    assert np.array_equal(residual_channel_gradient(fit2, np.zeros((2, 2))), np.zeros(fit2.p))


def test_residual_channel_at_optimum_is_ridge_scaled():
    # at the ridge optimum (1/M) Z^T E = lam Theta, so h = 2 lam vec(Theta P0)
    rng = np.random.default_rng(5)
    A, B = random_system(rng, 2, 2)
    fit = make_fit(rng, A, B, lam=1e-3)
    P0 = solve_dare(fit.A, fit.B, np.eye(2), np.eye(2))
    h = residual_channel_gradient(fit, P0)
    expected = 2.0 * fit.lam * (fit.theta.reshape(fit.q, fit.n_x) @ P0).ravel()
    assert np.allclose(h, expected, atol=1e-10 * (1 + np.abs(h).max()))


def test_composite_gradient_fd():
    # theta -> Tr(P(theta) W_hat(theta)) has gradient zeta - h
    rng = np.random.default_rng(6)
    A, B = random_system(rng, 2, 1)
    fit = make_fit(rng, A, B)
    Q, R = np.eye(2), np.eye(1)
    art = riccati_artifacts(fit, Q, R)

    def composite(theta):
        Ai, Bi = theta_to_ab(theta, 2, 1)
        return float(np.trace(solve_dare(Ai, Bi, Q, R) @ w_hat_at(fit, theta)))

    eps = 1e-6
    for _ in range(10):
        d = rng.normal(size=fit.p)
        d /= np.linalg.norm(d)
        fd = (composite(fit.theta + eps * d) - composite(fit.theta - eps * d)) / (2 * eps)
        assert (art.zeta - art.h) @ d == pytest.approx(fd, rel=1e-5, abs=1e-10)


def test_artifacts_fields_consistent():
    rng = np.random.default_rng(7)
    A, B = random_system(rng, 3, 2)
    fit = make_fit(rng, A, B)
    Q, R = np.eye(3), np.eye(2)
    art = riccati_artifacts(fit, Q, R)
    # zeta at the plug-in covariance
    zeta = riccati_gradient(art.P0, art.K0, art.A_cl, fit.W_hat)
    assert np.array_equal(art.zeta, zeta)
    # gain reproduction
    K0 = np.linalg.solve(R + fit.B.T @ art.P0 @ fit.B, fit.B.T @ art.P0 @ fit.A)
    assert np.allclose(art.K0, K0, atol=1e-10)
    assert np.allclose(art.A_cl, fit.A - fit.B @ art.K0, atol=1e-14)
    assert spectral_radius(art.A_cl) < 1.0
    assert np.allclose(art.P0, art.P0.T, atol=0)
    # amortized solves, checked against the dense Hessian (G + lam I) kron I_nx
    H = np.kron(fit.gram + fit.lam * np.eye(fit.q), np.eye(fit.n_x))
    assert np.allclose(H @ art.v_fixed, art.zeta, atol=1e-9)
    assert np.allclose(H @ art.v_stoch, art.zeta - art.h, atol=1e-9)
    # the weights it was built with, kept apart from the caller's arrays
    assert np.array_equal(art.Q, Q) and np.array_equal(art.R, R)
    Q *= 2.0
    assert np.array_equal(art.Q, np.eye(3))


def stationary_cost_check(A, B, Q, R, W):
    # two routes to the stationary cost: Tr((Q + K0'R K0) Sigma_ss) and Tr(P0 W),
    # Sigma_ss the closed loop's stationary covariance under noise W; their
    # equality checks the DARE and Lyapunov solvers together
    P0 = solve_dare(A, B, Q, R)
    K0, A_cl = gain_and_closed_loop(A, B, P0, R)
    Sigma_ss = solve_dlyap(A_cl, np.asarray(W, dtype=float))
    return float(np.trace((Q + K0.T @ R @ K0) @ Sigma_ss)), float(np.trace(P0 @ W))


def test_stationary_cost_identity_scalar():
    lhs, rhs = stationary_cost_check(
        np.array([[0.9]]), np.array([[1.0]]), np.eye(1), np.eye(1), np.eye(1)
    )
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_stationary_cost_identity_random():
    rng = np.random.default_rng(10)
    for _ in range(5):
        A, B = random_system(rng, 3, 2)
        W = random_psd(rng, 3)
        lhs, rhs = stationary_cost_check(A, B, np.eye(3), np.eye(2), W)
        assert abs(lhs - rhs) <= 1e-9 * (1 + abs(rhs))


def test_stationary_cost_zero_noise():
    lhs, rhs = stationary_cost_check(
        np.array([[0.5]]), np.array([[1.0]]), np.eye(1), np.eye(1), np.zeros((1, 1))
    )
    assert lhs == 0.0 and rhs == 0.0
