"""Dense/iterative linear algebra kernels against hand and scipy oracles."""

import numpy as np
import pytest
import scipy.linalg as sla

from lqrinfluence.errors import (
    DimensionMismatch,
    NoConvergence,
    NoStabilizingSolution,
    NotPositiveDefinite,
    UnstableClosedLoop,
)
from lqrinfluence import linalg
from lqrinfluence.linalg import (
    LinearOperator,
    cg_solve,
    cholesky_factor,
    dare_residual,
    expm,
    solve_dare,
    solve_dlyap,
    solve_spd,
    spectral_radius,
    symmetrize,
)


def random_spd(rng, n, scale=1.0):
    m = rng.normal(size=(n, n))
    return m @ m.T + scale * np.eye(n)


def random_stable(rng, n, radius=0.9):
    m = rng.normal(size=(n, n))
    return m * (radius / spectral_radius(m))


def test_symmetrize_is_exactly_symmetric():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(5, 5))
    s = symmetrize(m)
    assert np.array_equal(s, s.T)


def test_spectral_radius_diagonal():
    assert spectral_radius(np.diag([0.3, -0.7, 0.1])) == pytest.approx(0.7)


def test_cholesky_solve_hand_case():
    # A = [[4,2],[2,3]], b = [8,7]: inverse is [[3/8,-1/4],[-1/4,1/2]], x = (1.25, 1.5)
    factor = cholesky_factor(np.array([[4.0, 2.0], [2.0, 3.0]]))
    x = solve_spd(factor, np.array([8.0, 7.0]))
    assert np.allclose(x, [1.25, 1.5], atol=1e-14)


def test_cholesky_matches_numpy_on_random_spd():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = random_spd(rng, 6)
        b = rng.normal(size=6)
        x = solve_spd(cholesky_factor(a), b)
        assert np.allclose(a @ x, b, atol=1e-10 * np.linalg.norm(b))


def test_cholesky_rejects_indefinite():
    # LAPACK rejects these before any pivot is checked; a LinAlgError would escape pytest.raises
    for mat in (np.array([[1.0, 2.0], [2.0, 1.0]]), -np.eye(3), np.zeros((2, 2))):
        with pytest.raises(NotPositiveDefinite):
            cholesky_factor(mat)


def test_cholesky_rejects_near_singular():
    # pivot underflows the relative threshold
    with pytest.raises(NotPositiveDefinite):
        cholesky_factor(np.diag([1.0, 1e-18]))


def test_solve_spd_dimension_mismatch():
    factor = cholesky_factor(np.eye(3))
    with pytest.raises(DimensionMismatch):
        solve_spd(factor, np.ones(4))


def test_cg_matches_dense_solution():
    rng = np.random.default_rng(2)
    a = random_spd(rng, 12)
    b = rng.normal(size=12)
    x_dense = np.linalg.solve(a, b)
    x_cg = cg_solve(LinearOperator.from_matrix(a), b, tol=1e-12)
    assert np.allclose(x_cg, x_dense, atol=1e-9 * np.linalg.norm(x_dense))


def test_cg_zero_rhs_returns_zero():
    op = LinearOperator.from_matrix(np.eye(4))
    assert np.array_equal(cg_solve(op, np.zeros(4)), np.zeros(4))


def test_cg_raises_no_convergence_on_tiny_budget():
    rng = np.random.default_rng(3)
    a = random_spd(rng, 20, scale=0.01)
    b = rng.normal(size=20)
    with pytest.raises(NoConvergence) as err:
        cg_solve(LinearOperator.from_matrix(a), b, tol=1e-14, max_iter=2)
    assert err.value.residual > 0


def test_cg_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        cg_solve(LinearOperator.from_matrix(np.eye(3)), np.ones(5))


def test_dare_scalar_closed_form():
    # a=0.9, b=q=r=1: p^2 - 0.81 p - 1 = 0, positive root (0.81 + sqrt(4.6561))/2
    p_exact = (0.81 + np.sqrt(0.81**2 + 4.0)) / 2.0
    p = solve_dare(np.array([[0.9]]), np.array([[1.0]]), np.eye(1), np.eye(1))
    assert p[0, 0] == pytest.approx(p_exact, rel=1e-10)
    # fixed-point residual
    resid = p[0, 0] - (1.0 + 0.81 * p[0, 0] - (0.9 * p[0, 0]) ** 2 / (1.0 + p[0, 0]))
    assert abs(resid) <= 1e-12


def test_dare_decoupled_modes_have_identical_diagonal():
    # A = 0.5 I, B = I, Q = R = I decouples into identical scalar problems
    p = solve_dare(0.5 * np.eye(2), np.eye(2), np.eye(2), np.eye(2))
    assert p[0, 0] == pytest.approx(p[1, 1], rel=1e-12)
    assert abs(p[0, 1]) <= 1e-12


def test_dare_matches_scipy_on_random_systems():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n, m = 4, 2
        a = random_stable(rng, n, radius=0.95)
        b = rng.normal(size=(n, m))
        q = random_spd(rng, n, scale=0.1)
        r = random_spd(rng, m, scale=0.5)
        p = solve_dare(a, b, q, r)
        p_ref = sla.solve_discrete_are(a, b, q, r)
        assert np.linalg.norm(p - p_ref) <= 1e-12 * np.linalg.norm(p_ref)


def test_dare_open_loop_unstable_stabilizable_systems():
    # rho(A) up to 1.5 with a full-rank B: stabilizable, so a stabilizing P exists
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, n + 1))
        a = random_stable(rng, n, radius=rng.uniform(1.0, 1.5))
        b = rng.normal(size=(n, m))
        q = random_spd(rng, n, scale=0.1)
        r = random_spd(rng, m, scale=0.5)
        p = solve_dare(a, b, q, r)
        p_ref = sla.solve_discrete_are(a, b, q, r)
        # scipy's own error grows with cond(P); the residual is the sharper check
        assert np.linalg.norm(p - p_ref) <= 1e-10 * np.linalg.norm(p_ref)
        assert dare_residual(a, b, q, r, p) <= linalg._DARE_RESIDUAL_MAX
        gain = np.linalg.solve(r + b.T @ p @ b, b.T @ p @ a)
        assert spectral_radius(a - b @ gain) < 1.0


def test_dare_certificate_rejects_inaccurate_solution(monkeypatch):
    # a doubling that stopped early: P off by 1e-6 relative still has a stable
    # closed loop, so only the residual certificate can reject it
    a, b, q, r = 0.5 * np.eye(2), np.eye(2), np.eye(2), np.eye(2)
    p = solve_dare(a, b, q, r)
    assert dare_residual(a, b, q, r, p) <= 1e-15
    doubling = linalg._doubling
    monkeypatch.setattr(linalg, "_doubling", lambda *args: doubling(*args) * (1 + 1e-6))
    with pytest.raises(NoStabilizingSolution, match="residual"):
        solve_dare(a, b, q, r)


def test_dare_unstabilizable_raises():
    # unstable mode with no control authority: the doubling diverges
    with pytest.raises(NoStabilizingSolution, match="diverged"):
        solve_dare(np.array([[2.0]]), np.array([[0.0]]), np.eye(1), np.eye(1))


def test_dare_marginal_mode_without_control_raises():
    # a unit-circle mode no input reaches: no doubling count converges
    with pytest.raises(NoStabilizingSolution):
        solve_dare(np.eye(1), np.array([[0.0]]), np.eye(1), np.eye(1))


def test_dare_rejects_semidefinite_r():
    with pytest.raises(NotPositiveDefinite):
        solve_dare(np.eye(2) * 0.5, np.eye(2), np.eye(2), np.zeros((2, 2)))


def test_dlyap_scalar_closed_form():
    # a=0.5, sigma=1: lambda = 1 / (1 - 0.25) = 4/3
    lam = solve_dlyap(np.array([[0.5]]), np.eye(1))
    assert lam[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_dlyap_matches_scipy():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = random_stable(rng, 4, radius=0.9)
        s = random_spd(rng, 4)
        x = solve_dlyap(a, s)
        x_ref = sla.solve_discrete_lyapunov(a, s)
        assert np.allclose(x, x_ref, atol=1e-9 * (1 + np.linalg.norm(x_ref)))


def test_dlyap_satisfies_equation():
    rng = np.random.default_rng(6)
    a = random_stable(rng, 5, radius=0.8)
    s = random_spd(rng, 5)
    x = solve_dlyap(a, s)
    assert np.allclose(x - a @ x @ a.T, s, atol=1e-11)


def test_dlyap_rejects_unstable():
    with pytest.raises(UnstableClosedLoop):
        solve_dlyap(np.array([[1.01]]), np.eye(1))


def test_dare_dimension_checks():
    with pytest.raises(DimensionMismatch):
        solve_dare(np.eye(2), np.ones((3, 1)), np.eye(2), np.eye(1))
    with pytest.raises(DimensionMismatch):
        solve_dare(np.eye(2), np.ones((2, 1)), np.eye(3), np.eye(1))


def test_expm_matches_scipy_on_random_matrices():
    # 1-norms from 1e-3 to 1e3; spectral abscissa 0 keeps exp(m) bounded. Past
    # unit norm both sides scale and square, each with a forward error growing
    # like u ||m||_1 (the conditioning of exp), so the bound grows with the norm
    rng = np.random.default_rng(11)
    for norm in np.logspace(-3, 3, 25):
        for n in range(2, 7):
            m = rng.normal(size=(n, n))
            m -= np.linalg.eigvals(m).real.max() * np.eye(n)
            m *= norm / np.abs(m).sum(axis=0).max()
            bound = 1e-15 if norm <= 1.0 else 1e-14 * norm
            ref = sla.expm(m)
            assert np.linalg.norm(expm(m) - ref) <= bound * np.linalg.norm(ref), (norm, n)
