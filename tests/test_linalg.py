"""Dense linear algebra kernels against hand and scipy oracles."""

import numpy as np
import pytest
import scipy.linalg as sla

from lqrinfluence.bench import GenerationConfig, generate_dataset, system_spec
from lqrinfluence.errors import (
    DimensionMismatch,
    NoConvergence,
    NoStabilizingSolution,
    NotPositiveDefinite,
    UnstableClosedLoop,
)
from lqrinfluence import linalg
from lqrinfluence.linalg import (
    cholesky_factor,
    dare_residual,
    expm,
    solve_dare,
    solve_dlyap,
    solve_spd,
    spectral_radius,
    symmetrize,
)
from lqrinfluence.sysid import fit_ridge, loto_refit, theta_to_ab


def random_spd(rng, n, scale=1.0):
    m = rng.normal(size=(n, n))
    return m @ m.T + scale * np.eye(n)


def random_stable(rng, n, radius=0.9):
    m = rng.normal(size=(n, n))
    return m * (radius / spectral_radius(m))


def max_abs(mat):
    return float(np.abs(mat).max(initial=0.0))


def oracle_doubling(A, G, H):
    """The doubling as written before its buffers: a fresh array per step, five maxima."""
    n = A.shape[0]
    eye = np.eye(n)
    for k in range(linalg._DOUBLING_MAX):
        X = np.linalg.solve(eye + G @ H, np.hstack([A, G]))
        step = symmetrize(A.T @ H @ X[:, :n])
        G = symmetrize(G + A @ X[:, n:] @ A.T)
        A = A @ X[:, :n]
        H = H + step
        size = max(max_abs(A), max_abs(G), max_abs(H))
        if not size <= linalg._DOUBLING_BOUND:
            raise NoStabilizingSolution(
                f"riccati doubling diverged: iterate entries reached {size:.3e} "
                f"after {k + 1} doublings"
            )
        if max_abs(step) <= np.finfo(float).eps * max_abs(H):
            return H
    raise NoStabilizingSolution(
        f"riccati doubling did not converge in {linalg._DOUBLING_MAX} doublings")


def oracle_solve_dare(A, B, Q, R):
    """solve_dare as written before the shared certificate solve, on valid input."""
    L_inv_bt = np.linalg.solve(np.linalg.cholesky(R), B.T)
    P = oracle_doubling(A, L_inv_bt.T @ L_inv_bt, symmetrize(Q))
    apb = A.T @ P @ B
    resid = Q + A.T @ P @ A - apb @ np.linalg.solve(R + B.T @ P @ B, apb.T) - P
    resid = np.linalg.norm(resid) / max(np.linalg.norm(P), np.finfo(float).tiny)
    if resid > linalg._DARE_RESIDUAL_MAX:
        raise NoStabilizingSolution(
            f"riccati residual {resid:.3e} above certificate bound "
            f"{linalg._DARE_RESIDUAL_MAX:.0e}")
    gain = np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
    if spectral_radius(A - B @ gain) >= 1.0:
        raise NoStabilizingSolution("closed loop from the Riccati solution is not stable")
    return P


def outcome(solve, *args):
    """The solution, or the message a NoStabilizingSolution carries."""
    try:
        return solve(*args)
    except NoStabilizingSolution as exc:
        return str(exc)


def assert_same_as_oracle(A, B, Q, R):
    got, want = outcome(solve_dare, A, B, Q, R), outcome(oracle_solve_dare, A, B, Q, R)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
    else:
        assert np.array_equal(got, want)


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


def test_stacked_cholesky_matches_per_system_factors():
    # scales 18 orders apart: each system's pivot floor follows its own diagonal
    rng = np.random.default_rng(3)
    stack = np.array([c * random_spd(rng, 5, scale=s)
                      for c, s in ((1e-12, 1e-3), (1.0, 1.0), (1e6, 1e3), (1.0, 0.1))])
    factor = cholesky_factor(stack)
    assert factor.L.shape == (4, 5, 5)
    assert factor.dim == 5
    for i, mat in enumerate(stack):
        one = cholesky_factor(mat).L
        assert np.linalg.norm(factor.L[i] - one) <= 1e-15 * np.linalg.norm(one)


@pytest.mark.parametrize("bad", [np.array([[1.0, 2.0], [2.0, 1.0]]), np.diag([1.0, 1e-18])],
                         ids=["indefinite", "under-pivot-floor"])
def test_stacked_cholesky_names_the_failing_system(bad):
    stack = np.array([np.eye(2), 2.0 * np.eye(2), bad, np.eye(2)])
    with pytest.raises(NotPositiveDefinite, match="system 2: "):
        cholesky_factor(stack)


def test_stacked_cholesky_checks_each_system_for_symmetry():
    # the asymmetry is small next to the first system but not next to its own
    stack = np.array([1e6 * np.eye(2), [[1.0, 1e-6], [0.0, 1.0]]])
    with pytest.raises(ValueError, match="system 1: "):
        cholesky_factor(stack)


def test_stacked_solve_matches_per_system_solves():
    rng = np.random.default_rng(4)
    stack = np.array([random_spd(rng, 4) for _ in range(6)])
    factor = cholesky_factor(stack)
    vectors, matrices = rng.normal(size=(6, 4)), rng.normal(size=(6, 4, 3))
    got_v, got_m = solve_spd(factor, vectors), solve_spd(factor, matrices)
    assert got_v.shape == (6, 4) and got_m.shape == (6, 4, 3)
    for i, mat in enumerate(stack):
        one = cholesky_factor(mat)
        for got, rhs in ((got_v[i], vectors[i]), (got_m[i], matrices[i])):
            want = solve_spd(one, rhs)
            assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)
    with pytest.raises(DimensionMismatch):
        solve_spd(factor, vectors[:5])


def test_solve_spd_dimension_mismatch():
    factor = cholesky_factor(np.eye(3))
    with pytest.raises(DimensionMismatch):
        solve_spd(factor, np.ones(4))


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
    args = np.array([[2.0]]), np.array([[0.0]]), np.eye(1), np.eye(1)
    with pytest.raises(NoStabilizingSolution, match="diverged"):
        solve_dare(*args)
    assert_same_as_oracle(*args)   # the same message, iterate size and doubling count


def test_dare_marginal_mode_without_control_raises():
    # a unit-circle mode no input reaches: no doubling count converges
    args = np.eye(1), np.array([[0.0]]), np.eye(1), np.eye(1)
    with pytest.raises(NoStabilizingSolution, match="did not converge in 64 doublings"):
        solve_dare(*args)
    assert_same_as_oracle(*args)


@pytest.mark.parametrize("where", ["A", "G", "H"])
def test_doubling_nan_iterate_raises_diverged(where):
    # a NaN compares false against the bound wherever it sits
    args = {"A": 0.5 * np.eye(2), "G": np.eye(2), "H": np.eye(2)}
    args[where][1, 0] = np.nan
    with pytest.raises(NoStabilizingSolution, match="diverged: iterate entries reached nan"):
        linalg._doubling(args["A"], args["G"], args["H"])


@pytest.mark.parametrize("A, B, Q", [
    (np.array([[2.0]]), np.array([[0.0]]), np.array([[0.0]])),
    (np.diag([2.0, 0.5]), np.array([[0.0], [1.0]]), np.diag([0.0, 1.0])),
], ids=["scalar", "unobserved-unstable-mode"])
def test_dare_certificate_rejects_unstable_closed_loop(A, B, Q):
    # the unstable mode is neither controlled nor weighted, so the doubling
    # converges to a P with zero residual; only the stability half rejects it
    R = np.eye(1)
    P = linalg._doubling(A, B @ B.T, Q)   # G = B R^-1 B'
    assert dare_residual(A, B, Q, R, P) == 0.0
    with pytest.raises(NoStabilizingSolution, match="closed loop .* is not stable"):
        solve_dare(A, B, Q, R)


def test_dare_matches_oracle_bitwise_on_random_systems():
    # rho(A) up to 1.5; every other system in Fortran order, which the
    # kernel's buffers re-lay in C order
    rng = np.random.default_rng(12)
    for i in range(200):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, n + 1))
        a = random_stable(rng, n, radius=rng.uniform(0.1, 1.5))
        b = rng.normal(size=(n, m))
        if i % 2:
            a, b = np.asfortranarray(a), np.asfortranarray(b)
        assert_same_as_oracle(a, b, random_spd(rng, n, scale=0.1), random_spd(rng, m, scale=0.5))


@pytest.mark.parametrize("kind", ["dc_motor", "msd"])
def test_dare_matches_oracle_bitwise_on_gate_refits(kind):
    # every full fit and leave-one-out refit of the DC motor and
    # mass-spring-damper gates (N=50, T in [5, 40], seeds 0-19)
    spec = system_spec(kind)
    Q, R = np.eye(spec.n_x), np.eye(spec.n_u)
    for seed in range(20):
        fit = fit_ridge(generate_dataset(spec, GenerationConfig(50, 5, 40, seed=seed)), 1e-3)
        assert_same_as_oracle(fit.A, fit.B, Q, R)
        for theta_k in loto_refit(fit)[0]:
            assert_same_as_oracle(*theta_to_ab(theta_k, fit.n_x, fit.n_u), Q, R)


def test_dare_never_writes_its_arguments():
    rng = np.random.default_rng(13)
    args = (random_stable(rng, 3, radius=1.2), rng.normal(size=(3, 2)),
            random_spd(rng, 3), random_spd(rng, 2))
    before = [a.copy() for a in args]
    for a in args:
        a.flags.writeable = False
    solve_dare(*args)
    for a, b in zip(args, before):
        assert np.array_equal(a, b)


def test_dare_rejects_semidefinite_r():
    with pytest.raises(NotPositiveDefinite):
        solve_dare(np.eye(2) * 0.5, np.eye(2), np.eye(2), np.zeros((2, 2)))


def test_dare_rechecks_weights_written_between_calls():
    # the weights' checks and R's factor are reused by value, not by identity
    A, B, Q, R = 0.5 * np.eye(2), np.eye(2), np.eye(2), np.eye(2)
    P = solve_dare(A, B, Q, R)
    R *= 4.0
    assert np.array_equal(solve_dare(A, B, Q, R), solve_dare(A, B, Q, R.copy()))
    assert not np.array_equal(solve_dare(A, B, Q, R), P)
    R[0, 0] = 0.0
    with pytest.raises(NotPositiveDefinite):
        solve_dare(A, B, Q, R)
    Q[0, 1] = 1.0
    with pytest.raises(ValueError, match="Q is not symmetric"):
        solve_dare(A, B, Q, np.eye(2))


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


@pytest.mark.parametrize("n", [12, 20])
@pytest.mark.parametrize("radius", [0.5, 0.99])
def test_dlyap_squaring_branch_matches_scipy(n, radius):
    # above n = 8 the Kronecker system gives way to squaring accumulation;
    # its error grows with the conditioning 1 / (1 - radius^2)
    rng = np.random.default_rng(n)
    a = random_stable(rng, n, radius=radius)
    s = random_spd(rng, n)
    x = solve_dlyap(a, s)
    x_ref = sla.solve_discrete_lyapunov(a, s)
    assert np.linalg.norm(x - x_ref) <= 1e-12 / (1 - radius**2) * np.linalg.norm(x_ref)
    assert np.linalg.norm(x - a @ x @ a.T - s) <= 1e-12 * np.linalg.norm(x)


@pytest.mark.parametrize("n", [4, 20])   # the Kronecker and the squaring branch
@pytest.mark.parametrize("radius", [0.5, 0.99])
def test_dlyap_residual_is_far_inside_its_certificate(n, radius):
    rng = np.random.default_rng(100 + n)
    for _ in range(10):
        a = random_stable(rng, n, radius=radius)
        s = random_spd(rng, n)
        x = solve_dlyap(a, s)
        resid = np.linalg.norm(x - a @ x @ a.T - s) / np.linalg.norm(x)
        assert resid <= 1e-4 * linalg._DLYAP_RESIDUAL_MAX


@pytest.mark.parametrize("n", [4, 20])
def test_dlyap_certificate_rejects_inaccurate_solution(monkeypatch, n):
    # a solution off by 1e-6 relative is still symmetric and positive
    # definite, so only the residual certificate can reject it
    rng = np.random.default_rng(n)
    a, s = random_stable(rng, n, radius=0.9), random_spd(rng, n)
    stein_sum = linalg._stein_sum
    monkeypatch.setattr(linalg, "_stein_sum", lambda *args: stein_sum(*args) * (1 + 1e-6))
    with pytest.raises(NoConvergence, match="residual"):
        solve_dlyap(a, s)


@pytest.mark.parametrize("n", [2, 10])   # the Kronecker and the squaring branch
def test_dlyap_certifies_entries_whose_squares_overflow(monkeypatch, n):
    # X's entries pass 1e154, so ||X||_F squared to inf: the Kronecker branch's
    # certificate divided by inf and passed any residual, the squaring loop
    # stopped after one term and its certificate read NaN
    rng = np.random.default_rng(n)
    a = random_stable(rng, n, radius=0.9)
    s = 1e170 * np.eye(n)
    x = solve_dlyap(a, s)
    assert np.isfinite(x).all() and max_abs(x) > 1e170
    assert max_abs(x - a @ x @ a.T - s) <= 1e-10 * max_abs(x)
    # a wrong solution of that size still fails its certificate
    stein_sum = linalg._stein_sum
    monkeypatch.setattr(linalg, "_stein_sum", lambda *args: stein_sum(*args) * (1 + 1e-6))
    with pytest.raises(NoConvergence, match="residual"):
        solve_dlyap(a, s)


@pytest.mark.parametrize("shift", [-300, 0, 300, 600, 1000])
def test_norm_ratios_are_exact_where_squares_overflow(shift):
    # scaled by 2**shift, the ratio of two Frobenius norms is the unscaled one
    # bit for bit, past 2**512 too, where the squares overflow
    rng = np.random.default_rng(7)
    for _ in range(20):
        a, b = rng.normal(size=(6, 6)), 1e-3 * rng.normal(size=(6, 6))
        na, nb = linalg._norms(np.ldexp(a, shift), np.ldexp(b, shift))
        assert na / nb == np.linalg.norm(a) / np.linalg.norm(b)
    assert linalg._norms(np.zeros((2, 2)), np.full((2, 2), np.inf))[0] == 0.0


@pytest.mark.parametrize("shift", [-600, -1000])
def test_norm_ratios_are_exact_where_squares_underflow(shift):
    # below 1e-154 the squares underflow: ||X||_F read 0 and a ratio read 0 or inf
    rng = np.random.default_rng(8)
    for _ in range(20):
        a, b = rng.normal(size=(6, 6)), 1e-3 * rng.normal(size=(6, 6))
        na, nb = linalg._norms(np.ldexp(a, shift), np.ldexp(b, shift))
        assert na / nb == np.linalg.norm(a) / np.linalg.norm(b)


@pytest.mark.parametrize("n", [2, 10])   # the Kronecker and the squaring branch
def test_dlyap_certificate_holds_where_squares_underflow(monkeypatch, n):
    # at W = 1e-170 I the certificate's norms read 0, so it passed any X: a
    # 1.5x-scaled solution, whose relative residual is 0.25, was returned
    rng = np.random.default_rng(n)
    a = random_stable(rng, n, radius=0.9)
    s = 1e-170 * np.eye(n)
    x = solve_dlyap(a, s)
    assert max_abs(x - a @ x @ a.T - s) <= 1e-10 * max_abs(x)
    stein_sum = linalg._stein_sum
    monkeypatch.setattr(linalg, "_stein_sum", lambda *args: 1.5 * stein_sum(*args))
    with pytest.raises(NoConvergence, match="residual"):
        solve_dlyap(a, s)


def test_dare_certificate_holds_where_squares_underflow(monkeypatch):
    # at Q = 1e-170 I the residual's norm and P's read 0: a 1.5x-scaled P was returned
    a, b, q, r = np.array([[0.9, 0.2], [0.0, 0.7]]), np.eye(2)[:, :1], 1e-170 * np.eye(2), np.eye(1)
    p = solve_dare(a, b, q, r)
    assert 1e-171 < p[0, 0] < 1e-169
    doubling = linalg._doubling
    monkeypatch.setattr(linalg, "_doubling", lambda *args: 1.5 * doubling(*args))
    with pytest.raises(NoStabilizingSolution, match="residual"):
        solve_dare(a, b, q, r)


def test_stacked_cholesky_names_systems_as_told_without_lapack_repeat():
    stack = np.array([np.eye(2), [[1.0, 2.0], [2.0, 1.0]]])
    with pytest.raises(NotPositiveDefinite) as exc:
        cholesky_factor(stack, "retained Gram", "refit without trajectory")
    assert str(exc.value) == "refit without trajectory 1: retained Gram is not positive definite"


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
