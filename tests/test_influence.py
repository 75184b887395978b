"""Influence scores against explicit evaluations, exact removals, and remainder bounds."""

import csv
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqrinfluence.errors import DominantTrajectory
from lqrinfluence.influence import (
    SCORE_CSV_HEADER,
    DecompositionDiagnostics,
    build_score_table,
    decomposition_diagnostics,
    direct_trace_term,
    exact_loto_cost_shift,
    fixed_score,
    loto_record,
    modular_error_bound,
    score_all,
    stochastic_score,
)
from lqrinfluence.linalg import solve_dare, spectral_radius
from lqrinfluence.lqr import riccati_artifacts
from lqrinfluence.sysid import (
    TrajectoryDataset,
    covariance_direct_term,
    fit_ridge,
    model_influence,
)


def simulate(rng, A, B, T, noise):
    n_x, n_u = A.shape[0], B.shape[1]
    x = rng.normal(size=n_x)
    X, U, Xn = [], [], []
    for _ in range(T):
        u = rng.normal(size=n_u)
        xn = A @ x + B @ u + noise * rng.normal(size=n_x)
        X.append(x), U.append(u), Xn.append(xn)
        x = xn
    return np.array(X), np.array(U), np.array(Xn)


def make_problem(seed=0, n_traj=8, noise=0.1, lam=1e-3, lengths=None, n_u=1):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(2, 2))
    A *= 0.8 / spectral_radius(A)
    B = rng.normal(size=(2, n_u))
    if lengths is None:
        lengths = rng.integers(5, 15, size=n_traj)
    triples = [simulate(rng, A, B, int(T), noise) for T in lengths]
    data = TrajectoryDataset.from_arrays(triples)
    fit = fit_ridge(data, lam)
    Q, R = np.eye(2), np.eye(n_u)
    art = riccati_artifacts(fit, Q, R, fit.W_hat)
    return fit, art, Q, R


def test_fixed_score_amortized_equals_explicit():
    fit, art, _, _ = make_problem()
    for k in range(fit.N):
        explicit = art.zeta @ model_influence(fit, k)
        assert fixed_score(fit, art, k) == pytest.approx(explicit, abs=1e-12, rel=1e-12)


def test_stochastic_score_amortized_equals_explicit():
    fit, art, _, _ = make_problem()
    direct = direct_trace_term(fit, art)
    for k in range(fit.N):
        explicit = (art.zeta - art.h) @ model_influence(fit, k) + direct[k]
        assert stochastic_score(fit, art, k) == pytest.approx(
            explicit, abs=1e-12, rel=1e-12
        )


def test_scores_zero_on_noiseless_data():
    fit, art, _, _ = make_problem(noise=0.0, lam=0.0)
    for k in range(fit.N):
        assert abs(fixed_score(fit, art, k)) < 1e-14
        assert abs(stochastic_score(fit, art, k)) < 1e-14


def test_score_difference_is_residual_channel():
    # stoch - fixed = -h^T IF_m_k + direct trace, by construction of v_stoch
    fit, art, _, _ = make_problem(seed=3)
    direct = direct_trace_term(fit, art)
    for k in range(fit.N):
        gap = stochastic_score(fit, art, k) - fixed_score(fit, art, k)
        expected = -art.h @ model_influence(fit, k) + direct[k]
        assert gap == pytest.approx(expected, abs=1e-13, rel=1e-10)


def test_reduction_to_fixed_when_h_suppressed():
    # covariance channel switched off: h = 0, direct term vanishes on duplicated data
    rng = np.random.default_rng(4)
    A = np.array([[0.7, 0.1], [0.0, 0.6]])
    B = np.array([[0.0], [1.0]])
    traj = simulate(rng, A, B, 12, 0.1)
    data = TrajectoryDataset.from_arrays([traj] * 6)
    fit = fit_ridge(data, 1e-3)
    art = riccati_artifacts(fit, np.eye(2), np.eye(1), fit.W_hat)
    assert np.allclose(direct_trace_term(fit, art), 0.0, atol=1e-14)
    frozen = dataclasses.replace(
        art, h=np.zeros(fit.p), v_stoch=art.v_fixed, c_stoch=art.c_fixed
    )
    for k in range(fit.N):
        assert stochastic_score(fit, frozen, k) == pytest.approx(
            fixed_score(fit, frozen, k), abs=1e-14
        )


def test_duplicated_trajectory_has_zero_exact_shift():
    rng = np.random.default_rng(5)
    A = np.array([[0.7, 0.1], [0.0, 0.6]])
    B = np.array([[0.0], [1.0]])
    traj = simulate(rng, A, B, 12, 0.1)
    data = TrajectoryDataset.from_arrays([traj] * 6)
    dj = exact_loto_cost_shift(fit_ridge(data, 1e-3), np.eye(2), np.eye(1), 0)
    assert abs(dj) <= 1e-9


def test_exact_shift_two_trajectory_hand_case():
    rng = np.random.default_rng(6)
    A = np.array([[0.8, 0.0], [0.1, 0.7]])
    B = np.array([[1.0], [0.0]])
    t0, t1 = simulate(rng, A, B, 10, 0.1), simulate(rng, A, B, 14, 0.1)
    data = TrajectoryDataset.from_arrays([t0, t1])
    lam, Q, R = 1e-3, np.eye(2), np.eye(1)
    full = fit_ridge(data, lam)
    sub = fit_ridge(TrajectoryDataset.from_arrays([t1]), lam)
    expected = np.trace(solve_dare(sub.A, sub.B, Q, R) @ sub.W_hat) - np.trace(
        solve_dare(full.A, full.B, Q, R) @ full.W_hat
    )
    assert exact_loto_cost_shift(full, Q, R, 0) == pytest.approx(
        expected, rel=1e-12
    )


def test_five_term_identity():
    fit, art, Q, R = make_problem(seed=7)
    for k in range(fit.N):
        rec = loto_record(fit, Q, R, k)
        diag = decomposition_diagnostics(fit, Q, R, k)
        dj = exact_loto_cost_shift(fit, Q, R, k)
        dtheta = rec.theta - fit.theta
        direct = direct_trace_term(fit, art)[k]
        total = (
            (art.zeta - art.h) @ dtheta + direct + diag.r_ric + diag.r_w + diag.r_cross
        )
        assert abs(total - dj) <= 1e-9 * (1 + abs(dj))


def test_noiseless_diagnostics_vanish():
    fit, _, Q, R = make_problem(noise=0.0, lam=0.0)
    diag = decomposition_diagnostics(fit, Q, R, 0)
    assert diag.delta_theta_norm < 1e-9
    assert abs(diag.r_ric) < 1e-12
    assert abs(diag.r_w) < 1e-12
    assert abs(diag.r_cross) < 1e-12


def test_covariance_remainder_bounds():
    fit, art, Q, R = make_problem(seed=8)
    P_norm = np.linalg.norm(art.P0, 2)
    L_phi = np.linalg.norm(fit.data.Z, axis=1).max()
    L_e = np.linalg.norm(fit.residuals, axis=1).max()
    for k in range(fit.N):
        rec = loto_record(fit, Q, R, k)
        diag = decomposition_diagnostics(fit, Q, R, k)
        assert abs(diag.r_w) <= P_norm * diag.bound_w + 1e-15
        # the bound also caps the covariance-shift remainder matrix itself
        dtheta = rec.theta - fit.theta
        D = fit.data.Z @ dtheta.reshape(fit.q, fit.n_x)
        cross_mat = (fit.residuals.T @ D + D.T @ fit.residuals) / fit.M
        R_w_mat = (rec.W - fit.W_hat) - covariance_direct_term(fit, k) + cross_mat
        assert np.linalg.norm(R_w_mat) <= diag.bound_w + 1e-15


def test_optional_bounds_populated_only_on_request():
    fit, _, Q, R = make_problem(seed=9)
    diag = decomposition_diagnostics(fit, Q, R, 0)
    assert diag.bound_ric is None and diag.bound_cross is None
    diag2 = decomposition_diagnostics(fit, Q, R, 0, L_psi=5.0, L_P=2.0)
    assert diag2.bound_ric == pytest.approx(2.5 * diag2.delta_theta_norm**2)
    assert diag2.bound_cross is not None and diag2.bound_cross >= 0.0


def test_modular_error_bound_inequality():
    fit, art, Q, R = make_problem(seed=10)
    for k in range(fit.N):
        rec = loto_record(fit, Q, R, k)
        diag = decomposition_diagnostics(fit, Q, R, k)
        dj = exact_loto_cost_shift(fit, Q, R, k)
        bound = modular_error_bound(fit, art, k, rec.theta - fit.theta, diag)
        assert abs(stochastic_score(fit, art, k) - dj) <= bound + 1e-9


def test_modular_error_bound_degenerate_short_trajectories():
    fit, art, Q, R = make_problem(seed=11, n_traj=10, lengths=[1] * 10, lam=0.0)
    for k in range(fit.N):
        rec = loto_record(fit, Q, R, k)
        diag = decomposition_diagnostics(fit, Q, R, k)
        dj = exact_loto_cost_shift(fit, Q, R, k)
        bound = modular_error_bound(fit, art, k, rec.theta - fit.theta, diag)
        assert abs(stochastic_score(fit, art, k) - dj) <= bound + 1e-9


def test_modular_error_bound_zero_case():
    fit, art, _, _ = make_problem(seed=12)
    diag = DecompositionDiagnostics(
        delta_theta_norm=0.0,
        r_ric=0.0,
        r_w=0.0,
        r_cross=0.0,
        bound_w=0.0,
        bound_ric=None,
        bound_cross=None,
    )
    assert modular_error_bound(fit, art, 0, model_influence(fit, 0), diag) == 0.0


def test_joint_qr_scaling_multiplies_scores():
    fit, art, Q, R = make_problem(seed=13)
    c = 3.7
    art_c = riccati_artifacts(fit, c * Q, c * R, fit.W_hat)
    assert np.allclose(art_c.P0, c * art.P0, rtol=1e-10)
    for k in range(fit.N):
        assert stochastic_score(fit, art_c, k) == pytest.approx(
            c * stochastic_score(fit, art, k), rel=1e-9
        )
        assert fixed_score(fit, art_c, k) == pytest.approx(
            c * fixed_score(fit, art, k), rel=1e-9
        )
    dj = exact_loto_cost_shift(fit, Q, R, 0)
    dj_c = exact_loto_cost_shift(fit, c * Q, c * R, 0)
    assert dj_c == pytest.approx(c * dj, rel=1e-9)


def test_single_trajectory_raises():
    rng = np.random.default_rng(14)
    A, B = np.array([[0.5]]), np.array([[1.0]])
    data = TrajectoryDataset.from_arrays([simulate(rng, A, B, 10, 0.1)])
    fit = fit_ridge(data, 1e-3)
    art = riccati_artifacts(fit, np.eye(1), np.eye(1), fit.W_hat)
    with pytest.raises(DominantTrajectory):
        fixed_score(fit, art, 0)
    with pytest.raises(DominantTrajectory):
        stochastic_score(fit, art, 0)


def test_build_score_table_without_exact():
    fit, art, _, _ = make_problem(seed=15)
    table = build_score_table(fit, art)
    assert table.N == fit.N
    assert table.delta_j_exact is None and table.excluded_indices() == []
    assert np.isfinite(table.if_fixed).all() and np.isfinite(table.if_stoch).all()
    assert table.score_time >= 0.0 and table.refit_time is None
    for k in range(fit.N):
        assert table.if_stoch[k] == pytest.approx(stochastic_score(fit, art, k))


def test_build_score_table_exact_needs_qr():
    fit, art, _, _ = make_problem(seed=16)
    with pytest.raises(ValueError):
        build_score_table(fit, art, with_exact=True)


def test_build_score_table_with_exact():
    fit, art, Q, R = make_problem(seed=17, n_traj=6)
    table = build_score_table(fit, art, Q, R, with_exact=True)
    assert table.refit_time is not None and table.refit_time > 0.0
    assert not table.excluded.any()
    for k in range(fit.N):
        assert table.delta_j_exact[k] == pytest.approx(
            exact_loto_cost_shift(fit, Q, R, k), rel=1e-12
        )
        assert table.diagnostics[k] is not None
        assert np.isfinite(table.r_ric[k])
        assert np.isfinite(table.r_w[k])
        assert np.isfinite(table.r_cross[k])


def test_score_table_csv_round_trip(tmp_path):
    fit, art, Q, R = make_problem(seed=18, n_traj=5)
    table = build_score_table(fit, art, Q, R, with_exact=True)
    path = tmp_path / "scores.csv"
    table.to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == SCORE_CSV_HEADER
    assert len(rows) == 1 + table.N
    for i, row in enumerate(rows[1:]):
        assert int(row[0]) == i
        assert int(row[1]) == table.lengths[i]
        assert float(row[2]) == table.if_fixed[i]
        assert float(row[3]) == table.if_stoch[i]
        assert float(row[4]) == table.delta_j_exact[i]
        assert row[9] == "0"


def test_score_table_csv_empty_cells_without_exact(tmp_path):
    fit, art, _, _ = make_problem(seed=19, n_traj=4)
    table = build_score_table(fit, art)
    path = tmp_path / "scores.csv"
    table.to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        assert row[4] == "" and row[6] == "" and row[7] == "" and row[8] == ""
        assert row[9] == "0"


@st.composite
def permuted_corpus(draw):
    """A random stable linear corpus, its ridge weight, and a trajectory order."""
    n_x, n_u = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    lengths = draw(st.lists(st.integers(2, 12), min_size=2, max_size=7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.normal(size=(n_x, n_x))
    A *= draw(st.floats(0.0, 0.9)) / max(spectral_radius(A), 1e-12)
    B = rng.normal(size=(n_x, n_u))
    trajs = [simulate(rng, A, B, T, draw(st.sampled_from([0.05, 0.3]))) for T in lengths]
    perm = draw(st.permutations(range(len(lengths))))
    lam = draw(st.sampled_from([1e-2, 1e-1, 1.0]))
    return trajs, np.array(perm), lam


@settings(max_examples=60, deadline=None)
@given(permuted_corpus())
def test_scores_are_permutation_equivariant_property(case):
    # reordering the trajectories reorders both scores and changes nothing else
    trajs, perm, lam = case
    scores = []
    for order in (range(len(trajs)), perm):
        fit = fit_ridge(TrajectoryDataset.from_arrays([trajs[i] for i in order]), lam)
        Q, R = np.eye(fit.n_x), np.eye(fit.n_u)
        scores.append(score_all(fit, riccati_artifacts(fit, Q, R, fit.W_hat)))
    for base, permuted in zip(*scores):
        assert np.abs(base[perm] - permuted).max() <= 1e-12 * np.abs(base).max()
