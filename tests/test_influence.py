"""Influence scores against explicit evaluations, exact removals, and remainder bounds."""

import csv
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lqrinfluence import influence, linalg
from lqrinfluence.bench import GenerationConfig, generate_dataset, system_spec
from lqrinfluence.errors import NoStabilizingSolution, SingleTrajectory
from lqrinfluence.influence import (
    SCORE_CSV_HEADER,
    DecompositionDiagnostics,
    LotoSweep,
    build_score_table,
    diagnostics_from_record,
    direct_trace_term,
    exact_loto_sweep,
    modular_error_bound,
    score_all,
)
from lqrinfluence.linalg import solve_dare, spectral_radius
from lqrinfluence.lqr import riccati_artifacts
from lqrinfluence.sysid import (
    TrajectoryDataset,
    covariance_direct_term,
    fit_ridge,
    model_influence,
    theta_to_ab,
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
    art = riccati_artifacts(fit, Q, R)
    return fit, art, Q, R


def exact_shifts(fit, Q, R):
    """The sweep and every dJ_k = Tr(P_k W_k) - Tr(P0 W_hat), one refit at a time."""
    sweep = exact_loto_sweep(fit, riccati_artifacts(fit, Q, R))
    base = np.trace(solve_dare(fit.A, fit.B, Q, R) @ fit.W_hat)
    return sweep, np.array([np.trace(P_k @ W_k) - base for P_k, W_k in zip(sweep.P, sweep.W)])


def diagnostics_oracle(fit, art, k, theta_k, W_k, P_k):
    """Removal k's decomposition diagnostics, one removal at a time.

    Returns {field: (value, scale)}; scale sums the magnitudes of the terms
    the field adds, which bounds the round-off of any summation order.
    """
    dtheta = theta_k - fit.theta
    nd = float(np.linalg.norm(dtheta))
    dP = P_k - art.P0
    ric_terms = np.array([np.trace(dP @ fit.W_hat), art.zeta @ dtheta])

    T_k = float(fit.lengths[k])
    direct_mat = covariance_direct_term(fit)[k]
    DW = W_k - fit.W_hat
    D = dtheta.reshape(fit.q, fit.n_x)
    cross_mat = (fit.ZtE.T @ D + D.T @ fit.ZtE) / fit.M
    R_w_mat = DW - direct_mat + cross_mat
    abs_R_w = np.abs(DW) + np.abs(direct_mat) + np.abs(cross_mat)

    L_phi, L_e = fit.data_extremes
    bound_w = L_phi**2 * nd**2 + 4.0 * (T_k / fit.M) * L_e * L_phi * nd
    return {
        "delta_theta_norm": (nd, nd),
        "r_ric": (ric_terms[0] - ric_terms[1], np.abs(ric_terms).sum()),
        "r_w": (np.trace(art.P0 @ R_w_mat), np.trace(np.abs(art.P0) @ abs_R_w)),
        "r_cross": (np.trace(dP @ DW), np.trace(np.abs(dP) @ np.abs(DW))),
        "bound_w": (bound_w, bound_w),
    }


def test_fixed_score_amortized_equals_explicit():
    fit, art, _, _ = make_problem()
    if_fixed, _, _ = score_all(fit, art)
    if_m = model_influence(fit)
    for k in range(fit.N):
        explicit = art.zeta @ if_m[k]
        assert if_fixed[k] == pytest.approx(explicit, abs=1e-12, rel=1e-12)


def test_stochastic_score_amortized_equals_explicit():
    fit, art, _, _ = make_problem()
    direct = direct_trace_term(fit, art)
    _, if_stoch, direct_out = score_all(fit, art)
    assert np.array_equal(direct_out, direct)
    if_m = model_influence(fit)
    for k in range(fit.N):
        explicit = (art.zeta - art.h) @ if_m[k] + direct[k]
        assert if_stoch[k] == pytest.approx(explicit, abs=1e-12, rel=1e-12)


def test_scores_zero_on_noiseless_data():
    fit, art, _, _ = make_problem(noise=0.0, lam=0.0)
    for scores in score_all(fit, art):
        assert np.all(np.abs(scores) < 1e-14)


def test_score_difference_is_residual_channel():
    # stoch - fixed = -h^T IF_m_k + direct trace, by construction of v_stoch
    fit, art, _, _ = make_problem(seed=3)
    direct = direct_trace_term(fit, art)
    if_fixed, if_stoch, _ = score_all(fit, art)
    if_m = model_influence(fit)
    for k in range(fit.N):
        expected = -art.h @ if_m[k] + direct[k]
        assert if_stoch[k] - if_fixed[k] == pytest.approx(expected, abs=1e-13, rel=1e-10)


def test_reduction_to_fixed_when_h_suppressed():
    # covariance channel switched off: h = 0, direct term vanishes on duplicated data
    rng = np.random.default_rng(4)
    A = np.array([[0.7, 0.1], [0.0, 0.6]])
    B = np.array([[0.0], [1.0]])
    traj = simulate(rng, A, B, 12, 0.1)
    data = TrajectoryDataset.from_arrays([traj] * 6)
    fit = fit_ridge(data, 1e-3)
    art = riccati_artifacts(fit, np.eye(2), np.eye(1))
    assert np.allclose(direct_trace_term(fit, art), 0.0, atol=1e-14)
    frozen = dataclasses.replace(art, h=np.zeros(fit.p), v_stoch=art.v_fixed)
    if_fixed, if_stoch, _ = score_all(fit, frozen)
    for k in range(fit.N):
        assert if_stoch[k] == pytest.approx(if_fixed[k], abs=1e-14)


def test_duplicated_trajectory_has_zero_exact_shift():
    rng = np.random.default_rng(5)
    A = np.array([[0.7, 0.1], [0.0, 0.6]])
    B = np.array([[0.0], [1.0]])
    traj = simulate(rng, A, B, 12, 0.1)
    data = TrajectoryDataset.from_arrays([traj] * 6)
    _, dj = exact_shifts(fit_ridge(data, 1e-3), np.eye(2), np.eye(1))
    assert np.all(np.abs(dj) <= 1e-9)


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
    assert exact_shifts(full, Q, R)[1][0] == pytest.approx(expected, rel=1e-12)


def test_five_term_identity():
    fit, art, Q, R = make_problem(seed=7)
    direct = direct_trace_term(fit, art)
    sweep, dj = exact_shifts(fit, Q, R)
    diag = diagnostics_from_record(fit, art, sweep)
    for k in range(fit.N):
        dtheta = sweep.theta[k] - fit.theta
        total = (
            (art.zeta - art.h) @ dtheta + direct[k] + diag.r_ric[k] + diag.r_w[k]
            + diag.r_cross[k]
        )
        assert abs(total - dj[k]) <= 1e-9 * (1 + abs(dj[k]))


def test_noiseless_diagnostics_vanish():
    fit, art, _, _ = make_problem(noise=0.0, lam=0.0)
    diag = diagnostics_from_record(fit, art, exact_loto_sweep(fit, art))
    assert diag.delta_theta_norm[0] < 1e-9
    assert abs(diag.r_ric[0]) < 1e-12
    assert abs(diag.r_w[0]) < 1e-12
    assert abs(diag.r_cross[0]) < 1e-12


def test_covariance_remainder_bounds():
    fit, art, _, _ = make_problem(seed=8)
    P_norm = np.linalg.norm(art.P0, 2)
    sweep = exact_loto_sweep(fit, art)
    diag = diagnostics_from_record(fit, art, sweep)
    for k in range(fit.N):
        assert abs(diag.r_w[k]) <= P_norm * diag.bound_w[k] + 1e-15
        # the bound also caps the covariance-shift remainder matrix itself
        dtheta = sweep.theta[k] - fit.theta
        D = fit.data.Z @ dtheta.reshape(fit.q, fit.n_x)
        cross_mat = (fit.residuals.T @ D + D.T @ fit.residuals) / fit.M
        R_w_mat = (sweep.W[k] - fit.W_hat) - covariance_direct_term(fit)[k] + cross_mat
        assert np.linalg.norm(R_w_mat) <= diag.bound_w[k] + 1e-15


def test_sweep_refits_at_the_artifacts_weights(partial_exclusion_dataset):
    # every refit P is the public solve_dare's at the Q, R the scores were built
    # with, bit for bit, and a removal is excluded exactly where solve_dare
    # raises: generated corpora of every kind, and one with an excluded removal.
    # The sweep reuses the weights' checks and factor; the reference does not.
    generated = [generate_dataset(system_spec(kind), GenerationConfig(12, 5, 20, seed=seed))
                 for kind in ("dc_motor", "msd", "uav_hover", "uav_mission") for seed in range(3)]
    fits = [make_problem(seed=9)[0], fit_ridge(partial_exclusion_dataset, 1e-3)] + [
        fit_ridge(data, 1e-3) for data in generated]
    excluded = []
    for fit in fits:
        # not identities, so a refit at other weights would show
        Q = np.diag(np.linspace(3.0, 0.5, fit.n_x))
        R = np.diag(np.linspace(0.2, 0.7, fit.n_u))
        art = riccati_artifacts(fit, Q, R)
        sweep = exact_loto_sweep(fit, art)
        raised = []
        for k in range(fit.N):
            A_k, B_k = theta_to_ab(sweep.theta[k], fit.n_x, fit.n_u)
            linalg._dare_weights.cache_clear()
            try:
                P_k = solve_dare(A_k, B_k, art.Q, art.R)
            except NoStabilizingSolution:
                raised.append(k)
                assert np.isnan(sweep.P[k]).all()
            else:
                assert np.array_equal(sweep.P[k], P_k)
        assert np.flatnonzero(sweep.excluded).tolist() == raised
        excluded.append(raised)
    assert excluded == [[], [0]] + [[]] * len(generated)


@pytest.mark.parametrize("n_traj", [2, 9])
def test_sweep_factors_r_once(monkeypatch, n_traj):
    # what the refit DAREs share is formed once per sweep, whatever N is
    fit, art, _, _ = make_problem(seed=20, n_traj=n_traj)
    linalg._dare_weights.cache_clear()
    names = []
    factor = linalg._cholesky

    def counted(h, name, *label):
        names.append(name)
        return factor(h, name, *label)

    monkeypatch.setattr(linalg, "_cholesky", counted)
    sweep = exact_loto_sweep(fit, art)
    assert names.count("R") == 1 and not sweep.excluded.any()


def check_modular_error_bound(fit, art, Q, R):
    _, if_stoch, _ = score_all(fit, art)
    sweep, dj = exact_shifts(fit, Q, R)
    bound = modular_error_bound(fit, art, sweep, diagnostics_from_record(fit, art, sweep))
    for k in range(fit.N):
        assert abs(if_stoch[k] - dj[k]) <= bound[k] + 1e-9


def test_modular_error_bound_inequality():
    check_modular_error_bound(*make_problem(seed=10))


def test_modular_error_bound_degenerate_short_trajectories():
    check_modular_error_bound(*make_problem(seed=11, n_traj=10, lengths=[1] * 10, lam=0.0))


def test_modular_error_bound_zero_case():
    # at theta = 0 the shift theta_k - theta is exactly the surrogate it was set to
    fit, art, _, _ = make_problem(seed=12)
    fit = dataclasses.replace(fit, theta=np.zeros(fit.p))
    zero = np.zeros(fit.N)
    if_m = model_influence(fit)
    sweep = LotoSweep(theta=if_m, W=np.zeros((fit.N, 2, 2)), P=np.zeros((fit.N, 2, 2)),
                      excluded=zero.astype(bool))
    diag = DecompositionDiagnostics(
        delta_theta_norm=zero,
        r_ric=zero,
        r_w=zero,
        r_cross=zero,
        bound_w=zero,
    )
    assert np.all(modular_error_bound(fit, art, sweep, diag) == 0.0)


def test_joint_qr_scaling_multiplies_scores():
    fit, art, Q, R = make_problem(seed=13)
    c = 3.7
    art_c = riccati_artifacts(fit, c * Q, c * R)
    assert np.allclose(art_c.P0, c * art.P0, rtol=1e-10)
    for scaled, base in zip(score_all(fit, art_c), score_all(fit, art)):
        for k in range(fit.N):
            assert scaled[k] == pytest.approx(c * base[k], rel=1e-9)
    dj = exact_shifts(fit, Q, R)[1][0]
    dj_c = exact_shifts(fit, c * Q, c * R)[1][0]
    assert dj_c == pytest.approx(c * dj, rel=1e-9)


def test_single_trajectory_raises():
    rng = np.random.default_rng(14)
    A, B = np.array([[0.5]]), np.array([[1.0]])
    data = TrajectoryDataset.from_arrays([simulate(rng, A, B, 10, 0.1)])
    fit = fit_ridge(data, 1e-3)
    art = riccati_artifacts(fit, np.eye(1), np.eye(1))
    with pytest.raises(SingleTrajectory):
        score_all(fit, art)


def test_build_score_table_without_exact():
    fit, art, _, _ = make_problem(seed=15)
    table = build_score_table(fit, art)
    assert table.N == fit.N
    assert table.delta_j_exact is None and table.excluded_indices() == []
    assert np.isfinite(table.if_fixed).all() and np.isfinite(table.if_stoch).all()
    assert table.score_time >= 0.0 and table.refit_time is None
    direct = direct_trace_term(fit, art)
    if_m = model_influence(fit)
    for k in range(fit.N):
        explicit = (art.zeta - art.h) @ if_m[k] + direct[k]
        assert table.if_stoch[k] == pytest.approx(explicit)


def test_build_score_table_scores_through_score_all(monkeypatch):
    # the CLI path reaches the public scorer, so a trace of score_all sees its time
    fit, art, _, _ = make_problem(seed=16)
    calls = []

    def counted(*args):
        calls.append(args)
        return score_all(*args)

    monkeypatch.setattr(influence, "score_all", counted)
    table = build_score_table(fit, art)
    assert len(calls) == 1
    for column, expected in zip((table.if_fixed, table.if_stoch, table.direct_trace),
                                score_all(fit, art)):
        assert np.array_equal(column, expected)


def test_build_score_table_with_exact():
    fit, art, Q, R = make_problem(seed=17, n_traj=6)
    table = build_score_table(fit, art, with_exact=True)
    assert table.refit_time is not None and table.refit_time > 0.0
    assert not table.excluded.any()
    with pytest.raises(dataclasses.FrozenInstanceError):   # built once, complete
        table.score_time = 0.0
    _, dj = exact_shifts(fit, Q, R)
    for k in range(fit.N):
        assert table.delta_j_exact[k] == pytest.approx(dj[k], rel=1e-12)
        assert np.isfinite(table.diagnostics.r_ric[k])
        assert np.isfinite(table.diagnostics.r_w[k])
        assert np.isfinite(table.diagnostics.r_cross[k])


def test_score_table_csv_round_trip(tmp_path):
    fit, art, _, _ = make_problem(seed=18, n_traj=5)
    table = build_score_table(fit, art, with_exact=True)
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


@pytest.mark.parametrize(
    "value, cell",
    [(float("nan"), ""), (np.inf, ""), (-np.inf, ""), (None, ""), (-0.0, "-0"),
     (np.int64(-7), "-7"), (3, "3"), (np.float64(0.1), "0.10000000000000001"),
     (True, "1")],
    ids=["nan", "inf", "-inf", "none", "-0.0", "int64", "int", "float64", "bool"],
)
def test_csv_cell_strings(value, cell):
    assert influence.csv_cell(value) == cell


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_csv_cell_round_trips_every_finite_float_property(x):
    assert float(influence.csv_cell(x)).hex() == x.hex()
    assert float(influence.csv_cell(np.float64(x))).hex() == x.hex()


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, st.integers(0, 40)))
def test_csv_column_is_csv_cell_per_entry_property(col):
    # the column formatter is the scalar rule applied entry by entry, NaN, +-inf, -0.0 and
    # subnormals included, and no cell needs quoting, so rows can be joined with commas
    cells = influence.csv_column(col)
    assert cells == [influence.csv_cell(x) for x in col]
    assert not any(c in cell for cell in cells for c in ',"\r\n')


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
def random_corpus(draw, min_size=2):
    """A random stable linear corpus (trajectory triples) and its ridge weight."""
    n_x, n_u = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    lengths = draw(st.lists(st.integers(2, 12), min_size=min_size, max_size=7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.normal(size=(n_x, n_x))
    A *= draw(st.floats(0.0, 0.9)) / max(spectral_radius(A), 1e-12)
    B = rng.normal(size=(n_x, n_u))
    trajs = [simulate(rng, A, B, T, draw(st.sampled_from([0.05, 0.3]))) for T in lengths]
    lam = draw(st.sampled_from([1e-2, 1e-1, 1.0]))
    return trajs, lam


@st.composite
def permuted_corpus(draw):
    """A random corpus, its ridge weight, and a trajectory order."""
    trajs, lam = draw(random_corpus())
    perm = draw(st.permutations(range(len(trajs))))
    return trajs, np.array(perm), lam


def fit_and_score(trajs, lam):
    fit = fit_ridge(TrajectoryDataset.from_arrays(trajs), lam)
    art = riccati_artifacts(fit, np.eye(fit.n_x), np.eye(fit.n_u))
    return fit, art, score_all(fit, art)


def score_term_magnitudes(fit, art):
    """Per trajectory, the summed magnitudes of the terms score_all adds, for
    (if_fixed, if_stoch): scale g_k.v, frac lam theta.v and the two direct traces.

    A dot product enters as sum |g_ki v_i| (and lam sum |theta_i v_i|):
    its round-off scales with that sum, which can far exceed |g_k.v| when the
    products cancel.
    """
    scale, frac = fit.M / (fit.M - fit.lengths), fit.lengths / (fit.M - fit.lengths)
    abs_g, abs_theta = np.abs(fit.g), fit.lam * np.abs(fit.theta)
    tr0 = abs(np.trace(art.P0 @ fit.W_hat))
    trk = np.abs(np.einsum("ij,kji->k", art.P0, fit.per_traj_cov))
    fixed = scale * (abs_g @ np.abs(art.v_fixed)) + frac * (abs_theta @ np.abs(art.v_fixed))
    stoch = (scale * (abs_g @ np.abs(art.v_stoch)) + frac * (abs_theta @ np.abs(art.v_stoch))
             + frac * (tr0 + trk))
    return fixed, stoch


@settings(max_examples=60, deadline=None)
@given(permuted_corpus())
def test_scores_are_permutation_equivariant_property(case):
    # reordering the trajectories reorders both scores and changes nothing else;
    # a score can be a small difference of larger terms, so the round-off
    # bound is relative to those terms, not to the score
    trajs, perm, lam = case
    fit, art, base = fit_and_score(trajs, lam)
    _, _, permuted = fit_and_score([trajs[i] for i in perm], lam)
    for b, p, mag in zip(base, permuted, score_term_magnitudes(fit, art)):
        assert np.all(np.abs(b[perm] - p) <= 1e-12 * mag[perm])


@settings(max_examples=40, deadline=None)
@given(random_corpus(min_size=1), st.data())
def test_duplicated_trajectories_get_equal_scores_property(case, data):
    trajs, lam = case
    j = data.draw(st.integers(0, len(trajs) - 1))
    at = data.draw(st.integers(0, len(trajs)))
    trajs = trajs[:at] + [trajs[j]] + trajs[at:]
    a, b = (j, at) if at > j else (j + 1, at)   # the two copies
    fit, art, scores = fit_and_score(trajs, lam)
    for score, mag in zip(scores, score_term_magnitudes(fit, art)):
        assert abs(score[a] - score[b]) <= 1e-12 * max(mag[a], mag[b])


@settings(max_examples=40, deadline=None)
@given(random_corpus())
def test_five_term_identity_property(case):
    # gate 2's bookkeeping on random stable systems: the three remainders are
    # explicit differences, so the identity holds to round-off in its terms
    trajs, lam = case
    fit, art, _ = fit_and_score(trajs, lam)
    direct = direct_trace_term(fit, art)
    base = np.trace(art.P0 @ fit.W_hat)
    sweep = exact_loto_sweep(fit, art)
    diag = diagnostics_from_record(fit, art, sweep)
    for k in np.flatnonzero(~sweep.excluded):
        terms = np.array([(art.zeta - art.h) @ (sweep.theta[k] - fit.theta), direct[k],
                          diag.r_ric[k], diag.r_w[k], diag.r_cross[k]])
        refit = np.trace(sweep.P[k] @ sweep.W[k])
        scale = abs(refit) + abs(base) + np.abs(terms).sum()
        assert abs(terms.sum() - (refit - base)) <= 1e-13 * scale


@settings(max_examples=40, deadline=None)
@given(random_corpus())
def test_all_k_diagnostics_match_per_removal_oracle_property(case):
    # the array form sums in another order than the one-removal formula, so
    # each field agrees to round-off in the magnitudes of the terms it adds
    trajs, lam = case
    fit, art, _ = fit_and_score(trajs, lam)
    sweep = exact_loto_sweep(fit, art)
    diag = diagnostics_from_record(fit, art, sweep)
    for k in range(fit.N):
        if sweep.excluded[k]:
            assert all(np.isnan(getattr(diag, f.name)[k]) for f in dataclasses.fields(diag))
            continue
        want = diagnostics_oracle(fit, art, k, sweep.theta[k], sweep.W[k], sweep.P[k])
        assert set(want) == {f.name for f in dataclasses.fields(diag)}
        for name, (value, scale) in want.items():
            assert abs(getattr(diag, name)[k] - value) <= 1e-12 * scale, name
