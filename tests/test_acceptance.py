"""End-to-end acceptance gates for the influence-scoring pipeline.

One test per criterion, each printing a single PASS/FAIL line with the
measured values next to the stated tolerance:

 1. Riccati-gradient finite-difference gate (50 random systems, 1e-5 rel).
 2. Exact-identity suite: reduced LOTO gradient, direct covariance removal,
    stationary-cost identity, five-term cost-shift bookkeeping, reduction of
    the stochastic score to the fixed score when the residual channel is off.
 3. Remainder-bound suite on the linear benchmarks (every trajectory, every seed).
 4. DC motor rank-agreement reproduction (20 seeds, N=50).
 5. Mass-spring-damper reproduction with heterogeneous noise (20 seeds).
 6. UAV hover / mission qualitative reproduction (10 seeds each).
 7. Held-out prediction-loss validation of the model-side influence.
 9. Amortized scoring speedup over exact retraining.

Gate 8 compared the conjugate-gradient Hessian solve with the dense one; it
left with the CG path, and every H^-1 v is now one solve on the fit's Gram
factor (its check against the dense Kronecker solve is in test_sysid). The
other gates keep their numbers.

Criteria 6 (mission band) and 7 (strict monotone decline) encode external
targets this generator does not reach; they fail with the measured values
printed rather than being loosened.  The remaining criteria pass.
"""

import dataclasses
import time

import numpy as np
import pytest

from lqrinfluence.bench import GenerationConfig, generate_dataset, system_spec
from lqrinfluence.experiments import ExperimentConfig, run_experiment
from lqrinfluence.influence import (
    covariance_direct_term,
    diagnostics_from_record,
    direct_trace_term,
    exact_loto_sweep,
    modular_error_bound,
    score_all,
)
from lqrinfluence.linalg import gain_and_closed_loop, solve_dare, solve_dlyap, spectral_radius
from lqrinfluence.lqr import (
    riccati_artifacts,
    riccati_gradient,
)
from lqrinfluence.sysid import eta, fit_ridge, theta_to_ab

LINEAR_SEEDS = tuple(range(20))
UAV_SEEDS = tuple(range(10))
KINDS = ("dc_motor", "msd", "uav_hover", "uav_mission")

_GENERATION = {
    "dc_motor": GenerationConfig(50, 5, 40),
    "msd": GenerationConfig(50, 5, 40),
    "uav_hover": GenerationConfig(30, 20, 60),
    "uav_mission": GenerationConfig(30, 30, 60),
}
_SEEDS = {
    "dc_motor": LINEAR_SEEDS,
    "msd": LINEAR_SEEDS,
    "uav_hover": UAV_SEEDS,
    "uav_mission": UAV_SEEDS,
}
# identity/bound suites exercise size-independent algebra; run them on
# smaller datasets from the same generators to stay inside runtime budgets
_SMALL = {
    "dc_motor": GenerationConfig(10, 5, 20),
    "msd": GenerationConfig(10, 5, 20),
    "uav_hover": GenerationConfig(10, 5, 20),
    "uav_mission": GenerationConfig(10, 5, 20),
}


def _report(criterion: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'}: criterion {criterion} — {detail}"
    print(line)
    assert ok, line


def _run(kind: str) -> tuple:
    cfg = ExperimentConfig(
        system=system_spec(kind),
        generation=_GENERATION[kind],
        seeds=_SEEDS[kind],
        run_exact_loto=True,
        run_heldout=True,
    )
    t0 = time.perf_counter()
    report = run_experiment(cfg)
    return report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def dc_report():
    return _run("dc_motor")


@pytest.fixture(scope="module")
def msd_report():
    return _run("msd")


@pytest.fixture(scope="module")
def hover_report():
    return _run("uav_hover")


@pytest.fixture(scope="module")
def mission_report():
    return _run("uav_mission")


def _mean(report, key):
    return report.aggregate[key]["mean"]


def _small_fit(kind, seed):
    spec = system_spec(kind)
    data = generate_dataset(spec, dataclasses.replace(_SMALL[kind], seed=seed))
    fit = fit_ridge(data, 1e-3)
    return fit, riccati_artifacts(fit, np.eye(spec.n_x), np.eye(spec.n_u))


def test_criterion_01_riccati_gradient_gate():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        n_x = int(rng.integers(2, 5))
        n_u = int(rng.integers(1, 3))
        A = rng.normal(size=(n_x, n_x))
        A *= rng.uniform(0.5, 0.9) / spectral_radius(A)
        B = rng.normal(size=(n_x, n_u))
        m = rng.normal(size=(n_x, n_x))
        Sigma = m @ m.T / n_x + 0.5 * np.eye(n_x)
        Q, R = np.eye(n_x), np.eye(n_u)
        P0 = solve_dare(A, B, Q, R)
        K0, A_cl = gain_and_closed_loop(A, B, P0, R)
        zeta = riccati_gradient(P0, K0, A_cl, Sigma)
        theta = np.hstack([A, B]).ravel(order="F")
        d = rng.normal(size=theta.size)
        d /= np.linalg.norm(d)
        eps = 1e-6 * (1 + np.abs(theta).max())

        def cost(tv):
            Ai, Bi = theta_to_ab(tv, n_x, n_u)
            return np.trace(solve_dare(Ai, Bi, Q, R) @ Sigma)

        fd = (cost(theta + eps * d) - cost(theta - eps * d)) / (2 * eps)
        worst = max(worst, abs(zeta @ d - fd) / (1 + abs(fd)))
    elapsed = time.perf_counter() - t0
    _report(
        "1",
        worst <= 1e-5 and elapsed < 10.0,
        f"Riccati gradient vs central differences: worst relative error "
        f"{worst:.2e} (tol 1e-5) on 50 random systems in {elapsed:.1f}s (budget 10s)",
    )


def test_criterion_02_exact_identity_suite():
    t0 = time.perf_counter()
    worst_grad = worst_direct = worst_stat = worst_terms = worst_red = 0.0
    for kind in KINDS:
        for seed in range(100, 110):
            fit, art = _small_fit(kind, seed)
            base_cost = np.trace(art.P0 @ fit.W_hat)
            direct = direct_trace_term(fit, art)

            # reduced-objective gradient at the full-data optimum equals -eta_k
            # stationary cost two ways: Tr((Q + K0'R K0) Sigma_ss) = Tr(P0 W_hat)
            Sigma_ss = solve_dlyap(art.A_cl, fit.W_hat)
            lhs = np.trace((art.Q + art.K0.T @ art.R @ art.K0) @ Sigma_ss)
            rhs = np.trace(art.P0 @ fit.W_hat)
            worst_stat = max(worst_stat, abs(lhs - rhs) / (1 + abs(rhs)))
            sweep = exact_loto_sweep(fit, art)
            diag = diagnostics_from_record(fit, art, sweep)
            etas, direct_mats = eta(fit), covariance_direct_term(fit)
            for k in range(fit.N):
                sl = fit.data.traj_slice(k)
                keep = np.ones(fit.M, dtype=bool)
                keep[sl] = False
                M_rem = int(keep.sum())
                grad_rem = (
                    -(fit.data.Z[keep].T @ fit.residuals[keep]).ravel() / M_rem
                    + fit.lam * fit.theta
                )
                e_k = etas[k]
                worst_grad = max(
                    worst_grad,
                    np.linalg.norm(grad_rem + e_k) / (1 + np.linalg.norm(e_k)),
                )

                # dropping k's residuals at fixed parameters: exact covariance shift
                W_rem = (
                    fit.residuals[keep].T @ fit.residuals[keep] / M_rem
                )
                worst_direct = max(
                    worst_direct,
                    np.linalg.norm(W_rem - fit.W_hat - direct_mats[k]),
                )

                # five-term bookkeeping of the exact cost shift
                dj = np.trace(sweep.P[k] @ sweep.W[k]) - base_cost
                total = (
                    (art.zeta - art.h) @ (sweep.theta[k] - fit.theta)
                    + direct[k]
                    + diag.r_ric[k]
                    + diag.r_w[k]
                    + diag.r_cross[k]
                )
                worst_terms = max(worst_terms, abs(total - dj) / (1 + abs(dj)))

            # residual channel off -> stochastic score reduces to the fixed score
            frozen = dataclasses.replace(art, h=np.zeros(fit.p), v_stoch=art.v_fixed)
            if_fixed, if_stoch, _ = score_all(fit, frozen)
            red = if_stoch - direct_trace_term(fit, frozen) - if_fixed
            scale = 1 + np.abs(if_fixed).max()
            worst_red = max(worst_red, np.abs(red).max() / scale)

    elapsed = time.perf_counter() - t0
    ok = (
        worst_grad <= 1e-11
        and worst_direct <= 1e-13
        and worst_stat <= 1e-9
        and worst_terms <= 1e-9
        and worst_red <= 1e-12
        and elapsed < 60.0
    )
    _report(
        "2",
        ok,
        "exact identities on 10 datasets per benchmark: "
        f"reduced-gradient {worst_grad:.1e} (tol 1e-11), "
        f"direct-removal {worst_direct:.1e} (tol 1e-13), "
        f"stationary-cost {worst_stat:.1e} (tol 1e-9), "
        f"five-term {worst_terms:.1e} (tol 1e-9), "
        f"reduction {worst_red:.1e} (tol 1e-12), {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_03_remainder_bound_suite():
    t0 = time.perf_counter()
    checked = 0
    ok = True
    worst_margin = np.inf
    for kind in ("dc_motor", "msd"):
        for seed in LINEAR_SEEDS:
            fit, art = _small_fit(kind, seed)
            P_norm = np.linalg.norm(art.P0, 2)
            _, if_stoch, _ = score_all(fit, art)
            sweep = exact_loto_sweep(fit, art)
            diag = diagnostics_from_record(fit, art, sweep)
            bound = modular_error_bound(fit, art, sweep, diag)
            direct_mats = covariance_direct_term(fit)
            for k in range(fit.N):
                dtheta = sweep.theta[k] - fit.theta
                D = fit.data.Z @ dtheta.reshape(fit.q, fit.n_x)
                cross = (fit.residuals.T @ D + D.T @ fit.residuals) / fit.M
                R_w_mat = (sweep.W[k] - fit.W_hat) - direct_mats[k] + cross
                dj = np.trace(sweep.P[k] @ sweep.W[k]) - np.trace(art.P0 @ fit.W_hat)
                gap = abs(if_stoch[k] - dj)
                ok = ok and np.linalg.norm(R_w_mat) <= diag.bound_w[k] + 1e-15
                ok = ok and abs(diag.r_w[k]) <= P_norm * diag.bound_w[k] + 1e-15
                ok = ok and gap <= bound[k] + 1e-9
                worst_margin = min(worst_margin, bound[k] + 1e-9 - gap)
                checked += 1
    elapsed = time.perf_counter() - t0
    _report(
        "3",
        ok and elapsed < 120.0,
        f"covariance-shift and modular error bounds hold for all {checked} "
        f"removals on both linear benchmarks (tightest modular slack "
        f"{worst_margin:.1e}), {elapsed:.1f}s (budget 120s)",
    )


def test_criterion_04_dc_motor_reproduction(dc_report):
    report, elapsed = dc_report
    stoch = _mean(report, "spearman_stoch")
    fixed = _mean(report, "spearman_fixed")
    jac = _mean(report, "jaccard_stoch")
    ok = (
        stoch >= 0.99
        and 0.70 <= fixed <= 0.92
        and jac >= 0.80
        and elapsed < 300.0
    )
    _report(
        "4",
        ok,
        f"DC motor over 20 seeds: stochastic Spearman {stoch:.4f} (>= 0.99), "
        f"fixed Spearman {fixed:.4f} (in [0.70, 0.92]), top-5 Jaccard {jac:.3f} "
        f"(>= 0.80), {elapsed:.0f}s (budget 300s)",
    )


def test_criterion_05_msd_reproduction(msd_report):
    report, elapsed = msd_report
    stoch = _mean(report, "spearman_stoch")
    gap = stoch - _mean(report, "spearman_fixed")
    ok = stoch >= 0.99 and gap >= 0.1 and elapsed < 600.0
    _report(
        "5",
        ok,
        f"mass-spring-damper over 20 seeds: stochastic Spearman {stoch:.4f} "
        f"(>= 0.99), stochastic-minus-fixed gap {gap:.3f} (>= 0.1), "
        f"{elapsed:.0f}s (budget 600s)",
    )


def test_criterion_06a_uav_hover_reproduction(hover_report):
    report, elapsed = hover_report
    stoch = _mean(report, "spearman_stoch")
    fixed = _mean(report, "spearman_fixed")
    ok = stoch >= 0.85 and fixed >= 0.85 and stoch >= fixed and elapsed < 900.0
    _report(
        "6a",
        ok,
        f"UAV hover over 10 seeds: stochastic Spearman {stoch:.4f} and fixed "
        f"{fixed:.4f} (both >= 0.85, stochastic above fixed), "
        f"{elapsed:.0f}s (budget 900s)",
    )


def test_criterion_06b_uav_mission_reproduction(mission_report):
    report, elapsed = mission_report
    stoch = _mean(report, "spearman_stoch")
    fixed = _mean(report, "spearman_fixed")
    ordering = stoch > fixed
    in_band = 0.5 <= stoch <= 0.85
    _report(
        "6b",
        ordering and in_band and elapsed < 900.0,
        f"UAV mission over 10 seeds: stochastic Spearman {stoch:.4f} vs fixed "
        f"{fixed:.4f} — ordering {'holds' if ordering else 'VIOLATED'}; band "
        f"[0.5, 0.85] {'met' if in_band else 'NOT met'} (the planar point-mass "
        f"mission corpus keeps first-order scores accurate at this scale; the "
        f"external 0.695 target presumes an unspecified richer vehicle model), "
        f"{elapsed:.0f}s (budget 900s)",
    )


def test_criterion_07a_heldout_dc_gate(dc_report):
    report, _ = dc_report
    pred = _mean(report, "spearman_pred")
    _report(
        "7a",
        pred >= 0.94,
        f"held-out prediction-loss validation, DC motor: Spearman {pred:.4f} (>= 0.94)",
    )


def test_criterion_07b_heldout_monotone_decline(
    dc_report, msd_report, hover_report, mission_report
):
    chain = [
        ("dc_motor", _mean(dc_report[0], "spearman_pred")),
        ("msd", _mean(msd_report[0], "spearman_pred")),
        ("uav_hover", _mean(hover_report[0], "spearman_pred")),
        ("uav_mission", _mean(mission_report[0], "spearman_pred")),
    ]
    vals = [v for _, v in chain]
    monotone = all(a > b for a, b in zip(vals, vals[1:]))
    pretty = " -> ".join(f"{name} {v:.3f}" for name, v in chain)
    _report(
        "7b",
        monotone,
        f"held-out Spearman decline expected strictly monotone; measured {pretty}"
        + (
            ""
            if monotone
            else " — the mass-spring-damper's heterogeneous noise floors its "
            "held-out agreement below the hover corpus at this scale"
        ),
    )


def test_criterion_09_speedup(dc_report, msd_report):
    speedups = {
        "dc_motor": dc_report[0].timings["aggregate"]["speedup"]["mean"],
        "msd": msd_report[0].timings["aggregate"]["speedup"]["mean"],
    }
    ok = all(s >= 10.0 for s in speedups.values())
    pretty = ", ".join(f"{k} {v:.1f}x" for k, v in speedups.items())
    _report(
        "9",
        ok,
        f"amortized scoring vs exact retraining sweep: mean speedup {pretty} (>= 10x)",
    )
