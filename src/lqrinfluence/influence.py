"""Per-trajectory influence scores on the plug-in LQR cost, and their exact checks.

Three quantities per trajectory k:

* fixed-covariance score  zeta^T IF_m_k          (covariance held at Sigma),
* stochastic score        (zeta - h)^T IF_m_k + (T_k/M_k) Tr(P0 (W_hat - W_bar_k)),
* exact shift             dJ_k = Tr(P(theta_k) W_k) - Tr(P0 W_hat)  by refitting.

Every exact quantity comes from one sweep per fit (exact_loto_sweep): one
sysid.loto_refit call solves the retained normal equations of every removal
at once from the fit's per-trajectory statistics, then loto_record solves
one refit DARE per removal. Nothing here refits from the raw data or redoes
the base DARE per trajectory; score_all scores every trajectory at once.

The amortized forms never materialize IF_m_k: with v = H^-1 rhs precomputed,
each score is (M/M_k) g_k^T v + (T_k/M_k) lam theta^T v plus the direct
covariance trace. The exact shift decomposes as

  dJ_k = (zeta - h)^T dtheta_k + direct_k + R_ric + R_w + R_cross,

an identity once the three remainders are computed by explicit subtraction;
diagnostics here evaluate all five terms and the computable remainder bounds.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .errors import NoStabilizingSolution
from .linalg import solve_dare
from .lqr import RiccatiArtifacts
from .sysid import (
    ModelFit,
    covariance_direct_term,
    loto_refit,
    model_influence,
    theta_to_ab,
)

SCORE_CSV_HEADER = [
    "k", "T_k", "if_fixed", "if_stoch", "delta_j_exact", "direct_trace",
    "r_ric", "r_w", "r_cross", "excluded_flag",
]


def direct_trace_term(fit: ModelFit, art: RiccatiArtifacts) -> np.ndarray:
    """(T_k/M_k) Tr(P0 (W_hat - W_bar_k)) for every k."""
    _, frac = fit.removal_weights
    tr0 = np.trace(art.P0 @ fit.W_hat)
    trk = np.einsum("ij,kji->k", art.P0, fit.per_traj_cov)
    return frac * (tr0 - trk)


def _scores(fit: ModelFit, art: RiccatiArtifacts, direct: np.ndarray):
    """(if_fixed, if_stoch) for every trajectory, given its direct trace term."""
    scale, frac = fit.removal_weights
    if_fixed = scale * (fit.g @ art.v_fixed) + frac * art.c_fixed
    if_stoch = scale * (fit.g @ art.v_stoch) + frac * art.c_stoch + direct
    return if_fixed, if_stoch


def score_all(fit: ModelFit, art: RiccatiArtifacts):
    """Vectorized scores for every trajectory: (if_fixed, if_stoch) arrays."""
    return _scores(fit, art, direct_trace_term(fit, art))


@dataclass(frozen=True)
class LotoRecord:
    """One exact removal: refit parameters, refit residual covariance, refit Riccati solution."""

    theta: np.ndarray
    W: np.ndarray
    P: np.ndarray | None   # None when the refit DARE has no stabilizing solution


def loto_record(fit: ModelFit, Q, R, theta_k: np.ndarray, W_k: np.ndarray) -> LotoRecord:
    """One removal's record: the refit DARE at theta_k, P None if it is not stabilizable."""
    A_k, B_k = theta_to_ab(theta_k, fit.n_x, fit.n_u)
    try:
        P_k = solve_dare(A_k, B_k, Q, R)
    except NoStabilizingSolution:
        P_k = None
    return LotoRecord(theta=theta_k, W=W_k, P=P_k)


def exact_loto_sweep(fit: ModelFit, Q, R) -> list[LotoRecord]:
    """Every removal's record: one stacked refit, then one refit DARE per trajectory."""
    return [loto_record(fit, Q, R, theta_k, W_k) for theta_k, W_k in zip(*loto_refit(fit))]


@dataclass(frozen=True)
class DecompositionDiagnostics:
    """Remainders of the exact cost-shift decomposition for one trajectory."""

    delta_theta_norm: float
    r_ric: float            # Riccati Taylor remainder traced against W_hat
    r_w: float              # Tr(P0 R_w) with R_w the covariance-shift remainder
    r_cross: float          # Tr((P_k - P0)(W_k - W_hat))
    bound_w: float          # L_phi^2 |dtheta|^2 + 4 (T_k/M) L_e L_phi |dtheta|
    bound_ric: float | None    # (L_psi/2) |dtheta|^2, needs caller-supplied L_psi
    bound_cross: float | None  # L_P |dtheta| (...), needs caller-supplied L_P


def diagnostics_from_record(
    fit: ModelFit,
    art: RiccatiArtifacts,
    k: int,
    rec: LotoRecord,
    L_psi: float | None = None,
    L_P: float | None = None,
) -> DecompositionDiagnostics:
    if rec.P is None:
        raise NoStabilizingSolution(f"refit without trajectory {k} is not stabilizable")
    dtheta = rec.theta - fit.theta
    nd = float(np.linalg.norm(dtheta))
    dP = rec.P - art.P0
    r_ric = float(np.trace(dP @ fit.W_hat) - art.zeta @ dtheta)

    T_k = float(fit.lengths[k])
    direct_mat = covariance_direct_term(fit, k)
    DW = rec.W - fit.W_hat
    # (E^T Z D + D^T Z^T E) / M over the rows Phi_s dtheta = z_s^T D, read off
    # the fit's Z^T E instead of a pass over the M transitions
    D = dtheta.reshape(fit.q, fit.n_x)
    cross_mat = (fit.ZtE.T @ D + D.T @ fit.ZtE) / fit.M
    R_w_mat = DW - direct_mat + cross_mat
    r_w = float(np.trace(art.P0 @ R_w_mat))
    r_cross = float(np.trace(dP @ DW))

    L_phi, L_e = fit.data_extremes
    bound_w = L_phi**2 * nd**2 + 4.0 * (T_k / fit.M) * L_e * L_phi * nd
    bound_ric = None if L_psi is None else 0.5 * L_psi * nd**2
    bound_cross = None
    if L_P is not None:
        frac = T_k / (fit.M - T_k)
        bound_cross = (
            L_P
            * nd
            * (
                frac * np.linalg.norm(fit.W_hat - fit.per_traj_cov[k])
                + 2.0 * L_e * L_phi * nd
                + np.linalg.norm(R_w_mat)
            )
        )
    return DecompositionDiagnostics(
        delta_theta_norm=nd,
        r_ric=r_ric,
        r_w=r_w,
        r_cross=r_cross,
        bound_w=bound_w,
        bound_ric=bound_ric,
        bound_cross=bound_cross,
    )


def modular_error_bound(
    fit: ModelFit,
    art: RiccatiArtifacts,
    k: int,
    delta_theta_k: np.ndarray,
    diag: DecompositionDiagnostics,
) -> float:
    """Upper bound on |IF_stoch_k - dJ_k| from the surrogate gap and the remainders."""
    if_m = model_influence(fit, k)
    gap = float(np.linalg.norm(if_m - delta_theta_k))
    sens = float(np.linalg.norm(art.zeta - art.h))
    return sens * gap + abs(diag.r_ric) + abs(diag.r_w) + abs(diag.r_cross)


@dataclass
class ScoreTable:
    """Per-trajectory scores plus, when the exact sweep ran, the exact shifts and remainders."""

    lengths: np.ndarray
    if_fixed: np.ndarray
    if_stoch: np.ndarray
    direct_trace: np.ndarray
    delta_j_exact: np.ndarray | None = None   # nan where excluded
    r_ric: np.ndarray | None = None
    r_w: np.ndarray | None = None
    r_cross: np.ndarray | None = None
    excluded: np.ndarray | None = None        # bool, refit DARE failures
    diagnostics: list | None = None           # per-k DecompositionDiagnostics (None where excluded)
    score_time: float = 0.0
    refit_time: float | None = None

    @property
    def N(self) -> int:
        return len(self.if_fixed)

    def excluded_indices(self) -> list[int]:
        if self.excluded is None:
            return []
        return [int(i) for i in np.flatnonzero(self.excluded)]

    def to_csv(self, path) -> None:
        def cell(arr, i):
            if arr is None or not np.isfinite(arr[i]):
                return ""
            return format(float(arr[i]), ".17g")

        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(SCORE_CSV_HEADER)
            excl = (
                self.excluded
                if self.excluded is not None
                else np.zeros(self.N, dtype=bool)
            )
            for i in range(self.N):
                writer.writerow(
                    [
                        i,
                        int(self.lengths[i]),
                        format(float(self.if_fixed[i]), ".17g"),
                        format(float(self.if_stoch[i]), ".17g"),
                        cell(self.delta_j_exact, i),
                        format(float(self.direct_trace[i]), ".17g"),
                        cell(self.r_ric, i),
                        cell(self.r_w, i),
                        cell(self.r_cross, i),
                        int(excl[i]),
                    ]
                )


def build_score_table(
    fit: ModelFit,
    art: RiccatiArtifacts,
    Q=None,
    R=None,
    with_exact: bool = False,
) -> ScoreTable:
    """Score every trajectory; optionally run the exact removal sweep (needs Q, R)."""
    t0 = perf_counter()
    direct = direct_trace_term(fit, art)
    if_fixed, if_stoch = _scores(fit, art, direct)
    score_time = perf_counter() - t0

    table = ScoreTable(
        lengths=fit.lengths.copy(),
        if_fixed=if_fixed,
        if_stoch=if_stoch,
        direct_trace=direct,
        score_time=score_time,
    )
    if not with_exact:
        return table
    if Q is None or R is None:
        raise ValueError("exact sweep needs Q and R")

    t0 = perf_counter()
    base_cost = float(np.trace(art.P0 @ fit.W_hat))
    N = fit.N
    delta_j = np.full(N, np.nan)
    r_ric = np.full(N, np.nan)
    r_w = np.full(N, np.nan)
    r_cross = np.full(N, np.nan)
    excluded = np.zeros(N, dtype=bool)
    diags: list = [None] * N
    for k, rec in enumerate(exact_loto_sweep(fit, Q, R)):
        if rec.P is None:
            excluded[k] = True
            continue
        delta_j[k] = float(np.trace(rec.P @ rec.W)) - base_cost
        diag = diagnostics_from_record(fit, art, k, rec)
        diags[k] = diag
        r_ric[k] = diag.r_ric
        r_w[k] = diag.r_w
        r_cross[k] = diag.r_cross
    table.delta_j_exact = delta_j
    table.r_ric = r_ric
    table.r_w = r_w
    table.r_cross = r_cross
    table.excluded = excluded
    table.diagnostics = diags
    table.refit_time = perf_counter() - t0
    return table
