"""Per-trajectory influence scores on the plug-in LQR cost, and their exact checks.

Three quantities per trajectory k:

* fixed-covariance score  zeta^T IF_m_k          (covariance held at W_hat),
* stochastic score        (zeta - h)^T IF_m_k + (T_k/M_k) Tr(P0 (W_hat - W_bar_k)),
* exact shift             dJ_k = Tr(P(theta_k) W_k) - Tr(P0 W_hat)  by refitting.

Every exact quantity comes from one sweep per fit (exact_loto_sweep): one
sysid.loto_refit call refits every removal, then loto_record solves each refit DARE at
art's Q and R, its P row NaN where none stabilizes. diagnostics_from_record and
modular_error_bound read the whole LotoSweep and return (N,) arrays, NaN where excluded;
nothing refits from the raw data or redoes the base DARE per trajectory.

score_all never materializes IF_m_k: with v = H^-1 rhs from the Riccati
artifacts, each score is sysid.eta_dot's eta_k^T v for every k at once, plus
the direct covariance trace for the stochastic one. The exact shift decomposes as

  dJ_k = (zeta - h)^T dtheta_k + direct_k + R_ric + R_w + R_cross,

an identity once the three remainders are computed by explicit subtraction;
diagnostics here evaluate the remainders and the a priori bound on R_w.
"""
from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .errors import NoStabilizingSolution
from .linalg import solve_dare
from .lqr import RiccatiArtifacts
from .sysid import (
    ModelFit,
    covariance_direct_term,
    eta_dot,
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


def score_all(fit: ModelFit, art: RiccatiArtifacts):
    """(if_fixed, if_stoch, direct) for every trajectory: two eta_dot calls and one direct trace."""
    direct = direct_trace_term(fit, art)
    return eta_dot(fit, art.v_fixed), eta_dot(fit, art.v_stoch) + direct, direct


@dataclass(frozen=True)
class LotoSweep:
    """Every exact removal at once: row k is the refit without trajectory k."""

    theta: np.ndarray      # (N, p) refit parameters
    W: np.ndarray          # (N, n_x, n_x) refit residual covariances
    P: np.ndarray          # (N, n_x, n_x) refit Riccati solutions, NaN where excluded
    excluded: np.ndarray   # (N,) bool, the refit DARE has no stabilizing solution


def loto_record(A_k, B_k, Q, R) -> np.ndarray | None:
    """One removal's refit DARE; None if it has no stabilizing solution."""
    try:
        return solve_dare(A_k, B_k, Q, R)
    except NoStabilizingSolution:
        return None


def exact_loto_sweep(fit: ModelFit, art: RiccatiArtifacts) -> LotoSweep:
    """Every removal: one stacked refit, then one refit DARE per trajectory at art's Q, R."""
    theta, W = loto_refit(fit)
    A, B = theta_to_ab(theta, fit.n_x, fit.n_u)
    P = np.full_like(W, np.nan)
    for k in range(fit.N):
        P_k = loto_record(A[k], B[k], art.Q, art.R)
        if P_k is not None:
            P[k] = P_k
    return LotoSweep(theta=theta, W=W, P=P, excluded=np.isnan(P[:, 0, 0]))


@dataclass(frozen=True)
class DecompositionDiagnostics:
    """Remainders of the exact cost-shift decomposition: (N,) arrays, NaN where excluded."""

    delta_theta_norm: np.ndarray
    r_ric: np.ndarray            # Riccati Taylor remainder traced against W_hat
    r_w: np.ndarray              # Tr(P0 R_w) with R_w the covariance-shift remainder
    r_cross: np.ndarray          # Tr((P_k - P0)(W_k - W_hat))
    bound_w: np.ndarray          # L_phi^2 |dtheta|^2 + 4 (T_k/M) L_e L_phi |dtheta|


def diagnostics_from_record(
    fit: ModelFit, art: RiccatiArtifacts, sweep: LotoSweep
) -> DecompositionDiagnostics:
    """The remainders and the bound on R_w for every removal of the sweep at once."""
    # an excluded removal's NaN row carries through every field
    dtheta = np.where(sweep.excluded[:, None], np.nan, sweep.theta - fit.theta)
    nd = np.linalg.norm(dtheta, axis=1)
    dP = sweep.P - art.P0
    r_ric = np.trace(dP @ fit.W_hat, axis1=1, axis2=2) - dtheta @ art.zeta

    T = fit.lengths.astype(float)
    DW = sweep.W - fit.W_hat
    # (E^T Z D + D^T Z^T E) / M over the rows Phi_s dtheta = z_s^T D, read off
    # the fit's Z^T E instead of a pass over the M transitions
    D = dtheta.reshape(fit.N, fit.q, fit.n_x)
    cross_mat = (fit.ZtE.T @ D + D.swapaxes(1, 2) @ fit.ZtE) / fit.M
    R_w_mat = DW - covariance_direct_term(fit) + cross_mat
    r_w = np.trace(art.P0 @ R_w_mat, axis1=1, axis2=2)
    r_cross = np.trace(dP @ DW, axis1=1, axis2=2)
    # L_phi, L_e: the largest row norms of Z and of the residuals
    L_phi, L_e = (np.linalg.norm(a, axis=1).max() for a in (fit.data.Z, fit.residuals))
    bound_w = L_phi**2 * nd**2 + 4.0 * (T / fit.M) * L_e * L_phi * nd
    return DecompositionDiagnostics(nd, r_ric, r_w, r_cross, bound_w)


def modular_error_bound(
    fit: ModelFit,
    art: RiccatiArtifacts,
    sweep: LotoSweep,
    diag: DecompositionDiagnostics,
) -> np.ndarray:
    """Upper bound on |IF_stoch_k - dJ_k| for every k, from the surrogate gap and the remainders."""
    if_m = model_influence(fit)
    gap = np.linalg.norm(if_m - (sweep.theta - fit.theta), axis=1)
    sens = float(np.linalg.norm(art.zeta - art.h))
    return sens * gap + abs(diag.r_ric) + abs(diag.r_w) + abs(diag.r_cross)


def csv_cell(x) -> str:
    """One CSV cell: an integer as is, a float in round-trip .17g, None or non-finite empty."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "" if x is None or not np.isfinite(x) else format(float(x), ".17g")


def csv_column(col) -> list:
    """csv_cell of each entry of an array column: one bound .17g format over a float
    column's tolist(), non-finite entries empty; integers otherwise."""
    col = np.asarray(col)
    if col.dtype.kind != "f":
        return [str(int(x)) for x in col.tolist()]
    cells = list(map("{:.17g}".format, col.tolist()))
    for i in np.flatnonzero(~np.isfinite(col)).tolist():
        cells[i] = ""
    return cells


def write_csv(path, header, columns) -> None:
    """The one CSV writer: the header, then row i of the cell columns (csv_column strings
    hold no comma, quote or line break) joined by commas; every line ends in LF."""
    with open(path, "w", newline="") as fh:
        fh.write("\n".join([",".join(header), *map(",".join, zip(*columns))]) + "\n")


@dataclass(frozen=True)
class ScoreTable:
    """Per-trajectory scores plus, when the exact sweep ran, the exact shifts and remainders."""

    lengths: np.ndarray
    if_fixed: np.ndarray
    if_stoch: np.ndarray
    direct_trace: np.ndarray
    delta_j_exact: np.ndarray | None = None   # nan where excluded
    excluded: np.ndarray | None = None        # bool, refit DARE failures
    diagnostics: DecompositionDiagnostics | None = None
    score_time: float = 0.0                   # score_all alone
    refit_time: float | None = None           # the exact sweep and its diagnostics

    @property
    def N(self) -> int:
        return len(self.if_fixed)

    def excluded_indices(self) -> list[int]:
        return [] if self.excluded is None else np.flatnonzero(self.excluded).tolist()

    def to_csv(self, path) -> dict:
        """Write the score CSV and return its cells by column name."""
        n, diag = self.N, self.diagnostics
        remainders = (None,) * 3 if diag is None else (diag.r_ric, diag.r_w, diag.r_cross)
        cols = (range(n), self.lengths, self.if_fixed, self.if_stoch, self.delta_j_exact,
                self.direct_trace, *remainders, [0] * n if self.excluded is None else self.excluded)
        cells = {c: [""] * n if col is None else csv_column(col)
                 for c, col in zip(SCORE_CSV_HEADER, cols)}
        write_csv(path, SCORE_CSV_HEADER, cells.values())
        return cells


def build_score_table(fit: ModelFit, art: RiccatiArtifacts, with_exact: bool = False) -> ScoreTable:
    """Score every trajectory; optionally run the exact removal sweep."""
    t0 = perf_counter()
    if_fixed, if_stoch, direct = score_all(fit, art)
    score_time = perf_counter() - t0

    exact = {}
    if with_exact:
        t0 = perf_counter()
        sweep = exact_loto_sweep(fit, art)
        base_cost = float(np.trace(art.P0 @ fit.W_hat))
        exact = {
            "delta_j_exact": np.trace(sweep.P @ sweep.W, axis1=1, axis2=2) - base_cost,
            "excluded": sweep.excluded,
            "diagnostics": diagnostics_from_record(fit, art, sweep),
            "refit_time": perf_counter() - t0,
        }
    return ScoreTable(lengths=fit.lengths.copy(), if_fixed=if_fixed, if_stoch=if_stoch,
                      direct_trace=direct, score_time=score_time, **exact)
