"""Plug-in LQR cost, its Riccati-side gradient, and the residual-channel gradient.

The certainty-equivalent controller for identified (A, B) costs
J = Tr(P0 Sigma) per stage in steady state, where P0 solves the discrete
Riccati equation and Sigma is the process noise covariance plugged in. Both
gradients of that cost with respect to theta = vec([A B]) are assembled here:

* zeta_Sigma, the gradient through the Riccati solution at fixed Sigma,
  reconstructed from one extra Lyapunov solve (no per-coordinate resolves);
* h, the gradient of Tr(P0 W_hat(theta)) through the residual covariance at
  fixed P0, with sign convention grad = -h.

The combined first-order sensitivity of theta -> Tr(P(theta) W_hat(theta)) is
therefore zeta - h, and that combination is what the stochastic influence
score uses downstream.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import cg_solve, solve_dare, solve_dlyap, symmetrize
from .sysid import ModelFit

__all__ = [
    "RiccatiArtifacts",
    "riccati_gradient",
    "residual_channel_gradient",
    "riccati_artifacts",
    "plug_in_cost",
    "stationary_cost_check",
]


@dataclass(frozen=True)
class RiccatiArtifacts:
    """Everything the per-trajectory scores share: one DARE, one Lyapunov, two solves."""

    P0: np.ndarray        # stabilizing Riccati solution
    K0: np.ndarray        # optimal gain
    A_cl: np.ndarray      # A - B K0
    Sigma: np.ndarray     # covariance the cost was evaluated at
    zeta: np.ndarray      # grad_theta Tr(P(theta) Sigma)
    h: np.ndarray         # residual channel: grad_theta Tr(P0 W_hat(theta)) = -h
    v_fixed: np.ndarray   # H^-1 zeta
    v_stoch: np.ndarray   # H^-1 (zeta - h)
    c_fixed: float        # lam theta^T v_fixed
    c_stoch: float        # lam theta^T v_stoch


def gain_and_closed_loop(A: np.ndarray, B: np.ndarray, P0: np.ndarray, R: np.ndarray):
    K0 = np.linalg.solve(R + B.T @ P0 @ B, B.T @ P0 @ A)
    return K0, A - B @ K0


def riccati_gradient(A, B, P0, K0, A_cl, Sigma) -> np.ndarray:
    """Gradient of theta -> Tr(P(theta) Sigma) at fixed Sigma.

    Differentiating the Riccati fixed point at the optimal gain leaves only
    the explicit (A, B) dependence (the gain's own derivative drops out), so
    with Lambda solving Lambda - A_cl Lambda A_cl^T = Sigma the gradient blocks
    are  dA = 2 P0 A_cl Lambda  and  dB = -2 P0 A_cl Lambda K0^T,
    stacked column-major like theta itself.
    """
    Lam = solve_dlyap(A_cl, Sigma)
    GA = 2.0 * P0 @ A_cl @ Lam
    GB = -GA @ K0.T
    return np.hstack([GA, GB]).ravel(order="F")


def residual_channel_gradient(fit: ModelFit, P0: np.ndarray) -> np.ndarray:
    """h = (2/M) sum_s Phi_s^T P0 e_s, so grad_theta Tr(P0 W_hat(theta)) = -h at theta_hat."""
    Z = fit.data.Z
    return 2.0 / fit.M * (Z.T @ fit.residuals @ P0).ravel()


def riccati_artifacts(
    fit: ModelFit,
    Q: np.ndarray,
    R: np.ndarray,
    Sigma: np.ndarray,
    solver: str = "dense",
    cg_tol: float = 1e-10,
) -> RiccatiArtifacts:
    """Solve the DARE once and precompute the shared score vectors.

    solver picks how H v = rhs is solved: "dense" uses the fit's Gram
    factor (one q x q solve), "cg" runs matrix-free conjugate gradients on the Gram structure.
    """
    A, B = fit.A, fit.B
    P0 = solve_dare(A, B, Q, R)
    K0, A_cl = gain_and_closed_loop(A, B, P0, R)
    Sigma = symmetrize(np.asarray(Sigma, dtype=float))
    zeta = riccati_gradient(A, B, P0, K0, A_cl, Sigma)
    h = residual_channel_gradient(fit, P0)
    rhs_stoch = zeta - h   # combined sensitivity of Tr(P(theta) W_hat(theta))
    if solver == "dense":
        v_fixed = fit.hessian_solve(zeta)
        v_stoch = fit.hessian_solve(rhs_stoch)
    elif solver == "cg":
        op = fit.hessian_operator()
        v_fixed = cg_solve(op, zeta, tol=cg_tol)
        v_stoch = cg_solve(op, rhs_stoch, tol=cg_tol)
    else:
        raise ValueError(f"unknown solver {solver!r}")
    return RiccatiArtifacts(
        P0=P0,
        K0=K0,
        A_cl=A_cl,
        Sigma=Sigma,
        zeta=zeta,
        h=h,
        v_fixed=v_fixed,
        v_stoch=v_stoch,
        c_fixed=float(fit.lam * fit.theta @ v_fixed),
        c_stoch=float(fit.lam * fit.theta @ v_stoch),
    )


def plug_in_cost(P: np.ndarray, Sigma: np.ndarray) -> float:
    """Steady-state stage cost Tr(P Sigma)."""
    return float(np.trace(P @ Sigma))


def stationary_cost_check(A, B, Q, R, W):
    """Two routes to the stationary cost: Tr((Q + K0'RK0) Sigma_ss) vs Tr(P0 W).

    Sigma_ss is the stationary state covariance of the optimal closed loop
    driven by noise W. Equality of the two is a consistency check on the
    DARE and Lyapunov solvers together.
    """
    P0 = solve_dare(A, B, Q, R)
    K0, A_cl = gain_and_closed_loop(A, B, P0, R)
    Sigma_ss = solve_dlyap(A_cl, np.asarray(W, dtype=float))
    lhs = float(np.trace((Q + K0.T @ R @ K0) @ Sigma_ss))
    rhs = float(np.trace(P0 @ W))
    return lhs, rhs
