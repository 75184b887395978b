"""Plug-in LQR cost, its Riccati-side gradient, and the residual-channel gradient.

The certainty-equivalent controller for identified (A, B) costs
J = Tr(P0 W_hat) per stage in steady state, where P0 solves the discrete
Riccati equation and W_hat is the fit's residual covariance plugged in. Both
gradients of that cost with respect to theta = vec([A B]) are assembled here:

* zeta, the gradient through the Riccati solution at fixed W_hat,
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

from .linalg import gain_and_closed_loop, solve_dare, solve_dlyap
from .sysid import ModelFit

@dataclass(frozen=True)
class RiccatiArtifacts:
    """What the scores and exact shifts share: Q, R, one DARE, one Lyapunov, two solves."""

    Q: np.ndarray         # state weight
    R: np.ndarray         # input weight
    P0: np.ndarray        # stabilizing Riccati solution
    K0: np.ndarray        # optimal gain
    A_cl: np.ndarray      # A - B K0
    zeta: np.ndarray      # grad_theta Tr(P(theta) W_hat) at fixed W_hat
    h: np.ndarray         # residual channel: grad_theta Tr(P0 W_hat(theta)) = -h
    v_fixed: np.ndarray   # H^-1 zeta
    v_stoch: np.ndarray   # H^-1 (zeta - h)


def riccati_gradient(P0, K0, A_cl, W) -> np.ndarray:
    """Gradient of theta -> Tr(P(theta) W) at fixed W.

    Differentiating the Riccati fixed point at the optimal gain leaves only
    the explicit (A, B) dependence (the gain's own derivative drops out), so
    with Lambda solving Lambda - A_cl Lambda A_cl^T = W the gradient blocks
    are  dA = 2 P0 A_cl Lambda  and  dB = -2 P0 A_cl Lambda K0^T,
    stacked column-major like theta itself.
    """
    Lam = solve_dlyap(A_cl, W)
    GA = 2.0 * P0 @ A_cl @ Lam
    GB = -GA @ K0.T
    return np.hstack([GA, GB]).ravel(order="F")


def residual_channel_gradient(fit: ModelFit, P0: np.ndarray) -> np.ndarray:
    """h = (2/M) sum_s Phi_s^T P0 e_s = (2/M) vec(Z^T E P0); grad Tr(P0 W_hat(theta)) = -h."""
    return 2.0 / fit.M * (fit.ZtE @ P0).ravel()


def riccati_artifacts(fit: ModelFit, Q: np.ndarray, R: np.ndarray) -> RiccatiArtifacts:
    """Solve the DARE once and precompute the shared score vectors.

    The cost is evaluated at the fit's plug-in covariance W_hat; copies of Q
    and R are kept so the exact sweep refits at the weights the scores use.
    Both H^-1 solves are one q x q solve on the fit's Gram factor (hessian_solve).
    """
    A, B = fit.A, fit.B
    Q, R = np.array(Q, dtype=float), np.array(R, dtype=float)   # not the caller's arrays
    P0 = solve_dare(A, B, Q, R)
    K0, A_cl = gain_and_closed_loop(A, B, P0, R)
    zeta = riccati_gradient(P0, K0, A_cl, fit.W_hat)
    h = residual_channel_gradient(fit, P0)
    # v_stoch is the combined sensitivity of Tr(P(theta) W_hat(theta))
    v_fixed, v_stoch = fit.hessian_solve(np.stack([zeta, zeta - h]))
    return RiccatiArtifacts(
        Q=Q,
        R=R,
        P0=P0,
        K0=K0,
        A_cl=A_cl,
        zeta=zeta,
        h=h,
        v_fixed=v_fixed,
        v_stoch=v_stoch,
    )
