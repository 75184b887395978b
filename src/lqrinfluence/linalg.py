"""Dense linear-algebra kernels: SPD factorization, CG, DARE and Lyapunov solvers, expm.

Everything here operates on small dense matrices (state dimensions of a few,
regressor dimensions of a few dozen: the ridge Hessian is factored through
its q x q Gram, never as the p x p Kronecker product), so simple algorithms
are preferred: LAPACK Cholesky with a relative pivot floor, plain conjugate
gradients, and a Kronecker vectorization solve for the Lyapunov equation.
The Riccati equation is solved by structure-preserving doubling, which
converges quadratically, and every solution it returns is certified by its
residual. The matrix exponential is Pade scaling and squaring (Higham 2005).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatch,
    NoConvergence,
    NoStabilizingSolution,
    NotPositiveDefinite,
    UnstableClosedLoop,
)

# pivots below this fraction of the largest diagonal entry are treated as zero
_PIVOT_RTOL = 1e-14
# relative asymmetry tolerated in matrices required to be symmetric
_SYM_RTOL = 1e-10
# relative DARE residual above which a Riccati solution is rejected
_DARE_RESIDUAL_MAX = 1e-10
# doubling k covers 2^k Riccati steps; 2^64 steps converge for any spectral radius
# below one that double precision can represent
_DOUBLING_MAX = 64
# iterate entries past this mean divergence; below it, every product formed in
# one doubling step stays under 1e250, far from overflow
_DOUBLING_BOUND = 1e50
# largest 1-norm at which the [13/13] Pade approximant's backward error is
# below double-precision unit roundoff, and its coefficients (Higham 2005)
_PADE_THETA_13 = 5.371920351148152
_PADE_13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
            1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
            33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)


@dataclass(frozen=True)
class SpdFactor:
    """Lower-triangular Cholesky factor L with H = L L^T."""

    L: np.ndarray

    @property
    def dim(self) -> int:
        return self.L.shape[0]


@dataclass(frozen=True)
class LinearOperator:
    """Matrix-free symmetric operator: dimension plus an apply callable."""

    dim: int
    apply: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def from_matrix(cls, mat: np.ndarray) -> "LinearOperator":
        m = np.asarray(mat, dtype=float)
        return cls(dim=m.shape[0], apply=lambda v: m @ v)


def _check_square(mat: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(mat, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    return m


def _check_symmetric(mat: np.ndarray, name: str) -> np.ndarray:
    m = _check_square(mat, name)
    scale = max(1.0, float(np.abs(m).max(initial=0.0)))
    if np.abs(m - m.T).max(initial=0.0) > _SYM_RTOL * scale:
        raise ValueError(f"{name} is not symmetric")
    return m


def symmetrize(mat: np.ndarray) -> np.ndarray:
    """(X + X^T)/2; bitwise symmetric because float addition commutes."""
    return (mat + mat.T) / 2.0


def spectral_radius(mat: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(mat))))


def cholesky_factor(mat: np.ndarray) -> SpdFactor:
    """Factor a symmetric positive definite matrix as L L^T.

    Raises NotPositiveDefinite when LAPACK finds the matrix indefinite or a
    squared pivot diag(L)^2 falls at or below 1e-14 times the largest
    diagonal entry.
    """
    h = _check_symmetric(mat, "matrix")
    piv_floor = _PIVOT_RTOL * float(np.max(np.diag(h), initial=0.0))
    try:
        L = np.linalg.cholesky(h)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"matrix is not positive definite: {exc}") from exc
    low = np.diag(L) ** 2 <= piv_floor
    if low.any():
        j = int(np.argmax(low))
        raise NotPositiveDefinite(
            f"pivot {L[j, j] ** 2:.3e} at column {j} under floor {piv_floor:.3e}"
        )
    return SpdFactor(L=L)


def solve_spd(factor: SpdFactor, rhs: np.ndarray) -> np.ndarray:
    """Solve H x = rhs given the Cholesky factor of H. rhs may be a vector or matrix."""
    r = np.asarray(rhs, dtype=float)
    if r.shape[0] != factor.dim:
        raise DimensionMismatch(
            f"rhs has leading dimension {r.shape[0]}, factor has {factor.dim}"
        )
    return np.linalg.solve(factor.L.T, np.linalg.solve(factor.L, r))


def cg_solve(
    op: LinearOperator,
    rhs: np.ndarray,
    tol: float = 1e-10,
    max_iter: int | None = None,
) -> np.ndarray:
    """Conjugate gradients for a symmetric positive definite operator, from x = 0.

    Returns x with ||op(x) - rhs|| <= tol * ||rhs||; raises NoConvergence
    (carrying the final residual norm) when the iteration budget runs out.
    """
    b = np.asarray(rhs, dtype=float)
    if b.shape != (op.dim,):
        raise DimensionMismatch(f"rhs shape {b.shape} does not match operator dim {op.dim}")
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros_like(b)
    if max_iter is None:
        max_iter = 10 * op.dim

    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rdotr = r @ r
    target = (tol * bnorm) ** 2
    for _ in range(max_iter):
        if rdotr <= target:
            break
        ap = op.apply(p)
        alpha = rdotr / (p @ ap)
        x += alpha * p
        r -= alpha * ap
        new_rdotr = r @ r
        p = r + (new_rdotr / rdotr) * p
        rdotr = new_rdotr
    true_res = float(np.linalg.norm(op.apply(x) - b))
    if true_res > tol * bnorm:
        raise NoConvergence(
            f"cg residual {true_res:.3e} above {tol * bnorm:.3e} after {max_iter} iterations",
            residual=true_res,
        )
    return x


def _max_abs(mat: np.ndarray) -> float:
    # the max-entry norm squares nothing, so it cannot overflow where a Frobenius norm would
    return float(np.abs(mat).max(initial=0.0))


def dare_residual(A, B, Q, R, P) -> float:
    """Relative DARE residual ||Q + A'PA - A'PB (R + B'PB)^-1 B'PA - P||_F / ||P||_F."""
    apb = A.T @ P @ B
    resid = Q + A.T @ P @ A - apb @ np.linalg.solve(R + B.T @ P @ B, apb.T) - P
    return float(np.linalg.norm(resid) / max(np.linalg.norm(P), np.finfo(float).tiny))


def _doubling(A: np.ndarray, G: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Structure-preserving doubling for P = H + A'P (I + G P)^-1 A.

    H_k equals the fixed-point iterate P_(2^k) started from P_0 = 0, so it
    converges quadratically (Lin & Xu 2006); it stops once a doubling moves H
    by less than round-off.  Raises NoStabilizingSolution when an iterate
    entry grows past _DOUBLING_BOUND, before any product can overflow, or
    when _DOUBLING_MAX doublings do not converge.
    """
    n = A.shape[0]
    eye = np.eye(n)
    for k in range(_DOUBLING_MAX):
        # W^-1 [A, G] with W = I + G H; eigenvalues of W are >= 1 since G, H are PSD
        X = np.linalg.solve(eye + G @ H, np.hstack([A, G]))
        step = symmetrize(A.T @ H @ X[:, :n])
        G = symmetrize(G + A @ X[:, n:] @ A.T)
        A = A @ X[:, :n]
        H = H + step
        size = max(_max_abs(A), _max_abs(G), _max_abs(H))
        if not size <= _DOUBLING_BOUND:
            raise NoStabilizingSolution(
                f"riccati doubling diverged: iterate entries reached {size:.3e} "
                f"after {k + 1} doublings"
            )
        if _max_abs(step) <= np.finfo(float).eps * _max_abs(H):
            return H
    raise NoStabilizingSolution(f"riccati doubling did not converge in {_DOUBLING_MAX} doublings")


def solve_dare(A: np.ndarray, B: np.ndarray, Q: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Stabilizing solution of P = Q + A'PA - A'PB (R + B'PB)^-1 B'PA.

    Structure-preserving doubling on G = B R^-1 B'.  The returned P carries a
    certificate: its relative residual (dare_residual) is at most
    _DARE_RESIDUAL_MAX and its closed loop A - B K is stable; otherwise, or
    when the doubling diverges, NoStabilizingSolution is raised.
    """
    A = _check_square(A, "A")
    n = A.shape[0]
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or B.shape[0] != n:
        raise DimensionMismatch(f"B shape {B.shape} incompatible with A shape {A.shape}")
    Q = _check_symmetric(Q, "Q")
    R = _check_symmetric(R, "R")
    if Q.shape[0] != n or R.shape[0] != B.shape[1]:
        raise DimensionMismatch("Q/R dimensions do not match A/B")
    L_inv_bt = np.linalg.solve(cholesky_factor(R).L, B.T)
    P = _doubling(A, L_inv_bt.T @ L_inv_bt, symmetrize(Q))

    resid = dare_residual(A, B, Q, R, P)
    if resid > _DARE_RESIDUAL_MAX:
        raise NoStabilizingSolution(
            f"riccati residual {resid:.3e} above certificate bound {_DARE_RESIDUAL_MAX:.0e}"
        )
    gain = np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
    if spectral_radius(A - B @ gain) >= 1.0:
        raise NoStabilizingSolution("closed loop from the Riccati solution is not stable")
    return P


def solve_dlyap(A_cl: np.ndarray, Sigma: np.ndarray) -> np.ndarray:
    """Solve X - A_cl X A_cl^T = Sigma for stable A_cl.

    Kronecker vectorization for state dimension at most 8 (the regime here);
    a squaring accumulation fallback above that. Output exactly symmetrized.
    """
    A = _check_square(A_cl, "A_cl")
    S = _check_symmetric(Sigma, "Sigma")
    n = A.shape[0]
    if S.shape[0] != n:
        raise DimensionMismatch("Sigma dimension does not match A_cl")
    if spectral_radius(A) >= 1.0 - 1e-9:
        raise UnstableClosedLoop("spectral radius of A_cl is not below one")

    if n * n <= 64:
        lhs = np.eye(n * n) - np.kron(A, A)
        x = np.linalg.solve(lhs, S.ravel(order="F")).reshape((n, n), order="F")
        return symmetrize(x)

    # doubling: X = sum_j A^j Sigma (A^T)^j accumulated in log steps
    X = S.copy()
    Apow = A.copy()
    for _ in range(200):
        incr = Apow @ X @ Apow.T
        X = X + incr
        if np.linalg.norm(incr) <= 1e-16 * max(np.linalg.norm(X), 1e-300):
            return symmetrize(X)
        Apow = Apow @ Apow
    raise NoConvergence("lyapunov accumulation did not converge", residual=None)


def expm(mat: np.ndarray) -> np.ndarray:
    """Matrix exponential by [13/13] Pade scaling and squaring (Higham 2005).

    The matrix is scaled by 2^-s into the range where the approximant is
    exact to unit roundoff, and the approximant is squared s times.
    """
    A = _check_square(mat, "matrix")
    eye = np.eye(A.shape[0])
    norm = float(np.abs(A).sum(axis=0).max(initial=0.0))
    s = max(0, int(np.ceil(np.log2(norm / _PADE_THETA_13)))) if norm > 0.0 else 0
    A = A * 2.0 ** -s   # exact: a power of two
    b = _PADE_13
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A2 @ A4
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
    V = A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2) + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye
    X = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        X = X @ X
    return X
