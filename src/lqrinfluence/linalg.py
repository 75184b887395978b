"""Dense linear-algebra kernels: SPD factorization, DARE and Lyapunov solvers, expm.

Everything here operates on small dense matrices (state dimensions of a few,
regressor dimensions of a few dozen: the ridge Hessian is factored through
its q x q Gram, never as the p x p Kronecker product), so simple algorithms
are preferred: LAPACK Cholesky with a relative pivot floor and a Kronecker
vectorization solve for the Lyapunov equation.
The Cholesky factor and its solve also take a (N, n, n) stack of systems,
each checked on its own, so N small systems cost one call.
The Riccati equation is solved by structure-preserving doubling, which
converges quadratically; its checked Q and R and R's factor are kept for the
next call at equal weights, since the exact sweep solves N DAREs at one
(Q, R). Every Riccati and Lyapunov solution returned is certified by its
residual. The matrix exponential is Pade scaling and squaring (Higham 2005).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

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
# relative Lyapunov residual above which a solve_dlyap solution is rejected
_DLYAP_RESIDUAL_MAX = 1e-10
# the square root of the smallest normal: below it, a Frobenius norm's squares may underflow
_NORM_MIN = np.sqrt(np.finfo(float).tiny)
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
    """Lower-triangular Cholesky factor L with H = L L^T; a leading axis stacks systems."""

    L: np.ndarray

    @property
    def dim(self) -> int:
        return self.L.shape[-1]


def _check_square(mat: np.ndarray, name: str, stacked: bool = False) -> np.ndarray:
    m = np.asarray(mat, dtype=float)
    if m.ndim not in ((2, 3) if stacked else (2,)) or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"{name} must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} has non-finite entries")
    return m


def _system(m: np.ndarray, i: int, label: str = "system") -> str:
    # names system i of a stack in an error message; a single matrix needs no name
    return f"{label} {i}: " if m.ndim == 3 else ""


def _check_symmetric(mat: np.ndarray, name: str, stacked: bool = False) -> np.ndarray:
    m = _check_square(mat, name, stacked)
    scale = np.abs(m).max(axis=(-2, -1), initial=1.0)   # max(1, largest entry) per system
    bad = np.abs(m - m.swapaxes(-2, -1)).max(axis=(-2, -1), initial=0.0) > _SYM_RTOL * scale
    if bad.any():
        raise ValueError(f"{_system(m, int(np.argmax(bad)))}{name} is not symmetric")
    return m


def symmetrize(mat: np.ndarray) -> np.ndarray:
    """(X + X^T)/2 of a matrix or of each in a stack; bitwise symmetric because float addition commutes."""
    return (mat + mat.swapaxes(-2, -1)) / 2.0


def spectral_radius(mat: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(mat))))


def _first_unfactorable(h: np.ndarray) -> int:
    """Index of the first system LAPACK rejects: its error does not say which one failed."""
    for i, m in enumerate(h.reshape((-1,) + h.shape[-2:])):
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            break
    return i


def cholesky_factor(mat: np.ndarray, name: str = "matrix", label: str = "system") -> SpdFactor:
    """Factor a symmetric positive definite matrix, or each of a (N, n, n) stack, as L L^T.

    Every system is checked on its own: NotPositiveDefinite, naming the
    failing system of a stack as "<label> <index>: <name>", when LAPACK finds
    it indefinite or a squared pivot diag(L)^2 falls at or below 1e-14 times
    its largest diagonal entry.
    """
    return _cholesky(_check_symmetric(mat, name, stacked=True), name, label)


def _cholesky(h: np.ndarray, name: str, label: str = "system") -> SpdFactor:
    # cholesky_factor past the symmetry check, its errors naming the matrix name
    try:
        L = np.linalg.cholesky(h)
    except np.linalg.LinAlgError as exc:   # its message repeats ours
        raise NotPositiveDefinite(
            f"{_system(h, _first_unfactorable(h), label)}{name} is not positive definite"
        ) from exc
    piv = L.diagonal(axis1=-2, axis2=-1) ** 2
    floor = _PIVOT_RTOL * h.diagonal(axis1=-2, axis2=-1).max(axis=-1, initial=0.0)
    low = piv <= floor[..., None]
    if low.any():
        n = h.shape[-1]
        i, j = divmod(int(np.argmax(low)), n)
        raise NotPositiveDefinite(f"{_system(h, i, label)}{name} pivot "
                                  f"{piv.reshape(-1, n)[i, j]:.3e} at column {j} "
                                  f"under floor {floor.reshape(-1)[i]:.3e}")
    return SpdFactor(L=L)


def solve_spd(factor: SpdFactor, rhs: np.ndarray) -> np.ndarray:
    """Solve H x = rhs given the Cholesky factor of H.

    rhs may be a vector or matrix; for a stacked factor, a (N, n) stack of
    vectors or a (N, n, r) stack of matrices, system i solved for row i.
    """
    r = np.asarray(rhs, dtype=float)
    lead = factor.L.shape[:-1]
    if r.shape[:len(lead)] != lead:
        raise DimensionMismatch(
            f"rhs has leading dimensions {r.shape[:len(lead)]}, factor has {lead}"
        )
    if factor.L.ndim == 3 and r.ndim == 2:
        return solve_spd(factor, r[..., None])[..., 0]
    return np.linalg.solve(factor.L.swapaxes(-2, -1), np.linalg.solve(factor.L, r))


def gain_and_closed_loop(A: np.ndarray, B: np.ndarray, P: np.ndarray, R: np.ndarray):
    """Gain K = (R + B'PB)^-1 B'PA and closed loop A - B K: the one place either is formed."""
    K = np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
    return K, A - B @ K


def _dare_residual(A, Q, P, A_cl) -> float:
    return _relative(Q + A.T @ P @ A_cl - P, P)


def dare_residual(A, B, Q, R, P) -> float:
    """Relative DARE residual ||Q + A'P A_cl - P||_F / ||P||_F, A_cl from gain_and_closed_loop."""
    return _dare_residual(A, Q, P, gain_and_closed_loop(A, B, P, R)[1])


def _doubling(A: np.ndarray, G: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Structure-preserving doubling for P = H + A'P (I + G P)^-1 A.

    H_k equals the fixed-point iterate P_(2^k) started from P_0 = 0, so it
    converges quadratically (Lin & Xu 2006); it stops once a doubling moves H
    by less than round-off.  Raises NoStabilizingSolution when an iterate
    entry is NaN or grows past _DOUBLING_BOUND, before any product can
    overflow, when I + G H is numerically singular, or when _DOUBLING_MAX
    doublings do not converge.  It writes only its own copies of the arguments.
    """
    n = A.shape[0]
    eye = np.eye(n)
    eps = np.finfo(float).eps
    # [A, G] is the solve's right-hand side in place; H and its last step are
    # stacked so that one reduction reads both maxima
    AG = np.empty((n, 2 * n))
    HS = np.empty((2, n, n))
    AG[:, :n], AG[:, n:], HS[0] = A, G, H
    A, G = AG[:, :n], AG[:, n:]
    H, step = HS
    for k in range(_DOUBLING_MAX):
        # W^-1 [A, G], W = I + G H: G, H PSD give W eigenvalues >= 1 only in exact arithmetic
        try:
            X = np.linalg.solve(eye + G @ H, AG)
        except np.linalg.LinAlgError as exc:
            raise NoStabilizingSolution(
                f"riccati doubling step {k + 1} failed: I + GH is singular") from exc
        AX = X[:, :n]
        S = A.T @ H @ AX
        np.divide(S + S.T, 2.0, out=step)
        S = G + A @ X[:, n:] @ A.T
        np.divide(S + S.T, 2.0, out=G)
        np.matmul(A, AX, out=A)   # numpy reads A before it overwrites it
        H += step
        size = np.abs(AG).max()
        h, s = np.abs(HS).max(axis=(1, 2))
        # max-entry norms square nothing, so they cannot overflow; each meets the
        # bound on its own, so a NaN fails its comparison wherever it sits
        if not (size <= _DOUBLING_BOUND and h <= _DOUBLING_BOUND):
            raise NoStabilizingSolution(
                f"riccati doubling diverged: iterate entries reached {np.maximum(size, h):.3e} "
                f"after {k + 1} doublings"
            )
        if s <= eps * h:
            return H
    raise NoStabilizingSolution(f"riccati doubling did not converge in {_DOUBLING_MAX} doublings")


def solve_dare(A: np.ndarray, B: np.ndarray, Q: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Stabilizing solution of P = Q + A'PA - A'PB (R + B'PB)^-1 B'PA.

    Structure-preserving doubling on G = B R^-1 B'.  The returned P carries a
    certificate read off the closed loop A_cl of gain_and_closed_loop, the one
    the scores use: its relative residual (dare_residual) is at most
    _DARE_RESIDUAL_MAX and A_cl is stable; otherwise, or when the doubling
    fails, NoStabilizingSolution is raised.  No argument is written.
    """
    A = _check_square(A, "A")
    n = A.shape[0]
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or B.shape[0] != n:
        raise DimensionMismatch(f"B shape {B.shape} incompatible with A shape {A.shape}")
    Q, R, H, L = _dare_weights(B.shape, *_shape_and_bytes(Q), *_shape_and_bytes(R))
    L_inv_bt = np.linalg.solve(L, B.T)
    P = _doubling(A, L_inv_bt.T @ L_inv_bt, H)

    A_cl = gain_and_closed_loop(A, B, P, R)[1]
    resid = _dare_residual(A, Q, P, A_cl)
    if resid > _DARE_RESIDUAL_MAX:
        raise NoStabilizingSolution(
            f"riccati residual {resid:.3e} above certificate bound {_DARE_RESIDUAL_MAX:.0e}"
        )
    if spectral_radius(A_cl) >= 1.0:
        raise NoStabilizingSolution("closed loop from the Riccati solution is not stable")
    return P


def _shape_and_bytes(mat) -> tuple:
    m = np.asarray(mat, dtype=float)
    return m.shape, m.tobytes()


@functools.lru_cache(maxsize=1)
def _dare_weights(b_shape: tuple, q_shape: tuple, q: bytes, r_shape: tuple, r: bytes) -> tuple:
    """solve_dare's checks of Q and R against B's shape, then sym(Q) and R's
    Cholesky factor: (Q, R, sym(Q), L), all read-only.

    Keyed on the values of Q and R, so a call at equal weights reuses the
    checks and the factor: the exact sweep solves N refit DAREs at one (Q, R).
    """
    Q = _check_symmetric(np.frombuffer(q).reshape(q_shape), "Q")
    R = _check_symmetric(np.frombuffer(r).reshape(r_shape), "R")
    if Q.shape[0] != b_shape[0] or R.shape[0] != b_shape[1]:
        raise DimensionMismatch("Q/R dimensions do not match A/B")
    H, L = symmetrize(Q), _cholesky(R, "R").L
    H.flags.writeable = L.flags.writeable = False
    return Q, R, H, L


@np.errstate(over="ignore")   # as a decorator it costs half of a with block, on every certificate
def _norms(*mats) -> list:
    """Frobenius norms of mats; where one overflows or falls below _NORM_MIN (its
    squares may have underflowed), all of them after one exact power-of-two scaling
    that brings their largest entry into [0.5, 1), so that their ratios stay exact."""
    norms = [np.linalg.norm(m) for m in mats]
    if _NORM_MIN <= min(norms) and max(norms) < np.inf:
        return norms
    exponent = np.frexp(np.max([np.abs(m).max() for m in mats]))[1]
    return [np.linalg.norm(np.ldexp(m, -exponent)) for m in mats]


def _relative(resid: np.ndarray, X: np.ndarray) -> float:
    """||resid||_F / ||X||_F through _norms, so no square over- or underflows; 0 when both are 0."""
    resid_norm, X_norm = _norms(resid, X)
    return float(resid_norm / max(X_norm, np.finfo(float).tiny))


def _stein_sum(A: np.ndarray, S: np.ndarray) -> np.ndarray:
    """sum_j A^j S (A^T)^j: Kronecker vectorization for n <= 8, squaring accumulation above."""
    n = A.shape[0]
    if n * n <= 64:
        lhs = np.eye(n * n) - np.kron(A, A)
        return np.linalg.solve(lhs, S.ravel(order="F")).reshape((n, n), order="F")
    X = S.copy()
    Apow = A.copy()
    for _ in range(200):
        incr = Apow @ X @ Apow.T
        X = X + incr
        incr_norm, X_norm = _norms(incr, X)
        if incr_norm <= 1e-16 * max(X_norm, 1e-300):
            return X
        Apow = Apow @ Apow
    raise NoConvergence("lyapunov accumulation did not converge")


def solve_dlyap(A_cl: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Solve X - A_cl X A_cl^T = W for stable A_cl.

    Kronecker vectorization for state dimension at most 8 (the regime here);
    a squaring accumulation fallback above that. Output exactly symmetrized
    and certified: a relative residual ||X - A_cl X A_cl^T - W||_F / ||X||_F
    above _DLYAP_RESIDUAL_MAX raises NoConvergence; no norm here over- or underflows (_norms).
    """
    A = _check_square(A_cl, "A_cl")
    S = _check_symmetric(W, "W")
    if S.shape[0] != A.shape[0]:
        raise DimensionMismatch("W dimension does not match A_cl")
    if spectral_radius(A) >= 1.0 - 1e-9:
        raise UnstableClosedLoop("spectral radius of A_cl is not below one")
    X = symmetrize(_stein_sum(A, S))
    resid = _relative(X - A @ X @ A.T - S, X)
    if not resid <= _DLYAP_RESIDUAL_MAX:
        raise NoConvergence(f"lyapunov residual {resid:.3e} above certificate bound "
                            f"{_DLYAP_RESIDUAL_MAX:.0e}")
    return X


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
