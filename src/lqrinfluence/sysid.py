"""Ridge least-squares identification of (A, B) from trajectory data.

Parameters are the column-major stacking theta = vec([A B]) and the per-step
regressor is Phi_s = z_s^T kron I_nx with z_s = (x_s; u_s), so the ridge
objective (1/2M) sum ||x_s+ - Phi_s theta||^2 + (lam/2) ||theta||^2 reduces to
normal equations on the (n_x + n_u)-dimensional Gram matrix of the z_s. The
Hessian is H = (G + lam I) kron I_nx, so its Cholesky factor is the q x q Gram
factor kron I_nx and every H^-1 v is one q x q solve with n_x right sides
(ModelFit.hessian_solve); the p x p matrix is never formed on the run path.
The fit keeps every trajectory's Gram Z_k^T Z_k next to its gradient, so each
exact leave-one-trajectory-out refit (loto_refit) is one q x q solve.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, DominantTrajectory, InvalidConfig, SingleTrajectory
from .linalg import LinearOperator, SpdFactor, cg_solve, cholesky_factor, solve_spd, symmetrize


@dataclass(frozen=True)
class TrajectoryDataset:
    """Trajectories stored as stacked transition arrays plus boundary offsets.

    Trajectory k owns rows offsets[k]:offsets[k+1] of states/inputs/next_states.
    """

    n_x: int
    n_u: int
    states: np.ndarray       # (M, n_x)
    inputs: np.ndarray       # (M, n_u)
    next_states: np.ndarray  # (M, n_x)
    offsets: np.ndarray      # (N+1,) int

    def __post_init__(self):
        M = self.states.shape[0]
        if self.states.shape != (M, self.n_x) or self.next_states.shape != (M, self.n_x):
            raise DimensionMismatch("state arrays do not match n_x")
        if self.inputs.shape != (M, self.n_u):
            raise DimensionMismatch("input array does not match n_u")
        if self.offsets[0] != 0 or self.offsets[-1] != M:
            raise DimensionMismatch("offsets do not cover the transition rows")
        if np.any(np.diff(self.offsets) < 1):
            raise DimensionMismatch("every trajectory needs at least one transition")
        for arr in (self.states, self.inputs, self.next_states):
            if not np.all(np.isfinite(arr)):
                raise ValueError("dataset has non-finite entries")

    @classmethod
    def from_arrays(cls, trajectories, n_x=None, n_u=None):
        """Build from a sequence of (X, U, X_next) array triples."""
        xs, us, xn = [], [], []
        for X, U, Xn in trajectories:
            xs.append(np.atleast_2d(np.asarray(X, dtype=float)))
            us.append(np.atleast_2d(np.asarray(U, dtype=float)))
            xn.append(np.atleast_2d(np.asarray(Xn, dtype=float)))
        if n_x is None:
            n_x = xs[0].shape[1]
        if n_u is None:
            n_u = us[0].shape[1]
        lengths = [x.shape[0] for x in xs]
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        return cls(
            n_x=n_x,
            n_u=n_u,
            states=np.vstack(xs),
            inputs=np.vstack(us),
            next_states=np.vstack(xn),
            offsets=offsets,
        )

    @property
    def M(self) -> int:
        return self.states.shape[0]

    @property
    def N(self) -> int:
        return len(self.offsets) - 1

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    @property
    def Z(self) -> np.ndarray:
        """Stacked regression inputs z_s = (x_s; u_s), shape (M, n_x + n_u)."""
        return np.hstack([self.states, self.inputs])

    def traj_slice(self, k: int) -> slice:
        if not 0 <= k < self.N:
            raise IndexError(f"trajectory index {k} out of range for N={self.N}")
        return slice(int(self.offsets[k]), int(self.offsets[k + 1]))


def _emit_float(v) -> str:
    # %.17g guarantees exact binary64 round-trip through decimal; its "-0"
    # would read back as the integer 0, so a negative zero keeps a float form
    text = format(float(v), ".17g")
    return "-0.0" if text == "-0" else text


def _emit_floats(arr) -> str:
    return "[" + ", ".join(_emit_float(v) for v in arr) + "]"


def save_dataset(data: TrajectoryDataset, path) -> None:
    """Write the dataset as JSON with 17-significant-digit floats."""
    lines = ['{"n_x": %d, "n_u": %d, "trajectories": [' % (data.n_x, data.n_u)]
    for k in range(data.N):
        sl = data.traj_slice(k)
        rows = []
        for s in range(sl.start, sl.stop):
            rows.append(
                '{"x": %s, "u": %s, "x_next": %s}'
                % (
                    _emit_floats(data.states[s]),
                    _emit_floats(data.inputs[s]),
                    _emit_floats(data.next_states[s]),
                )
            )
        tail = "," if k + 1 < data.N else ""
        lines.append("[" + ", ".join(rows) + "]" + tail)
    lines.append("]}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_dataset(path) -> TrajectoryDataset:
    """Read a dataset written by save_dataset.

    A file that is not JSON, lacks n_x/n_u/trajectories, holds no trajectory,
    an empty one or a non-finite entry, or has entries whose sizes disagree
    with the declared n_x/n_u raises InvalidConfig: it is input to fix, not a
    numerical failure.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidConfig(f"dataset {path} is not valid JSON: {exc}") from exc
    try:
        n_x, n_u = int(doc["n_x"]), int(doc["n_u"])
        trajs = list(doc["trajectories"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidConfig(f"malformed dataset file {path}: missing or bad {exc}") from exc
    if not trajs:
        raise InvalidConfig(f"dataset {path} has no trajectories")
    triples = []
    for k, traj in enumerate(trajs):
        try:
            X = np.array([t["x"] for t in traj], dtype=float)
            U = np.array([t["u"] for t in traj], dtype=float)
            Xn = np.array([t["x_next"] for t in traj], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidConfig(f"trajectory {k} in {path} is malformed: {exc}") from exc
        T = len(traj)
        if T == 0:
            raise InvalidConfig(f"trajectory {k} in {path} has no transitions")
        if X.shape != (T, n_x) or Xn.shape != (T, n_x) or U.shape != (T, n_u):
            raise InvalidConfig(
                f"trajectory {k} in {path} disagrees with declared n_x={n_x}, n_u={n_u}"
            )
        triples.append((X, U, Xn))
    try:
        return TrajectoryDataset.from_arrays(triples, n_x=n_x, n_u=n_u)
    except ValueError as exc:  # non-finite entries
        raise InvalidConfig(f"dataset {path}: {exc}") from exc


def theta_to_ab(theta: np.ndarray, n_x: int, n_u: int):
    """Unstack theta = vec([A B]) (column-major) into (A, B)."""
    q = n_x + n_u
    mat = np.asarray(theta, dtype=float).reshape(q, n_x).T
    return mat[:, :n_x].copy(), mat[:, n_x:].copy()


def ab_to_theta(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return np.hstack([A, B]).ravel(order="F")


def build_regressor(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per-step regressor Phi = z^T kron I_nx with z = (x; u), so Phi theta = A x + B u."""
    z = np.concatenate([np.asarray(x, float).ravel(), np.asarray(u, float).ravel()])
    n_x = np.asarray(x).size
    return np.kron(z[None, :], np.eye(n_x))


@dataclass(frozen=True)
class ModelFit:
    """Ridge fit with the cached pieces every influence quantity reads.

    Immutable after construction; per-trajectory gradients g, residual
    covariances and Grams, and the Cholesky factor of G + lam I are computed
    once here, so scoring a trajectory is a handful of dot products and every
    Hessian solve is one q x q solve (hessian_solve).
    """

    data: TrajectoryDataset
    lam: float
    theta: np.ndarray          # (p,)
    gram: np.ndarray           # (q, q), (1/M) Z^T Z
    gram_factor: SpdFactor     # (q, q) Cholesky factor of G + lam I
    residuals: np.ndarray      # (M, n_x), e_s = x_s+ - [A B] z_s
    W_hat: np.ndarray          # (n_x, n_x)
    per_traj_cov: np.ndarray   # (N, n_x, n_x), rows W_bar_k
    g: np.ndarray              # (N, p), per-trajectory loss gradients
    traj_gram: np.ndarray      # (N, q, q), rows Z_k^T Z_k

    @property
    def n_x(self) -> int:
        return self.data.n_x

    @property
    def n_u(self) -> int:
        return self.data.n_u

    @property
    def q(self) -> int:
        return self.n_x + self.n_u

    @property
    def p(self) -> int:
        return self.theta.size

    @property
    def M(self) -> int:
        return self.data.M

    @property
    def N(self) -> int:
        return self.data.N

    @property
    def lengths(self) -> np.ndarray:
        return self.data.lengths

    @property
    def A(self) -> np.ndarray:
        return theta_to_ab(self.theta, self.n_x, self.n_u)[0]

    @property
    def B(self) -> np.ndarray:
        return theta_to_ab(self.theta, self.n_x, self.n_u)[1]

    @cached_property
    def data_extremes(self) -> tuple[float, float]:
        """(L_phi, L_e): largest regressor row norm and largest residual norm.

        Per-fit constants of the remainder bounds, computed on first use.
        """
        L_phi = float(np.linalg.norm(self.data.Z, axis=1).max())
        L_e = float(np.linalg.norm(self.residuals, axis=1).max())
        return L_phi, L_e

    # built on read, only for perfbench/spans._fit_bytes; delete with ROADMAP's benchmark refresh
    @property
    def hessian(self) -> np.ndarray:
        return np.kron(self.gram + self.lam * np.eye(self.q), np.eye(self.n_x))

    @property
    def hessian_factor(self) -> SpdFactor:
        # kron(L_G, I) is lower triangular with a positive diagonal, so by
        # uniqueness it is the Cholesky factor of the Hessian
        return SpdFactor(L=np.kron(self.gram_factor.L, np.eye(self.n_x)))

    def hessian_solve(self, v: np.ndarray) -> np.ndarray:
        """H^-1 v as one q x q solve on the Gram factor with n_x right sides."""
        V = np.asarray(v, dtype=float).reshape(self.q, self.n_x)
        return solve_spd(self.gram_factor, V).ravel()

    def hessian_matvec(self, v: np.ndarray) -> np.ndarray:
        """H v through the Gram structure, never materializing per-step regressors."""
        V = np.asarray(v, dtype=float).reshape(self.q, self.n_x)
        return ((self.gram + self.lam * np.eye(self.q)) @ V).ravel()

    def hessian_operator(self) -> LinearOperator:
        return LinearOperator(dim=self.p, apply=self.hessian_matvec)


def fit_ridge(data: TrajectoryDataset, lam: float) -> ModelFit:
    """Solve the ridge normal equations and cache residual/gradient structure.

    lam = 0 is allowed only when the Gram matrix is positive definite
    (NotPositiveDefinite otherwise).
    """
    if lam < 0:
        raise ValueError("ridge weight must be nonnegative")
    Z = data.Z
    Y = data.next_states
    M = data.M
    n_x, q = data.n_x, data.n_x + data.n_u

    gram = symmetrize(Z.T @ Z / M)
    gram_factor = cholesky_factor(gram + lam * np.eye(q))
    Theta = solve_spd(gram_factor, Z.T @ Y / M)   # (q, n_x)
    theta = Theta.ravel()
    E = Y - Z @ Theta

    N = data.N
    per_traj_cov = np.empty((N, n_x, n_x))
    g = np.empty((N, q * n_x))
    traj_gram = np.empty((N, q, q))
    cov_sum = np.zeros((n_x, n_x))
    for k in range(N):
        sl = data.traj_slice(k)
        Ek, Zk = E[sl], Z[sl]
        Ck = symmetrize(Ek.T @ Ek)
        cov_sum += Ck
        per_traj_cov[k] = Ck / data.lengths[k]
        g[k] = -(Zk.T @ Ek).ravel() / M
        traj_gram[k] = Zk.T @ Zk
    W_hat = cov_sum / M

    return ModelFit(
        data=data,
        lam=float(lam),
        theta=theta,
        gram=gram,
        gram_factor=gram_factor,
        residuals=E,
        W_hat=W_hat,
        per_traj_cov=per_traj_cov,
        g=g,
        traj_gram=traj_gram,
    )


def stationarity_residual(fit: ModelFit) -> float:
    """Norm of the ridge optimality condition -(1/M) sum Phi^T e + lam theta."""
    grad = -(fit.data.Z.T @ fit.residuals).ravel() / fit.M + fit.lam * fit.theta
    return float(np.linalg.norm(grad))


def trajectory_gradient(fit: ModelFit, k: int) -> np.ndarray:
    """g_k = -(1/M) sum over trajectory k of Phi_s^T e_s."""
    if not 0 <= k < fit.N:
        raise IndexError(f"trajectory index {k} out of range for N={fit.N}")
    return fit.g[k].copy()


def eta(fit: ModelFit, k: int) -> np.ndarray:
    """Removal direction eta_k = (M/M_k) g_k + (T_k/M_k) lam theta, M_k = M - T_k."""
    gk = trajectory_gradient(fit, k)
    T_k = int(fit.lengths[k])
    M_rem = fit.M - T_k
    if M_rem == 0:
        raise DominantTrajectory(
            "trajectory holds every transition; leave-one-out is undefined"
        )
    return (fit.M / M_rem) * gk + (T_k / M_rem) * fit.lam * fit.theta


def model_influence(fit: ModelFit, k: int, solver: str = "dense",
                    cg_tol: float = 1e-10) -> np.ndarray:
    """First-order surrogate for the leave-one-out parameter shift: H^-1 eta_k."""
    rhs = eta(fit, k)
    if solver == "dense":
        return fit.hessian_solve(rhs)
    if solver == "cg":
        return cg_solve(fit.hessian_operator(), rhs, tol=cg_tol)
    raise ValueError(f"unknown solver {solver!r}")


def loto_refit(fit: ModelFit, k: int):
    """Exact refit with trajectory k removed, loss renormalized by 1/(M - T_k).

    The ridge penalty keeps weight lam. Returns (theta, W): the refit
    parameters and the covariance of the refit residuals over the retained
    transitions. The normal equations sum the statistics over j != k, never
    total minus own, so exact zeros in the retained data (say, inputs) stay
    exact in theta; their right side sum Z_j^T Y_j is sum Z_j^T E_j + S Theta.
    The retained residuals are E_j - Z_j D, D = Theta_k - Theta, so W comes
    from the base residual statistics, free of Y^T Y cancellation.
    """
    if fit.N < 2:
        raise SingleTrajectory("need at least two trajectories to remove one")
    sl = fit.data.traj_slice(k)
    M_rem = fit.M - (sl.stop - sl.start)
    keep = np.arange(fit.N) != k
    S = fit.traj_gram[keep].sum(axis=0)
    ZE = -fit.M * fit.g[keep].sum(axis=0).reshape(fit.q, fit.n_x)   # sum of Z_j^T E_j
    Theta0 = fit.theta.reshape(fit.q, fit.n_x)

    gram = symmetrize(S / M_rem) + fit.lam * np.eye(fit.q)
    Theta = solve_spd(cholesky_factor(gram), (ZE + S @ Theta0) / M_rem)
    D = Theta - Theta0
    EE = np.einsum("j,jab->ab", fit.lengths[keep], fit.per_traj_cov[keep])
    W = symmetrize(EE - ZE.T @ D - D.T @ ZE + D.T @ S @ D) / M_rem
    return Theta.ravel(), W


def covariance_direct_term(fit: ModelFit, k: int) -> np.ndarray:
    """Covariance shift from removal alone: (T_k/M_k) (W_hat - W_bar_k)."""
    if not 0 <= k < fit.N:
        raise IndexError(f"trajectory index {k} out of range for N={fit.N}")
    T_k = int(fit.lengths[k])
    M_rem = fit.M - T_k
    if M_rem == 0:
        raise DominantTrajectory(
            "trajectory holds every transition; leave-one-out is undefined"
        )
    return (T_k / M_rem) * (fit.W_hat - fit.per_traj_cov[k])
