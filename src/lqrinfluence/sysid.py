"""Ridge least-squares identification of (A, B) from trajectory data.

Parameters are the column-major stacking theta = vec([A B]) and the per-step
regressor is Phi_s = z_s^T kron I_nx with z_s = (x_s; u_s), so the ridge
objective (1/2M) sum ||x_s+ - Phi_s theta||^2 + (lam/2) ||theta||^2 reduces to
normal equations on the (n_x + n_u)-dimensional Gram matrix of the z_s. The
Hessian is H = (G + lam I) kron I_nx, so its Cholesky factor is the q x q Gram
factor kron I_nx and every H^-1 v is one q x q solve with n_x right sides
(ModelFit.hessian_solve); the p x p matrix is never formed on the run path.
Every per-trajectory statistic is a block of one Gram product [Z_k E_k]^T
[Z_k E_k], kept as ModelFit.traj_stats: Z_k^T Z_k, g_k = -Z_k^T E_k / M,
W_bar_k = E_k^T E_k / T_k; W_hat and Z^T E (which the residual channel reads)
are their sums over k. The exact leave-one-trajectory-out refits (loto_refit)
of every trajectory are one stacked (N, q, q) factorization and solve on
prefix and suffix sums of that block. Every removal function returns all N
removals at once, weighted by M_k = M - T_k retained transitions.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, InvalidConfig, NotPositiveDefinite, SingleTrajectory
from .linalg import SpdFactor, _check_symmetric, cholesky_factor, solve_spd, symmetrize


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

    @cached_property
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


def save_dataset(data: TrajectoryDataset, path) -> None:
    """Write the dataset as JSON; Python's shortest float repr reads back to the same bits."""
    rows = [{"x": x, "u": u, "x_next": xn} for x, u, xn in
            zip(data.states.tolist(), data.inputs.tolist(), data.next_states.tolist())]
    bounds = data.offsets.tolist()
    trajs = [rows[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    doc = {"n_x": int(data.n_x), "n_u": int(data.n_u), "trajectories": trajs}
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))   # json.dump would stream through the slower pure-Python encoder


def load_json(path, what: str):
    """The JSON document in the file at path; one that is not UTF-8 JSON raises InvalidConfig."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise InvalidConfig(f"{what} is not valid UTF-8 JSON: {exc}") from exc


def _json_keys(doc: dict, read, where: str, why: str = "") -> None:
    """InvalidConfig naming the first key of doc that is not in read: nothing would read it."""
    unread = [key for key in doc if key not in read]
    if unread:
        raise InvalidConfig(f"{where}{unread[0]} is never read{why}")


def _json_scalar(value, key: str, number: bool = False, low=None):
    """A JSON integer, or with number any JSON number, as a float; a bool is neither.

    With low, the value must also be finite and at least low.
    """
    if (not isinstance(value, bool) and isinstance(value, (int, float) if number else int)
            and (low is None or low <= value < np.inf)):
        try:
            return float(value) if number else value
        except OverflowError:   # an integer beyond binary64
            pass
    kind = "an integer" if not number else "a number" if low is None else "a finite number"
    raise InvalidConfig(f"{key} must be {kind}{'' if low is None else f' >= {low}'}, got {value!r}")


def _json_array(value, key: str, shape: tuple, definite: bool | None = None) -> np.ndarray:
    """Nested lists of numbers, or a numeric array, as a finite float array of the given shape.

    A bool or a string is not a number. With definite True the array must be
    a symmetric positive definite matrix, with definite False symmetric
    positive semidefinite up to round-off.
    """
    def numeric(v):   # entry by entry: np.asarray([1, True]) would be an int array
        if isinstance(v, (list, tuple)):
            return all(numeric(w) for w in v)
        return np.asarray(v).dtype.kind in "iuf"

    if not numeric(value):
        raise InvalidConfig(f"{key} must be an array of numbers, got {value!r}")
    try:
        arr = np.asarray(value, dtype=float)
    except ValueError as exc:   # ragged
        raise InvalidConfig(f"{key} is not a rectangular array: {exc}") from exc
    if arr.shape != shape:
        raise InvalidConfig(f"{key} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidConfig(f"{key} has non-finite entries")
    if definite is not None:
        kind = "definite" if definite else "semidefinite"
        try:
            _check_symmetric(arr, key)
            if definite:
                cholesky_factor(arr)   # solve_dare factors R the same way
            elif np.linalg.eigvalsh(arr)[0] < -1e-12 * np.abs(arr).max():   # beyond round-off
                raise ValueError(kind)
        except (NotPositiveDefinite, ValueError) as exc:
            raise InvalidConfig(f"{key} must be symmetric positive {kind}") from exc
    return arr


def load_dataset(path) -> TrajectoryDataset:
    """Read a dataset written by save_dataset.

    A file that is not UTF-8 JSON, lacks n_x/n_u/trajectories, declares an n_x or
    n_u that is not a positive JSON integer, holds no trajectory, an empty one
    or a non-finite entry, or has entries whose sizes disagree with the
    declared n_x/n_u raises InvalidConfig: it is input to fix, not a
    numerical failure.
    """
    doc = load_json(path, f"dataset {path}")
    try:
        n_x, n_u = doc["n_x"], doc["n_u"]
        trajs = list(doc["trajectories"])
    except (KeyError, TypeError) as exc:
        raise InvalidConfig(f"malformed dataset file {path}: missing or bad {exc}") from exc
    for key, value in (("n_x", n_x), ("n_u", n_u)):
        _json_scalar(value, f"dataset {path}: {key}", low=1)
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
    traj_stats: np.ndarray     # (N, q+n_x, q+n_x), rows [Z_k E_k]^T [Z_k E_k]
    ZtE: np.ndarray            # (q, n_x), Z^T E = -M sum_k g_k

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
    def removal_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """(M/M_k, T_k/M_k) for every trajectory k, with M_k = M - T_k transitions retained."""
        if self.N < 2:   # every trajectory has a transition, so M_k = 0 only when N = 1
            raise SingleTrajectory("need at least two trajectories to remove one")
        T = self.lengths.astype(float)
        M_rem = self.M - T
        return self.M / M_rem, T / M_rem

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
        """H^-1 v as one q x q solve on the Gram factor with n_x right sides.

        Each row of a (N, p) v is solved too, all N n_x right sides at once.
        """
        V = np.asarray(v, dtype=float)
        cols = V.reshape(-1, self.q, self.n_x).transpose(1, 0, 2).reshape(self.q, -1)
        X = solve_spd(self.gram_factor, cols).reshape(self.q, -1, self.n_x)
        return X.transpose(1, 0, 2).reshape(V.shape)


def fit_ridge(data: TrajectoryDataset, lam: float) -> ModelFit:
    """Solve the ridge normal equations and cache residual/gradient structure.

    lam = 0 is allowed only when the Gram matrix is positive definite
    (NotPositiveDefinite otherwise).
    """
    if lam < 0:
        raise ValueError("ridge weight must be nonnegative")
    M, N = data.M, data.N
    n_x, q = data.n_x, data.n_x + data.n_u
    # row s is (z_s, e_s); the last n_x columns hold x_s+ until E is formed in place
    blk = np.hstack([data.states, data.inputs, data.next_states])
    Z, E = blk[:, :q], blk[:, q:]

    gram = symmetrize(Z.T @ Z / M)
    gram_factor = cholesky_factor(gram + lam * np.eye(q))
    Theta = solve_spd(gram_factor, Z.T @ E / M)   # (q, n_x)
    E -= Z @ Theta

    # [Z_k E_k]^T [Z_k E_k] holds Z_k^T Z_k, Z_k^T E_k and E_k^T E_k: one syrk per trajectory
    stats = np.empty((N, q + n_x, q + n_x))
    for k, (a, b) in enumerate(zip(data.offsets[:-1], data.offsets[1:])):
        np.matmul(blk[a:b].T, blk[a:b], out=stats[k])
    EE = stats[:, q:, q:]

    return ModelFit(
        data=data,
        lam=float(lam),
        theta=Theta.ravel(),
        gram=gram,
        gram_factor=gram_factor,
        residuals=E,
        W_hat=symmetrize(EE.sum(axis=0)) / M,
        per_traj_cov=symmetrize(EE) / data.lengths[:, None, None],
        g=np.divide(stats[:, :q, q:], -M).reshape(N, q * n_x),
        traj_stats=stats,
        ZtE=stats[:, :q, q:].sum(axis=0),
    )


def eta(fit: ModelFit) -> np.ndarray:
    """Removal directions: row k is eta_k = (M/M_k) g_k + (T_k/M_k) lam theta, M_k = M - T_k."""
    scale, frac = fit.removal_weights
    return scale[:, None] * fit.g + (frac * fit.lam)[:, None] * fit.theta


def eta_dot(fit: ModelFit, v: np.ndarray) -> np.ndarray:
    """eta_k^T v for every k, without forming eta: (M/M_k) g_k^T v + (T_k/M_k) lam theta^T v."""
    scale, frac = fit.removal_weights
    return scale * (fit.g @ v) + frac * (fit.lam * fit.theta @ v)


def model_influence(fit: ModelFit) -> np.ndarray:
    """Surrogates of the leave-one-out parameter shifts: row k is H^-1 eta_k, all in one solve."""
    return fit.hessian_solve(eta(fit))


def _all_but_one(stats: np.ndarray) -> np.ndarray:
    """Row k: the sum of every row of stats but row k.

    Formed as (sum of rows before k) + (sum of rows after k), never total
    minus own, so an entry that is zero in every retained row stays exactly zero.
    """
    zero = np.zeros((1,) + stats.shape[1:])
    before = np.concatenate([zero, np.cumsum(stats[:-1], axis=0)])
    after = np.concatenate([np.cumsum(stats[:0:-1], axis=0)[::-1], zero])
    return before + after


def loto_refit(fit: ModelFit):
    """Exact refit with each trajectory k removed, loss renormalized by 1/(M - T_k).

    The ridge penalty keeps weight lam. Returns (theta, W): row k of theta
    (N, p) is the refit without trajectory k, and W[k] (N, n_x, n_x) the
    covariance of its residuals over the retained transitions. One
    _all_but_one sum of the fit's traj_stats block gives the retained S =
    sum Z_j^T Z_j, sum Z_j^T E_j and sum E_j^T E_j, so exact zeros in the
    retained data (say, inputs) stay exact in theta; the right side sum
    Z_j^T Y_j is sum Z_j^T E_j + S Theta. All N systems are factored and
    solved as one stack. The retained residuals are E_j - Z_j D with
    D = Theta_k - Theta, so W comes from the base residual statistics, free
    of Y^T Y cancellation.
    """
    if fit.N < 2:
        raise SingleTrajectory("need at least two trajectories to remove one")
    N, q, n_x = fit.N, fit.q, fit.n_x
    M_rem = (fit.M - fit.lengths)[:, None, None]
    kept = _all_but_one(fit.traj_stats)
    S, ZE, EE = kept[:, :q, :q], kept[:, :q, q:], kept[:, q:, q:]
    Theta0 = fit.theta.reshape(q, n_x)

    gram = symmetrize(S / M_rem) + fit.lam * np.eye(q)
    Theta = solve_spd(cholesky_factor(gram), (ZE + S @ Theta0) / M_rem)
    D = Theta - Theta0
    ZEt_D = ZE.swapaxes(1, 2) @ D
    W = symmetrize(EE - ZEt_D - ZEt_D.swapaxes(1, 2) + D.swapaxes(1, 2) @ S @ D) / M_rem
    return Theta.reshape(N, q * n_x), W


def covariance_direct_term(fit: ModelFit) -> np.ndarray:
    """Covariance shifts from removal alone, (T_k/M_k) (W_hat - W_bar_k): row k of (N, n_x, n_x)."""
    _, frac = fit.removal_weights
    return frac[:, None, None] * (fit.W_hat - fit.per_traj_cov)
