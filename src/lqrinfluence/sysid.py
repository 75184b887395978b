"""Ridge least-squares identification of (A, B) from trajectory data.

Parameters are the column-major stacking theta = vec([A B]) and the per-step
regressor is Phi_s = z_s^T kron I_nx with z_s = (x_s; u_s), so the ridge
objective (1/2M) sum ||x_s+ - Phi_s theta||^2 + (lam/2) ||theta||^2 reduces to
normal equations on the (n_x + n_u)-dimensional Gram matrix of the z_s. The
Hessian is H = (G + lam I) kron I_nx, so its Cholesky factor is the q x q Gram
factor kron I_nx and every H^-1 v is one q x q solve with n_x right sides
(ModelFit.hessian_solve); the p x p matrix is never formed on the run path.
Every per-trajectory statistic is a block of one Gram product [Z_k E_k]^T
[Z_k E_k], and ModelFit.traj_stats is the fit's only per-trajectory array:
Z_k^T Z_k, g_k = -Z_k^T E_k / M and W_bar_k = E_k^T E_k / T_k are read off it,
and W_hat and Z^T E (which the residual channel reads) are their sums over k;
no residual array is stored. The exact leave-one-trajectory-out refits (loto_refit)
of every trajectory are one stacked (N, q, q) factorization and solve on
prefix and suffix sums of that block. Every removal function returns all N
removals at once, weighted by M_k = M - T_k retained transitions.

A dataset is one C-contiguous row block, row s = (x_s, u_s, x_s+), that
fit_ridge reads through views and never copies whole. It is read and written
as JSON, one trajectory at a time; the reader (datafile) keeps a bounded
window of the file's text, never the whole text or JSON tree.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (DimensionMismatch, InvalidConfig, LqrInfluenceError, NotPositiveDefinite,
                     SingleTrajectory)
from .linalg import SpdFactor, _check_symmetric, cholesky_factor, solve_spd, symmetrize


@dataclass(frozen=True)
class TrajectoryDataset:
    """Transitions stored as one row block plus trajectory boundary offsets.

    Row s of rows is (x_s, u_s, x_s+); trajectory k owns rows offsets[k]:offsets[k+1].
    """

    n_x: int
    n_u: int
    rows: np.ndarray      # (M, n_x + n_u + n_x), C-contiguous
    offsets: np.ndarray   # (N+1,) int

    def __post_init__(self):
        object.__setattr__(self, "rows", np.ascontiguousarray(self.rows, dtype=float))
        M = self.rows.shape[0]
        if self.rows.shape != (M, 2 * self.n_x + self.n_u):
            raise DimensionMismatch("row block does not match n_x and n_u")
        if self.offsets[0] != 0 or self.offsets[-1] != M:
            raise DimensionMismatch("offsets do not cover the transition rows")
        if np.any(np.diff(self.offsets) < 1):
            raise DimensionMismatch("every trajectory needs at least one transition")
        if not np.all(np.isfinite(self.rows)):
            raise ValueError("dataset has non-finite entries")

    @classmethod
    def from_arrays(cls, trajectories, n_x=None, n_u=None):
        """Build from a sequence of (X, U, X_next) array triples, each written into the block."""
        trajs = [tuple(map(np.atleast_2d, traj)) for traj in trajectories]
        n_x = trajs[0][0].shape[1] if n_x is None else n_x
        n_u = trajs[0][1].shape[1] if n_u is None else n_u
        bounds = np.cumsum([0] + [len(X) for X, _, _ in trajs]).tolist()
        rows, cols = np.empty((bounds[-1], 2 * n_x + n_u)), (0, n_x, n_x + n_u, 2 * n_x + n_u)
        for k, (a, b) in enumerate(zip(bounds, bounds[1:])):
            for arr, lo, hi in zip(trajs[k], cols, cols[1:]):
                if arr.shape != (b - a, hi - lo):
                    raise DimensionMismatch(f"trajectory {k} does not match n_x={n_x}, n_u={n_u}")
                rows[a:b, lo:hi] = arr
        return cls(n_x, n_u, rows, np.array(bounds))

    M = property(lambda self: self.rows.shape[0])
    N = property(lambda self: len(self.offsets) - 1)

    @cached_property
    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    # column views of rows, never copies; Z's row s is z_s = (x_s; u_s)
    states = property(lambda self: self.rows[:, :self.n_x])
    inputs = property(lambda self: self.rows[:, self.n_x:self.n_x + self.n_u])
    next_states = property(lambda self: self.rows[:, self.n_x + self.n_u:])
    Z = property(lambda self: self.rows[:, :self.n_x + self.n_u])

    def traj_slice(self, k: int) -> slice:
        if not 0 <= k < self.N:
            raise IndexError(f"trajectory index {k} out of range for N={self.N}")
        return slice(int(self.offsets[k]), int(self.offsets[k + 1]))


def save_dataset(data: TrajectoryDataset, path) -> None:
    """Write the dataset as JSON, one trajectory at a time; the bytes are json.dumps of the
    whole document, and Python's shortest float repr reads back to the same bits."""
    head = json.dumps({"n_x": int(data.n_x), "n_u": int(data.n_u), "trajectories": []})
    bounds = data.offsets.tolist()
    with open(path, "w") as fh:
        fh.write(head[:-2])   # up to the trajectories array's "["
        for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            rows = [{"x": x, "u": u, "x_next": xn} for x, u, xn in zip(
                data.states[lo:hi].tolist(), data.inputs[lo:hi].tolist(),
                data.next_states[lo:hi].tolist())]
            # json.dump would stream through the slower pure-Python encoder
            fh.write((", " if k else "") + json.dumps(rows))
        fh.write("]}")


def load_json(path, what: str, decode=json.load):
    """decode(fh) of the file at path opened as UTF-8 text, by default its JSON document.

    Text that is not UTF-8 JSON, or that nests deeper than the decoder can
    recurse, raises InvalidConfig naming what.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            return decode(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
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
        stack = [v]   # not recursion: a list nested a few hundred deep would exhaust it
        while stack:
            v = stack.pop()
            if isinstance(v, (list, tuple)):
                stack.extend(v)
            elif np.asarray(v).dtype.kind not in "iuf":
                return False
        return True

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

    The file is read once, front to back, through a bounded window of its
    text, and each trajectory is written into the dataset's row block as it is
    read (datafile); each outcome is the one of the whole text read at once.

    A file that is not UTF-8 JSON, nests too deep, repeats a top-level member,
    lacks n_x/n_u/trajectories, declares an n_x or n_u that is not a positive
    JSON integer, holds no trajectory, an empty one, a string, null, bool or
    out-of-range integer entry (a bool beside numbers too) or a non-finite
    entry, or has entries whose sizes disagree with the declared n_x/n_u raises
    InvalidConfig: it is input to fix, not a numerical failure.
    """
    from .datafile import RowBlock, read_dataset   # see datafile on why here

    # the reader decodes the bytes itself, so that a UTF-8 error names its offset in the file
    doc = load_json(path, f"dataset {path}", lambda fh: read_dataset(fh.buffer, path))
    try:
        n_x, n_u, trajs = doc["n_x"], doc["n_u"], doc["trajectories"]
        if not isinstance(trajs, RowBlock):   # a trajectories value that is not an array
            trajs = RowBlock(trajs, path)
    except (KeyError, TypeError) as exc:
        raise InvalidConfig(f"malformed dataset file {path}: missing or bad {exc}") from exc
    for key, value in (("n_x", n_x), ("n_u", n_u)):
        _json_scalar(value, f"dataset {path}: {key}", low=1)
    rows, offsets = trajs.arrays(n_x, n_u, path)
    try:
        return TrajectoryDataset(n_x, n_u, rows, offsets)
    except ValueError as exc:  # non-finite entries
        raise InvalidConfig(f"dataset {path}: {exc}") from exc


def theta_to_ab(theta: np.ndarray, n_x: int, n_u: int):
    """Unstack theta = vec([A B]) (column-major) into (A, B); a (N, p) stack into (N, ...) stacks."""
    theta = np.asarray(theta, dtype=float)
    mat = theta.reshape(theta.shape[:-1] + (n_x + n_u, n_x)).swapaxes(-2, -1)
    return mat[..., :n_x].copy(), mat[..., n_x:].copy()


@dataclass(frozen=True)
class ModelFit:
    """Ridge fit with the cached pieces every influence quantity reads.

    Immutable after construction; every per-trajectory statistic is a block of
    traj_stats and the residuals, g and W_bar_k are built on read from it or the
    data, so scoring a trajectory is a handful of dot products and every
    Hessian solve is one q x q solve on the Cholesky factor of G + lam I.
    """

    data: TrajectoryDataset
    lam: float
    theta: np.ndarray          # (p,)
    gram: np.ndarray           # (q, q), (1/M) Z^T Z
    gram_factor: SpdFactor     # (q, q) Cholesky factor of G + lam I
    W_hat: np.ndarray          # (n_x, n_x), sum_k E_k^T E_k / M
    traj_stats: np.ndarray     # (N, q+n_x, q+n_x), rows [Z_k E_k]^T [Z_k E_k]
    ZtE: np.ndarray            # (q, n_x), Z^T E = -M sum_k g_k

    n_x = property(lambda self: self.data.n_x)
    n_u = property(lambda self: self.data.n_u)
    q = property(lambda self: self.n_x + self.n_u)
    p = property(lambda self: self.theta.size)
    M = property(lambda self: self.data.M)
    N = property(lambda self: self.data.N)
    lengths = property(lambda self: self.data.lengths)
    A = property(lambda self: theta_to_ab(self.theta, self.n_x, self.n_u)[0])
    B = property(lambda self: theta_to_ab(self.theta, self.n_x, self.n_u)[1])
    Theta = property(lambda self: self.theta.reshape(self.q, self.n_x))
    # built on read: rows e_s = x_s+ - [A B] z_s (M, n_x), g_k (N, p) and W_bar_k (N, n_x, n_x)
    residuals = property(lambda self: self.data.next_states - self.data.Z @ self.Theta)
    g = property(lambda self: (self.traj_stats[:, :self.q, self.q:] / -self.M).reshape(self.N, -1))
    per_traj_cov = property(lambda self: symmetrize(self.traj_stats[:, self.q:, self.q:])
                            / self.lengths[:, None, None])

    @cached_property
    def residual_norms(self) -> np.ndarray:
        """(M,) ||e_s||, formed _FIT_ROWS rows at a time on first use."""
        Z, X1, rows = self.data.Z, self.data.next_states, _FIT_ROWS
        return np.concatenate([np.linalg.norm(X1[i:i + rows] - Z[i:i + rows] @ self.Theta, axis=1)
                               for i in range(0, self.M, rows)])

    @cached_property
    def removal_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """(M/M_k, T_k/M_k) for every trajectory k, with M_k = M - T_k transitions retained."""
        if self.N < 2:   # every trajectory has a transition, so M_k = 0 only when N = 1
            raise SingleTrajectory("need at least two trajectories to remove one")
        T = self.lengths.astype(float)
        M_rem = self.M - T
        return self.M / M_rem, T / M_rem

    @cached_property
    def loto_refits(self) -> tuple[np.ndarray, np.ndarray]:
        """loto_refit's (theta, W), computed on first use."""
        if self.N < 2:
            raise SingleTrajectory("need at least two trajectories to remove one")
        q, n_x = self.q, self.n_x
        M_rem = (self.M - self.lengths)[:, None, None]
        kept = _all_but_one(self.traj_stats)
        S, ZE, EE = kept[:, :q, :q], kept[:, :q, q:], kept[:, q:, q:]
        Theta0 = self.Theta

        gram = symmetrize(S / M_rem) + self.lam * np.eye(q)
        factor = cholesky_factor(gram, "retained Gram + lam I", "refit without trajectory")
        Theta = solve_spd(factor, (ZE + S @ Theta0) / M_rem)
        D = Theta - Theta0
        ZEt_D = ZE.swapaxes(1, 2) @ D
        W = symmetrize(EE - ZEt_D - ZEt_D.swapaxes(1, 2) + D.swapaxes(1, 2) @ S @ D) / M_rem
        theta = Theta.reshape(self.N, q * n_x)
        theta.flags.writeable = W.flags.writeable = False
        return theta, W

    # built on read, only for perfbench/spans._fit_bytes; delete with ROADMAP's benchmark refresh.
    # kron(L_G, I) is lower triangular with a positive diagonal, so by uniqueness it is the
    # Cholesky factor of the Hessian
    hessian = property(lambda self: np.kron(self.gram + self.lam * np.eye(self.q), np.eye(self.n_x)))
    hessian_factor = property(lambda self: SpdFactor(L=np.kron(self.gram_factor.L, np.eye(self.n_x))))

    def hessian_solve(self, v: np.ndarray) -> np.ndarray:
        """H^-1 v as one q x q solve on the Gram factor with n_x right sides.

        Each row of a (N, p) v is solved too, all N n_x right sides at once.
        """
        V = np.asarray(v, dtype=float)
        cols = V.reshape(-1, self.q, self.n_x).transpose(1, 0, 2).reshape(self.q, -1)
        X = solve_spd(self.gram_factor, cols).reshape(self.q, -1, self.n_x)
        return X.transpose(1, 0, 2).reshape(V.shape)


def _finite_sum(total: np.ndarray, name: str) -> np.ndarray:
    if not np.isfinite(total).all():
        raise LqrInfluenceError(f"the data's {name} overflows double precision")
    return total


_FIT_ROWS = 512   # fit_ridge's buffer holds whole trajectories: at least this many rows


@np.errstate(over="ignore", invalid="ignore")   # an overflow ends in _finite_sum
def fit_ridge(data: TrajectoryDataset, lam: float) -> ModelFit:
    """Solve the ridge normal equations and take every trajectory's statistics.

    Z and X+ are views of data.rows; each [Z_k E_k] is written into one buffer, refilled
    _FIT_ROWS rows at a time with Z and E = X+ - Z Theta, so no (M, n_x) array exists.
    lam = 0 is allowed only when the Gram matrix is positive definite
    (NotPositiveDefinite otherwise); an overflowing Gram, W_hat or Z^T E raises LqrInfluenceError.
    """
    if lam < 0:
        raise ValueError("ridge weight must be nonnegative")
    M, N = data.M, data.N
    n_x, q = data.n_x, data.n_x + data.n_u
    Z, bounds = data.Z, data.offsets.tolist()

    gram = _finite_sum(symmetrize(Z.T @ Z / M), "Gram matrix")
    gram_factor = cholesky_factor(gram + lam * np.eye(q))
    Theta = solve_spd(gram_factor, Z.T @ data.next_states / M)   # (q, n_x)

    # [Z_k E_k]^T [Z_k E_k] holds Z_k^T Z_k, Z_k^T E_k and E_k^T E_k: one syrk per trajectory
    stats = np.empty((N, q + n_x, q + n_x))
    buf = np.empty((min(M, max(_FIT_ROWS, int(data.lengths.max()), 2)), q + n_x))
    top = 0   # buf holds rows base:top
    for k, (a, b) in enumerate(zip(bounds, bounds[1:])):
        if b > top:
            top = bounds[np.searchsorted(data.offsets, a + len(buf), "right") - 1]
            # two rows at least: numpy takes a single row through gemv, which rounds unlike gemm
            base = max(0, min(a, top - 2))
            end = max(top, min(base + 2, M))
            blk = buf[:end - base]
            blk[:, :q] = 0.0   # then blk = rows - [0, Z Theta] is one contiguous subtraction
            np.matmul(Z[base:end], Theta, out=blk[:, q:])
            np.subtract(data.rows[base:end], blk, out=blk)
        np.matmul(buf[a - base:b - base].T, buf[a - base:b - base], out=stats[k])
    EE = stats[:, q:, q:]

    return ModelFit(
        data=data,
        lam=float(lam),
        theta=Theta.ravel(),
        gram=gram,
        gram_factor=gram_factor,
        W_hat=_finite_sum(symmetrize(EE.sum(axis=0)) / M, "residual covariance"),
        traj_stats=stats,
        ZtE=_finite_sum(stats[:, :q, q:].sum(axis=0), "Z^T E"),
    )


def eta(fit: ModelFit) -> np.ndarray:
    """Removal directions: row k is eta_k = (M/M_k) g_k + (T_k/M_k) lam theta, M_k = M - T_k."""
    scale, frac = fit.removal_weights
    return scale[:, None] * fit.g + (frac * fit.lam)[:, None] * fit.theta


def eta_dot(fit: ModelFit, v: np.ndarray) -> np.ndarray:
    """eta_k^T v for every k, without forming eta: (M/M_k) g_k^T v + (T_k/M_k) lam theta^T v."""
    scale, frac = fit.removal_weights
    ZtE_v = np.einsum("kab,ab->k", fit.traj_stats[:, :fit.q, fit.q:], np.reshape(v, (fit.q, -1)))
    return scale * (ZtE_v / -fit.M) + frac * (fit.lam * fit.theta @ v)


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
    solved as one stack, once per fit (ModelFit.loto_refits, read-only, shared
    by the exact and held-out sweeps). The retained residuals are E_j - Z_j D,
    D = Theta_k - Theta, so W comes from the base residual statistics, free of
    Y^T Y cancellation.
    """
    return fit.loto_refits


def covariance_direct_term(fit: ModelFit) -> np.ndarray:
    """Covariance shifts from removal alone, (T_k/M_k) (W_hat - W_bar_k): row k of (N, n_x, n_x)."""
    _, frac = fit.removal_weights
    return frac[:, None, None] * (fit.W_hat - fit.per_traj_cov)
