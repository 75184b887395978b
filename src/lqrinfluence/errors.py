"""Exceptions shared across the package."""


class LqrInfluenceError(Exception):
    """Base class for package errors."""


class DimensionMismatch(LqrInfluenceError, ValueError):
    """Array shapes are inconsistent with each other or with the declared dimensions."""


class NotPositiveDefinite(LqrInfluenceError):
    """A matrix required to be positive definite has a non-positive pivot."""


class NoConvergence(LqrInfluenceError):
    """The Lyapunov solve (solve_dlyap) did not converge or failed its residual certificate."""


class NoStabilizingSolution(LqrInfluenceError):
    """The Riccati solver found no stabilizing solution with a certified residual."""


class UnstableClosedLoop(LqrInfluenceError):
    """The closed-loop matrix has spectral radius at or above one."""


class SingleTrajectory(LqrInfluenceError):
    """The dataset holds fewer than two trajectories."""


class DegenerateInput(LqrInfluenceError, ValueError):
    """An input vector is constant where variation is required."""


class InvalidConfig(LqrInfluenceError, ValueError):
    """An experiment configuration, or a dataset file it names, is malformed or inconsistent."""
