"""Machine-speed probe that turns wall times into reference-speed seconds.

On a shared machine the same call takes anywhere from 1x to 2x its
uncontended time, depending on what the neighbours run, and the median over
a 30-second run moved by 15-60% from one run to the next.  So every timed
call is bracketed by two runs of a fixed kernel, and the call's wall time is
divided by the mean of the two readings, each the kernel's wall time over its
reference time.  The benchmark pins itself to one CPU, so the kernel and the
call share it; unpinned, the two often ran on different CPUs and the
readings did not track the calls.

The kernel mixes small-matrix Riccati iterations with an interpreter loop,
the kind of work behind most of the program's time.  Its reference time is
its fastest wall time seen on the machine the baseline was taken on
(2 vCPUs, Intel Xeon, Python 3.11, one BLAS thread).

Work on matrices of a few megabytes slows down with the neighbours' use of
the shared cache and memory, which that kernel does not feel.  A second
kernel streams through a 4 MB array; memory_slowdown() reads it the same way.
"""
from __future__ import annotations

import time

import numpy as np

_rng = np.random.default_rng(20260101)
_A = _rng.normal(size=(4, 4))
_A *= 0.9 / np.max(np.abs(np.linalg.eigvals(_A)))
_B = _rng.normal(size=(4, 2))
_Q, _R = np.eye(4), np.eye(2)
_BIG = _rng.normal(size=1 << 19)

REFERENCE_S = 0.0068          # kernel()'s fastest wall time on the baseline machine
MEMORY_REFERENCE_S = 0.0031   # memory_kernel()'s, likewise


def kernel() -> None:
    P = _Q.copy()
    for _ in range(300):
        apb = _A.T @ P @ _B
        P = _Q + _A.T @ P @ _A - apb @ np.linalg.solve(_R + _B.T @ P @ _B, apb.T)
        P = (P + P.T) / 2.0
    acc = 0
    for i in range(20_000):
        acc += i * i % 7


def memory_kernel() -> None:
    for _ in range(16):
        _BIG.sum()


def slowdown() -> float:
    """The machine's current slowdown: the kernel's wall time over its reference."""
    t0 = time.perf_counter()
    kernel()
    return (time.perf_counter() - t0) / REFERENCE_S


def memory_slowdown() -> float:
    """The memory system's current slowdown, read the same way."""
    t0 = time.perf_counter()
    memory_kernel()
    return (time.perf_counter() - t0) / MEMORY_REFERENCE_S


kernel()   # the first calls pay one-off loading costs
memory_kernel()
