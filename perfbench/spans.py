"""Span tracing from outside the program: wrap public functions at every binding.

`Tracer.install()` replaces each traced function in every `lqrinfluence`
module that holds it by name (`solve_dare` lives in `linalg` but is also
bound in `lqr` and `influence`; `loto_refit` in `sysid` and `influence`, and
`bench` reads it from `sysid` at call time), so internal calls are seen too.
`uninstall()` puts the original objects back.  Spans stay in memory until the
caller writes them out.

A span's self time is its duration minus the durations of its direct
children; the program is single-threaded, so children never overlap.
"""
from __future__ import annotations

import functools
import importlib
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = ("bench", "sysid", "lqr", "linalg", "influence", "experiments", "cli")

# The public functions on the `lqr-influence run` path, per module.  Helpers
# called inside every Riccati iteration (symmetrize, spectral_radius) are left
# to their callers' self time: a span there would cost more than the work it
# measures.
TRACED = {
    "bench": ("generate_dataset", "generate_heldout", "heldout_prediction_scores",
              "prediction_loss", "residual_lag1_autocorr", "simulate_uav", "system_spec"),
    "sysid": ("load_dataset", "fit_ridge", "loto_refit", "eta"),
    "lqr": ("riccati_artifacts", "riccati_gradient", "residual_channel_gradient",
            "gain_and_closed_loop"),
    "linalg": ("solve_dare", "solve_dlyap", "cholesky_factor", "solve_spd"),
    "influence": ("build_score_table", "score_all", "direct_trace_term", "exact_loto_sweep",
                  "loto_record", "diagnostics_from_record"),
    "experiments": ("load_config", "run_experiment", "write_outputs", "spearman",
                    "topk_jaccard"),
    "cli": ("main",),
}


def _fit_bytes(fit) -> int:
    arrays = (fit.theta, fit.gram, fit.hessian, fit.hessian_factor.L, fit.residuals,
              fit.W_hat, fit.per_traj_cov, fit.g)
    return int(sum(a.nbytes for a in arrays))


def dare_rel_residual(A, B, Q, R, P) -> float:
    """||Q + A'PA - A'PB (R + B'PB)^-1 B'PA - P||_F / ||P||_F."""
    apb = A.T @ P @ B
    rhs = Q + A.T @ P @ A - apb @ np.linalg.solve(R + B.T @ P @ B, apb.T)
    return float(np.linalg.norm(rhs - P) / np.linalg.norm(P))


class Tracer:
    """Collects spans and per-function counters for calls into the program."""

    def __init__(self):
        self.spans = []           # [span id, parent id, trace id, name, start, end]
        self.counters = defaultdict(float)
        self.maxima = defaultdict(float)
        self.dare_calls = []      # (A, B, Q, R, P) kept for residuals after the run
        self.trace_id = 0
        self._stack = []
        self._saved = []          # (module, attribute, original)

    # -- per-function probes: cheap bookkeeping on arguments and results --
    def _probe(self, name, args, kwargs, result):
        if name == "linalg.cholesky_factor":
            self.maxima["linalg.cholesky_factor.max_dim"] = max(
                self.maxima["linalg.cholesky_factor.max_dim"], result.dim)
        elif name == "linalg.solve_dare" and len(args) >= 4:
            self.dare_calls.append((*args[:4], result))
        elif name == "sysid.fit_ridge":
            self.counters["sysid.fit_ridge.model_bytes"] += _fit_bytes(result)
        elif name == "sysid.load_dataset":
            self.counters["sysid.load_dataset.bytes_read"] += os.path.getsize(args[0])
        elif name == "experiments.write_outputs":
            self.counters["experiments.write_outputs.bytes_written"] += sum(
                os.path.getsize(p) for p in result)
        elif name == "influence.build_score_table":
            self.counters["influence.excluded"] += len(result.excluded_indices())

    def _wrap(self, name, func):
        spans = self.spans
        stack = self._stack
        counters = self.counters

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else None, self.trace_id, name,
                    perf_counter(), None]
            spans.append(span)
            stack.append(span[0])
            try:
                result = func(*args, **kwargs)
            finally:
                span[5] = perf_counter()
                stack.pop()
            counters[name + ".calls"] += 1
            self._probe(name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        package = [m for n, m in sorted(sys.modules.items())
                   if n == "lqrinfluence" or n.startswith("lqrinfluence.")]
        for mod_name in MODULES:
            module = importlib.import_module(f"lqrinfluence.{mod_name}")
            for fn_name in TRACED[mod_name]:
                original = getattr(module, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for holder in package:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._saved.append((holder, attr, original))
                            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._saved):
            setattr(holder, attr, original)
        self._saved.clear()

    def bindings(self) -> list:
        """(module, attribute) pairs currently rebound, for checks."""
        return [(h.__name__, a) for h, a, _ in self._saved]

    # -- summaries --
    def self_times(self, slowdown=None) -> dict:
        """Total self time per function name.

        slowdown maps a trace id to the factor its times are divided by.
        """
        child = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = defaultdict(float)
        for sid, _, tid, name, start, end in self.spans:
            totals[name] += ((end - start) - child[sid]) / (slowdown[tid] if slowdown else 1.0)
        return dict(totals)

    def inclusive_times(self, slowdown=None) -> dict:
        """Total span time per function name, children included, not counting
        a span nested inside another span of the same function twice."""
        name_of = {span[0]: span[3] for span in self.spans}
        parent_of = {span[0]: span[1] for span in self.spans}
        totals = defaultdict(float)
        for _, parent, tid, name, start, end in self.spans:
            while parent is not None and name_of[parent] != name:
                parent = parent_of[parent]
            if parent is None:
                totals[name] += (end - start) / (slowdown[tid] if slowdown else 1.0)
        return dict(totals)

    def dare_residual_max(self) -> float:
        return max((dare_rel_residual(*c) for c in self.dare_calls), default=float("nan"))

    def span_records(self) -> list:
        return [{"id": sid, "parent": parent, "trace": tid, "name": name,
                 "start": start, "end": end}
                for sid, parent, tid, name, start, end in self.spans]
