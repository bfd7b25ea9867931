"""Span recorder for the traced benchmark run.

The recorder replaces public module-level functions of ``latticewh`` with
thin wrappers while it is installed.  A function is replaced under every
name that refers to it in a loaded ``latticewh`` module
(``whsolver.coefficients``, ``oracle.eval_matrix_kernel``, ...), so calls
made inside the library are traced as well.  The benchmark itself calls
the library through module attributes, which the same patching covers.  Nested calls give parent/child spans; a span's self
time is its duration minus the time its direct children cover.

Spans are kept in memory as tuples and written out once, at the end of a
run.  Nothing under ``src/latticewh`` is edited.
"""

from __future__ import annotations

import csv
import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Public functions timed per layer, as (module, function).
TRACED = (
    ("branches", "dispersion_solve"),
    ("kernels", "eval_scalar_kernel"),
    ("kernels", "eval_matrix_kernel"),
    ("kernels", "det_closed_form"),
    ("kernels", "scalar_forcing"),
    ("kernels", "vector_forcing"),
    ("series", "sample"),
    ("series", "coefficients"),
    ("series", "mult_factorize"),
    ("series", "additive_split"),
    ("whsolver", "solve_scalar"),
    ("whsolver", "close_constants"),
    ("whsolver", "reconstruct_field"),
    ("oracle", "assemble"),
    ("oracle", "solve_direct"),
    ("oracle", "wh_residual"),
    ("fields", "compare_fields"),
)
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fn in TRACED)
CASE_SPAN = "perfbench.case"


def _kernel_points(args, result):
    return {"kernels.points": int(np.size(args[1])), "kernels.eval_calls": 1}


def _system_size(args, result):
    return {"oracle.unknowns": int(result.matrix.shape[0]),
            "oracle.matrix_nnz": int(result.matrix.nnz)}


def _field_pixels(args, result):
    return {"whsolver.pixels": int(result.u.size + (0 if result.v is None else result.v.size))}


# Counters taken at a span boundary from the call's arguments and result.
_COUNTERS = {
    "kernels.eval_scalar_kernel": _kernel_points,
    "kernels.eval_matrix_kernel": _kernel_points,
    "oracle.assemble": _system_size,
    "whsolver.reconstruct_field": _field_pixels,
}


class Recorder:
    """In-memory span store; one per traced run.

    A span is ``(name, start, end, parent, case, failed)``: times from
    ``time.perf_counter``, ``parent`` the index of the enclosing span or -1,
    ``case`` the case id (``"setup"`` outside timed cases).
    """

    def __init__(self):
        self.spans: list = []
        self.counts: list = []  # (case, counter name, value)
        self.case = "setup"
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.case, failed)
            if counter is not None:
                for key, value in counter(args, result).items():
                    self.counts.append((self.case, key, value))
            return result

        return traced

    @contextmanager
    def case_span(self, case_id):
        """Root span of one timed case; every traced call inside is its descendant."""
        self.case = case_id
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        failed = True
        try:
            yield
            failed = False
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (CASE_SPAN, start, end, -1, case_id, failed)
            self.case = "setup"

    @contextmanager
    def installed(self):
        """Patch every traced function, in each module that bound it, until exit."""
        originals = {}
        for mod_name, fn_name in TRACED:
            module = sys.modules[f"latticewh.{mod_name}"]
            originals[getattr(module, fn_name)] = self._wrap(f"{mod_name}.{fn_name}",
                                                             getattr(module, fn_name))
        targets = [m for key, m in sys.modules.items()
                   if m is not None and (key == "latticewh" or key.startswith("latticewh."))]
        patched = []
        for module in targets:
            for attr, value in list(vars(module).items()):
                try:
                    wrapper = originals.get(value)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    patched.append((module, attr, value))
        try:
            yield
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def summary(self) -> dict:
        """Per-function calls, self time and failures over timed cases."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        case_ids = set()
        case_wall = 0.0
        per_fn = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "failed": 0}
                  for name in SPAN_NAMES + (CASE_SPAN,)}
        setup_calls = defaultdict(int)
        for idx, span in enumerate(self.spans):
            name, start, end, _parent, case, failed = span
            if case == "setup":
                setup_calls[name] += 1
                continue
            if name == CASE_SPAN:
                case_ids.add(case)
                case_wall += end - start
            stat = per_fn[name]
            stat["calls"] += 1
            stat["self_s"] += (end - start) - child_time[idx]
            stat["total_s"] += end - start  # inclusive; no traced function recurses
            stat["failed"] += int(failed)
        counts = defaultdict(int)
        max_counts = defaultdict(int)
        for case, key, value in self.counts:
            if key.startswith("oracle."):  # system sizes bound memory, set-up included
                max_counts[key] = max(max_counts[key], value)
            elif case != "setup":
                counts[key] += value
        return {"cases": len(case_ids), "case_wall_s": case_wall, "functions": per_fn,
                "counts": dict(counts), "max_counts": dict(max_counts),
                "setup_calls": dict(setup_calls)}

    def write(self, path) -> None:
        """CSV, one span a line; times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "name", "start", "end", "parent", "case", "failed"))
            for idx, (name, start, end, parent, case, failed) in enumerate(self.spans):
                out.writerow((idx, name, f"{start - t0:.9f}", f"{end - t0:.9f}", parent,
                              case, int(failed)))
