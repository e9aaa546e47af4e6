"""Outside-in tracing of the mpgdenoise package.

The tracer replaces package functions with timing wrappers at run time and
puts the originals back afterwards; no package code is edited.  A target is
named by module and attribute.  Every loaded ``mpgdenoise`` module that holds
the same function object, because it imported the name, gets the wrapper
too: calls through ``solvers.tv_l2_denoise`` are counted together with calls
through ``chambolle.tv_l2_denoise``, and calls through ``chambolle.gradient``
together with ``grid.gradient``.

Each call is a span with a name, a duration and the span that was open in
the same thread when it started, so self time and per-parent counts can be
derived.  Span stacks are kept per thread because ``run_bench`` runs cells
in worker threads.  A target whose module or attribute no longer exists is
skipped; :attr:`Tracer.present` tells the report which layers it can show.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

PACKAGE = "mpgdenoise"

# (module, attribute, span name); several attributes may share one span name
TARGETS = (
    ("chambolle", "tv_l2_denoise", "chambolle.tv_l2_denoise"),
    ("screened_poisson", "solve_screened_poisson", "screened_poisson.solve"),
    ("grid", "gradient", "grid.gradient"),
    ("grid", "divergence", "grid.divergence"),
    ("grid", "laplacian", "grid.laplacian"),
    ("solvers", "bca_solve", "solvers.solve"),
    ("solvers", "bcaf_solve", "solvers.solve"),
    ("solvers", "tv_l2_solve", "solvers.solve"),
    ("solvers", "tv_kl_solve", "solvers.solve"),
    ("solvers", "bca_u_step", "solvers.u_step"),
    ("solvers", "bcaf_u_step", "solvers.u_step"),
    ("solvers", "bca_v_step", "solvers.v_step"),
    ("solvers", "bcaf_v_step", "solvers.v_step"),
    ("solvers", "bca_w_step", "solvers.w_step"),
    ("solvers", "bcaf_w_step", "solvers.w_step"),
    ("solvers", "bcaf_p_step", "solvers.p_step"),
    ("solvers", "bca_multiplier_step", "solvers.multiplier"),
    ("solvers", "bcaf_multiplier_step", "solvers.multiplier"),
    ("metrics", "ssim", "metrics.ssim"),
    ("metrics", "snr", "metrics.snr"),
    ("metrics", "objective_H", "metrics.objective_H"),
    ("noise", "corrupt", "noise.corrupt"),
    ("fileio", "read_image", "fileio.read_image"),
    ("fileio", "write_image", "fileio.write_image"),
    ("fileio", "write_trace", "fileio.write_trace"),
)


class Tracer:
    """Context manager that wraps :data:`TARGETS` while it is active."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched = []
        self.present: set[str] = set()
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.child_calls = defaultdict(int)  # (parent, child) -> calls
        self.child_seconds = defaultdict(float)  # (parent, child) -> seconds
        self.top_seconds = 0.0  # spans opened with no span open in their thread
        self.pixels = defaultdict(int)  # image size of the first argument
        self.solver_traces = []  # trace lists returned by solver calls

    def __enter__(self):
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for modname, attr, span in TARGETS:
            original = getattr(sys.modules.get(f"{PACKAGE}.{modname}"), attr, None)
            if not callable(original):
                continue
            self.present.add(span)
            wrapper = self._wrap(span, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))
        return self

    def __exit__(self, *exc):
        while self._patched:
            mod, key, original = self._patched.pop()
            setattr(mod, key, original)
        return False

    def _wrap(self, span, fn):
        local = self._local
        lock = self._lock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            stack.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                with lock:
                    self.calls[span] += 1
                    self.seconds[span] += elapsed
                    if parent is None:
                        self.top_seconds += elapsed
                    else:
                        self.child_calls[(parent, span)] += 1
                        self.child_seconds[(parent, span)] += elapsed
            if span == "noise.corrupt" and args:
                with lock:
                    self.pixels[span] += int(getattr(args[0], "size", 0))
            elif span == "solvers.solve" and isinstance(result, tuple) and len(result) == 2:
                with lock:
                    self.solver_traces.append(result[1])
            return result

        return wrapper
