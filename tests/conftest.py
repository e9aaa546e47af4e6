"""Shared test fixtures."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import mpgdenoise


@pytest.fixture
def transient_peak():
    """``measure(fn, *args, **kwargs)`` calls ``fn`` under tracemalloc and
    returns ``(result, peak)``: the most bytes the call held at once beyond
    what was allocated before it, its result included.  numpy reports its
    array buffers to tracemalloc, so arrays count in full."""

    def measure(fn, *args, **kwargs):
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = fn(*args, **kwargs)
            return result, tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()

    return measure


@pytest.fixture
def fresh_python():
    """``run(code, *args)`` runs ``code`` in a new interpreter that imports
    this package from the same tree as the tests do, and returns the last
    line of its standard output.  The test process has long imported scipy,
    so only a fresh one shows what an import or a command loads."""
    src = str(Path(mpgdenoise.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def run(code, *args):
        out = subprocess.run(
            [sys.executable, "-c", code, *map(str, args)],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            check=True,
        )
        return out.stdout.strip().splitlines()[-1]

    return run
