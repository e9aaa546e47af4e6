"""Shared test fixtures."""

import tracemalloc

import pytest


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
