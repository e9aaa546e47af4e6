"""The trace of a large single-image bca/bcaf solve runs one iteration
behind on a helper thread: same bytes as the serial path, the path picked by
image size, usable cores, solo versus stack and method alone, no thread left
alive after a solve, and one meaning of ``seconds`` on every path."""

import dataclasses
import itertools
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

import mpgdenoise.solvers as solvers
from mpgdenoise.methods import run_method
from mpgdenoise.noise import NoiseSpec, corrupt, make_phantom
from mpgdenoise.solvers import SolverConfig, TraceRecord

COLUMNS = tuple(f.name for f in dataclasses.fields(TraceRecord) if f.name != "seconds")
CFG = SolverConfig(lambda1=8.0, lambda2=2.5, xi=1e-20, max_iters=5)


def observed(size, seed=1):
    truth = make_phantom("circles", size, size)
    return corrupt(truth, NoiseSpec(eta=4.0, sigma=1e-4, seed=seed)), truth


@pytest.fixture
def cores(monkeypatch):
    """Set the usable-core count the solvers see."""
    return lambda n: monkeypatch.setattr(solvers, "_usable_cores", lambda: n)


@pytest.fixture
def threads_of_columns(monkeypatch):
    """Record, per diagnostics call, whether it ran on the main thread."""
    on_main = []
    real = solvers._columns

    def spy(*args):
        on_main.append(threading.current_thread() is threading.main_thread())
        return real(*args)

    monkeypatch.setattr(solvers, "_columns", spy)
    return on_main


def test_helper_path_is_above_the_serial_break_even():
    assert 160 * 160 < solvers.HELPER_PIXELS <= 192 * 192


@pytest.mark.parametrize("method", ["bca", "bcaf"])
def test_helper_and_serial_paths_give_the_same_bytes(method, cores, threads_of_columns):
    """The interpreter switches threads every 10 us here, so the helper's
    numpy calls interleave finely with the step's."""
    f, truth = observed(192)
    runs = {}
    interval = sys.getswitchinterval()
    for n in (1, 2):
        cores(n)
        start = threading.active_count()
        sys.setswitchinterval(1e-5)
        try:
            u, trace = run_method(method, f, CFG, truth)
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == start
        runs[n] = (u.tobytes(), [tuple(getattr(r, c) for c in COLUMNS) for r in trace])
        assert all(b.seconds >= a.seconds > 0.0 for a, b in zip(trace, trace[1:]))
    assert threads_of_columns == [True] * 5 + [False] * 5
    assert runs[1] == runs[2]
    assert len(runs[1][1]) == 5 and runs[1][1][-1][-1] is not None  # the SNR column too


@pytest.mark.parametrize("method, size, n_cores, stack, on_main", [
    ("bca", 192, 2, False, False),
    ("bcaf", 192, 2, False, False),
    ("bca", 64, 2, False, True),     # below HELPER_PIXELS
    ("bcaf", 64, 2, False, True),
    ("bca", 192, 1, False, True),    # one usable core
    ("bcaf", 192, 1, False, True),
    ("bca", 192, 2, True, True),     # a stack of one
    ("tvl2", 192, 2, False, True),   # the baselines
    ("tvkl", 192, 2, False, True),
])
def test_diagnostics_run_on_the_thread_the_rules_pick(method, size, n_cores, stack, on_main, cores,
                                                      threads_of_columns):
    cores(n_cores)
    f, _ = observed(size)
    f = np.maximum(f, 0.0)  # tvkl needs a nonnegative observation
    cfg = dataclasses.replace(CFG, max_iters=3)
    run_method(method, f[None] if stack else f, cfg)
    assert threads_of_columns == [on_main] * (1 if stack else 3)


@pytest.mark.parametrize("method", ["bca", "bcaf"])
@pytest.mark.parametrize("fail_at", [1, 3, 5])
def test_exception_in_the_diagnostics_reaches_the_caller(method, fail_at, cores, monkeypatch):
    cores(2)
    real = solvers._bilinear_diagnostics
    calls = []

    def failing(d, cfg):
        calls.append(threading.current_thread() is threading.main_thread())
        if len(calls) == fail_at:
            raise FloatingPointError("diagnostics failed")
        return real(d, cfg)

    monkeypatch.setattr(solvers, "_bilinear_diagnostics", failing)
    f, _ = observed(192)
    start = threading.active_count()
    with pytest.raises(FloatingPointError, match="diagnostics failed"):
        run_method(method, f, CFG)
    assert threading.active_count() == start
    assert not any(calls)


# bcaf runs bca's bilinear block, so both reach the w-step by bca's name
@pytest.mark.parametrize("method, step", [("bca", "bca_w_step"), ("bcaf", "bca_w_step")])
def test_exception_in_a_step_joins_the_helper(method, step, cores, monkeypatch):
    cores(2)
    real = getattr(solvers, step)
    calls = []

    def failing(*args):
        calls.append(None)
        if len(calls) == 3:
            raise solvers.DomainError("step failed")
        return real(*args)

    monkeypatch.setattr(solvers, step, failing)
    f, truth = observed(192)
    start = threading.active_count()
    with pytest.raises(solvers.DomainError, match="step failed"):
        run_method(method, f, CFG, truth)
    assert threading.active_count() == start


def test_helper_keeps_the_callers_numpy_error_state(cores, monkeypatch):
    cores(2)
    real = solvers._bilinear_diagnostics
    seen = []

    def recording(d, cfg):
        seen.append((threading.current_thread() is threading.main_thread(), np.geterr()["divide"]))
        return real(d, cfg)

    monkeypatch.setattr(solvers, "_bilinear_diagnostics", recording)
    f, _ = observed(192)
    with np.errstate(divide="raise"):
        run_method("bca", f, CFG)
    assert seen == [(False, "raise")] * 5


@pytest.mark.parametrize("method", ["bca", "bcaf"])
def test_helper_stops_at_the_serial_iteration(method, cores):
    """With the default xi the helper path stops where the serial one does,
    and its records keep iteration order."""
    f, truth = observed(192, seed=5)
    cfg = SolverConfig(lambda1=8.0, lambda2=2.5, xi=2e-2)
    traces = {}
    for n in (1, 2):
        cores(n)
        _, trace = run_method(method, f, cfg, truth)
        traces[n] = [tuple(getattr(r, c) for c in COLUMNS) for r in trace]
        assert [r.iter for r in trace] == list(range(1, len(trace) + 1))
    assert traces[1] == traces[2] and 1 < len(traces[1]) < cfg.max_iters


@pytest.mark.parametrize("method", ["bca", "bcaf"])
def test_helper_reads_nothing_the_next_step_overwrites(method, cores, monkeypatch):
    """Each record's diagnostics wait until the next iteration's bilinear
    multiplier step, the last write of both methods' steps, is done: an
    array that step wrote in place would change the record's bytes."""
    f, truth = observed(192)
    cores(1)
    serial = [tuple(getattr(r, c) for c in COLUMNS) for r in run_method(method, f, CFG, truth)[1]]

    cores(2)
    steps, records = [], []
    real_step = solvers.bca_multiplier_step
    real_diagnostics = solvers._bilinear_diagnostics

    def counting_step(*args):
        out = real_step(*args)
        steps.append(None)
        return out

    def late(d, cfg):
        records.append(None)
        k = len(records)
        deadline = time.monotonic() + 10.0
        while k < CFG.max_iters and len(steps) <= k and time.monotonic() < deadline:
            time.sleep(1e-3)
        assert len(steps) == min(k + 1, CFG.max_iters)
        return real_diagnostics(d, cfg)

    monkeypatch.setattr(solvers, "bca_multiplier_step", counting_step)
    monkeypatch.setattr(solvers, "_bilinear_diagnostics", late)
    _, trace = run_method(method, f, CFG, truth)
    assert [tuple(getattr(r, c) for c in COLUMNS) for r in trace] == serial


@pytest.mark.parametrize("n_cores", [1, 2])
@pytest.mark.parametrize("method", ["bca", "bcaf", "tvl2", "tvkl"])
def test_seconds_has_one_meaning_on_every_path(method, n_cores, cores, monkeypatch):
    """Under a clock whose reads return 0, 1, 2, ... a record's ``seconds``
    is the number of iterations done: the clock is read once per iteration,
    on the calling thread, whether the image is solved alone, with its trace
    on the helper thread, or as a stack of one."""
    cores(n_cores)
    readers = []

    def counting_clock():
        ticks = itertools.count()

        def perf_counter():
            readers.append(threading.current_thread() is threading.main_thread())
            return float(next(ticks))

        return SimpleNamespace(perf_counter=perf_counter)

    f, truth = observed(192)
    f = np.maximum(f, 0.0)  # tvkl needs a nonnegative observation
    monkeypatch.setattr(solvers, "time", counting_clock())
    _, trace = run_method(method, f, CFG, truth)
    monkeypatch.setattr(solvers, "time", counting_clock())
    _, traces = run_method(method, f[None], CFG, truth)
    assert [r.seconds for r in trace] == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert traces[0][-1].seconds == trace[-1].seconds
    assert readers and all(readers)
