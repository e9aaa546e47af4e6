"""The trace a solve takes has one meaning of ``seconds`` on every path:
an image solved alone or as a stack of one, on one usable core or on two,
where the blocked TV dual steps run as two sweeps on two threads.  Every
record is taken on the calling thread, so only that thread reads the clock."""

import itertools
import threading
from types import SimpleNamespace

import numpy as np
import pytest

import mpgdenoise.chambolle as chambolle
import mpgdenoise.grid as grid
import mpgdenoise.solvers as solvers
from mpgdenoise.methods import run_method
from mpgdenoise.noise import NoiseSpec, corrupt, make_phantom
from mpgdenoise.solvers import SolverConfig

CFG = SolverConfig(lambda1=8.0, lambda2=2.5, xi=1e-20, max_iters=5)

#: small enough that a 192x192 TV dual step runs in row blocks, and on two
#: usable cores in two sweeps
SMALL_BLOCK = 192 * 48

#: the methods that run TV dual steps (bcaf's u step is a screened-Poisson
#: solve, so on bcaf the core count changes nothing)
TV_METHODS = {"bca", "tvl2", "tvkl"}


def observed(size, seed=1):
    truth = make_phantom("circles", size, size)
    return corrupt(truth, NoiseSpec(eta=4.0, sigma=1e-4, seed=seed)), truth


@pytest.fixture
def cores(monkeypatch):
    """Set the usable-core count the TV sweeps see."""
    return lambda n: monkeypatch.setattr(grid, "_usable_cores", lambda: n)


@pytest.mark.parametrize("n_cores", [1, 2])
@pytest.mark.parametrize("method", ["bca", "bcaf", "tvl2", "tvkl"])
def test_seconds_has_one_meaning_on_every_path(method, n_cores, cores, monkeypatch):
    """Under a clock whose reads return 0, 1, 2, ... a record's ``seconds``
    is the number of iterations done: the clock is read once per iteration,
    on the calling thread, whether the image is solved alone or as a stack
    of one, and whether its TV dual steps run in one sweep or in two."""
    cores(n_cores)
    monkeypatch.setattr(grid, "BLOCK_PIXELS", SMALL_BLOCK)
    readers, sweeps_on_main = [], set()
    real_steps = chambolle._steps

    def steps(*args):
        sweeps_on_main.add(threading.current_thread() is threading.main_thread())
        return real_steps(*args)

    def counting_clock():
        ticks = itertools.count()

        def perf_counter():
            readers.append(threading.current_thread() is threading.main_thread())
            return float(next(ticks))

        return SimpleNamespace(perf_counter=perf_counter)

    monkeypatch.setattr(chambolle, "_steps", steps)
    f, truth = observed(192)
    f = np.maximum(f, 0.0)  # tvkl needs a nonnegative observation
    monkeypatch.setattr(solvers, "time", counting_clock())
    _, trace = run_method(method, f, CFG, truth)
    monkeypatch.setattr(solvers, "time", counting_clock())
    _, traces = run_method(method, f[None], CFG, truth)
    assert [r.seconds for r in trace] == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert traces[0][-1].seconds == trace[-1].seconds
    assert readers and all(readers)
    if method in TV_METHODS:  # the path under test ran
        assert sweeps_on_main == ({True} if n_cores == 1 else {True, False})
