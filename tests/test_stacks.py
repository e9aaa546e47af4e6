"""Stacks of same-shape images: every operator and solver gives each image of
a stack ``(B, H, W)`` the bytes of its own solve."""

import dataclasses
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpgdenoise
from mpgdenoise import grid
from mpgdenoise.chambolle import ChambolleConfig, soft_threshold, tv_l2_denoise
from mpgdenoise.methods import METHODS, run_method
from mpgdenoise.noise import NoiseSpec, corrupt, make_phantom
from mpgdenoise.screened_poisson import solve_screened_poisson
from mpgdenoise.solvers import SolverConfig, TraceRecord

COLUMNS = tuple(f.name for f in dataclasses.fields(TraceRecord) if f.name != "seconds")


def columns(rec):
    return repr(tuple(getattr(rec, c) for c in COLUMNS))


# ---------------------------------------------------------------------------
# operators


@pytest.mark.parametrize("shape", [(3, 1, 1), (2, 1, 9), (4, 7, 1), (3, 8, 8), (5, 9, 13), (2, 24, 17)])
def test_operators_on_a_stack_give_each_image_its_own_bytes(shape):
    rng = np.random.default_rng(sum(shape))
    u = rng.standard_normal(shape)
    q = rng.standard_normal(grid.field_shape(shape))
    grad, div, mag = grid.gradient(u), grid.divergence(q), grid.magnitude(q)
    shrunk = soft_threshold(q, 0.3)
    poisson = solve_screened_poisson(u, 3.0, 0.7)
    tv, dual, _ = tv_l2_denoise(u, 2.0, ChambolleConfig(inner_iters=3))
    assert grad.shape == q.shape and dual.shape == q.shape
    for b in range(shape[0]):
        assert grad[b].tobytes() == grid.gradient(u[b]).tobytes()
        assert div[b].tobytes() == grid.divergence(q[b]).tobytes()
        assert mag[b].tobytes() == grid.magnitude(q[b]).tobytes()
        assert shrunk[b].tobytes() == soft_threshold(q[b], 0.3).tobytes()
        assert poisson[b].tobytes() == solve_screened_poisson(u[b], 3.0, 0.7).tobytes()
        tv_b, dual_b, _ = tv_l2_denoise(u[b], 2.0, ChambolleConfig(inner_iters=3))
        assert tv[b].tobytes() == tv_b.tobytes() and dual[b].tobytes() == dual_b.tobytes()


def test_as_images_accepts_one_image_or_a_stack():
    assert grid.as_images(np.zeros((2, 3))).shape == (2, 3)
    stack = grid.as_images(np.zeros((4, 3, 2), order="F"))
    assert stack.shape == (4, 3, 2) and stack.flags.c_contiguous
    for bad in (np.zeros(4), np.zeros((0, 3, 3)), np.zeros((1, 2, 3, 4))):
        with pytest.raises(ValueError):
            grid.as_images(bad)
    with pytest.raises(grid.DomainError):
        grid.as_images(np.full((2, 2, 2), np.nan))


# ---------------------------------------------------------------------------
# solvers


def assert_stack_matches_solo(method, f, cfg, truth):
    """Each image of the stacked solve has the ``u`` bytes, iteration count
    and final record (``seconds`` aside) of its own solve; returns the stop
    iterations."""
    start = time.perf_counter()
    u, traces = run_method(method, f, cfg, truth=truth)
    wall = time.perf_counter() - start
    assert u.shape == f.shape and len(traces) == len(f)
    iters = []
    for b in range(len(f)):
        u_b, trace_b = run_method(method, f[b], cfg, truth=truth)
        assert u[b].tobytes() == u_b.tobytes(), (method, b)
        assert len(traces[b]) == 1, (method, b)
        assert traces[b][0].iter == len(trace_b), (method, b)
        assert columns(traces[b][0]) == columns(trace_b[-1]), (method, b)
        iters.append(len(trace_b))
    # each image's seconds is its share of the iterations it was in the stack
    assert all(t[0].seconds > 0.0 for t in traces)
    assert sum(t[0].seconds for t in traces) <= wall
    return iters


@pytest.mark.parametrize("method", sorted(METHODS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_stacked_solve_matches_solo_solves(method, data):
    n = data.draw(st.integers(1, 5), label="images")
    h = data.draw(st.integers(8, 24), label="height")
    w = data.draw(st.integers(8, 24), label="width")
    kind = data.draw(st.sampled_from(["circles", "ramp", "checker"]), label="kind")
    truth = make_phantom(kind, w, h)
    f = np.stack([
        corrupt(truth, NoiseSpec(
            eta=data.draw(st.sampled_from([2.0, 4.0, 16.0, 64.0])),
            sigma=data.draw(st.sampled_from([0.0, 1e-4, 1e-2, 5e-2])),
            seed=data.draw(st.integers(0, 2**16)),
        ))
        for _ in range(n)
    ])
    # xi and max_iters where some solves stop on the step and others on the cap
    cfg = SolverConfig(
        lambda1=8.0,
        lambda2=2.5,
        xi=data.draw(st.sampled_from([2e-3, 5e-3, 1e-2, 3e-2])),
        max_iters=data.draw(st.integers(1, 30)),
    )
    with_truth = data.draw(st.booleans(), label="truth")
    assert_stack_matches_solo(method, f, cfg, truth if with_truth else None)


@pytest.mark.parametrize("method", sorted(METHODS))
def test_staggered_stops_leave_the_stack_one_by_one(method):
    """Noise levels far apart stop at different iterations, some on the step
    and one on the cap, and a truth per image gives each its own SNR."""
    truth = make_phantom("circles", 20, 18)
    levels = [(4.0, 1e-4), (64.0, 1e-2), (16.0, 1e-3), (2.0, 5e-2)]
    f = np.stack([corrupt(truth, NoiseSpec(eta, sigma, seed=k)) for k, (eta, sigma) in enumerate(levels)])
    xi = 1e-3 if method == "tvl2" else 5e-3  # tvl2 takes a few long steps
    solo = [len(run_method(method, g, SolverConfig(lambda1=8.0, lambda2=2.5, xi=xi))[1]) for g in f]
    cap = max(solo) - 1
    cfg = SolverConfig(lambda1=8.0, lambda2=2.5, xi=xi, max_iters=cap)
    iters = assert_stack_matches_solo(method, f, cfg, truth)
    assert len(set(iters)) > 1 and cap in iters and min(iters) < cap
    truths = np.stack([truth, truth[::-1], truth[:, ::-1], 1.0 - truth])
    _, traces = run_method(method, f, cfg, truth=truths)
    for b in range(len(f)):
        assert traces[b][0].snr == run_method(method, f[b], cfg, truth=truths[b])[1][-1].snr


# ---------------------------------------------------------------------------
# BLAS threads

BLAS_SCRIPT = """
import dataclasses, hashlib
from mpgdenoise import NoiseSpec, SolverConfig, bca_solve, bcaf_solve, corrupt, make_phantom
from mpgdenoise.solvers import TraceRecord

cols = [c.name for c in dataclasses.fields(TraceRecord) if c.name != "seconds"]
f = corrupt(make_phantom("circles", 128, 128), NoiseSpec(eta=4.0, sigma=1e-2, seed=3))
for solve in (bca_solve, bcaf_solve):
    u, trace = solve(f, SolverConfig(lambda1=8.0, lambda2=2.5, max_iters=4))
    rows = [tuple(getattr(r, c) for c in cols) for r in trace]
    print(hashlib.sha256(u.tobytes()).hexdigest(), hashlib.sha256(repr(rows).encode()).hexdigest())
"""


def test_trace_bits_do_not_depend_on_blas_threads():
    """At 128x128 the diagnostics' inner products are longer than the length
    from which OpenBLAS splits a dot product over its threads; the trace must
    still have the same bits under one and two threads."""
    src = str(Path(mpgdenoise.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": threads,
            "OMP_NUM_THREADS": threads,
            "MKL_NUM_THREADS": threads,
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        }
        run = subprocess.run(
            [sys.executable, "-c", BLAS_SCRIPT], env=env, capture_output=True, text=True, timeout=120
        )
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    assert len(outputs[0].split()) == 4
    assert outputs[0] == outputs[1]
