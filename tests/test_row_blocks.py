"""Row blocks above ``grid.BLOCK_PIXELS``: the same bytes as one block, and
temporaries of block size at 1024^2."""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from mpgdenoise import chambolle, grid
from mpgdenoise.chambolle import ChambolleConfig, tv_l2_denoise
from mpgdenoise.metrics import SSIM_WINDOW, ssim

#: small enough that the shapes below take several blocks
SMALL_BLOCK = 64
#: large enough that every shape below is one block
ONE_BLOCK = 2**40


@contextlib.contextmanager
def block_pixels(n):
    saved = grid.BLOCK_PIXELS
    grid.BLOCK_PIXELS = n
    try:
        yield
    finally:
        grid.BLOCK_PIXELS = saved


def tv_run(g, depth, warm, n):
    """``tv_l2_denoise`` under ``BLOCK_PIXELS = n``; returns ``(u, dual,
    blocks)``, the dual being the array passed in when ``warm`` is given."""
    dual = None if warm is None else warm.copy()
    steps = chambolle._steps
    calls = []

    def counted(*args):
        calls.append(1)
        return steps(*args)

    with block_pixels(n), pytest.MonkeyPatch.context() as mp:
        mp.setattr(chambolle, "_steps", counted)
        u, out, _ = tv_l2_denoise(g, 2.5, ChambolleConfig(inner_iters=depth), dual)
    if dual is not None:
        assert out is dual
    return u, out, len(calls)


def assert_tv_blocks_exact(g, depth, warm, n=SMALL_BLOCK):
    u1, d1, one = tv_run(g, depth, warm, ONE_BLOCK)
    u, d, blocks = tv_run(g, depth, warm, n)
    assert one == 1
    assert u.tobytes() == u1.tobytes() and d.tobytes() == d1.tobytes()
    return blocks


def one_block_height(width, depth, stack=1):
    """The largest height ``tv_l2_denoise`` runs in one block at SMALL_BLOCK."""
    ghost = depth + 1
    return max(4 * ghost, SMALL_BLOCK // (stack * width)) + 2 * ghost


# ---------------------------------------------------------------------------
# the block rule


@given(
    h=hst.integers(1, 400),
    row_values=hst.integers(1, 300),
    above=hst.integers(0, 12),
    below=hst.integers(0, 12),
    n=hst.integers(1, 2**12),
)
@settings(max_examples=300, deadline=None)
def test_row_blocks_tile_the_rows(h, row_values, above, below, n):
    """The own rows tile ``[0, h)`` in order; each read span is the own
    rows widened by the halo and clipped; one block exactly when ``h <= rows
    + above + below``."""
    with block_pixels(n):
        blocks = grid.row_blocks(h, row_values, above, below)
    rows = max(2 * (above + below), n // row_values, 1)
    assert (len(blocks) == 1) == (h <= rows + above + below)
    end = 0
    for (r0, r1), (s0, s1) in blocks:
        assert r0 == end < r1
        assert (s0, s1) == (max(r0 - above, 0), min(r1 + below, h))
        if len(blocks) > 1:
            assert r1 - r0 == rows or r1 == h
        end = r1
    assert end == h


def test_row_blocks_at_1024():
    """The geometry the 1024^2 memory tests and the cli-1024 benchmark rely
    on: the TV step at depths 2 and 10 (ghosts 3 and 11) in 8 blocks of 128
    rows, TV(u) and SSIM (2 W values a row) in blocks of 64."""
    for ghost in (3, 11):
        blocks = grid.row_blocks(1024, 1024, ghost, ghost)
        assert [own for own, _ in blocks] == [(r0, r0 + 128) for r0 in range(0, 1024, 128)]
    for halo in (1, SSIM_WINDOW - 1):
        blocks = grid.row_blocks(1024, 2048, below=halo)
        assert [own for own, _ in blocks] == [(r0, r0 + 64) for r0 in range(0, 1024, 64)]


# ---------------------------------------------------------------------------
# the TV dual step


@pytest.mark.parametrize("depth", [1, 2, 3, 10])
@pytest.mark.parametrize("warm_start", [False, True])
@pytest.mark.parametrize(
    "shape", [(9, 7), (40, 33), (3, 40, 33), (1, 20), (2, 20), (40, 1), (200, 1), (200, 3)]
)
def test_tv_blocks_equal_one_block(shape, depth, warm_start):
    rng = np.random.default_rng(sum(shape) + depth)
    g = rng.uniform(0, 1, shape)
    warm = rng.normal(0, 0.4, grid.field_shape(shape)) if warm_start else None
    blocks = assert_tv_blocks_exact(g, depth, warm)
    stack, (h, w) = g.size // (shape[-2] * shape[-1]), shape[-2:]
    assert (blocks > 1) == (h > one_block_height(w, depth, stack))


@pytest.mark.parametrize("depth", [1, 2, 3, 10])
@pytest.mark.parametrize("extra, blocks", [(0, 1), (1, 2)])
def test_tv_blocks_start_just_above_one_block(depth, extra, blocks):
    """At height ``rows + 2G`` one block, one row more two."""
    h = one_block_height(7, depth) + extra
    rng = np.random.default_rng(depth)
    g = rng.uniform(0, 1, (h, 7))
    warm = rng.normal(0, 0.4, (2, h, 7))
    assert assert_tv_blocks_exact(g, depth, warm) == blocks


def test_blocked_call_carries_no_divergence():
    """Above the block size every call returns three values, ``div`` being
    ``None``, a ``div`` handed in or not: it takes its own divergences, with
    the bytes of one-block calls that carry theirs, and the next call then
    starts without one."""
    rng = np.random.default_rng(40)
    cfg = ChambolleConfig(inner_iters=2)
    for shape in ((40, 33), (3, 40, 33)):
        g = rng.uniform(0, 1, shape)
        dual = rng.normal(0, 0.4, grid.field_shape(shape))
        ref, div_ref = dual.copy(), None
        for k in range(3):
            handed = grid.divergence(dual) if k == 2 else None
            with block_pixels(SMALL_BLOCK):
                out = tv_l2_denoise(g, 2.5, cfg, dual, div=handed)
            assert len(out) == 3 and out[2] is None
            u, dual, _ = out
            u_ref, ref, div_ref = tv_l2_denoise(g, 2.5, cfg, ref, div=div_ref)
            assert u.tobytes() == u_ref.tobytes() and dual.tobytes() == ref.tobytes()


@given(
    stack=hst.integers(1, 3),
    h=hst.integers(1, 100),
    w=hst.integers(1, 12),
    depth=hst.integers(1, 10),
    n=hst.integers(1, 256),
    warm_start=hst.booleans(),
    seed=hst.integers(0, 2**16),
)
@settings(max_examples=150, deadline=None)
def test_blocks_equal_one_block_property(stack, h, w, depth, n, warm_start, seed):
    """Every blocked function gives the bytes of one block, for any block
    size, shape and depth; a ghost depth one row short fails this."""
    rng = np.random.default_rng(seed)
    shape = (stack, h, w) if stack > 1 else (h, w)
    g = rng.uniform(0, 1, shape)
    warm = rng.normal(0, 0.4, grid.field_shape(shape)) if warm_start else None
    assert_tv_blocks_exact(g, depth, warm, n)
    q = rng.normal(0, 1, grid.field_shape(shape))
    for fn, arg in ((grid.total_variation, g), (grid.divergence, q)):
        with block_pixels(ONE_BLOCK):
            one = np.asarray(fn(arg)).tobytes()
        with block_pixels(n):
            assert np.asarray(fn(arg)).tobytes() == one
    if min(h, w) >= 11 and stack == 1:
        b = rng.uniform(0, 1, shape)
        with block_pixels(ONE_BLOCK):
            one = ssim(g, b)
        with block_pixels(n):
            assert ssim(g, b) == one


# ---------------------------------------------------------------------------
# one sweep on the calling thread, on any core count


@pytest.fixture
def cores(monkeypatch):
    return lambda n: monkeypatch.setattr(grid, "_usable_cores", lambda: n)


@pytest.mark.parametrize("shape", [(40, 7), (200, 3), (3, 40, 5), (157, 1)])
def test_core_count_changes_no_byte_and_no_block(shape, cores):
    rng = np.random.default_rng(shape[-1])
    g = rng.uniform(0, 1, shape)
    warm = rng.normal(0, 0.4, grid.field_shape(shape))
    u, d, _ = tv_run(g, 2, warm, ONE_BLOCK)
    cores(1)
    u1, d1, blocks1 = tv_run(g, 2, warm, SMALL_BLOCK)
    cores(2)
    u2, d2, blocks2 = tv_run(g, 2, warm, SMALL_BLOCK)
    assert u1.tobytes() == u2.tobytes() == u.tobytes()
    assert d1.tobytes() == d2.tobytes() == d.tobytes()
    assert 1 < blocks1 == blocks2


def test_sweep_thread_takes_the_callers_error_state(cores):
    """``weight * g`` overflows in the top block only; the sweep runs on the
    calling thread, so it raises there under the caller's ``over="raise"``,
    on two usable cores as on one."""
    cores(2)
    g = np.random.default_rng(1).uniform(0, 1, (200, 7))
    g[0, 0] = 1e308
    with block_pixels(SMALL_BLOCK), np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            tv_l2_denoise(g, 2.5, ChambolleConfig(inner_iters=2))


def test_block_exception_reaches_the_caller(cores, monkeypatch):
    """A block that raises ends the sweep: the exception reaches the caller
    and no later block runs."""
    cores(2)
    real = chambolle._steps
    calls = []

    def failing(*args):
        calls.append(None)
        if len(calls) == 2:
            raise RuntimeError("a block fails")
        return real(*args)

    monkeypatch.setattr(chambolle, "_steps", failing)
    g = np.random.default_rng(2).uniform(0, 1, (200, 7))
    with block_pixels(SMALL_BLOCK), pytest.raises(RuntimeError, match="a block fails"):
        tv_l2_denoise(g, 2.5, ChambolleConfig(inner_iters=2))
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# TV(u), the divergence and SSIM


@pytest.mark.parametrize("shape", [(9, 7), (40, 33), (3, 40, 33), (1, 20), (2, 20), (40, 1)])
def test_total_variation_and_divergence_blocks_equal_one_block(shape):
    rng = np.random.default_rng(len(shape) + shape[-1])
    u = rng.uniform(0, 1, shape)
    q = rng.normal(0, 1, grid.field_shape(shape))
    with block_pixels(ONE_BLOCK):
        tv, div = grid.total_variation(u), grid.divergence(q)
    with block_pixels(SMALL_BLOCK):
        assert grid.total_variation(u) == tv
        assert grid.divergence(q).tobytes() == div.tobytes()


@pytest.mark.parametrize("shape", [(11, 11), (12, 11), (40, 33), (33, 40), (64, 17)])
def test_ssim_blocks_equal_one_block(shape):
    rng = np.random.default_rng(shape[0])
    a, b = rng.uniform(0, 1, shape), rng.uniform(0, 1, shape)
    with block_pixels(ONE_BLOCK):
        one = ssim(a, b)
    with block_pixels(SMALL_BLOCK):
        assert ssim(a, b) == one


# ---------------------------------------------------------------------------
# memory at 1024^2


@pytest.fixture(scope="module")
def image_1024():
    return np.random.default_rng(31).uniform(0, 1, (1024, 1024))


def test_tv_step_holds_two_images_beyond_its_output(image_1024, transient_peak):
    """10 warm-started steps hold block-sized work arrays and no dual copy."""
    g = image_1024
    cfg = ChambolleConfig(inner_iters=10)
    _, warm, _ = tv_l2_denoise(g, 2.5, cfg)
    (u, dual, _), peak = transient_peak(tv_l2_denoise, g, 2.5, cfg, warm)
    assert dual is warm
    assert peak <= u.nbytes + 2 * g.nbytes


def test_total_variation_holds_one_image(image_1024, transient_peak):
    _, peak = transient_peak(grid.total_variation, image_1024)
    assert peak <= 1.1 * image_1024.nbytes


def test_ssim_holds_one_and_a_half_images(image_1024, transient_peak):
    b = image_1024[::-1].copy()
    _, peak = transient_peak(ssim, image_1024, b)
    assert peak <= 1.5 * image_1024.nbytes
