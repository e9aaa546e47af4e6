"""Exact DCT solve of (alpha_w I - alpha_p Lap) u = rhs."""

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from mpgdenoise.grid import laplacian
from mpgdenoise.screened_poisson import solve_screened_poisson


def dense_operator(h, w, alpha_w, alpha_p):
    """Assemble the operator matrix column by column from basis images."""
    n = h * w
    a = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        img = e.reshape(h, w)
        a[:, j] = (alpha_w * img - alpha_p * laplacian(img)).ravel()
    return a


def scipy_reference(rhs, alpha_w, alpha_p):
    """The solve through scipy.fft's orthonormal DCT-II pair and the
    operator's eigenvalues, built here."""
    h, w = rhs.shape[-2:]
    eig = alpha_w + alpha_p * (
        (2.0 - 2.0 * np.cos(np.pi * np.arange(h) / h))[:, None]
        + (2.0 - 2.0 * np.cos(np.pi * np.arange(w) / w))[None, :]
    )
    coeffs = scipy.fft.dctn(rhs, type=2, norm="ortho", axes=(-2, -1))
    return scipy.fft.idctn(coeffs / eig, type=2, norm="ortho", axes=(-2, -1))


def relative_residual(u, rhs, alpha_w, alpha_p):
    res = rhs - (alpha_w * u - alpha_p * laplacian(u))
    return np.linalg.norm(res) / np.linalg.norm(rhs)


def test_nan_weights_rejected():
    rhs = np.ones((4, 4))
    with pytest.raises(ValueError):
        solve_screened_poisson(rhs, float("nan"), 1.0)
    with pytest.raises(ValueError):
        solve_screened_poisson(rhs, 1.0, float("nan"))


def test_weight_validation():
    rhs = np.ones((4, 4))
    with pytest.raises(ValueError):
        solve_screened_poisson(rhs, 0.0, 1.0)
    with pytest.raises(ValueError):
        solve_screened_poisson(rhs, -1.0, 1.0)
    with pytest.raises(ValueError):
        solve_screened_poisson(rhs, 1.0, -0.5)
    solve_screened_poisson(rhs, 1.0, 0.0)  # alpha_p = 0 is legal


def test_infinite_weights_rejected():
    """Rejected up front, not solved into NaN (alpha_p) or zeros (alpha_w)."""
    rhs = np.ones((4, 4))
    with pytest.raises(ValueError, match="^alpha_w must be finite and positive$"):
        solve_screened_poisson(rhs, np.inf, 1.0)
    with pytest.raises(ValueError, match="^alpha_p must be finite and nonnegative$"):
        solve_screened_poisson(rhs, 1.0, np.inf)


@pytest.mark.parametrize("shape", [(256, 256), (192, 192), (37, 50), (8, 8), (1, 7), (7, 1), (1, 1)])
@pytest.mark.parametrize("alpha_w, alpha_p", [(2.3, 17.0), (150.0, 40.0), (1e-3, 5.0)])
def test_matches_scipy_dct_solve(shape, alpha_w, alpha_p):
    """An oracle for any transform that solves the same system: the numpy
    solve agrees with scipy's DCT solve to 1e-13 of the solution's size."""
    rhs = np.random.default_rng(8).standard_normal(shape)
    want = scipy_reference(rhs, alpha_w, alpha_p)
    u = solve_screened_poisson(rhs, alpha_w, alpha_p)
    assert u.shape == shape
    assert np.max(np.abs(u - want)) <= 1e-13 * np.max(np.abs(want))


def test_stack_matches_scipy_and_keeps_each_images_bytes():
    rhs = np.random.default_rng(9).standard_normal((3, 5, 9))
    u = solve_screened_poisson(rhs, 2.3, 17.0)
    want = scipy_reference(rhs, 2.3, 17.0)
    assert np.max(np.abs(u - want)) <= 1e-13 * np.max(np.abs(want))
    for b in range(3):
        assert u[b].tobytes() == solve_screened_poisson(rhs[b], 2.3, 17.0).tobytes()


def test_memory_layout_does_not_change_the_bytes():
    """A transposed (column-major) or strided right-hand side gives the
    bytes of its row-major copy, as a C-ordered array."""
    rng = np.random.default_rng(10)
    for rhs in (rng.standard_normal((40, 48)).T, rng.standard_normal((2, 50, 70))[:, ::2, 1::3]):
        u = solve_screened_poisson(rhs, 2.3, 17.0)
        assert u.flags.c_contiguous
        assert u.tobytes() == solve_screened_poisson(np.ascontiguousarray(rhs), 2.3, 17.0).tobytes()


def test_diagonal_case():
    """alpha_p = 0: the system is alpha_w * I, solution rhs / alpha_w."""
    rng = np.random.default_rng(1)
    rhs = rng.standard_normal((6, 7))
    u = solve_screened_poisson(rhs, 5.0, 0.0)
    np.testing.assert_allclose(u, rhs / 5.0, rtol=1e-12, atol=1e-15)


def test_constant_rhs():
    """Constants are in the Laplacian null space: u = c / alpha_w."""
    rhs = np.full((9, 5), 3.6)
    u = solve_screened_poisson(rhs, 4.0, 17.0)
    np.testing.assert_allclose(u, 0.9, atol=1e-12)


def test_zero_rhs_gives_zero():
    u = solve_screened_poisson(np.zeros((5, 5)), 2.0, 3.0)
    assert np.all(u == 0.0)


def test_manufactured_solution_8x8():
    rng = np.random.default_rng(2)
    truth = rng.uniform(-1, 1, (8, 8))
    alpha_w, alpha_p = 3.0, 11.0
    rhs = alpha_w * truth - alpha_p * laplacian(truth)
    u = solve_screened_poisson(rhs, alpha_w, alpha_p)
    assert np.max(np.abs(u - truth)) <= 1e-12


def test_against_dense_direct_solve():
    """Max-norm agreement <= 1e-10 with an explicitly assembled solve."""
    rng = np.random.default_rng(3)
    for h, w in [(5, 9), (8, 8), (12, 12), (1, 7)]:
        alpha_w = float(rng.uniform(0.5, 5.0))
        alpha_p = float(rng.uniform(0.5, 40.0))
        rhs = rng.standard_normal((h, w))
        dense = np.linalg.solve(
            dense_operator(h, w, alpha_w, alpha_p), rhs.ravel()
        ).reshape(h, w)
        u = solve_screened_poisson(rhs, alpha_w, alpha_p)
        assert np.max(np.abs(u - dense)) <= 1e-10


def test_residual_certificate():
    """Relative residual at rounding level on random weights and scales."""
    rng = np.random.default_rng(4)
    for _ in range(10):
        rhs = rng.standard_normal((10, 10)) * rng.uniform(0.1, 100)
        alpha_w = float(rng.uniform(0.1, 10))
        alpha_p = float(rng.uniform(0.0, 50))
        u = solve_screened_poisson(rhs, alpha_w, alpha_p)
        assert relative_residual(u, rhs, alpha_w, alpha_p) <= 1e-12


def test_bit_identical_rerun():
    rng = np.random.default_rng(5)
    rhs = rng.standard_normal((8, 8))
    first = solve_screened_poisson(rhs, 2.0, 9.0)
    again = solve_screened_poisson(rhs.copy(), 2.0, 9.0)
    assert np.array_equal(first, again)


def test_single_row_and_single_column():
    """A 1xN or Nx1 image is a 1-d Neumann problem; the solve matches the
    dense operator either way round, and the two orientations agree."""
    rng = np.random.default_rng(6)
    row = rng.standard_normal((1, 11))
    alpha_w, alpha_p = 2.5, 7.0
    for rhs in (row, row.T):
        h, w = rhs.shape
        dense = np.linalg.solve(
            dense_operator(h, w, alpha_w, alpha_p), rhs.ravel()
        ).reshape(h, w)
        u = solve_screened_poisson(rhs, alpha_w, alpha_p)
        assert u.shape == rhs.shape
        assert np.max(np.abs(u - dense)) <= 1e-12
    np.testing.assert_allclose(
        solve_screened_poisson(row, alpha_w, alpha_p).T,
        solve_screened_poisson(row.T, alpha_w, alpha_p),
        rtol=0.0,
        atol=1e-14,
    )
    np.testing.assert_allclose(solve_screened_poisson(np.full((1, 1), 3.0), 1.5, 9.0), 2.0)


def test_badly_scaled_weights():
    """alpha_w = 1e-6 against alpha_p = 1e3 puts the condition number near
    1e10.  The solve is still backward stable (residual at rounding level
    relative to ||A|| ||u||), and the near-null constant mode, amplified
    1e6-fold, is exact: alpha_w * mean(u) == mean(rhs)."""
    rng = np.random.default_rng(7)
    rhs = rng.standard_normal((16, 16))
    alpha_w, alpha_p = 1e-6, 1e3
    u = solve_screened_poisson(rhs, alpha_w, alpha_p)
    res = rhs - (alpha_w * u - alpha_p * laplacian(u))
    op_norm = alpha_w + 8.0 * alpha_p
    assert np.linalg.norm(res) <= 1e-14 * op_norm * np.linalg.norm(u)
    assert abs(alpha_w * np.mean(u) - np.mean(rhs)) <= 1e-12 * abs(np.mean(rhs))


@settings(max_examples=60, deadline=None)
@given(
    h=st.integers(1, 64),
    w=st.integers(1, 64),
    log_alpha_w=st.floats(-3.0, 3.0),
    ratio=st.floats(0.0, 100.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_relative_residual_property(h, w, log_alpha_w, ratio, seed):
    """Any shape up to 64x64 and positive weights with alpha_p / alpha_w up
    to 100 (condition number up to ~800): relative residual <= 1e-12."""
    alpha_w = 10.0**log_alpha_w
    alpha_p = ratio * alpha_w
    rhs = np.random.default_rng(seed).standard_normal((h, w))
    u = solve_screened_poisson(rhs, alpha_w, alpha_p)
    assert relative_residual(u, rhs, alpha_w, alpha_p) <= 1e-12
