"""Differential operators and the checked log on image grids."""

import re

import numpy as np
import pytest

from mpgdenoise import grid
from mpgdenoise.chambolle import tv_l2_denoise
from mpgdenoise.screened_poisson import solve_screened_poisson


def brute_inner(a, b):
    # independent of np.vdot: plain python accumulation
    total = 0.0
    for x, y in zip(a.ravel().tolist(), b.ravel().tolist()):
        total += x * y
    return total


# ---------------------------------------------------------------------------
# gradient


def test_gradient_of_constant_is_zero():
    u = np.full((4, 4), 0.7)
    assert np.all(grid.gradient(u) == 0.0)


def test_gradient_single_forward_difference():
    u = np.array([[0.0, 1.0]])
    q = grid.gradient(u)
    assert q.shape == (2, 1, 2)
    np.testing.assert_array_equal(q[0], [[1.0, 0.0]])
    np.testing.assert_array_equal(q[1], [[0.0, 0.0]])


def test_gradient_rows_and_columns_separate():
    u = np.array([[0.0, 2.0], [3.0, 4.0]])
    q = grid.gradient(u)
    np.testing.assert_array_equal(q[0], [[2.0, 0.0], [1.0, 0.0]])  # x: along columns
    np.testing.assert_array_equal(q[1], [[3.0, 2.0], [0.0, 0.0]])  # y: along rows


def test_gradient_far_edges_are_zero():
    rng = np.random.default_rng(3)
    u = rng.standard_normal((6, 9))
    q = grid.gradient(u)
    assert np.all(q[0][:, -1] == 0.0)
    assert np.all(q[1][-1, :] == 0.0)


# ---------------------------------------------------------------------------
# divergence / adjointness


def test_divergence_of_zero_field():
    assert np.all(grid.divergence(np.zeros((2, 5, 4))) == 0.0)


def test_adjointness_random_8x8():
    rng = np.random.default_rng(0)
    u = rng.standard_normal((8, 8))
    q = rng.standard_normal((2, 8, 8))
    lhs = brute_inner(grid.gradient(u), q)
    rhs = -brute_inner(u, grid.divergence(q))
    assert abs(lhs - rhs) <= 1e-12


def test_adjointness_random_5x7():
    rng = np.random.default_rng(1)
    u = rng.standard_normal((5, 7))
    q = rng.standard_normal((2, 5, 7))
    assert abs(brute_inner(grid.gradient(u), q) + brute_inner(u, grid.divergence(q))) <= 1e-12


def test_adjointness_property_up_to_64():
    """<grad u, q> = -<u, div q> within 1e-10*(||u||*||q|| + 1) on random grids."""
    rng = np.random.default_rng(42)
    for _ in range(40):
        h = int(rng.integers(1, 65))
        w = int(rng.integers(1, 65))
        u = rng.standard_normal((h, w)) * rng.uniform(0.1, 10.0)
        q = rng.standard_normal((2, h, w)) * rng.uniform(0.1, 10.0)
        gap = abs(np.vdot(grid.gradient(u), q) + np.vdot(u, grid.divergence(q)))
        assert gap <= 1e-10 * (np.linalg.norm(u) * np.linalg.norm(q) + 1.0)


def test_divergence_ignores_far_edge_entries():
    # the gradient never writes the far edge, so the adjoint never reads it
    rng = np.random.default_rng(7)
    q = rng.standard_normal((2, 5, 6))
    q2 = q.copy()
    q2[0][:, -1] = 123.0
    q2[1][-1, :] = -55.0
    np.testing.assert_array_equal(grid.divergence(q), grid.divergence(q2))


# ---------------------------------------------------------------------------
# byte equality with the plain slice formulas, with and without out=


def gradient_reference(u):
    q = np.zeros((2,) + u.shape)
    q[0, :, :-1] = u[:, 1:] - u[:, :-1]
    q[1, :-1, :] = u[1:, :] - u[:-1, :]
    return q


def divergence_reference(q):
    qx, qy = q[0], q[1]
    h, w = qx.shape
    d = np.zeros_like(qx)
    if w > 1:
        d[:, 0] += qx[:, 0]
        d[:, 1 : w - 1] += qx[:, 1 : w - 1] - qx[:, 0 : w - 2]
        d[:, w - 1] += -qx[:, w - 2]
    if h > 1:
        d[0, :] += qy[0, :]
        d[1 : h - 1, :] += qy[1 : h - 1, :] - qy[0 : h - 2, :]
        d[h - 1, :] += -qy[h - 2, :]
    return d


def test_operators_byte_equal_to_slice_formulas_on_every_shape_to_33():
    # every width, 8 included: numpy 2.4 np.negative into a strided column
    # view of width 8 gives wrong values, so an out= path that used it fails
    rng = np.random.default_rng(11)
    for h in range(1, 34):
        for w in range(1, 34):
            u = rng.standard_normal((h, w))
            q = rng.standard_normal((2, h, w))
            grad_ref = gradient_reference(u).tobytes()
            div_ref = divergence_reference(q).tobytes()
            assert grid.gradient(u).tobytes() == grad_ref, (h, w)
            assert grid.divergence(q).tobytes() == div_ref, (h, w)
            grad_out = np.full((2, h, w), np.nan)
            div_out = np.full((h, w), np.nan)
            assert grid.gradient(u, out=grad_out) is grad_out
            assert grid.divergence(q, out=div_out) is div_out
            assert grad_out.tobytes() == grad_ref, (h, w)
            assert div_out.tobytes() == div_ref, (h, w)


def nan_views(shape):
    """NaN-filled arrays of ``shape``: contiguous, every other column of a
    wider array, and every other row of a taller one."""
    *lead, h, w = shape
    return [
        np.full(shape, np.nan),
        np.full((*lead, h, 2 * w), np.nan)[..., ::2],
        np.full((*lead, 2 * h, w), np.nan)[..., ::2, :],
    ]


@pytest.mark.parametrize("lead", [(), (3,)])
@pytest.mark.parametrize("h, w", [(1, 1), (1, 9), (9, 1), (2, 2), (5, 8), (8, 5), (17, 2), (33, 33)])
def test_operators_byte_equal_on_stacks_and_strided_operands(lead, h, w):
    """Contiguous planes take one pass over each plane for the x
    differences, strided ones the per-row expression; both give the slice
    formulas' bytes, into new arrays and into NaN-filled ``out=`` views."""
    rng = np.random.default_rng(h * 40 + w)
    u = rng.standard_normal((*lead, h, w))
    q = rng.standard_normal(grid.field_shape(u.shape))
    grad_ref = np.stack([gradient_reference(x) for x in u.reshape(-1, h, w)]).reshape(q.shape).tobytes()
    div_ref = np.stack([divergence_reference(x) for x in q.reshape(-1, 2, h, w)]).reshape(u.shape).tobytes()
    for u_in, q_in in zip(nan_views(u.shape), nan_views(q.shape)):
        u_in[...], q_in[...] = u, q
        assert grid.gradient(u_in).tobytes() == grad_ref
        assert grid.divergence(q_in).tobytes() == div_ref
        for grad_out, div_out in zip(nan_views(q.shape), nan_views(u.shape)):
            assert grid.gradient(u_in, out=grad_out) is grad_out
            assert grid.divergence(q_in, out=div_out) is div_out
            assert np.ascontiguousarray(grad_out).tobytes() == grad_ref
            assert np.ascontiguousarray(div_out).tobytes() == div_ref


def test_dot_is_the_inner_product():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((2, 7, 9))
    b = rng.standard_normal((2, 7, 9))
    value = grid.dot(a, b)
    assert type(value) is float
    assert abs(value - brute_inner(a, b)) <= 1e-12 * brute_inner(abs(a), abs(b))


# ---------------------------------------------------------------------------
# laplacian


def test_laplacian_of_constant_is_zero():
    assert np.all(grid.laplacian(np.full((6, 5), 3.3)) == 0.0)


def test_laplacian_equals_div_grad():
    rng = np.random.default_rng(2)
    u = rng.standard_normal((6, 6))
    np.testing.assert_array_equal(grid.laplacian(u), grid.divergence(grid.gradient(u)))


def test_laplacian_symmetric():
    rng = np.random.default_rng(11)
    for _ in range(10):
        u = rng.standard_normal((7, 9))
        v = rng.standard_normal((7, 9))
        assert abs(np.vdot(u, grid.laplacian(v)) - np.vdot(grid.laplacian(u), v)) <= 1e-12


def test_laplacian_negative_semidefinite():
    rng = np.random.default_rng(12)
    for _ in range(10):
        u = rng.standard_normal((8, 6))
        quad = np.vdot(u, grid.laplacian(u))
        assert quad <= 1e-12
        # and it equals exactly -||grad u||^2
        assert abs(quad + np.linalg.norm(grid.gradient(u)) ** 2) <= 1e-10


# ---------------------------------------------------------------------------
# total variation


def test_total_variation_hand_value():
    # columns [0, 1]: one unit jump per row, rows identical
    u = np.array([[0.0, 1.0], [0.0, 1.0]])
    assert grid.total_variation(u) == pytest.approx(2.0, abs=1e-14)


def test_total_variation_isotropic_diagonal():
    # a single corner pixel: dx = dy = 1 at (0,0), zero everywhere else
    # (its neighbours only differ backwards) -> TV = sqrt(2), not 2
    u = np.zeros((2, 2))
    u[0, 0] = -1.0
    assert grid.total_variation(u) == pytest.approx(np.sqrt(2.0), abs=1e-14)


def test_total_variation_of_constant():
    assert grid.total_variation(np.full((9, 9), 0.4)) == 0.0


# ---------------------------------------------------------------------------
# as_image and the checked log


def test_as_image_validates():
    with pytest.raises(ValueError):
        grid.as_image(np.zeros(4))
    with pytest.raises(ValueError):
        grid.as_image(np.zeros((0, 3)))
    with pytest.raises(grid.DomainError):
        grid.as_image(np.array([[1.0, np.nan]]))
    with pytest.raises(grid.DomainError):
        grid.as_image(np.array([[np.inf, 0.0]]))
    out = grid.as_image([[1, 2], [3, 4]])
    assert out.dtype == np.float64


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (2, 0, 5)])
@pytest.mark.parametrize("name", ["gradient", "total_variation", "tv_l2_denoise", "solve_screened_poisson"])
def test_zero_extent_image_is_rejected_naming_its_shape(name, shape):
    """An image with no pixel raises ``ValueError`` naming its shape, not an
    ``IndexError``, a ``ZeroDivisionError`` or a reshape error."""
    call = {
        "gradient": grid.gradient,
        "total_variation": grid.total_variation,
        "tv_l2_denoise": lambda u: tv_l2_denoise(u, 2.5),
        "solve_screened_poisson": lambda u: solve_screened_poisson(u, 1.0, 1.0),
    }[name]
    with pytest.raises(ValueError, match=f"got shape {re.escape(str(shape))}$"):
        call(np.zeros(shape))


def test_ln_values():
    a = np.array([[1.0, np.e]])
    np.testing.assert_allclose(grid.ln(a), [[0.0, 1.0]], atol=1e-15)


def test_domain_errors():
    with pytest.raises(grid.DomainError):
        grid.ln(np.array([[1.0, 0.0]]))
    with pytest.raises(grid.DomainError):
        grid.ln(np.array([[-0.5, 1.0]]))


def test_ln_rejects_nan():
    """NaN fails ``a > 0`` as a nonpositive entry does."""
    with pytest.raises(grid.DomainError, match="nonpositive or NaN"):
        grid.ln(np.array([[1.0, np.nan]]))
