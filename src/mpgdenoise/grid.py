"""Discrete image grid: arrays, finite-difference operators, a checked log.

Conventions used by every module in this package:

* an image is a 2-d ``float64`` array of shape ``(height, width)``, row-major,
  so ``u[i, j]`` is row ``i`` (y) and column ``j`` (x);
* a vector field (e.g. an image gradient) is a ``float64`` array of shape
  ``(2, height, width)`` where component ``0`` holds column (x) differences
  and component ``1`` holds row (y) differences;
* a stack of same-shape images is a ``(B, height, width)`` array and its
  vector fields are ``(B, 2, height, width)``.  The operators below index
  from the right (``u[..., i, j]``, ``q[..., c, i, j]``), so they apply to
  every image of a stack at once, and each image gets the bytes it would get
  alone.

The gradient uses forward differences with replicate boundary handling: the
difference at the far edge is zero.  The divergence is built to be the exact
negative adjoint of the gradient, ``<grad u, q> = -<u, div q>`` for every
``u`` and ``q``, which the dual-projection TV solver relies on.  The operator
norm of the gradient satisfies ``||grad||^2 <= 8``.

Above :data:`BLOCK_PIXELS` the image-sized work of a TV dual step, of TV(u)
and of SSIM runs in row blocks with the halo rows its stencil reads, and
:func:`row_blocks` is the one place that sizes them.  Every pixel gets the
same operations as without blocks, so the bytes do not change; only the
temporaries shrink to block size.  The blocks run in one sweep on the
calling thread.  The same threshold sets the one second-core mechanism in
the package's own work: on two or more usable cores
(:func:`_usable_cores`), float-text reads and writes of more than
``BLOCK_PIXELS`` samples run half in a forked child (see
:mod:`mpgdenoise.fileio`).
"""

from __future__ import annotations

import os

import numpy as np


#: the one block-size rule: work above this many values runs in row blocks,
#: and float text, on two or more usable cores, in two halves at once
BLOCK_PIXELS = 2**17


def row_blocks(h: int, row_values: int, above: int = 0, below: int = 0) -> list:
    """Row blocks, top to bottom, of a sweep over ``h`` rows of ``row_values``
    values whose stencil reads ``above`` rows above a row and ``below`` below
    it: pairs of a block's own rows ``(r0, r1)`` and the rows it reads,
    ``(max(r0 - above, 0), min(r1 + below, h))``.  Blocks span ``rows =
    max(2 (above + below), BLOCK_PIXELS // row_values, 1)`` rows (the last
    what is left), so a halo is at most a third of what a block reads; there
    is one block when ``h <= rows + above + below``."""
    rows = max(2 * (above + below), BLOCK_PIXELS // row_values, 1)
    if h <= rows + above + below:
        rows = h
    return [((r0, min(r0 + rows, h)), (max(r0 - above, 0), min(r0 + rows + below, h))) for r0 in range(0, h, rows)]


def _usable_cores() -> int:
    """Cores this process may run on (CPU affinity and cpusets respected).

    The one rule for using a second core: only the float-text halves and
    the bench's worker count read it.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


class ShapeMismatchError(ValueError):
    """Operands do not have the same shape."""


class DomainError(ValueError):
    """An entry is outside the mathematical domain of the operation."""


def as_image(a) -> np.ndarray:
    """Validate and convert ``a`` to a 2-d float64 image array.

    Raises ``ValueError`` for wrong dimensionality and ``DomainError`` for
    non-finite entries.  Always returns a float64 array (a copy only when a
    dtype conversion is needed).
    """
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"expected a non-empty 2-d image array, got shape {arr.shape}")
    return _finite(arr)


def as_images(a) -> np.ndarray:
    """:func:`as_image` for one image ``(H, W)`` or a stack ``(B, H, W)`` of
    same-shape images; a stack is made C-contiguous, so each image is one
    contiguous block."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim not in (2, 3) or arr.size == 0:
        raise ValueError(f"expected a non-empty image or stack of images, got shape {arr.shape}")
    return _finite(arr if arr.ndim == 2 else np.ascontiguousarray(arr))


def _nonempty(shape: tuple) -> None:
    """``ValueError`` naming ``shape`` when an image or stack of that shape
    has no pixel; it reads the shape only, not the data."""
    if 0 in shape:
        raise ValueError(f"expected a non-empty image or stack of images, got shape {shape}")


def _finite(arr):
    # min and max are NaN if an entry is NaN and infinite if one is: two
    # passes, with no image-sized mask
    if not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        raise DomainError("image contains non-finite entries")
    return arr


def field_shape(shape: tuple) -> tuple:
    """Shape of the vector field of an image or stack of shape ``shape``."""
    return shape[:-2] + (2,) + shape[-2:]


def _joined_rows(a: np.ndarray) -> np.ndarray | None:
    """``a`` as a ``(..., H*W)`` view when each of its ``(H, W)`` planes is
    one contiguous run of memory, else ``None``.

    The x differences of :func:`gradient` and :func:`divergence` take one
    pass over such a plane, differences across row ends included, and then
    overwrite the edge column that holds the latter; each entry ends with the
    value the per-row expression gives it.  (A difference across a row end
    can raise a floating-point error only where a row ends or starts with an
    infinity or a value within a factor of two of the float64 range.)
    """
    h, w = a.shape[-2:]
    if (w > 1 and a.strides[-1] != a.itemsize) or (h > 1 and a.strides[-2] != w * a.itemsize):
        return None
    return a.reshape(a.shape[:-2] + (h * w,))


def gradient(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Forward-difference gradient; last row/column of differences are zero.

    Every entry is written into a new field array or into ``out`` when given
    (which must not overlap ``u``), and ends with the value of its own
    difference; returns that array.  An image with no pixel is a
    ``ValueError``.
    """
    _nonempty(u.shape)
    q = np.empty(field_shape(u.shape)) if out is None else out
    qx = q[..., 0, :, :]
    uf, qxf = _joined_rows(u), _joined_rows(qx)
    if uf is not None and qxf is not None:
        np.subtract(uf[..., 1:], uf[..., :-1], out=qxf[..., :-1])
    else:
        np.subtract(u[..., 1:], u[..., :-1], out=qx[..., :-1])
    qx[..., -1] = 0.0
    np.subtract(u[..., 1:, :], u[..., :-1, :], out=q[..., 1, :-1, :])
    q[..., 1, -1, :] = 0.0
    return q


def divergence(q: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Discrete divergence, the exact negative adjoint of :func:`gradient`.

    Backward differences in the interior; at the near edge the component
    itself, at the far edge its negation from one cell in.  The far-edge
    entry of ``q`` never contributes, mirroring the zero the gradient puts
    there.  The x part is written into a new image array, or into ``out``
    when given (which must not overlap ``q``), and the y part is added to it
    in place; returns that array.  The TV dual step takes it block by block
    (see :func:`row_blocks`).
    """
    d = np.empty(q.shape[:-3] + q.shape[-2:]) if out is None else out
    return _divergence_of(q, d)()


def _divergence_of(q: np.ndarray, d: np.ndarray, dy: np.ndarray | None = None):
    """``divergence(q, out=d)`` as a function of no arguments, which runs it
    on the values ``q`` holds then and returns ``d``.

    Its views of ``q`` and ``d`` are made here, once, for a caller that
    takes the divergence of one field many times.  ``dy``, an array of
    ``d``'s shape overlapping neither, takes the y differences; without it
    they go to a new temporary.  The bytes are the same either way.
    """
    qx, qy = q[..., 0, :, :], q[..., 1, :, :]
    h, w = qx.shape[-2:]
    if w > 1:
        qxf, df = _joined_rows(qx), _joined_rows(d)
        if qxf is not None and df is not None:
            x_diff = (qxf[..., 1:], qxf[..., :-1], df[..., 1:])
        else:
            x_diff = (qx[..., 1 : w - 1], qx[..., 0 : w - 2], d[..., 1 : w - 1])
        near, near_q, far, far_q = d[..., 0], qx[..., 0], d[..., w - 1], qx[..., w - 2]
    if h > 1:
        top, top_q, bottom, bottom_q = d[..., 0, :], qy[..., 0, :], d[..., h - 1, :], qy[..., h - 2, :]
        inner, upper, lower = d[..., 1 : h - 1, :], qy[..., 1 : h - 1, :], qy[..., 0 : h - 2, :]
        diff = None if dy is None else dy[..., 1 : h - 1, :]

    def run() -> np.ndarray:
        if w > 1:
            np.subtract(*x_diff)
            near[...] = near_q
            # a plain assignment: numpy 2.4 np.negative into a strided column
            # view gives wrong values for some widths (8 among them)
            far[...] = -far_q
        else:
            d[...] = 0.0
        if h > 1:
            np.add(top, top_q, out=top)
            np.add(inner, np.subtract(upper, lower, out=diff), out=inner)
            np.subtract(bottom, bottom_q, out=bottom)
        return d

    return run


# np.dot hands vectors above some length to BLAS threads (OpenBLAS ddot:
# above 10000 elements), and how they split the sum depends on the thread
# count; summing fixed chunks in order keeps the bits independent of it
_DOT_CHUNK = 8192


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product ``<a, b>`` of two same-shape arrays: one ``np.dot`` per
    chunk of ``_DOT_CHUNK`` elements, summed in order, so the result is the
    same under any BLAS thread count (and one call up to that length)."""
    a, b = a.ravel(), b.ravel()
    n = _DOT_CHUNK
    total = float(np.dot(a[:n], b[:n]))
    for start in range(n, a.size, n):
        total += float(np.dot(a[start : start + n], b[start : start + n]))
    return total


def magnitude(q: np.ndarray) -> np.ndarray:
    """Pointwise Euclidean length of a vector field: sqrt(qx^2 + qy^2)."""
    m = np.square(q[..., 0, :, :])
    m += np.square(q[..., 1, :, :])
    return np.sqrt(m, out=m)


def laplacian(u: np.ndarray) -> np.ndarray:
    """Discrete Laplacian, composed as divergence(gradient(u))."""
    return divergence(gradient(u))


def total_variation(u: np.ndarray) -> float:
    """Isotropic total variation: sum over pixels of |grad u|.

    In more than one of the :func:`row_blocks` of its gradient (``2 W``
    values a row, ``W`` being the width times the stack size, and one halo
    row below), ``|grad u|`` is written into one image block by block
    instead of from a whole gradient field; the one sum then runs over the
    same contiguous values, so the result has the same bits.  An image with
    no pixel is a ``ValueError``.
    """
    _nonempty(u.shape)
    h = u.shape[-2]
    blocks = row_blocks(h, 2 * (u.size // h), below=1)
    if len(blocks) == 1:
        return float(magnitude(gradient(u)).sum())
    mag = np.empty(u.shape)
    dy = np.empty(u.shape[:-2] + (blocks[0][0][1], u.shape[-1]))
    for (r0, r1), (_, s1) in blocks:
        m = mag[..., r0:r1, :]
        # the steps of magnitude(gradient(u)) on these rows: x part squared,
        # plus the y part squared (zero on the last row), then the root
        np.subtract(u[..., r0:r1, 1:], u[..., r0:r1, :-1], out=m[..., :-1])
        m[..., -1] = 0.0
        np.square(m, out=m)
        d = np.subtract(u[..., r0 + 1 : s1, :], u[..., r0 : s1 - 1, :], out=dy[..., : s1 - 1 - r0, :])
        m[..., : s1 - 1 - r0, :] += np.square(d, out=d)
        np.sqrt(m, out=m)
    return float(mag.sum())


def ln(a):
    """Entrywise natural log; nonpositive or NaN entries raise ``DomainError``.

    Inside the solvers a nonpositive log argument always means an invariant
    was violated upstream, so this raises where numpy would return inf/nan.
    """
    # one reduction, and NaN fails the comparison as a nonpositive entry does
    if not np.min(a) > 0.0:
        raise DomainError("log of nonpositive or NaN entry")
    return np.log(a)
