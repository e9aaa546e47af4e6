"""Discrete image grid: arrays, finite-difference operators, a checked log.

Conventions used by every module in this package:

* an image is a 2-d ``float64`` array of shape ``(height, width)``, row-major,
  so ``u[i, j]`` is row ``i`` (y) and column ``j`` (x);
* a vector field (e.g. an image gradient) is a ``float64`` array of shape
  ``(2, height, width)`` where component ``0`` holds column (x) differences
  and component ``1`` holds row (y) differences.

The gradient uses forward differences with replicate boundary handling: the
difference at the far edge is zero.  The divergence is built to be the exact
negative adjoint of the gradient, ``<grad u, q> = -<u, div q>`` for every
``u`` and ``q``, which the dual-projection TV solver relies on.  The operator
norm of the gradient satisfies ``||grad||^2 <= 8``.
"""

from __future__ import annotations

import numpy as np


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
    if not np.all(np.isfinite(arr)):
        raise DomainError("image contains non-finite entries")
    return arr


def gradient(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Forward-difference gradient; last row/column of differences are zero.

    Each entry is written once, into a new ``(2, H, W)`` array or into
    ``out`` when given (which must not overlap ``u``); returns that array.
    """
    q = np.empty((2,) + u.shape) if out is None else out
    np.subtract(u[:, 1:], u[:, :-1], out=q[0, :, :-1])
    q[0, :, -1] = 0.0
    np.subtract(u[1:, :], u[:-1, :], out=q[1, :-1, :])
    q[1, -1, :] = 0.0
    return q


def divergence(q: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Discrete divergence, the exact negative adjoint of :func:`gradient`.

    Backward differences in the interior; at the near edge the component
    itself, at the far edge its negation from one cell in.  The far-edge
    entry of ``q`` never contributes, mirroring the zero the gradient puts
    there.  The x part is written into a new ``(H, W)`` array, or into
    ``out`` when given (which must not overlap ``q``), and the y part is
    added to it in place; returns that array.
    """
    qx, qy = q[0], q[1]
    h, w = qx.shape
    d = np.empty((h, w)) if out is None else out
    if w > 1:
        d[:, 0] = qx[:, 0]
        np.subtract(qx[:, 1 : w - 1], qx[:, 0 : w - 2], out=d[:, 1 : w - 1])
        # a plain assignment: numpy 2.4 np.negative into a strided column
        # view gives wrong values for some widths (8 among them)
        d[:, w - 1] = -qx[:, w - 2]
    else:
        d[...] = 0.0
    if h > 1:
        d[0, :] += qy[0, :]
        d[1 : h - 1, :] += qy[1 : h - 1, :] - qy[0 : h - 2, :]
        d[h - 1, :] -= qy[h - 2, :]
    return d


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product ``<a, b>`` of two same-shape arrays, in one pass."""
    return float(np.dot(a.ravel(), b.ravel()))


def magnitude(q: np.ndarray) -> np.ndarray:
    """Pointwise Euclidean length of a vector field: sqrt(qx^2 + qy^2)."""
    m = np.square(q[0])
    m += np.square(q[1])
    return np.sqrt(m, out=m)


def laplacian(u: np.ndarray) -> np.ndarray:
    """Discrete Laplacian, composed as divergence(gradient(u))."""
    return divergence(gradient(u))


def total_variation(u: np.ndarray) -> float:
    """Isotropic total variation: sum over pixels of |grad u|."""
    return float(magnitude(gradient(u)).sum())


def ln(a):
    """Entrywise natural log; nonpositive entries raise ``DomainError``.

    Inside the solvers a nonpositive log argument always means an invariant
    was violated upstream, so this raises where numpy would return inf/nan.
    """
    if np.any(a <= 0.0):
        raise DomainError("log of nonpositive entry")
    return np.log(a)
