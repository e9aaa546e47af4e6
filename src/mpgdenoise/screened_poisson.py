"""Exact solve of the screened Poisson system by one 2-D cosine transform.

The flux-split ADMM solver's image update has normal equations

    (alpha_w * I - alpha_p * Lap) u = rhs

with the discrete Laplacian from :mod:`mpgdenoise.grid` (forward-difference
gradient, replicate/Neumann boundaries).  Along each axis of length ``n``
that Laplacian is the tridiagonal second difference whose eigenvectors are
the DCT-II basis, with eigenvalues ``-(2 - 2 cos(pi k / n))``, ``k = 0..n-1``
(Strang, "The Discrete Cosine Transform", SIAM Review 1999).  The 2-D DCT-II
therefore diagonalizes the whole operator, and the system is solved exactly,
with no inner iterations, by a forward transform, one pointwise division and
the inverse transform.  Any scaling of the transform cancels between the
two, so the unnormalized pair is used.

The transforms are numpy's real FFT, after Makhoul ("A fast cosine transform
in one and two dimensions", IEEE TASSP 28(1), 1980): with ``v`` the samples
of an axis reordered as the even ones in order and then the odd ones
reversed, and ``V`` its FFT, the DCT-II coefficients are
``X[k] = Re(t_k V[k])`` and ``X[n - k] = -Im(t_k V[k])`` for the twiddle
``t_k = exp(-i pi k / (2n))``, so ``V[0..n//2]`` holds all of them.

Both axes are reordered at once, and one ``rfft`` runs along the rows.  With
the column twiddle applied, its column ``l`` holds the rows' coefficients
``l`` (real part) and ``W - l`` (imaginary part, negated), so one complex
FFT down the columns transforms both coefficient columns.  The fused middle
(:func:`_divide`) works in place on the pairs of rows ``k`` and ``H - k`` of
that spectrum: it separates the two coefficient columns' spectra, applies
the row and the column twiddles (as one), divides the real and the imaginary
parts by the eigenvalues of rows ``k`` and ``H - k`` (one multiplication by
their reciprocals, over interleaved floats), twiddles back and recombines.
An inverse FFT down the columns and an ``irfft`` along the rows then undo
the transforms, and the reordering is undone.  The coefficient array is
never formed.  The result agrees with a solve through ``scipy.fft``'s DCTs
to rounding, and the package needs no scipy.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .grid import _nonempty


def _neg_laplacian_eigenvalues(n: int) -> np.ndarray:
    return 2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n)


class _Plan(NamedTuple):
    col_twiddle: np.ndarray  # (W//2 + 1,): exp(-i pi l / 2W)
    col_untwiddle: np.ndarray  # its conjugate
    col_twiddle_sq: np.ndarray  # its square
    pair_twiddle: np.ndarray  # (H//2, W//2 + 1): row twiddle of k = 1..H//2 times column twiddle
    pair_untwiddle: np.ndarray  # its conjugate
    pair_scale: np.ndarray  # (2, 1, H//2, W + 2): interleaved reciprocal divisors of the pairs
    row0_div: np.ndarray  # (2, W//2 + 1): divisors of row 0's real and imaginary parts


@functools.lru_cache(maxsize=4)
def _plan(shape: tuple[int, int], alpha_w: float, alpha_p: float) -> _Plan:
    """Twiddles and divisors of an ``(H, W)`` solve, computed once per
    ``(shape, alpha_w, alpha_p)`` and returned read-only.

    The divisors are eigenvalues of ``alpha_w I - alpha_p Lap``, of rows
    ``k`` and ``H - k`` (row ``0`` for ``k = 0``) in column ``l`` for the
    first spectrum of a pair and in column ``W - l`` (``0`` for ``l = 0``)
    for the second.  :func:`_divide` holds twice the separated spectra of
    rows ``k = 1..H//2``, and the second spectrum rotated by ``-i``, which
    swaps its real and imaginary parts; so those divisors are doubled, the
    second spectrum's are swapped, and all are stored as reciprocals.
    """
    h, w = shape
    lap_h, lap_w = _neg_laplacian_eigenvalues(h), _neg_laplacian_eigenvalues(w)
    rows, cols = np.arange(1, h // 2 + 1), np.arange(w // 2 + 1)
    mirror = (w - cols) % w

    def eig(r, c):
        return alpha_w + alpha_p * (lap_h[r][:, None] + lap_w[c])

    scale = np.empty((2, len(rows), len(cols), 2))
    scale[0, ..., 0] = eig(rows, cols)
    scale[0, ..., 1] = eig(h - rows, cols)
    scale[1, ..., 0] = eig(h - rows, mirror)
    scale[1, ..., 1] = eig(rows, mirror)
    np.divide(0.5, scale, out=scale)
    col_tw = np.exp(-0.5j * np.pi * cols / w)
    pair_tw = np.exp(-0.5j * np.pi * rows / h)[:, None] * col_tw
    plan = _Plan(
        col_tw,
        col_tw.conj(),
        col_tw * col_tw,
        pair_tw,
        pair_tw.conj(),
        scale.reshape(2, 1, len(rows), 2 * len(cols)),
        np.concatenate([eig([0], cols), eig([0], mirror)]),
    )
    for a in plan:
        a.flags.writeable = False
    return plan


def _reordering(n: int):
    """Makhoul's reordering of a length-``n`` axis, as two (source, target)
    slice pairs: the even samples go in order to the front, the odd ones
    reversed to the back."""
    half = (n + 1) // 2
    return ((slice(0, None, 2), slice(0, half)), (slice(1, None, 2), slice(n - 1, half - 1, -1)))


def _divide(g, work, plan: _Plan) -> None:
    """The fused middle, in place on ``g``, the FFT down the columns of the
    row-transformed reordered images (``(B, H, W//2 + 1)``): each row
    ``k`` and its partner ``H - k`` are split into the spectra of the two
    coefficient columns that each of their columns holds, divided by the
    eigenvalues and put back together.  ``work`` is a contiguous array of
    ``g``'s size whose contents are no longer needed."""
    h = g.shape[1]
    half_h = h // 2

    # row 0 pairs with itself: with the column twiddle applied, its real and
    # imaginary parts are the two columns' spectra
    row0 = g[:, 0, :]
    row0 *= plan.col_twiddle
    row0_re, row0_im = row0.real, row0.imag
    row0_re /= plan.row0_div[0]
    row0_im /= plan.row0_div[1]
    row0 *= plan.col_untwiddle

    # rows k = 1..H//2 against rows H - k: m[0] holds 2 A and m[1] holds
    # 2 (-i B) for the spectra A, B of the two columns, without the column
    # twiddle, which plan.pair_twiddle applies along with the row twiddle;
    # the -i swaps B's real and imaginary parts, and plan.pair_scale with them.
    # m0 and m1 each take one end of work's memory: halves that interleaved
    # over a stack would make numpy copy an operand it cannot prove apart
    # from the output.
    low = g[:, 1 : half_h + 1, :]
    m = work.reshape(-1)[: 2 * low.size].reshape((2,) + low.shape)
    m0, m1 = m
    np.multiply(g[:, : (h - 1) // 2 : -1, :], plan.col_twiddle_sq, out=m1)
    np.conjugate(m1, out=m1)
    np.add(low, m1, out=m0)
    np.subtract(low, m1, out=m1)
    m *= plan.pair_twiddle
    floats = m.view(np.float64)
    floats *= plan.pair_scale
    m *= plan.pair_untwiddle
    np.add(m0, m1, out=low)
    high = g[:, half_h + 1 :, :]  # rows H - k for k = (H-1)//2 down to 1
    n_high = (h - 1) // 2
    np.subtract(m0[:, :n_high][:, ::-1], m1[:, :n_high][:, ::-1], out=high)
    high *= plan.col_twiddle_sq
    np.conjugate(high, out=high)


def solve_screened_poisson(rhs, alpha_w, alpha_p):
    """Solve (alpha_w I - alpha_p Lap) u = rhs exactly.

    Args:
        rhs: right-hand side image (H, W), or a stack (B, H, W) of them,
            each solved on its own with the bytes of its own solve; one
            with no pixel is a ``ValueError``.
        alpha_w: screening weight, finite and > 0.
        alpha_p: diffusion weight, finite and >= 0.

    Returns:
        The solution image or stack, row-major.  The operator's eigenvalues
        are all at least ``alpha_w``, so the division never meets a zero;
        the result is exact up to the rounding of the transforms.
    """
    if not 0.0 < alpha_w < math.inf:
        raise ValueError("alpha_w must be finite and positive")
    if not 0.0 <= alpha_p < math.inf:
        raise ValueError("alpha_p must be finite and nonnegative")
    rhs = np.asarray(rhs, dtype=np.float64)
    shape = rhs.shape
    _nonempty(shape)
    h, w = shape[-2:]
    rhs = rhs.reshape((-1, h, w))
    pairs = [(rx, cx, rv, cv) for rx, rv in _reordering(h) for cx, cv in _reordering(w)]
    # each array is dropped once the next transform has consumed it, so at
    # most two image-sized arrays of the solve are alive at once; v gets the
    # spectrum's size, so that each one fits where the one before it was
    # freed and the heap does not grow (and get returned to the system)
    # from one solve to the next
    v = np.empty(rhs.shape[:-1] + (w // 2 + 1,), dtype=complex).view(np.float64)[..., :w]
    for rx, cx, rv, cv in pairs:
        v[..., rv, cv] = rhs[..., rx, cx]
    y = np.fft.rfft(v, axis=-1)
    del v
    g = np.fft.fft(y, axis=-2)
    _divide(g, y, _plan((h, w), alpha_w, alpha_p))
    del y
    y = np.fft.ifft(g, axis=-2)
    del g
    x = np.fft.irfft(y, n=w, axis=-1)
    del y
    u = np.empty(rhs.shape)
    for rx, cx, rv, cv in pairs:
        u[..., rx, cx] = x[..., rv, cv]
    return u.reshape(shape)
