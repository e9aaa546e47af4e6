"""Exact solve of the screened Poisson system by one 2-D cosine transform.

The flux-split ADMM solver's image update has normal equations

    (alpha_w * I - alpha_p * Lap) u = rhs

with the discrete Laplacian from :mod:`mpgdenoise.grid` (forward-difference
gradient, replicate/Neumann boundaries).  Along each axis of length ``n``
that Laplacian is the tridiagonal second difference whose eigenvectors are
the DCT-II basis, with eigenvalues ``-(2 - 2 cos(pi k / n))``, ``k = 0..n-1``
(Strang, "The Discrete Cosine Transform", SIAM Review 1999).  The 2-D
orthonormal DCT-II therefore diagonalizes the whole operator, and the system
is solved exactly, with no inner iterations, by a forward transform, one
pointwise division and an inverse transform.

The transforms are scipy's, and this is the package's only use of scipy:
``scipy.fft`` is imported on the first solve (``_fft``), so importing the
package, and every command that runs no ``bcaf`` solve, loads no scipy and
saves the about 24 MB and 0.3 s its import takes.
"""

from __future__ import annotations

import functools

import numpy as np


@functools.cache
def _fft():
    """``scipy.fft``, imported on the first call."""
    import scipy.fft

    return scipy.fft


def _neg_laplacian_eigenvalues(n: int) -> np.ndarray:
    return 2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n)


@functools.lru_cache(maxsize=4)
def _operator_eigenvalues(shape: tuple[int, int], alpha_w: float, alpha_p: float) -> np.ndarray:
    """Eigenvalues of ``alpha_w I - alpha_p Lap`` in the 2-D DCT-II basis of
    an ``(H, W)`` image, computed once per ``(shape, alpha_w, alpha_p)`` and
    returned read-only."""
    h, w = shape
    eig = alpha_w + alpha_p * (
        _neg_laplacian_eigenvalues(h)[:, None] + _neg_laplacian_eigenvalues(w)[None, :]
    )
    eig.flags.writeable = False
    return eig


def solve_screened_poisson(rhs, alpha_w, alpha_p):
    """Solve (alpha_w I - alpha_p Lap) u = rhs exactly.

    Args:
        rhs: right-hand side image (H, W), or a stack (B, H, W) of them,
            each solved on its own with the bytes of its own solve.
        alpha_w: screening weight, must be > 0.
        alpha_p: diffusion weight, must be >= 0.

    Returns:
        The solution image or stack.  The operator's eigenvalues are all at
        least ``alpha_w``, so the division never meets a zero; the result is
        exact up to the rounding of the two transforms.
    """
    if not alpha_w > 0.0:
        raise ValueError("alpha_w must be positive")
    if not alpha_p >= 0.0:
        raise ValueError("alpha_p must be nonnegative")
    rhs = np.asarray(rhs, dtype=np.float64)
    eig = _operator_eigenvalues(rhs.shape[-2:], alpha_w, alpha_p)
    fft = _fft()
    coeffs = fft.dctn(rhs, type=2, norm="ortho", axes=(-2, -1))
    coeffs /= eig
    return fft.idctn(coeffs, type=2, norm="ortho", axes=(-2, -1))
