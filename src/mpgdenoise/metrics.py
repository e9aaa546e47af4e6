"""Reconstruction quality metrics and the model objective.

SSIM uses the fixed window and constants of Wang et al. (IEEE TIP 2004),
with the dynamic range 1 of the images this package writes.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import grid
from .grid import DomainError, ShapeMismatchError, dot, total_variation

#: SNR values are capped here so an exact reconstruction reports a finite number.
SNR_CAP_DB = 300.0

#: SSIM window size (pixels per side), the window's standard deviation, the
#: two stabilizing constants and the dynamic range ``L`` of the images
SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03
SSIM_DYNAMIC_RANGE = 1.0


def snr(u, truth) -> float:
    """Signal-to-noise ratio in dB: -10 log10(||u - truth||^2 / ||u||^2).

    The denominator is the energy of the reconstruction ``u`` itself.  An
    exact match returns the cap (300 dB) rather than infinity; an identically
    zero ``u`` is rejected since the ratio is undefined.
    """
    u = np.asarray(u, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if u.shape != truth.shape:
        raise ShapeMismatchError(f"shape mismatch: {u.shape} vs {truth.shape}")
    energy = float(np.sum(u * u))
    if energy == 0.0:
        raise DomainError("snr undefined for an identically zero reconstruction")
    err = float(np.sum((u - truth) ** 2))
    if err == 0.0:
        return SNR_CAP_DB
    return min(-10.0 * math.log10(err / energy), SNR_CAP_DB)


def snr_or_none(u, truth) -> float | None:
    """:func:`snr`, or ``None`` where ``u`` is identically zero and it is undefined."""
    try:
        return snr(u, truth)
    except DomainError:
        return None


def ssim_or_none(u, truth) -> float | None:
    """:func:`ssim`, or ``None`` where the image is smaller than the SSIM
    window."""
    try:
        return ssim(u, truth)
    except ValueError:
        return None


def _gaussian_window(size: int) -> np.ndarray:
    """Normalized 1-D Gaussian; the 2-D SSIM window is its outer product."""
    half = (size - 1) / 2.0
    x = np.arange(size) - half
    g = np.exp(-(x**2) / (2.0 * SSIM_SIGMA**2))
    return g / g.sum()


def _smooth(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Valid-region correlation of ``x`` with ``outer(g, g)``: rows, then columns."""
    rows = sliding_window_view(x, g.size, axis=1) @ g
    return sliding_window_view(rows, g.size, axis=0) @ g


def ssim(a, b) -> float:
    """Mean structural similarity over the valid (fully-windowed) region.

    Gaussian-weighted local statistics, the usual two stabilizing constants
    ``(K1 L)^2`` and ``(K2 L)^2``, and no padding: windows that would stick
    out of the image are dropped, so both dimensions must be at least the
    window size, 11.  Larger is better; identical images score exactly 1.

    The window is the 2-D Gaussian of standard deviation 1.5.  It is
    separable, so each local statistic is two 1-D passes of the normalized
    1-D Gaussian, along rows and then along columns, which equals the 2-D
    correlation up to rounding.

    The per-pixel map is written into one valid-region map block by block,
    over the :func:`grid.row_blocks` of the pair (``2 W`` values a row, the
    window's 10 rows below as halo), each block giving the windows that
    start on its own rows; its one mean has the bits of one block.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.ndim != 2:
        raise ValueError(f"ssim needs 2-D images, got shape {a.shape}")
    if min(a.shape) < SSIM_WINDOW:
        raise ValueError(
            f"image dims {a.shape} smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} window"
        )
    (h, w), halo = a.shape, SSIM_WINDOW - 1
    ssim_map = np.empty((h - halo, w - halo))
    for (r0, _), (_, s1) in grid.row_blocks(h, 2 * w, below=halo):
        if r0 < h - halo:  # a block in the last 10 rows starts no window
            _ssim_map(a[r0:s1], b[r0:s1], out=ssim_map[r0 : s1 - halo])
    return float(np.mean(ssim_map))


def _ssim_map(a, b, out):
    """The SSIM of every full window of ``a`` and ``b``, into ``out``."""
    g = _gaussian_window(SSIM_WINDOW)
    mu_a = _smooth(a, g)
    mu_b = _smooth(b, g)
    var_a = _smooth(a * a, g) - mu_a**2
    var_b = _smooth(b * b, g) - mu_b**2
    cov = _smooth(a * b, g) - mu_a * mu_b

    c1 = (SSIM_K1 * SSIM_DYNAMIC_RANGE) ** 2
    c2 = (SSIM_K2 * SSIM_DYNAMIC_RANGE) ** 2
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    return np.divide(num, den, out=out)


def objective_H(u, v, f, cfg, tv: float | None = None, resid_sq: float | None = None) -> float:
    """Value of the denoising model at ``(u, v)`` given the observation ``f``.

    The three terms: quadratic fidelity ``(lambda1/2) ||f - v||^2`` between
    the observation and the Gaussian-part estimate, the Kullback-Leibler-type
    divergence ``lambda2 * sum(u - v log(u/v) - v)`` tying the Poisson-part
    estimate to ``v``, and the total variation of ``u``.  ``cfg`` supplies
    ``lambda1``, ``lambda2`` and the positivity floor ``epsilon``; a ``v``
    below the floor is infeasible and scores ``+inf``.  For reporting
    stability ``u`` is floored at 1e-12 inside the logarithm only.  ``tv``
    and ``resid_sq``, when given, are ``total_variation(u)`` and
    ``||f - v||^2`` already computed by the caller.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    if u.shape != v.shape or u.shape != f.shape:
        raise ShapeMismatchError("u, v, f must share one shape")
    if np.min(v) < cfg.epsilon:
        return math.inf
    if resid_sq is None:
        resid = f - v
        resid_sq = dot(resid, resid)
    gauss = 0.5 * cfg.lambda1 * resid_sq
    kl = np.maximum(u, 1e-12)  # becomes u - v log(u/v) - v
    kl /= v
    np.log(kl, out=kl)
    kl *= v
    np.subtract(u, kl, out=kl)
    kl -= v
    return gauss + cfg.lambda2 * float(kl.sum()) + (total_variation(u) if tv is None else tv)
