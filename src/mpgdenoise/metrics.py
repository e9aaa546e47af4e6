"""Reconstruction quality metrics and the model objective."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import DomainError, ShapeMismatchError, dot, total_variation

#: SNR values are capped here so an exact reconstruction reports a finite number.
SNR_CAP_DB = 300.0

#: standard deviation of the SSIM window (the window size is configurable,
#: its shape is not)
_SSIM_SIGMA = 1.5


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


@dataclass
class SSIMConfig:
    window: int = 11
    k1: float = 0.01
    k2: float = 0.03
    dynamic_range: float = 1.0

    def __post_init__(self):
        if self.window < 3 or self.window % 2 == 0:
            raise ValueError("window must be an odd integer >= 3")
        if not self.dynamic_range > 0.0:
            raise ValueError("dynamic_range must be positive")


def _gaussian_window(size: int) -> np.ndarray:
    """Normalized 1-D Gaussian; the 2-D SSIM window is its outer product."""
    half = (size - 1) / 2.0
    x = np.arange(size) - half
    g = np.exp(-(x**2) / (2.0 * _SSIM_SIGMA**2))
    return g / g.sum()


def _smooth(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Valid-region correlation of ``x`` with ``outer(g, g)``: rows, then columns."""
    rows = sliding_window_view(x, g.size, axis=1) @ g
    return sliding_window_view(rows, g.size, axis=0) @ g


def ssim(a, b, cfg: SSIMConfig | None = None) -> float:
    """Mean structural similarity over the valid (fully-windowed) region.

    Gaussian-weighted local statistics, the usual two stabilizing constants
    ``(k1 L)^2`` and ``(k2 L)^2``, and no padding: windows that would stick
    out of the image are dropped, so both dimensions must be at least the
    window size.  Larger is better; identical images score exactly 1.

    The window is the 2-D Gaussian of standard deviation 1.5 (Wang et al.,
    IEEE TIP 2004).  It is separable, so each local statistic is two 1-D
    passes of the normalized 1-D Gaussian, along rows and then along
    columns, which equals the 2-D correlation up to rounding.
    """
    if cfg is None:
        cfg = SSIMConfig()
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.ndim != 2:
        raise ValueError(f"ssim needs 2-D images, got shape {a.shape}")
    if min(a.shape) < cfg.window:
        raise ValueError(
            f"image dims {a.shape} smaller than the {cfg.window}x{cfg.window} window"
        )
    g = _gaussian_window(cfg.window)
    mu_a = _smooth(a, g)
    mu_b = _smooth(b, g)
    var_a = _smooth(a * a, g) - mu_a**2
    var_b = _smooth(b * b, g) - mu_b**2
    cov = _smooth(a * b, g) - mu_a * mu_b

    c1 = (cfg.k1 * cfg.dynamic_range) ** 2
    c2 = (cfg.k2 * cfg.dynamic_range) ** 2
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


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
