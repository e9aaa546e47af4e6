"""Mixed Poisson-Gaussian corruption and deterministic test phantoms.

The observation model is

    f = Poisson(eta * u) / eta + N(0, sigma^2)

applied independently per pixel, with no clamping of the result: negative
values from the Gaussian tail are part of the model.  ``eta`` scales the
photon count (larger = cleaner Poisson data) and ``sigma`` is the standard
deviation of the additive read-out noise.

Randomness is counter-based rather than stream-based: every random draw is a
pure function of ``(seed, pixel index, draw index)`` through the SplitMix64
finalizer.  The same seed therefore yields bit-identical corruption on every
platform and regardless of evaluation order, and changing one pixel's clean
value never perturbs another pixel's draws.  ``corrupt`` uses this to draw
the image in blocks of ``_BLOCK`` pixels, writing each block into the one
output array, so its working memory stays a few block-sized arrays at any
image size and the bytes equal those of a one-pass draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, ndtri

from .grid import DomainError, as_image

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_INC = np.uint64(0xD1342543DE82EF95)
#: most steps the sequential-search Poisson sampler takes for one pixel
_INVERSION_CAP = 400
#: pixels drawn together by ``corrupt``; bounds its working memory
_BLOCK = 2**13


@dataclass
class NoiseSpec:
    """Parameters of one synthetic corruption."""

    eta: float
    sigma: float
    seed: int = 0

    def __post_init__(self):
        # NaN fails every comparison, so each test is written to fail on it
        if not 0.0 < self.eta < math.inf:
            raise ValueError("eta must be finite and positive")
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError("sigma must be finite and nonnegative")


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer; uniformly scrambles uint64 counters."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _uniforms(keys: np.ndarray, draw: np.ndarray) -> np.ndarray:
    """Uniform(0, 1) variates, strictly inside the open interval."""
    bits = _mix64(keys + (draw + np.uint64(1)) * _INC)
    return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def _pixel_keys(seed: int, start: int, stop: int) -> np.ndarray:
    """Keys of the pixels with flat indices ``start`` to ``stop - 1``."""
    idx = np.arange(start + 1, stop + 1, dtype=np.uint64)
    return _mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + idx * _GOLDEN)


def _poisson_inversion(mean, keys, draw0):
    """Sequential-search inversion; one uniform per pixel, means < 10 only.

    Step ``j`` adds the probability of ``k = j`` to each pixel's running CDF
    until it passes the pixel's uniform.  Only the pixels still searching are
    carried, as compacted arrays indexed by ``idx``; every one of them is at
    the same ``j``, so a pixel that stops at step ``j`` has count ``j``.
    """
    u = _uniforms(keys, draw0)
    k = np.zeros(mean.shape, dtype=np.float64)
    p = np.exp(-mean)  # P(k = 0), also the CDF at k = 0
    idx = np.flatnonzero(u > p)
    m, p, cdf, u = mean[idx], p[idx], p[idx], u[idx]
    # mean < 10 puts the needed k far below this cap except with probability
    # on the order of the uniform's resolution (2^-53)
    for j in range(1, _INVERSION_CAP + 1):
        if idx.size == 0:
            break
        p *= m / j
        cdf += p
        keep = u > cdf
        k[idx[~keep]] = j
        idx, m, p, cdf, u = idx[keep], m[keep], p[keep], cdf[keep], u[keep]
    k[idx] = _INVERSION_CAP
    return k


def _poisson_ptrs(mean, keys, draw0):
    """Transformed-rejection sampler for means >= 10 (two uniforms/attempt)."""
    m = mean
    log_m = np.log(m)
    b = 0.931 + 2.53 * np.sqrt(m)
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)

    k = np.zeros(m.shape, dtype=np.float64)
    draw = np.array(draw0, dtype=np.uint64, copy=True)
    pending = np.ones(m.shape, dtype=bool)
    while pending.any():
        u = _uniforms(keys[pending], draw[pending]) - 0.5
        v = _uniforms(keys[pending], draw[pending] + np.uint64(1))
        draw[pending] += np.uint64(2)

        us = 0.5 - np.abs(u)
        cand = np.floor((2.0 * a[pending] / us + b[pending]) * u + m[pending] + 0.43)
        accept = (us >= 0.07) & (v <= v_r[pending])
        plausible = (cand >= 0.0) & ((us >= 0.013) | (v <= us))
        with np.errstate(divide="ignore", invalid="ignore"):
            log_accept = np.log(
                v * inv_alpha[pending] / (a[pending] / (us * us) + b[pending])
            ) <= (cand * log_m[pending] - m[pending] - gammaln(cand + 1.0))
        accept = accept | (plausible & log_accept)

        idx = np.flatnonzero(pending)
        k[idx[accept]] = cand[accept]
        pending[idx[accept]] = False
    return k


def _poisson(mean: np.ndarray, keys: np.ndarray, draw0: np.ndarray) -> np.ndarray:
    counts = np.zeros_like(mean)
    small = (mean > 0.0) & (mean < 10.0)
    large = mean >= 10.0
    if small.any():
        counts[small] = _poisson_inversion(mean[small], keys[small], draw0[small])
    if large.any():
        counts[large] = _poisson_ptrs(mean[large], keys[large], draw0[large])
    return counts


def _corrupt_block(u: np.ndarray, spec: NoiseSpec, start: int, out: np.ndarray) -> None:
    """Draws of the pixels with flat indices ``start`` to ``start + u.size - 1``
    (``u`` holds their clean values), written into ``out``."""
    keys = _pixel_keys(spec.seed, start, start + u.size)
    # draw 0 of every pixel is the Gaussian; Poisson consumes draws 1, 2, ...
    gauss = ndtri(_uniforms(keys, np.zeros(u.size, dtype=np.uint64)))
    counts = _poisson(u * spec.eta, keys, np.ones(u.size, dtype=np.uint64))
    np.divide(counts, spec.eta, out=out)
    gauss *= spec.sigma
    out += gauss


def corrupt(u, spec: NoiseSpec) -> np.ndarray:
    """Draw one mixed Poisson-Gaussian observation of the clean image ``u``.

    Raises ``DomainError`` when ``u`` has negative entries (a Poisson rate
    cannot be negative).  The output is not clamped.
    """
    u = as_image(u)
    if np.min(u) < 0.0:
        raise DomainError("clean image must be nonnegative")
    flat = u.reshape(-1)
    f = np.empty(u.size)
    for start in range(0, u.size, _BLOCK):
        _corrupt_block(flat[start : start + _BLOCK], spec, start, f[start : start + _BLOCK])
    return f.reshape(u.shape)


PHANTOM_KINDS = ("circles", "flat", "ramp", "checker")


def make_phantom(kind: str, width: int, height: int) -> np.ndarray:
    """Deterministic test image in [0, 1].

    Kinds: ``circles`` (disks of several intensities on a dim background),
    ``flat`` (constant 0.5), ``ramp`` (left-to-right 0..1), ``checker``
    (two-valued blocks).
    """
    if width < 8 or height < 8:
        raise ValueError("phantom dimensions must be at least 8")
    if kind == "flat":
        return np.full((height, width), 0.5)
    if kind == "ramp":
        return np.tile(np.linspace(0.0, 1.0, width), (height, 1))
    if kind == "checker":
        block = max(1, min(8, min(width, height) // 2))
        ii, jj = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
        return np.where((ii // block + jj // block) % 2 == 0, 0.25, 0.8)
    if kind == "circles":
        u = np.full((height, width), 0.1)
        # open grids: a column of row indices against a row of column indices,
        # broadcast by each disk test, so only its sum is image-sized
        yy, xx = np.ogrid[:height, :width]
        scale = min(width, height)
        disks = [
            (0.32, 0.30, 0.23, 1.00),
            (0.70, 0.28, 0.14, 0.55),
            (0.30, 0.72, 0.16, 0.75),
            (0.68, 0.70, 0.17, 0.35),
            (0.52, 0.50, 0.08, 0.90),
        ]
        for cx, cy, r, value in disks:
            mask = (xx - cx * width) ** 2 + (yy - cy * height) ** 2 <= (r * scale) ** 2
            u[mask] = value
        return u
    raise ValueError(f"unknown phantom kind: {kind!r}")
