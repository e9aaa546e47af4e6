"""Mixed Poisson-Gaussian corruption and deterministic test phantoms.

The observation model is

    f = Poisson(eta * u) / eta + N(0, sigma^2)

applied independently per pixel, with no clamping of the result: negative
values from the Gaussian tail are part of the model.  ``eta`` scales the
photon count (larger = cleaner Poisson data) and ``sigma`` is the standard
deviation of the additive read-out noise.

Randomness is counter-based rather than stream-based: every random draw is a
pure function of ``(seed, pixel index, draw index)`` through the SplitMix64
finalizer.  The same seed therefore yields the same uniforms on every
platform and regardless of evaluation order, and changing one pixel's clean
value never perturbs another pixel's draws.  ``corrupt`` uses this to draw
the image in blocks of ``_BLOCK`` pixels, writing each block into the one
output array, so its working memory stays a few block-sized arrays at any
image size and the bytes equal those of a one-pass draw.

The corruption's bytes are fixed by the seed on one machine and one numpy
build, not across all of them: the Poisson samplers call ``np.exp`` and
``np.log``, whose last bit depends on the SIMD code numpy dispatches to on
the CPU at hand.  The Gaussian draw's inverse normal CDF and the sampler's
``log k!`` are numpy ports of the Cephes (Moshier) code behind
``scipy.special.ndtri`` and ``scipy.special.gammaln``, with every logarithm
taken by the C library's ``log`` (``math.log``) as scipy's compiled code
does, so they give scipy's bits without importing scipy.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

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
        if not isinstance(self.seed, numbers.Integral):
            raise ValueError("seed must be an integer")


# Cephes ndtri: P0/Q0 for |y - 1/2| <= 1/2 - e^-2; P1/Q1 and P2/Q2 in the
# tails, for x = sqrt(-2 log y) below and from 8.  The Q tables omit their
# leading 1 (``_p1evl``).
_EXP_M2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242
_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_Q0 = (
    1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_Q1 = (
    1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_Q2 = (
    6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)
# Cephes lgam: Stirling's series for x >= 13, log((x-1)!) below
_LOG_SQRT_2PI = 0.91893853320467274178
_STIRLING = (
    8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
    -2.77777777730099687205e-3, 8.33333333333331927722e-2,
)
#: ``gammaln(k)`` for the integers ``k = 0..12``; a pole at 0
_LOG_FACTORIALS = np.array([math.inf] + [math.log(math.factorial(k)) for k in range(12)])
#: Cephes' MAXLGM: ``gammaln`` overflows above it
_LGAM_MAX = 2.556348e305
#: counts whose ``log k!`` the Poisson sampler looks up rather than computes
_LOG_FACTORIAL_TABLE = 2**12


def _polevl(x: np.ndarray, coef) -> np.ndarray:
    """Cephes ``polevl``: Horner's rule from the highest coefficient, each
    step a separate multiply and add, rounded as the C code rounds them."""
    ans = x * coef[0]
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x: np.ndarray, coef) -> np.ndarray:
    """Cephes ``p1evl``: ``_polevl`` with an implied leading coefficient 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _log(x: np.ndarray) -> np.ndarray:
    """The C library's ``log`` of each entry, the one scipy's compiled code
    calls; ``np.log`` may differ from it in the last bit."""
    return np.fromiter(map(math.log, x.tolist()), np.float64, x.size)


def _ndtri(y: np.ndarray) -> np.ndarray:
    """``scipy.special.ndtri`` of ``y`` in [0, 1], bit for bit; overwrites
    and returns ``y``.

    The central rational function runs in place over the whole array; the
    tails (``y`` within ``e^-2`` of 0 or 1, about 27% of uniforms) are
    gathered once and written over it.
    """
    tail = np.flatnonzero((y <= _EXP_M2) | (y > 1.0 - _EXP_M2))
    t = y[tail]
    y -= 0.5
    y2 = y * y
    r = _polevl(y2, _P0)
    r *= y2
    r /= _p1evl(y2, _Q0)
    r *= y
    y += r
    y *= _SQRT_2PI
    if tail.size:
        # the upper tail through 1 - y, which is exact there
        lower = t <= _EXP_M2
        np.subtract(1.0, t, out=t, where=~lower)
        # ndtri(0) = -inf and ndtri(1) = inf; a stand-in keeps log finite
        pole = t == 0.0
        t[pole] = 0.5
        x = np.sqrt(-2.0 * _log(t))
        z = 1.0 / x
        x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
        far = np.flatnonzero(x >= 8.0)
        if far.size:
            zf = z[far]
            x1[far] = zf * _polevl(zf, _P2) / _p1evl(zf, _Q2)
        x -= _log(x) / x
        x -= x1
        x[pole] = math.inf
        np.negative(x, out=x, where=lower)
        y[tail] = x
    return y


def _gammaln(x: np.ndarray) -> np.ndarray:
    """``scipy.special.gammaln`` of integer-valued ``x``, bit for bit."""
    out = np.full(x.shape, math.inf)
    small = np.flatnonzero((x > 0.0) & (x < 13.0))
    out[small] = _LOG_FACTORIALS[x[small].astype(np.intp)]
    big = np.flatnonzero((x >= 13.0) & (x <= _LGAM_MAX))
    if big.size:
        xb = x[big]
        q = (xb - 0.5) * _log(xb)
        q -= xb
        q += _LOG_SQRT_2PI
        # above 1e8 Cephes drops the series' correction: it is below half
        # an ulp of q there
        mid = np.flatnonzero(xb <= 1e8)
        xm = xb[mid]
        p = 1.0 / (xm * xm)
        near = np.flatnonzero(xm < 1000.0)
        corr = ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                + 0.0833333333333333333333) / xm
        corr[near] = _polevl(p[near], _STIRLING) / xm[near]
        q[mid] += corr
        out[big] = q
    return out


@functools.cache
def _log_factorials() -> np.ndarray:
    """``log k!`` for ``k < _LOG_FACTORIAL_TABLE``, read-only."""
    table = _gammaln(np.arange(1.0, _LOG_FACTORIAL_TABLE + 1.0))
    table.flags.writeable = False
    return table


def _log_factorial(k: np.ndarray) -> np.ndarray:
    """``gammaln(k + 1)`` of integer-valued ``k >= 0``, looked up in a table
    when every count is below ``_LOG_FACTORIAL_TABLE`` (means up to a few
    thousand photons), else computed."""
    table = _log_factorials()
    if k.size and k.max() < table.size:
        return table[k.astype(np.intp)]
    return _gammaln(k + 1.0)


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
    the same ``j`` and has a count of at least ``j``, so writing ``j`` to the
    count of each on every step leaves the count it stops at.
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
        k[idx] = j
        p *= m / j
        cdf += p
        # positions, not a mask: five gathers by one index list beat five
        # boolean selections
        keep = np.flatnonzero(u > cdf)
        idx, m, p, cdf, u = idx[keep], m[keep], p[keep], cdf[keep], u[keep]
    return k


def _poisson_ptrs(mean, keys, draw0):
    """Transformed-rejection sampler for means >= 10 (two uniforms/attempt).

    Each attempt draws only for the pixels still drawing, carried by their
    positions ``idx`` with the index of each one's next draw.
    """
    m = mean
    log_m = np.log(m)
    b = 0.931 + 2.53 * np.sqrt(m)
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)

    k = np.zeros(m.shape, dtype=np.float64)
    idx = np.arange(m.size)
    draw = np.array(draw0, dtype=np.uint64)
    while idx.size:
        key = keys[idx]
        u = _uniforms(key, draw) - 0.5
        v = _uniforms(key, draw + np.uint64(1))
        draw += np.uint64(2)

        us = 0.5 - np.abs(u)
        cand = np.floor((2.0 * a[idx] / us + b[idx]) * u + m[idx] + 0.43)
        accept = (us >= 0.07) & (v <= v_r[idx])
        # the log test decides only the plausible candidates the quick test
        # left; computed on those alone, it reads ``log k!`` for k >= 0 only
        test = np.flatnonzero(~accept & (cand >= 0.0) & ((us >= 0.013) | (v <= us)))
        at, ut, ct = idx[test], us[test], cand[test]
        with np.errstate(divide="ignore", invalid="ignore"):
            accept[test] = np.log(
                v[test] * inv_alpha[at] / (a[at] / (ut * ut) + b[at])
            ) <= (ct * log_m[at] - m[at] - _log_factorial(ct))

        k[idx[accept]] = cand[accept]
        idx, draw = idx[~accept], draw[~accept]
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
    gauss = _ndtri(_uniforms(keys, np.zeros(u.size, dtype=np.uint64)))
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
