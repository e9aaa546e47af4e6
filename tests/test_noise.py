"""Mixed Poisson-Gaussian synthesis: determinism, distribution, phantoms."""

import hashlib
import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import gammaln, ndtri

from mpgdenoise import noise
from mpgdenoise.grid import DomainError
from mpgdenoise.metrics import snr
from mpgdenoise.noise import NoiseSpec, corrupt, make_phantom


def test_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(eta=0.0, sigma=0.1)
    with pytest.raises(ValueError):
        NoiseSpec(eta=-2.0, sigma=0.1)
    with pytest.raises(ValueError):
        NoiseSpec(eta=1.0, sigma=-1e-9)
    with pytest.raises(ValueError, match="seed must be an integer"):
        NoiseSpec(eta=4.0, sigma=0.1, seed=1.5)
    NoiseSpec(eta=1.0, sigma=0.0)
    NoiseSpec(eta=1.0, sigma=0.0, seed=np.int64(3))


@pytest.mark.parametrize("eta, sigma, message", [
    (float("nan"), 0.1, "eta must be finite and positive"),
    (float("inf"), 0.1, "eta must be finite and positive"),
    (1.0, float("nan"), "sigma must be finite and nonnegative"),
    (1.0, float("inf"), "sigma must be finite and nonnegative"),
])
def test_spec_rejects_nonfinite_levels(eta, sigma, message):
    with pytest.raises(ValueError, match=message):
        NoiseSpec(eta=eta, sigma=sigma)


def test_zero_image_zero_sigma_is_exactly_zero():
    f = corrupt(np.zeros((8, 8)), NoiseSpec(eta=4.0, sigma=0.0, seed=3))
    assert np.all(f == 0.0)


def test_negative_clean_image_rejected():
    u = np.full((8, 8), 0.5)
    u[2, 2] = -1e-6
    with pytest.raises(DomainError):
        corrupt(u, NoiseSpec(eta=4.0, sigma=0.0))


def test_huge_eta_recovers_input():
    """eta = 1e9, sigma = 0: relative Poisson noise ~ 1/sqrt(eta*u)."""
    u = np.full((16, 16), 0.5)
    f = corrupt(u, NoiseSpec(eta=1e9, sigma=0.0, seed=0))
    assert np.max(np.abs(f - u)) < 1e-3


def test_deterministic_and_seed_sensitive():
    u = make_phantom("circles", 32, 32)
    a = corrupt(u, NoiseSpec(eta=4.0, sigma=1e-2, seed=11))
    b = corrupt(u, NoiseSpec(eta=4.0, sigma=1e-2, seed=11))
    c = corrupt(u, NoiseSpec(eta=4.0, sigma=1e-2, seed=12))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_gaussian_only_pixels():
    """Zero-intensity pixels see the additive Gaussian term alone."""
    u = np.zeros((50, 50))
    f = corrupt(u, NoiseSpec(eta=2.0, sigma=0.3, seed=5))
    assert abs(float(f.mean())) < 0.3 * 3 / 50  # 3 standard errors
    assert abs(float(f.std()) - 0.3) < 0.02
    assert f.min() < 0.0  # negatives pass through unclamped


def test_monte_carlo_pixel_means():
    """Sample mean over 100 seeds is unbiased: per-pixel z-scores behave.

    With 4096 pixels the largest of 4096 roughly-normal z-scores is expected
    around 3.5, so "every pixel within 3 SE" is not a property any correct
    sampler has; the honest claims are on the z-score *distribution*: at
    least 99.5% of pixels within 3 SE and none beyond 5 SE.
    """
    truth = make_phantom("circles", 64, 64)
    eta, sigma, n = 16.0, 1e-4, 100
    acc = np.zeros_like(truth)
    for seed in range(n):
        acc += corrupt(truth, NoiseSpec(eta, sigma, seed=seed))
    se = np.sqrt((truth / eta + sigma**2) / n)
    z = np.abs(acc / n - truth) / se
    assert np.mean(z <= 3.0) >= 0.995
    assert z.max() <= 5.0


def test_variance_chi_square():
    """Per-pixel scatter matches var = u/eta + sigma^2 (two-sided 1e-3)."""
    truth = make_phantom("circles", 64, 64)
    eta, sigma, n = 16.0, 1e-4, 200
    var = truth / eta + sigma**2
    total = 0.0
    for seed in range(n):
        f = corrupt(truth, NoiseSpec(eta, sigma, seed=1000 + seed))
        total += float(np.sum((f - truth) ** 2 / var))
    df = n * truth.size
    assert stats.chi2.ppf(5e-4, df) < total < stats.chi2.ppf(1 - 5e-4, df)


def test_snr_improves_with_eta():
    truth = make_phantom("circles", 64, 64)
    means = []
    for eta in (1.0, 4.0, 16.0, 64.0):
        vals = [
            snr(corrupt(truth, NoiseSpec(eta, 1e-4, seed=s)), truth) for s in range(20)
        ]
        means.append(float(np.mean(vals)))
    assert all(a < b for a, b in zip(means, means[1:]))


@pytest.mark.parametrize(
    "mean_target",
    [1.6, 40.0],  # below and above the inversion/rejection switch at 10
)
def test_poisson_counts_distribution(mean_target):
    """Counts match the Poisson pmf (chi-square GOF at significance 1e-3)."""
    c = 0.5
    eta = mean_target / c
    f = corrupt(np.full((400, 500), c), NoiseSpec(eta, 0.0, seed=77))
    counts = np.rint(f * eta).astype(int).ravel()
    np.testing.assert_allclose(counts, f.ravel() * eta, atol=1e-6)  # integer counts
    assert counts.min() >= 0

    kmin = int(stats.poisson.ppf(1e-4, mean_target))
    kmax = int(stats.poisson.ppf(1 - 1e-4, mean_target))
    obs = np.bincount(np.clip(counts - kmin, 0, kmax - kmin), minlength=kmax - kmin + 1)
    pk = stats.poisson.pmf(np.arange(kmin, kmax + 1), mean_target)
    pk[0] = stats.poisson.cdf(kmin, mean_target)
    pk[-1] = stats.poisson.sf(kmax - 1, mean_target)
    expected = pk * counts.size
    keep = expected >= 5
    chi2_stat = float(np.sum((obs[keep] - expected[keep]) ** 2 / expected[keep]))
    assert chi2_stat < stats.chi2.ppf(1 - 1e-3, int(keep.sum()) - 1)


@pytest.mark.parametrize(
    "eta, sigma, digest",
    [
        # every Poisson mean below 10: sequential-search inversion only
        (4.0, 0.0, "71e705042be8a7abc8471e332f42cd9c467a67430e4e11aeac1c5d66ed3884eb"),
        # background means 4 (inversion), disk means 14 to 40 (rejection)
        (40.0, 0.0, "5bfd8c0a81a3298fa55f7dd175628b788151a0efd95f8dd22c3cde736a9e06d7"),
        (4.0, 0.05, "3de0b908c0c4a7a31c8d43b189234ae05e7218c55c34fed0a9dbd9d2469a6520"),
    ],
)
def test_corrupt_bytes_are_pinned(eta, sigma, digest):
    """The synthesizer is a pure function of its inputs; a rewrite keeps its bytes."""
    f = corrupt(make_phantom("circles", 64, 64), NoiseSpec(eta=eta, sigma=sigma, seed=7))
    assert hashlib.sha256(f.tobytes()).hexdigest() == digest


def one_pass_corrupt(u, spec):
    """``corrupt`` as one draw over the whole image, as it was before it ran in
    blocks: the same keys, draws and formula on full-size arrays."""
    n = u.size
    idx = np.arange(1, n + 1, dtype=np.uint64)
    keys = noise._mix64(np.uint64(spec.seed) + idx * noise._GOLDEN)
    gauss = ndtri(noise._uniforms(keys, np.zeros(n, dtype=np.uint64)))
    counts = noise._poisson(u.reshape(-1) * spec.eta, keys, np.ones(n, dtype=np.uint64))
    return (counts / spec.eta + spec.sigma * gauss).reshape(u.shape)


# means below 10 only (inversion), both samplers, rejection almost everywhere
@pytest.mark.parametrize("eta", [4.0, 40.0, 1000.0])
def test_blocked_corrupt_matches_one_pass(eta):
    u = np.random.default_rng(11).uniform(0.0, 1.0, (300, 301))
    u[0, :7] = 0.0  # zero rate: count 0 without a draw
    assert u.size > 2 * noise._BLOCK and u.size % noise._BLOCK  # a partial last block
    spec = NoiseSpec(eta=eta, sigma=0.05, seed=5)
    assert corrupt(u, spec).tobytes() == one_pass_corrupt(u, spec).tobytes()


def test_corrupt_memory(transient_peak):
    """The output plus a few block-sized arrays, not full-size temporaries."""
    u = make_phantom("circles", 512, 512)
    f, peak = transient_peak(corrupt, u, NoiseSpec(eta=40.0, sigma=0.05, seed=2))
    assert f.shape == u.shape
    assert peak <= 2 * u.nbytes


def test_poisson_inversion_matches_per_pixel_search(monkeypatch):
    """Compacted sampler vs. one pixel at a time, the 400-step cap included."""
    rng = np.random.default_rng(8)
    mean = rng.uniform(0.01, 9.99, 500)
    u = rng.uniform(0.0, 1.0, mean.size)
    u[:3] = 2.0  # above any CDF: these pixels search until the cap
    u[3:6] = 1e-300  # below exp(-mean): count 0
    monkeypatch.setattr(noise, "_uniforms", lambda keys, draw: u)
    k = noise._poisson_inversion(mean, None, None)

    p0 = np.exp(-mean)
    expected = np.zeros(mean.size)
    for i in range(mean.size):
        j, p, cdf = 0, p0[i], p0[i]
        while u[i] > cdf and j < 400:
            j += 1
            p *= mean[i] / j
            cdf += p
        expected[i] = j
    assert np.array_equal(k, expected)
    assert np.all(k[:3] == 400.0) and np.all(k[3:6] == 0.0)


# ---------------------------------------------------------------------------
# the Cephes ports: scipy's bits without importing scipy


def same_bits(a, b):
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


@pytest.mark.parametrize("seed, draw", [(0, 0), (7, 0), (12345, 1), (2**63 + 5, 3)])
def test_ndtri_matches_scipy_on_uniform_draws(seed, draw):
    """Half a million draws of ``_uniforms``' form per case: the central
    region and both tails, about 27% of them through the two ``log`` calls."""
    keys = noise._pixel_keys(seed, 0, 500_000)
    y = noise._uniforms(keys, np.full(keys.size, draw, dtype=np.uint64))
    want = ndtri(y)
    assert same_bits(noise._ndtri(y.copy()), want)


def test_ndtri_matches_scipy_at_region_edges():
    e2, e32 = math.exp(-2.0), math.exp(-32.0)
    edges = [0.5 * 2.0**-53, 1.0 - 2.0**-54, 1.0 - 2.0**-53, e2, 1.0 - e2, e32, 1.0 - e32]
    y = np.array([v for e in edges for v in (np.nextafter(e, 0.0), e, np.nextafter(e, 1.0))]
                 + [0.0, 1.0, 0.5, 5e-324, 1e-300])
    got = noise._ndtri(y.copy())
    assert same_bits(got, ndtri(y))
    assert got[-5] == -math.inf and got[-4] == math.inf and got[-3] == 0.0


def test_gammaln_matches_scipy_on_integers():
    x = np.arange(-5.0, 1_000_001.0)
    assert same_bits(noise._gammaln(x), gammaln(x))
    big = np.floor(np.random.default_rng(3).uniform(0.0, 1e12, 100_000))
    # each side of the series' switches at 13, 1000 and 1e8
    big = np.concatenate([big, [12.0, 13.0, 999.0, 1000.0, 1e8, 1e8 + 1.0]])
    assert same_bits(noise._gammaln(big), gammaln(big))


def test_log_factorial_matches_scipy_in_and_beyond_its_table():
    k = np.arange(0.0, noise._LOG_FACTORIAL_TABLE)
    assert same_bits(noise._log_factorial(k), gammaln(k + 1.0))
    # one count past the table sends the whole array to the series
    k = np.arange(0.0, noise._LOG_FACTORIAL_TABLE + 50.0)
    assert same_bits(noise._log_factorial(k), gammaln(k + 1.0))
    assert noise._log_factorial(np.zeros(0)).size == 0


def ptrs_oracle(mean, keys, draw0):
    """The rejection sampler as first written: the log test and scipy's
    ``gammaln`` on every pending candidate, selected by boolean masks."""
    m = mean
    log_m = np.log(m)
    b = 0.931 + 2.53 * np.sqrt(m)
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    k = np.zeros(m.shape)
    draw = np.array(draw0, dtype=np.uint64, copy=True)
    pending = np.ones(m.shape, dtype=bool)
    while pending.any():
        u = noise._uniforms(keys[pending], draw[pending]) - 0.5
        v = noise._uniforms(keys[pending], draw[pending] + np.uint64(1))
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


def test_rejection_sampler_matches_scipy_gammaln_oracle():
    """Means from 10 to 1e7: table lookups, the series, and the tests the
    sampler now skips for candidates the quick test has accepted."""
    mean = np.geomspace(10.0, 1e7, 60_000)
    keys = noise._pixel_keys(9, 0, mean.size)
    draw0 = np.full(mean.size, 5, dtype=np.uint64)
    assert same_bits(noise._poisson_ptrs(mean, keys, draw0), ptrs_oracle(mean, keys, draw0))


# ---------------------------------------------------------------------------
# phantoms


def test_flat_phantom():
    u = make_phantom("flat", 16, 16)
    assert u.shape == (16, 16)
    assert np.all(u == 0.5)


def test_ramp_phantom():
    u = make_phantom("ramp", 10, 8)
    assert np.all(u[:, 0] == 0.0)
    assert np.all(u[:, -1] == 1.0)
    assert np.all(np.diff(u, axis=1) > 0)
    np.testing.assert_array_equal(u[0], u[-1])  # rows identical


def test_checker_phantom_two_values():
    u = make_phantom("checker", 8, 8)
    assert set(np.unique(u)) == {0.25, 0.8}
    # blocks alternate: top-left and the block right of it differ
    assert u[0, 0] != u[0, -1] or u[0, 0] != u[-1, 0]


def test_circles_phantom():
    u = make_phantom("circles", 64, 64)
    assert u.shape == (64, 64)
    assert u.min() >= 0.0 and u.max() <= 1.0
    assert len(np.unique(u)) >= 3  # background plus several disk levels
    assert u[0, 0] == 0.1  # corner is background


def meshgrid_circles(width, height):
    """The circles phantom on full ``meshgrid`` index arrays, the way it was
    first written; kept here as the byte oracle of the open-grid version."""
    u = np.full((height, width), 0.1)
    yy, xx = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
    scale = min(width, height)
    for cx, cy, r, value in [
        (0.32, 0.30, 0.23, 1.00),
        (0.70, 0.28, 0.14, 0.55),
        (0.30, 0.72, 0.16, 0.75),
        (0.68, 0.70, 0.17, 0.35),
        (0.52, 0.50, 0.08, 0.90),
    ]:
        u[(xx - cx * width) ** 2 + (yy - cy * height) ** 2 <= (r * scale) ** 2] = value
    return u


@pytest.mark.parametrize("width, height", [(8, 8), (64, 64), (257, 129), (33, 700), (1024, 1024)])
def test_circles_bytes_match_meshgrid_formula(width, height):
    got = make_phantom("circles", width, height)
    assert got.tobytes() == meshgrid_circles(width, height).tobytes()


def test_circles_memory(transient_peak):
    """The output, one float image for a disk test and its mask: no
    full-size index grids (with them the call held 5.1 images)."""
    u, peak = transient_peak(make_phantom, "circles", 512, 512)
    assert peak <= 2.5 * u.nbytes


def test_phantom_is_deterministic():
    np.testing.assert_array_equal(
        make_phantom("circles", 48, 40), make_phantom("circles", 48, 40)
    )


def test_phantom_rectangular():
    u = make_phantom("circles", 40, 24)
    assert u.shape == (24, 40)  # (height, width)


def test_phantom_validation():
    with pytest.raises(ValueError):
        make_phantom("circles", 7, 64)
    with pytest.raises(ValueError):
        make_phantom("flat", 64, 7)
    with pytest.raises(ValueError):
        make_phantom("swirl", 64, 64)
