"""SNR, SSIM, and the model objective."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.signal import convolve2d

from mpgdenoise.grid import DomainError, ShapeMismatchError, total_variation
from mpgdenoise import metrics
from mpgdenoise.metrics import SNR_CAP_DB, objective_H, snr, ssim


# ---------------------------------------------------------------------------
# snr


def test_snr_two_to_one():
    """u = 2*ones, truth = ones: -10 log10(n/4n) ~= 6.0206 dB."""
    u = np.full((5, 3), 2.0)
    truth = np.ones((5, 3))
    assert snr(u, truth) == pytest.approx(-10.0 * math.log10(0.25), abs=1e-9)


def test_snr_exact_match_is_capped():
    u = np.random.default_rng(0).uniform(0.1, 1, (6, 6))
    assert snr(u, u.copy()) == SNR_CAP_DB


def test_snr_cap_applies_to_near_matches():
    truth = np.ones((4, 4))
    u = truth + 1e-200
    assert snr(u, truth) == SNR_CAP_DB


def test_snr_zero_reconstruction_rejected():
    with pytest.raises(DomainError):
        snr(np.zeros((3, 3)), np.ones((3, 3)))


def test_snr_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        snr(np.ones((3, 3)), np.ones((3, 4)))


def test_snr_scale_invariant():
    rng = np.random.default_rng(1)
    u = rng.uniform(0.1, 1, (7, 7))
    t = rng.uniform(0.1, 1, (7, 7))
    base = snr(u, t)
    for a in (0.25, 3.0, 1e4):
        assert snr(a * u, a * t) == pytest.approx(base, abs=1e-9)


def test_snr_denominator_is_reconstruction_energy():
    # asymmetric by construction: swapping the arguments changes the value
    u = np.full((4, 4), 2.0)
    t = np.full((4, 4), 1.0)
    assert snr(u, t) != pytest.approx(snr(t, u), abs=1e-6)
    assert snr(t, u) == pytest.approx(0.0, abs=1e-12)  # err = n, energy = n


# ---------------------------------------------------------------------------
# ssim


def test_ssim_identical_is_one():
    rng = np.random.default_rng(2)
    x = rng.uniform(0, 1, (16, 16))
    assert ssim(x, x.copy()) == pytest.approx(1.0, abs=1e-12)


def test_ssim_symmetric():
    rng = np.random.default_rng(3)
    a = rng.uniform(0, 1, (20, 14))
    b = rng.uniform(0, 1, (20, 14))
    assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-12)


def test_ssim_range_and_degradation():
    rng = np.random.default_rng(4)
    x = rng.uniform(0, 1, (24, 24))
    noisy = x + rng.normal(0, 0.2, x.shape)
    val = ssim(x, noisy)
    assert -1.0 <= val <= 1.0
    assert val < 1.0


def test_ssim_anticorrelated_checker():
    ii, jj = np.meshgrid(np.arange(32), np.arange(32), indexing="ij")
    x = ((ii // 4 + jj // 4) % 2).astype(float)
    assert ssim(x, 1.0 - x) < 0.1


def test_ssim_window_larger_than_image():
    for shape in ((10, 10), (10, 40), (40, 10)):
        with pytest.raises(ValueError, match="smaller than the 11x11 window"):
            ssim(np.zeros(shape), np.zeros(shape))
    assert ssim(np.zeros((11, 11)), np.zeros((11, 11))) == 1.0


def test_ssim_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        ssim(np.zeros((12, 12)), np.zeros((12, 13)))


def test_ssim_needs_2d_images():
    with pytest.raises(ValueError):
        ssim(np.zeros((3, 12, 12)), np.zeros((3, 12, 12)))


def _gaussian_kernel_2d(window):
    """The 2-D Gaussian window of standard deviation 1.5, normalized."""
    x = np.arange(window) - (window - 1) / 2.0
    g = np.exp(-(x**2) / (2.0 * 1.5**2))
    return np.outer(g, g) / np.outer(g, g).sum()


def _ssim_2d_oracle(a, b):
    """SSIM (11x11 window, K1 0.01, K2 0.03, L 1) with the 2-D Gaussian
    window applied as one 2-D convolution."""
    kern = _gaussian_kernel_2d(11)

    def smooth(z):
        return convolve2d(z, kern, mode="valid")

    mu_a, mu_b = smooth(a), smooth(b)
    var_a = smooth(a * a) - mu_a**2
    var_b = smooth(b * b) - mu_b**2
    cov = smooth(a * b) - mu_a * mu_b
    c1, c2 = 0.01**2, 0.03**2
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


@pytest.mark.parametrize("window", [3, 7, 11])
@pytest.mark.parametrize("shape", [(11, 11), (11, 40), (33, 17), (64, 64)])
def test_ssim_matches_2d_convolution(window, shape):
    """The separable smoothing equals one 2-D convolution with the Gaussian
    window of any odd size, images the window size included; at the SSIM
    window, 11, the whole index matches the 2-D oracle."""
    rng = np.random.default_rng(window * 1000 + shape[0] * 50 + shape[1])
    g, kern = metrics._gaussian_window(window), _gaussian_kernel_2d(window)
    for z in (rng.uniform(0, 1, shape), rng.uniform(0, 1, (window, window))):
        np.testing.assert_allclose(metrics._smooth(z, g), convolve2d(z, kern, mode="valid"), rtol=0, atol=1e-14)
    if window != metrics.SSIM_WINDOW:
        return
    for _ in range(3):
        a = rng.uniform(0, 1, shape)
        b = np.clip(a + rng.normal(0, 0.3, shape), 0, 1)
        assert abs(ssim(a, b) - _ssim_2d_oracle(a, b)) <= 1e-12
        c = rng.uniform(0, 1, shape)
        assert abs(ssim(a, c) - _ssim_2d_oracle(a, c)) <= 1e-12
    edge = (window, window)
    a, b = rng.uniform(0, 1, edge), rng.uniform(0, 1, edge)
    assert abs(ssim(a, b) - _ssim_2d_oracle(a, b)) <= 1e-12


# ---------------------------------------------------------------------------
# objective_H


CFG = SimpleNamespace(lambda1=3.0, lambda2=1.5, epsilon=1e-6)


def test_objective_zero_on_constant():
    c = np.full((6, 6), 0.37)
    assert objective_H(c, c, c, CFG) == pytest.approx(0.0, abs=1e-12)


def test_objective_reduces_to_tv_when_lambda2_vanishes():
    rng = np.random.default_rng(5)
    u = rng.uniform(0.1, 1, (8, 8))
    f = rng.uniform(0.1, 1, (8, 8))
    cfg = SimpleNamespace(lambda1=2.0, lambda2=0.0, epsilon=1e-6)
    assert objective_H(u, f.copy(), f, cfg) == pytest.approx(total_variation(u), abs=1e-12)


def test_objective_infeasible_v_is_inf():
    u = np.full((4, 4), 0.5)
    v = np.full((4, 4), 0.5)
    v[1, 1] = 1e-9  # below epsilon
    assert objective_H(u, v, u, CFG) == math.inf


def test_objective_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        objective_H(np.ones((3, 3)), np.ones((3, 3)), np.ones((4, 3)), CFG)


def test_objective_against_per_pixel_resummation():
    """Independent evaluation: plain python loops over pixels."""
    rng = np.random.default_rng(6)
    u = rng.uniform(0.05, 1.5, (5, 4))
    v = rng.uniform(0.05, 1.5, (5, 4))
    f = rng.uniform(-0.2, 1.2, (5, 4))
    expected = 0.0
    for i in range(5):
        for j in range(4):
            expected += 0.5 * CFG.lambda1 * (f[i, j] - v[i, j]) ** 2
            expected += CFG.lambda2 * (
                u[i, j] - v[i, j] * math.log(u[i, j] / v[i, j]) - v[i, j]
            )
    for i in range(5):
        for j in range(4):
            dx = u[i, j + 1] - u[i, j] if j < 3 else 0.0
            dy = u[i + 1, j] - u[i, j] if i < 4 else 0.0
            expected += math.hypot(dx, dy)
    assert objective_H(u, v, f, CFG) == pytest.approx(expected, rel=1e-12)


def test_objective_monotone_in_tv():
    """With lambda2 = 0 and v = f fixed, rougher u never scores lower."""
    rng = np.random.default_rng(7)
    cfg = SimpleNamespace(lambda1=1.0, lambda2=0.0, epsilon=1e-6)
    f = rng.uniform(0.2, 0.8, (10, 10))
    for _ in range(20):
        u = rng.uniform(0.2, 0.8, (10, 10))
        rough = u + rng.normal(0, 0.1, u.shape)
        if total_variation(rough) > total_variation(u):
            assert objective_H(rough, f.copy(), f, cfg) >= objective_H(u, f.copy(), f, cfg)
