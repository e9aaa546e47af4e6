"""Dual-projection TV-L2 solver and the vector shrinkage operator."""

import math

import numpy as np
import pytest

from mpgdenoise.chambolle import TAU, ChambolleConfig, soft_threshold, tv_l2_denoise, tv_l2_energy
from mpgdenoise.grid import DomainError, divergence, field_shape, gradient, magnitude


def tv1d_dp(g, weight, lo, hi, step):
    """Exact 1D TV-L2 minimizer by dynamic programming over a dense value grid.

    Independent oracle: discretizes each pixel's value on a uniform grid and
    solves the chain problem exactly with min-plus messages (the |x - y|
    message is two prefix-min sweeps), then backtracks.  Nothing here shares
    code with the dual-projection solver.
    """
    xs = np.arange(lo, hi + step / 2, step)
    hx = step * np.arange(xs.size)
    costs = []
    msg = np.zeros_like(xs)
    for gi in g:
        c = 0.5 * weight * (xs - gi) ** 2 + msg
        costs.append(c)
        fwd = np.minimum.accumulate(c - hx) + hx
        bwd = np.minimum.accumulate((c + hx)[::-1])[::-1] - hx
        msg = np.minimum(fwd, bwd)
    u = np.empty(len(g))
    j = int(np.argmin(costs[-1]))
    u[-1] = xs[j]
    for i in range(len(g) - 2, -1, -1):
        j = int(np.argmin(costs[i] + np.abs(xs - xs[j])))
        u[i] = xs[j]
    return u


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    for bad in (0, 2.5):
        with pytest.raises(ValueError, match="^inner_iters must be an integer >= 1$"):
            ChambolleConfig(inner_iters=bad)
    ChambolleConfig(inner_iters=1)
    ChambolleConfig(inner_iters=np.int32(2))  # numpy integers are integers


def test_weight_must_be_positive():
    with pytest.raises(DomainError):
        tv_l2_denoise(np.zeros((4, 4)), 0.0)
    with pytest.raises(DomainError):
        tv_l2_denoise(np.zeros((4, 4)), -2.0)


@pytest.mark.parametrize("weight", [math.inf, math.nan])
def test_weight_must_be_finite(weight):
    """An infinite weight is rejected up front, not run into a NaN ``u``."""
    with pytest.raises(DomainError, match="^fidelity weight must be finite and positive$"):
        tv_l2_denoise(np.ones((4, 4)), weight)


# ---------------------------------------------------------------------------
# tv_l2_denoise


def test_constant_input_is_fixed_point():
    g = np.full((5, 7), 0.42)
    u, q = tv_l2_denoise(g, 3.0, ChambolleConfig(inner_iters=25))
    np.testing.assert_array_equal(u, g)  # exactly, not approximately
    assert np.all(q == 0.0)


def test_huge_weight_returns_input():
    rng = np.random.default_rng(0)
    g = rng.uniform(0, 1, (8, 8))
    u, _ = tv_l2_denoise(g, 1e12, ChambolleConfig(inner_iters=50))
    assert np.max(np.abs(u - g)) <= 1e-6


def test_1x4_against_dp_oracle():
    """g=[0,0,1,1], weight 2: exact minimizer is [1/4, 1/4, 3/4, 3/4]."""
    g = np.array([0.0, 0.0, 1.0, 1.0])
    oracle = tv1d_dp(g, 2.0, -0.5, 1.5, 1e-5)
    np.testing.assert_allclose(oracle, [0.25, 0.25, 0.75, 0.75], atol=2e-5)
    u, _ = tv_l2_denoise(g.reshape(1, 4), 2.0, ChambolleConfig(inner_iters=500))
    assert np.max(np.abs(u.ravel() - oracle)) <= 1e-4


def test_random_1x6_against_dp_oracle():
    rng = np.random.default_rng(19)
    g = rng.uniform(-0.3, 1.3, 6)
    oracle = tv1d_dp(g, 3.5, -1.0, 2.0, 1e-5)
    u, _ = tv_l2_denoise(g.reshape(1, 6), 3.5, ChambolleConfig(inner_iters=3000))
    assert np.max(np.abs(u.ravel() - oracle)) <= 1e-4


def test_dual_always_feasible():
    """max |q_i| <= 1 + 1e-12 after every iteration."""
    rng = np.random.default_rng(4)
    g = rng.uniform(-1, 2, (12, 9))
    cfg = ChambolleConfig(inner_iters=1)
    dual = None
    for _ in range(60):
        _, dual = tv_l2_denoise(g, 0.8, cfg, dual=dual)
        assert magnitude(dual).max() <= 1.0 + 1e-12


def test_warm_start_composes_exactly():
    """Two warm-started 10-step calls equal one 20-step call, bitwise."""
    rng = np.random.default_rng(9)
    g = rng.uniform(0, 1, (10, 10))
    _, d1 = tv_l2_denoise(g, 2.5, ChambolleConfig(inner_iters=10))
    u2, d2 = tv_l2_denoise(g, 2.5, ChambolleConfig(inner_iters=10), dual=d1)
    u20, d20 = tv_l2_denoise(g, 2.5, ChambolleConfig(inner_iters=20))
    assert np.array_equal(u2, u20)
    assert np.array_equal(d2, d20)


def test_in_place_steps_write_the_callers_dual_with_the_same_bytes():
    """The dual passed in is the one updated and returned, and a warm-started
    run has the bytes of one fresh run of the same total depth."""
    rng = np.random.default_rng(12)
    g = rng.uniform(0, 1, (9, 8))
    _, warm = tv_l2_denoise(g, 2.5, ChambolleConfig(inner_iters=3))
    u, dual = tv_l2_denoise(g, 2.5, ChambolleConfig(inner_iters=4), dual=warm)
    assert dual is warm
    u_fresh, d_fresh = tv_l2_denoise(g, 2.5, ChambolleConfig(inner_iters=7))
    assert u.tobytes() == u_fresh.tobytes() and warm.tobytes() == d_fresh.tobytes()


def textbook_tv_l2(g, weight, steps, dual):
    """The update formula on fresh arrays, ``q <- (q + TAU t) / (1 + TAU |t|)``
    with ``t = grad(div q - weight g)``, then ``u = g - div q / weight``."""
    q = dual.copy()
    for _ in range(steps):
        t = gradient(divergence(q) - weight * g)
        q = (q + TAU * t) / (1.0 + TAU * magnitude(t))[..., None, :, :]
    return g - divergence(q) / weight, q


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
@pytest.mark.parametrize("stack", [None, 3])
@pytest.mark.parametrize("shape", [(1, 7), (7, 1), (2, 2), (3, 3), (64, 48)])
def test_steps_give_the_bytes_of_the_textbook_update(shape, stack, depth):
    """``TAU`` taken into ``z``, the divergence's views made once and its y
    differences written into ``m``: ``u`` and the dual keep the bytes of the
    formula, from a zero and from a warm dual."""
    rng = np.random.default_rng(sum(shape) + depth)
    shape = shape if stack is None else (stack, *shape)
    g = rng.uniform(-1.0, 2.0, shape)
    weight = float(rng.uniform(0.5, 8.0))
    cfg = ChambolleConfig(inner_iters=depth)
    warm = rng.normal(0.0, 0.5, field_shape(shape))
    warm /= np.maximum(magnitude(warm), 1.0)[..., None, :, :]
    for start in (np.zeros(field_shape(shape)), warm):
        u_ref, q_ref = textbook_tv_l2(g, weight, depth, start)
        u, q = tv_l2_denoise(g, weight, cfg, start.copy())
        assert u.tobytes() == u_ref.tobytes() and q.tobytes() == q_ref.tobytes()


@pytest.mark.parametrize("shape", [(9, 8), (3, 9, 8)])
def test_carried_divergence_gives_the_bytes_of_calls_without_it(shape):
    """Twenty warm-started calls on a moving ``g``, each handed the ``div``
    the previous one returned, give the ``u`` and dual bytes of twenty calls
    that take the divergence themselves, and ``div`` is always the dual's.
    The stack drops its middle image after the tenth call, from the dual and
    the carried image alike, as the solvers' ``_keep`` does."""
    rng = np.random.default_rng(31)
    base, drift = rng.uniform(0, 1, shape), rng.normal(0, 0.05, shape)
    cfg = ChambolleConfig(inner_iters=2)
    dual = div = ref = None
    for k in range(20):
        if k == 10 and len(shape) == 3:
            keep = [0, 2]
            base, drift, dual, div, ref = base[keep], drift[keep], dual[keep], div[keep], ref[keep]
        g = base + k * drift
        u, dual, div = tv_l2_denoise(g, 2.5, cfg, dual, div=div)
        u_ref, ref = tv_l2_denoise(g, 2.5, cfg, ref)
        assert u.tobytes() == u_ref.tobytes() and dual.tobytes() == ref.tobytes()
        assert div.tobytes() == divergence(dual).tobytes()


def test_carried_divergence_is_the_array_passed_in():
    g = np.random.default_rng(6).uniform(0, 1, (9, 8))
    cfg = ChambolleConfig(inner_iters=2)
    _, dual, div = tv_l2_denoise(g, 2.5, cfg, div=None)
    _, dual2, div2 = tv_l2_denoise(g, 2.5, cfg, dual, div=div)
    assert dual2 is dual and div2 is div


@pytest.mark.parametrize("dual, div, match", [
    (None, np.zeros((9, 8)), "div needs the dual"),
    (np.zeros((2, 9, 8)), np.zeros((8, 9)), "div must be a float64 array of shape"),
    (np.zeros((2, 9, 8)), np.zeros((9, 8), dtype=np.float32), "div must be a float64 array of shape"),
])
def test_div_that_cannot_be_carried_is_rejected(dual, div, match):
    g = np.random.default_rng(11).uniform(0, 1, (9, 8))
    with pytest.raises(ValueError, match=match):
        tv_l2_denoise(g, 2.5, ChambolleConfig(inner_iters=2), dual, div=div)


@pytest.mark.parametrize("dual", [
    np.zeros((2, 9, 8), dtype=np.float32),  # would be copied to float64
    np.zeros((2, 8, 9)),                    # another image's field
    np.zeros((9, 8)),                       # not a field at all
    [[[0.0] * 8] * 9] * 2,                  # right shape, but not an array
])
def test_dual_that_cannot_be_updated_in_place_is_rejected(dual):
    g = np.random.default_rng(11).uniform(0, 1, (9, 8))
    before = np.array(dual).tobytes()
    with pytest.raises(ValueError, match="dual must be a float64 array of shape"):
        tv_l2_denoise(g, 2.5, ChambolleConfig(inner_iters=2), dual=dual)
    assert np.array(dual).tobytes() == before


def test_in_place_steps_allocate_no_dual_copy(transient_peak):
    """The call holds its work arrays (weight*g, z and m one image each, t
    two) and the divergence's one-image temporary, and no copy of the
    (2, H, W) dual."""
    rng = np.random.default_rng(13)
    g = rng.uniform(0, 1, (256, 256))
    cfg = ChambolleConfig(inner_iters=2)
    _, warm = tv_l2_denoise(g, 2.5, cfg)
    (_, dual), peak = transient_peak(tv_l2_denoise, g, 2.5, cfg, warm)
    assert dual is warm
    assert peak <= 6.1 * g.nbytes


def test_full_tau_still_converges_to_the_minimizer():
    """At the full step 1/4 the long-run energy is no worse than after one step.

    At that step the primal energy is *not* a per-step Lyapunov function
    (rare small rises show up on random data; the dual objective is what the
    iteration actually descends), so descent is checked over the whole run;
    the KKT test below checks the minimizer itself.
    """
    rng = np.random.default_rng(22)
    g = rng.uniform(0, 1, (8, 8))
    u_full, _ = tv_l2_denoise(g, 4.0, ChambolleConfig(inner_iters=3000))
    e_long = tv_l2_energy(u_full, g, 4.0)
    u_one, _ = tv_l2_denoise(g, 4.0, ChambolleConfig(inner_iters=1))
    assert e_long <= tv_l2_energy(u_one, g, 4.0) + 1e-12


def test_kkt_residual_at_convergence():
    """Optimality: the dual anti-aligns with the gradient where it is nonzero.

    At the minimizer, q_i * |grad u_i| = -grad u_i pointwise (in particular
    |q_i| = 1 wherever grad u_i != 0); the residual of that relation is
    checked in the vector magnitude, max over pixels, after 5000 iterations.
    """
    rng = np.random.default_rng(23)
    g = rng.uniform(0, 1, (8, 8))
    u, q = tv_l2_denoise(g, 4.0, ChambolleConfig(inner_iters=5000))
    gu = gradient(u)
    residual = magnitude(q * magnitude(gu) + gu)
    assert residual.max() <= 1e-4


def test_energy_helper_hand_value():
    u = np.array([[0.0, 1.0]])
    g = np.array([[1.0, 1.0]])
    # (w/2)*1 + TV, TV = |1 - 0| = 1
    assert tv_l2_energy(u, g, 6.0) == pytest.approx(4.0, abs=1e-14)


# ---------------------------------------------------------------------------
# soft_threshold


def test_soft_threshold_hand_example():
    q = np.zeros((2, 1, 1))
    q[0, 0, 0], q[1, 0, 0] = 3.0, 4.0  # |q| = 5
    out = soft_threshold(q, 1.0)
    assert out[0, 0, 0] == pytest.approx(2.4, abs=1e-12)
    assert out[1, 0, 0] == pytest.approx(3.2, abs=1e-12)


def test_soft_threshold_below_threshold_is_zero():
    q = np.zeros((2, 1, 1))
    q[0, 0, 0], q[1, 0, 0] = 0.3, 0.4  # |q| = 0.5 <= 1
    assert np.all(soft_threshold(q, 1.0) == 0.0)


def test_soft_threshold_zero_vector_stays_zero():
    assert np.all(soft_threshold(np.zeros((2, 3, 3)), 0.7) == 0.0)


def test_soft_threshold_vanishing_eta_is_identity():
    rng = np.random.default_rng(31)
    q = rng.standard_normal((2, 5, 5))
    np.testing.assert_array_equal(soft_threshold(q, 0.0), q)
    np.testing.assert_allclose(soft_threshold(q, 1e-15), q, atol=1e-14)


def test_soft_threshold_preserves_direction():
    rng = np.random.default_rng(32)
    q = rng.standard_normal((2, 6, 6)) * 3.0
    out = soft_threshold(q, 0.5)
    mag_q = magnitude(q)
    mag_o = magnitude(out)
    cross = q[0] * out[1] - q[1] * out[0]  # parallel => zero cross product
    assert np.max(np.abs(cross)) <= 1e-12
    assert np.all(mag_o <= mag_q + 1e-15)


def test_soft_threshold_nonexpansive():
    rng = np.random.default_rng(33)
    for _ in range(25):
        p = rng.standard_normal((2, 7, 4)) * rng.uniform(0.1, 5)
        r = rng.standard_normal((2, 7, 4)) * rng.uniform(0.1, 5)
        eta = rng.uniform(0.01, 2.0)
        lhs = np.sqrt(np.sum((soft_threshold(p, eta) - soft_threshold(r, eta)) ** 2))
        rhs = np.sqrt(np.sum((p - r) ** 2))
        assert lhs <= rhs * (1.0 + 1e-12)


@pytest.mark.parametrize("eta", [-0.1, float("nan")])
def test_soft_threshold_negative_eta_rejected(eta):
    with pytest.raises(DomainError):
        soft_threshold(np.zeros((2, 2, 2)), eta)
