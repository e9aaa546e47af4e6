"""Tests for the ADMM solvers.

The pointwise subproblem updates (v, w, p, z) all have closed forms; each is
checked against a dense grid search over its own per-pixel objective, so a
sign error or a dropped term in the closed form cannot hide.  The image
updates are checked against long-run reference solves and against the linear
system they claim to solve.
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import mpgdenoise.chambolle
import mpgdenoise.grid
import mpgdenoise.solvers as solvers
from mpgdenoise.chambolle import ChambolleConfig, tv_l2_denoise
from mpgdenoise.grid import DomainError, gradient, laplacian, ln, magnitude
from mpgdenoise.methods import METHODS, run_method
from mpgdenoise.metrics import snr
from mpgdenoise.noise import NoiseSpec, corrupt, make_phantom
from mpgdenoise.solvers import (
    SolverConfig,
    SolverState,
    TraceRecord,
    alpha_lower_bound,
    bca_init,
    bca_multiplier_step,
    bca_solve,
    bca_u_step,
    bca_v_step,
    bca_w_step,
    bcaf_init,
    bcaf_p_step,
    bcaf_solve,
    bcaf_u_step,
    kl_z_update,
    tv_kl_solve,
    tv_l2_solve,
)


def make_state(f, v, w, lam_w, iters=1):
    """Hand-built bilinear-solver state (dual field zeroed)."""
    f = np.asarray(f, dtype=np.float64)
    return SolverState(
        u=f.copy(),
        v=np.asarray(v, dtype=np.float64),
        w=np.asarray(w, dtype=np.float64),
        lam_w=np.asarray(lam_w, dtype=np.float64),
        dual=np.zeros((2,) + f.shape),
        iters=iters,
    )


# ---------------------------------------------------------------------------
# configuration and the penalty bound


def test_config_rejects_nonpositive_parameters():
    base = dict(lambda1=1.0, lambda2=1.0, alpha=1.0, alpha_w=1.0,
                alpha_p=1.0, epsilon=1e-6, xi=1e-4)
    SolverConfig(**base)  # sanity: the base set is legal
    for name in base:
        for bad in (0.0, -1.0):
            kw = dict(base)
            kw[name] = bad
            with pytest.raises(ValueError):
                SolverConfig(**kw)
    with pytest.raises(ValueError):
        SolverConfig(lambda1=1.0, lambda2=1.0, max_iters=0)


def test_alpha_lower_bound_hand_values():
    # epsilon large enough that the (1/c - 1)^2 branch dominates
    assert alpha_lower_bound(2.0, 0.5, 10.0) == 2.0
    # and the other way around: sqrt(2)*lambda2 / (c^2 eps) wins
    got = alpha_lower_bound(2.0, 0.5, 1e-2)
    assert np.isclose(got, 800.0 * np.sqrt(2.0), rtol=1e-12)
    with pytest.raises(ValueError):
        alpha_lower_bound(2.0, 0.0, 1e-2)
    with pytest.raises(ValueError):
        alpha_lower_bound(2.0, -0.3, 1e-2)


# ---------------------------------------------------------------------------
# initial states


def test_bca_init_copies_observation():
    f = np.arange(12.0).reshape(3, 4) / 11.0
    st = bca_init(f)
    assert np.array_equal(st.u, f) and np.array_equal(st.v, f)
    assert np.all(st.w == 1.0)
    assert np.all(st.lam_w == 0.0)
    assert st.dual.shape == (2, 3, 4) and np.all(st.dual == 0.0)
    assert st.iters == 0
    f[0, 0] = 99.0  # the state must own its arrays
    assert st.u[0, 0] != 99.0


def test_bcaf_init_has_gradient_split_fields():
    f = np.ones((4, 5)) * 0.3
    st = bcaf_init(f)
    assert st.p.shape == (2, 4, 5) and np.all(st.p == 0.0)
    assert st.lam_p.shape == (2, 4, 5) and np.all(st.lam_p == 0.0)
    assert st.dual is None


# ---------------------------------------------------------------------------
# image update (TV proximal step)


def test_u_step_constant_target_is_fixed_point():
    """With lam_w = lambda2 the target collapses to v.*w; constants are TV fixed points."""
    cfg = SolverConfig(lambda1=8.0, lambda2=2.5, alpha=200.0)
    f = np.full((6, 7), 0.4)
    st = make_state(f, v=np.full((6, 7), 0.4), w=np.ones((6, 7)),
                    lam_w=np.full((6, 7), cfg.lambda2))
    u = bca_u_step(st, f, cfg)
    assert np.array_equal(u, f)
    assert np.all(st.dual == 0.0)  # nothing for the dual field to do


def test_u_step_matches_long_dual_projection():
    """Ten warm-started inner iterations land close to a 5000-iteration solve."""
    rng = np.random.default_rng(8)
    f = rng.random((16, 16))
    st = bca_init(f)
    st.v = rng.uniform(0.1, 1.0, f.shape)
    st.w = rng.uniform(0.5, 1.5, f.shape)
    st.lam_w = rng.normal(size=f.shape)
    cfg = SolverConfig(lambda1=8.0, lambda2=2.5, alpha=200.0,
                       chambolle=ChambolleConfig(inner_iters=10))
    u = bca_u_step(st, f, cfg)
    target = st.v * st.w + st.lam_w / cfg.alpha - cfg.lambda2 / cfg.alpha
    ref, _ = tv_l2_denoise(target, cfg.alpha, ChambolleConfig(inner_iters=5000))
    assert np.linalg.norm(u - ref) / np.linalg.norm(ref) < 2e-3


def test_u_step_vanishing_poisson_weight_reduces_to_plain_tv():
    # with lambda2 ~ 0 and zero multiplier the step IS TV-L2 denoising of v.*w
    rng = np.random.default_rng(8)
    f = rng.random((16, 16))
    st = bca_init(f)
    st.v = rng.uniform(0.1, 1.0, f.shape)
    st.w = rng.uniform(0.5, 1.5, f.shape)
    cfg = SolverConfig(lambda1=8.0, lambda2=1e-300, alpha=200.0,
                       chambolle=ChambolleConfig(inner_iters=40))
    u = bca_u_step(st, f, cfg)
    plain, _ = tv_l2_denoise(st.v * st.w, 200.0, ChambolleConfig(inner_iters=40))
    assert np.array_equal(u, plain)


def test_u_step_persists_feasible_dual_field():
    rng = np.random.default_rng(14)
    f = rng.random((9, 9))
    st = bca_init(f)
    st.v = rng.uniform(0.2, 1.0, f.shape)
    st.w = rng.uniform(0.5, 1.5, f.shape)
    cfg = SolverConfig(lambda1=8.0, lambda2=2.5, alpha=50.0)
    bca_u_step(st, f, cfg)
    assert np.any(st.dual != 0.0)  # warm start material for the next call
    assert float(np.max(magnitude(st.dual))) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# v update


def test_v_step_identity_weights_returns_observation():
    cfg = SolverConfig(lambda1=4.0, lambda2=1.5, alpha=5.0, epsilon=1e-6)
    f = np.array([[0.7, 0.2], [1e-9, 0.5]])
    st = make_state(f, v=f, w=np.ones_like(f), lam_w=np.full_like(f, cfg.lambda2))
    v = bca_v_step(st, f, cfg)
    # w = 1 and u = f make the stationary point exactly f, floored at epsilon
    assert np.allclose(v, np.maximum(cfg.epsilon, f), rtol=0.0, atol=1e-14)
    assert v[1, 0] == cfg.epsilon


def test_v_step_first_iteration_uses_full_numerator():
    cfg = SolverConfig(lambda1=4.0, lambda2=1.5, alpha=5.0)
    f = np.full((3, 3), 0.6)
    st = make_state(f, v=f, w=np.ones_like(f), lam_w=np.zeros_like(f), iters=0)
    v = bca_v_step(st, f, cfg)
    # zero multiplier, w = 1: numerator gains the +lambda2 correction
    expected = 0.6 + cfg.lambda2 / (cfg.lambda1 + cfg.alpha)
    assert np.allclose(v, expected, rtol=1e-14)
    st.iters = 1  # after the first multiplier update the correction is gone
    assert not np.allclose(bca_v_step(st, f, cfg), expected, rtol=0.0, atol=1e-6)


def test_v_step_floor_engages():
    cfg = SolverConfig(lambda1=4.0, lambda2=1.5, alpha=5.0, epsilon=1e-3)
    z = np.zeros((2, 2))
    st = make_state(z, v=np.ones_like(z), w=np.ones_like(z),
                    lam_w=np.full_like(z, cfg.lambda2))
    st.u = z
    v = bca_v_step(st, z, cfg)
    assert np.all(v == cfg.epsilon)


def _v_objective(vg, f, u, w, lam_w, cfg):
    # per-pixel Lagrangian terms that involve v (constants in v dropped)
    return (
        0.5 * cfg.lambda1 * (f - vg) ** 2
        - cfg.lambda2 * (vg * np.log(w) + vg)
        + lam_w * vg * w
        + 0.5 * cfg.alpha * (vg * w - u) ** 2
    )


def _v_grid_check(st, f, cfg, tol):
    v = bca_v_step(st, f, cfg)
    grid = np.arange(cfg.epsilon, 3.0, 1e-5)
    for i in range(f.shape[0]):
        for j in range(f.shape[1]):
            vals = _v_objective(grid, f[i, j], st.u[i, j], st.w[i, j],
                                st.lam_w[i, j], cfg)
            k = int(np.argmin(vals))
            assert 0 < k < grid.size - 1  # optimum interior to the grid
            assert abs(v[i, j] - grid[k]) < tol


def test_v_step_matches_grid_search_first_iteration():
    """Closed form vs. dense search of the per-pixel objective, iteration-1 path."""
    rng = np.random.default_rng(55)
    cfg = SolverConfig(lambda1=4.0, lambda2=1.5, alpha=5.0)
    f = rng.uniform(0.0, 1.0, (4, 4))
    st = make_state(f, v=f, w=rng.uniform(0.2, 2.5, f.shape),
                    lam_w=rng.uniform(-1.0, 1.0, f.shape), iters=0)
    st.u = rng.uniform(0.0, 1.5, f.shape)
    _v_grid_check(st, f, cfg, tol=1e-4)


def test_v_step_matches_grid_search_steady_state():
    """Same check on the simplified path, where lam_w .* w = lambda2 holds."""
    rng = np.random.default_rng(55)
    cfg = SolverConfig(lambda1=4.0, lambda2=1.5, alpha=5.0)
    f = rng.uniform(0.0, 1.0, (4, 4))
    w = rng.uniform(0.2, 2.5, f.shape)
    st = make_state(f, v=f, w=w, lam_w=cfg.lambda2 / w, iters=3)
    st.u = rng.uniform(0.0, 1.5, f.shape)
    _v_grid_check(st, f, cfg, tol=1e-4)


def test_v_step_rejects_nonpositive_w():
    cfg = SolverConfig(lambda1=4.0, lambda2=1.5, alpha=5.0)
    f = np.full((2, 2), 0.5)
    st = make_state(f, v=f, w=np.array([[1.0, 0.0], [1.0, 1.0]]),
                    lam_w=np.zeros_like(f))
    with pytest.raises(DomainError):
        bca_v_step(st, f, cfg)


# ---------------------------------------------------------------------------
# w update


def test_w_step_hand_values():
    cfg = SolverConfig(lambda1=1.0, lambda2=2.5, alpha=40.0)
    z = np.zeros((2, 3))
    st = make_state(z, v=np.ones_like(z), w=np.ones_like(z), lam_w=np.zeros_like(z))
    st.u = z
    # u = 0, lam = 0, v = 1: the quadratic is alpha w^2 = lambda2
    w = bca_w_step(st, cfg)
    assert np.allclose(w, np.sqrt(cfg.lambda2 / cfg.alpha), rtol=1e-14)
    cfg2 = SolverConfig(lambda1=1.0, lambda2=40.0, alpha=40.0)
    assert np.allclose(bca_w_step(st, cfg2), 1.0, rtol=1e-14)


def test_w_step_solves_its_quadratic():
    rng = np.random.default_rng(9)
    cfg = SolverConfig(lambda1=1.0, lambda2=1.5, alpha=5.0)
    for _ in range(20):
        shape = (3, 3)
        st = make_state(np.zeros(shape), v=rng.uniform(0.05, 2.0, shape),
                        w=np.ones(shape), lam_w=rng.normal(size=shape))
        st.u = rng.uniform(-0.5, 1.5, shape)
        w = bca_w_step(st, cfg)
        assert np.all(w > 0.0)
        resid = cfg.alpha * st.v * w * w + (st.lam_w - cfg.alpha * st.u) * w - cfg.lambda2
        assert np.max(np.abs(resid)) < 1e-10 * cfg.lambda2


def test_w_step_stable_for_strongly_negative_target():
    """The naive root formula cancels to zero here; the branched one must not."""
    cfg = SolverConfig(lambda1=1.0, lambda2=2.5, alpha=200.0)
    z = np.zeros((2, 2))
    st = make_state(z, v=np.ones_like(z), w=np.ones_like(z), lam_w=np.zeros_like(z))
    st.u = np.full_like(z, -1e8)
    w = bca_w_step(st, cfg)
    assert np.all(w > 0.0)
    resid = cfg.alpha * st.v * w * w + (st.lam_w - cfg.alpha * st.u) * w - cfg.lambda2
    assert np.max(np.abs(resid)) < 1e-8 * cfg.lambda2


def test_w_step_matches_grid_search():
    """Closed form vs. two-stage dense search of -lambda2 v log w + (alpha/2)(vw + lam/alpha - u)^2."""
    rng = np.random.default_rng(12)
    cfg = SolverConfig(lambda1=1.0, lambda2=1.5, alpha=5.0)
    shape = (4, 4)
    st = make_state(np.zeros(shape), v=rng.uniform(0.2, 1.5, shape),
                    w=np.ones(shape), lam_w=rng.uniform(-1.0, 1.0, shape))
    st.u = rng.uniform(0.0, 1.2, shape)
    w = bca_w_step(st, cfg)
    coarse = np.arange(1e-4, 20.0, 1e-3)
    for i in range(shape[0]):
        for j in range(shape[1]):
            def phi(wg):
                return (-cfg.lambda2 * st.v[i, j] * np.log(wg)
                        + 0.5 * cfg.alpha
                        * (st.v[i, j] * wg + st.lam_w[i, j] / cfg.alpha - st.u[i, j]) ** 2)
            k = int(np.argmin(phi(coarse)))
            assert 0 < k < coarse.size - 1
            fine = np.arange(max(1e-6, coarse[k] - 2e-3), coarse[k] + 2e-3, 1e-7)
            best = fine[int(np.argmin(phi(fine)))]
            assert abs(w[i, j] - best) < 1e-4


def masked_w_update(u, v, lam_w, lambda2, alpha):
    """Reference w update: each root formula evaluated only where the sign of
    ``x = u - lam_w/alpha`` picks it, through masked ufunc calls."""
    x = lam_w / alpha
    np.subtract(u, x, out=x)
    root = 4.0 * lambda2 * v / alpha
    root += np.square(x)
    np.sqrt(root, out=root)
    pos = x >= 0.0
    neg = ~pos
    w = np.empty_like(x)
    np.add(x, root, out=w, where=pos)
    np.divide(w, 2.0 * v, out=w, where=pos)
    np.subtract(root, x, out=root, where=neg)
    np.divide(2.0 * lambda2 / alpha, root, out=w, where=neg)
    return w


def _w_step_bytes_match_masked(u, v, lam_w, lambda2, alpha):
    cfg = SolverConfig(lambda1=1.0, lambda2=lambda2, alpha=alpha)
    st = make_state(np.zeros_like(u), v=v, w=np.ones_like(u), lam_w=lam_w)
    st.u = u
    got = bca_w_step(st, cfg)
    want = masked_w_update(u, v, lam_w, lambda2, alpha)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("alpha", [1e-3, 1e-1, 1.0, 200.0, 1e4, 1e6])
@pytest.mark.parametrize("lambda2", [1e-3, 2.5, 1e3])
def test_w_step_bytes_match_masked_formula(alpha, lambda2):
    """x = +0.0 and -0.0 (u = +-0.0, lam_w = +-0.0), |x| far above and far
    below the root, v at the floor: the one-array form gives the bytes of
    the masked one."""
    xs = np.array([0.0, -0.0, 1e-12, -1e-12, 0.5, -0.5, 1e8, -1e8, 1e150, -1e150])
    vs = np.array([1e-6, 1.0, 1e6])
    u, v = (a.ravel() for a in np.meshgrid(xs, vs, indexing="ij"))
    for lam_w in (np.zeros_like(u), np.full_like(u, -0.0)):
        _w_step_bytes_match_masked(u.reshape(5, -1), v.reshape(5, -1), lam_w.reshape(5, -1),
                                   lambda2, alpha)


@given(
    data=hst.lists(
        hst.tuples(hst.floats(-1e6, 1e6), hst.floats(1e-6, 1e6), hst.floats(-1e6, 1e6)),
        min_size=1,
        max_size=12,
    ),
    lambda2=hst.floats(1e-3, 1e3),
    alpha=hst.floats(1e-3, 1e6),
)
@settings(max_examples=200, deadline=None)
def test_w_step_bytes_match_masked_formula_property(data, lambda2, alpha):
    u, v, lam_w = (np.array(col).reshape(1, -1) for col in zip(*data))
    _w_step_bytes_match_masked(u, v, lam_w, lambda2, alpha)


def test_w_step_rejects_infeasible_v():
    cfg = SolverConfig(lambda1=1.0, lambda2=1.5, alpha=5.0, epsilon=1e-3)
    z = np.zeros((2, 2))
    st = make_state(z, v=np.full_like(z, 1e-4), w=np.ones_like(z), lam_w=z)
    with pytest.raises(DomainError):
        bca_w_step(st, cfg)


# ---------------------------------------------------------------------------
# multiplier and the lam_w .* w identity


def test_multiplier_fixed_when_constraint_met():
    cfg = SolverConfig(lambda1=1.0, lambda2=1.5, alpha=5.0)
    rng = np.random.default_rng(4)
    v = rng.uniform(0.1, 1.0, (3, 4))
    w = rng.uniform(0.5, 1.5, (3, 4))
    st = make_state(v * w, v=v, w=w, lam_w=rng.normal(size=(3, 4)))
    st.u = v * w
    assert np.array_equal(bca_multiplier_step(st, cfg), st.lam_w)


def test_multiplier_identity_and_positivity_along_iterations():
    """After every multiplier update, lam_w .* w = lambda2 exactly; v and w stay feasible."""
    rng = np.random.default_rng(33)
    f = rng.uniform(0.1, 1.1, (8, 8))
    cfg = SolverConfig(lambda1=6.0, lambda2=2.0, alpha=150.0)
    st = bca_init(f)
    for k in range(1, 26):
        st.u = bca_u_step(st, f, cfg)
        st.v = bca_v_step(st, f, cfg)
        st.w = bca_w_step(st, cfg)
        st.lam_w = bca_multiplier_step(st, cfg)
        st.iters = k
        assert np.min(st.v) >= cfg.epsilon
        assert np.min(st.w) > 0.0
        assert np.max(np.abs(st.lam_w * st.w - cfg.lambda2)) < 1e-10 * cfg.lambda2


# ---------------------------------------------------------------------------
# flux-split pieces


def test_flux_u_step_solves_normal_equations():
    rng = np.random.default_rng(3)
    f = rng.random((9, 7))
    st = bcaf_init(f)
    st.v = rng.uniform(0.1, 1.0, f.shape)
    st.w = rng.uniform(0.5, 1.5, f.shape)
    st.lam_w = rng.normal(size=f.shape)
    st.p = rng.normal(size=(2,) + f.shape)
    st.lam_p = rng.normal(size=(2,) + f.shape)
    cfg = SolverConfig(lambda1=8.0, lambda2=2.5, alpha_w=200.0, alpha_p=10.0)
    u = bcaf_u_step(st, f, cfg)
    from mpgdenoise.grid import divergence
    rhs = (-cfg.lambda2 + st.lam_w - divergence(st.lam_p)
           + cfg.alpha_w * st.v * st.w - cfg.alpha_p * divergence(st.p))
    resid = cfg.alpha_w * u - cfg.alpha_p * laplacian(u) - rhs
    assert np.linalg.norm(resid) < 1e-12 * np.linalg.norm(rhs)


def test_flux_p_step_matches_grid_search():
    """Vector shrinkage vs. dense 2-d search of |p| + (alpha_p/2)|p - z|^2 per pixel."""
    rng = np.random.default_rng(21)
    f = rng.random((3, 4))
    st = bcaf_init(f)
    st.u = rng.random(f.shape)
    st.lam_p = 0.5 * rng.normal(size=(2,) + f.shape)
    cfg = SolverConfig(lambda1=1.0, lambda2=1.0, alpha_p=7.0)
    p = bcaf_p_step(st, cfg)
    z = gradient(st.u) - st.lam_p / cfg.alpha_p
    assert np.array_equal(bcaf_p_step(st, cfg, gradient(st.u)), p)

    def search(z0, z1, lo0, hi0, lo1, hi1, n):
        px = np.linspace(lo0, hi0, n)
        py = np.linspace(lo1, hi1, n)
        gx, gy = np.meshgrid(px, py, indexing="ij")
        obj = np.hypot(gx, gy) + 0.5 * cfg.alpha_p * ((gx - z0) ** 2 + (gy - z1) ** 2)
        a, b = np.unravel_index(np.argmin(obj), obj.shape)
        return px[a], py[b], (hi0 - lo0) / (n - 1)

    for i in range(f.shape[0]):
        for j in range(f.shape[1]):
            z0, z1 = z[0, i, j], z[1, i, j]
            r = float(np.hypot(z0, z1)) + 0.3
            b0, b1, h = search(z0, z1, z0 - r, z0 + r, z1 - r, z1 + r, 401)
            b0, b1, _ = search(z0, z1, b0 - 2 * h, b0 + 2 * h, b1 - 2 * h, b1 + 2 * h, 801)
            assert abs(p[0, i, j] - b0) < 1e-3
            assert abs(p[1, i, j] - b1) < 1e-3


# ---------------------------------------------------------------------------
# the z update of the Poisson baseline


def test_kl_z_update_matches_grid_search():
    """Quadratic-root closed form vs. dense search, zero-count pixels included."""
    rng = np.random.default_rng(7)
    lam, rho = 2.0, 6.0
    n = 200
    u = rng.uniform(-0.5, 2.0, n)
    mu = rng.uniform(-2.0, 2.0, n)
    f = rng.uniform(0.0, 3.0, n)
    f[::4] = 0.0
    z = kl_z_update(u, mu, f, lam, rho)
    for i in range(n):
        lo = 1e-4 if f[i] > 0.0 else 0.0
        coarse = np.arange(lo, 5.0, 1e-3)

        def phi(zg):
            with np.errstate(divide="ignore", invalid="ignore"):
                pois = np.where(f[i] > 0.0, zg - f[i] * np.log(zg), zg)
            return lam * pois + mu[i] * (zg - u[i]) + 0.5 * rho * (zg - u[i]) ** 2

        k = int(np.argmin(phi(coarse)))
        assert k < coarse.size - 1
        fine = np.arange(max(lo, coarse[k] - 2e-3), coarse[k] + 2e-3, 1e-7)
        best = fine[int(np.argmin(phi(fine)))]
        assert abs(z[i] - best) < 1e-4


def test_kl_z_update_zero_count_is_clipped_linear():
    # f = 0 kills the log term; the root degenerates to max(0, u - mu/rho - lam/rho)
    u = np.array([2.0, 0.1, -1.0])
    mu = np.array([0.0, 3.0, 0.0])
    z = kl_z_update(u, mu, np.zeros(3), 2.0, 6.0)
    assert np.allclose(z, np.maximum(0.0, u - mu / 6.0 - 2.0 / 6.0), atol=1e-15)
    assert z[1] == 0.0 and z[2] == 0.0


# ---------------------------------------------------------------------------
# trace diagnostics against the textbook formulas


def textbook_grad(u):
    d = np.zeros((2,) + u.shape)
    d[0, :, :-1] = np.diff(u, axis=1)
    d[1, :-1, :] = np.diff(u, axis=0)
    return d


def textbook_diagnostics(state, f, cfg):
    """objective_H, the augmented Lagrangian, min w, the identity residual and
    the relative constraint residual, each written out from its definition."""
    u, v, w = state.u, state.v, state.w
    gauss = 0.5 * cfg.lambda1 * np.sum((f - v) ** 2)
    grad_u = textbook_grad(u)
    tv = np.sum(np.sqrt(grad_u[0] ** 2 + grad_u[1] ** 2))
    objective = gauss + cfg.lambda2 * np.sum(u - v * np.log(np.maximum(u, 1e-12) / v) - v) + tv
    gap = v * w - u
    if state.p is None:
        alpha, tv_term, flux_terms = cfg.alpha, tv, 0.0
    else:
        gap_p = state.p - grad_u
        alpha = cfg.alpha_w
        tv_term = np.sum(np.sqrt(state.p[0] ** 2 + state.p[1] ** 2))
        flux_terms = np.sum(state.lam_p * gap_p) + 0.5 * cfg.alpha_p * np.sum(gap_p**2)
    lagrangian = (
        gauss + cfg.lambda2 * np.sum(u - v * np.log(w) - v) + tv_term
        + np.sum(state.lam_w * gap) + 0.5 * alpha * np.sum(gap**2) + flux_terms
    )
    return (
        objective,
        lagrangian,
        np.min(w),
        np.max(np.abs(state.lam_w * w - cfg.lambda2)),
        np.sqrt(np.sum(gap**2)) / np.sqrt(np.sum(u**2)),
    )


@pytest.mark.parametrize("init, step", [(bca_init, solvers._bca_step), (bcaf_init, solvers._bcaf_step)])
def test_diagnostics_match_textbook_formulas(init, step):
    """The solve's own set-up and steps, checked after every iteration."""
    f = corrupt(make_phantom("circles", 24, 20), NoiseSpec(eta=4.0, sigma=1e-2, seed=6))
    cfg = SolverConfig(lambda1=8.0, lambda2=2.5, max_iters=4)
    done = []

    def checked(s, k, cfg):
        step(s, k, cfg)
        img = solvers._image(s, 0)
        got = solvers._bilinear_diagnostics(solvers._bilinear_handoff(img), cfg)
        want = textbook_diagnostics(img, f, cfg)
        assert all(type(x) is float for x in got)
        names = ("objective", "lagrangian", "min_w", "identity", "constraint")
        for name, value, expected in zip(names, got, want):
            assert abs(value - expected) <= 1e-12 * abs(expected), (k, name, value, expected)
        done.append(k)

    solvers._bilinear_solve(f, cfg, None, init, checked)
    assert done == [1, 2, 3, 4]


@pytest.mark.parametrize("solve", [bca_solve, bcaf_solve, tv_l2_solve, tv_kl_solve])
def test_trace_columns_are_python_floats(solve):
    truth = make_phantom("circles", 16, 16)
    f = np.maximum(corrupt(truth, NoiseSpec(eta=4.0, sigma=1e-2, seed=3)), 0.0)
    cfg = SolverConfig(lambda1=8.0, lambda2=2.5, max_iters=3)
    args = (f, cfg) if solve in (bca_solve, bcaf_solve) else (f, 8.0, cfg)
    _, trace = solve(*args, truth=truth)
    for rec in trace:
        assert type(rec.iter) is int
        for name in ("se", "objective", "lagrangian", "min_w", "identity_residual",
                     "constraint_residual", "snr", "seconds"):
            value = getattr(rec, name)
            assert value is None or type(value) is float, (name, type(value))


# ---------------------------------------------------------------------------
# full solves


def test_constant_observation_is_returned_unchanged():
    """A constant image is a fixed point of the model; both solvers find it fast."""
    cfg = SolverConfig(lambda1=8.0, lambda2=2.5, alpha=200.0, alpha_w=200.0, alpha_p=10.0)
    f = np.full((12, 10), 0.6)
    for solve in (bca_solve, bcaf_solve):
        u, trace = solve(f, cfg)
        assert np.max(np.abs(u - f)) < 1e-12
        assert len(trace) <= 6


@given(
    shape=hst.tuples(hst.integers(1, 6), hst.integers(1, 6)),
    scale=hst.sampled_from([0.0, 1e-9, 1e-3, 1.0, 1e3, 1e6]),
    offset=hst.sampled_from([-1.0, -0.5, 0.0, 0.5]),
    seed=hst.integers(0, 2**32 - 1),
    method=hst.sampled_from(sorted(METHODS)),
    with_truth=hst.booleans(),
)
@settings(max_examples=400, deadline=None)
def test_odd_inputs_give_finite_results(shape, scale, offset, seed, method, with_truth):
    """1xN, Nx1, 1x1, all-zero, negative and badly scaled observations give a
    finite ``u`` of the input's shape and finite trace columns.  (The identity
    ``lam_w .* w == lambda2`` is not asserted: ``bcaf`` loses it on badly
    scaled input.)"""
    f = scale * (np.random.default_rng(seed).random(shape) + offset)
    u, trace = run_method(method, f, SolverConfig(max_iters=20), np.abs(f) if with_truth else None)
    assert u.shape == f.shape and np.all(np.isfinite(u))
    for rec in trace:
        for name, value in dataclasses.asdict(rec).items():
            assert value is None or math.isfinite(value), (rec.iter, name, value)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow warns before the check raises
def test_overflowing_iterate_raises_at_its_iteration():
    """A finite input whose iterate overflows stops at iteration 1 instead of
    running on to ``max_iters`` and returning a non-finite ``u``."""
    f = 1e160 * make_phantom("circles", 16, 16)
    with pytest.raises(DomainError, match="^iteration 1: the relative step is not finite"):
        run_method("bcaf", f, SolverConfig(max_iters=20))


def test_solvers_agree_on_noisy_phantom():
    """Both splittings drive the same model; at matched penalty they nearly coincide."""
    truth = make_phantom("circles", 32, 32)
    f = corrupt(truth, NoiseSpec(eta=4.0, sigma=1e-4, seed=11))
    cfg = SolverConfig(lambda1=8.0, lambda2=2.5, alpha=200.0, alpha_w=200.0, alpha_p=10.0)
    u1, tr1 = bca_solve(f, cfg, truth=truth)
    u2, tr2 = bcaf_solve(f, cfg, truth=truth)
    assert np.linalg.norm(u1 - u2) / np.linalg.norm(u1) < 1e-2
    base = snr(f, truth)
    assert tr1[-1].snr > base + 3.0 and tr2[-1].snr > base + 3.0
    for tr in (tr1, tr2):
        assert len(tr) < cfg.max_iters  # stopped on the relative step, not the cap
        assert tr[-1].se <= cfg.xi
        assert tr[-1].constraint_residual < 10.0 * cfg.xi
        assert all(r.min_w > 0.0 for r in tr)
        assert all(r.identity_residual < 1e-10 * cfg.lambda2 for r in tr)
        assert [r.iter for r in tr] == list(range(1, len(tr) + 1))
        assert all(b.seconds >= a.seconds for a, b in zip(tr, tr[1:]))


def test_iteration_cap_is_honored():
    f = corrupt(make_phantom("checker", 16, 16), NoiseSpec(eta=2.0, sigma=1e-4, seed=5))
    cfg = SolverConfig(lambda1=8.0, lambda2=2.5, alpha=200.0, xi=1e-20, max_iters=7)
    _, trace = bca_solve(f, cfg)
    assert len(trace) == 7
    assert [r.iter for r in trace] == [1, 2, 3, 4, 5, 6, 7]


def test_solves_are_deterministic():
    truth = make_phantom("ramp", 16, 16)
    f = corrupt(truth, NoiseSpec(eta=4.0, sigma=1e-2, seed=2))
    cfg = SolverConfig(lambda1=8.0, lambda2=2.5, max_iters=40)
    for solve in (bca_solve, bcaf_solve):
        ua, ta = solve(f, cfg)
        ub, tb = solve(f, cfg)
        assert np.array_equal(ua, ub)
        assert [r.se for r in ta] == [r.se for r in tb]
        assert [r.objective for r in ta] == [r.objective for r in tb]


def test_trace_snr_column_requires_truth():
    f = corrupt(make_phantom("flat", 16, 16), NoiseSpec(eta=4.0, sigma=1e-2, seed=1))
    cfg = SolverConfig(lambda1=8.0, lambda2=2.5, max_iters=5, xi=1e-20)
    _, trace = bca_solve(f, cfg)
    assert all(r.snr is None for r in trace)
    _, trace = bca_solve(f, cfg, truth=np.full_like(f, 0.5))
    assert all(isinstance(r.snr, float) for r in trace)


def test_tv_l2_baseline_tracks_observation_at_huge_weight():
    rng = np.random.default_rng(6)
    f = rng.random((12, 12))
    cfg = SolverConfig(lambda1=1.0, lambda2=1.0, max_iters=30)
    u, trace = tv_l2_solve(f, 1e9, cfg)
    assert np.max(np.abs(u - f)) < 1e-6
    assert trace[-1].objective <= trace[0].objective + 1e-12
    assert trace[0].min_w is None
    assert trace[0].identity_residual is None
    assert trace[0].constraint_residual is None
    with pytest.raises(DomainError):
        tv_l2_solve(f, 0.0, cfg)


def test_tv_kl_baseline_constant_and_domain():
    cfg = SolverConfig(lambda1=1.0, lambda2=1.0, alpha=50.0)
    f = np.full((8, 8), 0.8)
    u, trace = tv_kl_solve(f, 3.0, cfg)
    assert np.array_equal(u, f)
    assert len(trace) == 1
    bad = f.copy()
    bad[0, 0] = -0.1
    with pytest.raises(DomainError):
        tv_kl_solve(bad, 3.0, cfg)
    with pytest.raises(DomainError):
        tv_kl_solve(f, -1.0, cfg)


def test_every_solver_stops_at_the_first_small_step():
    f = corrupt(make_phantom("ramp", 16, 16), NoiseSpec(eta=4.0, sigma=1e-2, seed=4))
    cfg = SolverConfig(lambda1=8.0, lambda2=2.5, xi=1e-3, max_iters=500)
    for _, trace in (
        bca_solve(f, cfg),
        bcaf_solve(f, cfg),
        tv_l2_solve(f, 8.0, cfg),
        tv_kl_solve(np.maximum(f, 0.0), 2.5, cfg),
    ):
        assert len(trace) < cfg.max_iters
        assert trace[-1].se <= cfg.xi
        assert all(r.se > cfg.xi for r in trace[:-1])
        assert [r.iter for r in trace] == list(range(1, len(trace) + 1))


def test_bcaf_takes_the_gradient_of_u_once_per_iteration(monkeypatch):
    # one call, shared by the p-step, the multiplier step and the Lagrangian
    # of the trace
    calls = []

    def counting(u, out=None):
        calls.append(u)
        return gradient(u, out=out)

    monkeypatch.setattr(solvers, "gradient", counting)
    f = corrupt(make_phantom("circles", 16, 16), NoiseSpec(eta=4.0, sigma=1e-2, seed=3))
    _, trace = bcaf_solve(f, SolverConfig(lambda1=8.0, lambda2=2.5, xi=1e-20, max_iters=6))
    assert len(trace) == 6
    assert len(calls) == 6


@pytest.mark.parametrize("solve, per_iteration", [
    # bca: one per Chambolle step (BCA_INNER_ITERS = 2 by default) plus one
    # for TV(u), which the objective and the Lagrangian share; bcaf: the one
    # shared gradient
    (bca_solve, 3),
    (bcaf_solve, 1),
])
def test_gradient_calls_per_iteration_including_diagnostics(monkeypatch, solve, per_iteration):
    calls = []

    def counting(u, out=None):
        calls.append(u)
        return gradient(u, out=out)

    # every module that looks the gradient up by name, diagnostics included
    for module in (mpgdenoise.grid, mpgdenoise.chambolle, solvers):
        monkeypatch.setattr(module, "gradient", counting)
    f = corrupt(make_phantom("circles", 16, 16), NoiseSpec(eta=4.0, sigma=1e-2, seed=3))
    _, trace = solve(f, SolverConfig(lambda1=8.0, lambda2=2.5, xi=1e-20, max_iters=5))
    assert len(trace) == 5
    assert len(calls) == 5 * per_iteration


@pytest.mark.parametrize("solve", [bca_solve, bcaf_solve])
def test_log_of_w_once_per_iteration(monkeypatch, solve):
    """The diagnostics take the checked ln(w), and the next v-step reuses
    it: one ln per iteration, plus one of the starting w for the first
    v-step.  The only other log is the objective's log(u/v)."""
    ln_calls, log_calls = [], []
    real_ln, real_log = mpgdenoise.grid.ln, np.log

    def counting_ln(a):
        ln_calls.append(a)
        return real_ln(a)

    def counting_log(*args, **kwargs):
        log_calls.append(args[0])
        return real_log(*args, **kwargs)

    monkeypatch.setattr(solvers, "ln", counting_ln)
    monkeypatch.setattr(np, "log", counting_log)
    f = corrupt(make_phantom("circles", 16, 16), NoiseSpec(eta=4.0, sigma=1e-2, seed=3))
    _, trace = solve(f, SolverConfig(lambda1=8.0, lambda2=2.5, xi=1e-20, max_iters=5))
    assert len(trace) == 5
    assert len(ln_calls) == 5 + 1
    assert len(log_calls) == len(ln_calls) + 5


@pytest.mark.parametrize("solve, weight", [(bca_solve, None), (tv_l2_solve, 8.0), (tv_kl_solve, 2.5)])
def test_tv_dual_step_once_per_iteration_by_its_public_name(monkeypatch, solve, weight):
    """The solvers call the TV dual step by the name the benchmark tracer
    wraps, ``tv_l2_denoise``: one call per outer iteration."""
    assert solvers.tv_l2_denoise is mpgdenoise.chambolle.tv_l2_denoise
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return tv_l2_denoise(*args, **kwargs)

    monkeypatch.setattr(solvers, "tv_l2_denoise", counting)
    f = np.maximum(corrupt(make_phantom("circles", 16, 16), NoiseSpec(eta=4.0, sigma=1e-2, seed=3)), 0.0)
    cfg = SolverConfig(lambda1=8.0, lambda2=2.5, xi=1e-20, max_iters=5)
    _, trace = solve(f, cfg) if weight is None else solve(f, weight, cfg)
    assert len(trace) == 5
    assert len(calls) == 5


def test_bca_default_depth_stops_with_the_deep_solve():
    """Two warm-started dual steps per iteration meet the xi stop within two
    iterations of ten, at the same SNR.  An odd depth fails here: the dual
    iteration's period-2 mode keeps u alternating and the run hits max_iters."""
    truth = make_phantom("circles", 64, 64)
    f = corrupt(truth, NoiseSpec(eta=16.0, sigma=1e-2, seed=4))
    cfg = SolverConfig(lambda1=8.0, lambda2=2.5)
    assert cfg.chambolle is None and solvers.BCA_INNER_ITERS == 2
    u, trace = bca_solve(f, cfg)
    deep = SolverConfig(lambda1=8.0, lambda2=2.5, chambolle=ChambolleConfig(inner_iters=10))
    u10, trace10 = bca_solve(f, deep)
    assert len(trace) < cfg.max_iters and trace[-1].se <= cfg.xi
    assert abs(len(trace) - len(trace10)) <= 2
    assert abs(snr(u, truth) - snr(u10, truth)) < 0.05


@pytest.mark.parametrize("solve, weight", [(tv_l2_solve, 8.0), (tv_kl_solve, 2.5)])
def test_baselines_default_depth_is_ten(solve, weight):
    f = np.maximum(corrupt(make_phantom("circles", 32, 32), NoiseSpec(eta=4.0, sigma=1e-2, seed=3)), 0.0)
    u, trace = solve(f, weight, SolverConfig(lambda1=8.0, lambda2=2.5, max_iters=20))
    cfg10 = SolverConfig(lambda1=8.0, lambda2=2.5, max_iters=20, chambolle=ChambolleConfig(inner_iters=10))
    u10, trace10 = solve(f, weight, cfg10)
    assert u.tobytes() == u10.tobytes()
    assert [r.lagrangian for r in trace] == [r.lagrangian for r in trace10]


def test_bca_explicit_depth_ten_bytes_are_pinned():
    """An explicit ChambolleConfig wins over bca's own depth: at inner_iters=10
    the output keeps the bytes it had when 10 was bca's default."""
    f = corrupt(make_phantom("circles", 32, 32), NoiseSpec(eta=4.0, sigma=1e-2, seed=3))
    cfg = SolverConfig(lambda1=8.0, lambda2=2.5, max_iters=40, chambolle=ChambolleConfig(inner_iters=10))
    u, trace = bca_solve(f, cfg)
    assert len(trace) == 40
    assert hashlib.sha256(u.tobytes()).hexdigest() == (
        "0eb39f8da852b35280b6b1b6b7de1ca30e76736a0d9903b888d9d802692f0560"
    )


# sha256 of every trace column but ``seconds`` (the wall clock) at the
# defaults below, per method
PINNED_COLUMNS = tuple(f.name for f in dataclasses.fields(TraceRecord) if f.name != "seconds")
TRACE_DIGESTS = {
    "bca": "1f326620afcc0c736eada5bd0fc74593979823db6b084499260b34c3021f0328",
    "bcaf": "ccfc9a7670c2195d4e8e3569c4d8aacf2a4b87e3251fb738190d24ebd06f3bc8",
    "tvl2": "a2a0a06a69f885f726ccbec211b7982fafad1cf8e5b592554f44860b1679b1ca",
    "tvkl": "aa9c53296f31b424f05ba8eebfd1471c4545aa5bc5985b40398b2b7c7b4057d4",
}


@pytest.mark.parametrize("method, iters, digest", [
    ("bca", 148, "1cc36efd622bd71b26910021a02b733e4a289df6341dfb322f9e9fa8390c01ec"),
    ("bcaf", 150, "717dbcbb25d9e26883cbe49194c0a957671fb52d6ec9ab781ac1e14fb36fc3be"),
    ("tvl2", 10, "2b57220fe9b167dec491c2ab766513152bdbc209a55ff4ca892bf5e873916123"),
    ("tvkl", 162, "7ad1d7eeacb495e8134fbdd4c4f4a0c12ff85e3d6e6dee3733ce6fed63f8289f"),
])
def test_default_config_bytes_are_pinned(method, iters, digest):
    """Each method at its own defaults (bca at TV depth 2) keeps its output
    bytes, its iteration count and every trace column but ``seconds``; a
    change to a kernel or a diagnostic that moves one rounding shows here."""
    f = corrupt(make_phantom("circles", 32, 32), NoiseSpec(eta=4.0, sigma=1e-2, seed=3))
    u, trace = run_method(method, f, SolverConfig(lambda1=8.0, lambda2=2.5))
    assert len(trace) == iters
    assert hashlib.sha256(u.tobytes()).hexdigest() == digest
    rows = [tuple(getattr(r, c) for c in PINNED_COLUMNS) for r in trace]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == TRACE_DIGESTS[method]


@pytest.mark.parametrize("method, u_digest, trace_digest", [
    ("bca", "e23838a0bdc755523b7dd27e50303da48b6b81caddd2d214d2527e6f988efeba",
     "c2c5464dd513e7eaa8acecea4d8ee595f4bcc64018da77e527c57bc90cfab60b"),
    ("bcaf", "e12cbed99ba4c53da798de425dd44feff5e0a4aa822fbebf4187d159d428acb0",
     "6bf252d8bafbd9701cc70aeaa91869dff90baec82d9e54831d15eea30973f096"),
])
def test_large_single_image_bytes_are_pinned(method, u_digest, trace_digest):
    """At 192x192 a single image takes its trace on a helper thread when two
    cores are usable and on the main thread when one is; both paths keep
    these bytes (CI runs this file under both)."""
    truth = make_phantom("circles", 192, 192)
    f = corrupt(truth, NoiseSpec(eta=4.0, sigma=1e-4, seed=1))
    u, trace = run_method(method, f, SolverConfig(lambda1=8.0, lambda2=2.5, max_iters=12), truth)
    assert hashlib.sha256(u.tobytes()).hexdigest() == u_digest
    rows = [tuple(getattr(r, c) for c in PINNED_COLUMNS) for r in trace]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == trace_digest
