"""Tests for the ADMM solvers.

The pointwise subproblem updates (v, w, p, z) all have closed forms; each is
checked against a dense grid search over its own per-pixel objective, so a
sign error or a dropped term in the closed form cannot hide.  The image
updates are checked against long-run reference solves and against the linear
system they claim to solve.
"""

import dataclasses
import hashlib
import itertools
import math
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import mpgdenoise.chambolle
import mpgdenoise.grid
import mpgdenoise.solvers as solvers
from mpgdenoise.chambolle import ChambolleConfig, tv_l2_denoise
from mpgdenoise.grid import DomainError, ShapeMismatchError, divergence, gradient, laplacian, ln, magnitude
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


# alpha != alpha_w and neither at the default 200, so that a solve reading
# the other split's penalty shows
SPLIT_PENALTIES = SolverConfig(lambda1=8.0, lambda2=2.5, alpha=120.0, alpha_w=300.0, alpha_p=30.0)


# ---------------------------------------------------------------------------
# configuration and the penalty bound


def test_config_rejects_nonpositive_parameters():
    base = dict(lambda1=1.0, lambda2=1.0, alpha=1.0, alpha_w=1.0,
                alpha_p=1.0, epsilon=1e-6, xi=1e-4)
    SolverConfig(**base)  # sanity: the base set is legal
    for name in base:
        for bad in (0.0, -1.0, math.inf, math.nan):
            kw = dict(base)
            kw[name] = bad
            with pytest.raises(ValueError, match=f"^{name} must be finite and positive$"):
                SolverConfig(**kw)
    for bad in (0, 2.5):
        with pytest.raises(ValueError, match="^max_iters must be an integer >= 1$"):
            SolverConfig(lambda1=1.0, lambda2=1.0, max_iters=bad)
    assert SolverConfig(max_iters=np.int64(3)).max_iters == 3  # numpy integers are integers


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


@pytest.mark.parametrize("bad", [0.0, -1e-2, math.inf, math.nan])
@pytest.mark.parametrize("name", ["lambda2", "epsilon"])
def test_alpha_lower_bound_rejects_a_weight_that_is_not_finite_and_positive(name, bad):
    """A zero ``epsilon`` no longer divides by zero into ``inf``, and a
    negative one no longer picks the other branch of the bound."""
    args = {"lambda2": 2.0, "c": 0.5, "epsilon": 1e-2, name: bad}
    with pytest.raises(ValueError, match=f"^{name} must be finite and positive$"):
        alpha_lower_bound(**args)


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
    ref, _, _ = tv_l2_denoise(target, cfg.alpha, ChambolleConfig(inner_iters=5000))
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
    plain, _, _ = tv_l2_denoise(st.v * st.w, 200.0, ChambolleConfig(inner_iters=40))
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


@pytest.mark.parametrize("mixed", [False, True])
def test_w_step_fast_path_bytes_match_masked_formula(monkeypatch, mixed):
    """With no ``x = u - lam_w/alpha`` negative (+0.0 and -0.0 among them)
    the step returns its first quotient without the select; one negative
    ``x`` takes the select.  Both give the masked formula's bytes."""
    rng = np.random.default_rng(21)
    u = rng.uniform(0.1, 2.0, (8, 8))
    lam_w = rng.uniform(0.0, 2.5, (8, 8))
    u[0, 0], lam_w[0, 0] = 0.0, -0.0  # x = +0.0
    u[0, 1], lam_w[0, 1] = -0.0, 0.0  # x = -0.0
    if mixed:
        u[3, 4] = -0.3
    v = rng.uniform(1e-6, 1.0, (8, 8))
    assert (np.min(u - lam_w / 200.0) < 0.0) == mixed
    selects = []
    real_where = np.where
    monkeypatch.setattr(np, "where", lambda *a: selects.append(1) or real_where(*a))
    _w_step_bytes_match_masked(u, v, lam_w, 2.5, 200.0)
    assert len(selects) == mixed


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
    if state.lam_p is None:
        alpha, tv_term, flux_terms = cfg.alpha, tv, 0.0
    else:
        # the solve holds the flux alpha_p p + lam_p in place of p
        p = (state.flux - state.lam_p) / cfg.alpha_p
        gap_p = p - grad_u
        alpha = cfg.alpha_w
        tv_term = np.sum(np.sqrt(p[0] ** 2 + p[1] ** 2))
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


@pytest.mark.parametrize("method, step", [("bca", "_bca_step"), ("bcaf", "_bcaf_step")])
def test_diagnostics_match_textbook_formulas(method, step, monkeypatch):
    """The solve's own set-up, steps and diagnostics, checked on the record
    of every iteration, at ``alpha != alpha_w``: the textbook takes
    ``alpha`` for ``bca`` and ``alpha_w`` for ``bcaf`` from the caller's
    config, whatever config the solve hands its steps.  (``bcaf``'s
    diagnostics turn the previous ``lam_p`` into the flux gap in place, so
    they are wrapped rather than called a second time.)"""
    f = corrupt(make_phantom("circles", 24, 20), NoiseSpec(eta=4.0, sigma=1e-2, seed=6))
    cfg = dataclasses.replace(SPLIT_PENALTIES, max_iters=4)
    real_step, real_diagnostics = getattr(solvers, step), solvers._bilinear_diagnostics
    stepped, checked = [], []

    def counted_step(s, k, solve_cfg):
        real_step(s, k, solve_cfg)
        stepped.append(k)

    def checked_diagnostics(img, solve_cfg):
        want = textbook_diagnostics(img, f, cfg)
        got = real_diagnostics(img, solve_cfg)
        assert all(type(x) is float for x in got)
        names = ("objective", "lagrangian", "min_w", "identity", "constraint")
        for name, value, expected in zip(names, got, want):
            assert abs(value - expected) <= 1e-12 * abs(expected), (img.iters, name, value, expected)
        checked.append(img.iters)
        return got

    monkeypatch.setattr(solvers, step, counted_step)
    monkeypatch.setattr(solvers, "_bilinear_diagnostics", checked_diagnostics)
    run_method(method, f, cfg)
    assert stepped == checked == [1, 2, 3, 4]


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
# the solver loop: one thread, the caller's error state


def loop_input(size=32, seed=1):
    truth = make_phantom("circles", size, size)
    return np.maximum(corrupt(truth, NoiseSpec(eta=4.0, sigma=1e-4, seed=seed)), 0.0), truth


LOOP_CFG = SolverConfig(lambda1=8.0, lambda2=2.5, xi=1e-20, max_iters=5)


#: small enough that a 192x192 TV dual step runs in row blocks
ROW_BLOCKS = 192 * 48

#: the methods that run TV dual steps (bcaf's u step is a screened-Poisson
#: solve, so on bcaf the block size changes nothing)
TV_METHODS = {"bca", "tvl2", "tvkl"}


def block_heights(monkeypatch):
    """Patch ``chambolle._steps`` to record the height of each block it runs."""
    real = mpgdenoise.chambolle._steps
    heights = []

    def steps(g, *args):
        heights.append(g.shape[-2])
        return real(g, *args)

    monkeypatch.setattr(mpgdenoise.chambolle, "_steps", steps)
    return heights


@pytest.mark.parametrize("method", ["bca", "bcaf", "tvl2", "tvkl"])
def test_a_large_solve_starts_no_thread(method, monkeypatch):
    """With two usable cores a 192x192 solve whose TV dual steps run in row
    blocks starts no thread: the blocks and every record are taken on the
    calling thread."""
    started = []
    real_start = threading.Thread.start

    def start(thread):
        started.append(thread.name)
        return real_start(thread)

    monkeypatch.setattr(mpgdenoise.grid, "_usable_cores", lambda: 2)
    monkeypatch.setattr(mpgdenoise.grid, "BLOCK_PIXELS", ROW_BLOCKS)
    monkeypatch.setattr(threading.Thread, "start", start)
    heights = block_heights(monkeypatch)
    f, truth = loop_input(192)
    _, trace = run_method(method, f, LOOP_CFG, truth)
    assert len(trace) == LOOP_CFG.max_iters and started == []
    assert (method in TV_METHODS) == bool(heights) and all(h < 192 for h in heights)


@pytest.mark.parametrize("path", ["one-block", "row-blocks"])
@pytest.mark.parametrize("method", ["bca", "bcaf", "tvl2", "tvkl"])
def test_seconds_has_one_meaning_on_every_path(method, path, monkeypatch):
    """Under a clock whose reads return 0, 1, 2, ... a record's ``seconds``
    is the number of iterations done: the clock is read once per iteration,
    on the calling thread, whether the image is solved alone or as a stack
    of one, and whether its TV dual steps run in one block or in row
    blocks."""
    if path == "row-blocks":
        monkeypatch.setattr(mpgdenoise.grid, "BLOCK_PIXELS", ROW_BLOCKS)
    heights, readers = block_heights(monkeypatch), []

    def counting_clock():
        ticks = itertools.count()

        def perf_counter():
            readers.append(threading.current_thread() is threading.main_thread())
            return float(next(ticks))

        return SimpleNamespace(perf_counter=perf_counter)

    f, truth = loop_input(192)
    monkeypatch.setattr(solvers, "time", counting_clock())
    _, trace = run_method(method, f, LOOP_CFG, truth)
    monkeypatch.setattr(solvers, "time", counting_clock())
    _, traces = run_method(method, f[None], LOOP_CFG, truth)
    assert [r.seconds for r in trace] == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert traces[0][-1].seconds == trace[-1].seconds
    assert readers and all(readers)
    if method not in TV_METHODS:
        assert heights == []
    else:  # the path under test ran
        assert heights and all((h < 192) == (path == "row-blocks") for h in heights)


@pytest.mark.parametrize("method", ["bca", "bcaf"])
@pytest.mark.parametrize("fail_at", [1, 3, 5])
def test_exception_in_the_diagnostics_reaches_the_caller(method, fail_at, monkeypatch):
    real = solvers._bilinear_diagnostics
    calls = []

    def failing(img, cfg):
        calls.append(None)
        if len(calls) == fail_at:
            raise FloatingPointError("diagnostics failed")
        return real(img, cfg)

    monkeypatch.setattr(solvers, "_bilinear_diagnostics", failing)
    with pytest.raises(FloatingPointError, match="diagnostics failed"):
        run_method(method, loop_input()[0], LOOP_CFG)
    assert len(calls) == fail_at


# bcaf runs bca's bilinear block, so both reach the w-step by bca's name
@pytest.mark.parametrize("method, step", [("bca", "bca_w_step"), ("bcaf", "bca_w_step")])
def test_exception_in_a_step_reaches_the_caller(method, step, monkeypatch):
    real = getattr(solvers, step)
    calls = []

    def failing(*args):
        calls.append(None)
        if len(calls) == 3:
            raise DomainError("step failed")
        return real(*args)

    monkeypatch.setattr(solvers, step, failing)
    f, truth = loop_input()
    with pytest.raises(DomainError, match="step failed"):
        run_method(method, f, LOOP_CFG, truth)
    assert len(calls) == 3


def test_diagnostics_run_under_the_callers_numpy_error_state(monkeypatch):
    real = solvers._bilinear_diagnostics
    seen = []

    def recording(img, cfg):
        seen.append(np.geterr()["divide"])
        return real(img, cfg)

    monkeypatch.setattr(solvers, "_bilinear_diagnostics", recording)
    with np.errstate(divide="raise"):
        run_method("bca", loop_input()[0], LOOP_CFG)
    assert seen == ["raise"] * LOOP_CFG.max_iters


# the step each method runs first in an iteration, by its name in solvers
FIRST_STEP = {"bca": "bca_u_step", "bcaf": "bcaf_u_step", "tvl2": "tv_l2_denoise", "tvkl": "tv_l2_denoise"}


@pytest.mark.parametrize("method", sorted(FIRST_STEP))
@pytest.mark.parametrize("f_shape, truth_shape", [
    ((3, 16, 16), (2, 16, 16)),  # a truth stack shorter than the input stack
    ((3, 16, 16), (4, 16, 16)),  # and one longer
    ((16, 16), (2, 16, 16)),     # a truth stack for a single image
    ((3, 16, 16), (16, 15)),     # one truth image of another shape
], ids=["short-truth-stack", "long-truth-stack", "truth-stack-for-one-image", "other-image-shape"])
def test_truth_of_the_wrong_shape_raises_before_the_first_step(method, f_shape, truth_shape, monkeypatch):
    steps = []
    real = getattr(solvers, FIRST_STEP[method])

    def counting(*args):
        steps.append(None)
        return real(*args)

    monkeypatch.setattr(solvers, FIRST_STEP[method], counting)
    f = np.random.default_rng(0).random(f_shape)
    with pytest.raises(ShapeMismatchError, match="truth has shape"):
        run_method(method, f, LOOP_CFG, np.ones(truth_shape))
    assert steps == []


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


@pytest.mark.parametrize("lam", [math.inf, math.nan])
def test_tv_kl_rejects_a_non_finite_weight_up_front(lam, monkeypatch):
    calls = []
    monkeypatch.setattr(solvers, "tv_l2_denoise", lambda *args, **kw: calls.append(None))
    f = np.maximum(corrupt(make_phantom("circles", 16, 16), NoiseSpec(eta=4.0, sigma=1e-2, seed=1)), 0.0)
    with pytest.raises(DomainError, match="^fidelity weight must be finite and positive$"):
        tv_kl_solve(f, lam, SolverConfig())
    assert calls == []


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


def test_bcaf_is_transposition_equivariant():
    """An oracle that holds for any correct bcaf, whatever its pins: the
    solve of the transposed observation is the transposed solve, to
    rounding, after as many iterations."""
    f = corrupt(make_phantom("circles", 40, 48), NoiseSpec(eta=4.0, sigma=1e-2, seed=3))
    cfg = SolverConfig(lambda1=8.0, lambda2=2.5)
    u, trace = bcaf_solve(f, cfg)
    u_t, trace_t = bcaf_solve(f.T, cfg)
    assert f.shape == (48, 40)
    assert len(trace_t) == len(trace) < cfg.max_iters
    assert np.max(np.abs(u_t.T - u)) <= 1e-13 * np.max(np.abs(u))


def shrink_then_ascent_bcaf(f, cfg):
    """``bcaf`` as plain ADMM on ``p = grad u``, from the public step
    functions: the image update, the p-shrink, the ascent
    ``lam_p + alpha_p (p - grad u)``, then the bilinear block at
    ``alpha_w``, holding ``p``, ``lam_p`` and ``grad u`` whole.  Returns
    ``u`` and the iteration the relative step stopped at."""
    cfg = dataclasses.replace(cfg, alpha=cfg.alpha_w)
    st = bcaf_init(f)
    for k in range(1, cfg.max_iters + 1):
        u_prev = st.u
        st.u = bcaf_u_step(st, f, cfg)
        grad_u = gradient(st.u)
        st.p = bcaf_p_step(st, cfg, grad_u)
        st.lam_p = st.lam_p + cfg.alpha_p * (st.p - grad_u)
        st.v = bca_v_step(st, f, cfg)
        st.w = bca_w_step(st, cfg)
        st.lam_w = bca_multiplier_step(st, cfg)
        st.iters = k
        if np.linalg.norm(st.u - u_prev) <= cfg.xi * np.linalg.norm(u_prev):
            break
    return st.u, k


@pytest.mark.parametrize("size, noise, cfg, iters", [
    (32, NoiseSpec(eta=4.0, sigma=1e-2, seed=3), SolverConfig(lambda1=8.0, lambda2=2.5), 150),
    (32, NoiseSpec(eta=4.0, sigma=1e-2, seed=3), SPLIT_PENALTIES, 200),
    (192, NoiseSpec(eta=4.0, sigma=1e-4, seed=1), SolverConfig(lambda1=8.0, lambda2=2.5, max_iters=12), 12),
], ids=["default", "distinct-penalties", "large"])
def test_bcaf_matches_the_shrink_then_ascent_loop(size, noise, cfg, iters):
    """The primal-dual step (multiplier projection, one flux field) is the
    p-shrink followed by the ascent, to rounding, with the same stop: on
    the inputs of the three ``bcaf`` byte pins below."""
    f = corrupt(make_phantom("circles", size, size), noise)
    u, trace = bcaf_solve(f, cfg)
    u_ref, k_ref = shrink_then_ascent_bcaf(f, cfg)
    assert len(trace) == k_ref == iters
    assert np.max(np.abs(u - u_ref)) <= 1e-12 * np.max(np.abs(u_ref))


def dual_bound(q, f, cfg):
    """``D(q)``, the minimum over ``(u, v)`` of ``H`` with TV(u) replaced by
    ``<q, grad u> = -<div q, u>``, a lower bound of ``min H`` for any field
    with ``|q| <= 1`` (weak duality).  Per pixel, with ``d = div q < lambda2``:
    ``(lambda1/2)(f - v*)^2 + c v*``, ``c = lambda2 log(1 - d/lambda2)``,
    ``v* = max(epsilon, f - c/lambda1)``.  Where ``max d >= lambda2`` the
    field is first scaled by ``lambda2 / (2 max d)`` to be feasible."""
    d = divergence(q)
    top = float(np.max(d))
    if top >= cfg.lambda2:
        d *= 0.5 * cfg.lambda2 / top
    c = cfg.lambda2 * np.log1p(-d / cfg.lambda2)
    v = np.maximum(cfg.epsilon, f - c / cfg.lambda1)
    return float(np.sum(0.5 * cfg.lambda1 * (f - v) ** 2 + c * v))


@pytest.mark.parametrize("eta, sigma", [(4.0, 1e-4), (20.0, 0.05)])
def test_bcaf_multiplier_certifies_the_objective(eta, sigma, monkeypatch):
    """An oracle that holds for any correct ``bcaf``: ``q = -lam_p`` is a
    TV dual field with ``|q| <= 1`` (to rounding) on every record, so
    ``D(q) <= H``, and the relative gap ``(H - D) / H`` closes to 1e-4
    within 600 iterations.  A wrong sign of ``q`` keeps ``D <= H``; the
    closing gap is what catches it."""
    f = corrupt(make_phantom("circles", 64, 64), NoiseSpec(eta=eta, sigma=sigma, seed=1))
    cfg = SolverConfig(lambda1=8.0, lambda2=2.5, xi=1e-20, max_iters=600)
    real_diagnostics = solvers._bilinear_diagnostics
    bounds = []

    def bounded(img, solve_cfg):
        assert np.max(magnitude(img.lam_p)) <= 1.0 + 1e-12
        bounds.append(dual_bound(-img.lam_p, img.f, solve_cfg))
        return real_diagnostics(img, solve_cfg)

    monkeypatch.setattr(solvers, "_bilinear_diagnostics", bounded)
    _, trace = bcaf_solve(f, cfg)
    assert len(trace) == len(bounds) == cfg.max_iters
    assert all(d <= r.objective for d, r in zip(bounds, trace))
    assert (trace[-1].objective - bounds[-1]) / trace[-1].objective <= 1e-4


@pytest.mark.parametrize("solve", [bca_solve, bcaf_solve])
def test_norm_of_each_iterate_is_taken_once(solve, monkeypatch):
    """``||u||^2`` of each iterate is taken once, right after its step: the
    next relative step and the record's constraint residual share it."""
    iterates, norms = [], []
    real_dot, real_run = solvers.dot, solvers._run

    def counting(a, b):
        if a is b and any(a.shape == u.shape and np.array_equal(a, u) for u in iterates):
            norms.append(a)
        return real_dot(a, b)

    def recording(cfg, truth, s, step, diagnose, solo):
        def recorded(s, k):
            step(s, k)
            iterates.append(s.u[0].copy())
        iterates.append(s.u[0].copy())
        return real_run(cfg, truth, s, recorded, diagnose, solo)

    monkeypatch.setattr(solvers, "dot", counting)
    monkeypatch.setattr(solvers, "_run", recording)
    f = corrupt(make_phantom("circles", 16, 16), NoiseSpec(eta=4.0, sigma=1e-2, seed=3))
    _, trace = solve(f, SolverConfig(lambda1=8.0, lambda2=2.5, xi=1e-20, max_iters=5))
    assert len(trace) == 5
    assert len(norms) == 5 + 1


# sha256 of every trace column but ``seconds`` (the wall clock) at the
# defaults below, per method
PINNED_COLUMNS = tuple(f.name for f in dataclasses.fields(TraceRecord) if f.name != "seconds")
TRACE_DIGESTS = {
    "bca": "1f326620afcc0c736eada5bd0fc74593979823db6b084499260b34c3021f0328",
    "bcaf": "9c554b7131b74797c017f8a43fffe2293271ff7d5d2a5844180bb507a037cee7",
    "tvl2": "a2a0a06a69f885f726ccbec211b7982fafad1cf8e5b592554f44860b1679b1ca",
    "tvkl": "aa9c53296f31b424f05ba8eebfd1471c4545aa5bc5985b40398b2b7c7b4057d4",
}


@pytest.mark.parametrize("method, iters, digest", [
    ("bca", 148, "1cc36efd622bd71b26910021a02b733e4a289df6341dfb322f9e9fa8390c01ec"),
    ("bcaf", 150, "7b6a175b4c815df8420117679574cd3880436740826aab012010f8422ae65de2"),
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


@pytest.mark.parametrize("method, iters, u_digest, trace_digest", [
    ("bca", 103, "71049155d9ccb08c735136babefa7058982b409efe23f9294612bb647720ca31",
     "227e7b26dfdcfcf0c0314753d81b715b9e9ea72ecdb77ab1696d4da8949cbc7f"),
    ("bcaf", 200, "e61501a9e6d26fd16a857edde23e65921ec48e4d06fcc037bd21b4e375ed4bd0",
     "3c751579a70e2baa38c10c88a97dfba77c9604288fb7f1090b0dd84dafce6310"),
])
def test_distinct_penalties_bytes_are_pinned(method, iters, u_digest, trace_digest):
    f = corrupt(make_phantom("circles", 32, 32), NoiseSpec(eta=4.0, sigma=1e-2, seed=3))
    u, trace = run_method(method, f, SPLIT_PENALTIES)
    assert len(trace) == iters
    assert hashlib.sha256(u.tobytes()).hexdigest() == u_digest
    rows = [tuple(getattr(r, c) for c in PINNED_COLUMNS) for r in trace]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == trace_digest


@pytest.mark.parametrize("method, unread, read", [
    ("bca", {"alpha_w": 77.0, "alpha_p": 13.0}, {"alpha": 90.0}),
    ("bcaf", {"alpha": 7.0}, {"alpha_w": 150.0}),
], ids=["bca", "bcaf"])
def test_each_split_reads_only_its_own_penalty(method, unread, read):
    """``bca`` runs at ``alpha`` alone, ``bcaf`` at ``alpha_w`` and
    ``alpha_p``: the bytes and every trace column but ``seconds`` follow
    the penalties a method reads and no other."""
    f = corrupt(make_phantom("circles", 32, 32), NoiseSpec(eta=4.0, sigma=1e-2, seed=3))

    def run(**changes):
        u, trace = run_method(method, f, dataclasses.replace(SPLIT_PENALTIES, max_iters=30, **changes))
        return u.tobytes(), [tuple(getattr(r, c) for c in PINNED_COLUMNS) for r in trace]

    base = run()
    assert run(**unread) == base
    assert run(**read) != base


@pytest.mark.parametrize("method, u_digest, trace_digest", [
    ("bca", "e23838a0bdc755523b7dd27e50303da48b6b81caddd2d214d2527e6f988efeba",
     "c2c5464dd513e7eaa8acecea4d8ee595f4bcc64018da77e527c57bc90cfab60b"),
    ("bcaf", "9ebefe4b3fc87d6c29caedcc0404e4a62bca234249860ec6a1d800141d8961c0",
     "48ac0c3815a42849dda3fc2243204af8f8cf54769adb3f8245b63d7b0203c27a"),
])
def test_large_single_image_bytes_are_pinned(method, u_digest, trace_digest):
    """A 192x192 single image keeps these bytes on one usable core and on
    two (CI runs this file under both)."""
    truth = make_phantom("circles", 192, 192)
    f = corrupt(truth, NoiseSpec(eta=4.0, sigma=1e-4, seed=1))
    u, trace = run_method(method, f, SolverConfig(lambda1=8.0, lambda2=2.5, max_iters=12), truth)
    assert hashlib.sha256(u.tobytes()).hexdigest() == u_digest
    rows = [tuple(getattr(r, c) for c in PINNED_COLUMNS) for r in trace]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == trace_digest
