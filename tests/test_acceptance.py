"""Acceptance gate: eleven end-to-end checks of the promises this library makes.

Each test computes its verdict, prints exactly one line of the form

    ACCEPTANCE C<n> <slug>: PASS/FAIL (measured details)

(visible under ``pytest -s``) and then asserts, so the module doubles as a
runnable checklist.  Tolerances are stated in the docstrings.
"""

import time

import numpy as np
import pytest

from mpgdenoise.chambolle import ChambolleConfig
from mpgdenoise.grid import divergence, gradient, laplacian
from mpgdenoise.metrics import objective_H, snr, ssim
from mpgdenoise.noise import NoiseSpec, corrupt, make_phantom
from mpgdenoise.screened_poisson import solve_screened_poisson
from mpgdenoise.solvers import (
    SolverConfig,
    SolverState,
    alpha_lower_bound,
    bca_solve,
    bca_v_step,
    bca_w_step,
    bcaf_p_step,
    bcaf_solve,
    kl_z_update,
    tv_kl_solve,
    tv_l2_solve,
)

TUNED = dict(lambda1=8.0, lambda2=2.5)


def report(num, slug, ok, details):
    print(f"\nACCEPTANCE C{num} {slug}: {'PASS' if ok else 'FAIL'} ({details})")


@pytest.fixture(scope="module")
def showcase():
    """The tuned 64x64 circles instance shared by several criteria.

    The quadratic baseline uses the same stop rule as the others; it runs at
    a tighter relative-step tolerance so that the cross-method comparison
    reflects the models and not the stopping artifact.
    """
    truth = make_phantom("circles", 64, 64)
    f = corrupt(truth, NoiseSpec(eta=4.0, sigma=1e-4, seed=11))
    bca_u, bca_tr = bca_solve(f, SolverConfig(alpha=200.0, **TUNED), truth=truth)
    bcaf_u, bcaf_tr = bcaf_solve(
        f, SolverConfig(alpha_w=200.0, alpha_p=10.0, **TUNED), truth=truth
    )
    tv_u, tv_tr = tv_l2_solve(
        f, 3.0, SolverConfig(xi=2e-5, max_iters=5000, **TUNED), truth=truth
    )
    return {
        "truth": truth,
        "f": f,
        "noisy_snr": snr(f, truth),
        "bca": (bca_u, bca_tr),
        "bcaf": (bcaf_u, bcaf_tr),
        "tvl2": (tv_u, tv_tr),
    }


def test_c01_multiplier_identity():
    """On 20 random 16x16 problems, every iteration 1..100 of both solvers keeps
    max|lam_w .* w - lambda2| <= 1e-10 * lambda2.  Runtime < 30 s."""
    rng = np.random.default_rng(77)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        f = rng.uniform(0.05, 1.2, (16, 16))
        lam1 = rng.uniform(2.0, 10.0)
        lam2 = rng.uniform(0.5, 3.0)
        alpha = rng.uniform(50.0, 400.0)
        a_p = rng.uniform(5.0, 50.0)
        cfg = SolverConfig(lambda1=lam1, lambda2=lam2, alpha=alpha, alpha_w=alpha,
                           alpha_p=a_p, max_iters=100, xi=1e-300)
        for solve in (bca_solve, bcaf_solve):
            _, tr = solve(f, cfg)
            worst = max(worst, max(r.identity_residual for r in tr) / lam2)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 30.0
    report("01", "multiplier-identity", ok,
           f"worst residual/lambda2 {worst:.2e} vs 1e-10, {elapsed:.1f}s < 30s")
    assert ok


def test_c02_pointwise_updates_match_grid_oracles():
    """1000 random scalar instances each of the v, w, p and z updates agree with
    dense grid-search minimizers of their per-pixel objectives to 1e-4.
    Runtime < 60 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    shape = (20, 25)  # 500 scalar instances per packed image

    # v update: 500 instances on the iteration-1 path (free multiplier) and
    # 500 on the steady path, where lam_w .* w = lambda2 is in force
    cfg = SolverConfig(lambda1=4.0, lambda2=1.5, alpha=5.0)
    worst_v = 0.0
    for mode in ("first", "steady"):
        f = rng.uniform(0.0, 1.0, shape)
        u = rng.uniform(0.0, 1.5, shape)
        w = rng.uniform(0.2, 2.5, shape)
        lam = rng.uniform(-1.0, 1.0, shape) if mode == "first" else cfg.lambda2 / w
        st = SolverState(u=u, v=f.copy(), w=w, lam_w=lam,
                         iters=0 if mode == "first" else 2)
        v = bca_v_step(st, f, cfg)
        coarse = np.arange(cfg.epsilon, 3.0, 1e-4)
        for i in range(shape[0]):
            for j in range(shape[1]):
                def phi(vg):
                    return (0.5 * cfg.lambda1 * (f[i, j] - vg) ** 2
                            - cfg.lambda2 * (vg * np.log(w[i, j]) + vg)
                            + lam[i, j] * vg * w[i, j]
                            + 0.5 * cfg.alpha * (vg * w[i, j] - u[i, j]) ** 2)
                k = int(np.argmin(phi(coarse)))
                assert k < coarse.size - 1  # top of the grid never binds
                fine = np.arange(max(cfg.epsilon, coarse[k] - 2e-4),
                                 coarse[k] + 2e-4, 1e-8)
                worst_v = max(worst_v, abs(v[i, j] - fine[int(np.argmin(phi(fine)))]))

    # w update: 1000 instances
    shape2 = (25, 40)
    v2 = rng.uniform(0.2, 2.0, shape2)
    u2 = rng.uniform(-0.5, 1.5, shape2)
    lam2 = rng.normal(size=shape2)
    st = SolverState(u=u2, v=v2, w=np.ones(shape2), lam_w=lam2, iters=1)
    w_out = bca_w_step(st, cfg)
    coarse = np.arange(1e-4, 20.0, 1e-3)
    worst_w = 0.0
    for i in range(shape2[0]):
        for j in range(shape2[1]):
            def phi(wg):
                return (-cfg.lambda2 * v2[i, j] * np.log(wg)
                        + 0.5 * cfg.alpha
                        * (v2[i, j] * wg + lam2[i, j] / cfg.alpha - u2[i, j]) ** 2)
            k = int(np.argmin(phi(coarse)))
            assert 0 < k < coarse.size - 1
            fine = np.arange(coarse[k] - 2e-3, coarse[k] + 2e-3, 1e-7)
            worst_w = max(worst_w, abs(w_out[i, j] - fine[int(np.argmin(phi(fine)))]))

    # p update: 1000 pixel instances; a zero image with a crafted multiplier
    # makes the shrinkage input equal to a chosen z exactly
    cfgp = SolverConfig(lambda1=1.0, lambda2=1.0, alpha_p=7.0)
    z = rng.normal(size=(2,) + shape2)
    stp = SolverState(u=np.zeros(shape2), v=np.ones(shape2), w=np.ones(shape2),
                      lam_w=np.zeros(shape2), p=np.zeros((2,) + shape2),
                      lam_p=-cfgp.alpha_p * z)
    p = bcaf_p_step(stp, cfgp)

    def zoom(z0, z1, lo0, hi0, lo1, hi1, n=201):
        px = np.linspace(lo0, hi0, n)
        py = np.linspace(lo1, hi1, n)
        gx, gy = np.meshgrid(px, py, indexing="ij")
        obj = np.hypot(gx, gy) + 0.5 * cfgp.alpha_p * ((gx - z0) ** 2 + (gy - z1) ** 2)
        a, b = np.unravel_index(np.argmin(obj), obj.shape)
        return px[a], py[b], (hi0 - lo0) / (n - 1)

    worst_p = 0.0
    for i in range(shape2[0]):
        for j in range(shape2[1]):
            z0, z1 = z[0, i, j], z[1, i, j]
            r = float(np.hypot(z0, z1)) + 0.3
            b0, b1, h = zoom(z0, z1, z0 - r, z0 + r, z1 - r, z1 + r)
            b0, b1, h = zoom(z0, z1, b0 - 2 * h, b0 + 2 * h, b1 - 2 * h, b1 + 2 * h)
            b0, b1, _ = zoom(z0, z1, b0 - 2 * h, b0 + 2 * h, b1 - 2 * h, b1 + 2 * h)
            worst_p = max(worst_p, abs(p[0, i, j] - b0), abs(p[1, i, j] - b1))

    # z update of the Poisson baseline: 1000 instances, zero counts included
    lamz, rho = 2.0, 6.0
    uz = rng.uniform(-0.5, 2.0, 1000)
    muz = rng.uniform(-2.0, 2.0, 1000)
    fz = rng.uniform(0.0, 3.0, 1000)
    fz[::4] = 0.0
    zz = kl_z_update(uz, muz, fz, lamz, rho)
    worst_z = 0.0
    for i in range(1000):
        lo = 1e-4 if fz[i] > 0 else 0.0
        coarse = np.arange(lo, 5.0, 1e-3)

        def phi(zg):
            with np.errstate(divide="ignore", invalid="ignore"):
                pois = np.where(fz[i] > 0.0, zg - fz[i] * np.log(zg), zg)
            return lamz * pois + muz[i] * (zg - uz[i]) + 0.5 * rho * (zg - uz[i]) ** 2

        k = int(np.argmin(phi(coarse)))
        assert k < coarse.size - 1
        fine = np.arange(max(lo, coarse[k] - 2e-3), coarse[k] + 2e-3, 1e-7)
        worst_z = max(worst_z, abs(zz[i] - fine[int(np.argmin(phi(fine)))]))

    elapsed = time.perf_counter() - start
    worst = max(worst_v, worst_w, worst_p, worst_z)
    ok = worst <= 1e-4 and elapsed < 60.0
    report("02", "pointwise-optimality", ok,
           f"worst |closed form - oracle|: v {worst_v:.1e}, w {worst_w:.1e}, "
           f"p {worst_p:.1e}, z {worst_z:.1e} vs 1e-4, {elapsed:.1f}s < 60s")
    assert ok


def test_c03_operators_and_cg():
    """Gradient/divergence adjoint identity to 1e-10 on random grids up to
    64x64; the screened-Poisson solve agrees with a dense direct solve to 1e-7
    max-norm on grids up to 12x12."""
    rng = np.random.default_rng(5)
    worst_adj = 0.0
    shapes = [(64, 64), (1, 1), (1, 64)] + [
        tuple(rng.integers(1, 65, 2)) for _ in range(27)
    ]
    for h, w in shapes:
        u = rng.standard_normal((h, w))
        q = rng.standard_normal((2, h, w))
        a = float(np.sum(gradient(u) * q))
        b = float(np.sum(u * (-divergence(q))))
        worst_adj = max(worst_adj, abs(a - b))

    worst_cg = 0.0
    for h, w in ((5, 9), (8, 8), (12, 12), (1, 7)):
        aw, ap = 4.0, 17.0
        n = h * w
        dense = np.zeros((n, n))
        for k in range(n):
            e = np.zeros(n)
            e[k] = 1.0
            img = e.reshape(h, w)
            dense[:, k] = (aw * img - ap * laplacian(img)).ravel()
        rhs = rng.standard_normal((h, w))
        direct = np.linalg.solve(dense, rhs.ravel()).reshape(h, w)
        iterative = solve_screened_poisson(rhs, aw, ap)
        worst_cg = max(worst_cg, float(np.max(np.abs(iterative - direct))))

    ok = worst_adj <= 1e-10 and worst_cg <= 1e-7
    report("03", "operators-and-cg", ok,
           f"adjoint gap {worst_adj:.2e} vs 1e-10, cg-vs-dense {worst_cg:.2e} vs 1e-7")
    assert ok


def test_c04_smoothed_error_decay():
    """On the 64x64 circles phantom with eta in {1,4} and sigma in {1e-1,1e-4},
    both solvers reach a relative step <= 5e-4 within 1000 iterations and the
    10-iteration moving average of the step sequence is non-increasing
    (slack 1e-12) after iteration 20.  Runtime < 2 min."""
    truth = make_phantom("circles", 64, 64)
    start = time.perf_counter()
    all_stopped = True
    worst_rise = -np.inf
    runs = 0
    for eta in (1.0, 4.0):
        for sigma in (1e-1, 1e-4):
            f = corrupt(truth, NoiseSpec(eta=eta, sigma=sigma, seed=11))
            for solve, cfg in (
                (bca_solve, SolverConfig(alpha=200.0, **TUNED)),
                (bcaf_solve, SolverConfig(alpha_w=200.0, alpha_p=10.0, **TUNED)),
            ):
                _, tr = solve(f, cfg)
                runs += 1
                all_stopped &= tr[-1].se <= 5e-4 and len(tr) <= 1000
                se = np.array([r.se for r in tr])
                ma = np.convolve(se, np.ones(10) / 10.0, mode="valid")
                seg = ma[10:]  # moving-average entries for iterations 20, 21, ...
                worst_rise = max(worst_rise, float(np.max(seg[1:] - seg[:-1])))
    elapsed = time.perf_counter() - start
    ok = all_stopped and worst_rise <= 1e-12 and elapsed < 120.0
    report("04", "smoothed-error-decay", ok,
           f"{runs}/8 runs stopped at se<=5e-4, worst smoothed rise {worst_rise:.1e} "
           f"vs 1e-12, {elapsed:.1f}s < 120s")
    assert ok


def test_c05_denoising_gain(showcase):
    """Tuned 64x64 circles instance: both bilinear solvers gain >= 5 dB SNR over
    the noisy input, and the flux-split result is no more than 0.5 dB below
    the quadratic-fidelity baseline."""
    base = showcase["noisy_snr"]
    s_bca = showcase["bca"][1][-1].snr
    s_bcaf = showcase["bcaf"][1][-1].snr
    s_tv = showcase["tvl2"][1][-1].snr
    ok = (s_bca - base >= 5.0 and s_bcaf - base >= 5.0 and s_bcaf >= s_tv - 0.5)
    report("05", "denoising-gain", ok,
           f"noisy {base:.2f} dB, bca {s_bca:.2f}, bcaf {s_bcaf:.2f}, "
           f"tv-l2 {s_tv:.2f}; gains {s_bca - base:.2f}/{s_bcaf - base:.2f} vs 5.0, "
           f"bcaf-tvl2 {s_bcaf - s_tv:+.2f} vs -0.5")
    assert ok


def test_c06_split_agreement(showcase):
    """With the bilinear penalty equal across the two splittings, converged
    outputs agree to relative L2 <= 1e-2."""
    u1 = showcase["bca"][0]
    u2 = showcase["bcaf"][0]
    rel = float(np.linalg.norm(u1 - u2) / np.linalg.norm(u1))
    ok = rel <= 1e-2
    report("06", "split-agreement", ok, f"relative L2 distance {rel:.2e} vs 1e-2")
    assert ok


def test_c07_lagrangian_descent_at_safe_penalty():
    """With the penalty set to twice the sufficient bound computed from the
    observed minimum of w, the augmented Lagrangian is non-increasing
    (relative tolerance 1e-8) from the first recorded iteration onward, on 10
    random 16x16 problems."""
    rng = np.random.default_rng(101)
    worst = -np.inf
    for _ in range(10):
        f = rng.uniform(0.05, 1.2, (16, 16))
        lam1 = rng.uniform(2.0, 10.0)
        lam2 = rng.uniform(0.5, 3.0)
        pilot = SolverConfig(lambda1=lam1, lambda2=lam2, alpha=200.0,
                             max_iters=80, xi=1e-300)
        _, tr = bca_solve(f, pilot)
        c = min(r.min_w for r in tr)
        alpha = 2.0 * alpha_lower_bound(lam2, c, pilot.epsilon)
        cfg = SolverConfig(lambda1=lam1, lambda2=lam2, alpha=alpha, max_iters=60,
                           xi=1e-300, chambolle=ChambolleConfig(inner_iters=30))
        _, tr2 = bca_solve(f, cfg)
        L = [r.lagrangian for r in tr2]
        worst = max(worst, max(
            (L[i] - L[i - 1]) - 1e-8 * abs(L[i - 1]) for i in range(1, len(L))
        ))
    ok = worst <= 0.0
    report("07", "lagrangian-descent", ok,
           f"worst increment beyond 1e-8 relative slack: {worst:.2e} vs 0")
    assert ok


def test_c08_ratio_floor_monitor(showcase):
    """On the tuned showcase run the per-iteration minimum of w never falls
    below 0.05, and the trace reports it every iteration."""
    mins = []
    for key in ("bca", "bcaf"):
        tr = showcase[key][1]
        assert all(r.min_w is not None for r in tr)
        mins.append(min(r.min_w for r in tr))
    ok = min(mins) >= 0.05
    report("08", "ratio-floor", ok,
           f"min over both traces {min(mins):.3f} vs 0.05, reported every iteration")
    assert ok


def test_c09_parameter_robustness(showcase):
    """Final SNR moves <= 1.0 dB while the penalty sweeps {20,63,200,632,2000}
    and <= 0.2 dB while the positivity floor sweeps {1e-10..1e-2} on the
    showcase instance.  The penalty sweep runs at a tighter stop (xi 2e-5,
    cap 5000): at the default stop the spread measures how early each run
    quits, not where the model lands."""
    f = showcase["f"]
    truth = showcase["truth"]
    alpha_snr = []
    for alpha in (20.0, 63.0, 200.0, 632.0, 2000.0):
        cfg = SolverConfig(alpha=alpha, xi=2e-5, max_iters=5000, **TUNED)
        _, tr = bca_solve(f, cfg, truth=truth)
        alpha_snr.append(tr[-1].snr)
    eps_snr = []
    for eps in (1e-10, 1e-8, 1e-6, 1e-4, 1e-2):
        cfg = SolverConfig(alpha=200.0, epsilon=eps, **TUNED)
        _, tr = bca_solve(f, cfg, truth=truth)
        eps_snr.append(tr[-1].snr)
    a_spread = max(alpha_snr) - min(alpha_snr)
    e_spread = max(eps_snr) - min(eps_snr)
    ok = a_spread <= 1.0 and e_spread <= 0.2
    report("09", "parameter-robustness", ok,
           f"penalty-sweep spread {a_spread:.3f} dB vs 1.0, "
           f"floor-sweep spread {e_spread:.4f} dB vs 0.2")
    assert ok


def test_c10_inner_depth_insensitivity(showcase):
    """Final SNR with 10 inner dual-projection iterations per image update is
    within 0.2 dB of 100 on the showcase instance."""
    f = showcase["f"]
    truth = showcase["truth"]
    out = {}
    for inner in (10, 100):
        cfg = SolverConfig(alpha=200.0, chambolle=ChambolleConfig(inner_iters=inner),
                           **TUNED)
        _, tr = bca_solve(f, cfg, truth=truth)
        out[inner] = tr[-1].snr
    diff = abs(out[10] - out[100])
    ok = diff <= 0.2
    report("10", "inner-depth", ok,
           f"snr(inner=10) {out[10]:.3f} vs snr(inner=100) {out[100]:.3f}, "
           f"|diff| {diff:.4f} dB vs 0.2")
    assert ok


def test_c11_metric_anchors():
    """snr(2*ones, ones) = -10*log10(0.25) to 1e-9; ssim(x, x) = 1 to 1e-12;
    the model objective vanishes on a matched constant to 1e-12."""
    u = np.full((8, 8), 2.0)
    t = np.ones((8, 8))
    d_snr = abs(snr(u, t) - (-10.0 * np.log10(0.25)))
    x = np.random.default_rng(3).random((16, 16))
    d_ssim = abs(ssim(x, x) - 1.0)
    c = np.full((8, 8), 0.7)
    d_obj = abs(objective_H(c, c, c, SolverConfig(lambda1=3.0, lambda2=1.5)))
    ok = d_snr <= 1e-9 and d_ssim <= 1e-12 and d_obj <= 1e-12
    report("11", "metric-anchors", ok,
           f"snr gap {d_snr:.1e} vs 1e-9, self-ssim gap {d_ssim:.1e} vs 1e-12, "
           f"constant objective {d_obj:.1e} vs 1e-12")
    assert ok
