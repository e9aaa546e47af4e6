"""What the per-iteration trace tells you about a run.

Every solver returns a list of TraceRecord rows.  This script runs the
bilinear-split solver on a noisy phantom and prints the interesting columns:

* se         -- relative step between consecutive image estimates (the
                stopping statistic; the run ends when it falls to xi)
* objective  -- the model value H(u, v) being minimized
* lagrangian -- the solver's augmented Lagrangian (descends once the
                multiplier settles)
* min_w      -- smallest entry of the ratio variable w = u/v; staying well
                above zero is what the convergence theory asks for
* identity   -- max |lam_w .* w - lambda2|: an exact algebraic identity of
                the method, so anything above ~1e-12 flags a broken build

Run:  python demos/convergence_diagnostics.py
"""

from mpgdenoise import NoiseSpec, SolverConfig, alpha_lower_bound, bca_solve, corrupt, make_phantom


def main():
    truth = make_phantom("circles", 64, 64)
    noisy = corrupt(truth, NoiseSpec(eta=4.0, sigma=1e-4, seed=11))
    cfg = SolverConfig(lambda1=8.0, lambda2=2.5, alpha=200.0)
    u, trace = bca_solve(noisy, cfg, truth=truth)

    print(f"{'iter':>5} {'se':>10} {'objective':>12} {'lagrangian':>12} "
          f"{'min_w':>7} {'identity':>10} {'snr':>7}")
    shown = {1, 2, 3, 5, 10, 20, 40, 80, len(trace)}
    for r in trace:
        if r.iter in shown:
            print(f"{r.iter:5d} {r.se:10.3e} {r.objective:12.4f} "
                  f"{r.lagrangian:12.4f} {r.min_w:7.3f} "
                  f"{r.identity_residual:10.2e} {r.snr:7.2f}")

    print()
    print(f"stopped after {len(trace)} iterations (se <= xi = {cfg.xi:g})")
    # c: the smallest ratio entry the run observed
    c = min(r.min_w for r in trace)
    bound = alpha_lower_bound(cfg.lambda2, c, cfg.epsilon)
    print(f"sufficient-penalty condition: alpha = {cfg.alpha:g} vs bound "
          f"{bound:.3g} from observed min w = {c:.3f} -> "
          f"{'met' if cfg.alpha > bound else 'not met'}")
    print("(the bound is sufficient, not necessary -- practical penalties")
    print(" sit far below it and still converge, as this run just did)")


if __name__ == "__main__":
    main()
