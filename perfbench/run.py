"""Benchmark of the mpgdenoise package: four workloads, end to end and per layer.

Run one workload::

    python3 perfbench/run.py --workload bca-256 --seed 1 --seconds 20 --trace 0

or every workload, each in its own process, with a table of the results::

    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics with tracing off; ``--trace 1``
reports per-layer metrics from a traced run (see ``tracer.py``).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it record the
environment and each metric by name, unit and sample count.  See README.md
for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("bca-256", "bcaf-256", "bench-grid-64", "cli-1024")
THREAD_VARS = ("MPG_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
# set-up is timed this many times per run in fresh processes, on top of the
# run's own set-up, and the median is reported
SETUP_PROBES = 2


class BenchError(Exception):
    """The benchmark cannot run here; reported on stderr with exit code 2."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def check_threads() -> None:
    """Refuse thread settings above the cores this process may use."""
    for var in THREAD_VARS:
        raw = os.environ.get(var, "").strip()
        if not raw:
            continue
        try:
            n = int(raw)
        except ValueError as exc:
            raise BenchError(f"{var}={raw!r} is not an integer") from exc
        if n > nproc():
            raise BenchError(f"{var}={n} exceeds the {nproc()} available cores")


def git_commit() -> str:
    """Commit of the checkout, read from .git without leaving it."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **{var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
        "git_commit": git_commit(),
    }


def import_workloads():
    """Import the package from this checkout's ``src``; time counts as set-up."""
    if not (SRC / "mpgdenoise" / "__init__.py").is_file():
        raise BenchError(f"package source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads


def timed_ops(wl, seconds: float, tracer=None):
    """Run operations until ``seconds`` have passed (at least one).

    Only the operation itself is timed; inspecting its result happens after
    the clock stops and, under tracing, outside the wrappers.
    """
    runs = []
    deadline = time.perf_counter() + seconds
    while True:
        try:
            with tracer or contextlib.nullcontext():
                start = time.perf_counter()
                result = wl.op()
                wall = time.perf_counter() - start
            outcome = wl.inspect(result, wall)
        except Exception as exc:  # noqa: BLE001 - a failing operation is counted, not fatal
            runs.append((None, None, f"{type(exc).__name__}: {exc}"))
        else:
            runs.append((wall, outcome, None))
        if time.perf_counter() >= deadline:
            return runs


def tally(runs, verify_failures) -> tuple[int, int, list[str]]:
    """Attempted and failed operations; an operation whose output differs
    from the first one's is a determinism failure."""
    reasons = []
    failed = 0
    first = next((o.fingerprint for _, o, _ in runs if o is not None), None)
    for i, (_, outcome, error) in enumerate(runs):
        why = [error] if error else list(outcome.failures)
        if outcome is not None and outcome.fingerprint != first:
            why.append("output differs from the first operation's (nondeterminism)")
        why.extend(verify_failures)
        if why:
            failed += 1
            reasons.extend(f"op {i}: {w}" for w in why)
    return len(runs), failed, reasons


def metric(value, unit: str, n: int | None = None) -> dict:
    out = {"value": value, "unit": unit}
    if n is not None:
        out["n"] = n
    return out


def end_to_end(runs, setup_times) -> dict:
    ok = [(wall, o) for wall, o, _ in runs if o is not None]
    walls = [w for w, _ in ok]
    targets = [o.target_s for _, o in ok if o.target_s is not None]
    snrs = [o.snr_db for _, o in ok if math.isfinite(o.snr_db)]
    metrics = {}
    if walls:
        metrics["op_s"] = metric(statistics.median(walls), "s", len(walls))
    if targets:
        metrics["time_to_target_s"] = metric(statistics.median(targets), "s", len(targets))
    if snrs:
        metrics["snr_db"] = metric(snrs[-1], "dB", len(snrs))
    metrics["setup_s"] = metric(statistics.median(setup_times), "s", len(setup_times))
    metrics["peak_rss_mb"] = metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def per_layer(tracer, traced, untraced, threads: int) -> dict:
    """Layer metrics from the traced operations; per operation unless noted.

    Iteration times come from the untraced operations, which are also the
    base of the tracing overhead.  A layer whose function the tracer could
    not find is left out rather than reported as zero.
    """
    ok = [(wall, o) for wall, o, _ in traced if o is not None]
    base = [(wall, o) for wall, o, _ in untraced if o is not None]
    n = max(len(ok), 1)
    busy = sum(w for w, _ in ok) * threads  # thread-seconds available
    calls, secs = tracer.calls, tracer.seconds
    metrics = {}

    def put(name, value, unit, *needs):
        if all(s in tracer.present for s in needs):
            metrics[name] = metric(value, unit)

    def per_call_ms(span):
        return 1000.0 * secs[span] / calls[span] if calls[span] else 0.0

    def under(parent, child):
        return tracer.child_calls[(parent, child)]

    tv, sp = "chambolle.tv_l2_denoise", "screened_poisson.solve"
    put(f"{tv}.calls", calls[tv] / n, "count", tv)
    put(f"{tv}.ms_per_call", per_call_ms(tv), "ms", tv)
    put(f"{tv}.share", secs[tv] / busy if busy else 0.0, "ratio", tv)
    put("chambolle.inner_steps", under(tv, "grid.gradient") / n, "count", tv, "grid.gradient")
    put(f"{sp}.calls", calls[sp] / n, "count", sp)
    put(f"{sp}.ms_per_call", per_call_ms(sp), "ms", sp)
    put(f"{sp}.share", secs[sp] / busy if busy else 0.0, "ratio", sp)
    # one operator application for the initial residual, one per CG iteration
    cg = (under(sp, "grid.laplacian") - calls[sp]) / calls[sp] if calls[sp] else 0.0
    put("screened_poisson.cg_iters_per_call", cg, "count", sp, "grid.laplacian")
    for op in ("gradient", "divergence"):
        span = f"grid.{op}"
        put(f"{span}.calls", calls[span] / n, "count", span)
        put(f"{span}.ms", 1000.0 * secs[span] / n, "ms", span)

    iter_ms = [t for _, o in base for t in o.iter_ms]
    if iter_ms:
        p90 = statistics.quantiles(iter_ms, n=10, method="inclusive")[-1] if len(iter_ms) > 1 else iter_ms[0]
        metrics["solvers.iter_ms_p50"] = metric(statistics.median(iter_ms), "ms", len(iter_ms))
        metrics["solvers.iter_ms_p90"] = metric(p90, "ms", len(iter_ms))
    solve = "solvers.solve"
    steps = ("solvers.u_step", "solvers.v_step", "solvers.w_step", "solvers.p_step", "solvers.multiplier")
    for span in steps:
        put(f"{span}.ms", 1000.0 * secs[span] / n, "ms", span)
    # the baselines call the TV step directly from the solve loop
    step_time = sum(tracer.child_seconds[(solve, s)] for s in steps + (tv,))
    put("solvers.other.share", (secs[solve] - step_time) / secs[solve] if secs[solve] else 0.0, "ratio", solve)
    traces = [[{k: getattr(r, k, None) for k in ("iter", "identity_residual", "constraint_residual")} for r in t] for t in tracer.solver_traces]
    put("solvers.iters", sum(len(t) for t in traces) / n, "count", solve)
    identity = [r["identity_residual"] for t in traces for r in t if r["identity_residual"] is not None]
    put("solvers.identity_residual_max", max(identity, default=0.0), "1", solve)
    finals = [t[-1]["constraint_residual"] for t in traces if t and t[-1]["constraint_residual"] is not None]
    put("solvers.constraint_residual_final", max(finals, default=0.0), "1", solve)

    put("metrics.ssim.ms", 1000.0 * secs["metrics.ssim"] / n, "ms", "metrics.ssim")
    put("metrics.snr.calls", calls["metrics.snr"] / n, "count", "metrics.snr")
    put("metrics.snr.ms", 1000.0 * secs["metrics.snr"] / n, "ms", "metrics.snr")
    put("metrics.objective_H.ms", 1000.0 * secs["metrics.objective_H"] / n, "ms", "metrics.objective_H")

    corrupt = "noise.corrupt"
    put(f"{corrupt}.ms", 1000.0 * secs[corrupt] / n, "ms", corrupt)
    put(f"{corrupt}.mpix_per_s", tracer.pixels[corrupt] / 1e6 / secs[corrupt] if secs[corrupt] else 0.0, "Mpix/s", corrupt)

    writes = ("fileio.write_image", "fileio.write_trace")
    for span in ("fileio.read_image",) + writes:
        put(f"{span}.ms", 1000.0 * secs[span] / n, "ms", span)
    written = sum(o.bytes_written for _, o in ok)
    write_s = sum(secs[s] for s in writes)
    put("fileio.bytes_written", written / n, "B", *writes)
    put("fileio.mb_per_s", written / 1e6 / write_s if write_s else 0.0, "MB/s", *writes)

    metrics["bench.cells_ok"] = metric(sum(o.cells_ok for _, o in ok) / n, "count")
    metrics["bench.worker_busy_frac"] = metric(tracer.top_seconds / busy if busy else 0.0, "ratio")
    for cmd in ("phantom", "corrupt", "denoise"):
        vals = [o.command_s[cmd] for _, o in ok if cmd in o.command_s]
        metrics[f"cli.{cmd}.s"] = metric(statistics.median(vals) if vals else 0.0, "s")
    if ok and base:
        overhead = statistics.median(w for w, _ in ok) / statistics.median(w for w, _ in base) - 1.0
        metrics["trace_overhead_frac"] = metric(overhead, "ratio")
    return metrics


def probe_setup(name: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, import included."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def run_one(args) -> dict:
    start = time.perf_counter()
    check_threads()
    workloads = import_workloads()
    wl = workloads.make(args.workload)
    workdir = HERE / f".work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl.setup(args.seed, workdir)
        setup_s = time.perf_counter() - start
        if args.setup_only:
            return {"setup_s": setup_s}
        print("env " + json.dumps(environment(args.seed)))
        return measure(wl, args.seconds, args.trace, [setup_s], lambda: probe_setup(args.workload, args.seed))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(wl, seconds: float, trace: bool, setup_times, probe=None) -> dict:
    """Time a set-up workload and build the result object."""
    if trace:
        from tracer import Tracer

        untraced = timed_ops(wl, seconds / 2.0)
        tracer = Tracer()
        traced = timed_ops(wl, seconds / 2.0, tracer)
        runs = untraced + traced
        metrics = per_layer(tracer, traced, untraced, wl.threads)
    else:
        runs = timed_ops(wl, seconds)
        metrics = end_to_end(runs, setup_times + ([probe() for _ in range(SETUP_PROBES)] if probe else []))
    try:
        verify_failures = wl.verify()
    except Exception as exc:  # noqa: BLE001 - e.g. files missing after a failed operation
        verify_failures = [f"final check raised {type(exc).__name__}: {exc}"]
    attempted, failed, reasons = tally(runs, verify_failures)
    for reason in reasons[:20]:
        print("FAILED " + reason)
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}" + (f" (n={m['n']})" if "n" in m else ""))
    print(f"failed_frac = {failed / attempted!r} ratio ({failed}/{attempted})")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload in its own process; prints a table and returns all results."""
    print("env " + json.dumps(environment(args.seed)))
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(int(args.trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            raise BenchError(f"{name} exited {proc.returncode}: {proc.stderr.strip()}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        res = results[name]
        print(f"== {name}: correct={res['correct']}")
        for metric_name, m in res["metrics"].items():
            print(f"   {metric_name:40s} {m['value']:>14.6g} {m['unit']}")
        print(f"   {'failed_frac':40s} {res['failed'] / res['attempted']:>14.6g} ratio ({res['failed']}/{res['attempted']})")
    return results


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="time one set-up and exit (used for set-up samples)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run_all(args) if args.workload == "all" else run_one(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
