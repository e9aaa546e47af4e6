"""Benchmark harness tests: experiment parsing, grid execution, CSV output."""

import csv
import textwrap

import numpy as np
import pytest

import mpgdenoise.bench as bench
import mpgdenoise.solvers as solvers
from mpgdenoise.bench import (
    RESULT_HEADER,
    ExperimentSpec,
    load_experiment,
    run_bench,
)
from mpgdenoise.fileio import FormatError, write_image
from mpgdenoise.metrics import snr
from mpgdenoise.noise import NoiseSpec, corrupt, make_phantom


def write_spec(tmp_path, body, name="exp.ini"):
    p = tmp_path / name
    p.write_text(textwrap.dedent(body))
    return p


GRID_SPEC = """\
    [experiment]
    image = flat
    width = 16
    height = 16
    seeds = 0 1 2
    output_dir = {out}

    [noise.lo]
    eta = 2
    sigma = 1e-4

    [noise.hi]
    eta = 8
    sigma = 1e-2

    [solver.bca]
    method = bca
    lambda1 = 8
    lambda2 = 2.5
    alpha = 200
    max_iters = 6
    inner_iters = 5

    [solver.tvl2]
    method = tvl2
    lambda1 = 3
    max_iters = 6
    lambda2 = 1
"""


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def strip(rows):
    return [{k: v for k, v in r.items() if k != "seconds"} for r in rows]


# ---------------------------------------------------------------------------
# experiment parsing


def test_load_experiment_fields(tmp_path):
    p = write_spec(tmp_path, GRID_SPEC.format(out=tmp_path / "out"))
    spec = load_experiment(p)
    assert spec.image_source == "flat"
    assert (spec.width, spec.height) == (16, 16)
    assert spec.seeds == [0, 1, 2]
    assert [n.eta for n in spec.noise] == [2.0, 8.0]
    assert [n.sigma for n in spec.noise] == [1e-4, 1e-2]
    labels = [label for label, _, _ in spec.solvers]
    methods = [m for _, m, _ in spec.solvers]
    assert labels == ["bca", "tvl2"]
    assert methods == ["bca", "tvl2"]
    cfg = spec.solvers[0][2]
    assert (cfg.lambda1, cfg.lambda2, cfg.alpha) == (8.0, 2.5, 200.0)
    assert cfg.max_iters == 6
    assert cfg.chambolle.inner_iters == 5


def test_defaults_for_omitted_experiment_keys(tmp_path):
    p = write_spec(tmp_path, """\
        [experiment]

        [noise.a]
        eta = 4

        [solver.s]
        method = tvl2
        lambda1 = 3
        lambda2 = 1
    """)
    spec = load_experiment(p)
    assert spec.image_source == "circles"
    assert (spec.width, spec.height) == (64, 64)
    assert spec.seeds == [0]
    assert spec.noise[0].sigma == 0.0
    assert spec.output_dir == "bench_out"


def test_sweep_expands_into_labelled_cells(tmp_path):
    p = write_spec(tmp_path, """\
        [experiment]
        [noise.a]
        eta = 4
        [solver.bca]
        method = bca
        lambda1 = 8
        lambda2 = 2.5
        alpha = 20 200 2000
    """)
    spec = load_experiment(p)
    assert [label for label, _, _ in spec.solvers] == [
        "bca-alpha20", "bca-alpha200", "bca-alpha2000",
    ]
    assert [c.alpha for _, _, c in spec.solvers] == [20.0, 200.0, 2000.0]
    # un-swept fields are shared across the expansion
    assert all(c.lambda1 == 8.0 for _, _, c in spec.solvers)


def test_sweep_rejects_two_swept_fields(tmp_path):
    p = write_spec(tmp_path, """\
        [experiment]
        [noise.a]
        eta = 4
        [solver.bca]
        method = bca
        lambda1 = 8 16
        lambda2 = 2.5 5
    """)
    with pytest.raises(ValueError):
        load_experiment(p)


def test_solver_section_validation(tmp_path):
    missing_method = """\
        [experiment]
        [noise.a]
        eta = 4
        [solver.s]
        lambda1 = 8
    """
    unknown_key = """\
        [experiment]
        [noise.a]
        eta = 4
        [solver.s]
        method = bca
        lambda1 = 8
        lambda2 = 2.5
        bogus = 7
    """
    for body in (missing_method, unknown_key):
        with pytest.raises(ValueError):
            load_experiment(write_spec(tmp_path, body))


def test_missing_experiment_section(tmp_path):
    p = write_spec(tmp_path, "[noise.a]\neta = 4\n")
    with pytest.raises(FormatError):
        load_experiment(p)
    with pytest.raises(FormatError):
        load_experiment(tmp_path / "absent.ini")


def test_spec_needs_noise_and_solvers(tmp_path):
    with pytest.raises(ValueError):
        ExperimentSpec("flat", 16, 16, noise=[], solvers=[("s", "tvl2", None)],
                       seeds=[0], output_dir="x")
    with pytest.raises(ValueError):
        ExperimentSpec("flat", 16, 16, noise=[NoiseSpec(eta=4.0, sigma=0.0)],
                       solvers=[], seeds=[0], output_dir="x")


# ---------------------------------------------------------------------------
# running the grid


def test_grid_rows_and_aggregates(tmp_path):
    spec = load_experiment(write_spec(tmp_path, GRID_SPEC.format(out=tmp_path / "out")))
    path = run_bench(spec, threads=1)
    assert path == tmp_path / "out" / "results.csv"
    rows = read_rows(path)
    assert list(rows[0].keys()) == RESULT_HEADER
    data, aggs = rows[:12], rows[12:]
    assert len(aggs) == 4
    # fixed ordering: noise outer, solver mid, seed inner
    key = [(r["eta"], r["solver"], r["seed"]) for r in data]
    assert key == [
        (eta, s, str(seed))
        for eta in ("2", "8")
        for s in ("bca", "tvl2")
        for seed in (0, 1, 2)
    ]
    for r in data:
        assert r["status"] == "ok"
        assert r["image"] == "flat"
        assert 1 <= int(r["iters"]) <= 6
        float(r["snr"]), float(r["ssim"]), float(r["seconds"])  # all filled
    # aggregates: one per (noise, solver), seed column says 'mean'
    assert [(r["eta"], r["solver"]) for r in aggs] == [
        ("2", "bca"), ("2", "tvl2"), ("8", "bca"), ("8", "tvl2"),
    ]
    for a in aggs:
        assert a["seed"] == "mean"
        assert a["status"] == "ok (3/3)"
    group = [r for r in data if r["eta"] == "2" and r["solver"] == "bca"]
    want = sum(float(r["snr"]) for r in group) / 3.0
    assert aggs[0]["snr"] == f"{want:.6f}"


def test_rows_deterministic_apart_from_timing(tmp_path):
    spec1 = load_experiment(write_spec(tmp_path, GRID_SPEC.format(out=tmp_path / "o1"), "a.ini"))
    spec2 = load_experiment(write_spec(tmp_path, GRID_SPEC.format(out=tmp_path / "o2"), "b.ini"))
    rows1 = read_rows(run_bench(spec1, threads=1))
    rows2 = read_rows(run_bench(spec2, threads=2))
    assert strip(rows1) == strip(rows2)


def test_failing_cell_recorded_not_fatal(tmp_path, monkeypatch):
    def boom(f, cfg, truth=None):
        raise FloatingPointError("diverged")

    # the method table looks solve functions up on the solvers module per call
    monkeypatch.setattr(solvers, "bca_solve", boom)
    spec = load_experiment(write_spec(tmp_path, GRID_SPEC.format(out=tmp_path / "out")))
    rows = read_rows(run_bench(spec, threads=1))
    bad = [r for r in rows if r["solver"] == "bca" and r["seed"] != "mean"]
    good = [r for r in rows if r["solver"] == "tvl2" and r["seed"] != "mean"]
    assert all(r["status"] == "error: diverged" for r in bad)
    assert all(r["snr"] == "" and r["iters"] == "" for r in bad)
    assert all(r["status"] == "ok" for r in good)
    bad_aggs = [r for r in rows if r["solver"] == "bca" and r["seed"] == "mean"]
    assert all(r["status"] == "ok (0/3)" and r["snr"] == "" for r in bad_aggs)


def test_failing_single_seed_cell_is_solved_once(tmp_path, monkeypatch):
    calls = []

    def boom(f, cfg, truth=None):
        calls.append(np.shape(f))
        raise FloatingPointError("diverged")

    monkeypatch.setattr(solvers, "bca_solve", boom)
    body = GRID_SPEC.format(out=tmp_path / "out").replace("seeds = 0 1 2", "seeds = 4")
    rows = read_rows(run_bench(load_experiment(write_spec(tmp_path, body)), threads=1))
    assert calls == [(1, 16, 16)] * 2  # one stack of one per noise level
    assert [r["status"] for r in rows if r["solver"] == "bca"] == ["error: diverged"] * 2 + ["ok (0/1)"] * 2


def test_cell_snr_matches_library_call(tmp_path):
    spec = load_experiment(write_spec(tmp_path, GRID_SPEC.format(out=tmp_path / "out")))
    rows = read_rows(run_bench(spec, threads=1))
    truth = make_phantom("flat", 16, 16)
    f = corrupt(truth, NoiseSpec(eta=8.0, sigma=1e-2, seed=1))
    cfg = solvers.SolverConfig(lambda1=8.0, lambda2=2.5, max_iters=6,
                               chambolle=solvers.ChambolleConfig(inner_iters=5))
    u, trace = solvers.bca_solve(f, cfg, truth=truth)
    cell = next(r for r in rows if (r["eta"], r["solver"], r["seed"]) == ("8", "bca", "1"))
    assert cell["snr"] == f"{snr(u, truth):.6f}"
    assert cell["iters"] == str(trace[-1].iter)


def test_cells_solve_without_truth(tmp_path, monkeypatch):
    """A cell scores its output once, after the solve: the solver gets no
    truth, so it takes no per-iteration SNR, and the rows are those of
    solves that did."""
    original = solvers.bca_solve
    truths = []

    def recording(f, cfg, truth=None):
        truths.extend([truth] * (len(f) if np.ndim(f) == 3 else 1))  # one per image passed
        return original(f, cfg, truth=truth)

    monkeypatch.setattr(solvers, "bca_solve", recording)
    spec = load_experiment(write_spec(tmp_path, GRID_SPEC.format(out=tmp_path / "a"), "a.ini"))
    rows = read_rows(run_bench(spec, threads=1))
    assert len(truths) == 6 and all(t is None for t in truths)

    clean = make_phantom("flat", 16, 16)
    monkeypatch.setattr(solvers, "bca_solve", lambda f, cfg, truth=None: original(f, cfg, truth=clean))
    spec = load_experiment(write_spec(tmp_path, GRID_SPEC.format(out=tmp_path / "b"), "b.ini"))
    assert strip(read_rows(run_bench(spec, threads=1))) == strip(rows)


ALL_METHODS_SPEC = """\
    [experiment]
    image = circles
    width = 16
    height = 12
    seeds = 0 1 2 3 4
    output_dir = {out}

    [noise.lo]
    eta = 4
    sigma = 1e-4

    [noise.hi]
    eta = 16
    sigma = 1e-2

    [solver.bca]
    method = bca
    lambda1 = 8
    lambda2 = 2.5
    xi = 2e-3

    [solver.bcaf]
    method = bcaf
    lambda1 = 8
    lambda2 = 2.5
    xi = 2e-3

    [solver.tvl2]
    method = tvl2
    lambda1 = 3
    lambda2 = 2.5

    [solver.tvkl]
    method = tvkl
    lambda1 = 8
    lambda2 = 2.5
    xi = 2e-3
"""


@pytest.mark.parametrize("threads", [1, 2])
def test_stacked_rows_equal_solo_rows(tmp_path, monkeypatch, threads):
    """The seeds of a group run as stacks of at most STACK_PIXELS pixels; the
    rows, timing aside, are those of solving every cell alone."""
    images = []
    for name in ("bca_solve", "bcaf_solve", "tv_l2_solve", "tv_kl_solve"):
        real = getattr(solvers, name)

        def spy(f, *args, real=real, **kwargs):
            images.append(len(f) if np.ndim(f) == 3 else 1)
            return real(f, *args, **kwargs)

        monkeypatch.setattr(solvers, name, spy)
    rows = {}
    for budget in (3 * 16 * 12, 1):  # stacks of 3 and 2 seeds; every cell alone
        monkeypatch.setattr(bench, "STACK_PIXELS", budget)
        out = tmp_path / f"o{budget}"
        spec = load_experiment(write_spec(tmp_path, ALL_METHODS_SPEC.format(out=out), f"{budget}.ini"))
        rows[budget] = read_rows(run_bench(spec, threads=threads))
    if threads == 1:  # the forked workers' calls are not seen here
        assert images == [3, 2] * 8 + [1] * 40
    assert strip(rows[1]) == strip(rows[3 * 16 * 12])
    assert len(rows[1]) == 40 + 8 and all(r["status"].startswith("ok") for r in rows[1])
    assert len({r["iters"] for r in rows[1] if r["solver"] == "bca" and r["seed"] != "mean"}) > 1


def test_stack_that_fails_for_one_seed_gives_that_cell_an_error_row(tmp_path, monkeypatch):
    """A stack whose solve raises is solved again cell by cell, so only the
    failing cell gets an error row, and the wrapper sees every call."""
    real = solvers.bca_solve
    truth = make_phantom("flat", 16, 16)
    poison = {eta: corrupt(truth, NoiseSpec(eta=eta, sigma=s, seed=1)) for eta, s in ((2.0, 1e-4), (8.0, 1e-2))}
    calls = []

    def fails_for_seed_1(f, cfg, truth=None):
        calls.append(np.shape(f)[:-2])
        if any(np.array_equal(g, bad) for g in np.reshape(f, (-1, 16, 16)) for bad in poison.values()):
            raise FloatingPointError("diverged")
        return real(f, cfg, truth=truth)

    monkeypatch.setattr(solvers, "bca_solve", fails_for_seed_1)
    spec = load_experiment(write_spec(tmp_path, GRID_SPEC.format(out=tmp_path / "out")))
    rows = read_rows(run_bench(spec, threads=1))
    # per noise level: the stack, then each cell as a stack of one
    assert calls == [(3,), (1,), (1,), (1,)] * 2
    status = {(r["eta"], r["solver"], r["seed"]): r["status"] for r in rows}
    for eta in ("2", "8"):
        assert status[(eta, "bca", "1")] == "error: diverged"
        assert status[(eta, "bca", "0")] == status[(eta, "bca", "2")] == "ok"
        assert status[(eta, "bca", "mean")] == "ok (2/3)"
        assert all(status[(eta, "tvl2", seed)] == "ok" for seed in "012")


@pytest.mark.parametrize("stack_pixels, seeds", [(bench.STACK_PIXELS, "0 1 2"), (1, "0 1 2"), (bench.STACK_PIXELS, "4")])
def test_one_diagnostics_call_per_cell(tmp_path, monkeypatch, stack_pixels, seeds):
    """Every cell goes to the solver in a stack, a lone one as a stack of
    one, so it takes the diagnostics of its final record only, not of every
    iteration."""
    calls = []
    real = solvers._columns

    def counting(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(solvers, "_columns", counting)
    monkeypatch.setattr(bench, "STACK_PIXELS", stack_pixels)
    body = GRID_SPEC.format(out=tmp_path / "out").replace("seeds = 0 1 2", f"seeds = {seeds}")
    rows = read_rows(run_bench(load_experiment(write_spec(tmp_path, body)), threads=1))
    cells = [r for r in rows if r["seed"] != "mean"]
    assert len(cells) == 4 * len(seeds.split()) and all(r["status"] == "ok" for r in cells)
    assert len(calls) == len(cells)
    assert sum(int(r["iters"]) for r in cells) > 3 * len(cells)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow warns before the check raises
def test_overflowing_cells_are_errors(tmp_path):
    img = tmp_path / "huge.txt"
    write_image(img, 1e160 * make_phantom("circles", 16, 16))
    spec = load_experiment(write_spec(tmp_path, f"""\
        [experiment]
        image = {img}
        seeds = 0 1
        output_dir = {tmp_path / "out"}

        [noise.a]
        eta = 4

        [solver.bcaf]
        method = bcaf
        max_iters = 20
    """))
    *cells, mean = read_rows(run_bench(spec, threads=1))
    assert all(r["status"].startswith("error: iteration 1: the relative step is not finite") for r in cells)
    assert len(cells) == 2 and mean["status"] == "ok (0/2)"


def test_nonfinite_noise_level_names_the_spec(tmp_path):
    p = write_spec(tmp_path, GRID_SPEC.format(out=tmp_path / "out").replace("sigma = 1e-4", "sigma = nan"))
    with pytest.raises(FormatError, match=r"exp\.ini.*sigma must be finite"):
        load_experiment(p)


def test_poisson_baseline_handles_negative_samples(tmp_path):
    # heavy Gaussian noise pushes samples below zero; the harness must still
    # be able to feed them to the nonnegative Poisson fidelity
    spec = load_experiment(write_spec(tmp_path, """\
        [experiment]
        image = flat
        width = 16
        height = 16
        seeds = 0 1
        output_dir = {out}

        [noise.rough]
        eta = 4
        sigma = 0.3

        [solver.kl]
        method = tvkl
        lambda1 = 1
        lambda2 = 3
        max_iters = 8
    """.format(out=tmp_path / "out")))
    rows = read_rows(run_bench(spec, threads=1))
    assert all(r["status"].startswith("ok") for r in rows)
    assert all(r["snr"] != "" for r in rows)


def test_image_file_source(tmp_path):
    rng = np.random.default_rng(0)
    img = tmp_path / "scene.dat"
    write_image(img, 0.2 + 0.6 * rng.random((16, 16)))
    spec = load_experiment(write_spec(tmp_path, """\
        [experiment]
        image = {img}
        seeds = 0
        output_dir = {out}

        [noise.a]
        eta = 4
        sigma = 1e-4

        [solver.s]
        method = tvl2
        lambda1 = 3
        lambda2 = 1
        max_iters = 5
    """.format(img=img, out=tmp_path / "out")))
    rows = read_rows(run_bench(spec, threads=1))
    assert rows[0]["image"] == "scene"
    assert rows[0]["status"] == "ok"


def test_zero_reconstruction_leaves_snr_blank(tmp_path):
    """An all-zero scene without Gaussian noise observes zeros, which the
    baselines return as they are: the SNR is undefined there, not an error."""
    img = tmp_path / "dark.dat"
    write_image(img, np.zeros((16, 16)))
    spec = load_experiment(write_spec(tmp_path, """\
        [experiment]
        image = {img}
        seeds = 0 1
        output_dir = {out}

        [noise.a]
        eta = 4
        sigma = 0

        [solver.tvl2]
        method = tvl2
        max_iters = 5

        [solver.tvkl]
        method = tvkl
        max_iters = 5
    """.format(img=img, out=tmp_path / "out")))
    rows = read_rows(run_bench(spec, threads=1))
    assert [r["status"] for r in rows] == ["ok"] * 4 + ["ok (2/2)"] * 2
    assert all(r["snr"] == "" for r in rows)
    assert all(r["iters"] != "" and r["ssim"] != "" for r in rows)


# ---------------------------------------------------------------------------
# worker count resolution


@pytest.mark.parametrize("threads", [0, -5])
def test_run_bench_rejects_nonpositive_threads_before_any_work(tmp_path, threads):
    spec = load_experiment(write_spec(tmp_path, GRID_SPEC.format(out=tmp_path / "out")))
    with pytest.raises(ValueError, match="threads must be positive"):
        run_bench(spec, threads=threads)
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# worker processes


@pytest.fixture
def pools(monkeypatch):
    """Pretend two usable cores, so the pool path runs on a one-core runner
    too, and record the worker count of every process pool started."""
    started = []
    real = bench.ProcessPoolExecutor

    def spy(max_workers, **kwargs):
        started.append(max_workers)
        return real(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(bench, "_usable_cores", lambda: 2)
    monkeypatch.setattr(bench, "ProcessPoolExecutor", spy)
    return started


SWEEP_SPEC = """\
    [experiment]
    image = circles
    width = 64
    height = 64
    seeds = 0 1
    output_dir = {out}

    [noise.a]
    eta = 4
    sigma = 1e-2

    [solver.bca]
    method = bca
    lambda1 = 8
    lambda2 = 2.5
    alpha = 20 200 2000
    max_iters = 8

    [solver.tvl2]
    method = tvl2
    lambda1 = 3
    lambda2 = 1
    max_iters = 8
"""


def test_pool_rows_match_serial_with_sweep_and_failure(tmp_path, monkeypatch, pools):
    real = solvers.bca_solve

    def fails_at_alpha_200(f, cfg, truth=None):
        if cfg.alpha == 200.0:
            raise FloatingPointError("diverged")
        return real(f, cfg, truth)

    monkeypatch.setattr(solvers, "bca_solve", fails_at_alpha_200)
    rows = {}
    for n in (1, 2):
        spec = load_experiment(write_spec(tmp_path, SWEEP_SPEC.format(out=tmp_path / f"o{n}"), f"{n}.ini"))
        rows[n] = read_rows(run_bench(spec, threads=n))
    assert pools == [2]  # the serial run starts no pool
    assert strip(rows[1]) == strip(rows[2])
    status = {(r["solver"], r["seed"]): r["status"] for r in rows[2]}
    assert status[("bca-alpha200", "0")] == "error: diverged"
    assert status[("bca-alpha200", "mean")] == "ok (0/2)"
    assert status[("bca-alpha2000", "1")] == "ok"
    assert len(rows[2]) == 4 * 2 + 4


def test_workers_capped_at_usable_cores(tmp_path, pools):
    spec = load_experiment(write_spec(tmp_path, GRID_SPEC.format(out=tmp_path / "out")))
    for threads in (None, 500):
        rows = read_rows(run_bench(spec, threads=threads))
        assert all(r["status"].startswith("ok") for r in rows)
    assert pools == [2, 2]                 # all usable cores by default, and never more


def test_serial_without_fork(tmp_path, monkeypatch, pools):
    monkeypatch.setattr(bench.multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    spec = load_experiment(write_spec(tmp_path, GRID_SPEC.format(out=tmp_path / "out")))
    rows = read_rows(run_bench(spec, threads=2))
    assert pools == []
    assert all(r["status"].startswith("ok") for r in rows)
