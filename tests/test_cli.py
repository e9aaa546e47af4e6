"""End-to-end tests of the ``mpg`` command line, driven through ``main(argv)``."""

import textwrap

import numpy as np
import pytest

import mpgdenoise.solvers as solvers
from mpgdenoise.cli import main
from mpgdenoise.fileio import TRACE_HEADER, read_image, read_trace, write_image
from mpgdenoise.grid import DomainError
from mpgdenoise.noise import NoiseSpec, corrupt, make_phantom
from mpgdenoise.solvers import SolverConfig, bca_solve, bcaf_solve, tv_kl_solve, tv_l2_solve


def make_noisy(tmp_path, name="noisy.dat", kind="flat", eta=4.0, sigma=1e-2, seed=3):
    truth = make_phantom(kind, 16, 16)
    f = corrupt(truth, NoiseSpec(eta=eta, sigma=sigma, seed=seed))
    p = tmp_path / name
    write_image(p, f)
    return p, truth, f


def test_phantom_command_matches_library(tmp_path):
    out = tmp_path / "clean.dat"
    assert main(["phantom", "--kind", "circles", "--width", "24",
                 "--height", "16", "-o", str(out)]) == 0
    assert np.array_equal(read_image(out), make_phantom("circles", 24, 16))


def test_corrupt_command_matches_library(tmp_path):
    clean = tmp_path / "clean.dat"
    u = make_phantom("ramp", 16, 16)
    write_image(clean, u)
    out = tmp_path / "noisy.dat"
    argv = ["corrupt", "--input", str(clean), "--eta", "4", "--sigma", "1e-2",
            "--seed", "7", "-o", str(out)]
    assert main(argv) == 0
    want = corrupt(u, NoiseSpec(eta=4.0, sigma=1e-2, seed=7))
    assert np.array_equal(read_image(out), want)  # float text is bit-exact
    out2 = tmp_path / "noisy2.dat"
    assert main(["corrupt", "--input", str(clean), "--eta", "4", "--sigma", "1e-2",
                 "--seed", "8", "-o", str(out2)]) == 0
    assert not np.array_equal(read_image(out2), want)


def test_corrupt_from_phantom_near_noiseless(tmp_path):
    out = tmp_path / "noisy.dat"
    assert main(["corrupt", "--phantom", "flat", "--width", "16", "--height", "16",
                 "--eta", "1e9", "-o", str(out)]) == 0
    assert np.max(np.abs(read_image(out) - make_phantom("flat", 16, 16))) < 1e-3


def test_denoise_with_truth_and_trace(tmp_path, capsys):
    noisy, truth, _ = make_noisy(tmp_path)
    truth_path = tmp_path / "truth.dat"
    write_image(truth_path, truth)
    out = tmp_path / "out.dat"
    trace_path = tmp_path / "trace.csv"
    argv = ["denoise", "--input", str(noisy), "--solver", "bca", "-o", str(out),
            "--trace", str(trace_path), "--truth", str(truth_path)]
    assert main(argv) == 0
    assert read_image(out).shape == (16, 16)

    records, header = read_trace(trace_path)
    assert header["solver"] == "bca"
    assert header["lambda1"] == "8" and header["alpha"] == "200"
    assert header["inner_iters"] == "2"  # bca's own depth; the baselines keep 10
    assert all(r.snr is not None for r in records)
    last = records[-1]
    assert last.se <= 5e-4 or last.iter == 1000
    line = capsys.readouterr().out
    assert line.startswith("bca:") and "snr=" in line and "ssim=" in line


@pytest.mark.parametrize("solver", ["tvl2", "tvkl"])
def test_denoise_zero_reconstruction_leaves_snr_blank(tmp_path, capsys, solver):
    """A solve that converges to an identically zero u has no SNR, and is no
    failure: the summary and the trace leave the SNR out."""
    zeros = tmp_path / "zeros.dat"
    write_image(zeros, np.zeros((16, 16)))
    trace_path = tmp_path / "trace.csv"
    assert main(["denoise", "--input", str(zeros), "--solver", solver, "--truth", str(zeros),
                 "-o", str(tmp_path / "out.dat"), "--trace", str(trace_path)]) == 0
    assert not np.any(read_image(tmp_path / "out.dat"))
    records, _ = read_trace(trace_path)
    assert records and all(r.snr is None for r in records)
    line = capsys.readouterr().out
    assert line.startswith(f"{solver}:") and "snr=" not in line and "ssim=" in line


def test_denoise_without_truth_leaves_snr_blank(tmp_path, capsys):
    noisy, _, _ = make_noisy(tmp_path)
    out = tmp_path / "out.dat"
    trace_path = tmp_path / "trace.csv"
    assert main(["denoise", "--input", str(noisy), "--solver", "bcaf",
                 "-o", str(out), "--trace", str(trace_path)]) == 0
    records, header = read_trace(trace_path)
    assert all(r.snr is None for r in records)
    assert header["solver"] == "bcaf"
    assert "snr=" not in capsys.readouterr().out
    # the CSV header row is the stable schema
    with open(trace_path) as fh:
        rows = [line for line in fh if not line.startswith("#")]
    assert rows[0].strip() == ",".join(TRACE_HEADER)


def test_denoise_matches_library_for_every_method(tmp_path):
    # heavy Gaussian noise puts negative samples in the input, which tvkl
    # must see clamped to zero
    noisy, truth, f = make_noisy(tmp_path, kind="circles", sigma=0.3)
    assert np.min(f) < 0.0
    cfg = SolverConfig(lambda1=8.0, lambda2=2.5, max_iters=15)
    want = {
        "bca": bca_solve(f, cfg),
        "bcaf": bcaf_solve(f, cfg),
        "tvl2": tv_l2_solve(f, 8.0, cfg),
        "tvkl": tv_kl_solve(np.maximum(f, 0.0), 2.5, cfg),
    }
    for solver, (u, trace) in want.items():
        out = tmp_path / f"{solver}.dat"
        trace_path = tmp_path / f"{solver}.csv"
        assert main(["denoise", "--input", str(noisy), "--solver", solver, "--max-iters", "15",
                     "-o", str(out), "--trace", str(trace_path)]) == 0
        assert read_image(out).tobytes() == u.tobytes(), solver
        records, _ = read_trace(trace_path)
        assert [r.lagrangian for r in records] == [r.lagrangian for r in trace], solver


def test_trace_header_key_order(tmp_path):
    noisy, _, _ = make_noisy(tmp_path)
    trace_path = tmp_path / "t.csv"
    assert main(["denoise", "--input", str(noisy), "--solver", "bcaf", "--max-iters", "3",
                 "-o", str(tmp_path / "o.dat"), "--trace", str(trace_path)]) == 0
    _, header = read_trace(trace_path)
    assert list(header) == [
        "command", "solver", "input", "lambda1", "lambda2", "alpha", "alpha_w",
        "alpha_p", "epsilon", "xi", "max_iters", "inner_iters",
    ]
    assert [header[k] for k in ("alpha_p", "epsilon", "xi", "max_iters")] == [
        "50", "1e-06", "0.0005", "3",
    ]


def test_denoise_baselines_run(tmp_path):
    noisy, _, _ = make_noisy(tmp_path)
    for solver, flag, value in (("tvl2", "--lambda1", "3"), ("tvkl", "--lambda2", "3")):
        out = tmp_path / f"{solver}.dat"
        trace_path = tmp_path / f"{solver}.csv"
        assert main(["denoise", "--input", str(noisy), "--solver", solver,
                     flag, value, "-o", str(out), "--trace", str(trace_path),
                     "--max-iters", "40"]) == 0
        records, header = read_trace(trace_path)
        assert header["inner_iters"] == "10"
        assert records[0].min_w is None


def test_denoise_config_precedence(tmp_path):
    noisy, _, _ = make_noisy(tmp_path)
    ini = tmp_path / "solver.ini"
    ini.write_text(textwrap.dedent("""\
        [solver]
        lambda1 = 3
        xi = 1e-3
    """))
    trace_path = tmp_path / "t.csv"
    assert main(["denoise", "--input", str(noisy), "--solver", "bca",
                 "--spec", str(ini), "--lambda1", "5",
                 "-o", str(tmp_path / "o.dat"), "--trace", str(trace_path)]) == 0
    _, header = read_trace(trace_path)
    assert header["lambda1"] == "5"       # flag beats spec file
    assert header["xi"] == "0.001"        # spec file beats default
    assert header["lambda2"] == "2.5"     # untouched default
    assert header["inner_iters"] == "2"   # bca's own depth
    assert main(["denoise", "--input", str(noisy), "--solver", "bca", "--inner-iters", "10",
                 "-o", str(tmp_path / "o.dat"), "--trace", str(trace_path)]) == 0
    assert read_trace(trace_path)[1]["inner_iters"] == "10"  # an explicit depth wins


def test_exit_codes_for_bad_usage(tmp_path, capsys):
    noisy, _, _ = make_noisy(tmp_path)
    out = str(tmp_path / "o.dat")
    assert main([]) == 1                                            # no command
    assert main(["denoise", "--input", str(noisy), "--solver", "magic",
                 "-o", out]) == 1                                   # bad choice
    assert main(["corrupt", "--phantom", "flat", "--eta", "-1",
                 "-o", out]) == 1                                   # bad noise level
    assert main(["corrupt", "--phantom", "circles", "--width", "4",
                 "--eta", "4", "-o", out]) == 1                     # phantom too small
    assert main(["phantom", "--width", "4", "-o", out]) == 1
    assert main(["denoise", "--input", str(noisy), "--solver", "bca",
                 "--lambda1", "-3", "-o", out]) == 1                # infeasible config
    err = capsys.readouterr().err
    assert "mpg" in err


def test_exit_codes_for_bad_data(tmp_path, capsys):
    noisy, _, _ = make_noisy(tmp_path)
    out = str(tmp_path / "o.dat")
    assert main(["denoise", "--input", str(tmp_path / "absent.dat"),
                 "--solver", "bca", "-o", out]) == 2
    assert main(["denoise", "--input", str(noisy), "--solver", "bca",
                 "--spec", str(tmp_path / "absent.ini"), "-o", out]) == 2
    assert main(["bench", "--spec", str(tmp_path / "absent.ini")]) == 2
    assert main(["denoise", "--input", str(noisy), "--solver", "bca",
                 "-o", str(tmp_path)]) == 2                         # output is a dir
    bad = tmp_path / "bad.dat"
    bad.write_text("2 2\n1 2 3\n")
    assert main(["denoise", "--input", str(bad), "--solver", "bca", "-o", out]) == 2
    neg = tmp_path / "neg.dat"
    write_image(neg, np.full((8, 8), -0.5))
    assert main(["corrupt", "--input", str(neg), "--eta", "4", "-o", out]) == 2
    ini = tmp_path / "solver.ini"
    ini.write_text("[solver]\nbogus = 1\n")
    assert main(["denoise", "--input", str(noisy), "--solver", "bca",
                 "--spec", str(ini), "-o", out]) == 2
    bad_bench = tmp_path / "bench.ini"
    bad_bench.write_text("[experiment]\n[noise.a]\neta = 4\n[solver.s]\nmethod = bca\nlambda1 = abc\n")
    assert main(["bench", "--spec", str(bad_bench)]) == 2             # malformed lambda
    no_eta = tmp_path / "no_eta.ini"
    no_eta.write_text("[experiment]\n[noise.a]\nsigma = 1\n"
                      "[solver.s]\nmethod = tvl2\nlambda1 = 3\nlambda2 = 1\n")
    assert main(["bench", "--spec", str(no_eta)]) == 2
    tiny = tmp_path / "tiny.ini"
    tiny.write_text("[experiment]\nimage = circles\nwidth = 4\n[noise.a]\neta = 4\n"
                    "[solver.s]\nmethod = tvl2\nlambda1 = 3\nlambda2 = 1\n")
    assert main(["bench", "--spec", str(tiny)]) == 2                  # phantom too small
    err = capsys.readouterr().err
    assert err.count("mpg:") >= 10
    assert f"mpg: {tiny}: phantom dimensions must be at least 8" in err


def test_nonfinite_noise_level_is_named(tmp_path, capsys):
    # a NaN sigma fails in the noise settings, not later as a broken image
    out = str(tmp_path / "o.dat")
    assert main(["corrupt", "--phantom", "flat", "--eta", "4", "--sigma", "nan", "-o", out]) == 1
    assert capsys.readouterr().err == "mpg: sigma must be finite and nonnegative\n"
    assert main(["corrupt", "--phantom", "flat", "--eta", "inf", "-o", out]) == 1
    assert capsys.readouterr().err == "mpg: eta must be finite and positive\n"
    spec = tmp_path / "nan.ini"
    spec.write_text(f"[experiment]\noutput_dir = {tmp_path / 'b'}\n[noise.a]\neta = 4\nsigma = nan\n"
                    "[solver.s]\nmethod = tvl2\nlambda1 = 3\nlambda2 = 1\n")
    assert main(["bench", "--spec", str(spec)]) == 2
    assert capsys.readouterr().err == f"mpg: {spec}: sigma must be finite and nonnegative\n"


@pytest.mark.parametrize("flag", ["xi", "epsilon", "lambda1"])
def test_nonfinite_solver_setting_is_named(tmp_path, capsys, flag):
    # an infinite setting fails in the solver config, not after a solve that
    # stops at once or breaks down
    noisy, _, _ = make_noisy(tmp_path)
    out = tmp_path / "o.dat"
    assert main(["denoise", "--input", str(noisy), "--solver", "bca", f"--{flag}", "inf",
                 "-o", str(out)]) == 1
    assert capsys.readouterr().err == f"mpg: {flag} must be finite and positive\n"
    assert not out.exists()
    spec = tmp_path / "inf.ini"
    spec.write_text(f"[experiment]\noutput_dir = {tmp_path / 'b'}\n[noise.a]\neta = 4\n"
                    f"[solver.s]\nmethod = bca\n{flag} = inf\n")
    assert main(["bench", "--spec", str(spec)]) == 2
    assert capsys.readouterr().err == f"mpg: {spec}: {flag} must be finite and positive\n"


def test_truth_of_another_shape_is_data_error(tmp_path, capsys):
    noisy, _, _ = make_noisy(tmp_path)
    truth = tmp_path / "truth.dat"
    write_image(truth, make_phantom("flat", 16, 8))
    assert main(["denoise", "--input", str(noisy), "--solver", "bca", "--truth", str(truth),
                 "-o", str(tmp_path / "o.dat")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("mpg: ")
    assert str(truth) in err and str(noisy) in err


def test_unwritable_outputs_fail_before_the_solve(tmp_path, capsys, monkeypatch):
    noisy, _, _ = make_noisy(tmp_path)
    calls = []

    def recording_solve(*args, **kwargs):
        calls.append(args)
        return bca_solve(*args, **kwargs)

    monkeypatch.setattr(solvers, "bca_solve", recording_solve)
    out = tmp_path / "o.dat"
    missing = tmp_path / "absent" / "t.csv"
    for argv, path in ((["-o", str(tmp_path)], tmp_path),
                       (["-o", str(out), "--trace", str(missing)], missing)):
        assert main(["denoise", "--input", str(noisy), "--solver", "bca", *argv]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("mpg: ") and str(path) in err
    assert calls == []
    assert not out.exists()  # the check leaves no empty output behind
    # writable paths still reach the solver, and an existing output is replaced
    out.write_text("old")
    assert main(["denoise", "--input", str(noisy), "--solver", "bca", "--max-iters", "2",
                 "-o", str(out), "--trace", str(tmp_path / "t.csv")]) == 0
    assert len(calls) == 1 and read_image(out).shape == (16, 16)


def test_malformed_solver_value_is_data_error(tmp_path, capsys):
    noisy, _, _ = make_noisy(tmp_path)
    ini = tmp_path / "s.ini"
    for body in ("[solver]\nlambda1 = abc\n", "[solver]\nmax_iters = 1e3\n"):
        ini.write_text(body)
        assert main(["denoise", "--input", str(noisy), "--solver", "bca",
                     "--spec", str(ini), "-o", str(tmp_path / "o.dat")]) == 2
        assert capsys.readouterr().err.startswith(f"mpg: {ini}: ")


def test_exit_code_for_solver_failure(tmp_path, capsys, monkeypatch):
    noisy, _, _ = make_noisy(tmp_path)

    def blow_up(f, cfg, truth=None):
        raise DomainError("v entries below the positivity floor")

    monkeypatch.setattr(solvers, "bca_solve", blow_up)  # looked up by the method table
    assert main(["denoise", "--input", str(noisy), "--solver", "bca",
                 "-o", str(tmp_path / "o.dat")]) == 3
    assert "solver failed" in capsys.readouterr().err


def test_bench_command(tmp_path, capsys):
    spec = tmp_path / "exp.ini"
    spec.write_text(textwrap.dedent("""\
        [experiment]
        image = flat
        width = 16
        height = 16
        seeds = 0 1

        [noise.a]
        eta = 4
        sigma = 1e-2

        [solver.s]
        method = tvl2
        lambda1 = 3
        lambda2 = 1
        max_iters = 5
    """))
    out_dir = tmp_path / "results"
    assert main(["bench", "--spec", str(spec), "--output-dir", str(out_dir),
                 "--threads", "1"]) == 0
    csv_path = out_dir / "results.csv"
    assert csv_path.exists()
    assert str(csv_path) in capsys.readouterr().out
    assert len(csv_path.read_text().splitlines()) == 1 + 2 + 1  # header, rows, mean


def test_bench_rejects_empty_seeds(tmp_path, capsys):
    spec = tmp_path / "exp.ini"
    spec.write_text(textwrap.dedent(f"""\
        [experiment]
        image = circles
        width = 16
        height = 16
        seeds =
        output_dir = {tmp_path / "results"}

        [noise.a]
        eta = 4

        [solver.s]
        method = tvl2
        lambda1 = 3
        lambda2 = 1
    """))
    assert main(["bench", "--spec", str(spec)]) == 2
    err = capsys.readouterr().err
    assert err == f"mpg: {spec}: experiment needs at least one seed\n"
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("threads", ["0", "-5"])
def test_bench_rejects_nonpositive_threads(tmp_path, capsys, threads):
    spec = tmp_path / "exp.ini"
    spec.write_text(f"[experiment]\noutput_dir = {tmp_path / 'results'}\n[noise.a]\neta = 4\n"
                    "[solver.s]\nmethod = tvl2\nlambda1 = 3\nlambda2 = 1\n")
    assert main(["bench", "--spec", str(spec), "--threads", threads]) == 1
    assert capsys.readouterr().err == f"mpg: threads must be positive, got {threads}\n"
    assert not (tmp_path / "results").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow warns before the check raises
def test_denoise_overflowing_iterate_exits_3(tmp_path, capsys):
    write_image(tmp_path / "in.txt", 1e160 * make_phantom("circles", 16, 16))
    out, trace = tmp_path / "out.txt", tmp_path / "trace.csv"
    argv = ["denoise", "--input", str(tmp_path / "in.txt"), "--solver", "bcaf", "-o", str(out), "--trace", str(trace)]
    assert main(argv) == 3
    assert "solver failed: iteration 1: the relative step is not finite" in capsys.readouterr().err
    assert not out.exists() and not trace.exists()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "usage" in capsys.readouterr().out.lower()


# ---------------------------------------------------------------------------
# what a command imports: no scipy, which is a test dependency only

SCIPY_MODULES = "sorted(m for m in sys.modules if m.startswith('scipy'))"
COMMAND = f"import sys; from mpgdenoise.cli import main; code = main(sys.argv[1:]); print(code, {SCIPY_MODULES})"


def test_import_loads_no_scipy(fresh_python):
    """scipy costs about 27 MB and 0.35 s at import, and the package needs
    none of it at run time."""
    assert fresh_python(f"import sys, mpgdenoise; print({SCIPY_MODULES})") == "[]"


def test_commands_without_bcaf_load_no_scipy(tmp_path, fresh_python):
    clean, noisy = tmp_path / "clean.txt", tmp_path / "noisy.txt"
    runs = [
        ["phantom", "--kind", "circles", "--width", "32", "--height", "32", "-o", clean],
        ["corrupt", "--input", clean, "--eta", "4", "--sigma", "1e-4", "--seed", "1", "-o", noisy],
    ] + [
        ["denoise", "--input", noisy, "--solver", solver, "--max-iters", "5", "--truth", clean,
         "--trace", tmp_path / f"{solver}.csv", "-o", tmp_path / f"{solver}.txt"]
        for solver in ("bca", "tvl2", "tvkl")
    ]
    for argv in runs:
        assert fresh_python(COMMAND, *argv) == "0 []", argv


def test_bcaf_solve_loads_no_scipy(tmp_path, fresh_python):
    """bcaf's image solve runs its cosine transforms on numpy.fft."""
    noisy, _, _ = make_noisy(tmp_path)
    argv = ["denoise", "--input", noisy, "--solver", "bcaf", "--max-iters", "3", "-o", tmp_path / "out.txt"]
    assert fresh_python(COMMAND, *argv) == "0 []"
