"""The four benchmark workloads.

Each workload prepares its inputs from a seed (``setup``), runs one timed
operation through the package's public entry points (``op``), turns the
result into an :class:`Outcome` outside the timed region (``inspect``) and,
once at the end of a run, checks the files or arrays it can only afford to
check once (``verify``).

The end-to-end code calls only ``make_phantom``, ``corrupt``, ``bca_solve``,
``bcaf_solve``, ``load_experiment``/``run_bench``, ``cli.main``, ``snr`` and
``ssim``; it builds ``SolverConfig`` from ``lambda1``/``lambda2`` alone and
reads only the trace fields ``iter``, ``seconds``, ``snr`` and
``identity_residual``, any of which may be ``None``.  Functions are looked up
on the package at call time so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import mpgdenoise as mpg
from mpgdenoise import cli

IDENTITY_TOL = 1e-10
LAMBDA1 = 8.0
LAMBDA2 = 2.5


@dataclass
class Outcome:
    """What one operation produced, reduced to what the report needs."""

    fingerprint: str  # digest of the output; equal inputs must give equal digests
    snr_db: float
    target_s: float | None  # None: the SNR target was never reached
    iter_ms: list[float]
    failures: list[str] = field(default_factory=list)
    cells_ok: int = 0
    command_s: dict = field(default_factory=dict)
    bytes_written: int = 0


def trace_fields(rec) -> dict:
    """The four trace fields the benchmark relies on, ``None`` when missing."""
    return {k: getattr(rec, k, None) for k in ("iter", "seconds", "snr", "identity_residual")}


def iteration_ms(rows) -> list[float]:
    """Per-iteration times from the cumulative ``seconds`` of trace rows."""
    out = []
    prev = 0.0
    for row in rows:
        sec = row["seconds"]
        if sec is None:
            continue
        out.append(1000.0 * (sec - prev))
        prev = sec
    return out


def gate_rows(rows, target_db) -> tuple[float | None, list[str]]:
    """Time at which the trace first reaches ``target_db``, and row failures."""
    failures = []
    worst = max((r["identity_residual"] for r in rows if r["identity_residual"] is not None), default=None)
    if worst is not None and not worst <= IDENTITY_TOL:
        failures.append(f"identity residual {worst:.3g} above {IDENTITY_TOL:g}")
    target_s = next(
        (r["seconds"] for r in rows if r["snr"] is not None and r["snr"] >= target_db and r["seconds"] is not None),
        None,
    )
    if target_s is None:
        failures.append(f"SNR target {target_db} dB not reached")
    return target_s, failures


def digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


class SolveWorkload:
    """One 256x256 ``circles`` solve through ``bca_solve`` or ``bcaf_solve``.

    ``bca`` spends most of its time in the Chambolle TV dual loop and never
    calls the screened-Poisson solver; ``bcaf`` is the reverse.  The pair
    lets a change to one layer show on one workload and stay flat on the other.
    """

    threads = 1

    def __init__(self, solver: str, size: int = 256, target_db: float = 18.0):
        self.solver = solver
        self.size = size
        self.target_db = target_db

    def setup(self, seed: int, workdir: Path) -> None:
        self.truth = mpg.make_phantom("circles", self.size, self.size)
        self.f = mpg.corrupt(self.truth, mpg.NoiseSpec(eta=4.0, sigma=1e-4, seed=seed))
        self.cfg = mpg.SolverConfig(lambda1=LAMBDA1, lambda2=LAMBDA2)
        small = mpg.make_phantom("circles", 32, 32)
        warm = mpg.corrupt(small, mpg.NoiseSpec(eta=4.0, sigma=1e-4, seed=seed))
        getattr(mpg, self.solver)(warm, self.cfg, truth=small)

    def op(self):
        return getattr(mpg, self.solver)(self.f, self.cfg, truth=self.truth)

    def inspect(self, result, wall: float) -> Outcome:
        u, trace = result
        u = np.asarray(u, dtype=np.float64)
        rows = [trace_fields(r) for r in trace]
        target_s, failures = gate_rows(rows, self.target_db)
        snr_db = math.nan
        if not np.all(np.isfinite(u)):
            failures.append("non-finite output")
        else:
            snr_db = mpg.snr(u, self.truth)
            noisy_db = mpg.snr(self.f, self.truth)
            if not snr_db > noisy_db:
                failures.append(f"output SNR {snr_db:.3f} dB not above the input's {noisy_db:.3f} dB")
        return Outcome(digest(u.tobytes()), snr_db, target_s, iteration_ms(rows), failures)

    def verify(self) -> list[str]:
        return []


GRID_INI = """\
[experiment]
image = circles
width = {size}
height = {size}
seeds = {seeds}
output_dir = {out}

[noise.low]
eta = 4
sigma = 1e-4

[noise.high]
eta = 16
sigma = 1e-2

[solver.bca]
method = bca
lambda1 = 8
lambda2 = 2.5

[solver.bcaf]
method = bcaf
lambda1 = 8
lambda2 = 2.5

[solver.tvl2]
method = tvl2
lambda1 = 3
lambda2 = 2.5

[solver.tvkl]
method = tvkl
lambda1 = 8
lambda2 = 2.5
"""

GRID_WARMUP_INI = """\
[experiment]
image = circles
width = 32
height = 32
seeds = 0
output_dir = {out}

[noise.low]
eta = 4
sigma = 1e-4

[solver.bca]
method = bca
lambda1 = 8
lambda2 = 2.5
"""


class GridWorkload:
    """``load_experiment`` + ``run_bench`` on 32 cells of 64x64 images.

    Many short solves of all four methods, run on ``min(2, nproc)`` worker
    threads: fixed per-iteration cost, diagnostics and thread contention
    weigh more here than on the single large solves.
    """

    NOISE = ((4.0, 1e-4), (16.0, 1e-2))
    SEEDS_PER_RUN = 4

    def __init__(self, size: int = 64, gain_db: float = 3.0):
        self.size = size
        self.gain_db = gain_db  # each cell must beat its noisy input by this much
        self.threads = min(2, len(os.sched_getaffinity(0)))

    def setup(self, seed: int, workdir: Path) -> None:
        self.seeds = [self.SEEDS_PER_RUN * seed + k for k in range(self.SEEDS_PER_RUN)]
        out = workdir / "grid"
        ini = workdir / "grid.ini"
        ini.write_text(GRID_INI.format(size=self.size, seeds=" ".join(map(str, self.seeds)), out=out))
        self.spec = mpg.load_experiment(ini)
        warm = workdir / "grid-warmup.ini"
        warm.write_text(GRID_WARMUP_INI.format(out=workdir / "grid-warmup"))
        mpg.run_bench(mpg.load_experiment(warm), threads=self.threads)
        self._noisy_db = None

    def op(self):
        return mpg.run_bench(self.spec, threads=self.threads)

    def noisy_db(self) -> dict:
        if self._noisy_db is None:
            truth = mpg.make_phantom("circles", self.size, self.size)
            self._noisy_db = {
                (f"{eta:g}", f"{sigma:g}", str(seed)): mpg.snr(
                    mpg.corrupt(truth, mpg.NoiseSpec(eta=eta, sigma=sigma, seed=seed)), truth
                )
                for eta, sigma in self.NOISE
                for seed in self.seeds
            }
        return self._noisy_db

    def inspect(self, result, wall: float) -> Outcome:
        with open(result, newline="") as fh:
            cells = [r for r in csv.DictReader(fh) if r["seed"] != "mean"]
        failures = []
        snrs, iter_ms = [], []
        ok = 0
        for r in cells:
            where = f"cell {r['solver']}/eta {r['eta']}/seed {r['seed']}"
            if r["status"] != "ok":
                failures.append(f"{where}: {r['status']}")
                continue
            value = float(r["snr"])
            floor = self.noisy_db()[(r["eta"], r["sigma"], r["seed"])] + self.gain_db
            if not math.isfinite(value) or not value >= floor:
                failures.append(f"{where}: SNR {value} dB below {floor:.3f}")
                continue
            ok += 1
            snrs.append(value)
            iter_ms.append(1000.0 * float(r["seconds"]) / int(r["iters"]))
        expected = len(self.NOISE) * 4 * len(self.seeds)  # four solver sections
        if len(cells) != expected:
            failures.append(f"{len(cells)} result rows, expected {expected}")
        fingerprint = digest(
            repr([(r["eta"], r["sigma"], r["solver"], r["seed"], r["iters"], r["snr"], r["ssim"], r["status"]) for r in cells]).encode()
        )
        snr_db = sum(snrs) / len(snrs) if snrs else math.nan
        # the results exist only once the whole grid has finished
        return Outcome(fingerprint, snr_db, wall, iter_ms, failures, cells_ok=ok)

    def verify(self) -> list[str]:
        return []


class CliWorkload:
    """Three ``mpg`` commands in-process on a 1024x1024 image.

    Float-text image writes and reads, ``corrupt`` and ``ssim`` cost more
    than the three TV-L2 iterations, so this is the workload where
    ``fileio``, ``noise`` and ``metrics`` show.
    """

    threads = 1
    ETA = 4.0
    SIGMA = 1e-4

    def __init__(self, size: int = 1024, target_db: float = 10.0):
        self.size = size
        self.target_db = target_db

    def _commands(self, directory: Path, size: int, seed: int):
        d = directory
        return {
            "phantom": ["phantom", "--kind", "circles", "--width", str(size), "--height", str(size), "-o", str(d / "clean.txt")],
            "corrupt": [
                "corrupt", "--input", str(d / "clean.txt"), "--eta", f"{self.ETA:g}",
                "--sigma", f"{self.SIGMA:g}", "--seed", str(seed), "-o", str(d / "noisy.txt"),
            ],
            "denoise": [
                "denoise", "--input", str(d / "noisy.txt"), "--solver", "tvl2", "--lambda1", "8",
                "--max-iters", "3", "--truth", str(d / "clean.txt"), "--trace", str(d / "trace.csv"),
                "-o", str(d / "out.pgm"),
            ],
        }

    def _run(self, commands) -> tuple[dict, dict]:
        codes, seconds = {}, {}
        with contextlib.redirect_stdout(io.StringIO()):
            for name, argv in commands.items():
                start = time.perf_counter()
                codes[name] = cli.main(argv)
                seconds[name] = time.perf_counter() - start
        return codes, seconds

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.dir = workdir / "cli"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.commands = self._commands(self.dir, self.size, seed)
        warm = workdir / "cli-warmup"
        warm.mkdir(parents=True, exist_ok=True)
        self._run(self._commands(warm, 32, seed))

    def op(self):
        return self._run(self.commands)

    def inspect(self, result, wall: float) -> Outcome:
        codes, seconds = result
        failures = [f"mpg {name} exited {code}" for name, code in codes.items() if code != 0]
        rows = read_trace_csv(self.dir / "trace.csv") if not failures else []
        failures += gate_rows(rows, self.target_db)[1]
        snr_db = rows[-1]["snr"] if rows and rows[-1]["snr"] is not None else math.nan
        if not math.isfinite(snr_db):
            failures.append("no finite output SNR in the trace")
        files = [self.dir / n for n in ("clean.txt", "noisy.txt", "out.pgm", "trace.csv")]
        blobs = [p.read_bytes() if p.exists() else b"" for p in files]
        # the trace's seconds column differs run to run; its other columns
        # and every image file must not
        stable = b"".join(line for line in blobs[3].splitlines(keepends=True) if not line[:1].isdigit())
        fingerprint = digest(*blobs[:3], stable, repr([(r["iter"], r["snr"]) for r in rows]).encode())
        # the denoised image exists only once the command has finished
        return Outcome(
            fingerprint, snr_db, wall, iteration_ms(rows), failures,
            command_s=seconds, bytes_written=sum(len(b) for b in blobs),
        )

    def verify(self) -> list[str]:
        """Float-text round trip must be bit-exact; the output must beat the input."""
        failures = []
        truth = mpg.make_phantom("circles", self.size, self.size)
        noisy = mpg.corrupt(truth, mpg.NoiseSpec(eta=self.ETA, sigma=self.SIGMA, seed=self.seed))
        for name, expected in (("clean.txt", truth), ("noisy.txt", noisy)):
            got = read_float_text(self.dir / name)
            if got is None or got.shape != expected.shape or got.tobytes() != expected.tobytes():
                failures.append(f"{name} does not round-trip bit-exactly")
        rows = read_trace_csv(self.dir / "trace.csv")
        noisy_db = mpg.snr(noisy, truth)
        final = rows[-1]["snr"] if rows else None
        if final is None or not final > noisy_db:
            failures.append(f"output SNR {final} dB not above the input's {noisy_db:.3f} dB")
        return failures


def read_trace_csv(path: Path) -> list[dict]:
    """Rows of a trace CSV, by column name, tolerating added or missing columns."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(line for line in fh if not line.startswith("#"))
        rows = []
        for raw in reader:
            rec = {}
            for key in ("iter", "seconds", "snr", "identity_residual"):
                text = (raw.get(key) or "").strip()
                rec[key] = float(text) if text else None
            rows.append(rec)
    return rows


def read_float_text(path: Path):
    """Parse the float-text image format independently of the package."""
    text = path.read_text()
    head, _, body = text.partition("\n")
    try:
        width, height = (int(t) for t in head.split())
        values = np.array([float(t) for t in body.split()], dtype=np.float64)
    except ValueError:
        return None
    if values.size != width * height:
        return None
    return values.reshape(height, width)


def make(name: str):
    """The named workload at its benchmark size."""
    return {
        "bca-256": lambda: SolveWorkload("bca_solve"),
        "bcaf-256": lambda: SolveWorkload("bcaf_solve"),
        "bench-grid-64": lambda: GridWorkload(),
        "cli-1024": lambda: CliWorkload(),
    }[name]()
