"""Benchmark harness: a grid of (image, noise, solver, seed) cells to CSV.

Experiment files are INI-style (configparser), e.g.::

    [experiment]
    image = circles          ; a phantom kind or an image file path
    width = 64
    height = 64
    seeds = 0 1 2
    output_dir = bench_out

    [noise.clean]
    eta = 4
    sigma = 1e-4

    [solver.bca]
    method = bca
    lambda1 = 8              ; omitted fields keep the SolverConfig defaults
    alpha = 200

Any one numeric solver field may hold a space-separated list (``alpha = 20
200 2000``), which expands into one labelled cell per value — that is how
parameter-sweep curves (SNR versus alpha and friends) are produced.

The cells of one noise level and solver section differ only in their seed,
so they are solved together: their observations go to the solver as one
stack of at most ``STACK_PIXELS`` pixels (every solver accepts a stack and
gives each image the output and iteration count of its own solve), and
larger images as stacks of one.  A cell's ``seconds`` is then its even
share of the wall time of each iteration it was in the stack, and the trace
the row reads is the solver's final record, the only one a stack records.

Stacks are independent and run in forked worker processes, at most one per
usable core (``threads=``, which must be positive, else all usable cores; 1
forces serial execution, as does a platform without the ``fork`` start
method).  Processes, not threads: a solve is thousands of small numpy calls,
and worker threads would spend their time passing the interpreter lock back
and forth.  Rows are gathered and written by the caller in a fixed order,
so identical inputs give identical CSVs aside from the timing column.  A
failing cell is recorded in its row's status column and does not stop the
harness: when a stack's solve raises, its cells are solved again one by
one, so each keeps its own status.
"""

from __future__ import annotations

import configparser
import csv
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fileio import FormatError, read_image
from .grid import _usable_cores
from .methods import METHODS, build_config, run_method
from .metrics import snr_or_none, ssim_or_none
from .noise import PHANTOM_KINDS, NoiseSpec, corrupt, make_phantom
from .solvers import SolverConfig

# most pixels solved as one stack: 8 images at 64x64, and from 256x256 up
# each image alone, so large images keep the memory of a single solve
STACK_PIXELS = 2**15

RESULT_HEADER = ["image", "eta", "sigma", "solver", "seed", "iters", "snr", "ssim", "seconds", "status"]


@dataclass
class ExperimentSpec:
    image_source: str
    width: int
    height: int
    noise: list[NoiseSpec]
    solvers: list[tuple[str, str, SolverConfig]]  # (label, method, config)
    seeds: list[int]
    output_dir: str

    def __post_init__(self):
        if not self.noise:
            raise ValueError("experiment needs at least one noise spec")
        if not self.solvers:
            raise ValueError("experiment needs at least one solver")
        if not self.seeds:
            raise ValueError("experiment needs at least one seed")
        if self.image_source in PHANTOM_KINDS:
            make_phantom(self.image_source, self.width, self.height)  # checks the size


def _expand_solver(label: str, raw: dict) -> list[tuple[str, str, SolverConfig]]:
    method = raw.pop("method", None)
    if method not in METHODS:
        raise ValueError(f"solver section [{label}] needs method in {tuple(METHODS)}")
    source = f"[solver.{label}]"
    lists = {k: v.split() for k, v in raw.items() if len(v.split()) > 1}
    if len(lists) > 1:
        raise ValueError(f"at most one swept field per solver section, got {sorted(lists)}")
    if not lists:
        return [(label, method, build_config(raw, source))]
    (key, values), = lists.items()
    out = []
    for val in values:
        cfg = build_config({**raw, key: val}, source)
        out.append((f"{label}-{key}{float(val):g}", method, cfg))
    return out


def read_ini(path) -> configparser.ConfigParser:
    """Parse the INI file ``path``; ``;`` and ``#`` also start inline comments.

    An unreadable or malformed file raises :class:`FormatError`.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except (OSError, configparser.Error) as exc:
        raise FormatError(f"cannot parse {path}: {exc}") from exc
    return parser


def load_experiment(path) -> ExperimentSpec:
    parser = read_ini(path)
    if "experiment" not in parser:
        raise FormatError(f"{path}: missing [experiment] section")
    exp = parser["experiment"]
    noise = []
    solvers = []
    try:
        for section in parser.sections():
            s = parser[section]
            if section.startswith("noise."):
                if "eta" not in s:
                    raise ValueError(f"[{section}] needs eta")
                noise.append(NoiseSpec(eta=float(s["eta"]), sigma=float(s.get("sigma", "0"))))
            elif section.startswith("solver."):
                solvers.extend(_expand_solver(section.split(".", 1)[1], dict(s)))
        return ExperimentSpec(
            image_source=exp.get("image", "circles"),
            width=int(exp.get("width", "64")),
            height=int(exp.get("height", "64")),
            noise=noise,
            solvers=solvers,
            seeds=[int(s) for s in exp.get("seeds", "0").split()],
            output_dir=exp.get("output_dir", "bench_out"),
        )
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _load_truth(spec: ExperimentSpec):
    if spec.image_source in PHANTOM_KINDS:
        return make_phantom(spec.image_source, spec.width, spec.height)
    return read_image(spec.image_source)


def _run_cells(truth, image_label, nspec, label, method, cfg, seeds):
    """Rows of the cells of one noise level and solver for ``seeds``.

    The seeds are solved as one stack, a single seed as a stack of one; if
    that raises, each of two or more cells is solved again alone, as a
    stack of one, so a failing cell gets its own status row.
    """
    rows = [
        {
            "image": image_label,
            "eta": f"{nspec.eta:g}",
            "sigma": f"{nspec.sigma:g}",
            "solver": label,
            "seed": seed,
            "iters": "",
            "snr": "",
            "ssim": "",
            "seconds": "",
            "status": "ok",
        }
        for seed in seeds
    ]

    def observe(seed):
        return corrupt(truth, NoiseSpec(eta=nspec.eta, sigma=nspec.sigma, seed=seed))

    def solve(batch):
        """(u, final record) of the cells of the seeds ``batch``, solved as
        one stack.  No truth: each row's SNR is taken once, below, and a
        per-iteration SNR column would go unread."""
        u, traces = run_method(method, np.stack([observe(seed) for seed in batch]), cfg)
        return [(u_b, trace[-1]) for u_b, trace in zip(u, traces)]

    try:
        solved = solve(seeds)
    except Exception as exc:  # noqa: BLE001 - the cells are solved again one by one below
        if len(seeds) == 1:  # that was the one cell's own solve
            rows[0]["status"] = f"error: {exc}"
            return rows
        solved = None
    for i, row in enumerate(rows):
        try:
            u, final = solved[i] if solved else solve(seeds[i : i + 1])[0]
            row["iters"] = final.iter
            row["seconds"] = f"{final.seconds:.6f}"
            for col, value in (("snr", snr_or_none(u, truth)), ("ssim", ssim_or_none(u, truth))):
                row[col] = "" if value is None else f"{value:.6f}"
        except Exception as exc:  # noqa: BLE001 - per-row failure is part of the contract
            row["status"] = f"error: {exc}"
    return rows


def run_bench(spec: ExperimentSpec, threads: int | None = None) -> Path:
    """Run the whole experiment grid; returns the results CSV path.

    ``threads`` worker processes at most, all usable cores when ``None``; a
    nonpositive count raises ``ValueError`` before any work is done.
    """
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be positive, got {threads}")
    truth = _load_truth(spec)
    image_label = (
        spec.image_source
        if spec.image_source in PHANTOM_KINDS
        else Path(spec.image_source).stem
    )
    out_dir = Path(spec.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    per_stack = max(1, STACK_PIXELS // truth.size)
    stacks = [
        (truth, image_label, nspec, label, method, cfg, spec.seeds[i : i + per_stack])
        for nspec in spec.noise
        for (label, method, cfg) in spec.solvers
        for i in range(0, len(spec.seeds), per_stack)
    ]
    cores = _usable_cores()
    n_workers = max(1, min(threads or cores, len(stacks), cores))
    if n_workers == 1 or "fork" not in multiprocessing.get_all_start_methods():
        batches = [_run_cells(*stack) for stack in stacks]
    else:
        # fork, not the platform default: the workers inherit the imported
        # package instead of importing it again on every call
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=n_workers, mp_context=ctx) as pool:
            batches = list(pool.map(_run_cells, *zip(*stacks), chunksize=1))
    rows = [row for batch in batches for row in batch]

    # aggregate means over seeds for every (noise, solver) group, ok rows only
    aggregates = []
    idx = 0
    for nspec in spec.noise:
        for label, _method, _cfg in spec.solvers:
            group = rows[idx : idx + len(spec.seeds)]
            idx += len(spec.seeds)
            ok = [r for r in group if r["status"] == "ok"]
            agg = dict(group[0])
            agg["seed"] = "mean"
            agg["status"] = f"ok ({len(ok)}/{len(group)})"
            for col in ("iters", "snr", "ssim", "seconds"):
                vals = [float(r[col]) for r in ok if r[col] != ""]
                agg[col] = f"{sum(vals) / len(vals):.6f}" if vals else ""
            aggregates.append(agg)

    path = out_dir / "results.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULT_HEADER)
        writer.writeheader()
        for row in rows + aggregates:
            writer.writerow(row)
    return path
