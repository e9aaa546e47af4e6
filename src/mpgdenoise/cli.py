"""The ``mpg`` command-line tool.

Subcommands::

    mpg phantom --kind circles --width 64 --height 64 --output clean.fimg
    mpg corrupt --input clean.fimg --eta 4 --sigma 1e-4 --seed 7 --output noisy.fimg
    mpg denoise --input noisy.fimg --solver bca --lambda1 8 --lambda2 2.5 \\
                --output out.fimg --trace trace.csv [--truth clean.fimg]
    mpg bench --spec experiment.ini

Solver flags mirror the SolverConfig fields (``--inner-iters`` sets the
ChambolleConfig one; omitted, each method runs its own TV inner depth, 2 for
bca and 10 for the baselines).  For the single-fidelity baselines the weight
comes from the matching flag: ``--lambda1`` for tvl2 (quadratic fidelity),
``--lambda2`` for tvkl (Poisson fidelity).  ``denoise`` can also read a
``[solver]`` section from an INI file via ``--spec``; precedence is flags >
spec file > the defaults of SolverConfig (``lambda1=8``, ``lambda2=2.5``),
and the resolved values are echoed as ``#`` comments at the top of the trace
CSV.

Exit codes: 0 success; 1 bad argument (a flag or setting the command or the
model rejects, such as ``--threads 0``); 2 unreadable or malformed file or
spec (an image, an INI file, a ``--truth`` image whose shape differs from
``--input``, a bench spec whose phantom is too small), or an output that
cannot be written; 3 solver failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from .bench import load_experiment, read_ini, run_bench
from .fileio import FormatError, read_image, write_image, write_trace
from .grid import DomainError
from .methods import CONFIG_FIELDS, METHODS, build_config, config_values, run_method
from .metrics import ssim_or_none
from .noise import PHANTOM_KINDS, NoiseSpec, corrupt, make_phantom
from .solvers import SolverConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_SOLVER = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); main owns the codes
        raise ValueError(message)


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    for name, typ in CONFIG_FIELDS.items():
        p.add_argument(f"--{name.replace('_', '-')}", type=typ, default=None)


def _build_parser() -> _Parser:
    parser = _Parser(prog="mpg", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("phantom", help="write a synthetic test image")
    p.add_argument("--kind", choices=PHANTOM_KINDS, default="circles")
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--output", "-o", required=True)

    p = sub.add_parser("corrupt", help="apply mixed Poisson-Gaussian noise")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="clean image file")
    src.add_argument("--phantom", choices=PHANTOM_KINDS, help="or a phantom kind")
    p.add_argument("--width", type=int, default=64, help="phantom width")
    p.add_argument("--height", type=int, default=64, help="phantom height")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "-o", required=True)

    p = sub.add_parser("denoise", help="run one solver on a noisy image")
    p.add_argument("--input", required=True)
    p.add_argument("--solver", choices=METHODS, required=True)
    p.add_argument("--output", "-o", required=True)
    p.add_argument("--trace", help="per-iteration CSV diagnostics")
    p.add_argument("--truth", help="clean image for SNR/SSIM reporting")
    p.add_argument("--spec", help="INI file with a [solver] section")
    _add_solver_flags(p)

    p = sub.add_parser("bench", help="run an experiment grid from a spec file")
    p.add_argument("--spec", required=True)
    p.add_argument("--output-dir", help="override the spec's output_dir")
    p.add_argument("--threads", type=int, help="worker processes (default all usable cores)")
    return parser


def _resolve_config(args) -> SolverConfig:
    """SolverConfig defaults < spec-file [solver] section < explicit flags"""
    values = {}
    if args.spec:
        ini = read_ini(args.spec)
        if "solver" in ini:
            values.update(ini["solver"])
    for key in CONFIG_FIELDS:
        if getattr(args, key) is not None:
            values[key] = getattr(args, key)
    return build_config(values, args.spec or "command line")


def cmd_phantom(args) -> int:
    write_image(args.output, make_phantom(args.kind, args.width, args.height))
    return EXIT_OK


def cmd_corrupt(args) -> int:
    if args.input:
        u = read_image(args.input)
    else:
        u = make_phantom(args.phantom, args.width, args.height)
    spec = NoiseSpec(eta=args.eta, sigma=args.sigma, seed=args.seed)
    try:
        f = corrupt(u, spec)
    except DomainError as exc:
        raise FormatError(f"{args.input or args.phantom}: {exc}") from exc
    write_image(args.output, f)
    return EXIT_OK


def _check_writable(path) -> None:
    """Raise the ``OSError`` that writing ``path`` would raise, leaving no new
    file behind; an existing file is opened for appending, so it is kept."""
    existed = os.path.lexists(path)
    with open(path, "a"):
        pass
    if not existed:
        os.remove(path)


def cmd_denoise(args) -> int:
    cfg = _resolve_config(args)
    f = read_image(args.input)
    truth = read_image(args.truth) if args.truth else None
    if truth is not None and truth.shape != f.shape:
        raise FormatError(f"--truth {args.truth} has shape {truth.shape} but --input {args.input} has {f.shape}")
    # an unwritable output fails now, not after the whole solve
    for path in (args.output, args.trace):
        if path:
            _check_writable(path)

    try:
        u, trace = run_method(args.solver, f, cfg, truth)
    except (DomainError, FloatingPointError) as exc:
        print(f"mpg denoise: solver failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER

    write_image(args.output, u)
    if args.trace:
        header = {"command": "denoise", "solver": args.solver, "input": str(args.input)}
        header.update(
            (k, f"{v:g}" if isinstance(v, float) else str(v))
            for k, v in config_values(cfg, args.solver).items()
        )
        write_trace(args.trace, trace, header)
    last = trace[-1]
    line = f"{args.solver}: {last.iter} iterations, se={last.se:.3e}"
    if last.snr is not None:  # None without a truth, or where u is identically zero
        line += f", snr={last.snr:.3f} dB"
    if truth is not None:
        s = ssim_or_none(u, truth)
        if s is not None:
            line += f", ssim={s:.4f}"
    print(line)
    return EXIT_OK


def cmd_bench(args) -> int:
    spec = load_experiment(args.spec)
    if args.output_dir:
        spec.output_dir = args.output_dir
    path = run_bench(spec, threads=args.threads)
    print(f"wrote {path}")
    return EXIT_OK


_COMMANDS = {"phantom": cmd_phantom, "corrupt": cmd_corrupt, "denoise": cmd_denoise, "bench": cmd_bench}


def main(argv=None) -> int:
    """Run one subcommand; returns the exit code.

    Argument and setting errors (``ValueError``) exit 1, unreadable or
    malformed files and specs (``FormatError``, ``OSError``) exit 2.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (FormatError, OSError) as exc:
        print(f"mpg: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"mpg: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
