"""The ``mpg`` command-line tool.

Subcommands::

    mpg phantom --kind circles --width 64 --height 64 --output clean.fimg
    mpg corrupt --input clean.fimg --eta 4 --sigma 1e-4 --seed 7 --output noisy.fimg
    mpg denoise --input noisy.fimg --solver bca --lambda1 8 --lambda2 2.5 \\
                --output out.fimg --trace trace.csv [--truth clean.fimg]
    mpg bench --spec experiment.ini

Solver flags mirror the SolverConfig fields (``--inner-iters`` sets the
ChambolleConfig one).  For the single-fidelity baselines the weight comes
from the matching flag: ``--lambda1`` for tvl2 (quadratic fidelity),
``--lambda2`` for tvkl (Poisson fidelity).  ``denoise`` can also read a
``[solver]`` section from an INI file via ``--spec``; precedence is flags >
spec file > defaults (``lambda1=8`` and ``lambda2=2.5`` here, the rest those
of SolverConfig), and the resolved values are echoed as ``#`` comments at
the top of the trace CSV.

Exit codes: 0 success, 1 usage error, 2 data error (unreadable or malformed
files), 3 solver failure.
"""

from __future__ import annotations

import argparse
import configparser
import sys

from .bench import PHANTOM_KINDS, SOLVER_NAMES, load_experiment, run_bench, thread_count
from .fileio import FormatError, read_image, write_image, write_trace
from .grid import DomainError
from .methods import CONFIG_FIELDS, METHODS, build_config, config_values, run_method
from .metrics import snr, ssim
from .noise import NoiseSpec, corrupt, make_phantom
from .solvers import SolverConfig, alpha_condition

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_SOLVER = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we own the codes
        raise UsageError(message)


# SolverConfig has no defaults for the model weights; the command line does
_WEIGHT_DEFAULTS = {"lambda1": 8.0, "lambda2": 2.5}


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
    p.add_argument("--solver", choices=SOLVER_NAMES, required=True)
    p.add_argument("--output", "-o", required=True)
    p.add_argument("--trace", help="per-iteration CSV diagnostics")
    p.add_argument("--truth", help="clean image for SNR/SSIM reporting")
    p.add_argument("--spec", help="INI file with a [solver] section")
    _add_solver_flags(p)

    p = sub.add_parser("bench", help="run an experiment grid from a spec file")
    p.add_argument("--spec", required=True)
    p.add_argument("--output-dir", help="override the spec's output_dir")
    p.add_argument("--threads", type=int, help="worker processes (default MPG_THREADS or all usable cores)")
    return parser


def _resolve_config(args) -> SolverConfig:
    """defaults < spec-file [solver] section < explicit flags"""
    values = dict(_WEIGHT_DEFAULTS)
    if args.spec:
        ini = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        try:
            with open(args.spec) as fh:
                ini.read_file(fh)
        except (OSError, configparser.Error) as exc:
            raise FormatError(f"cannot parse {args.spec}: {exc}") from exc
        if "solver" in ini:
            values.update(ini["solver"])
    for key in CONFIG_FIELDS:
        if getattr(args, key) is not None:
            values[key] = getattr(args, key)
    try:
        return build_config(values, args.spec or "command line")
    except FormatError:
        raise
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_phantom(kind: str, width: int, height: int, output) -> int:
    write_image(output, make_phantom(kind, width, height))
    return EXIT_OK


def cmd_corrupt(args) -> int:
    if args.input:
        u = read_image(args.input)
    else:
        try:
            u = make_phantom(args.phantom, args.width, args.height)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    try:
        spec = NoiseSpec(eta=args.eta, sigma=args.sigma, seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    try:
        f = corrupt(u, spec)
    except DomainError as exc:
        raise FormatError(f"{args.input or args.phantom}: {exc}") from exc
    write_image(args.output, f)
    return EXIT_OK


def cmd_denoise(args) -> int:
    cfg = _resolve_config(args)
    f = read_image(args.input)
    truth = read_image(args.truth) if args.truth else None

    try:
        u, trace = run_method(args.solver, f, cfg, truth)
    except (DomainError, FloatingPointError) as exc:
        print(f"mpg denoise: solver failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER

    write_image(args.output, u)
    if args.trace:
        header = {"command": "denoise", "solver": args.solver, "input": str(args.input)}
        header.update(
            (k, f"{v:g}" if isinstance(v, float) else str(v)) for k, v in config_values(cfg).items()
        )
        penalty = METHODS[args.solver].penalty
        if penalty is not None:
            met, bound, c = alpha_condition(getattr(cfg, penalty), cfg.lambda2, cfg.epsilon, trace)
            header["alpha_condition"] = (
                f"{'met' if met else 'not met'} (bound {bound:.4g}, observed min w {c:.4g})"
            )
        write_trace(args.trace, trace, header)
    last = trace[-1]
    line = f"{args.solver}: {last.iter} iterations, se={last.se:.3e}"
    if truth is not None:
        line += f", snr={snr(u, truth):.3f} dB"
        if min(u.shape) >= 11:
            line += f", ssim={ssim(u, truth):.4f}"
    print(line)
    return EXIT_OK


def cmd_bench(args) -> int:
    spec = load_experiment(args.spec)
    if args.output_dir:
        spec.output_dir = args.output_dir
    try:
        n = thread_count(args.threads)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    path = run_bench(spec, threads=n)
    print(f"wrote {path}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"mpg: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "phantom":
            try:
                return cmd_phantom(args.kind, args.width, args.height, args.output)
            except ValueError as exc:
                raise UsageError(str(exc)) from exc
        if args.command == "corrupt":
            return cmd_corrupt(args)
        if args.command == "denoise":
            return cmd_denoise(args)
        return cmd_bench(args)
    except UsageError as exc:
        print(f"mpg: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FormatError, OSError) as exc:
        print(f"mpg: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
