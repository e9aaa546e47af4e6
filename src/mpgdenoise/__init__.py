"""TV-regularized denoising of mixed Poisson-Gaussian images.

Public surface: the two bilinear-split ADMM solvers (``bca_solve``,
``bcaf_solve``), the single-fidelity baselines, the noise synthesizer and
phantoms, metrics, and the PGM/float-text file formats used by the ``mpg``
command-line tool.
"""

from .bench import ExperimentSpec, load_experiment, run_bench
from .chambolle import ChambolleConfig, soft_threshold, tv_l2_denoise
from .fileio import FormatError, read_image, read_trace, write_image, write_trace
from .grid import (
    DomainError,
    ShapeMismatchError,
    divergence,
    gradient,
    laplacian,
    total_variation,
)
from .metrics import objective_H, snr, ssim
from .noise import NoiseSpec, corrupt, make_phantom
from .screened_poisson import solve_screened_poisson
from .solvers import (
    SolverConfig,
    SolverState,
    TraceRecord,
    alpha_lower_bound,
    bca_solve,
    bcaf_solve,
    tv_kl_solve,
    tv_l2_solve,
)

__all__ = [
    "ChambolleConfig",
    "DomainError",
    "ExperimentSpec",
    "FormatError",
    "NoiseSpec",
    "ShapeMismatchError",
    "SolverConfig",
    "SolverState",
    "TraceRecord",
    "alpha_lower_bound",
    "bca_solve",
    "bcaf_solve",
    "corrupt",
    "divergence",
    "gradient",
    "laplacian",
    "load_experiment",
    "make_phantom",
    "objective_H",
    "read_image",
    "read_trace",
    "run_bench",
    "snr",
    "soft_threshold",
    "solve_screened_poisson",
    "ssim",
    "total_variation",
    "tv_kl_solve",
    "tv_l2_denoise",
    "tv_l2_solve",
    "write_image",
    "write_trace",
]

__version__ = "0.1.0"
