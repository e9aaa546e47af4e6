"""The method table and the solver-config builder shared by ``mpg denoise``
and the bench harness.  Field names, types and defaults, the model weights'
included, come from the config dataclasses themselves and nowhere else.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

import numpy as np

from . import solvers
from .chambolle import ChambolleConfig
from .fileio import FormatError
from .solvers import SolverConfig


@dataclass(frozen=True)
class Method:
    """How one method is called.

    ``solve`` names the solve function in :mod:`mpgdenoise.solvers`.  It is
    looked up on that module at every call, never stored, so a wrapper put on
    the module attribute (a tracer, a test double) sees every call, a bench
    stack's and each fallback cell's alike.  Every solve function takes one
    observation ``(H, W)`` or a stack ``(B, H, W)``, and :func:`run_method`
    passes either through.
    ``weight`` names the config field passed as a baseline's single fidelity
    weight, and ``clamp`` feeds the solver ``max(f, 0)`` instead of ``f``.
    ``inner_iters`` is the TV inner depth the solver runs when the config
    sets none (``bcaf`` has no TV inner loop and keeps the
    ``ChambolleConfig`` default for the echo).
    """

    solve: str
    weight: str | None = None
    clamp: bool = False
    inner_iters: int = ChambolleConfig.inner_iters


METHODS = {
    "bca": Method("bca_solve", inner_iters=solvers.BCA_INNER_ITERS),
    "bcaf": Method("bcaf_solve"),
    # the baselines take one fidelity weight: the quadratic one for tvl2, the
    # Poisson one for tvkl, whose fidelity needs a nonnegative observation
    # (the Gaussian part of the noise can dip below zero)
    "tvl2": Method("tv_l2_solve", weight="lambda1"),
    "tvkl": Method("tv_kl_solve", weight="lambda2", clamp=True),
}


def run_method(method: str, f, cfg: SolverConfig, truth=None):
    """Run the solver of ``method`` on observation ``f``; returns ``(u, trace)``,
    or for a stack ``f`` the stacked outputs and one final-record trace per
    image."""
    m = METHODS[method]
    solve = getattr(solvers, m.solve)
    if m.clamp:
        f = np.maximum(f, 0.0)
    if m.weight is None:
        return solve(f, cfg, truth=truth)
    return solve(f, getattr(cfg, m.weight), cfg, truth=truth)


# settable field -> type, in SolverConfig order; chambolle is exposed through
# its inner_iters field only
CONFIG_FIELDS = {k: t for k, t in typing.get_type_hints(SolverConfig).items() if k != "chambolle"}
CONFIG_FIELDS["inner_iters"] = typing.get_type_hints(ChambolleConfig)["inner_iters"]


def build_config(values: dict, source: str) -> SolverConfig:
    """Build a SolverConfig from ``values`` (field name -> value or its text).

    Omitted fields keep their dataclass defaults; an omitted ``inner_iters``
    leaves ``chambolle`` unset, so each method runs its own depth.  An
    unknown field, or a value that does not parse as its field's type,
    raises :class:`FormatError` naming ``source``; a value the config
    rejects raises its ``ValueError``.
    """
    parsed = {}
    for key, value in values.items():
        if key not in CONFIG_FIELDS:
            raise FormatError(f"{source}: unknown solver key {key!r}")
        try:
            parsed[key] = CONFIG_FIELDS[key](value)
        except ValueError as exc:
            raise FormatError(f"{source}: {key}: {exc}") from exc
    if "inner_iters" in parsed:
        parsed["chambolle"] = ChambolleConfig(inner_iters=parsed.pop("inner_iters"))
    return SolverConfig(**parsed)


def config_values(cfg: SolverConfig, method: str) -> dict:
    """The settable fields of ``cfg`` in :data:`CONFIG_FIELDS` order, with the
    inner depth that ``method`` runs under ``cfg``."""
    inner = METHODS[method].inner_iters if cfg.chambolle is None else cfg.chambolle.inner_iters
    return {
        name: inner if name == "inner_iters" else getattr(cfg, name)
        for name in CONFIG_FIELDS
    }
