"""TV-regularized L2 proximal step via dual projection.

Solves the weighted Rudin-Osher-Fatemi problem

    min_u  (weight / 2) * ||u - g||^2  +  TV(u)

by the fixed-point iteration on the dual variable ``q`` (a vector field with
pointwise length at most one):

    q <- (q + tau * grad(div q - weight * g)) / (1 + tau * |grad(div q - weight * g)|)
    u  = g - (1 / weight) * div q

The step size ``tau`` is the constant ``TAU = 0.25``, which keeps the
iteration stable because the discrete gradient has squared operator norm at
most 8.  The dual field is updated in place and returned, so callers that
solve a sequence of slowly-changing problems (the outer ADMM loops here) can
warm-start without copying it; two consecutive warm-started calls compose
into one longer run of the same iteration, exactly.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .grid import DomainError, divergence, field_shape, gradient, magnitude, total_variation


#: the dual step ``tau``: 1/4 is the largest stable step (see above)
TAU = 0.25


@dataclass
class ChambolleConfig:
    """Inner-loop controls for the dual-projection TV solver.

    ``inner_iters`` = 10 is the depth of the baselines ``tvl2``/``tvkl``; a
    ``SolverConfig`` that sets no ``ChambolleConfig`` runs ``bca`` at its own
    depth of 2 (see :mod:`mpgdenoise.solvers`).  Warm-started depths should
    be even: at ``TAU = 1/4`` the iteration has a period-2 mode, which an
    odd depth leaves oscillating from one call to the next.
    """

    inner_iters: int = 10

    def __post_init__(self):
        if not isinstance(self.inner_iters, numbers.Integral) or self.inner_iters < 1:
            raise ValueError("inner_iters must be an integer >= 1")


def tv_l2_denoise(g, weight, cfg=None, dual=None):
    """Run ``cfg.inner_iters`` dual-projection steps on the TV-L2 problem.

    Args:
        g: observation image ``(H, W)``, or a stack ``(B, H, W)`` of them.
        weight: positive fidelity weight (larger -> closer to ``g``).
        cfg: ChambolleConfig; defaults to ``ChambolleConfig()``.
        dual: the dual field to start from and update in place, a float64
            array of ``field_shape(g.shape)``; ``None`` starts from the zero
            field in a new array.

    Returns:
        (u, dual): the primal estimate ``g - (1/weight) * div(dual)`` and the
        dual field itself, for later warm starts.

    A stack gives each image the bytes of its own solve.  The work arrays
    are allocated once per call and every step runs in place on them, with
    the operations in the order of the update formula, so the result is
    bit-identical to evaluating that formula with fresh arrays.
    """
    if cfg is None:
        cfg = ChambolleConfig()
    if not weight > 0.0:
        raise DomainError("fidelity weight must be positive")
    g = np.asarray(g, dtype=np.float64)
    shape = field_shape(g.shape)
    if dual is None:
        q = np.zeros(shape)
    elif isinstance(dual, np.ndarray) and dual.dtype == np.float64 and dual.shape == shape:
        q = dual
    else:  # np.asarray would quietly copy it, and the caller's dual stay unwritten
        raise ValueError(
            f"dual must be a float64 array of shape {shape}, "
            f"got {getattr(dual, 'dtype', type(dual).__name__)} {np.shape(dual)}"
        )

    wg = weight * g
    # work arrays: z = div q - weight*g (then scratch for t_y^2), t = grad z,
    # m = 1 + TAU*|t|, seen by q through m_q
    z = np.empty(g.shape)
    t = np.empty(q.shape)
    m = np.empty(g.shape)
    m_q = m[..., None, :, :]
    for _ in range(cfg.inner_iters):
        divergence(q, out=z)
        z -= wg
        gradient(z, out=t)
        np.square(t[..., 0, :, :], out=m)
        m += np.square(t[..., 1, :, :], out=z)
        np.sqrt(m, out=m)
        m *= TAU
        m += 1.0
        # q <- (q + TAU*t) / m, in the same rounding order as that expression
        t *= TAU
        q += t
        q /= m_q
    divergence(q, out=z)
    z /= weight
    return g - z, q


def tv_l2_energy(u, g, weight) -> float:
    """Objective value (weight/2)||u - g||^2 + TV(u)."""
    return 0.5 * weight * float(np.sum((u - g) ** 2)) + total_variation(u)


def soft_threshold(q, eta, out=None):
    """Pointwise vector shrinkage: max(0, |q| - eta) * q / |q|.

    Pixels with ``|q| <= eta`` map to the zero vector (including ``|q| = 0``,
    where the direction is taken to be zero).  ``eta = 0`` is the identity.
    The result goes into a new array, or into ``out`` when given (which may
    be ``q`` itself).
    """
    if eta < 0.0:
        raise DomainError("shrinkage threshold must be nonnegative")
    mag = magnitude(q)
    scl = mag - eta
    np.maximum(0.0, scl, out=scl)
    scl /= np.where(mag > 0.0, mag, 1.0)
    return np.multiply(q, scl[..., None, :, :], out=out)
