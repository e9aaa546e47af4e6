"""TV-regularized L2 proximal step via dual projection.

Solves the weighted Rudin-Osher-Fatemi problem

    min_u  (weight / 2) * ||u - g||^2  +  TV(u)

by the fixed-point iteration on the dual variable ``q`` (a vector field with
pointwise length at most one):

    q <- (q + tau * grad(div q - weight * g)) / (1 + tau * |grad(div q - weight * g)|)
    u  = g - (1 / weight) * div q

The step size ``tau`` is the constant ``TAU = 0.25``, which keeps the
iteration stable because the discrete gradient has squared operator norm at
most 8.  Every call returns ``(u, dual, div)``.  The dual field is updated
in place and returned, so callers that solve a sequence of slowly-changing
problems (the outer ADMM loops here) can warm-start without copying it; two
consecutive warm-started calls compose into one longer run of the same
iteration, exactly.  ``div`` is ``div(dual)``, the divergence ``u`` was made
from, or ``None`` from a call worked in row blocks.

Each step does only the arithmetic of the update.  ``tau`` is taken into
``z = tau (div q - weight g)`` before its gradient, so ``t = grad z``
already carries it and the step is ``q <- (q + t) / (1 + |t|)``: with
``tau = 2^-2`` that scaling rounds nothing, and the bytes are those of the
formula as long as no intermediate value is subnormal.  The divergence's
views are made once per call (:func:`grid._divergence_of`), and the returned
``div`` is handed to the next call of the same solve as its first divergence
(see :func:`tv_l2_denoise`).

Each step is a one-row stencil: the divergence reads the row above, the
gradient the row below.  So a large image is worked in row blocks (above
``grid.BLOCK_PIXELS``, see :func:`tv_l2_denoise`), each on a copy of its dual
with ``inner_iters + 1`` ghost rows on either side.  A wrong value at an
artificial cut spreads one row per step and has not reached a block's own
rows after the steps and the final divergence, so every pixel gets the bytes
of the unblocked run.  The blocks run in one sweep, top to bottom, on the
calling thread: no call starts a thread, and the core count changes neither
a byte nor a block.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import grid
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


def tv_l2_denoise(g, weight, cfg=None, dual=None, div=None):
    """Run ``cfg.inner_iters`` dual-projection steps on the TV-L2 problem.

    Args:
        g: observation image ``(H, W)``, or a stack ``(B, H, W)`` of them;
            one with no pixel is a ``ValueError``.
        weight: positive finite fidelity weight (larger -> closer to ``g``).
        cfg: ChambolleConfig; defaults to ``ChambolleConfig()``.
        dual: the dual field to start from and update in place, a float64
            array of ``field_shape(g.shape)``; ``None`` starts from the zero
            field in a new array.
        div: ``div(dual)``, carried from one call to the next: the ``div``
            that the previous call on this ``dual`` returned, the dual
            unwritten since, or ``None`` (the default) when none is held,
            as on a solve's first call.

    Returns:
        (u, dual, div): the primal estimate ``g - (1/weight) * div(dual)``,
        the dual field itself, for later warm starts, and ``div``, the
        divergence of the updated dual that ``u`` was made from, for the
        next call; ``div`` is ``None`` when the call ran in row blocks.

    A stack gives each image the bytes of its own solve.  The work arrays
    are allocated once per call and every step runs in place on them, so
    the result is bit-identical to evaluating the update formula with fresh
    arrays.  The steps take ``TAU`` into ``z = TAU (div q - weight g)``
    before its gradient, so ``t = TAU grad(div q - weight g)`` and the
    update is ``q <- (q + t) / (1 + |t|)``.  ``TAU = 2^-2`` scales every
    difference, square and root without rounding, so this holds bit for bit
    as long as no intermediate value is subnormal.

    The last divergence of the steps, ``div(dual)`` for ``u``, is the first
    one the next call needs.  A call worked in one block starts from the
    ``div`` it is given, or from :func:`grid.divergence` of the dual when
    given none, and leaves the new one in that array (so ``bca`` takes two
    divergences per outer iteration, not three).  A call worked in row
    blocks takes its own divergences, returns ``div = None`` and holds no
    image past its return.

    The rows run in the :func:`grid.row_blocks` of ``B W`` values a row (a
    stack of ``B`` images of width ``W``) and ``inner_iters + 1`` ghost rows
    on either side, in one sweep from the top on the calling thread.  Each
    of several blocks runs every step on a copy of the dual rows it reads,
    then writes back only its own rows of ``u`` and of the dual; one block
    runs on the dual itself.  The bytes are those of one block.
    """
    if cfg is None:
        cfg = ChambolleConfig()
    if not 0.0 < weight < math.inf:
        raise DomainError("fidelity weight must be finite and positive")
    g = np.asarray(g, dtype=np.float64)
    grid._nonempty(g.shape)
    q = np.zeros(field_shape(g.shape)) if dual is None else _writable("dual", dual, field_shape(g.shape))
    if div is not None:
        if dual is None:
            raise ValueError("div needs the dual it is the divergence of")
        div = _writable("div", div, g.shape)

    steps, h = cfg.inner_iters, g.shape[-2]
    ghost = steps + 1
    row_values = g.size // h
    blocks = grid.row_blocks(h, row_values, ghost, ghost)
    if len(blocks) == 1:
        if div is None:
            div = divergence(q)
        return _steps(g, weight, q, steps, div), q, div
    # u before the block buffers: in the other order, glibc's heap kept one
    # more image resident over a run of calls (cli-1024 peaked 7 MB higher).
    # A block runs on a copy of its dual rows (the slab) with the work arrays
    # of one _steps call; the next block's slab overlaps this block's own
    # rows, so it is copied into the spare buffer before they are written back
    u = np.empty(g.shape)
    reads = [read for _, read in blocks] + [(h, h)]
    size = max(s1 - s0 for s0, s1 in reads) * row_values
    work, slab, spare = np.empty(_STEP_ARRAYS * size), np.empty(2 * size), np.empty(2 * size)
    np.copyto(_rows_of(slab, q.shape, reads[0][1]), q[..., : reads[0][1], :])
    for ((r0, r1), (s0, s1)), (n0, n1) in zip(blocks, reads[1:]):
        block_q = _rows_of(slab, q.shape, s1 - s0)
        _steps(g[..., s0:s1, :], weight, block_q, steps, None, slice(r0 - s0, r1 - s0), u[..., r0:r1, :], work)
        np.copyto(_rows_of(spare, q.shape, n1 - n0), q[..., n0:n1, :])
        q[..., r0:r1, :] = block_q[..., r0 - s0 : r1 - s0, :]
        slab, spare = spare, slab
    return u, q, None


def _writable(name, a, shape):
    """``a``, if it is a float64 array of ``shape`` that a call can update in
    place; else ``ValueError`` (np.asarray would quietly copy it, and the
    caller's array stay unwritten)."""
    if isinstance(a, np.ndarray) and a.dtype == np.float64 and a.shape == shape:
        return a
    raise ValueError(
        f"{name} must be a float64 array of shape {shape}, got {getattr(a, 'dtype', type(a).__name__)} {np.shape(a)}"
    )


#: image-sized work arrays of one :func:`_steps` call: ``weight * g``, ``z``,
#: ``m`` and the two components of ``t``
_STEP_ARRAYS = 5


def _rows_of(buf, shape, n):
    """The first values of the flat array ``buf`` as an array of ``shape``
    cut to ``n`` rows: a contiguous view."""
    shape = shape[:-2] + (n, shape[-1])
    return buf[: math.prod(shape)].reshape(shape)


def _steps(g, weight, q, steps, div, own=slice(None), out=None, work=None):
    """``steps`` dual steps on ``q`` in place; returns rows ``own`` of
    ``g - (1/weight) div q``, in a new array or ``out``.  Either ``div``, an
    image array holding ``div q``, is given and taken as ``z``, with the
    other work arrays new; or (a row block) ``work`` is, a flat array of
    ``_STEP_ARRAYS`` images of ``g``'s size at least that holds them all,
    and the steps first take ``div q`` into its ``z``.  Either way they
    leave the divergence of the updated ``q`` in ``z``."""
    # work arrays: z = TAU*(div q - weight*g) (then scratch for t_y^2, then
    # div q), t = grad z, m = 1 + |t| (then the divergence's y differences),
    # seen by q through m_q
    if work is None:
        wg, z, m, t = weight * g, div, np.empty(g.shape), np.empty(q.shape)
    else:
        n = g.size
        wg = np.multiply(weight, g, out=work[:n].reshape(g.shape))
        z = work[n : 2 * n].reshape(g.shape)
        m = work[2 * n : 3 * n].reshape(g.shape)
        t = work[3 * n : 5 * n].reshape(q.shape)
    m_q, t_x, t_y = m[..., None, :, :], t[..., 0, :, :], t[..., 1, :, :]
    div_q = grid._divergence_of(q, z, m)
    if div is None:
        div_q()
    for _ in range(steps):
        z -= wg
        z *= TAU
        gradient(z, out=t)
        np.square(t_x, out=m)
        m += np.square(t_y, out=z)
        np.sqrt(m, out=m)
        m += 1.0
        # q <- (q + TAU*t) / (1 + TAU*|t|), with TAU already in t
        q += t
        q /= m_q
        div_q()
    np.divide(z, weight, out=m)
    return np.subtract(g[..., own, :], m[..., own, :], out=out)


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
    if not eta >= 0.0:  # NaN fails it too
        raise DomainError("shrinkage threshold must be nonnegative")
    mag = magnitude(q)
    scl = mag - eta
    np.maximum(0.0, scl, out=scl)
    scl /= np.where(mag > 0.0, mag, 1.0)
    return np.multiply(q, scl[..., None, :, :], out=out)
