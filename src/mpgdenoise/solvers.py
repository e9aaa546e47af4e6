"""ADMM solvers for TV-regularized mixed Poisson-Gaussian denoising.

The model estimates a clean image ``u`` and the Gaussian-part intermediate
``v`` from an observation ``f``:

    H(u, v) = (lambda1/2) ||f - v||^2
            + lambda2 * sum_i (u_i - v_i log(u_i / v_i) - v_i)
            + TV(u),        subject to v_i >= epsilon > 0.

The coupling term is handled by substituting ``u = v .* w`` and treating the
bilinear relation as an ADMM constraint, which makes every subproblem either
a TV-L2 proximal step or a pointwise closed form:

* ``bca_solve`` splits only the bilinear constraint; its image update is a
  TV-L2 problem solved by the warm-started dual projection
  :func:`mpgdenoise.chambolle.tv_l2_denoise`, which updates the solve's dual
  field in place.  The solve is inexact on purpose: the dual only has to
  track a target that moves a little per outer iteration, so
  ``BCA_INNER_ITERS = 2`` dual steps are run by default (inexact ADMM,
  Eckstein & Bertsekas 1992).  Odd depths stall: at the step 1/4 the dual
  iteration has a period-2 mode, so after an odd number of steps ``u``
  alternates between outer iterations and the relative step never falls
  to ``xi``.
* ``bcaf_solve`` additionally splits the image gradient (``p = grad u``), so
  its image update becomes a screened Poisson system solved exactly by one
  2-D cosine transform, with no inner iterations, and the TV term reduces to
  pointwise vector shrinkage.  The solve runs that split in its primal-dual
  form (Esser, Zhang & Chan, SIAM J. Imaging Sci. 2010): the shrinkage and
  the multiplier ascent on ``p = grad u`` together project the multiplier
  ``lam_p`` onto the unit ball, so the solve holds ``lam_p`` and the flux
  ``alpha_p p + lam_p`` that the next image update reads, and no ``p``.

Two single-fidelity baselines with the same trace interface are included:
``tv_l2_solve`` (quadratic fidelity) and ``tv_kl_solve`` (Poisson fidelity
via an ADMM split with a pointwise quadratic-root update).  Their TV blocks
run ``ChambolleConfig().inner_iters`` (10) dual steps by default.  An
explicit ``SolverConfig.chambolle`` sets the depth of every method.

Each solver supplies only its outer iteration (calling the step functions
below) and its diagnostics to one driver, ``_run``, which owns the loop, the
clock, the :class:`TraceRecord` lists (each record taken on the calling
thread right after its step) and the one stop rule: the relative step
``||u_k+1 - u_k|| / ||u_k||`` falls to ``xi``, or ``max_iters`` outer
iterations are done.  A relative step that is not finite (the iterate, or
its norm, overflowed) raises :class:`DomainError` at once.  ``bca`` and
``bcaf`` share their set-up and diagnostics, ``_bilinear_solve``, and the
bilinear block that ends each of their steps: the v-, w- and multiplier
updates on ``v .* w = u``, at penalty ``cfg.alpha``.  They differ only in
their initial state and their image update; ``bcaf_solve`` runs the whole
solve at ``alpha = alpha_w``.

Every solver also takes a stack ``(B, H, W)`` of same-shape observations and
runs them as one solve: each subproblem is pointwise, a finite-difference
stencil, a TV dual step or one 2-D DCT, so all images share every numpy
call.  Each image stops on its own relative step and then leaves the stack,
and gets the ``u`` bytes, iteration count and final record (``seconds``
aside) of its own solve.  A stack's trace holds only each image's final
record: per-iteration diagnostics would cost more than the stacking saves.
Each solve keeps its iterates and work arrays in one namespace, which has
the attributes of a :class:`SolverState` (``bcaf``'s a flux field in place
of ``p``) and goes to the step functions in its place.

Within one outer iteration of a bilinear solver each full-size quantity
(the bilinear constraint gap, ``grad u``, ``ln(w)``, and ``div(dual)``, which
each TV call leaves for the next in ``div``) is formed once and shared by the
steps and the trace diagnostics: ``bcaf`` takes TV(u) and
``sum |p|`` from the ``grad u`` and the projection of its own step, and the
gap ``p - grad u`` from its two multipliers (see ``_bilinear_solve``).  The
step functions take such quantities as optional arguments and form them
themselves when called alone.

A known identity of the bilinear split: after every multiplier update,
``Lambda .* w = lambda2`` holds exactly (the w update picks the positive
root of a quadratic whose stationarity condition says precisely this).  The
trace reports the residual of that identity every iteration; it doubles as a
cheap self-check of the implementation.

The convergence theory for the bilinear split asks for a sufficiently large
penalty: with ``c`` a positive lower bound for the entries of ``w`` along
the iterations, the penalty should exceed
``max(sqrt(2) * lambda2 / (c^2 * epsilon), lambda2 * (1/c - 1)^2)``.
That is a sufficient condition only -- useful penalties are routinely far
below it -- so the solvers never enforce it.  :func:`alpha_lower_bound`
gives the bound for a ``c``; the smallest ``min_w`` of a trace is the ``c``
a run observed.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from .chambolle import ChambolleConfig, soft_threshold, tv_l2_denoise, tv_l2_energy
from .grid import (
    DomainError,
    ShapeMismatchError,
    as_images,
    divergence,
    dot,
    field_shape,
    gradient,
    ln,
    magnitude,
    total_variation,
)
from .metrics import objective_H, snr_or_none
from .screened_poisson import solve_screened_poisson


@dataclass
class SolverConfig:
    """Model weights and algorithm controls shared by all solvers, with the
    defaults of every front end (``mpg denoise``, bench solver sections).

    ``lambda1``/``lambda2`` weight the quadratic and Poisson fidelities;
    ``alpha`` is the penalty of each bilinear block (and the quadratic
    penalty of the TV+KL baseline), while ``alpha_w``/``alpha_p`` are the
    two penalties of the flux-split variant, which runs its bilinear block
    at ``alpha_w`` and reads no ``alpha``.  ``epsilon`` is the positivity
    floor on ``v``, ``xi`` the relative-step stopping tolerance.  The seven
    weights must be finite and positive, and ``max_iters`` a positive
    integer.
    ``chambolle`` sets the TV dual-projection inner loop; ``None`` runs each
    method at its own depth (``BCA_INNER_ITERS`` for ``bca``, the
    ``ChambolleConfig`` default for ``tvl2``/``tvkl``).
    """

    lambda1: float = 8.0
    lambda2: float = 2.5
    alpha: float = 200.0
    alpha_w: float = 200.0
    alpha_p: float = 50.0
    epsilon: float = 1e-6
    xi: float = 5e-4
    max_iters: int = 1000
    chambolle: ChambolleConfig | None = None

    def __post_init__(self):
        # NaN fails every comparison, so the test is written to fail on it
        for name in ("lambda1", "lambda2", "alpha", "alpha_w", "alpha_p", "epsilon", "xi"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        if not isinstance(self.max_iters, numbers.Integral) or self.max_iters < 1:
            raise ValueError("max_iters must be an integer >= 1")


@dataclass
class SolverState:
    """Iterates of one ADMM run.

    ``lam_w`` is the multiplier of the bilinear constraint ``v .* w = u``;
    ``p``/``lam_p`` exist only in the flux-split variant, whose step
    functions read them (``bcaf_solve`` itself starts from them and then
    carries ``lam_p`` and the flux ``alpha_p p + lam_p`` instead); ``dual``
    carries the warm-started TV dual field between image updates and
    ``div`` its divergence, as the last image update left it for the next
    (``None`` before the first, or when that update ran in row blocks;
    whatever writes ``dual`` otherwise must reset it); ``iters`` counts
    completed outer iterations.
    """

    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    lam_w: np.ndarray
    p: np.ndarray | None = None
    lam_p: np.ndarray | None = None
    dual: np.ndarray | None = None
    div: np.ndarray | None = None
    iters: int = 0


@dataclass
class TraceRecord:
    """One outer iteration's diagnostics.

    ``objective`` is the model value H at the current ``(u, v)``;
    ``lagrangian`` the solver's own augmented Lagrangian; ``min_w``,
    ``identity_residual`` (sup-norm of ``lam_w .* w - lambda2``) and
    ``constraint_residual`` (relative ``||v .* w - u||``) apply to the
    bilinear solvers and are ``None`` for the baselines, as is ``snr`` when
    no ground truth was supplied.  ``seconds`` is wall time since the solve
    started, I/O excluded, read at the end of the record's iteration, with
    each iteration's time split evenly among the images then in the stack.
    """

    iter: int
    se: float
    objective: float
    lagrangian: float
    min_w: float | None
    identity_residual: float | None
    constraint_residual: float | None
    snr: float | None
    seconds: float


def alpha_lower_bound(lambda2: float, c: float, epsilon: float) -> float:
    """Penalty bound sufficient for convergence of the bilinear split."""
    if not c > 0.0:
        raise ValueError("c must be positive")
    return max(np.sqrt(2.0) * lambda2 / (c * c * epsilon), lambda2 * (1.0 / c - 1.0) ** 2)


def _rel_step(step: np.ndarray, prev_sq: float) -> float:
    """``||step|| / ||u||``, with ``prev_sq = ||u||^2`` (1 in its place where
    ``u`` is zero)."""
    den = math.sqrt(prev_sq)
    return math.sqrt(dot(step, step)) / (den if den > 0.0 else 1.0)


def _as_stack(f):
    """Validated observations as a stack ``(B, H, W)``, and whether ``f``
    was a single image."""
    f = as_images(f)
    return (f[None], True) if f.ndim == 2 else (f, False)


def _image(s: SimpleNamespace, i: int) -> SimpleNamespace:
    """The arrays of image ``i`` of the stack held in ``s``."""
    return SimpleNamespace(**{k: v[i] if isinstance(v, np.ndarray) else v for k, v in vars(s).items()})


def _keep(s: SimpleNamespace, idx: list[int]) -> None:
    """Drop from every array in ``s`` the images not listed in ``idx``."""
    for k, v in list(vars(s).items()):
        if isinstance(v, np.ndarray):
            setattr(s, k, v[idx])


def _columns(img: SimpleNamespace, diagnose, truth):
    """Trace columns objective through snr of one image's arrays ``img``,
    with ``truth`` its clean image or ``None``.  The SNR is ``None`` without
    a truth or where ``u`` is identically zero."""
    return (*diagnose(img), None if truth is None else snr_or_none(img.u, truth))


def _run(cfg: SolverConfig, truth, s: SimpleNamespace, step, diagnose, solo: bool):
    """Outer loop of every solver, over a stack of one or more images.

    ``s`` holds every array of the solve with the images on the leading axis,
    ``s.u`` the current stack ``(B, H, W)``; ``step(s, k)`` runs iteration
    ``k`` on it in place, replacing ``s.u``, and ``diagnose(img)`` returns
    the trace columns objective through constraint_residual from one image's
    arrays (:func:`_image`).  ``s.u_sq`` holds each image's ``||u||^2``,
    taken once per iterate, right after its step: the next relative step
    and the diagnostics read it.  ``truth`` is one image, which applies to every
    image, or, for a stack, a stack of them; any other shape raises
    :class:`ShapeMismatchError` before the first step.

    Each image stops on its own relative step and leaves the stack then.  For
    ``solo`` (a single-image input) the result is ``(u, trace)`` with a record
    per iteration; otherwise ``(u, traces)``, the stack of outputs and one
    list per image holding its final record only.
    """
    if truth is not None:
        truth = np.asarray(truth, dtype=np.float64)
        shapes = [s.u.shape[1:]] if solo else [s.u.shape[1:], s.u.shape]
        if truth.shape not in shapes:
            raise ShapeMismatchError(f"truth has shape {truth.shape}, expected {' or '.join(map(str, shapes))}")
    n = len(s.u)
    truths = [None] * n if truth is None else np.broadcast_to(truth, s.u.shape)
    active = list(range(n))  # the input position of each image left in s
    outs = [None] * n
    traces = [[] for _ in range(n)]
    seconds = [0.0] * n
    tick = time.perf_counter()
    s.u_sq = np.array([dot(b, b) for b in s.u])
    for k in range(1, cfg.max_iters + 1):
        u_prev, prev_sq = s.u, s.u_sq
        step(s, k)
        s.u_sq = np.array([dot(b, b) for b in s.u])
        se = [_rel_step(step_b, sq) for step_b, sq in zip(s.u - u_prev, prev_sq)]
        if not all(map(math.isfinite, se)):
            raise DomainError(f"iteration {k}: the relative step is not finite; the iterate or its norm overflowed")
        done = [i for i, e in enumerate(se) if e <= cfg.xi or k == cfg.max_iters]
        recorded = range(len(active)) if solo else done
        columns = [(i, _columns(_image(s, i), diagnose, truths[active[i]])) for i in recorded]
        now = time.perf_counter()  # after the diagnostics: a record's seconds include its own
        share = (now - tick) / len(active)
        tick = now
        for b in active:
            seconds[b] += share
        for i, cols in columns:
            traces[active[i]].append(TraceRecord(k, se[i], *cols, seconds=seconds[active[i]]))
        if done:
            for i in done:
                outs[active[i]] = s.u[i]
            keep = [i for i in range(len(active)) if i not in done]
            if not keep:
                break
            _keep(s, keep)
            active = [active[i] for i in keep]
    if solo:
        return outs[0], traces[0]
    return np.stack(outs), traces


def _bilinear_diagnostics(img: SimpleNamespace, cfg: SolverConfig):
    """Trace columns of the bilinear-split iterate in one image's arrays
    ``img`` (:func:`_image`) of the namespace of :func:`_bilinear_solve`.

    With ``img.lam_p`` set the Lagrangian is the flux-split one, TV(u) and
    ``sum |p|`` are the step's, and the gap ``p - grad u`` is
    ``(lam_p - lam_p_prev) / alpha_p``, written into ``img.lam_alt`` in place
    of the previous ``lam_p`` it holds: so these run once per iterate.
    Otherwise TV(u) is taken here.  It is shared by the objective and the
    Lagrangian, and so are ``||v .* w - u||^2`` by the Lagrangian and the
    constraint residual, and ``||f - v||^2`` by the objective and the
    Lagrangian."""
    u, v, w, f, gap = img.u, img.v, img.w, img.f, img.gap
    flux_split = img.lam_p is not None
    if flux_split:
        tv, p_term = float(img.tv), float(img.p_sum)
    else:
        tv = p_term = total_variation(u)
    gap_sq = dot(gap, gap)
    work = f - v
    resid_sq = dot(work, work)
    np.multiply(img.log_w, v, out=work)  # becomes u - v log w - v
    np.subtract(u, work, out=work)
    work -= v
    lagrangian = (
        0.5 * cfg.lambda1 * resid_sq
        + cfg.lambda2 * float(work.sum())
        + p_term
        + dot(img.lam_w, gap)
        + 0.5 * cfg.alpha * gap_sq
    )
    if flux_split:
        gap_p = np.subtract(img.lam_p, img.lam_alt, out=img.lam_alt)
        gap_p /= cfg.alpha_p
        lagrangian += dot(img.lam_p, gap_p) + 0.5 * cfg.alpha_p * dot(gap_p, gap_p)
    # max |x - lambda2| over x = lam_w .* w is max(max x - lambda2,
    # lambda2 - min x) with the same bits: rounding is monotone and symmetric
    x = np.multiply(img.lam_w, w, out=work)
    identity = max(float(np.max(x)) - cfg.lambda2, cfg.lambda2 - float(np.min(x)))
    u_norm = math.sqrt(img.u_sq)
    return (
        objective_H(u, v, f, cfg, tv, resid_sq),
        lagrangian,
        float(np.min(w)),
        identity,
        math.sqrt(gap_sq) / (u_norm if u_norm > 0.0 else 1.0),
    )


def _bilinear_solve(f, cfg: SolverConfig, truth, init, step):
    """``bca`` or ``bcaf`` on ``f``: ``init(f)`` is the starting
    :class:`SolverState`, and ``step(s, k, cfg)`` runs outer iteration ``k``
    in place on the solve's namespace ``s``.  Next to the state but its
    ``p``, ``s`` holds ``f``, ``lambda1_f = lambda1 * f``, the gap
    ``v .* w - u`` that the multiplier step writes, ``log_w = ln(w)`` and
    ``u_sq`` (see :func:`_run`).  With a gradient split (``lam_p``) it also
    holds, after each step:

    * ``flux = alpha_p p + lam_p``, all that the next image update reads of
      ``p``;
    * ``lam_alt``, the previous ``lam_p``, whose buffer the next multiplier
      takes (the diagnostics turn it into the gap ``p - grad u``);
    * ``tv`` and ``p_sum``, TV(u) and ``sum |p|`` per image.

    ``cfg.alpha`` is the penalty of the bilinear block."""
    f, solo = _as_stack(f)
    s = SimpleNamespace(**vars(init(f)), f=f, lambda1_f=cfg.lambda1 * f, gap=np.empty_like(f), log_w=None)
    if s.lam_p is not None:
        s.flux, s.lam_alt = _ascent(s.lam_p, cfg.alpha_p, s.p), s.p
    del s.p
    return _run(cfg, truth, s, lambda s, k: step(s, k, cfg), lambda img: _bilinear_diagnostics(img, cfg), solo)


# ---------------------------------------------------------------------------
# bilinear-constraint solver


def bca_init(f: np.ndarray) -> SolverState:
    """Start from the observation (an image or a stack): u = v = f, w = 1,
    zero multiplier."""
    f = as_images(f)
    return SolverState(
        u=f.copy(),
        v=f.copy(),
        w=np.ones_like(f),
        lam_w=np.zeros_like(f),
        dual=np.zeros(field_shape(f.shape)),
    )


# bca's TV dual steps per outer iteration when cfg.chambolle is None: even,
# because odd depths leave u on the dual iteration's period-2 mode
BCA_INNER_ITERS = 2


def bca_u_step(state: SolverState, f, cfg: SolverConfig) -> np.ndarray:
    """TV-L2 image update.

    Minimizes ``TV(u) + lambda2*sum(u) - <lam_w, u> + (alpha/2)||v.*w - u||^2``
    over ``u``, i.e. a TV proximal step at weight ``alpha`` around the target
    ``v .* w + lam_w/alpha - lambda2/alpha``, inexactly: ``cfg.chambolle``
    dual steps, or ``BCA_INNER_ITERS`` when it is ``None``.  The TV dual
    field is updated in place in ``state.dual`` for the next warm start, and
    its divergence carried in ``state.div``.
    """
    target = state.v * state.w + state.lam_w / cfg.alpha - cfg.lambda2 / cfg.alpha
    chambolle = cfg.chambolle or ChambolleConfig(inner_iters=BCA_INNER_ITERS)
    u, state.dual, state.div = tv_l2_denoise(target, cfg.alpha, chambolle, state.dual, div=state.div)
    return u


def bca_v_step(state: SolverState, f, cfg: SolverConfig, log_w=None, lambda1_f=None) -> np.ndarray:
    """Pointwise Gaussian-part update; expects ``state.u`` already advanced.

    Minimizer of the per-pixel strongly convex objective
    ``(lambda1/2)(f - v)^2 - lambda2*(v log w + v) + (alpha/2)(v w + lam_w/alpha - u)^2``
    clamped to the feasible set ``v >= epsilon``.  ``log_w`` (``ln(state.w)``)
    and ``lambda1_f`` (``lambda1 * f``) are computed here when omitted.
    """
    u, w = state.u, state.w
    if log_w is None:
        log_w = ln(w)  # also rejects nonpositive w, which means a broken w update
    if lambda1_f is None:
        lambda1_f = cfg.lambda1 * f
    # numer = lambda1*f + lambda2*log w + alpha*w*u, den = lambda1 + alpha*w*w,
    # in place but in the rounding order of those expressions
    numer = np.multiply(log_w, cfg.lambda2)
    numer += lambda1_f
    aw = np.multiply(w, cfg.alpha)
    den = aw * w
    aw *= u
    numer += aw
    if state.iters == 0:
        # before the first multiplier update the identity lam_w .* w = lambda2
        # does not hold yet, so the full stationarity numerator is needed
        numer += cfg.lambda2
        numer -= np.multiply(w, state.lam_w, out=aw)
    den += cfg.lambda1
    numer /= den
    return np.maximum(cfg.epsilon, numer, out=numer)


def bca_w_step(state: SolverState, cfg: SolverConfig) -> np.ndarray:
    """Pointwise ratio update; expects ``state.u`` and ``state.v`` advanced.

    Positive root of ``alpha v w^2 + (lam_w - alpha u) w - lambda2 = 0`` per
    pixel (stationarity of ``-lambda2 v log w + (alpha/2)(v w + lam_w/alpha - u)^2``).
    Always strictly positive.
    """
    if np.min(state.v) < cfg.epsilon:
        raise DomainError("v entries below the positivity floor; v update is broken")
    u, v, lambda2 = state.u, state.v, cfg.lambda2
    x = state.lam_w / cfg.alpha
    np.subtract(u, x, out=x)
    root = np.multiply(v, 4.0 * lambda2)
    root /= cfg.alpha
    s = np.square(x)
    root += s
    np.sqrt(root, out=root)
    # w = (x + root) / (2v) = (2 lambda2/alpha) / (root - x): algebraically
    # equal, and picking by the sign of x avoids the catastrophic cancellation
    # of (x + root) when x is negative.  root + |x| is exactly x + root where
    # x >= 0 and root - x where x < 0 (a - b == a + (-b) in IEEE arithmetic),
    # so both quotients come from that one array.  Where no x is negative
    # (every pixel of a real input), the first quotient is the result.
    np.abs(x, out=s)
    s += root
    np.multiply(v, 2.0, out=root)
    np.divide(s, root, out=root)
    if np.min(x) >= 0.0:
        return root
    np.divide(2.0 * lambda2 / cfg.alpha, s, out=s)
    return np.where(x >= 0.0, root, s)


def _ascent(lam, alpha, gap):
    """``lam + alpha * gap`` into a new array."""
    out = np.multiply(gap, alpha)
    out += lam
    return out


def bca_multiplier_step(state: SolverState, cfg: SolverConfig, gap=None) -> np.ndarray:
    """Dual ascent on the bilinear constraint; expects u, v, w advanced.

    ``gap``, when given, receives the constraint gap ``v .* w - u``, which
    the trace diagnostics reuse.
    """
    gap = np.multiply(state.v, state.w, out=gap)
    gap -= state.u
    return _ascent(state.lam_w, cfg.alpha, gap)


def _bilinear_block(s: SimpleNamespace, k: int, cfg: SolverConfig) -> None:
    """The v-, w- and multiplier steps on the bilinear constraint, at penalty
    ``cfg.alpha``, which end outer iteration ``k`` of both ``bca`` and
    ``bcaf`` once ``s.u`` is advanced; in place on the namespace of
    :func:`_bilinear_solve`."""
    s.v = bca_v_step(s, s.f, cfg, s.log_w, s.lambda1_f)
    s.w = bca_w_step(s, cfg)
    s.log_w = ln(s.w)  # read by the diagnostics, reused by the next v-step
    s.lam_w = bca_multiplier_step(s, cfg, s.gap)
    s.iters = k


def _bca_step(s: SimpleNamespace, k: int, cfg: SolverConfig) -> None:
    """Outer iteration ``k`` of ``bca`` on the namespace of
    :func:`_bilinear_solve`, in place."""
    s.u = bca_u_step(s, s.f, cfg)
    _bilinear_block(s, k, cfg)


def bca_solve(f, cfg: SolverConfig, truth=None):
    """Run the bilinear-constraint solver on observation ``f``.

    Returns ``(u, trace)``.  ``truth``, when given, adds an SNR column to the
    trace.  Deterministic: identical inputs give bit-identical outputs.  A
    stack ``f`` of shape ``(B, H, W)`` returns the stacked outputs and one
    final-record trace per image (see :func:`_run`).
    """
    return _bilinear_solve(f, cfg, truth, bca_init, _bca_step)


# ---------------------------------------------------------------------------
# flux-split variant (extra splitting p = grad u)


def bcaf_init(f: np.ndarray) -> SolverState:
    """As :func:`bca_init`, with zero ``p`` and ``lam_p`` in place of the TV
    dual field."""
    state = bca_init(f)
    state.p, state.lam_p, state.dual = state.dual, np.zeros_like(state.dual), None
    return state


def bcaf_u_step(state: SolverState, f, cfg: SolverConfig, flux: np.ndarray | None = None) -> np.ndarray:
    """Screened-Poisson image update, solved exactly by one 2-D DCT.

    Normal equations of the u block:
    ``(alpha_w I - alpha_p Lap) u = -lambda2 + lam_w + alpha_w v.*w - div(lam_p + alpha_p p)``.
    The solve is direct, so the result does not depend on the previous u.
    ``flux`` is ``lam_p + alpha_p p``; ``bcaf_solve`` passes the one it
    holds, and it is formed from ``state.p`` and ``state.lam_p`` when
    omitted.
    """
    if flux is None:
        flux = _ascent(state.lam_p, cfg.alpha_p, state.p)
    # in place, in the rounding order of the formula (-lambda2 + lam_w is
    # exactly lam_w - lambda2)
    rhs = np.subtract(state.lam_w, cfg.lambda2)
    work = np.multiply(state.v, cfg.alpha_w)
    work *= state.w
    rhs += work
    rhs -= divergence(flux, out=work)
    del work, flux  # not held through the solve's own temporaries
    return solve_screened_poisson(rhs, cfg.alpha_w, cfg.alpha_p)


def bcaf_p_step(state: SolverState, cfg: SolverConfig, grad_u: np.ndarray | None = None) -> np.ndarray:
    """Vector shrinkage of the gradient split; expects ``state.u`` advanced.

    ``p = shrink(grad u - lam_p/alpha_p, 1/alpha_p)``, with ``grad_u`` the
    ``gradient(state.u)``, taken here when omitted.  (``bcaf_solve`` takes
    the same step through its multiplier; see :func:`_bcaf_step`.)
    """
    if grad_u is None:
        grad_u = gradient(state.u)
    q = np.divide(state.lam_p, cfg.alpha_p)
    np.subtract(grad_u, q, out=q)
    return soft_threshold(q, 1.0 / cfg.alpha_p, out=q)


def _bcaf_step(s: SimpleNamespace, k: int, cfg: SolverConfig) -> None:
    """Outer iteration ``k`` of ``bcaf`` on the namespace of
    :func:`_bilinear_solve`, in place: the image update, the gradient split
    in primal-dual form, then ``bca``'s bilinear block, which reads neither
    ``flux`` nor ``lam_p``.

    With ``t = grad u - lam_p/alpha_p``, the p-step ``p = shrink(t,
    1/alpha_p)`` followed by the ascent ``lam_p + alpha_p (p - grad u)``
    gives ``lam_p' = -proj_{|.|<=1}(alpha_p t) = -alpha_p t / max(1,
    |alpha_p t|)`` and ``p = t + lam_p'/alpha_p``.  So the next flux is
    ``alpha_p t + 2 lam_p'``, and ``|p| = max(|alpha_p t| - 1, 0) /
    alpha_p``.  ``grad u`` and ``alpha_p t`` are formed in the flux buffer
    once the image update has read it, and ``lam_p'`` in ``lam_alt``.
    """
    s.u = bcaf_u_step(s, s.f, cfg, s.flux)
    at = gradient(s.u, out=s.flux)
    s.tv = magnitude(at).sum(axis=(-2, -1))
    at *= cfg.alpha_p
    at -= s.lam_p  # alpha_p t
    m = magnitude(at)
    np.maximum(m, 1.0, out=m)
    s.p_sum = (m - 1.0).sum(axis=(-2, -1)) / cfg.alpha_p
    np.negative(m, out=m)
    lam_p = np.divide(at, m[..., None, :, :], out=s.lam_alt)
    del m  # not held through the bilinear block's own temporaries
    s.lam_alt, s.lam_p = s.lam_p, lam_p
    at += lam_p  # the next flux, alpha_p t + 2 lam_p'
    at += lam_p
    _bilinear_block(s, k, cfg)


def bcaf_solve(f, cfg: SolverConfig, truth=None):
    """Run the flux-split solver on observation ``f`` (an image or a stack);
    returns ``(u, trace)`` as :func:`bca_solve` does.  The bilinear block
    runs at ``cfg.alpha_w``, and ``cfg.alpha`` is not read."""
    return _bilinear_solve(f, replace(cfg, alpha=cfg.alpha_w), truth, bcaf_init, _bcaf_step)


# ---------------------------------------------------------------------------
# single-fidelity baselines


def tv_l2_solve(f, lam: float, cfg: SolverConfig, truth=None):
    """TV denoising with quadratic fidelity ``(lam/2)||u - f||^2 + TV(u)``.

    One outer iteration is one warm-started block of ``cfg.chambolle``
    dual-projection steps (``ChambolleConfig()`` when ``None``), so the whole
    run composes into a single long high-accuracy solve while still emitting
    per-block trace records.  ``f`` may be a stack, as in :func:`bca_solve`.
    """
    f, solo = _as_stack(f)
    s = SimpleNamespace(f=f, u=f, dual=None, div=None)

    def step(s, k):
        s.u, s.dual, s.div = tv_l2_denoise(s.f, lam, cfg.chambolle, s.dual, div=s.div)

    def diagnose(s):
        val = tv_l2_energy(s.u, s.f, lam)
        return val, val, None, None, None

    return _run(cfg, truth, s, step, diagnose, solo)


def kl_z_update(u, mu, f, lam: float, rho: float):
    """Closed-form z step of the TV+KL split, entrywise.

    Positive root of the stationarity quadratic of
    ``lam*(z - f log z) + mu*(z - u) + (rho/2)(z - u)^2``;
    where ``f = 0`` the log term is absent and the root collapses to
    ``max(0, u - mu/rho - lam/rho)``.
    """
    t = u - mu / rho - lam / rho
    return 0.5 * (t + np.sqrt(t * t + 4.0 * lam * f / rho))


def tv_kl_solve(f, lam: float, cfg: SolverConfig, truth=None):
    """TV denoising with Poisson fidelity ``lam * sum(u - f log u) + TV(u)``.

    ADMM on the split ``z = u`` with penalty ``cfg.alpha``: the ``z`` update
    is the positive root of a pointwise quadratic, the ``u`` update a
    warm-started TV-L2 step at weight ``cfg.alpha``.  Requires ``f >= 0``.
    ``f`` may be a stack, as in :func:`bca_solve`.
    """
    f, solo = _as_stack(f)
    if not 0.0 < lam < math.inf:
        raise DomainError("fidelity weight must be finite and positive")
    if np.min(f) < 0.0:
        raise DomainError("Poisson fidelity needs a nonnegative observation")
    rho = cfg.alpha
    s = SimpleNamespace(f=f, u=f.copy(), z=f.copy(), mu=np.zeros_like(f), dual=None, div=None)

    def step(s, k):
        s.u, s.dual, s.div = tv_l2_denoise(s.z + s.mu / rho, rho, cfg.chambolle, s.dual, div=s.div)
        s.z = kl_z_update(s.u, s.mu, s.f, lam, rho)
        s.mu = s.mu + rho * (s.z - s.u)

    def diagnose(s):
        log_u = np.log(np.maximum(s.u, 1e-12))
        val = lam * float(np.sum(s.u - np.where(s.f > 0.0, s.f * log_u, 0.0))) + total_variation(s.u)
        gap = s.z - s.u
        lagrangian = val + float(np.sum(s.mu * gap)) + 0.5 * rho * float(np.sum(gap * gap))
        return val, lagrangian, None, None, None

    return _run(cfg, truth, s, step, diagnose, solo)
