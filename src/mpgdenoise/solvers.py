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
  pointwise vector shrinkage.

Two single-fidelity baselines with the same trace interface are included:
``tv_l2_solve`` (quadratic fidelity) and ``tv_kl_solve`` (Poisson fidelity
via an ADMM split with a pointwise quadratic-root update).  Their TV blocks
run ``ChambolleConfig().inner_iters`` (10) dual steps by default.  An
explicit ``SolverConfig.chambolle`` sets the depth of every method.

Each solver supplies only its outer iteration (calling the step functions
below) and its diagnostics to one driver, ``_run``, which owns the loop, the
clock, the :class:`TraceRecord` lists and the one stop rule: the relative
step ``||u_k+1 - u_k|| / ||u_k||`` falls to ``xi``, or ``max_iters`` outer
iterations are done.  ``bca`` and ``bcaf`` share their set-up and
diagnostics, ``_bilinear_solve``, and differ only in their initial state
and their step.

Every solver also takes a stack ``(B, H, W)`` of same-shape observations and
runs them as one solve: each subproblem is pointwise, a finite-difference
stencil, a TV dual step or one 2-D DCT, so all images share every numpy
call.  Each image stops on its own relative step and then leaves the stack,
and gets the ``u`` bytes, iteration count and final record (``seconds``
aside) of its own solve.  A stack's trace holds only each image's final
record: per-iteration diagnostics would cost more than the stacking saves.
Each solve keeps its iterates and work arrays in one namespace, which has
the attributes of a :class:`SolverState` and goes to the step functions in
its place.

Every record is taken the same way: at the end of its iteration its columns
are submitted, and it is collected after the next step.  Its ``seconds`` is
the wall time since the solve started, read on the calling thread at the end
of its iteration, with each iteration's time split evenly among the images
then in the stack.  A single-image ``bca``/``bcaf`` solve of at least
``HELPER_PIXELS`` pixels, on two or more usable cores, submits the columns
to one helper thread, so they are computed while the next step runs and the
trace leaves the critical path of these cheap iterations; everywhere else
they are computed at once, on the calling thread.  The main thread still
takes ``se`` and decides the stop, so the iterates, the stop iteration and
every trace column are those of the serial path.  The flux split's field
terms (TV(u), ``sum |p|``, ``<lam_p, p - grad u>``, ``||p - grad u||^2``)
are reduced to scalars on the main thread, so the helper holds none of its
vector fields.  Smaller images (two threads issuing small numpy calls pass
the interpreter lock back and forth), one core, a stack (which records only
final records) and the baselines (whose ten TV dual steps per iteration
dwarf the trace) keep the serial path.  The helper is joined before the
solve returns or raises.  A relative step that is not finite (the iterate,
or its norm, overflowed) raises :class:`DomainError` at once.

Within one outer iteration of a bilinear solver each full-size quantity is
formed once and shared with the trace diagnostics.  The multiplier step
writes the constraint gap ``v .* w - u`` (and for ``bcaf`` also
``p - grad u``) into arrays that the diagnostics read; ``v .* w - u``
alternates between two buffers, so that a step never writes the one the
previous record reads.  ``bcaf`` takes
``grad u`` once for its p-step, multiplier step and diagnostics.  The
diagnostics take the checked ``ln(w)``, and the next v-step reuses it;
``lambda1 * f`` is formed once per solve; the objective and the Lagrangian
share ``||f - v||^2`` and TV(u).  The diagnostics read all of these from
the solve's namespace; the step functions take them as optional arguments
and form them themselves when called alone.

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

import contextlib
import math
import os
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .chambolle import ChambolleConfig, soft_threshold, tv_l2_denoise, tv_l2_energy
from .grid import (
    DomainError,
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
    ``alpha`` is the ADMM penalty of the bilinear split (and the quadratic
    penalty of the TV+KL baseline), while ``alpha_w``/``alpha_p`` are the
    two penalties of the flux-split variant.  ``epsilon`` is the positivity
    floor on ``v``, ``xi`` the relative-step stopping tolerance.
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
        for name in ("lambda1", "lambda2", "alpha", "alpha_w", "alpha_p", "epsilon", "xi"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass
class SolverState:
    """Iterates of one ADMM run.

    ``lam_w`` is the multiplier of the bilinear constraint ``v .* w = u``;
    ``p``/``lam_p`` exist only in the flux-split variant; ``dual`` carries
    the warm-started TV dual field between image updates; ``iters`` counts
    completed outer iterations.
    """

    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    lam_w: np.ndarray
    p: np.ndarray | None = None
    lam_p: np.ndarray | None = None
    dual: np.ndarray | None = None
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
    each iteration's time split evenly among the images then in the stack
    (see the module docstring); on the helper path it is when the iterate
    was handed to the helper.
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


def _rel_norm(num: np.ndarray, ref: np.ndarray) -> float:
    den = math.sqrt(dot(ref, ref))
    return math.sqrt(dot(num, num)) / (den if den > 0.0 else 1.0)


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


# single images from this many pixels up take their trace on a helper thread
# (on 2 cores the two paths break even near 160x160; below, the threads'
# small numpy calls pass the interpreter lock back and forth)
HELPER_PIXELS = 2**15


def _usable_cores() -> int:
    """Cores this process may run on (CPU affinity and cpusets respected)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _columns(err: dict, img: SimpleNamespace, diagnose, truth, b: int):
    """Trace columns objective through snr of one image's arrays ``img``,
    input ``b`` of the solve, taken under the numpy error state ``err``.
    The SNR is ``None`` without a truth or where ``u`` is identically zero.
    (A thread starts from the default error state on numpy 1.x, not from its
    caller's; and a function of its own, so that no view of this iteration's
    arrays outlives the call and holds them through a later step.)"""
    with np.errstate(**err):
        snr_b = None if truth is None else snr_or_none(img.u, truth if truth.ndim == 2 else truth[b])
        return (*diagnose(img), snr_b)


def _at_once(fn, *args) -> Future:
    """``fn(*args)``, run on this thread, as a finished future."""
    done = Future()
    done.set_result(fn(*args))
    return done


def _run(cfg: SolverConfig, truth, s: SimpleNamespace, step, diagnose, solo: bool, handoff=None):
    """Outer loop of every solver, over a stack of one or more images.

    ``s`` holds every array of the solve with the images on the leading axis,
    ``s.u`` the current stack ``(B, H, W)``; ``step(s, k)`` runs iteration
    ``k`` on it in place, replacing ``s.u``, and ``diagnose(img)`` returns
    the trace columns objective through constraint_residual from one image's
    arrays (:func:`_image`), or from ``handoff(img)`` when ``handoff`` is
    given.  ``truth`` is one image, which applies to every image, or a stack
    of them.

    Each image stops on its own relative step and leaves the stack then.  For
    ``solo`` (a single-image input) the result is ``(u, trace)`` with a record
    per iteration; otherwise ``(u, traces)``, the stack of outputs and one
    list per image holding its final record only.  Either way a record's
    columns are submitted at the end of its iteration and collected after the
    next step, and its ``seconds`` is the image's even share of each
    iteration's wall time, summed up to the end of the record's iteration.
    A relative step that is not finite raises :class:`DomainError`.

    ``handoff``, which only the bilinear solvers give, runs on this thread
    and returns what ``diagnose`` reads, holding no array that the next step
    writes.  A solo input of at least ``HELPER_PIXELS`` pixels on two or more
    usable cores then runs ``diagnose`` (and the SNR) on one helper thread,
    one iteration behind, under this thread's numpy error state; at most one
    record is outstanding, and the helper is joined before this returns or
    raises.
    """
    if truth is not None:
        truth = np.asarray(truth, dtype=np.float64)
    prepare = handoff or (lambda img: img)
    behind = handoff is not None and solo and s.u.size >= HELPER_PIXELS and _usable_cores() >= 2
    err = dict(np.geterr(), call=np.geterrcall())
    n = len(s.u)
    active = list(range(n))  # the input position of each image left in s
    outs = [None] * n
    traces = [[] for _ in range(n)]
    seconds = [0.0] * n
    pending = []  # (input position, k, se, seconds, future of the columns) of records not yet collected
    with ThreadPoolExecutor(max_workers=1) if behind else contextlib.nullcontext() as helper:
        submit = helper.submit if behind else _at_once
        tick = time.perf_counter()
        for k in range(1, cfg.max_iters + 1):
            u_prev = s.u
            step(s, k)
            se = [_rel_norm(step_b, prev_b) for step_b, prev_b in zip(s.u - u_prev, u_prev)]
            if not all(map(math.isfinite, se)):
                raise DomainError(f"iteration {k}: the relative step is not finite; the iterate or its norm overflowed")
            for b, k_b, se_b, seconds_b, columns in pending:
                traces[b].append(TraceRecord(k_b, se_b, *columns.result(), seconds=seconds_b))
            done = [i for i, e in enumerate(se) if e <= cfg.xi or k == cfg.max_iters]
            submitted = [
                (i, submit(_columns, err, prepare(_image(s, i)), diagnose, truth, active[i]))
                for i in (range(len(active)) if solo else done)
            ]
            now = time.perf_counter()
            share = (now - tick) / len(active)
            tick = now
            for b in active:
                seconds[b] += share
            pending = [(active[i], k, se[i], seconds[active[i]], columns) for i, columns in submitted]
            if done:
                for i in done:
                    outs[active[i]] = s.u[i]
                keep = [i for i in range(len(active)) if i not in done]
                if not keep:
                    break
                _keep(s, keep)
                active = [active[i] for i in keep]
        for b, k_b, se_b, seconds_b, columns in pending:
            traces[b].append(TraceRecord(k_b, se_b, *columns.result(), seconds=seconds_b))
    if solo:
        return outs[0], traces[0]
    return np.stack(outs), traces


def _bilinear_handoff(img: SimpleNamespace) -> SimpleNamespace:
    """What :func:`_bilinear_diagnostics` reads of the iterate in ``img``.

    ``img`` holds the iterate (``u``, ``v``, ``w``, ``lam_w``), the
    observation ``f`` and the arrays the iteration already formed from that
    iterate: ``gap = v .* w - u`` (from the multiplier step) and
    ``log_w = ln(w)``.  With ``img.p`` set (the flux split) it also holds
    ``grad_u = gradient(u)``, ``p``, ``lam_p`` and ``gap_p = p - grad_u``;
    their four field terms become scalars here, in ``flux``: TV(u),
    ``sum |p|``, ``<lam_p, gap_p>`` and ``||gap_p||^2``."""
    d = SimpleNamespace(**{k: getattr(img, k) for k in ("u", "v", "w", "lam_w", "f", "gap", "log_w")}, flux=None)
    if img.p is not None:
        d.flux = (
            float(magnitude(img.grad_u).sum()),
            float(magnitude(img.p).sum()),
            dot(img.lam_p, img.gap_p),
            dot(img.gap_p, img.gap_p),
        )
    return d


def _bilinear_diagnostics(d: SimpleNamespace, cfg: SolverConfig):
    """Trace columns of a bilinear-split iterate, from what
    :func:`_bilinear_handoff` took of it.

    With ``d.flux`` set the Lagrangian is the flux-split one.  TV(u) is taken
    once and shared by the objective and the Lagrangian, and so are
    ``||v .* w - u||^2`` by the Lagrangian and the constraint residual, and
    ``||f - v||^2`` by the objective and the Lagrangian."""
    alpha = cfg.alpha if d.flux is None else cfg.alpha_w
    u, v, w, f, gap = d.u, d.v, d.w, d.f, d.gap
    if d.flux is None:
        tv = p_term = total_variation(u)
    else:
        tv, p_term, lam_gap_p, gap_p_sq = d.flux
    gap_sq = dot(gap, gap)
    work = f - v
    resid_sq = dot(work, work)
    np.multiply(d.log_w, v, out=work)  # becomes u - v log w - v
    np.subtract(u, work, out=work)
    work -= v
    lagrangian = (
        0.5 * cfg.lambda1 * resid_sq
        + cfg.lambda2 * float(work.sum())
        + p_term
        + dot(d.lam_w, gap)
        + 0.5 * alpha * gap_sq
    )
    if d.flux is not None:
        lagrangian += lam_gap_p + 0.5 * cfg.alpha_p * gap_p_sq
    np.multiply(d.lam_w, w, out=work)  # becomes |lam_w .* w - lambda2|
    work -= cfg.lambda2
    u_norm = math.sqrt(dot(u, u))
    return (
        objective_H(u, v, f, cfg, tv, resid_sq),
        lagrangian,
        float(np.min(w)),
        float(np.max(np.abs(work, out=work))),
        math.sqrt(gap_sq) / (u_norm if u_norm > 0.0 else 1.0),
    )


def _bilinear_solve(f, cfg: SolverConfig, truth, init, step):
    """``bca`` or ``bcaf`` on ``f``: ``init(f)`` is the starting
    :class:`SolverState`, and ``step(s, k, cfg)`` runs outer iteration ``k``
    in place on the solve's namespace ``s``.  Next to the state, ``s`` holds
    ``f``, ``lambda1_f = lambda1 * f``, the gap ``v .* w - u`` that the
    multiplier step writes, ``log_w = ln(w)``, and with a gradient split
    (``p``) also ``grad_u`` and its gap ``gap_p = p - grad_u``.  The step
    swaps ``gap`` with ``spare_gap`` before its multiplier step, so it never
    writes the gap that the previous iteration's record reads (on the helper
    path, while the step runs)."""
    f, solo = _as_stack(f)
    s = SimpleNamespace(
        **vars(init(f)), f=f, lambda1_f=cfg.lambda1 * f, gap=np.empty_like(f), spare_gap=np.empty_like(f), log_w=None
    )
    if s.p is not None:
        s.grad_u, s.gap_p = np.empty_like(s.p), np.empty_like(s.p)
    return _run(
        cfg, truth, s, lambda s, k: step(s, k, cfg), lambda d: _bilinear_diagnostics(d, cfg), solo, _bilinear_handoff
    )


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
    field is updated in place in ``state.dual`` for the next warm start.
    """
    target = state.v * state.w + state.lam_w / cfg.alpha - cfg.lambda2 / cfg.alpha
    chambolle = cfg.chambolle or ChambolleConfig(inner_iters=BCA_INNER_ITERS)
    u, state.dual = tv_l2_denoise(target, cfg.alpha, chambolle, state.dual)
    return u


def _v_update(state, f, cfg, alpha, log_w, lambda1_f):
    u, w = state.u, state.w
    if log_w is None:
        log_w = ln(w)  # also rejects nonpositive w, which means a broken w update
    if lambda1_f is None:
        lambda1_f = cfg.lambda1 * f
    # numer = lambda1*f + lambda2*log w + alpha*w*u, den = lambda1 + alpha*w*w,
    # in place but in the rounding order of those expressions
    numer = np.multiply(log_w, cfg.lambda2)
    numer += lambda1_f
    aw = np.multiply(w, alpha)
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


def bca_v_step(state: SolverState, f, cfg: SolverConfig, log_w=None, lambda1_f=None) -> np.ndarray:
    """Pointwise Gaussian-part update; expects ``state.u`` already advanced.

    Minimizer of the per-pixel strongly convex objective
    ``(lambda1/2)(f - v)^2 - lambda2*(v log w + v) + (alpha/2)(v w + lam_w/alpha - u)^2``
    clamped to the feasible set ``v >= epsilon``.  ``log_w`` (``ln(state.w)``)
    and ``lambda1_f`` (``lambda1 * f``) are computed here when omitted.
    """
    return _v_update(state, f, cfg, cfg.alpha, log_w, lambda1_f)


def _w_update(state, cfg, alpha):
    if np.min(state.v) < cfg.epsilon:
        raise DomainError("v entries below the positivity floor; v update is broken")
    u, v, lambda2 = state.u, state.v, cfg.lambda2
    x = state.lam_w / alpha
    np.subtract(u, x, out=x)
    root = np.multiply(v, 4.0 * lambda2)
    root /= alpha
    s = np.square(x)
    root += s
    np.sqrt(root, out=root)
    # w = (x + root) / (2v) = (2 lambda2/alpha) / (root - x): algebraically
    # equal, and picking by the sign of x avoids the catastrophic cancellation
    # of (x + root) when x is negative.  root + |x| is exactly x + root where
    # x >= 0 and root - x where x < 0 (a - b == a + (-b) in IEEE arithmetic),
    # so both quotients come from that one array.
    np.abs(x, out=s)
    s += root
    np.multiply(v, 2.0, out=root)
    np.divide(s, root, out=root)
    np.divide(2.0 * lambda2 / alpha, s, out=s)
    return np.where(x >= 0.0, root, s)


def bca_w_step(state: SolverState, cfg: SolverConfig) -> np.ndarray:
    """Pointwise ratio update; expects ``state.u`` and ``state.v`` advanced.

    Positive root of ``alpha v w^2 + (lam_w - alpha u) w - lambda2 = 0`` per
    pixel (stationarity of ``-lambda2 v log w + (alpha/2)(v w + lam_w/alpha - u)^2``).
    Always strictly positive.
    """
    return _w_update(state, cfg, cfg.alpha)


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


def _bca_step(s: SimpleNamespace, k: int, cfg: SolverConfig) -> None:
    """Outer iteration ``k`` of ``bca`` on the namespace of
    :func:`_bilinear_solve`, in place."""
    s.u = bca_u_step(s, s.f, cfg)
    s.v = bca_v_step(s, s.f, cfg, s.log_w, s.lambda1_f)
    s.w = bca_w_step(s, cfg)
    s.log_w = ln(s.w)  # read by the diagnostics, reused by the next v-step
    s.gap, s.spare_gap = s.spare_gap, s.gap
    s.lam_w = bca_multiplier_step(s, cfg, s.gap)
    s.iters = k


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


def bcaf_u_step(state: SolverState, f, cfg: SolverConfig) -> np.ndarray:
    """Screened-Poisson image update, solved exactly by one 2-D DCT.

    Normal equations of the u block:
    ``(alpha_w I - alpha_p Lap) u = -lambda2 + lam_w + alpha_w v.*w - div(lam_p + alpha_p p)``.
    The solve is direct, so the result does not depend on the previous u.
    """
    # in place, in the rounding order of the formula (-lambda2 + lam_w is
    # exactly lam_w - lambda2)
    rhs = np.subtract(state.lam_w, cfg.lambda2)
    work = np.multiply(state.v, cfg.alpha_w)
    work *= state.w
    rhs += work
    flux = np.multiply(state.p, cfg.alpha_p)
    flux += state.lam_p
    rhs -= divergence(flux, out=work)
    return solve_screened_poisson(rhs, cfg.alpha_w, cfg.alpha_p)


def bcaf_v_step(state: SolverState, f, cfg: SolverConfig, log_w=None, lambda1_f=None) -> np.ndarray:
    """Same pointwise update as the bilinear solver, at penalty ``alpha_w``."""
    return _v_update(state, f, cfg, cfg.alpha_w, log_w, lambda1_f)


def bcaf_w_step(state: SolverState, cfg: SolverConfig) -> np.ndarray:
    return _w_update(state, cfg, cfg.alpha_w)


def bcaf_p_step(state: SolverState, cfg: SolverConfig, grad_u: np.ndarray | None = None) -> np.ndarray:
    """Vector shrinkage of the gradient split; expects ``state.u`` advanced.

    ``grad_u`` is ``gradient(state.u)``; ``bcaf_solve`` passes the one it
    computes per iteration, and it is taken here when omitted.
    """
    if grad_u is None:
        grad_u = gradient(state.u)
    q = np.divide(state.lam_p, cfg.alpha_p)
    np.subtract(grad_u, q, out=q)
    return soft_threshold(q, 1.0 / cfg.alpha_p, out=q)


def bcaf_multiplier_step(
    state: SolverState, cfg: SolverConfig, grad_u: np.ndarray, gap=None, gap_p=None
):
    """Dual ascent on both constraints; expects u, v, w, p advanced.

    ``grad_u`` is ``gradient(state.u)``, computed once per iteration by the
    caller and shared with the p-step and the trace diagnostics.  ``gap`` and
    ``gap_p``, when given, receive the constraint gaps ``v .* w - u`` and
    ``p - grad_u``, which the trace diagnostics reuse.
    """
    gap = np.multiply(state.v, state.w, out=gap)
    gap -= state.u
    gap_p = np.subtract(state.p, grad_u, out=gap_p)
    return _ascent(state.lam_w, cfg.alpha_w, gap), _ascent(state.lam_p, cfg.alpha_p, gap_p)


def _bcaf_step(s: SimpleNamespace, k: int, cfg: SolverConfig) -> None:
    """Outer iteration ``k`` of ``bcaf`` on the namespace of
    :func:`_bilinear_solve`, in place."""
    s.u = bcaf_u_step(s, s.f, cfg)
    gradient(s.u, out=s.grad_u)
    s.v = bcaf_v_step(s, s.f, cfg, s.log_w, s.lambda1_f)
    s.w = bcaf_w_step(s, cfg)
    s.log_w = ln(s.w)  # read by the diagnostics, reused by the next v-step
    s.p = bcaf_p_step(s, cfg, s.grad_u)
    s.gap, s.spare_gap = s.spare_gap, s.gap
    s.lam_w, s.lam_p = bcaf_multiplier_step(s, cfg, s.grad_u, s.gap, s.gap_p)
    s.iters = k


def bcaf_solve(f, cfg: SolverConfig, truth=None):
    """Run the flux-split solver on observation ``f`` (an image or a stack);
    returns ``(u, trace)`` as :func:`bca_solve` does."""
    return _bilinear_solve(f, cfg, truth, bcaf_init, _bcaf_step)


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
    s = SimpleNamespace(f=f, u=f, dual=None)

    def step(s, k):
        s.u, s.dual = tv_l2_denoise(s.f, lam, cfg.chambolle, s.dual)

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
    if not lam > 0.0:
        raise DomainError("fidelity weight must be positive")
    if np.min(f) < 0.0:
        raise DomainError("Poisson fidelity needs a nonnegative observation")
    rho = cfg.alpha
    s = SimpleNamespace(f=f, u=f.copy(), z=f.copy(), mu=np.zeros_like(f), dual=None)

    def step(s, k):
        s.u, s.dual = tv_l2_denoise(s.z + s.mu / rho, rho, cfg.chambolle, s.dual)
        s.z = kl_z_update(s.u, s.mu, s.f, lam, rho)
        s.mu = s.mu + rho * (s.z - s.u)

    def diagnose(s):
        log_u = np.log(np.maximum(s.u, 1e-12))
        val = lam * float(np.sum(s.u - np.where(s.f > 0.0, s.f * log_u, 0.0))) + total_variation(s.u)
        gap = s.z - s.u
        lagrangian = val + float(np.sum(s.mu * gap)) + 0.5 * rho * float(np.sum(gap * gap))
        return val, lagrangian, None, None, None

    return _run(cfg, truth, s, step, diagnose, solo)
