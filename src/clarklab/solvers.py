"""Critical point solvers: the batch descent flow, seed samplers, and the
two checks that run it on the coordinate model, the accumulation scan and
the interior exclusion.

The flow integrates du/dtau = -grad I(u) with adaptive explicit Euler
steps: a step is accepted only when it decreases the energy by the
sufficient-decrease margin (up to a machine-epsilon noise band), so
energies are non-increasing along every trajectory except for rounding
at the ~1e-14 scale.  Seeds are independent; the batch driver
advances all of them in lockstep with per-row step sizes, which is what
makes thousand-seed scans cheap in numpy.  Its arrays hold only the rows
still running: a row's result is recorded on the iteration it stops, and
the row leaves the arrays then, so every step works on whole arrays.
An iteration takes the accepted proposals with one masked select per
array (``np.where`` on the acceptance mask), so accepted and rejected
rows go through the same few calls and a rejected row keeps its old
values bit for bit.

A functional may split its coordinates into blocks (``step_blocks``).
Each block of each row then keeps its own Armijo step and its own flow
time, and the blocks are updated in alternating sweeps: block coordinate
descent (Tseng, JOTA 2001) under the same acceptance test, measured with
the Euclidean norm of the block's gradient.  The coordinate model uses
this to let the parameter t drift on its tiny gradient with a step the
stiff x-modes would otherwise cap.  With one block (every H01 functional)
the iteration is the plain full-gradient flow in the space norm; the
wrapper's block is uncapped, since its origin is a degenerate minimum.

Each iteration makes one ``Functional.value_and_grad`` call, on the
proposals of the running rows: the value decides acceptance, and the
accepted rows keep the gradient computed with it.  A row's value and
gradient do not depend on the other rows of the batch, so this gives the
bits of evaluating the accepted rows again, without the second pass.
The gradients of rejected proposals are the only waste.

A row has converged once its gradient's space norm is at most
``RESIDUAL_TOL``, defined here alone; the scan labels its terminals with it.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams
from .functionals import Functional
from .models import ClarkModel, classify_model_point, segment_distance

# the gradient residual (space norm) at or below which a row has converged
RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class SolveConfig:
    max_flow_time: float = 1e6

    def __post_init__(self):
        # a NaN passes "<= 0" unnoticed, so the test is "not > 0"
        if not self.max_flow_time > 0:
            raise InvalidParams("max_flow_time must be positive")


# _STEP_CAP bounds the step of every capped block (see
# Functional.step_blocks), meant for stiff blocks like the model's x-modes:
# it sits below their explicit-Euler stability edge 2/lambda = 4 (curvature
# 1/2).  Uncapped blocks, the model's t and the wrapper's one block (a
# degenerate minimum, where curvature goes to 0), grow their step as far as
# the Armijo test allows.
_STEP_CAP = 3.8
_INITIAL_STEP = 0.1
_ARMIJO = 1e-4      # sufficient-decrease fraction
_GROW = 1.3         # step factor after an accepted step
_SHRINK = 0.5       # step factor after a rejected step
_MIN_STEP = 1e-14   # a block step below this stalls the row


# Near a terminal point the true per-step decrease h*|g|^2 drops below the
# double-precision resolution of the energy itself; strict sufficient-decrease
# then rejects forever on evaluation rounding noise and the step size never
# recovers.  Accepting within a small multiple of machine epsilon (scaled by
# the energy magnitude) lets the step regrow so the iterate can actually
# reach the residual tolerance.  Upticks stay below ~1e-14 in units of |I|.
_ENERGY_NOISE = 32.0 * np.finfo(float).eps


# why a batch row stopped
STOP_CONVERGED = "converged"
STOP_BUDGET = "budget"      # flow time reached max_flow_time
STOP_STALLED = "stalled"    # a step shrank below _MIN_STEP


@dataclass
class _RowResult:
    coords: np.ndarray
    value: float
    residual: float
    flow_time: float
    steps: int
    stop: str

    @property
    def converged(self) -> bool:
        return self.stop == STOP_CONVERGED


def gradient_flow_solve_batch(f: Functional, seeds, cfg: SolveConfig) -> list:
    """Advance every seed row of ``seeds`` (shape (m, dim)) to residual
    tolerance, time budget or step collapse; returns a _RowResult per row.

    Iteration k proposes a step on block k mod nb of ``f.step_blocks()``.
    A row's flow time is the smallest of its blocks' flow times.  The
    arrays hold only the running rows, and ``rows`` maps them back to the
    input order.  A row's stop reason is converged, else budget, else
    stalled; a seed whose residual is NaN never runs and ends stalled.
    """
    space = f.space
    u = np.array(seeds, dtype=float)
    if u.ndim == 1:
        u = u[None, :]
    results = [None] * len(u)
    rows = np.arange(len(u))
    blocks = f.step_blocks()
    nb = len(blocks)
    caps = [_STEP_CAP if capped else np.inf for _, capped in blocks]
    h = np.full((len(u), nb), _INITIAL_STEP)
    tau = np.zeros((len(u), nb))
    energy, grad = f.value_and_grad(u)
    res = space.norm(grad)
    done = ~(res > RESIDUAL_TOL)

    k = 0
    while True:
        if done.any():
            flow_time = tau.min(axis=1)
            for i in np.flatnonzero(done):
                if res[i] <= RESIDUAL_TOL:
                    stop = STOP_CONVERGED
                elif flow_time[i] >= cfg.max_flow_time:
                    stop = STOP_BUDGET
                else:
                    stop = STOP_STALLED
                results[rows[i]] = _RowResult(
                    coords=u[i].copy(), value=float(energy[i]), residual=float(res[i]),
                    flow_time=float(flow_time[i]), steps=k, stop=stop)
            live = ~done
            u, h, tau, energy, grad, res, rows = (
                a[live] for a in (u, h, tau, energy, grad, res, rows))
        # checked before evaluating: an empty batch must not step
        if not rows.size:
            return results

        b = k % nb
        hb = h[:, b]
        if nb == 1:
            prop = u - hb[:, None] * grad
            gnorm2 = res * res
        else:
            sl = blocks[b][0]
            gb = grad[:, sl]
            prop = u.copy()
            prop[:, sl] -= hb[:, None] * gb
            gnorm2 = np.add.reduce(gb * gb, axis=1)
        e_prop, g_prop = f.value_and_grad(prop)
        slack = _ENERGY_NOISE * np.maximum(1.0, np.abs(energy))
        accept = e_prop <= energy - _ARMIJO * hb * gnorm2 + slack

        rowwise = accept[:, None]
        u = np.where(rowwise, prop, u)
        energy = np.where(accept, e_prop, energy)
        grad = np.where(rowwise, g_prop, grad)
        res = np.where(accept, space.norm(g_prop), res)
        # flow times are >= +0, so adding 0.0 leaves a rejected row's bits
        tau[:, b] += np.where(accept, hb, 0.0)
        # a block whose gradient vanishes exactly (the model's t at the
        # clamp corners) keeps its step, so an uncapped step stays finite
        h[:, b] = np.where(accept, np.where(gnorm2 > 0.0, np.minimum(hb * _GROW, caps[b]), hb),
                           hb * _SHRINK)
        k += 1

        done = ((res <= RESIDUAL_TOL) | (tau.min(axis=1) >= cfg.max_flow_time)
                | (h[:, b] < _MIN_STEP))


# ---------------------------------------------------------------------------
# seeding and the accumulation scan

def model_seed_sampler(model: ClarkModel, rng: np.random.Generator, count: int):
    """Box seeds for the coordinate model with sign-pattern sparsity.

    Dense draws alone almost surely activate every coordinate, and the flow
    preserves sign patterns, so small-value branch families would never be
    visited; half of the seeds therefore get a random coordinate mask.

    t stays strictly inside the ramp interval.  Trajectories started beyond
    it slide down the ramp onto a face and can park on its flat cusp side,
    where the inward drift of a weak branch already sits below any practical
    residual tolerance ~2e-5 away from the nearest critical point.  Interior
    seeds always reach a face through its steep side, which localizes
    terminals to ~1e-7.
    """
    n = model.n
    box = 2.0 * 9.0 * 3.0 ** (-2 * np.arange(1, n + 1))
    t = rng.uniform(-0.999, 0.999, size=count)
    x = rng.uniform(-1.0, 1.0, size=(count, n)) * box
    sparse = rng.random(count) < 0.5
    mask = rng.random((count, n)) < 0.5
    x[sparse] *= mask[sparse]
    return np.concatenate([t[:, None], x], axis=1)


def ball_seed_sampler(space, radius: float, rng: np.random.Generator, count: int):
    """Uniform-in-norm seeds inside the ball of the given space norm."""
    d = space.dim
    dirs = rng.standard_normal((count, d))
    norms = np.asarray(space.norm(dirs))
    dirs /= np.where(norms > 0, norms, 1.0)[:, None]
    radii = radius * rng.random(count) ** (1.0 / d)
    return dirs * radii[:, None]


@dataclass
class AccumulationReport:
    """Converged scan terminals with values inside a negative window, as
    columns: ``coords`` (rows of n + 1 floats), ``values``, ``residuals``,
    ``dist_to_k0`` (exact distance to K0, the critical set at level 0: the
    segment {(t, 0): |t| <= 1}), and the ``labels`` and ``patterns`` lists
    of ``classify_model_point``.  Rows are canonically sorted by value, then
    lexicographically by coordinates.
    """

    n_converged: int
    coords: np.ndarray
    values: np.ndarray
    residuals: np.ndarray
    dist_to_k0: np.ndarray
    labels: list
    patterns: list


def accumulation_scan(model: ClarkModel, window, n_seeds: int, seed: int,
                      cfg: SolveConfig | None = None, threads: int = 1) -> AccumulationReport:
    """Launch descent flows from ``n_seeds`` seeds drawn with rng ``seed``
    on the coordinate model and keep converged terminals whose value falls
    strictly inside the window (lo, hi), hi <= 0, labelled by one batched
    ``classify_model_point``.  An empty report is a valid outcome.
    """
    if not isinstance(model, ClarkModel):
        raise InvalidParams("accumulation_scan runs on the coordinate model")
    lo, hi = window
    if not (lo < hi <= 0.0):
        raise InvalidParams(f"window must satisfy lo < hi <= 0, got ({lo}, {hi})")
    if n_seeds < 1:
        raise InvalidParams("n_seeds must be positive")
    cfg = cfg or SolveConfig()
    seeds = model_seed_sampler(model, np.random.default_rng(seed), n_seeds)

    if threads > 1:
        chunks = np.array_split(seeds, threads)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda c: gradient_flow_solve_batch(model, c, cfg),
                                  [c for c in chunks if len(c)]))
        results = [r for part in parts for r in part]
    else:
        results = gradient_flow_solve_batch(model, seeds, cfg)

    converged = [r for r in results if r.converged]
    kept = [r for r in converged if lo < r.value < hi]
    coords = np.array([r.coords for r in kept]).reshape(-1, model.n + 1)
    values = np.array([r.value for r in kept])
    residuals = np.array([r.residual for r in kept])
    # canonical order: by value, then lexicographically by coordinates
    order = np.lexsort(np.vstack([coords.T[::-1], values]))
    coords, values, residuals = coords[order], values[order], residuals[order]
    labels, patterns = classify_model_point(model, coords, RESIDUAL_TOL)
    return AccumulationReport(n_converged=len(converged), coords=coords, values=values,
                              residuals=residuals, dist_to_k0=segment_distance(coords),
                              labels=labels, patterns=patterns)


# ---------------------------------------------------------------------------
# interior exclusion

@dataclass
class InteriorExclusionReport:
    """Tail-bound table plus a solver cross-check of the interior band."""

    bound_rows: list          # (j0, tail_sum, cap, lower, margin)
    min_margin: float
    seeds_run: int
    converged: int
    violations: list          # coords of converged points breaking the rule
    passed: bool


# interior band |t| < 1 - _INTERIOR_DELTA, zero x-part up to _INTERIOR_X_TOL,
# tail bounds for leading indices up to max(n, _TAIL_JMAX), and the flows:
# _INTERIOR_SEEDS seeds drawn with rng seed _INTERIOR_RNG_SEED, each with
# flow-time budget _INTERIOR_FLOW_TIME
_INTERIOR_DELTA = 1e-3
_INTERIOR_X_TOL = 1e-6
_TAIL_JMAX = 6
_INTERIOR_SEEDS = 400
_INTERIOR_RNG_SEED = 0
_INTERIOR_FLOW_TIME = 2e5


def verify_no_interior_negatives(model: ClarkModel) -> InteriorExclusionReport:
    """Check the two halves of the interior-exclusion argument.

    Analytically: for every leading index j0, the tail sum
    sum_{j>j0} 27 * 3^(-4j) stays below the cap (2/3) * 3^(-4 j0) while the
    leading term is at least 3^(-4 j0); the margin between tail and cap is
    reported per j0.  Numerically: descent flow is launched from seeded
    boxes and every converged point with |t| < 1 - _INTERIOR_DELTA must
    have zero x-part (within _INTERIOR_X_TOL).  Non-converged seeds are
    counted, not fatal.
    """
    rows = []
    for j0 in range(1, max(model.n, _TAIL_JMAX) + 1):
        tail = 27.0 * 3.0 ** (-4 * (j0 + 1)) / (1.0 - 3.0 ** -4)
        cap = (2.0 / 3.0) * 3.0 ** (-4 * j0)
        lower = 3.0 ** (-4 * j0)
        rows.append((j0, tail, cap, lower, 1.0 - tail / cap))
    min_margin = min(r[4] for r in rows)

    seeds = model_seed_sampler(model, np.random.default_rng(_INTERIOR_RNG_SEED), _INTERIOR_SEEDS)
    cfg = SolveConfig(max_flow_time=_INTERIOR_FLOW_TIME)
    results = gradient_flow_solve_batch(model, seeds, cfg)

    converged = [r.coords for r in results if r.converged]
    violations = [c for c in converged if abs(c[0]) < 1.0 - _INTERIOR_DELTA
                  and np.linalg.norm(c[1:]) > _INTERIOR_X_TOL]

    return InteriorExclusionReport(bound_rows=rows, min_margin=min_margin,
                                   seeds_run=_INTERIOR_SEEDS, converged=len(converged),
                                   violations=violations,
                                   passed=min_margin >= 0.25 and not violations)
