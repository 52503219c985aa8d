"""Upper bounds for the minimax values over families of genus j.

The family for level j is a radius-rho sphere in a j-coordinate block.
That sphere is symmetric, misses 0, and has genus exactly j: the identity
is an odd map into R^j minus 0 (genus <= j), and by Borsuk-Ulam no odd
continuous map takes S^(j-1) into R^(j-1) minus 0 (genus >= j).  So for
every rho

    c_j <= sup over the sphere of I,

and minimizing the sup over rho tightens the bound.  The sup itself is
estimated from below (axis stencil + quasi-random sphere samples +
multi-start projected ascent), so the bound is heuristic-tight: honest
as an upper bound for c_j only insofar as the inner sup estimate reaches
the true sup.  The report carries the budget for that reason.

Each level evaluates its whole radius grid as one batched projected
ascent (every radius's rows side by side), then refines the best grid
radius with a bounded 1-d minimization, one sup per evaluated radius.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import DimensionError, InvalidParams, NoNegativeCertificate
from .functionals import Functional
from .models import ClarkModel
from .spaces import Point

# optimal radius for the coordinate model scales like 3^(-2j); the grid
# floor must sit below it for every j the acceptance range uses
_RHO_GRID = np.geomspace(1e-6, 1.0, 24)

# sphere-sup effort: projected-ascent starts, quasi-random sphere samples
# and ascent steps per start
_N_STARTS = 6
_N_SAMPLES = 64
_ASCENT_STEPS = 80


@dataclass(frozen=True)
class Budget:
    rng_seed: int = 0

    def describe(self) -> str:
        return (f"starts={_N_STARTS};samples={_N_SAMPLES};"
                f"ascent={_ASCENT_STEPS};seed={self.rng_seed}")


def _block_indices(f: Functional, k: int) -> np.ndarray:
    if k < 1:
        raise InvalidParams("k must be >= 1")
    if isinstance(f, ClarkModel):
        if k > f.params.n:
            raise DimensionError(f"k={k} exceeds truncation n={f.params.n}")
        return np.arange(1, k + 1)  # x-block, t pinned to 0
    if k > f.space.dim:
        raise DimensionError(f"k={k} exceeds space dimension {f.space.dim}")
    return np.arange(k)


def _embed(dim: int, block: np.ndarray, y: np.ndarray) -> np.ndarray:
    coords = np.zeros((y.shape[0], dim))
    coords[:, block] = y
    return coords


def _renorm(f, block, y, rho):
    norms = np.atleast_1d(f.space.norm(_embed(f.space.dim, block, y)))
    return y * (rho / np.where(norms > 0, norms, 1.0))[:, None]


def sphere_sup_witness(f: Functional, k: int, rho, budget: Budget | None = None):
    """Lower estimate of sup I over the radius-rho sphere of the
    k-coordinate block; returns (value, witness coords).

    ``rho`` is a radius or a 1-d array of radii.  An array runs one
    projected ascent over every radius's rows and returns one value and
    one witness per radius; each is bit-for-bit its scalar call, since
    every radius draws the same samples and every step works row by row.
    """
    radii = np.asarray(rho, dtype=float)
    if radii.ndim > 1 or radii.size == 0:
        raise InvalidParams("rho must be a radius or a non-empty 1-d array of radii")
    if not np.all(np.isfinite(radii)):
        raise InvalidParams("rho must be finite")
    if np.any(radii <= 0):
        raise InvalidParams("rho must be positive")
    budget = budget or Budget()
    block = _block_indices(f, k)
    dim = f.space.dim
    rng = np.random.default_rng(budget.rng_seed)
    r = np.atleast_1d(radii)
    nr, idx = len(r), np.arange(len(r))

    # axis stencil +- rho e_i, quasi-random sphere samples, ascent starts;
    # the same directions for every radius, one block of rows per radius
    stencil = np.concatenate([np.eye(k), -np.eye(k)], axis=0)
    samples = rng.standard_normal((_N_SAMPLES, k))
    starts = rng.standard_normal((_N_STARTS, k))
    dirs = np.concatenate([stencil, samples, starts], axis=0)
    y0 = _renorm(f, block, np.tile(dirs, (nr, 1)), np.repeat(r, len(dirs)))

    vals = np.atleast_1d(f.value_of(_embed(dim, block, y0))).reshape(nr, -1)
    y0 = y0.reshape(nr, len(dirs), k)
    i = np.argmax(vals, axis=1)
    best_val = vals[idx, i]
    best_y = y0[idx, i]

    # projected ascent on the constraint ||embed(y)|| = rho
    y = y0[:, -_N_STARTS:].reshape(-1, k).copy()
    r_rows = np.repeat(r, _N_STARTS)
    # one fused evaluation per step; a rejected row keeps y and its gradient
    cur, grad = f.value_and_grad(_embed(dim, block, y))
    alpha = 0.1 * r_rows
    for _ in range(_ASCENT_STEPS):
        coords = _embed(dim, block, y)
        partial = f.space.to_dual(grad)[:, block]
        q = f.space.to_dual(coords)[:, block]
        qq = np.sum(q * q, axis=1)
        coef = np.sum(partial * q, axis=1) / np.where(qq > 0, qq, 1.0)
        tang = partial - coef[:, None] * q
        trial = _renorm(f, block, y + alpha[:, None] * tang, r_rows)
        t_val, t_grad = f.value_and_grad(_embed(dim, block, trial))
        better = t_val > cur
        y[better] = trial[better]
        cur[better] = t_val[better]
        grad[better] = t_grad[better]
        alpha[better] *= 1.2
        alpha[~better] *= 0.5
    i = np.argmax(cur.reshape(nr, _N_STARTS), axis=1)
    top = cur.reshape(nr, _N_STARTS)[idx, i]
    up = top > best_val
    best_val[up] = top[up]
    best_y[up] = y.reshape(nr, _N_STARTS, k)[idx, i][up]

    witnesses = _embed(dim, block, best_y)
    if radii.ndim == 0:
        return float(best_val[0]), witnesses[0]
    return best_val, witnesses


@dataclass
class MinimaxEstimate:
    j: int
    rho_star: float
    upper_bound: float
    sphere_sup_trace: list          # (rho, sup) pairs
    witness: Point
    budget: Budget

    def to_json_dict(self):
        return {
            "j": self.j,
            "rho_star": self.rho_star,
            "upper_bound": self.upper_bound,
            "trace": [[float(r), float(s)] for r, s in self.sphere_sup_trace],
            "witness": [float(c) for c in self.witness.coords],
            "budget": self.budget.describe(),
        }


def cj_upper_bound(f: Functional, j: int, budget: Budget | None = None) -> MinimaxEstimate:
    """Upper bound for the j-th minimax value: min over the radius grid
    of the block-sphere sup, sharpened by a bounded 1-d minimization
    around the best grid radius."""
    budget = budget or Budget()

    # the whole radius grid in one batched ascent
    sups, grid_witnesses = sphere_sup_witness(f, j, _RHO_GRID, budget)
    trace = [(float(r), float(s)) for r, s in zip(_RHO_GRID, sups)]
    witnesses = list(grid_witnesses)

    i = int(np.argmin(sups))
    lo = _RHO_GRID[i - 1] if i > 0 else _RHO_GRID[i] / 100.0
    hi = _RHO_GRID[i + 1] if i + 1 < len(_RHO_GRID) else _RHO_GRID[i] * 100.0
    # the bounded minimizer returns a radius it has evaluated, so its sup
    # and witness are read back, not recomputed
    seen = {}

    def sup_at(r):
        seen[float(r)] = sphere_sup_witness(f, j, float(r), budget)
        return seen[float(r)][0]

    res = minimize_scalar(sup_at, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-10})
    r_ref = float(res.x)
    v_ref, w_ref = seen[r_ref]
    trace.append((r_ref, v_ref))
    witnesses.append(w_ref)

    k = int(np.argmin([s for _, s in trace]))
    rho_star, upper = trace[k]
    if upper >= 0:
        raise NoNegativeCertificate(
            f"every sphere sup for j={j} is nonnegative on this grid/budget")
    return MinimaxEstimate(j=j, rho_star=rho_star, upper_bound=upper,
                           sphere_sup_trace=trace,
                           witness=Point(witnesses[k], f.space), budget=budget)
