"""Upper bounds for the minimax values over families of genus j.

The family for level j is a radius-rho sphere in a j-coordinate block.
That sphere is symmetric, misses 0, and has genus exactly j: the identity
is an odd map into R^j minus 0 (genus <= j), and by Borsuk-Ulam no odd
continuous map takes S^(j-1) into R^(j-1) minus 0 (genus >= j).  So for
every rho

    c_j <= sup over the sphere of I,

and minimizing the sup over rho tightens the bound.

On the coordinate model the block is the first j x-coordinates with t
pinned to 0, where I = rho^2/2 - (4/3) sum_i 3^(-i) s_i^(3/4) with
s_i = x_i^2 summing to rho^2.  That sum is concave in s, so its minimum
over the simplex sits at the vertex of the smallest weight: the sup is
rho^2/2 - (4/3) 3^(-j) rho^(3/2), attained at +-rho e_j, a row of the
axis stencil.  There the sup is exact and the bound certified; its
optimum over rho is ``coordinate_model_bound(j)`` (Rabinowitz, CBMS 65,
1986; Kajikiya, J. Funct. Anal. 2005).  On any other functional the sup
is sampled (axis stencil + quasi-random sphere samples), only a lower
estimate, so the bound is as honest as that estimate; the report
carries the budget for that reason.

Each level evaluates its whole radius grid in one value call (every
radius's rows side by side), then refines the best grid radius with a
bounded 1-d minimization, one sup per evaluated radius.
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

# sphere-sup effort: quasi-random sphere samples beside the axis stencil
_N_SAMPLES = 64


@dataclass(frozen=True)
class Budget:
    rng_seed: int = 0

    def describe(self) -> str:
        return f"samples={_N_SAMPLES};seed={self.rng_seed}"


def coordinate_model_bound(j: int) -> tuple[float, float]:
    """(rho*, bound): the radius minimizing the coordinate model's exact
    block-sphere sup rho^2/2 - (4/3) 3^(-j) rho^(3/2), and that minimum,
    -(8/3) 3^(-4j), a certified upper bound for c_j."""
    return 4.0 * 3.0 ** (-2 * j), -(8.0 / 3.0) * 3.0 ** (-4 * j)


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


def sphere_sup_witness(f: Functional, k: int, rho, budget: Budget | None = None):
    """Sup of I over the radius-rho sphere of the k-coordinate block, as
    the best of the axis stencil and the quasi-random samples; returns
    (value, witness coords).

    On the coordinate model the stencil holds the maximizer, so the value
    is the exact sup; on any other functional it is a lower estimate.

    ``rho`` is a radius or a 1-d array of radii.  An array evaluates
    every radius's rows in one value call and returns one value and one
    witness per radius; each is bit-for-bit its scalar call, since every
    radius draws the same samples and the value works row by row.
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
    r = np.atleast_1d(radii)

    # axis stencil +- rho e_i and quasi-random sphere samples; the same
    # directions for every radius, one block of rows per radius
    stencil = np.concatenate([np.eye(k), -np.eye(k)], axis=0)
    samples = np.random.default_rng(budget.rng_seed).standard_normal((_N_SAMPLES, k))
    dirs = np.concatenate([stencil, samples], axis=0)
    coords = np.zeros((len(r) * len(dirs), f.space.dim))
    coords[:, block] = np.tile(dirs, (len(r), 1))
    coords *= (np.repeat(r, len(dirs)) / f.space.norm(coords))[:, None]

    vals = np.atleast_1d(f.value_of(coords))
    best = np.arange(len(r)) * len(dirs) + np.argmax(vals.reshape(len(r), -1), axis=1)
    best_val, witnesses = vals[best], coords[best]
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

    # the whole radius grid in one batched sup
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
