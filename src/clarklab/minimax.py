"""Upper bounds for the minimax values over genus-certified families.

The family for level j is a radius-rho sphere in a j-coordinate block
(genus exactly j by the coordinate-sphere certificate), so for every rho

    c_j <= sup over the sphere of I,

and minimizing the sup over rho tightens the bound.  The sup itself is
estimated from below (axis stencil + quasi-random sphere samples +
multi-start projected ascent), so the bound is heuristic-tight: honest
as an upper bound for c_j only insofar as the inner sup estimate reaches
the true sup.  The report carries the budget for that reason.
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


def sphere_sup_witness(f: Functional, k: int, rho: float,
                       budget: Budget | None = None):
    """Lower estimate of sup I over the radius-rho sphere of the
    k-coordinate block; returns (value, witness coords)."""
    if rho <= 0:
        raise InvalidParams("rho must be positive")
    budget = budget or Budget()
    block = _block_indices(f, k)
    dim = f.space.dim
    rng = np.random.default_rng(budget.rng_seed)

    # axis stencil +- rho e_i, quasi-random sphere samples, ascent starts
    stencil = np.concatenate([np.eye(k), -np.eye(k)], axis=0)
    samples = rng.standard_normal((_N_SAMPLES, k))
    starts = rng.standard_normal((_N_STARTS, k))
    y0 = _renorm(f, block, np.concatenate([stencil, samples, starts], axis=0), rho)

    vals = np.atleast_1d(f.value_of(_embed(dim, block, y0)))
    best_val = float(np.max(vals))
    best_y = y0[int(np.argmax(vals))].copy()

    # projected ascent on the constraint ||embed(y)|| = rho
    y = y0[len(stencil) + len(samples):].copy()
    if len(y):
        cur = np.atleast_1d(f.value_of(_embed(dim, block, y)))
        alpha = np.full(len(y), 0.1 * rho)
        for _ in range(_ASCENT_STEPS):
            coords = _embed(dim, block, y)
            partial = f.space.to_dual(f.grad_of(coords))[:, block]
            q = f.space.to_dual(coords)[:, block]
            qq = np.sum(q * q, axis=1)
            coef = np.sum(partial * q, axis=1) / np.where(qq > 0, qq, 1.0)
            tang = partial - coef[:, None] * q
            trial = _renorm(f, block, y + alpha[:, None] * tang, rho)
            t_val = np.atleast_1d(f.value_of(_embed(dim, block, trial)))
            better = t_val > cur
            y[better] = trial[better]
            cur[better] = t_val[better]
            alpha[better] *= 1.2
            alpha[~better] *= 0.5
        i = int(np.argmax(cur))
        if cur[i] > best_val:
            best_val = float(cur[i])
            best_y = y[i].copy()

    return best_val, _embed(dim, block, best_y[None, :])[0]


def sphere_sup(f: Functional, k: int, rho: float, budget: Budget | None = None) -> float:
    return sphere_sup_witness(f, k, rho, budget)[0]


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

    trace = []
    witnesses = []
    for rho in _RHO_GRID:
        val, w = sphere_sup_witness(f, j, float(rho), budget)
        trace.append((float(rho), val))
        witnesses.append(w)

    sups = np.array([s for _, s in trace])
    i = int(np.argmin(sups))
    lo = _RHO_GRID[i - 1] if i > 0 else _RHO_GRID[i] / 100.0
    hi = _RHO_GRID[i + 1] if i + 1 < len(_RHO_GRID) else _RHO_GRID[i] * 100.0
    res = minimize_scalar(lambda r: sphere_sup(f, j, float(r), budget),
                          bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-10})
    r_ref = float(res.x)
    v_ref, w_ref = sphere_sup_witness(f, j, r_ref, budget)
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
