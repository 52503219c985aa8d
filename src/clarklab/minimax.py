"""Upper bounds for the minimax values of the coordinate model.

The family for level j is a radius-rho sphere in the block of the first
j x-coordinates, with t pinned to 0.  That sphere is symmetric, misses 0,
and has genus exactly j: the identity is an odd map into R^j minus 0
(genus <= j), and by Borsuk-Ulam no odd continuous map takes S^(j-1) into
R^(j-1) minus 0 (genus >= j).  So for every rho

    c_j <= sup over the sphere of I,

and minimizing the sup over rho tightens the bound.

On that sphere I = rho^2/2 - (4/3) sum_i 3^(-i) s_i^(3/4) with
s_i = x_i^2 summing to rho^2.  The sum is concave in s, so its minimum
over the simplex sits at the vertex of the smallest weight: the sup is
rho^2/2 - (4/3) 3^(-j) rho^(3/2), attained at +-rho e_j, a row of the
axis stencil.  So the stencil's best row is the exact sup, and the bound
is certified; its optimum over rho is ``coordinate_model_bound(j)``
(Rabinowitz, CBMS 65, 1986; Kajikiya, J. Funct. Anal. 2005).

Each level evaluates the stencil at every radius of a fixed grid and at
the closed-form optimum in one value call, and keeps the smallest sup.
The grid keeps the bound from resting on the closed form alone: were
that optimum wrong, a grid radius would win.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidParams
from .models import LEVEL_J_MAX, ClarkModel
from .spaces import Point

# the radii every level evaluates beside its closed-form optimum
_RHO_GRID = np.geomspace(1e-6, 1.0, 24)


def coordinate_model_bound(j: int) -> tuple[float, float]:
    """(rho*, bound): the radius minimizing the coordinate model's exact
    block-sphere sup rho^2/2 - (4/3) 3^(-j) rho^(3/2), and that minimum,
    -(8/3) 3^(-4j), a certified upper bound for c_j."""
    return 4.0 * 3.0 ** (-2 * j), -(8.0 / 3.0) * 3.0 ** (-4 * j)


def sphere_sup_witness(model: ClarkModel, k: int, radii):
    """Sup of I over the radius-rho sphere of the first k x-coordinates
    (t = 0) for each rho of the non-empty 1-d array ``radii``: the best row
    of the axis stencil +-rho e_i, which holds the maximizer, so the sup is
    exact.  Returns the sups and one witness row per radius, from one value
    call that works row by row, so no radius depends on the others."""
    r = np.asarray(radii, dtype=float)
    if r.ndim != 1 or r.size == 0:
        raise InvalidParams("radii must be a non-empty 1-d array")
    if not np.all(np.isfinite(r)):
        raise InvalidParams("radii must be finite")
    if np.any(r <= 0):
        raise InvalidParams("radii must be positive")
    if k < 1:
        raise InvalidParams("k must be >= 1")
    if k > model.n:
        raise DimensionError(f"k={k} exceeds truncation n={model.n}")

    # one block of 2k stencil rows per radius, each row rho times a unit axis
    stencil = np.concatenate([np.eye(k), -np.eye(k)], axis=0)
    coords = np.zeros((len(r) * 2 * k, model.space.dim))
    coords[:, 1:k + 1] = np.repeat(r, 2 * k)[:, None] * np.tile(stencil, (len(r), 1))

    vals = model.value_of(coords)
    best = np.arange(len(r)) * 2 * k + np.argmax(vals.reshape(len(r), -1), axis=1)
    return vals[best], coords[best]


@dataclass
class MinimaxEstimate:
    j: int
    rho_star: float
    upper_bound: float
    sphere_sup_trace: list          # (rho, sup) pairs
    witness: Point


def cj_upper_bound(model: ClarkModel, j: int) -> MinimaxEstimate:
    """Upper bound for the j-th minimax value: the smallest block-sphere
    sup over the radius grid and the closed-form optimum rho*, which the
    trace records last.  Raises InvalidParams above j = LEVEL_J_MAX."""
    if j > LEVEL_J_MAX:
        raise InvalidParams(f"levels are bounded up to j = {LEVEL_J_MAX}, got j = {j}")
    radii = np.append(_RHO_GRID, coordinate_model_bound(j)[0])
    sups, witnesses = sphere_sup_witness(model, j, radii)
    k = int(np.argmin(sups))
    return MinimaxEstimate(j=j, rho_star=float(radii[k]), upper_bound=float(sups[k]),
                           sphere_sup_trace=[(float(r), float(s)) for r, s in zip(radii, sups)],
                           witness=Point(witnesses[k], model.space))
