"""Model functionals with fully known critical structure.

Three families live here, all even, bounded below, and C1 but not C2:

* ``ClarkModel(n)``    -- a coordinate model on R^(n+1).  A point is
  (t, x_1, ..., x_n) and

      I(t, x) = 1/2 sum x_j^2
                - 2/3 sum 3^(-j) (a_plus(t) (x_j)_+^{3/2} + a_minus(t) (x_j)_-^{3/2})
                + phi(t),

  with a_plus = 2 + mu, a_minus = 2 - mu, a C1 odd profile mu that climbs
  from -1 to 1 across [-1, 1] and clamps outside, and a quadratic penalty
  phi vanishing on [-1, 1].  Every critical point is known in closed form:
  the segment {(t, 0): |t| <= 1} plus, at t = +-1, the sign-pattern branch
  points x_j in {0, 3^(-2j) a_plus(t)^2, -3^(-2j) a_minus(t)^2}.  The
  profile used here is the circular arc mu(t) = (2/pi)(t sqrt(1-t^2)
  + arcsin t); its derivative decays like sqrt(1-|t|) near the clamps,
  which keeps the branch points reachable by descent flows at tight
  residual tolerances (a sine profile flattens too fast in t and leaves
  the flow stranded an order of magnitude outside the oracle tolerance).

* ``SublinearEnergy``  -- the Dirichlet energy minus a sublinear potential
  on an H01 grid:  J(u) = 1/2 ||u||^2 - 1/(p+1) integral |u|^(p+1),
  p in (0, 1).  Critical points solve u'' + |u|^(p-1) u = 0 with zero
  boundary values.

* ``WrapperFunctional`` -- a radial recomposition of J whose critical
  values in (0, infinity) sit on spheres:  I(u) = 1 - cos(2 pi ||u||^2)
  for ||u|| <= 1 and I(u) = J((||u||^2 - 1) u) outside.  The origin is an
  isolated critical point at level 0 and the spheres ||u||^2 = 1/2 and
  ||u||^2 = 1 are critical with values 2 and 0.  ``wrapper_functional(grid)``
  builds it at p = 1/2.

Each functional is built by its constructor.  ``ClarkModel(n)`` owns n,
the weights 3^(-j) and the branch magnitudes.  Its closed-form critical set
(enumeration, oracle, labels) lives here; the flows that reach it, and the
checks on them, live in ``solvers``, which imports this module and not the
other way round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams
from .functionals import Functional
from .spaces import H01Grid, L2Truncation, row_sum

LABEL_Z = "Z"
LABEL_N = "N"
LABEL_NEG_N = "-N"
LABEL_OTHER = "other"


# ---------------------------------------------------------------------------
# profile and penalty

def mu_parts(t):
    """The odd C1 ramp and its derivative, vectorized.

    mu(t) = (2/pi) (t sqrt(1 - t^2) + arcsin t) on [-1, 1], clamped to
    +-1 outside; mu'(t) = (4/pi) sqrt(1 - t^2) inside, 0 outside.
    """
    t = np.asarray(t, dtype=float)
    tc = np.clip(t, -1.0, 1.0)
    root = np.sqrt(np.maximum(1.0 - tc * tc, 0.0))
    mu = (2.0 / np.pi) * (tc * root + np.arcsin(tc))
    dmu = np.where(np.abs(t) < 1.0, (4.0 / np.pi) * root, 0.0)
    return mu, dmu


def phi_parts(t):
    """Quadratic clamp penalty (t -+ 1)^2 outside [-1, 1] and its derivative."""
    t = np.asarray(t, dtype=float)
    up = np.maximum(t - 1.0, 0.0)
    dn = np.minimum(t + 1.0, 0.0)
    return up * up + dn * dn, 2.0 * up + 2.0 * dn


class ClarkModel(Functional):
    """The coordinate model at truncation dimension n >= 1, on R^(n+1)."""

    def __init__(self, n: int):
        if n < 1:
            raise InvalidParams(f"truncation dimension must be >= 1, got {n}")
        self.n = n
        self.space = L2Truncation(n + 1)
        self.weights = 3.0 ** -np.arange(1, n + 1)

    def branch_magnitudes(self, t):
        """Positive-branch and negative-branch |x_j| at parameter t:
        3^(-2j) a_plus(t)^2 and 3^(-2j) a_minus(t)^2."""
        mu, _ = mu_parts(t)
        w2 = self.weights ** 2
        return (2.0 + mu) ** 2 * w2, (2.0 - mu) ** 2 * w2

    def value_of(self, coords):
        return self._evaluate(coords, value=True, grad=False)[0]

    def grad_of(self, coords):
        return self._evaluate(coords, value=False, grad=True)[1]

    def value_and_grad(self, coords):
        return self._evaluate(coords, value=True, grad=True)

    def _evaluate(self, coords, value, grad):
        """(value, gradient), each None unless asked for; the profile
        terms and the 3/2 powers are computed once for both."""
        coords = np.asarray(coords, dtype=float)
        t, x = coords[..., 0], coords[..., 1:]
        mu, dmu = mu_parts(t)
        phi, dphi = phi_parts(t)
        xp = np.maximum(x, 0.0)
        xn = np.maximum(-x, 0.0)
        xp15 = xp ** 1.5
        xn15 = xn ** 1.5
        v = g = None
        if value:
            sp = row_sum(self.weights * xp15)
            sn = row_sum(self.weights * xn15)
            quad = 0.5 * row_sum(x * x)
            v = quad - (2.0 / 3.0) * ((2.0 + mu) * sp + (2.0 - mu) * sn) + phi
        if grad:
            g = np.empty_like(coords)
            g[..., 1:] = x - self.weights * (
                (2.0 + mu)[..., None] * np.sqrt(xp) - (2.0 - mu)[..., None] * np.sqrt(xn)
            )
            g[..., 0] = -(2.0 / 3.0) * dmu * row_sum(self.weights * (xp15 - xn15)) + dphi
        return v, g

    def step_blocks(self):
        # t drifts on gradients near 3e-5 while the x-modes are stiff
        # (curvature 1/2, stability edge 4): a shared step would be capped
        # by x and leave t crawling, so t gets its own, uncapped step
        return ((slice(0, 1), False), (slice(1, None), True))

    def kink_gaps(self, coords):
        # second derivatives fail at x_j = 0 and at the clamp corners t = +-1
        coords = np.asarray(coords, dtype=float)
        gaps = np.abs(coords).copy()
        gaps[0] = min(abs(coords[0] - 1.0), abs(coords[0] + 1.0))
        return gaps


# ---------------------------------------------------------------------------
# the known critical set

# the largest truncation whose critical set is enumerated: 2 * 3^n branch
# rows, 118,098 at n = 10.  Each step in n triples the rows, and the CLI's
# enumerate at n = 10 already peaks at about 450 MB
ENUMERATION_N_MAX = 10

# the largest level index j whose value scale 3^(-4j) is a normal float;
# past it the level values turn subnormal, then round to -0.0
LEVEL_J_MAX = int(np.log(np.finfo(float).tiny) / np.log(3.0 ** -4))


def _pattern_strings(signs):
    """One '+0-' string per row of a (k, n) array of signs in {1, 0, -1},
    as a (k,) string array."""
    chars = np.array(["-", "0", "+"])[signs + 1]
    return np.ascontiguousarray(chars).view(f"<U{signs.shape[1]}")[:, 0]


def _branch_rows(model: ClarkModel):
    """Sign patterns and rows of the 3^n branch points at t = 1, in
    itertools.product((1, 0, -1), repeat=n) order, then their mirrors at
    t = -1.  x_j is the positive-branch magnitude, 0 or minus the
    negative-branch one.  mu is odd, so at t = -1 the two magnitudes swap
    and each mirror is its row negated, with + 0.0 keeping zeros +0.0."""
    n = model.n
    if n > ENUMERATION_N_MAX:
        raise InvalidParams(f"the critical set is enumerated up to n = {ENUMERATION_N_MAX}, "
                            f"got n = {n}")
    signs = (1 - np.arange(3 ** n)[:, None] // 3 ** np.arange(n - 1, -1, -1) % 3).astype(np.int8)
    pos, neg = model.branch_magnitudes(1.0)
    rows = np.ones((len(signs), n + 1))
    rows[:, 1:] = np.where(signs > 0, pos, 0.0) - np.where(signs < 0, neg, 0.0)
    return np.concatenate([signs, -signs]), np.concatenate([rows, -rows + 0.0])


@dataclass
class EnumeratedCriticalSet:
    """Closed-form critical set of the coordinate model at truncation n, as
    columns: ``coords`` (rows of n + 1 floats), ``values``, ``residuals``,
    ``labels`` (N, -N or Z) and ``patterns`` (a sign-pattern string per
    branch point, None on the segment).

    Rows are canonically sorted by value, then lexicographically by
    coordinates.  The zero segment is represented by ``z_samples`` evenly
    spaced parameter values.
    """

    coords: np.ndarray
    values: np.ndarray
    residuals: np.ndarray
    labels: np.ndarray
    patterns: list


def enumerate_critical_set(model: ClarkModel, z_samples: int) -> EnumeratedCriticalSet:
    """All branch points at t = +-1 plus a sampling of the zero segment.

    Branch points come in 3^n sign patterns at t = 1 (label N) and their
    negations at t = -1 (label -N).  Every returned point has gradient
    residual below 1e-12 by construction of the branch formulas.  Raises
    InvalidParams above n = ENUMERATION_N_MAX.
    """
    if z_samples < 2:
        raise InvalidParams("z_samples must be at least 2")
    signs, branches = _branch_rows(model)
    segment = np.zeros((z_samples, model.n + 1))
    segment[:, 0] = np.linspace(-1.0, 1.0, z_samples)
    rows = np.concatenate([branches, segment])
    values = model.value_of(rows)
    residuals = model.space.norm(model.grad_of(rows))
    half = len(signs) // 2
    labels = np.repeat([LABEL_N, LABEL_NEG_N, LABEL_Z], [half, half, z_samples])
    patterns = np.full(len(rows), None, dtype=object)
    patterns[:len(signs)] = _pattern_strings(signs)
    # stable, so the t = +-1 segment rows stay behind the zero-pattern
    # branch points they duplicate
    order = np.lexsort(np.vstack([rows.T[::-1], values]))
    return EnumeratedCriticalSet(coords=rows[order], values=values[order],
                                 residuals=residuals[order], labels=labels[order],
                                 patterns=patterns[order].tolist())


def segment_distance(coords):
    """Exact distance of each (t, x) row of a (rows, n+1) batch to the zero
    segment {(t, 0): |t| <= 1}."""
    t, x = coords[:, 0], coords[:, 1:]
    return np.sqrt(np.maximum(np.abs(t) - 1.0, 0.0) ** 2 + np.sum(x * x, axis=1))


class CriticalSetOracle:
    """Distance queries against the closed-form critical set, exact at any n.

    The branch points at t = 1 are a product set: coordinate j takes one of
    3^(-2j) a_plus(1)^2, 0 and -3^(-2j) a_minus(1)^2, and the points at
    t = -1 are their negations.  So the nearest branch point of a face takes
    the nearest choice in each coordinate.  Rounding is monotone, so its
    squared distance, summed in coordinate order as cdist sums, is the
    smallest such sum over the face's 3^n points: the distance to the
    whole table, in O(n) work per row.
    """

    def __init__(self, model: ClarkModel):
        pos, neg = model.branch_magnitudes(1.0)
        self._choices = np.stack([pos, 0.0 * pos, -neg])

    def distance(self, coords):
        """Min distance to the zero segment union the branch points; both
        are exact (no sampling).  A 1-d point gives a float, a (rows, n+1)
        batch an array of one distance per row."""
        single = np.ndim(coords) == 1
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        t, x = coords[:, 0], coords[:, 1:]
        seg = segment_distance(coords)
        faces = []
        for side in (1.0, -1.0):
            sq = np.empty_like(coords)
            sq[:, 0] = np.square(t - side)
            sq[:, 1:] = np.min(np.square(x[:, None, :] - side * self._choices), axis=1)
            # cumsum adds in coordinate order, as cdist does; np.sum may pair terms
            faces.append(np.cumsum(sq, axis=1)[:, -1])
        out = np.minimum(seg, np.sqrt(np.minimum(*faces)))
        return float(out[0]) if single else out


# how far from t = +-1 a terminal may sit and still be labelled N or -N
_FACE_T_TOL = 1e-3


def classify_model_point(model: ClarkModel, coords, residual_tol: float):
    """Label solver terminal points by the closed-form structure;
    ``residual_tol`` is the gradient residual they were converged to.

    A point whose x-part is below 10*residual_tol is the zero segment
    (the whole segment is critical, so x is the only discriminator); the
    rest are branch families at t = +-1 up to _FACE_T_TOL, anything else
    is labelled other.  Every point but a Z one also gets the sign pattern
    of its x-part, with 0 for |x_j| up to 10*residual_tol.  A (rows, n+1)
    batch gives a list of labels and a list of patterns.
    """
    coords = np.asarray(coords, dtype=float)
    t, x = coords[:, 0], coords[:, 1:]
    cut = 10.0 * residual_tol
    zero = (np.linalg.norm(x, axis=1) < cut) & (np.abs(t) <= 1.0 + _FACE_T_TOL)
    labels = np.select([zero, np.abs(t - 1.0) <= _FACE_T_TOL, np.abs(t + 1.0) <= _FACE_T_TOL],
                       [LABEL_Z, LABEL_N, LABEL_NEG_N], LABEL_OTHER)
    signs = np.where(x > cut, 1, np.where(x < -cut, -1, 0))
    patterns = np.where(zero, None, _pattern_strings(signs).astype(object))
    return labels.tolist(), patterns.tolist()


# ---------------------------------------------------------------------------
# H01 functionals

class SublinearEnergy(Functional):
    """J(u) = 1/2 ||u||^2 - 1/(p+1) integral |u|^(p+1) on an H01 grid.

    The integral is the trapezoid rule (boundary values are zero).  The
    gradient is the Riesz representative  u - A^(-1)(h |u|^(p-1) u), whose
    zeros coincide with the central-difference discretization of
    u'' + |u|^(p-1) u = 0.
    """

    def __init__(self, grid: H01Grid, p: float = 0.5):
        if not 0.0 < p < 1.0:
            raise InvalidParams(f"p must lie in (0, 1), got {p}")
        self.space = grid
        self.p = p

    def value_of(self, coords):
        coords = np.asarray(coords, dtype=float)
        norm2 = np.square(self.space.norm(coords))
        pot = self.space.trapezoid(np.abs(coords) ** (self.p + 1.0))
        return 0.5 * norm2 - pot / (self.p + 1.0)

    def grad_of(self, coords):
        coords = np.asarray(coords, dtype=float)
        load = np.sign(coords) * np.abs(coords) ** self.p
        return coords - self.space.riesz_of_load(load)

    def kink_gaps(self, coords):
        return np.abs(np.asarray(coords, dtype=float))


class WrapperFunctional(Functional):
    """Radial wrapper around the sublinear energy.

    I(u) = 1 - cos(2 pi ||u||^2) on the unit ball and J((||u||^2 - 1) u)
    outside; value and gradient match on the seam, so I is C1.  Inside the
    ball the gradient is 4 pi sin(2 pi s) u, s = ||u||^2; outside it is
    (s - 1) grad J(w) + 2 <grad J(w), u>_H u at w = (s - 1) u, read from s and
    r = |w|^p: ||w||^2 = (s - 1)^2 s, and as <A^(-1)(h f), u>_H = h f.u,
    <grad J(w), u>_H = (s - 1) s - h sum(sign(w) r u).
    """

    def __init__(self, grid: H01Grid):
        self.space = grid
        self.inner_energy = SublinearEnergy(grid)

    def value_of(self, coords):
        return self._evaluate(coords, value=True, grad=False)[0]

    def grad_of(self, coords):
        return self._evaluate(coords, value=False, grad=True)[1]

    def value_and_grad(self, coords):
        return self._evaluate(coords, value=True, grad=True)

    def _evaluate(self, coords, value, grad):
        """(value, gradient), each None unless asked for.  cos, sin and the
        copies of the outside rows run only when some row is inside the ball."""
        coords = np.asarray(coords, dtype=float)
        u = np.atleast_2d(coords)
        s = np.square(self.space.norm(u))
        outside = s > 1.0
        mixed = not outside.all()
        out = np.flatnonzero(outside) if mixed else slice(None)
        uo, so, p = u[out], s[out], self.inner_energy.p
        a = so - 1.0
        w = a[:, None] * uo
        aw = np.abs(w)
        r = aw ** p
        v = g = None
        if value:
            v = 0.5 * (a * a * so) - self.space.trapezoid(aw * r) / (p + 1.0)
            if mixed:
                vo, v = v, 1.0 - np.cos(2.0 * np.pi * s)
                v[out] = vo
        if grad:
            load = np.sign(w) * r
            cross = a * so - self.space.trapezoid(load * uo)
            g = a[:, None] * (w - self.space.riesz_of_load(load)) + 2.0 * cross[:, None] * uo
            if mixed:
                go, g = g, 4.0 * np.pi * np.sin(2.0 * np.pi * s)[:, None] * u
                g[out] = go
        if coords.ndim == 1:
            v = None if v is None else v[0]
            g = None if g is None else g[0]
        return v, g

    def kink_gaps(self, coords):
        coords = np.asarray(coords, dtype=float)
        s = float(self.space.norm(coords) ** 2)
        # distance to the seam along each axis, plus the |w_i| kinks outside
        denom = 2.0 * np.abs(coords) + 1e-30
        seam = np.abs(s - 1.0) / denom
        if s > 1.0:
            return np.minimum(seam, np.abs(coords))
        return seam

    def step_blocks(self):
        # uncapped: at the quartic origin (I ~ 2 pi^2 ||u||^4) curvature -> 0
        return ((slice(None), False),)


def wrapper_functional(grid: H01Grid) -> WrapperFunctional:
    """The wrapper on ``grid``: the name the benchmark builds it by."""
    return WrapperFunctional(grid)
