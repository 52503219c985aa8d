"""Cutoff pseudo-gradient flow and the finite-time deformation map.

The descent field is the normalized gradient gated by two Lipschitz
cutoffs: an energy ramp that vanishes once the value drops to -2d and
saturates above -d, and a distance ramp that vanishes inside the
r-neighborhood of the exterior zero-level cluster and saturates outside
the 2r-neighborhood.  Flowing this field for time 2d/nu_eps moves every
point of [I <= -eps] into [I <= -d] or into the 3r-neighborhood of the
exterior cluster; that inclusion is the tested contract, not an
assumption — violations raise with the offending trace attached.

The flow integrates only its live rows: a row whose field is exactly 0
stays where it is for good, so it leaves the working set at no cost.  Each
step-doubling attempt takes the full step and the first half step from
the shared first stage in one field call per stage on the live rows
stacked twice.  The field is computed row by row, so neither changes a bit
of the result.

The setup is derived, not declared: the clusters' separation 2*delta0
fixes r = delta0/3, the gradient bounds (rho, nu, nu_eps) are sampled,
and d = min(rho, nu*r)/3, eps = d/2 and t_eps = 2d/nu_eps follow.  The
bounds are sampled estimates with a 0.9 safety factor, flagged as
empirical; nothing here proves them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DeformationFailure,
    IntegrationError,
    InvalidParams,
    SetupInconsistent,
)
from .functionals import Functional
from .spaces import L2Truncation, Point, row_sum
from .topology import Cloud, nearest_distances


# ---------------------------------------------------------------------------
# synthetic verification functional

class TwoClusterFunctional(Functional):
    """Even radial functional on R^2 with zero-level critical set
    {0} union the unit circle, separated by distance 1.

    With s = |u|^2 the profile is w(s) = s(s-1)^2(s-2): w(0) = w(1) = 0,
    the stationary spheres s = 1 -/+ 1/sqrt(2) carry the only negative
    critical value -1/4, and w < 0 on (0,1) u (1,2) so the zero level set
    of the value is exactly {0, s=1, s=2}.
    """

    def __init__(self):
        self.space = L2Truncation(2)

    @staticmethod
    def _w(s):
        return s * np.square(s - 1.0) * (s - 2.0)

    @staticmethod
    def _dw(s):
        return 2.0 * (s - 1.0) * (2.0 * s * s - 4.0 * s + 1.0)

    def value_of(self, coords):
        c = np.asarray(coords, dtype=float)
        s = row_sum(c * c)
        return self._w(s)

    def grad_of(self, coords):
        c = np.asarray(coords, dtype=float)
        s = row_sum(c * c)
        return 2.0 * self._dw(s)[..., None] * c


def two_cluster_setup_clouds(circle_samples: int):
    """The synthetic functional with its zero-level partition: interior
    cluster {0}, exterior cluster = unit circle samples (exactly
    symmetric by construction), separation 1 = 2*delta0."""
    if circle_samples % 2:
        raise InvalidParams("need an even number of circle samples for symmetry")
    half = circle_samples // 2
    ang = np.pi * np.arange(half) / half
    pts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    circle = np.concatenate([pts, -pts], axis=0)
    f = TwoClusterFunctional()
    k0i = Cloud(np.zeros((1, 2)), symmetric=True)
    k0e = Cloud(circle, symmetric=True)
    return f, k0i, k0e, 0.5


# ---------------------------------------------------------------------------
# empirical gradient bounds

# samples are uniform in the box [-_BOX_HALFWIDTH, _BOX_HALFWIDTH]^dim; rho
# is the first rung of _RHO_LADDER whose band keeps the sampled gradient
# infimum above _NU_FLOOR
_BOX_HALFWIDTH = 1.6
_RHO_LADDER = (0.2, 0.1, 0.05, 0.025, 0.0125)
_NU_FLOOR = 1e-3


def estimate_bounds(f: Functional, k0i: Cloud, k0e: Cloud, r: float,
                    budget: int, seed: int):
    """Sampled bounds (rho, nu, nu_eps) from ``budget`` points: nu is 0.9 x
    inf |grad| over [-rho <= I <= 0] minus N_r(k0i u k0e), nu_eps the same
    over [-rho <= I <= -eps] minus N_r(k0e) at the setup's eps, capped at
    nu.  Empirical, not proven."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(-_BOX_HALFWIDTH, _BOX_HALFWIDTH, size=(budget, f.space.dim))
    values = np.asarray(f.value_of(u))
    residuals = np.asarray(f.space.norm(f.grad_of(u)))
    dist_k0e = nearest_distances(u, k0e.coords)
    dist_k0 = np.minimum(nearest_distances(u, k0i.coords), dist_k0e)

    for rho in _RHO_LADDER:
        band = (values >= -rho) & (values <= 0.0) & (dist_k0 > r)
        inf = float(np.min(residuals[band])) if np.any(band) else 0.0
        if inf > _NU_FLOOR:
            break
    else:
        raise SetupInconsistent(
            "every ladder rho leaves near-critical samples in the band outside "
            "the excluded neighborhoods; the cluster partition does not match "
            "this functional")
    nu = 0.9 * inf
    eps = _cutoff_levels(rho, nu, r)[1]
    keep = (values >= -rho) & (values <= -eps) & (dist_k0e > r)
    inf = float(np.min(residuals[keep], initial=np.inf))
    if inf <= _NU_FLOOR:
        raise SetupInconsistent(
            f"sampled gradient infimum {inf:.3e} on the eps-band is not "
            f"bounded away from zero (floor {_NU_FLOOR:.1e})")
    return rho, nu, min(0.9 * inf, nu)


def band_seeds(f: Functional, eps: float, count: int, rng) -> np.ndarray:
    """``count`` rows of the band [I <= -eps] in the sampling box, in the
    order drawn: uniform candidates, 4 * count at a time, are kept where
    their value is at most -eps."""
    seeds = []
    while len(seeds) < count:
        cand = rng.uniform(-_BOX_HALFWIDTH, _BOX_HALFWIDTH, size=(4 * count, f.space.dim))
        seeds.extend(cand[np.asarray(f.value_of(cand)) <= -eps].tolist())
    return np.array(seeds[:count])


# ---------------------------------------------------------------------------
# setup and the cutoff field

def _check_clusters(k0i: Cloud, k0e: Cloud, delta0: float):
    if len(k0i) == 0 or len(k0e) == 0:
        raise InvalidParams("cluster clouds must be nonempty")
    if not delta0 > 0:
        raise InvalidParams("delta0 must be positive")
    sep = float(nearest_distances(k0i.coords, k0e.coords).min())
    if sep < 2.0 * delta0 - 1e-12:
        raise InvalidParams(
            f"cluster separation {sep:.6f} below 2*delta0 = {2 * delta0:.6f}")
    Cloud(k0e.coords, symmetric=True)  # oddness needs a symmetric exterior cloud


def _cutoff_levels(rho: float, nu: float, r: float):
    """The cutoff field's levels d = min(rho, nu*r)/3 and eps = d/2."""
    d = min(rho, nu * r) / 3.0
    return d, d / 2.0


@dataclass(frozen=True)
class DeformationSetup:
    f: Functional
    k0i: Cloud
    k0e: Cloud
    delta0: float
    rho: float
    nu: float
    nu_eps: float

    def __post_init__(self):
        _check_clusters(self.k0i, self.k0e, self.delta0)
        if not (0 < self.nu_eps <= self.nu):
            raise InvalidParams("need 0 < nu_eps <= nu")

    @cached_property
    def r(self) -> float:
        return self.delta0 / 3.0

    @cached_property
    def d(self) -> float:
        return _cutoff_levels(self.rho, self.nu, self.r)[0]

    @cached_property
    def eps(self) -> float:
        return _cutoff_levels(self.rho, self.nu, self.r)[1]

    @cached_property
    def t_eps(self) -> float:
        return 2.0 * self.d / self.nu_eps


def make_setup(f: Functional, k0i: Cloud, k0e: Cloud, delta0: float,
               budget: int, seed: int) -> DeformationSetup:
    """The deformation setup of the interior cluster k0i and the exterior
    cluster k0e at delta0, with its bounds sampled at r = delta0/3."""
    _check_clusters(k0i, k0e, delta0)
    rho, nu, nu_eps = estimate_bounds(f, k0i, k0e, delta0 / 3.0, budget, seed)
    return DeformationSetup(f, k0i, k0e, delta0, rho, nu, nu_eps)


def _field_batch(setup: DeformationSetup, u: np.ndarray):
    """Cutoff descent field phi1 * phi2 * grad/|grad| on a batch of rows,
    exactly zero wherever either cutoff is, and the values that gate it.
    The exterior distance behind phi2 is measured only on the rows whose
    energy ramp phi1 is open; elsewhere the product is 0 whatever it is."""
    vals = np.atleast_1d(setup.f.value_of(u))
    amp = np.clip((vals + 2.0 * setup.d) / setup.d, 0.0, 1.0)
    live = np.flatnonzero(amp > 0.0)
    dist = nearest_distances(u[live], setup.k0e.coords)
    amp[live] *= np.clip((dist - setup.r) / setup.r, 0.0, 1.0)
    active = np.flatnonzero(amp > 0.0)
    g = setup.f.grad_of(u[active])
    gn = np.atleast_1d(setup.f.space.norm(g))
    if np.any(gn < 1e-14):
        raise SetupInconsistent(
            "vanishing gradient inside the active region; the sampled "
            "nu bound was wrong for this functional")
    out = np.zeros_like(u)
    out[active] = (amp[active] / gn)[:, None] * g
    return out, vals


# ---------------------------------------------------------------------------
# flow integration

@dataclass
class FlowTrace:
    times: np.ndarray
    points: np.ndarray      # (len(times), dim)
    energies: np.ndarray


def _rk4_step(setup, u, h, k1):
    """One RK4 step from the rows u with first stage k1; h is the step,
    either one for all rows or a column of per-row steps."""
    k2 = -_field_batch(setup, u + 0.5 * h * k1)[0]
    k3 = -_field_batch(setup, u + 0.5 * h * k2)[0]
    k4 = -_field_batch(setup, u + h * k3)[0]
    return u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# largest entry of full - half that an RK4 step-doubling step may leave
_ERR_TOL = 1e-11
# how far above -d a deformed value may sit and still meet the contract
_CONTRACT_SLACK = 1e-9


def flow_batch(setup: DeformationSetup, seeds: np.ndarray, t_final: float, trace=None):
    """Integrate all rows to t_final with RK4 step-doubling control on a
    shared step: a step is accepted when the largest entry of full - half
    is within _ERR_TOL, and the integration fails only when a step at
    h <= 1e-12 still misses it.  One evaluation per point gives its field
    and energy.  Returns the terminal rows plus the worst energy uptick and
    speed ratio of the batch; a row's speed on a step is its move, less a
    stated rounding allowance, over the step.

    Only live rows are integrated.  A row whose held field is exactly 0 has
    every RK4 stage at the row itself, so it never moves again and adds
    exactly 0 to the error, the speed and the uptick; it leaves the live
    set, and the shared step sequence keeps its bits.  The full step and
    the first half step share the held first stage, so their later stages
    are taken in one field call each on the live rows stacked twice, with
    a per-row step.  Once no row is live the flow returns, or, with a
    trace, advances the clock on the same step rule with no evaluation.
    An empty batch makes no evaluation: it returns at once with 0.0 for
    both, in one step to t_final.  A list passed as ``trace`` receives
    (time, rows, energies) at the start and after each accepted step."""
    if t_final < 0:
        raise InvalidParams("flow time must be nonnegative")
    u = np.atleast_2d(np.array(seeds, dtype=float))
    if len(u) == 0:
        if trace is not None:
            trace += [(0.0, u, np.empty(0)), (t_final, u, np.empty(0))]
        return u, 0.0, 0.0
    h = h_max = 0.01 * setup.r
    t = 0.0
    field, energy = _field_batch(setup, u)
    live = np.flatnonzero(np.any(field, axis=1))
    k1 = -field[live]
    if trace is not None:
        trace.append((t, u, energy))
    max_uptick = max_speed = 0.0
    while t < t_final - 1e-15:
        if not len(live) and trace is None:
            break
        h = min(h, t_final - t)
        err = 0.0
        if len(live):
            rows, n = u[live], len(live)
            both = _rk4_step(setup, np.concatenate([rows, rows]),
                             np.repeat([[h], [0.5 * h]], n, axis=0), np.concatenate([k1, k1]))
            full, mid = both[:n], both[n:]
            half = _rk4_step(setup, mid, 0.5 * h, -_field_batch(setup, mid)[0])
            err = float(np.max(np.abs(full - half)))
        if err > _ERR_TOL:
            if h <= 1e-12:
                raise IntegrationError(f"step size collapsed at t = {t:.6f}")
            h *= 0.5
            continue
        if len(live):
            # |field| <= 1, so a row moves at most h up to rounding: 4 ulps of
            # its entries and 1 of the clock, a sizable share of the shortest moves
            step_len = np.linalg.norm(half - rows, axis=1)
            rounding = (4.0 * np.spacing(np.maximum(np.abs(rows), np.abs(half)).max(axis=1))
                        + np.spacing(t + h))
            max_speed = max(max_speed, float(np.max(step_len - rounding)) / h)
            field, e_new = _field_batch(setup, half)
            max_uptick = max(max_uptick, float(np.max(e_new - energy[live])))
            u, energy = u.copy(), energy.copy()
            u[live], energy[live] = half, e_new
            moving = np.any(field, axis=1)
            live, k1 = live[moving], -field[moving]
        t += h
        if trace is not None:
            trace.append((t, u, energy))
        if err < 0.1 * _ERR_TOL:
            h = min(h * 1.5, h_max)
    return u, max_uptick, max_speed


def flow(setup: DeformationSetup, u: Point, t_final: float) -> FlowTrace:
    """Single-seed flow with the full trace recorded at accepted steps."""
    setup.f._check(u)
    if float(setup.f.value_of(u.coords)) >= 0.0:
        raise InvalidParams("flow starts in the negative-energy region")
    trace = []
    flow_batch(setup, u.coords[None, :], t_final, trace)
    return FlowTrace(times=np.array([t for t, _, _ in trace]),
                     points=np.array([rows[0] for _, rows, _ in trace]),
                     energies=np.array([float(e[0]) for _, _, e in trace]))


def _meets_contract(setup, rows):
    vals = np.atleast_1d(setup.f.value_of(rows))
    dist = nearest_distances(rows, setup.k0e.coords)
    return (vals <= -setup.d + _CONTRACT_SLACK) | (dist < 3.0 * setup.r)


def eta_epsilon_batch(setup: DeformationSetup, seeds: np.ndarray):
    """Time-T deformation of every seed row of [I <= -eps], checked against
    the target inclusion.  A violation raises for the first offending
    seed, with that seed's single flow attached as the trace."""
    seeds = np.atleast_2d(np.asarray(seeds, dtype=float))
    vals = np.atleast_1d(setup.f.value_of(seeds))
    if np.any(vals > -setup.eps):
        raise InvalidParams("all deformation inputs must satisfy I(u) <= -eps")
    out, max_uptick, max_speed = flow_batch(setup, seeds, setup.t_eps)
    bad = np.flatnonzero(~_meets_contract(setup, out))
    if len(bad):
        i = int(bad[0])
        raise DeformationFailure(
            f"deformation output of seed {i} {seeds[i].tolist()} has "
            f"I = {float(setup.f.value_of(out[i])):.6f} > -d and sits "
            f"{float(nearest_distances(out[i], setup.k0e.coords)[0]):.6f} from the "
            f"exterior cluster (3r = {3 * setup.r:.6f}); the sampled nu_eps "
            "was too optimistic",
            trace=flow(setup, Point(seeds[i], setup.f.space), setup.t_eps))
    return out, max_uptick, max_speed
