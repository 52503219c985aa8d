"""Shooting construction of the nodal family for the sublinear
two-point problem  u'' + |u|^(p-1) u = 0,  u(0) = u(1) = 0,  p in (0,1).

One positive arch is shot from the origin with unit slope, once per
family; every family member is an exact rescaling of it:

    w(x) = alpha * u(beta x)  solves the same equation when
    beta^2 = alpha^(p-1),

so compressing the base arch by beta = k and alternating signs across
the k subintervals yields the k-nodal-domain solution with amplitude
factor k^(2/(p-1)) and initial slope k^((p+1)/(p-1)) u_1'(0).  The
cross-check shoots the ODE once more, from a member's own slope over all
of [0, 1].  The nonlinearity is only Hoelder at u = 0, but all
zeros of nontrivial solutions are transversal (the conserved energy
(1/2) u'^2 + |u|^(p+1)/(p+1) is positive), so a standard integrator with
event detection is adequate.

Norms and integrals are Simpson sums over value and derivative samples
taken from the dense integrator output; the first-difference grid norm
would waste four digits of the scaling-law accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, NoCrossing
from .spaces import H01Grid


def _check_p(p: float):
    if not (0.0 < p < 1.0):
        raise InvalidParams(f"p must lie in (0,1), got {p}")


def energy_scaling_exponent(p: float) -> float:
    """||u_k||^2 = k^((2p+2)/(p-1)) ||u_1||^2."""
    _check_p(p)
    return (2.0 * p + 2.0) / (p - 1.0)


def _rhs(t, y, p):
    u, v = y
    return [v, -np.sign(u) * np.abs(u) ** p]


def shoot(p: float, slope: float, t_max: float):
    """Integrate from u(0)=0, u'(0)=slope with dense output and
    zero-crossing detection up to t_max.  Returns the crossing times, which
    may be empty, and the dense solution, whose rows are u and u'; the
    events do not change the integrator's steps."""
    _check_p(p)
    if slope == 0.0:
        raise InvalidParams("slope must be nonzero")
    if t_max <= 0.0:
        raise InvalidParams("t_max must be positive")

    from scipy.integrate import solve_ivp

    def crossing(t, y, p):  # solve_ivp hands `args` to the events as well
        return y[0]
    crossing.terminal = False

    sol = solve_ivp(_rhs, (0.0, t_max), [0.0, float(slope)], method="RK45",
                    rtol=1e-12, atol=1e-14, dense_output=True, events=crossing,
                    args=(p,))
    times = sol.t_events[0]
    times = times[times > 1e-12]  # the launch point itself is a zero
    return times, sol.sol


@dataclass
class BaseProfile:
    """The unit-slope arch rescaled to land its first zero at x = 1."""

    t1: float       # first zero time of the unit-slope shot
    alpha: float    # amplitude factor t1^(2/(p-1))
    sol: object     # the shot's dense solution

    def sample(self, x):
        """(value, derivative) at x, from one dense-output evaluation."""
        y = np.asarray(self.sol(self.t1 * np.asarray(x, dtype=float)))
        return self.alpha * y[0], self.alpha * self.t1 * y[1]


# the horizon of the unit-slope shot: its first zero
# t1 = 2 u_max B(1/(p+1), 1/2) / (p+1) runs from 2 (p -> 0) to pi (p -> 1)
_SHOOT_T_MAX = 4.0


def base_profile(p: float) -> BaseProfile:
    times, sol = shoot(p, 1.0, _SHOOT_T_MAX)
    if times.size == 0:
        raise NoCrossing(f"no return to zero before t_max = {_SHOOT_T_MAX}")
    t1 = float(times[0])
    return BaseProfile(t1=t1, alpha=t1 ** (2.0 / (p - 1.0)), sol=sol)


@dataclass
class NodalSolution:
    p: float
    k: int
    slope: float                 # u_k'(0)
    abscissae: np.ndarray        # 0, interior nodes, 1
    values_full: np.ndarray      # with the boundary zeros
    energy_norm_sq: float
    j_value: float
    nehari_residual: float
    sup_norm: float
    strong_residual: float


def _assemble(p: float, k: int, prof: BaseProfile, grid: H01Grid) -> NodalSolution:
    from scipy.integrate import simpson

    x = np.concatenate([[0.0], grid.grid, [1.0]])
    s = k * x
    seg = np.minimum(np.floor(s).astype(int), k - 1)
    local = s - seg
    sign = np.where(seg % 2 == 0, 1.0, -1.0)
    amp = float(k) ** (2.0 / (p - 1.0))
    value, deriv = prof.sample(local)
    u = amp * sign * value
    du = amp * k * sign * deriv
    u[0] = 0.0
    u[-1] = 0.0

    norm_sq = float(simpson(du * du, x=x))
    # near p = 1 the amplitude k^(2/(p-1)) underflows: the member is lost
    if not np.finfo(float).tiny <= norm_sq <= np.finfo(float).max:
        raise InvalidParams(f"p = {p} takes member k = {k} out of the normal floats "
                            f"(energy norm squared {norm_sq})")
    pot = float(simpson(np.abs(u) ** (p + 1.0), x=x))
    j_val = 0.5 * norm_sq - pot / (p + 1.0)
    nehari = abs(norm_sq - pot) / norm_sq

    h = grid.mesh_width
    lap = (u[:-2] - 2.0 * u[1:-1] + u[2:]) / (h * h)
    # sign(u)|u|^p, not |u|^(p-1) u: the latter is 0**negative at joints
    strong = float(np.max(np.abs(lap + np.sign(u[1:-1]) * np.abs(u[1:-1]) ** p)))

    slope_1 = prof.alpha * prof.t1     # u_1'(0)
    return NodalSolution(
        p=p, k=k, slope=float(k) ** ((p + 1.0) / (p - 1.0)) * slope_1,
        abscissae=x, values_full=u,
        energy_norm_sq=norm_sq, j_value=j_val, nehari_residual=nehari,
        sup_norm=float(np.max(np.abs(u))),
        strong_residual=strong,
    )


def nodal_family(p: float, kmax: int, grid: H01Grid) -> list:
    """The k-nodal-domain solutions for k = 1..kmax, each by exact
    compression of the base arch.  Raises InvalidParams when a member's
    energy norm squared is not a positive normal float (p near 1)."""
    if kmax < 1:
        raise InvalidParams("kmax must be >= 1")
    prof = base_profile(p)
    return [_assemble(p, k, prof, grid) for k in range(1, kmax + 1)]


def reshoot_values(member: NodalSolution) -> np.ndarray:
    """Cross-check: integrate the ODE directly from the member's initial
    slope over all of [0,1] (no rescaling afterwards) and sample the
    member's interior abscissae.  Scaling exactness means this should match the compressed
    construction to integrator accuracy."""
    _, sol = shoot(member.p, member.slope, 1.0)
    return sol(member.abscissae[1:-1])[0]
