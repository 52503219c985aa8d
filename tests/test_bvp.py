import numpy as np
import pytest
import scipy.integrate
from scipy.special import beta as beta_fn

from clarklab import bvp
from clarklab.bvp import (
    base_profile,
    energy_scaling_exponent,
    nodal_family,
    reshoot_values,
    shoot,
)
from clarklab.errors import InvalidParams, NoCrossing
from clarklab.spaces import H01Grid


def exact_first_crossing(p):
    # u'' = -u^p from unit slope: energy conservation gives the peak
    # ((p+1)/2)^(1/(p+1)) and the arc time reduces to a beta integral
    umax = ((p + 1.0) / 2.0) ** (1.0 / (p + 1.0))
    return 2.0 * umax * beta_fn(1.0 / (p + 1.0), 0.5) / (p + 1.0)


def exact_arc_energy(p, t1):
    # 1/2 u'^2 + u^{p+1}/(p+1) = 1/2 integrated over the arc, with
    # int u'^2 = int u^{p+1} on the arc, gives int u'^2 = (p+1) t1 / (p+3)
    return (p + 1.0) * t1 / (p + 3.0)


# ---------------------------------------------------------------------------
# shooting

def test_unit_slope_crossing_time_matches_the_beta_integral():
    for p in (0.5, 0.3, 0.7):
        prof = base_profile(p)
        assert prof.t1 == pytest.approx(exact_first_crossing(p), rel=1e-8)
    assert base_profile(0.5).t1 == pytest.approx(2.84748251649887, rel=1e-7)


def test_crossing_time_scales_with_the_slope():
    # T(s1)/T(s2) = (s1/s2)^((1-p)/(1+p)): larger slope means larger
    # amplitude and, sublinearly, a longer arch
    p = 0.5
    t1 = exact_first_crossing(p)
    for slope in (0.1, 0.01):
        times, _ = shoot(p, slope, t_max=4.0)
        assert times[0] == pytest.approx(
            t1 * slope ** ((1.0 - p) / (1.0 + p)), rel=1e-7)


def test_shoot_reports_missing_crossings(monkeypatch):
    # the arc needs ~2.85 time units: a shorter shot has no crossing, and
    # only the base profile, which needs one, raises
    assert shoot(0.5, 1.0, t_max=1.0)[0].size == 0
    monkeypatch.setattr(bvp, "_SHOOT_T_MAX", 1.0)
    with pytest.raises(NoCrossing):
        base_profile(0.5)


@pytest.mark.parametrize("p", [1e-6, 0.5, 1.0 - 1e-6])
def test_the_shoot_horizon_covers_the_first_crossing_for_every_p(p):
    # t1 runs from 2 (u'' = -1) to pi (u'' = -u) over p in (0, 1)
    assert 2.0 < exact_first_crossing(p) < np.pi
    assert exact_first_crossing(p) < bvp._SHOOT_T_MAX


def test_trajectory_vanishes_at_the_reported_crossings():
    times, sol = shoot(0.5, 0.2, t_max=8.0)
    assert len(times) >= 1
    assert np.all(np.diff(times) > 0)
    for tc in times:
        assert abs(float(sol(tc)[0])) < 1e-9


def test_scaling_exponent_formulas():
    for p in (0.25, 0.5, 0.75):
        assert energy_scaling_exponent(p) == pytest.approx(-2.0 * (1.0 + p) / (1.0 - p))
    assert energy_scaling_exponent(0.5) == -6.0


def test_exponents_reject_bad_p():
    for p in (1.0, 0.0):
        with pytest.raises(InvalidParams):
            energy_scaling_exponent(p)


# ---------------------------------------------------------------------------
# nodal solutions on the grid

def test_base_solution_matches_all_closed_forms():
    p = 0.5
    grid = H01Grid(2000)
    sol = nodal_family(p, 1, grid)[0]
    t1 = exact_first_crossing(p)
    scale = 1.0 / t1  # compress one arc onto [0, 1]

    assert sol.k == 1
    assert sol.sup_norm == pytest.approx(
        ((p + 1.0) / 2.0) ** (1.0 / (p + 1.0)) * scale ** (2.0 / (1.0 - p)), rel=1e-6)
    energy = exact_arc_energy(p, t1) * scale ** ((3.0 + p) / (1.0 - p))
    assert sol.energy_norm_sq == pytest.approx(energy, rel=1e-6)
    ratio = (1.0 - p) / (2.0 * (p + 1.0))
    assert sol.j_value == pytest.approx(-ratio * energy, rel=1e-6)
    assert sol.nehari_residual < 1e-6
    assert sol.strong_residual < 1e-3
    # boundary values vanish and the interior stays positive
    assert sol.values_full[0] == 0.0 and sol.values_full[-1] == 0.0
    assert np.all(sol.values_full[1:-1] > 0.0)


def test_nodal_family_scales_and_alternates():
    p = 0.5
    grid = H01Grid(2000)
    family = nodal_family(p, 4, grid)
    base = family[0]
    for k, sol in enumerate(family, start=1):
        assert sol.k == k
        assert sol.nehari_residual < 1e-6
        assert sol.j_value == pytest.approx(
            base.j_value * float(k) ** energy_scaling_exponent(p), rel=1e-5)
        # max|u_k| = k^(2/(p-1)) max|u_1|
        assert sol.sup_norm == pytest.approx(
            base.sup_norm * float(k) ** (2.0 / (p - 1.0)), rel=1e-5)
        # k nodal domains = k sign runs of the interior values
        interior = sol.values_full[1:-1]
        signs = np.sign(interior[np.abs(interior) > 1e-12])
        runs = 1 + int(np.sum(np.diff(signs) != 0))
        assert runs == k
    values = [s.j_value for s in family]
    assert values == sorted(values)    # negative, rising toward zero


def test_reshot_solution_matches_the_rescaled_one():
    grid = H01Grid(1000)
    sol2 = nodal_family(0.5, 2, grid)[1]
    re2 = reshoot_values(sol2)
    assert np.max(np.abs(re2 - sol2.values_full[1:-1])) < 1e-5


def test_a_family_and_its_reshot_make_two_ode_shots(monkeypatch):
    # the base arch is shot once per family; the re-shot starts from the
    # member's own slope instead of shooting the base arch again
    calls = []
    real = scipy.integrate.solve_ivp
    monkeypatch.setattr(scipy.integrate, "solve_ivp",
                        lambda *a, **kw: calls.append(a) or real(*a, **kw))
    grid = H01Grid(200)
    family = nodal_family(0.5, 3, grid)
    reshoot_values(family[1])
    assert len(calls) == 2


@pytest.mark.parametrize("p", [0.3, 0.5, 0.9])
def test_the_reshot_keeps_the_bits_of_a_shot_from_the_base_profile(p):
    # u_k'(0) = k^((p+1)/(p-1)) u_1'(0), with u_1'(0) = alpha * t1 of the
    # base profile: the member's slope is that expression, bit for bit
    grid = H01Grid(500)
    prof = base_profile(p)
    for member in nodal_family(p, 3, grid)[1:]:
        slope = float(member.k) ** ((p + 1.0) / (p - 1.0)) * (prof.alpha * prof.t1)
        assert member.slope == slope
        _, sol = shoot(p, slope, 1.0)
        assert np.array_equal(reshoot_values(member), sol(grid.grid)[0])


def test_nodal_solution_validates_inputs():
    grid = H01Grid(10)
    with pytest.raises(InvalidParams):
        nodal_family(0.5, 0, grid)
    with pytest.raises(InvalidParams):
        nodal_family(1.5, 2, grid)
    with pytest.raises(InvalidParams):
        base_profile(0.0)
    # near p = 1 the amplitude k^(2/(p-1)) underflows, and with it a
    # member's energy norm: at p = 0.99 from k = 2, at p = 0.999999 from k = 1
    for p in (0.99, 0.999999):
        with pytest.raises(InvalidParams, match="out of the normal floats"):
            nodal_family(p, 6, grid)
