"""Acceptance gate: ten numbered end-to-end checks, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py`` (the -s default in the project
config keeps the per-criterion lines visible).  Every criterion states its
tolerance inline; none of them may be loosened without a ledger entry.
"""

import time

import numpy as np

from clarklab.bvp import nodal_family, reshoot_values
from clarklab.deformation import (
    band_seeds,
    eta_epsilon_batch,
    flow,
    make_setup,
    two_cluster_setup_clouds,
)
from clarklab.functionals import fd_gradient_check
from clarklab.minimax import cj_upper_bound
from clarklab.models import (
    CriticalSetOracle,
    clark_model,
    sublinear_energy,
    wrapper_functional,
)
from clarklab.solvers import (
    SolveConfig,
    ball_seed_sampler,
    gradient_flow_solve_batch,
    model_seed_sampler,
    verify_no_interior_negatives,
)
from clarklab.spaces import H01Grid, Point
from clarklab.topology import Cloud, origin_component_stabilization


def _report(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


# ---------------------------------------------------------------------------

def test_criterion_01_flow_terminals_match_the_enumerated_set():
    model = clark_model(n=3)
    oracle = CriticalSetOracle(model)
    rng = np.random.default_rng(0)
    seeds = model_seed_sampler(model, rng, 2000)

    started = time.time()
    results = gradient_flow_solve_batch(model, seeds, SolveConfig())
    elapsed = time.time() - started

    converged = [r for r in results if r.residual < 1e-8]
    dists = np.array([oracle.distance(r.coords) for r in converged])
    worst = float(np.max(dists))
    frac = len(converged) / len(results)

    ok = worst <= 1e-6 and frac >= 0.9 and elapsed < 30.0
    assert _report(1, ok, f"2000 seeds, {frac:.1%} converged, "
                          f"worst oracle distance {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_exact_closed_form_values():
    m3 = clark_model(n=3)
    v = m3.evaluate(Point(np.array([1.0, 1.0, 0.0, 0.0]), m3.space))
    dev = abs(v + 1.0 / 6.0)

    m4 = clark_model(n=4)
    worst_pattern = 0.0
    for j in range(1, 5):
        coords = np.zeros(5)
        coords[0] = 1.0
        coords[j] = 9.0 * 3.0 ** (-2 * j)
        got = m4.evaluate(Point(coords, m4.space))
        worst_pattern = max(worst_pattern, abs(got + 13.5 * 3.0 ** (-4 * j)))

    ok = dev <= 1e-12 and worst_pattern <= 1e-12
    assert _report(2, ok, f"I(1,1,0,0) off by {dev:.1e}, "
                          f"single-axis values off by {worst_pattern:.1e}")


def test_criterion_03_interior_band_is_excluded():
    rep = verify_no_interior_negatives(clark_model(n=3))
    frac = rep.converged / rep.seeds_run
    ok = (rep.passed and not rep.violations and rep.min_margin >= 0.25
          and len(rep.bound_rows) >= 6 and frac >= 0.9)
    assert _report(3, ok, f"{rep.converged}/{rep.seeds_run} converged, "
                          f"0 interior x-part >1e-6, "
                          f"min tail margin {rep.min_margin:.1%}")


def test_criterion_04_single_axis_sequence_accumulates_at_the_pole():
    model = clark_model(n=8)
    worst_val, worst_dist = 0.0, 0.0
    all_negative = True
    for k in range(1, 9):
        coords = np.zeros(9)
        coords[0] = 1.0
        coords[k] = 9.0 * 3.0 ** (-2 * k)
        val = model.evaluate(Point(coords, model.space))
        all_negative &= val < 0.0
        worst_val = max(worst_val, abs(val) - 13.5 * 3.0 ** (-4 * k))
        worst_dist = max(worst_dist,
                         float(np.linalg.norm(coords[1:])) - 9.0 * 3.0 ** (-2 * k))
    ok = all_negative and worst_val <= 1e-12 and worst_dist <= 1e-12
    assert _report(4, ok, f"k=1..8 all negative, value excess {worst_val:.1e}, "
                          f"x-norm excess {worst_dist:.1e}")


def test_criterion_05_deformation_contract_on_the_two_cluster_setup():
    started = time.time()
    f, k0i, k0e, delta0 = two_cluster_setup_clouds(64)
    setup = make_setup(f, k0i, k0e, delta0, budget=20000, seed=0)

    seeds = band_seeds(f, setup.eps, 500, np.random.default_rng(0))

    terminals, max_uptick, max_speed = eta_epsilon_batch(setup, seeds)
    vals = f.value_of(terminals)
    dist_e = np.min(np.linalg.norm(
        terminals[:, None, :] - setup.k0e.coords[None, :, :], axis=2), axis=1)
    included = np.all((vals <= -setup.d + 1e-9) | (dist_e < 3.0 * setup.r))

    odd_dev = 0.0
    for s in seeds[:50]:
        tp = flow(setup, Point(s, f.space), setup.t_eps)
        tm = flow(setup, Point(-s, f.space), setup.t_eps)
        odd_dev = max(odd_dev, float(np.max(np.abs(tp.points[-1] + tm.points[-1]))))
    elapsed = time.time() - started

    ok = (bool(included) and odd_dev <= 1e-8 and max_speed <= 1.0 + 1e-8
          and max_uptick <= 1e-10 and elapsed < 60.0)
    assert _report(5, ok, f"500 samples included, oddness {odd_dev:.1e}, "
                          f"speed {max_speed:.3f}, uptick {max_uptick:.1e}, "
                          f"{elapsed:.1f}s")


def test_criterion_06_origin_component_stabilization_examples():
    gap = np.concatenate([[0.0], np.arange(0.5, 1.0 + 1e-12, 0.01)])[:, None]
    rep_gap = origin_component_stabilization(Cloud(gap), (0.3, 0.2, 0.1, 0.05))

    seg = np.arange(-1.0, 1.0 + 1e-12, 0.01)[:, None]
    rep_seg = origin_component_stabilization(Cloud(seg), (0.3, 0.2, 0.1, 0.05))

    from clarklab.models import enumerate_critical_set
    cloud = Cloud(enumerate_critical_set(clark_model(n=2), z_samples=20001).coords)
    rep_model = origin_component_stabilization(cloud, (0.02, 0.005, 2e-4, 1e-4))
    axis_count = int(np.sum(np.linalg.norm(cloud.coords[:, 1:], axis=1) == 0.0))

    rng = np.random.default_rng(0)
    violations = 0
    nested_all = True
    for _ in range(100):
        dim = int(rng.integers(1, 4))
        m = int(rng.integers(5, 60))
        pts = np.concatenate([np.zeros((1, dim)), rng.normal(size=(m, dim))])
        sched = np.unique(rng.uniform(0.02, 1.0, size=int(rng.integers(2, 7))))[::-1]
        try:
            rep = origin_component_stabilization(Cloud(pts), tuple(sched))
            nested_all &= rep.nested_ok
        except RuntimeError:
            violations += 1

    ok = (rep_gap.stabilized and rep_gap.sizes[-1] == 1
          and rep_seg.stabilized and rep_seg.sizes[-1] == len(seg)
          and rep_model.stabilized and rep_model.sizes[-1] == axis_count
          and violations == 0 and nested_all)
    assert _report(6, ok, f"gap->origin, segment->whole ({len(seg)}), "
                          f"model cloud->axis ({axis_count}), "
                          f"100 random clouds nested, {violations} violations")


def test_criterion_07_minimax_upper_bounds_order_and_vanish():
    model = clark_model(n=8)
    bounds = [cj_upper_bound(model, j).upper_bound for j in range(1, 7)]
    ok = (all(b < 0.0 for b in bounds)
          and all(a <= b + 1e-15 for a, b in zip(bounds, bounds[1:]))
          and abs(bounds[5]) < abs(bounds[0]) / 50.0
          and bounds[0] <= -8.0 / 243.0 + 1e-9
          and bounds[0] >= -1.0 / 6.0 - 1e-6)
    assert _report(7, ok, f"c1..c6 in [{bounds[0]:.5f}, {bounds[5]:.2e}], "
                          f"ratio {abs(bounds[0] / bounds[5]):.0f}x")


def test_criterion_08_wrapper_zero_is_isolated():
    w = wrapper_functional(H01Grid(10))
    space = w.space
    rng = np.random.default_rng(0)
    floor = 1.0 / np.sqrt(2.0) - 1e-6

    # Wide sweep: random seeds up to norm 2 plus a batch pinned onto the
    # unit sphere, which is critical.  The seam is degenerate from outside
    # (flows creep without reaching the residual tolerance), so the time
    # budget is capped; the dichotomy below only constrains rows that do
    # converge, and the pinned batch keeps its nonzero half non-vacuous.
    wide = ball_seed_sampler(space, 2.0, rng, 100)
    on_sphere = wide[:20] / np.array([space.norm(s) for s in wide[:20]])[:, None]
    res_wide = gradient_flow_solve_batch(w, np.concatenate([wide, on_sphere]),
                                         SolveConfig(max_flow_time=3e4))
    norms_wide = np.array([space.norm(r.coords) for r in res_wide if r.converged])
    separated = np.all((norms_wide < 1e-3) | (norms_wide >= floor))
    n_nonzero = int(np.sum(norms_wide >= floor))

    near = ball_seed_sampler(space, 0.3, rng, 200)
    res_near = gradient_flow_solve_batch(w, near, SolveConfig())
    all_converged = all(r.converged for r in res_near)
    norms_near = np.array([space.norm(r.coords) for r in res_near])
    only_zero = np.all(norms_near < 1e-3)

    ok = bool(separated and all_converged and only_zero and n_nonzero >= 20)
    assert _report(8, ok, f"{len(norms_wide)} converged wide terminals split "
                          f"at norm {floor:.4f} ({n_nonzero} nonzero), "
                          f"200/200 small-ball seeds land at zero")


def test_criterion_09_nodal_family_laws_on_the_grid():
    grid = H01Grid(2000)
    family = nodal_family(0.5, 6, grid)
    nehari = max(s.nehari_residual for s in family)

    ks = np.arange(1, 7)
    slope = float(np.polyfit(np.log(ks),
                             np.log([s.energy_norm_sq for s in family]), 1)[0])
    j_dev = max(abs(s.j_value + s.energy_norm_sq / 6.0) / abs(s.j_value)
                for s in family)
    re_dev = float(np.max(np.abs(reshoot_values(0.5, 2, grid)
                                 - family[1].grid_values.coords)))

    ok = (nehari < 1e-6 and abs(slope + 6.0) <= 0.01
          and j_dev <= 1e-6 and re_dev <= 1e-5)
    assert _report(9, ok, f"nehari {nehari:.1e}, energy slope {slope:.4f}, "
                          f"value identity {j_dev:.1e}, reshoot {re_dev:.1e}")


def test_criterion_10_finite_difference_gradient_integrity():
    rng = np.random.default_rng(0)

    def kink_free(f, draw, count):
        worst = 0.0
        found = 0
        while found < count:
            coords = draw()
            gaps = f.kink_gaps(coords)
            if gaps is not None and float(np.min(gaps)) <= 1e-3:
                continue
            rep = fd_gradient_check(f, Point(coords, f.space))
            assert rep.skipped == []
            worst = max(worst, rep.max_rel_error)
            found += 1
        return worst

    model = clark_model(n=3)
    w_model = kink_free(
        model, lambda: np.concatenate([rng.uniform(-1.5, 1.5, 1),
                                       rng.uniform(-1.0, 1.0, 3)]), 100)

    energy = sublinear_energy(H01Grid(60))
    w_energy = kink_free(energy, lambda: 0.5 * rng.normal(size=60), 100)

    wrap = wrapper_functional(H01Grid(10))
    w_wrap = kink_free(
        wrap, lambda: ball_seed_sampler(wrap.space, 2.0, rng, 1)[0], 100)

    worst = max(w_model, w_energy, w_wrap)
    ok = worst < 1e-5
    assert _report(10, ok, f"100 kink-free points each; worst relative "
                           f"error {worst:.1e}")
