import argparse

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from clarklab import cli, deformation
from clarklab.deformation import (
    DeformationSetup,
    FlowTrace,
    TwoClusterFunctional,
    _field_batch,
    band_seeds,
    eta_epsilon_batch,
    flow,
    flow_batch,
    make_setup,
    two_cluster_setup_clouds,
)
from clarklab.errors import DeformationFailure, IntegrationError, InvalidParams
from clarklab.spaces import Point
from clarklab.topology import Cloud, nearest_distances


def build_setup(circle_samples=32, budget=6000):
    f, k0i, k0e, delta0 = two_cluster_setup_clouds(circle_samples)
    return f, k0i, k0e, delta0, make_setup(f, k0i, k0e, delta0, budget=budget, seed=0)


# ---------------------------------------------------------------------------
# the synthetic functional and its zero-level clusters

def test_two_cluster_profile_and_gradient():
    f = TwoClusterFunctional()
    # w(s) = s (s-1)^2 (s-2) at s = |u|^2
    for coords in ([0.5, 0.2], [1.0, 0.0], [0.0, 1.2]):
        u = np.array(coords)
        s = float(u @ u)
        assert float(f.value_of(u)) == pytest.approx(s * (s - 1) ** 2 * (s - 2), rel=1e-14)
    # zero level: origin, unit circle, radius sqrt(2) circle
    assert float(f.value_of(np.zeros(2))) == 0.0
    assert float(f.value_of(np.array([1.0, 0.0]))) == 0.0
    assert float(f.value_of(np.array([0.0, np.sqrt(2.0)]))) == pytest.approx(0.0, abs=1e-15)
    # the unit circle is critical, the sqrt(2) circle is not
    assert f.space.norm(f.grad_of(np.array([np.sqrt(0.5), np.sqrt(0.5)]))) < 1e-15
    assert f.space.norm(f.grad_of(np.array([np.sqrt(2.0), 0.0]))) > 1.0


def test_setup_clouds_geometry():
    f, k0i, k0e, delta0 = two_cluster_setup_clouds(16)
    assert delta0 == 0.5
    assert np.array_equal(k0i.coords, np.zeros((1, 2)))
    assert k0e.coords.shape == (16, 2)
    assert np.allclose(np.linalg.norm(k0e.coords, axis=1), 1.0, atol=1e-15)
    assert k0e.symmetric
    with pytest.raises(InvalidParams):
        two_cluster_setup_clouds(15)  # symmetry needs antipodal pairs


# ---------------------------------------------------------------------------
# sampled bounds and the derived constants

def test_estimated_bounds_and_derived_constants():
    f, k0i, k0e, delta0, setup = build_setup()
    assert setup.rho == 0.2                       # first ladder rung works here
    assert 0.3 < setup.nu < 1.0                   # sampled, but well off zero
    assert setup.r == pytest.approx(delta0 / 3.0)
    assert setup.d == pytest.approx(min(setup.rho, setup.nu * setup.r) / 3.0, rel=1e-15)
    assert setup.eps == pytest.approx(setup.d / 2.0, rel=1e-15)
    assert 0.0 < setup.nu_eps <= setup.nu
    assert setup.t_eps == pytest.approx(2.0 * setup.d / setup.nu_eps, rel=1e-15)


def test_bounds_estimation_validates_inputs():
    f, k0i, k0e, delta0 = two_cluster_setup_clouds(8)
    with pytest.raises(InvalidParams):
        make_setup(f, Cloud(np.zeros((0, 2))), k0e, delta0)
    with pytest.raises(InvalidParams):
        make_setup(f, k0i, Cloud(np.zeros((0, 2))), delta0)
    for bad in (0.0, -0.1):
        with pytest.raises(InvalidParams):
            make_setup(f, k0i, k0e, bad)


def test_setup_invariants_are_enforced():
    f, k0i, k0e, delta0, setup = build_setup()
    from dataclasses import replace
    with pytest.raises(InvalidParams):
        replace(setup, nu_eps=setup.nu * 2.0)
    with pytest.raises(InvalidParams):
        replace(setup, delta0=0.6)            # the clusters sit 1 < 2*delta0 apart
    # r, d and eps follow from the fields and cannot be set
    for derived in ("r", "d", "eps"):
        with pytest.raises(TypeError):
            replace(setup, **{derived: getattr(setup, derived)})


# ---------------------------------------------------------------------------
# the cutoff field

def test_pseudo_gradient_is_odd_unit_capped_and_cut_off():
    f, k0i, k0e, delta0, setup = build_setup()
    rng = np.random.default_rng(1)
    seeds = band_seeds(f, setup.eps, 40, rng)
    v, vals = _field_batch(setup, seeds)
    assert np.array_equal(v, -_field_batch(setup, -seeds)[0])
    assert np.array_equal(vals, f.value_of(seeds))
    assert np.all(np.linalg.norm(v, axis=1) <= 1.0 + 1e-12)
    # the field vanishes deep below the band and next to the exterior cluster
    deep = np.array([[0.55, 0.0]])  # value ~ -0.25 < -2d
    assert float(f.value_of(deep[0])) < -2.0 * setup.d
    near = 0.95 * k0e.coords[:1]    # 0.05 < r from the unit circle
    assert np.array_equal(_field_batch(setup, np.concatenate([deep, near]))[0],
                          np.zeros((2, 2)))


def test_field_descends_where_active():
    f, k0i, k0e, delta0, setup = build_setup()
    rng = np.random.default_rng(2)
    seeds = band_seeds(f, setup.eps, 30, rng)
    v = _field_batch(setup, seeds)[0]
    active = np.linalg.norm(v, axis=1) > 0
    # moving along -v decreases I
    assert np.all(np.sum(f.grad_of(seeds[active]) * v[active], axis=1) > 0.0)


# ---------------------------------------------------------------------------
# flow and the deformation map

def test_flow_trace_is_monotone_and_speed_bounded():
    f, k0i, k0e, delta0, setup = build_setup()
    u = Point(np.array([0.3, 0.1]), f.space)
    assert float(f.value_of(u.coords)) <= -setup.eps
    trace = flow(setup, u, setup.t_eps)
    assert trace.times[0] == 0.0
    assert trace.times[-1] == pytest.approx(setup.t_eps, abs=1e-12)
    assert np.max(np.diff(trace.energies)) <= 1e-12
    speed = np.linalg.norm(np.diff(trace.points, axis=0), axis=1) / np.diff(trace.times)
    assert np.max(speed) <= 1.0 + 1e-8
    assert trace.energies[-1] <= trace.energies[0]


def test_flow_batch_matches_single_flow_endpoints():
    f, k0i, k0e, delta0, setup = build_setup()
    rng = np.random.default_rng(3)
    seeds = band_seeds(f, setup.eps, 5, rng)
    out, uptick, speed = flow_batch(setup, seeds, setup.t_eps)
    assert uptick <= 1e-12
    assert speed <= 1.0 + 1e-8
    for seed, end in zip(seeds, out):
        tr = flow(setup, Point(seed, f.space), setup.t_eps)
        assert np.linalg.norm(tr.points[-1] - end) < 1e-9
        # a one-row batch takes the single flow's steps exactly
        alone, _, _ = flow_batch(setup, seed[None, :], setup.t_eps)
        assert np.array_equal(alone[0], tr.points[-1])


def test_a_flow_shorter_than_the_step_floor_completes():
    # one accepted step of length 5e-13 <= 1e-12 is not a collapse
    f, k0i, k0e, delta0, setup = build_setup()
    seeds = band_seeds(f, setup.eps, 3, np.random.default_rng(5))
    out, _, speed = flow_batch(setup, seeds, 5e-13)
    assert np.max(np.abs(out - seeds)) <= 1e-12
    assert speed <= 1.0 + 1e-8
    for seed, end in zip(seeds, out):
        tr = flow(setup, Point(seed, f.space), 5e-13)
        assert tr.times[-1] == 5e-13
        assert np.array_equal(tr.points[0], seed)
        assert np.max(np.abs(tr.points[-1] - seed)) <= 1e-12


@pytest.mark.parametrize("t_final", [8.6e-15, 1e-12])
def test_a_short_flow_reads_no_rounding_as_speed(t_final):
    # on the deform experiment's default setup the field at this row has unit
    # norm, and a move of ~1e-14 carries rounding of ~1e-18: read raw, the
    # speed was 1.0002 (8.6e-15) and 1.0000009 (1e-12)
    f, k0i, k0e, delta0, setup = build_setup(circle_samples=64, budget=20000)
    row = np.array([[0.0162, 0.0252]])
    assert np.linalg.norm(_field_batch(setup, row)[0]) == pytest.approx(1.0, abs=1e-12)
    out, _, speed = flow_batch(setup, row, t_final)
    assert 0.99 <= speed <= 1.0 + 1e-8
    assert np.linalg.norm(out - row) <= 1.01 * t_final


def test_deformation_lands_in_the_target_or_near_the_exterior_cluster():
    f, k0i, k0e, delta0, setup = build_setup()
    rng = np.random.default_rng(4)
    seeds = band_seeds(f, setup.eps, 60, rng)
    out, uptick, speed = eta_epsilon_batch(setup, seeds)
    assert uptick <= 1e-12
    assert speed <= 1.0 + 1e-8
    vals = np.asarray(f.value_of(out))
    dist = cdist(out, k0e.coords).min(axis=1)
    assert np.all((vals <= -setup.d + 1e-9) | (dist < 3.0 * setup.r))
    # both outcomes actually occur in a healthy sample
    assert np.any(vals <= -setup.d + 1e-9)
    assert np.any(dist < 3.0 * setup.r)


def test_deformation_is_odd_on_paired_seeds():
    f, k0i, k0e, delta0, setup = build_setup()
    ang = np.linspace(0.0, np.pi, 7)[:-1]
    ring = 0.35 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    assert np.all(np.asarray(f.value_of(ring)) <= -setup.eps)
    # the ring and its mirror image as two separate batches
    a, _, _ = eta_epsilon_batch(setup, ring)
    b, _, _ = eta_epsilon_batch(setup, -ring)
    assert np.max(np.abs(a + b)) <= 1e-10


def test_batched_eta_is_exactly_odd_on_stacked_pairs():
    f, k0i, k0e, delta0, setup = build_setup()
    seeds = band_seeds(f, setup.eps, 6, np.random.default_rng(7))
    pairs = np.concatenate([seeds, -seeds])
    out, _, _ = eta_epsilon_batch(setup, pairs)
    # value and cutoffs are even and the gradient odd, so the shared step
    # sequence maps -s to exactly minus the image of s
    assert np.array_equal(out[:6], -out[6:])
    for seed, end in zip(pairs, out):
        tr = flow(setup, Point(seed, f.space), setup.t_eps)
        assert np.max(np.abs(tr.points[-1] - end)) <= 1e-9


@pytest.mark.parametrize("odd_pairs", [1, 5, 30])
def test_deform_runs_one_batch_flow_at_any_pair_count(tmp_path, monkeypatch, odd_pairs):
    calls = []
    real = deformation.flow_batch

    def counted(setup, seeds, *args, **kwargs):
        calls.append(len(seeds))
        return real(setup, seeds, *args, **kwargs)

    monkeypatch.setattr(deformation, "flow_batch", counted)
    ns = argparse.Namespace(samples=20, circle_samples=32, odd_pairs=odd_pairs,
                            budget=4000, seed=0)
    results, checks = cli._run_deform(ns, tmp_path)
    # the deformed sample followed by the mirrors of its first seeds
    # (capped at the sample size), in one flow
    assert calls == [20 + min(odd_pairs, 20)]
    assert results["oddness_deviation"] == 0.0
    assert all(checks.values())


def test_deformation_rejects_seeds_above_the_band():
    f, k0i, k0e, delta0, setup = build_setup()
    high = np.array([0.96, 0.0])   # close to the unit circle, I barely negative
    assert -setup.eps < float(f.value_of(high)) < 0.0
    with pytest.raises(InvalidParams):
        eta_epsilon_batch(setup, high)
    with pytest.raises(InvalidParams):
        eta_epsilon_batch(setup, np.stack([high, -high]))


def test_a_contract_violation_raises_with_the_offending_seeds_trace(monkeypatch):
    f, k0i, k0e, delta0, setup = build_setup()
    # random band seeds sit mostly below -d already; a small ring around the
    # origin starts just under -eps and needs the whole flow time to reach -d
    ang = np.linspace(0.0, np.pi, 5)[:-1]
    ring = 0.09 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    assert np.all(np.asarray(f.value_of(ring)) > -setup.d)
    seeds = np.concatenate([band_seeds(f, setup.eps, 10, np.random.default_rng(4)), ring])
    eta_epsilon_batch(setup, seeds)   # the whole flow time meets the contract
    # a tenth of it leaves the ring short of the target
    real = DeformationSetup.t_eps
    monkeypatch.setattr(DeformationSetup, "t_eps", property(lambda s: 0.1 * real.func(s)))
    out, _, _ = flow_batch(setup, seeds, setup.t_eps)
    missed = np.flatnonzero((np.asarray(f.value_of(out)) > -setup.d + 1e-9)
                            & (cdist(out, k0e.coords).min(axis=1) >= 3.0 * setup.r))
    assert len(missed) > 0
    i = int(missed[0])
    assert i == 10
    with pytest.raises(DeformationFailure) as info:
        eta_epsilon_batch(setup, seeds)
    assert f"seed {i} " in str(info.value)
    assert f"I = {float(f.value_of(out[i])):.6f}" in str(info.value)
    trace = info.value.trace
    assert isinstance(trace, FlowTrace)
    assert np.array_equal(trace.points[0], seeds[i])
    assert trace.times[-1] == pytest.approx(setup.t_eps, abs=1e-12)


# ---------------------------------------------------------------------------
# the flow loop against its unfused reference

def _unfused_flow_reference(setup, seeds, t_final, trace):
    """The flow loop as written before it held its point's field: four
    field calls per RK4 step, so twelve per step-doubling attempt, and a
    separate value_of for each accepted point's energy.  Returns the
    flow_batch triple and the number of attempts."""
    def rk4(u, h):
        k1 = -_field_batch(setup, u)[0]
        k2 = -_field_batch(setup, u + 0.5 * h * k1)[0]
        k3 = -_field_batch(setup, u + 0.5 * h * k2)[0]
        k4 = -_field_batch(setup, u + h * k3)[0]
        return u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    u = np.atleast_2d(np.array(seeds, dtype=float))
    h_max = 0.01 * setup.r
    h = h_max
    t = 0.0
    attempts = 0
    energy = np.atleast_1d(setup.f.value_of(u))
    trace.append((t, u, energy))
    max_uptick = 0.0
    max_speed = 0.0
    while t < t_final - 1e-15:
        h = min(h, t_final - t)
        attempts += 1
        full = rk4(u, h)
        half = rk4(rk4(u, 0.5 * h), 0.5 * h)
        err = float(np.max(np.abs(full - half)))
        if err > deformation._ERR_TOL:
            if h <= 1e-12:
                raise IntegrationError(f"step size collapsed at t = {t:.6f}")
            h *= 0.5
            continue
        step_len = np.linalg.norm(half - u, axis=1)
        rounding = (4.0 * np.spacing(np.maximum(np.abs(u), np.abs(half)).max(axis=1))
                    + np.spacing(t + h))
        max_speed = max(max_speed, float(np.max(step_len - rounding)) / h)
        u = half
        t += h
        e_new = np.atleast_1d(setup.f.value_of(u))
        max_uptick = max(max_uptick, float(np.max(e_new - energy)))
        energy = e_new
        trace.append((t, u, energy))
        if err < 0.1 * deformation._ERR_TOL:
            h = min(h * 1.5, h_max)
    return (u, max_uptick, max_speed), attempts


_SETUP = build_setup()[4]

# radius bands of the test setup (d ~ 0.029, r = 1/6, a 32-point circle):
# "deep" rows sit at I ~ -0.24 <= -2d and "near" rows within r of the
# circle samples, so both are frozen; "moving" rows sit near the origin or
# just inside the sqrt(2) circle, where both cutoffs are positive
_BANDS = {"deep": (0.5, 0.6), "near": (0.97, 1.03),
          "moving": (0.03, 0.12), "outer": (1.405, 1.414)}


@st.composite
def _seed_sets(draw, max_rows=6):
    """Seed rows of every kind in one batch, the first few of them
    optionally followed by their mirror images."""
    rows = draw(st.lists(st.tuples(st.sampled_from(sorted(_BANDS)),
                                   st.floats(0.0, 1.0), st.floats(0.0, 2.0 * np.pi)),
                         min_size=1, max_size=max_rows))
    seeds = np.array([(_BANDS[k][0] + frac * (_BANDS[k][1] - _BANDS[k][0]))
                      * np.array([np.cos(a), np.sin(a)]) for k, frac, a in rows])
    kinds = [k for k, _, _ in rows]
    frozen = np.array([k in ("deep", "near") for k in kinds])
    mirrored = draw(st.integers(0, len(seeds)))
    seeds = np.concatenate([seeds, -seeds[:mirrored]])
    frozen = np.concatenate([frozen, frozen[:mirrored]])
    return seeds, frozen


def _field_reference(setup, u):
    """The cutoff field as written before it skipped the exterior distance
    on rows whose energy ramp is shut: both cutoffs on every row."""
    vals = np.atleast_1d(setup.f.value_of(u))
    phi1 = np.clip((vals + 2.0 * setup.d) / setup.d, 0.0, 1.0)
    dist = nearest_distances(u, setup.k0e.coords)
    phi2 = np.clip((dist - setup.r) / setup.r, 0.0, 1.0)
    amp = phi1 * phi2
    out = np.zeros_like(u)
    active = amp > 0.0
    if np.any(active):
        g = setup.f.grad_of(u[active])
        gn = np.atleast_1d(setup.f.space.norm(g))
        out[active] = (amp[active] / gn)[:, None] * g
    return out, vals


# "ramp" rows sit at -2d < I < -d, where the energy cutoff lies strictly
# between 0 and 1 and the exterior distance is past 2r
_FIELD_BANDS = {**_BANDS, "ramp": (0.125, 0.175)}


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(st.sampled_from(sorted(_FIELD_BANDS) + ["nan"]),
                               st.floats(0.0, 1.0), st.floats(0.0, 2.0 * np.pi)),
                     max_size=8))
def test_field_equals_the_unskipped_reference_byte_for_byte(rows):
    u = np.array([np.full(2, np.nan) if k == "nan"
                  else (_FIELD_BANDS[k][0] + frac * (_FIELD_BANDS[k][1] - _FIELD_BANDS[k][0]))
                  * np.array([np.cos(a), np.sin(a)]) for k, frac, a in rows]).reshape(-1, 2)
    field, vals = _field_batch(_SETUP, u)
    ref_field, ref_vals = _field_reference(_SETUP, u)
    assert field.tobytes() == ref_field.tobytes()
    assert vals.tobytes() == ref_vals.tobytes()
    assert field.shape == u.shape
    # a NaN row stays inactive with a zero field
    assert not np.any(field[np.isnan(vals)])


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(st.sampled_from(sorted(_FIELD_BANDS) + ["nan"]),
                               st.floats(0.0, 1.0), st.floats(0.0, 2.0 * np.pi)),
                     min_size=1, max_size=8))
def test_a_rows_field_does_not_depend_on_its_batch(rows):
    # live rows and stacked stages rest on this: a row's field and energy
    # are the same bytes alone, inside any batch, and in a batch stacked twice
    u = np.array([np.full(2, np.nan) if k == "nan"
                  else (_FIELD_BANDS[k][0] + frac * (_FIELD_BANDS[k][1] - _FIELD_BANDS[k][0]))
                  * np.array([np.cos(a), np.sin(a)]) for k, frac, a in rows])
    n = len(u)
    inside = _field_batch(_SETUP, u)
    stacked = _field_batch(_SETUP, np.concatenate([u, u]))
    for i in range(n):
        alone = _field_batch(_SETUP, u[i:i + 1])
        for field, vals in (inside, stacked, (stacked[0][n:], stacked[1][n:])):
            assert field[i].tobytes() == alone[0][0].tobytes()
            assert vals[i].tobytes() == alone[1][0].tobytes()


def test_the_field_measures_the_exterior_distance_only_where_the_energy_ramp_is_open(
        monkeypatch):
    angles = np.array([0.3, 1.9, 4.0, 2.5, 5.2])
    radii = np.array([0.55, 0.58, 0.15, 0.52, 0.14])   # I <= -2d, except 2 and 4
    u = radii[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    vals = _SETUP.f.value_of(u)
    shut = vals <= -2.0 * _SETUP.d
    assert shut.tolist() == [True, True, False, True, False]
    assert np.all(vals[~shut] < -_SETUP.d)
    measured = []

    def counted(rows, points):
        measured.append(np.array(rows))
        return nearest_distances(rows, points)

    monkeypatch.setattr(deformation, "nearest_distances", counted)
    field, _ = _field_batch(_SETUP, u)
    assert len(measured) == 1
    assert np.array_equal(measured[0], u[~shut])
    assert not np.any(field[shut])
    assert np.all(np.linalg.norm(field[~shut], axis=1) > 0.0)


# flow times are a fraction of t_eps, so an example takes tens of steps
_FLOW_TIMES = st.floats(0.0, 0.25).map(lambda frac: frac * _SETUP.t_eps)


@settings(max_examples=30, deadline=None)
@given(case=_seed_sets(), t_final=_FLOW_TIMES)
def test_flow_batch_equals_the_unfused_reference_bit_for_bit(case, t_final):
    seeds, frozen = case
    field, _ = _field_batch(_SETUP, seeds)
    assert not np.any(field[frozen])           # the strategy's frozen rows are frozen
    ref_trace, trace = [], []
    expected, _ = _unfused_flow_reference(_SETUP, seeds, t_final, ref_trace)
    got = flow_batch(_SETUP, seeds, t_final, trace)
    assert np.array_equal(got[0], expected[0])
    assert got[1:] == expected[1:]
    assert len(trace) == len(ref_trace)
    for (t, rows, energy), (t_ref, rows_ref, energy_ref) in zip(trace, ref_trace):
        assert t == t_ref
        assert np.array_equal(rows, rows_ref)
        assert np.array_equal(energy, energy_ref)
    assert np.array_equal(got[0][frozen], seeds[frozen])


@settings(max_examples=20, deadline=None)
@given(case=_seed_sets(), t_final=_FLOW_TIMES)
def test_flow_is_exactly_odd_and_energy_monotone(case, t_final):
    seeds, _ = case
    trace = []
    out, uptick, _ = flow_batch(_SETUP, np.concatenate([seeds, -seeds]), t_final, trace)
    n = len(seeds)
    assert np.array_equal(out[:n], -out[n:])
    # the mirrored seeds on their own take the same steps to the same images
    alone, _, _ = flow_batch(_SETUP, -seeds, t_final)
    assert np.array_equal(alone, out[n:])
    energies = np.array([e for _, _, e in trace])
    assert np.all(np.diff(energies, axis=0) <= 1e-12)
    assert uptick <= 1e-12
    # |field| <= 1, so an accepted step moves each row at most its duration,
    # up to the rounding of the rows and of the clock: a few ulps, which on
    # the shortest steps (~1e-15) are a sizable share of the move.  The
    # reported speed is these moves, less the same allowance, over h,
    # pinned by the reference test.
    times = np.array([t for t, _, _ in trace])
    rows = np.array([r for _, r, _ in trace])
    moved = np.linalg.norm(np.diff(rows, axis=0), axis=2)
    rounding = (4.0 * np.spacing(np.maximum(np.abs(rows[:-1]), np.abs(rows[1:])).max(axis=2))
                + np.spacing(times[1:])[:, None])
    assert np.all(moved <= np.diff(times)[:, None] * (1.0 + 1e-8) + rounding)


def test_a_flow_evaluates_each_point_once(monkeypatch):
    seeds = np.array([[0.1, 0.0], [0.55, 0.0], [0.0, -1.41], [-0.1, 0.0]])
    t_final = 0.3 * _SETUP.t_eps
    ref_trace = []
    _, attempts = _unfused_flow_reference(_SETUP, seeds, t_final, ref_trace)
    accepted = len(ref_trace) - 1
    assert attempts > accepted > 0
    counts = {"field": 0, "value": 0}
    real_field, real_value = deformation._field_batch, _SETUP.f.value_of

    def counted_field(*args):
        counts["field"] += 1
        return real_field(*args)

    def counted_value(*args):
        counts["value"] += 1
        return real_value(*args)

    monkeypatch.setattr(deformation, "_field_batch", counted_field)
    monkeypatch.setattr(_SETUP.f, "value_of", counted_value)
    trace = []
    flow_batch(_SETUP, seeds, t_final, trace)
    assert len(trace) - 1 == accepted
    # the start, seven calls per attempt (three for the full step and the
    # first half step stacked, the midpoint's, three for the second half
    # step), one per accepted point
    assert counts["field"] == 1 + 7 * attempts + accepted
    # every energy comes out of a field call
    assert counts["value"] == counts["field"]


def test_a_row_whose_field_is_zero_is_in_no_later_field_call(monkeypatch):
    # two frozen rows (deep below the band, next to the circle) and three
    # moving ones
    seeds = np.array([[0.1, 0.0], [0.55, 0.0], [0.0, -1.41], [0.0, 0.97], [-0.1, 0.0]])
    seen = []
    real = deformation._field_batch

    def recorded(setup, u):
        seen.append(np.array(u))
        return real(setup, u)

    class Marked(list):
        """A trace that notes how many field calls preceded each entry."""
        def append(self, entry):
            super().append((len(seen), entry))

    monkeypatch.setattr(deformation, "_field_batch", recorded)
    trace = Marked()
    flow_batch(_SETUP, seeds, 0.3 * _SETUP.t_eps, trace)
    assert np.array_equal(seen[0], seeds)
    assert {len(u) for u in seen[1:]} == {3, 6}
    for mark, (_, rows, _) in trace:
        frozen = rows[~np.any(real(_SETUP, rows)[0], axis=1)]
        assert len(frozen) >= 2
        for later in seen[mark:]:
            assert not np.any(np.all(later[:, None, :] == frozen[None, :, :], axis=2))


def test_a_batch_that_starts_frozen_makes_one_field_call(monkeypatch):
    deep = 0.55 * np.array([[1.0, 0.0], [0.0, 1.0], [-0.6, 0.8]])
    assert np.all(np.asarray(_SETUP.f.value_of(deep)) <= -2.0 * _SETUP.d)
    ref_trace = []
    _unfused_flow_reference(_SETUP, deep[:1], _SETUP.t_eps, ref_trace)
    calls = []
    real = deformation._field_batch

    def counted_field(setup, u):
        calls.append(len(u))
        return real(setup, u)

    monkeypatch.setattr(deformation, "_field_batch", counted_field)
    out, uptick, speed = flow_batch(_SETUP, deep, _SETUP.t_eps)
    assert calls == [3]
    assert np.array_equal(out, deep)
    assert (uptick, speed) == (0.0, 0.0)
    # the trace still takes every step of the reference, with no evaluation
    tr = flow(_SETUP, Point(deep[0], _SETUP.f.space), _SETUP.t_eps)
    assert calls == [3, 1]
    assert tr.times.tolist() == [t for t, _, _ in ref_trace]
    assert np.array_equal(tr.points, np.array([rows[0] for _, rows, _ in ref_trace]))
    assert tr.energies.tolist() == [float(e[0]) for _, _, e in ref_trace]


def test_a_nan_row_is_frozen_and_leaves_the_other_rows_alone():
    # its field is shut, so it adds nothing to the step-doubling error
    seeds = np.array([[0.1, 0.0], [0.0, -1.41]])
    t_final = 0.1 * _SETUP.t_eps
    alone = flow_batch(_SETUP, seeds, t_final)
    out, uptick, speed = flow_batch(_SETUP, np.concatenate([seeds, np.full((1, 2), np.nan)]),
                                    t_final)
    assert np.array_equal(out[:2], alone[0])
    assert (uptick, speed) == alone[1:]
    assert np.all(np.isnan(out[2]))


def test_an_empty_batch_flows_to_empty_rows(monkeypatch):
    # no row moves, so neither call evaluates the field
    calls = []
    real = deformation._field_batch

    def counted_field(setup, u):
        calls.append(len(u))
        return real(setup, u)

    monkeypatch.setattr(deformation, "_field_batch", counted_field)
    empty = np.empty((0, 2))
    trace = []
    out, uptick, speed = flow_batch(_SETUP, empty, _SETUP.t_eps, trace)
    assert out.shape == (0, 2)
    assert (uptick, speed) == (0.0, 0.0)
    assert trace[-1][0] == pytest.approx(_SETUP.t_eps, abs=1e-12)
    out, uptick, speed = eta_epsilon_batch(_SETUP, empty)
    assert out.shape == (0, 2)
    assert (uptick, speed) == (0.0, 0.0)
    assert calls == []
