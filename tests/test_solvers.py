import json
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clarklab import cli
from clarklab.errors import InvalidParams
from clarklab.functionals import Functional
from clarklab.models import (
    ClarkModel,
    CriticalSetOracle,
    SublinearEnergy,
    WrapperFunctional,
    classify_model_point,
    wrapper_functional,
)
from clarklab.solvers import (
    _ARMIJO,
    _ENERGY_NOISE,
    _GROW,
    _INITIAL_STEP,
    _MIN_STEP,
    _SHRINK,
    _STEP_CAP,
    RESIDUAL_TOL,
    STOP_BUDGET,
    STOP_CONVERGED,
    STOP_STALLED,
    SolveConfig,
    _RowResult,
    accumulation_scan,
    ball_seed_sampler,
    gradient_flow_solve_batch,
    model_seed_sampler,
)
from clarklab.spaces import H01Grid, L2Truncation


def test_flow_converges_to_the_nearest_branch_point():
    model = ClarkModel(3)
    seed = np.array([0.9, 1.2, 0.0, 0.0])
    row = gradient_flow_solve_batch(model, seed, SolveConfig())[0]
    assert row.stop == "converged"
    assert row.residual <= 1e-8
    assert classify_model_point(model, row.coords[None], RESIDUAL_TOL) == (["N"], ["+00"])
    assert row.value == pytest.approx(-1.0 / 6.0, abs=1e-9)
    assert np.linalg.norm(row.coords - np.array([1.0, 1.0, 0.0, 0.0])) < 1e-6


def test_flow_returns_nonconvergence_when_budget_runs_out():
    model = ClarkModel(2)
    cfg = SolveConfig(max_flow_time=0.5)
    row = gradient_flow_solve_batch(model, np.array([0.5, 0.2, 0.1]), cfg)[0]
    assert row.stop == "budget"
    assert row.flow_time >= 0.5
    assert row.residual > 1e-8
    assert np.all(np.isfinite(row.coords))


class _Uphill(Functional):
    """|u|^2 with the gradient's sign flipped: every descent step climbs."""

    space = L2Truncation(2)

    def value_of(self, coords):
        return np.sum(np.asarray(coords) ** 2, axis=-1)

    def grad_of(self, coords):
        return -2.0 * np.asarray(coords, dtype=float)


def test_flow_reports_a_collapsed_step_as_stalled():
    # every proposal raises the energy, so every step is rejected and the
    # step halves from _INITIAL_STEP until it falls below _MIN_STEP
    f = _Uphill()
    row = gradient_flow_solve_batch(f, np.array([0.5, 0.2]), SolveConfig())[0]
    assert row.stop == "stalled"
    assert row.flow_time == 0.0
    assert np.array_equal(row.coords, np.array([0.5, 0.2]))
    assert _INITIAL_STEP * _SHRINK ** row.steps < _MIN_STEP
    assert _INITIAL_STEP * _SHRINK ** (row.steps - 1) >= _MIN_STEP


def test_batch_rows_match_single_seed_solves():
    model = ClarkModel(2)
    rng = np.random.default_rng(11)
    seeds = model_seed_sampler(model, rng, 6)
    cfg = SolveConfig()
    rows = gradient_flow_solve_batch(model, seeds, cfg)
    for seed, row in zip(seeds, rows):
        single = gradient_flow_solve_batch(model, seed[None, :], cfg)[0]
        assert np.array_equal(single.coords, row.coords)
        assert single.value == row.value
        assert single.steps == row.steps


def _full_gradient_reference(f, seeds, cfg):
    """The lockstep loop with one shared step per row, written out on its
    own: the batch solver's one-block path must reproduce it bit for bit."""
    u = np.array(seeds, dtype=float)
    m = u.shape[0]
    h = np.full(m, _INITIAL_STEP)
    tau = np.zeros(m)
    steps = np.zeros(m, dtype=int)
    energy = f.value_of(u)
    grad = f.grad_of(u)
    res = np.asarray(f.space.norm(grad))
    gg = res * res
    active = res > RESIDUAL_TOL
    while np.any(active):
        idx = np.flatnonzero(active)
        prop = u[idx] - h[idx, None] * grad[idx]
        e_prop = np.atleast_1d(f.value_of(prop))
        slack = _ENERGY_NOISE * np.maximum(1.0, np.abs(energy[idx]))
        accept = e_prop <= energy[idx] - _ARMIJO * h[idx] * gg[idx] + slack
        acc = idx[accept]
        if acc.size:
            u[acc] = prop[accept]
            energy[acc] = e_prop[accept]
            tau[acc] += h[acc]
            h[acc] = np.minimum(h[acc] * _GROW, _STEP_CAP)
            grad[acc] = f.grad_of(u[acc])
            res[acc] = np.atleast_1d(f.space.norm(grad[acc]))
            gg[acc] = res[acc] * res[acc]
        h[idx[~accept]] *= _SHRINK
        steps[idx] += 1
        stop = ((res[idx] <= RESIDUAL_TOL) | (tau[idx] >= cfg.max_flow_time)
                | (h[idx] < _MIN_STEP))
        active[idx[stop]] = False
    return u, energy, tau, steps


def test_one_block_path_is_the_full_gradient_flow():
    f = SublinearEnergy(H01Grid(8))
    assert len(f.step_blocks()) == 1
    seeds = ball_seed_sampler(f.space, 1.0, np.random.default_rng(4), 12)
    cfg = SolveConfig(max_flow_time=30.0)
    rows = gradient_flow_solve_batch(f, seeds, cfg)
    u, energy, tau, steps = _full_gradient_reference(f, seeds, cfg)
    assert max(r.steps for r in rows) > 20
    for i, row in enumerate(rows):
        assert np.array_equal(row.coords, u[i])
        assert row.value == energy[i]
        assert row.flow_time == tau[i]
        assert row.steps == steps[i]


def _two_block_reference(f, seeds, cfg):
    """The lockstep loop with each row's block steps and flow times held as
    the columns of (m, nb) arrays, written out on its own: a row's flow time
    is tau.min(axis=1) and a block's squared gradient norm np.add.reduce.
    The batch solver's per-block 1-D arrays must reproduce it bit for bit."""
    space = f.space
    u = np.array(seeds, dtype=float)
    results = [None] * len(u)
    rows = np.arange(len(u))
    blocks = f.step_blocks()
    nb = len(blocks)
    caps = [_STEP_CAP if capped else np.inf for _, capped in blocks]
    h = np.full((len(u), nb), _INITIAL_STEP)
    tau = np.zeros((len(u), nb))
    energy, grad = f.value_and_grad(u)
    res = space.norm(grad)
    done = ~(res > RESIDUAL_TOL)

    k = 0
    while True:
        if done.any():
            flow_time = tau.min(axis=1)
            for i in np.flatnonzero(done):
                if res[i] <= RESIDUAL_TOL:
                    stop = STOP_CONVERGED
                elif flow_time[i] >= cfg.max_flow_time:
                    stop = STOP_BUDGET
                else:
                    stop = STOP_STALLED
                results[rows[i]] = _RowResult(
                    coords=u[i].copy(), value=float(energy[i]), residual=float(res[i]),
                    flow_time=float(flow_time[i]), steps=k, stop=stop)
            live = ~done
            u, h, tau, energy, grad, res, rows = (
                a[live] for a in (u, h, tau, energy, grad, res, rows))
        if not rows.size:
            return results

        b = k % nb
        hb = h[:, b]
        sl = blocks[b][0]
        gb = grad[:, sl]
        prop = u.copy()
        prop[:, sl] -= hb[:, None] * gb
        gnorm2 = np.add.reduce(gb * gb, axis=1)
        e_prop, g_prop = f.value_and_grad(prop)
        slack = _ENERGY_NOISE * np.maximum(1.0, np.abs(energy))
        accept = e_prop <= energy - _ARMIJO * hb * gnorm2 + slack

        rowwise = accept[:, None]
        u = np.where(rowwise, prop, u)
        energy = np.where(accept, e_prop, energy)
        grad = np.where(rowwise, g_prop, grad)
        res = np.where(accept, space.norm(g_prop), res)
        tau[:, b] += np.where(accept, hb, 0.0)
        h[:, b] = np.where(accept, np.where(gnorm2 > 0.0, np.minimum(hb * _GROW, caps[b]), hb),
                           hb * _SHRINK)
        k += 1

        done = ((res <= RESIDUAL_TOL) | (tau.min(axis=1) >= cfg.max_flow_time)
                | (h[:, b] < _MIN_STEP))


# n = 3 sums its x-block by row_sum's column pass; n = 8 has x-width 8,
# which row_sum hands to np.add.reduce
@pytest.mark.parametrize("n", [3, 8])
def test_two_block_path_is_the_column_array_loop(n):
    model = ClarkModel(n)
    assert len(model.step_blocks()) == 2
    seeds = model_seed_sampler(model, np.random.default_rng(n), 24)
    # a NaN seed never runs and ends stalled
    seeds[5, -1] = np.nan
    cfg = SolveConfig(max_flow_time=100.0)
    with np.errstate(invalid="ignore"):
        rows = gradient_flow_solve_batch(model, seeds, cfg)
        expected = _two_block_reference(model, seeds, cfg)
    assert {r.stop for r in rows} == {STOP_CONVERGED, STOP_BUDGET, STOP_STALLED}
    for a, b in zip(rows, expected, strict=True):
        for field in fields(_RowResult):
            x, y = getattr(a, field.name), getattr(b, field.name)
            assert type(x) is type(y)
            assert np.asarray(x).tobytes() == np.asarray(y).tobytes(), field.name


def test_small_ball_rows_reach_the_quartic_bottom_in_few_steps():
    # the wrapper's origin is a degenerate minimum, I ~ 2 pi^2 ||u||^4, so
    # only an uncapped step reaches it fast; at the cap 3.8 every row here
    # took 6,612 steps
    f = wrapper_functional(H01Grid(10))
    seeds = ball_seed_sampler(f.space, 0.3, np.random.default_rng(0), 200)
    for row in gradient_flow_solve_batch(f, seeds, SolveConfig()):
        assert row.stop == STOP_CONVERGED and row.steps <= 100
        assert np.isfinite(row.flow_time)
        assert f.space.norm(row.coords) < 1e-3


class _ComposedWrapper(WrapperFunctional):
    """The wrapper as it evaluated J((s - 1) u) before its radial identities:
    SublinearEnergy's own value_of and grad_of on the outside rows, and the
    cross term <grad J(w), u>_H through the cell differences of both."""

    def _evaluate(self, coords, value, grad):
        u = np.atleast_2d(np.asarray(coords, dtype=float))
        s = np.square(self.space.norm(u))
        out = np.flatnonzero(s > 1.0)
        uo, so = u[out], s[out]
        w = (so - 1.0)[:, None] * uo
        v = 1.0 - np.cos(2.0 * np.pi * s)
        g = 4.0 * np.pi * np.sin(2.0 * np.pi * s)[:, None] * u
        if out.size:
            v[out] = self.inner_energy.value_of(w)
            gj = self.inner_energy.grad_of(w)
            dg = np.diff(gj, axis=-1, prepend=0.0, append=0.0)
            du = np.diff(uo, axis=-1, prepend=0.0, append=0.0)
            cross = np.add.reduce(dg * du, axis=-1) / self.space.mesh_width
            g[out] = (so - 1.0)[:, None] * gj + 2.0 * cross[:, None] * uo
        return v, g


def test_wrapper_flows_keep_the_stops_and_steps_of_the_composed_evaluation():
    # the radial identities move the wrapper's rounding, not its flows: each
    # row keeps its stop and step count, and its terminal within 1e-12.
    # Criterion 08's mix, smaller: wide seeds that creep along the seam or
    # fall to the origin, seeds pinned on the seam, and small-ball seeds
    f = wrapper_functional(H01Grid(6))
    space = f.space
    rng = np.random.default_rng(8)
    wide = ball_seed_sampler(space, 2.0, rng, 24)
    on_seam = wide[:8] / space.norm(wide[:8])[:, None]
    seeds = np.concatenate([wide, on_seam])
    s = np.square(space.norm(seeds))
    assert (s < 1.0).any() and (s > 1.0).any() and (np.abs(s - 1.0) < 1e-12).sum() == 8
    stops = []
    for batch, cfg in ((seeds, SolveConfig(max_flow_time=1e3)),
                       (ball_seed_sampler(space, 0.3, rng, 8), SolveConfig())):
        rows = gradient_flow_solve_batch(f, batch, cfg)
        expected = gradient_flow_solve_batch(_ComposedWrapper(space), batch, cfg)
        for a, b in zip(rows, expected, strict=True):
            assert (a.stop, a.steps) == (b.stop, b.steps)
            assert np.max(np.abs(a.coords - b.coords)) <= 1e-12
            stops.append((a.stop, a.steps > 0))
    assert set(stops) == {(STOP_CONVERGED, False), (STOP_CONVERGED, True), (STOP_BUDGET, True)}


# ---------------------------------------------------------------------------
# property tests of the batch solver, on the coordinate model's two step
# blocks and on the one-block path of an H01 functional

SOLVE_CASES = {
    "blocks": (ClarkModel(2), SolveConfig(), model_seed_sampler),
    "one_block": (SublinearEnergy(H01Grid(6)), SolveConfig(max_flow_time=10.0),
                  lambda f, rng, m: ball_seed_sampler(f.space, 1.0, rng, m)),
    "wrapper": (wrapper_functional(H01Grid(6)), SolveConfig(max_flow_time=100.0),
                lambda f, rng, m: ball_seed_sampler(f.space, 1.5, rng, m)),
}
solve_cases = st.sampled_from(sorted(SOLVE_CASES))
rng_seeds = st.integers(0, 2 ** 32 - 1)


def _solve_case(name, seed, m=8):
    f, cfg, sampler = SOLVE_CASES[name]
    seeds = sampler(f, np.random.default_rng(seed), m)
    return f, cfg, seeds, gradient_flow_solve_batch(f, seeds, cfg)


def _same_row(a, b, sign=1.0):
    return (np.array_equal(a.coords, sign * b.coords) and a.value == b.value
            and a.residual == b.residual and a.flow_time == b.flow_time
            and a.steps == b.steps and a.stop == b.stop)


def _scatter_reference(f, seeds, cfg):
    """The batch loop as written before it took accepted proposals with one
    masked select per array: it scattered them into the running arrays by
    index.  Returns the _RowResult list and the number of rejected row-steps."""
    space = f.space
    u = np.array(seeds, dtype=float)
    if u.ndim == 1:
        u = u[None, :]
    results = [None] * len(u)
    rows = np.arange(len(u))
    blocks = f.step_blocks()
    nb = len(blocks)
    caps = [_STEP_CAP if capped else np.inf for _, capped in blocks]
    h = np.full((len(u), nb), _INITIAL_STEP)
    tau = np.zeros((len(u), nb))
    energy, grad = f.value_and_grad(u)
    res = space.norm(grad)
    done = ~(res > RESIDUAL_TOL)
    rejected = 0

    k = 0
    while True:
        if np.any(done):
            flow_time = np.min(tau, axis=1)
            for i in np.flatnonzero(done):
                if res[i] <= RESIDUAL_TOL:
                    stop = STOP_CONVERGED
                elif flow_time[i] >= cfg.max_flow_time:
                    stop = STOP_BUDGET
                else:
                    stop = STOP_STALLED
                results[rows[i]] = _RowResult(
                    coords=u[i].copy(), value=float(energy[i]), residual=float(res[i]),
                    flow_time=float(flow_time[i]), steps=k, stop=stop)
            live = ~done
            u, h, tau, energy, grad, res, rows = (
                a[live] for a in (u, h, tau, energy, grad, res, rows))
        if not rows.size:
            return results, rejected

        b = k % nb
        hb = h[:, b]
        if nb == 1:
            prop = u - hb[:, None] * grad
            gnorm2 = res * res
        else:
            sl = blocks[b][0]
            gb = grad[:, sl]
            prop = u.copy()
            prop[:, sl] -= hb[:, None] * gb
            gnorm2 = np.sum(gb * gb, axis=1)
        e_prop, g_prop = f.value_and_grad(prop)
        slack = _ENERGY_NOISE * np.maximum(1.0, np.abs(energy))
        accept = e_prop <= energy - _ARMIJO * hb * gnorm2 + slack
        rejected += int(np.count_nonzero(~accept))

        acc = np.flatnonzero(accept)
        u[acc] = prop[acc]
        energy[acc] = e_prop[acc]
        tau[acc, b] += hb[acc]
        grad[acc] = g_prop[acc]
        res[acc] = space.norm(grad[acc])
        grow = acc[gnorm2[acc] > 0.0]
        h[grow, b] = np.minimum(h[grow, b] * _GROW, caps[b])
        h[~accept, b] *= _SHRINK
        k += 1

        done = ((res <= RESIDUAL_TOL) | (np.min(tau, axis=1) >= cfg.max_flow_time)
                | (h[:, b] < _MIN_STEP))


# one block (an H01 functional) and two blocks (the coordinate model's t and x)
REFERENCE_CASES = {
    "wrapper": (wrapper_functional(H01Grid(4)),
                lambda f, rng, m: ball_seed_sampler(f.space, 2.0, rng, m)),
    "model2": (ClarkModel(2), model_seed_sampler),
    "model3": (ClarkModel(3), model_seed_sampler),
}


def test_masked_loop_equals_the_scatter_reference_bit_for_bit():
    rejected = []

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted(REFERENCE_CASES)), m=st.integers(0, 6),
           seed=rng_seeds, special=st.sampled_from(["none", "nan", "segment"]),
           budget=st.sampled_from([0.05, 0.5, 5.0, 30.0]))
    @example(name="wrapper", m=0, seed=0, special="none", budget=5.0)
    @example(name="model2", m=1, seed=1, special="none", budget=30.0)
    @example(name="wrapper", m=3, seed=2, special="nan", budget=30.0)
    @example(name="model3", m=2, seed=3, special="segment", budget=30.0)
    def check(name, m, seed, special, budget):
        f, sampler = REFERENCE_CASES[name]
        seeds = sampler(f, np.random.default_rng(seed), m)
        if special == "nan" and m:
            seeds[seed % m, -1] = np.nan
        elif special == "segment" and m:
            # the origin of the wrapper; on the model, a point of the
            # stationary segment's line beyond the clamp, where the x-block's
            # gradient is exactly 0 and must keep its step
            seeds[seed % m] = 0.0
            if name != "wrapper":
                seeds[seed % m, 0] = (-1.0) ** seed * (1.0 + (seed % 7) * 0.3)
        cfg = SolveConfig(max_flow_time=budget)
        with np.errstate(invalid="ignore"):
            expected, n_rejected = _scatter_reference(f, seeds, cfg)
            got = gradient_flow_solve_batch(f, seeds, cfg)
        assert len(got) == len(expected) == m
        for a, b in zip(got, expected):
            for field in fields(_RowResult):
                x, y = getattr(a, field.name), getattr(b, field.name)
                assert type(x) is type(y)
                assert np.asarray(x).tobytes() == np.asarray(y).tobytes(), field.name
        rejected.append(n_rejected)

    check()
    # the drawn cases take the reject side of the mask too
    assert sum(rejected) > 0


@settings(max_examples=15, deadline=None)
@given(name=solve_cases, seed=rng_seeds)
def test_batch_terminals_are_exactly_odd(name, seed):
    f, cfg, seeds, rows = _solve_case(name, seed)
    mirrored = gradient_flow_solve_batch(f, -seeds, cfg)
    assert all(_same_row(b, a, sign=-1.0) for a, b in zip(rows, mirrored))


@settings(max_examples=15, deadline=None)
@given(name=solve_cases, seed=rng_seeds, data=st.data())
def test_rows_do_not_depend_on_order_or_batch_mates(name, seed, data):
    f, cfg, seeds, rows = _solve_case(name, seed)
    perm = data.draw(st.permutations(range(len(seeds))))
    keep = data.draw(st.integers(1, len(seeds)))
    shuffled = gradient_flow_solve_batch(f, seeds[perm], cfg)
    assert all(_same_row(s, rows[p]) for s, p in zip(shuffled, perm))
    alone = gradient_flow_solve_batch(f, seeds[:keep], cfg)
    assert all(_same_row(a, r) for a, r in zip(alone, rows))


@settings(max_examples=15, deadline=None)
@given(name=solve_cases, seed=rng_seeds)
def test_no_terminal_energy_rises_above_its_seed(name, seed):
    f, _, seeds, rows = _solve_case(name, seed)
    start = f.value_of(seeds)
    band = _ENERGY_NOISE * np.maximum(1.0, np.abs(start))
    assert all(r.value <= e + b for r, e, b in zip(rows, start, band))


@settings(max_examples=30, deadline=None)
@given(t=st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=1, max_size=6))
def test_stationary_segment_seeds_take_finite_steps(t):
    # on x = 0 the t-gradient vanishes inside [-1, 1] and is the clamp
    # penalty's outside; the uncapped t-step must stay finite either way
    model = ClarkModel(2)
    seeds = np.zeros((len(t), 3))
    seeds[:, 0] = t
    for row in gradient_flow_solve_batch(model, seeds, SolveConfig()):
        assert row.converged
        assert np.all(np.isfinite(row.coords)) and np.isfinite(row.flow_time)
        assert np.array_equal(row.coords[1:], np.zeros(2))
        assert abs(row.coords[0]) <= 1.0 + 1e-8


@pytest.mark.parametrize("name", sorted(SOLVE_CASES))
def test_longer_budgets_extend_the_same_monotone_flow(name):
    # the flow never looks at its budget before stopping, so the run under
    # each budget of an increasing ladder is a prefix of the next run
    f, cfg, sampler = SOLVE_CASES[name]
    seed = sampler(f, np.random.default_rng(7), 1)
    budgets = np.geomspace(1e-2, 2.0 * cfg.max_flow_time, 12)
    rows = [gradient_flow_solve_batch(f, seed, replace(cfg, max_flow_time=b))[0]
            for b in budgets]
    for prev, row in zip(rows, rows[1:]):
        assert row.steps >= prev.steps
        assert row.value <= prev.value + _ENERGY_NOISE * max(1.0, abs(prev.value))
    assert rows[0].stop == "budget"
    assert rows[-1].steps > rows[0].steps and rows[-1].value < rows[0].value


@pytest.mark.parametrize("f", [ClarkModel(2), wrapper_functional(H01Grid(4))],
                         ids=["model", "wrapper"])
def test_an_empty_batch_gives_no_rows(f):
    assert gradient_flow_solve_batch(f, np.empty((0, f.space.dim)), SolveConfig()) == []


@pytest.mark.parametrize("f, sampler", [
    (ClarkModel(2), lambda f, rng: model_seed_sampler(f, rng, 2)),
    (SublinearEnergy(H01Grid(6)), lambda f, rng: ball_seed_sampler(f.space, 1.0, rng, 2)),
    (wrapper_functional(H01Grid(6)), lambda f, rng: ball_seed_sampler(f.space, 1.5, rng, 2)),
], ids=["model", "sublinear", "wrapper"])
def test_a_nan_seed_stalls_at_once_and_leaves_its_batch_mate_alone(f, sampler):
    seeds = sampler(f, np.random.default_rng(5))
    seeds[0, 1] = np.nan
    cfg = SolveConfig(max_flow_time=50.0)
    with np.errstate(invalid="ignore"):
        bad, good = gradient_flow_solve_batch(f, seeds, cfg)
    assert bad.stop == "stalled" and bad.steps == 0
    assert np.array_equal(bad.coords, seeds[0], equal_nan=True)
    assert good.steps > 0
    assert _same_row(good, gradient_flow_solve_batch(f, seeds[1], cfg)[0])


def test_invalid_config_rejected():
    for bad in (0.0, -1.0, np.nan):
        with pytest.raises(InvalidParams):
            SolveConfig(max_flow_time=bad)


# ---------------------------------------------------------------------------
# samplers

def test_model_seed_sampler_shape_range_and_sparsity():
    rng = np.random.default_rng(0)
    seeds = model_seed_sampler(ClarkModel(3), rng, 600)
    assert seeds.shape == (600, 4)
    assert np.max(np.abs(seeds[:, 0])) < 1.0
    box = 18.0 * 3.0 ** (-2 * np.arange(1, 4))
    assert np.all(np.abs(seeds[:, 1:]) <= box)
    # masked draws keep whole sign-pattern families reachable
    zero_frac = np.mean(seeds[:, 1:] == 0.0)
    assert 0.1 < zero_frac < 0.4


def test_ball_seed_sampler_stays_in_the_ball():
    space = L2Truncation(5)
    rng = np.random.default_rng(1)
    seeds = ball_seed_sampler(space, 0.3, rng, 500)
    assert seeds.shape == (500, 5)
    norms = np.linalg.norm(seeds, axis=1)
    assert np.max(norms) <= 0.3 + 1e-12
    assert np.min(norms) > 0.0
    # not concentrated at the rim
    assert np.mean(norms < 0.25) > 0.3


# ---------------------------------------------------------------------------
# accumulation scan

def test_scan_keeps_only_window_terminals_with_edge_labels():
    model = ClarkModel(2)
    oracle = CriticalSetOracle(model)
    report = accumulation_scan(model, (-2.0, -1e-9), 80, 5, SolveConfig(), 1)
    assert report.n_converged == 80
    m = len(report.values)
    assert m > 0
    assert report.coords.shape == (m, 3)
    assert len(report.residuals) == len(report.dist_to_k0) == m
    assert len(report.labels) == len(report.patterns) == m
    for c, value, residual, dist, label in zip(report.coords, report.values, report.residuals,
                                               report.dist_to_k0, report.labels):
        assert -2.0 < value < -1e-9
        assert label in ("N", "-N")
        assert residual <= 1e-8
        assert oracle.distance(c) < 1e-6
        # the exact distance to K0, the segment {(t, 0): |t| <= 1}
        assert dist == pytest.approx(np.hypot(max(abs(c[0]) - 1.0, 0.0), np.linalg.norm(c[1:])),
                                     rel=1e-14, abs=0.0)
        assert oracle.distance(c) <= dist
    assert [([label], [pattern]) for label, pattern in zip(report.labels, report.patterns)] == [
        classify_model_point(model, c[None], RESIDUAL_TOL) for c in report.coords]
    keys = [(v, tuple(c)) for v, c in zip(report.values.tolist(), report.coords.tolist())]
    assert keys == sorted(keys)


def test_an_empty_window_gives_an_empty_report():
    model = ClarkModel(2)
    report = accumulation_scan(model, (-1e-300, -1e-301), 20, 1, SolveConfig(), 1)
    assert report.n_converged > 0
    assert report.coords.shape == (0, 3)
    for column in (report.values, report.residuals, report.dist_to_k0):
        assert column.shape == (0,)
    assert report.labels == [] and report.patterns == []


@settings(max_examples=10, deadline=None)
@given(seed=rng_seeds)
def test_scan_is_deterministic_for_a_fixed_seed(seed):
    model = ClarkModel(2)
    a = accumulation_scan(model, (-1.0, -1e-12), 30, seed, SolveConfig(), 1)
    b = accumulation_scan(model, (-1.0, -1e-12), 30, seed, SolveConfig(), 1)
    assert a.n_converged == b.n_converged
    assert np.array_equal(a.coords, b.coords)
    assert np.array_equal(a.values, b.values)


def test_scan_threads_produce_the_same_report():
    model = ClarkModel(2)
    a = accumulation_scan(model, (-1.0, -1e-12), 40, 2, SolveConfig(), 1)
    b = accumulation_scan(model, (-1.0, -1e-12), 40, 2, SolveConfig(), threads=4)
    assert a.coords.shape == b.coords.shape
    assert np.allclose(a.coords, b.coords, atol=0.0)


def test_scan_rejects_bad_windows():
    model = ClarkModel(2)
    with pytest.raises(InvalidParams):
        accumulation_scan(model, (-1.0, 0.5), 10, 0, SolveConfig(), 1)
    with pytest.raises(InvalidParams):
        accumulation_scan(model, (-1e-9, -1.0), 10, 0, SolveConfig(), 1)
    with pytest.raises(InvalidParams):
        accumulation_scan(model, (-1.0, -1e-9), 0, 0, SolveConfig(), 1)


def test_scan_csv_written_with_header(tmp_path):
    assert cli.main(["scan", "--n", "2", "--seeds", "25", "--window-lo=-1.0",
                     "--window-hi=-1e-12", "--seed", "3", "--out", str(tmp_path)]) == 0
    counts = json.loads((tmp_path / "results.json").read_text())["results"]["counts"]
    lines = (tmp_path / "scan.csv").read_text().splitlines()
    assert lines[0] == "value,residual,t,dist_to_K0,label,pattern,x1,x2"
    assert len(lines) == 1 + sum(counts.values()) > 1
    # repr round-trip keeps float values exact
    report = accumulation_scan(ClarkModel(2), (-1.0, -1e-12), 25, 3, SolveConfig(), 1)
    first = lines[1].split(",")
    assert float(first[0]) == report.values[0]
