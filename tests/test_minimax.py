import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clarklab import minimax
from clarklab.errors import (
    DimensionError,
    InvalidParams,
    NoNegativeCertificate,
)
from clarklab.minimax import (
    Budget,
    cj_upper_bound,
    coordinate_model_bound,
    sphere_sup_witness,
)
from clarklab.models import clark_model, wrapper_functional
from clarklab.spaces import H01Grid


def exact_block_sup(k, rho):
    # at t = 0 both branch weights equal 2; the sphere sup concentrates on
    # the weakest in-block axis: 1/2 rho^2 - (4/3) 3^(-k) rho^(3/2)
    return 0.5 * rho ** 2 - (4.0 / 3.0) * 3.0 ** -k * rho ** 1.5


def exact_bound(j):
    # minimizing the sup over rho: rho* = 4 * 3^(-2j), value -(8/3) 3^(-4j)
    return 4.0 * 3.0 ** (-2 * j), -(8.0 / 3.0) * 3.0 ** (-4 * j)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sphere_sup_matches_the_closed_form(data):
    n = data.draw(st.integers(1, 12), label="n")
    k = data.draw(st.integers(1, n), label="k")
    rho = data.draw(st.floats(1e-7, 3.0, allow_nan=False, allow_infinity=False),
                    label="rho")
    budget = Budget(rng_seed=data.draw(st.integers(0, 3), label="seed"))
    got, w = sphere_sup_witness(clark_model(n=n), k, rho, budget)
    assert got == pytest.approx(exact_block_sup(k, rho), rel=1e-10)
    # the sup sits on the weakest in-block axis, +-rho e_k
    assert np.flatnonzero(w).tolist() == [k]
    assert abs(abs(w[k]) - rho) <= 4 * np.spacing(rho)


def test_sphere_witness_sits_on_the_block_sphere():
    model = clark_model(n=5)
    val, w = sphere_sup_witness(model, 3, 0.2)
    assert val == pytest.approx(exact_block_sup(3, 0.2), rel=1e-10)
    assert w[0] == 0.0                      # t stays pinned
    assert np.linalg.norm(w[1:4]) == pytest.approx(0.2, rel=1e-12)
    assert np.array_equal(w[4:], np.zeros(2))
    assert float(model.value_of(w)) == pytest.approx(val, rel=1e-12)


def test_upper_bounds_match_the_closed_form_optimum():
    model = clark_model(n=8)
    for j in range(1, 7):
        est = cj_upper_bound(model, j)
        rho_star, bound = exact_bound(j)
        assert coordinate_model_bound(j) == pytest.approx((rho_star, bound), rel=1e-12)
        assert est.upper_bound == pytest.approx(bound, rel=1e-9)
        assert est.rho_star == pytest.approx(rho_star, rel=1e-4)
        assert est.j == j
        # the witness realizes the reported bound
        assert float(model.value_of(est.witness.coords)) == pytest.approx(
            est.upper_bound, rel=1e-12)
        # trace records the whole grid plus the refinement point
        assert len(est.sphere_sup_trace) >= 24


def test_bounds_decrease_toward_zero_with_the_level():
    model = clark_model(n=8)
    bounds = [cj_upper_bound(model, j).upper_bound for j in (1, 2, 3, 4)]
    assert all(b < 0 for b in bounds)
    assert bounds == sorted(bounds)
    assert abs(bounds[3] / bounds[0]) < 1e-4


def test_same_budget_is_deterministic():
    model = clark_model(n=4)
    budget = Budget(rng_seed=123)
    a = cj_upper_bound(model, 2, budget=budget)
    b = cj_upper_bound(model, 2, budget=budget)
    assert a.upper_bound == b.upper_bound
    assert a.rho_star == b.rho_star
    assert np.array_equal(a.witness.coords, b.witness.coords)
    assert Budget().describe() == "samples=64;seed=0"


def test_wrapper_shell_sup_feels_the_grid_concentration_effect():
    # just outside the unit ball the wrapper value is the inner energy of
    # (|u|^2 - 1)u.  Smooth directions make that negative, but a single-node
    # hat of the same norm carries almost no sublinear mass, so the sup over
    # the full coordinate sphere stays positive on any grid.  The estimator
    # must find that concentrated direction.
    grid = H01Grid(10)
    w = wrapper_functional(grid)
    assert sphere_sup_witness(w, grid.dim, 1.02)[0] > 0.0

    x = np.linspace(0.0, 1.0, grid.dim + 2)[1:-1]
    smooth = np.sin(np.pi * x)
    smooth *= 1.02 / grid.norm(smooth)
    assert float(w.value_of(smooth)) < 0.0


def test_nonnegative_region_yields_no_certificate():
    # inside the unit ball the wrapper is 1 - cos(2 pi |u|^2) >= 0
    w = wrapper_functional(H01Grid(6))
    with pytest.raises(NoNegativeCertificate):
        cj_upper_bound(w, 1)


def test_block_and_radius_validation():
    model = clark_model(n=3)
    with pytest.raises(DimensionError):
        sphere_sup_witness(model, 4, 0.1)
    with pytest.raises(InvalidParams):
        sphere_sup_witness(model, 0, 0.1)
    with pytest.raises(InvalidParams):
        sphere_sup_witness(model, 1, 0.0)
    for bad in (np.nan, np.inf, -np.inf, np.array([]), np.array([0.1, np.nan]),
                np.array([0.1, -0.2]), np.array([[0.1]])):
        with pytest.raises(InvalidParams):
            sphere_sup_witness(model, 1, bad)


# grid radii, radii between them and radii outside the grid's span
_RADII = st.one_of(st.sampled_from(list(minimax._RHO_GRID)),
                   st.floats(1e-7, 3.0, allow_nan=False, allow_infinity=False))


@settings(max_examples=25, deadline=None)
@given(data=st.data(), model_case=st.booleans())
def test_a_radius_batch_equals_its_single_radius_calls_bit_for_bit(data, model_case):
    if model_case:
        n = data.draw(st.integers(1, 6), label="n")
        f = clark_model(n=n)
        k = data.draw(st.integers(1, n), label="k")
    else:
        f = wrapper_functional(H01Grid(10))
        k = data.draw(st.integers(1, 10), label="k")
    # random order, duplicates allowed
    radii = np.array(data.draw(st.lists(_RADII, min_size=1, max_size=5), label="radii"))
    budget = Budget(rng_seed=data.draw(st.integers(0, 3), label="seed"))
    vals, witnesses = sphere_sup_witness(f, k, radii, budget)
    assert vals.shape == (len(radii),)
    assert witnesses.shape == (len(radii), f.space.dim)
    for r, v, w in zip(radii, vals, witnesses):
        v1, w1 = sphere_sup_witness(f, k, float(r), budget)
        assert isinstance(v1, float)
        assert np.float64(v1).tobytes() == v.tobytes()
        assert w1.tobytes() == w.tobytes()


def test_the_bound_makes_one_grid_call_then_one_call_per_minimizer_step(monkeypatch):
    calls = []
    model_calls = {"value_of": 0, "value_and_grad": 0, "grad_of": 0}
    real_sup, real_min = minimax.sphere_sup_witness, minimax.minimize_scalar
    model = clark_model(n=4)

    def counting_sup(f, k, rho, budget=None):
        calls.append(np.asarray(rho).copy())
        before = model_calls["value_of"]
        out = real_sup(f, k, rho, budget)
        # the sup is the stencil and the samples in one value call
        assert model_calls["value_of"] == before + 1
        return out

    def counting_min(*args, **kwargs):
        res = real_min(*args, **kwargs)
        calls.append(("minimizer done", res.nfev))
        return res

    def counted(name):
        real = getattr(model, name)

        def wrapper(coords):
            model_calls[name] += 1
            return real(coords)
        return wrapper

    for name in model_calls:
        monkeypatch.setattr(model, name, counted(name))
    monkeypatch.setattr(minimax, "sphere_sup_witness", counting_sup)
    monkeypatch.setattr(minimax, "minimize_scalar", counting_min)
    est = cj_upper_bound(model, 2)
    grid, *steps, done = calls
    assert np.array_equal(grid, minimax._RHO_GRID)
    assert done[0] == "minimizer done"
    assert len(steps) == done[1] > 0
    assert all(step.ndim == 0 for step in steps)
    # no gradient anywhere: the bound is values only
    assert model_calls["value_and_grad"] == model_calls["grad_of"] == 0
    # the refined radius is one the minimizer evaluated, not a new call
    assert est.sphere_sup_trace[-1][0] in [float(s) for s in steps]
    assert len(est.sphere_sup_trace) == 25
