import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clarklab import minimax
from clarklab.errors import DimensionError, InvalidParams
from clarklab.minimax import cj_upper_bound, coordinate_model_bound, sphere_sup_witness
from clarklab.models import LEVEL_J_MAX, clark_model


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
    (got,), (w,) = sphere_sup_witness(clark_model(n=n), k, np.array([rho]))
    assert got == pytest.approx(exact_block_sup(k, rho), rel=1e-10)
    # the sup sits on the weakest in-block axis, +-rho e_k
    assert np.flatnonzero(w).tolist() == [k]
    assert abs(w[k]) == rho


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_random_block_directions_never_beat_the_stencil_sup(data):
    # the stencil's sup is exact, so no direction of the block sphere may
    # exceed it beyond rounding
    n = data.draw(st.integers(1, 12), label="n")
    k = data.draw(st.integers(1, n), label="k")
    rho = data.draw(st.floats(1e-7, 3.0, allow_nan=False, allow_infinity=False),
                    label="rho")
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
    model = clark_model(n=n)
    dirs = np.random.default_rng(seed).standard_normal((64, k))
    coords = np.zeros((64, n + 1))
    coords[:, 1:k + 1] = rho * dirs / np.linalg.norm(dirs, axis=1)[:, None]
    sup = sphere_sup_witness(model, k, np.array([rho]))[0][0]
    assert np.max(model.value_of(coords)) <= sup + 1e-12 * abs(sup)


def test_sphere_witness_sits_on_the_block_sphere():
    model = clark_model(n=5)
    (val,), (w,) = sphere_sup_witness(model, 3, np.array([0.2]))
    assert val == pytest.approx(exact_block_sup(3, 0.2), rel=1e-10)
    assert w[0] == 0.0                      # t stays pinned
    assert np.linalg.norm(w[1:4]) == pytest.approx(0.2, rel=1e-12)
    assert np.array_equal(w[4:], np.zeros(2))
    assert float(model.value_of(w)) == pytest.approx(val, rel=1e-12)


def test_upper_bounds_match_the_closed_form_optimum():
    for j in (1, 2, 3, 6, 7, 10, 40, 100, LEVEL_J_MAX):
        model = clark_model(n=j)
        est = cj_upper_bound(model, j)
        rho_star, bound = exact_bound(j)
        assert coordinate_model_bound(j) == pytest.approx((rho_star, bound), rel=1e-12)
        assert est.j == j
        # the closed-form radius beats every grid radius
        assert est.rho_star == coordinate_model_bound(j)[0]
        assert abs(est.upper_bound - bound) <= 1e-14 * abs(bound)
        # the witness realizes the reported bound
        assert float(model.value_of(est.witness.coords)) == est.upper_bound
        # the trace records the whole grid, then rho* and its sup
        assert len(est.sphere_sup_trace) == len(minimax._RHO_GRID) + 1
        assert est.sphere_sup_trace[-1] == (est.rho_star, est.upper_bound)


def test_bounds_decrease_toward_zero_with_the_level():
    model = clark_model(n=8)
    bounds = [cj_upper_bound(model, j).upper_bound for j in (1, 2, 3, 4)]
    assert all(b < 0 for b in bounds)
    assert bounds == sorted(bounds)
    assert abs(bounds[3] / bounds[0]) < 1e-4


def test_same_budget_is_deterministic():
    model = clark_model(n=4)
    a = cj_upper_bound(model, 2)
    b = cj_upper_bound(model, 2)
    assert a.upper_bound == b.upper_bound
    assert a.rho_star == b.rho_star
    assert np.array_equal(a.witness.coords, b.witness.coords)


def test_block_and_radius_validation():
    model = clark_model(n=3)
    with pytest.raises(DimensionError):
        sphere_sup_witness(model, 4, np.array([0.1]))
    with pytest.raises(InvalidParams):
        sphere_sup_witness(model, 0, np.array([0.1]))
    with pytest.raises(InvalidParams):
        sphere_sup_witness(model, 1, np.array([0.0]))
    # a scalar radius is not a 1-d array of radii
    for bad in (0.1, np.array([np.nan]), np.array([np.inf]), np.array([-np.inf]), np.array([]),
                np.array([0.1, np.nan]), np.array([0.1, -0.2]), np.array([[0.1]])):
        with pytest.raises(InvalidParams):
            sphere_sup_witness(model, 1, bad)
    # past LEVEL_J_MAX the level values leave the normal floats
    with pytest.raises(InvalidParams):
        cj_upper_bound(clark_model(n=LEVEL_J_MAX + 1), LEVEL_J_MAX + 1)


# grid radii, radii between them and radii outside the grid's span
_RADII = st.one_of(st.sampled_from(list(minimax._RHO_GRID)),
                   st.floats(1e-7, 3.0, allow_nan=False, allow_infinity=False))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_a_radius_batch_equals_its_single_radius_calls_bit_for_bit(data):
    n = data.draw(st.integers(1, 6), label="n")
    f = clark_model(n=n)
    k = data.draw(st.integers(1, n), label="k")
    # random order, duplicates allowed
    radii = np.array(data.draw(st.lists(_RADII, min_size=1, max_size=5), label="radii"))
    vals, witnesses = sphere_sup_witness(f, k, radii)
    assert vals.shape == (len(radii),)
    assert witnesses.shape == (len(radii), f.space.dim)
    for r, v, w in zip(radii, vals, witnesses):
        (v1,), (w1,) = sphere_sup_witness(f, k, np.array([r]))
        assert v1.tobytes() == v.tobytes()
        assert w1.tobytes() == w.tobytes()


def test_each_level_is_one_value_call_and_no_gradient(monkeypatch):
    model_calls = {"value_of": 0, "value_and_grad": 0, "grad_of": 0}
    model = clark_model(n=4)

    def counted(name):
        real = getattr(model, name)

        def wrapper(coords):
            model_calls[name] += 1
            return real(coords)
        return wrapper

    for name in model_calls:
        monkeypatch.setattr(model, name, counted(name))
    for j in range(1, 5):
        cj_upper_bound(model, j)
        assert model_calls == {"value_of": j, "value_and_grad": 0, "grad_of": 0}
