import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import cho_solve_banded

from clarklab.errors import DimensionError, InvalidParams, InvalidPoint
from clarklab.spaces import H01Grid, L2Truncation, Point, check_coords


def test_l2_inner_norm_dual_are_euclidean():
    s = L2Truncation(3)
    u = np.array([1.0, 2.0, 2.0])
    v = np.array([0.0, 1.0, -1.0])
    assert s.inner(u, v) == 0.0
    assert s.norm(u) == 3.0
    assert np.array_equal(s.to_dual(v), v)


def test_l2_norm_and_inner_operate_rowwise_on_batches():
    s = L2Truncation(2)
    u = np.array([[3.0, 4.0], [1.0, 0.0]])
    v = np.array([[1.0, 0.0], [0.0, 2.0]])
    assert np.allclose(s.norm(u), [5.0, 1.0])
    assert np.allclose(s.inner(u, v), [3.0, 0.0])


def test_h01_mesh_width_and_trapezoid_use_zero_boundary():
    g = H01Grid(9)
    assert g.mesh_width == pytest.approx(0.1)
    # interior ones extend to a tent hitting zero at both ends: area 1 - h
    assert g.trapezoid(np.ones(9)) == pytest.approx(0.9)


def test_h01_norm_matches_smooth_function():
    g = H01Grid(99)
    x = np.linspace(0.0, 1.0, 101)[1:-1]
    u = x * (1.0 - x)
    # int (1 - 2x)^2 = 1/3; piecewise-linear interpolation error is O(h^2)
    assert abs(g.norm(u) ** 2 - 1.0 / 3.0) < g.mesh_width ** 2

    w = np.sin(np.pi * x)
    assert abs(g.norm(w) ** 2 - np.pi ** 2 / 2.0) < 1e-2


def test_h01_riesz_inverts_the_stiffness_action():
    g = H01Grid(40)
    rng = np.random.default_rng(3)
    f = rng.normal(size=40)
    v = g.riesz_of_load(f)
    # the load is assembled with weight h, so K v = h f
    assert np.allclose(g.to_dual(v), g.mesh_width * f, atol=1e-12)


def test_h01_riesz_representative_reproduces_load_pairing():
    # <riesz(f), w>_H01 = integral f w for every grid function w
    g = H01Grid(60)
    rng = np.random.default_rng(4)
    f = rng.normal(size=60)
    v = g.riesz_of_load(f)
    for _ in range(5):
        w = rng.normal(size=60)
        assert g.inner(v, w) == pytest.approx(g.trapezoid(f * w), abs=1e-12)


def _cho_solve_banded_riesz(g, f):
    """The Riesz solve through scipy's cho_solve_banded, one column per row."""
    rhs = g.mesh_width * np.asarray(f, dtype=float)
    flat = rhs.reshape(-1, g.nodes)
    out = cho_solve_banded((g._chol, False), flat.T, check_finite=False).T
    return np.ascontiguousarray(out).reshape(rhs.shape)


def test_h01_batched_riesz_equals_row_by_row_solves():
    # one multi-column banded solve must give each row exactly what a
    # solve of that row alone gives, and the direct LAPACK pbtrs call must
    # give the bits of the cho_solve_banded call that wraps it
    g = H01Grid(30)
    rng = np.random.default_rng(6)
    f = rng.normal(size=(4, 7, 30))
    batched = g.riesz_of_load(f)
    assert batched.shape == f.shape
    for i in range(4):
        for j in range(7):
            alone = cho_solve_banded((g._chol, False), g.mesh_width * f[i, j])
            assert np.array_equal(batched[i, j], alone)
    for load in (f, f[0], f[0, 0]):
        got = g.riesz_of_load(load)
        assert got.shape == load.shape and got.flags.c_contiguous
        assert got.tobytes() == _cho_solve_banded_riesz(g, load).tobytes()
    empty, ref = g.riesz_of_load(np.zeros((0, 30))), _cho_solve_banded_riesz(g, np.zeros((0, 30)))
    assert empty.shape == ref.shape == (0, 30) and empty.dtype == ref.dtype == np.float64
    # a NaN row spoils only its own row
    f = f[1].copy()
    f[2, 4] = np.nan
    got = g.riesz_of_load(f)
    assert got.tobytes() == _cho_solve_banded_riesz(g, f).tobytes()
    assert np.all(np.isnan(got[2]))
    keep = [0, 1, 3, 4, 5, 6]
    assert not np.any(np.isnan(got[keep]))
    assert got[keep].tobytes() == g.riesz_of_load(f[keep]).tobytes()


@st.composite
def _grid_vector_pairs(draw):
    """Two arrays of one shape (..., nodes): 1-d, 2-d or 3-d, nodes 1-12,
    entries including both signed zeros."""
    nodes = draw(st.integers(1, 12))
    lead = draw(hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4))
    arrays = hnp.arrays(np.float64, lead + (nodes,),
                        elements=st.floats(-1e3, 1e3, allow_nan=False))
    return draw(arrays), draw(arrays)


@settings(max_examples=200, deadline=None)
@given(pair=_grid_vector_pairs())
@example(pair=(np.array([0.0]), np.array([-0.0])))
@example(pair=(np.zeros((0, 3)), np.zeros((0, 3))))
def test_h01_norm_and_inner_equal_the_np_diff_formula_bit_for_bit(pair):
    # the formula the kernels had, written out: np.diff over the vector
    # extended by zero boundaries
    u, v = pair
    g = H01Grid(u.shape[-1])
    h = g.mesh_width
    du = np.diff(u, axis=-1, prepend=0.0, append=0.0)
    dv = np.diff(v, axis=-1, prepend=0.0, append=0.0)
    norm = np.asarray(g.norm(u))
    inner = np.asarray(g.inner(u, v))
    assert norm.shape == inner.shape == u.shape[:-1]
    assert norm.tobytes() == np.asarray(np.sqrt(np.sum(du * du, axis=-1) / h)).tobytes()
    assert inner.tobytes() == np.asarray(np.sum(du * dv, axis=-1) / h).tobytes()


def test_h01_grid_rejects_a_size_below_one_node():
    for nodes in (0, -3):
        with pytest.raises(InvalidParams):
            H01Grid(nodes)
    assert H01Grid(1).riesz_of_load(np.ones(1)).shape == (1,)


def test_h01_inner_is_the_stiffness_bilinear_form():
    g = H01Grid(25)
    rng = np.random.default_rng(5)
    u = rng.normal(size=25)
    v = rng.normal(size=25)
    assert g.inner(u, v) == pytest.approx(float(v @ g.to_dual(u)), rel=1e-12)


def test_point_norm_inner_distance():
    s = L2Truncation(3)
    p = Point(np.array([1.0, 0.0, 0.0]), s)
    q = Point(np.array([0.0, 1.0, 0.0]), s)
    assert s.norm(p.coords) == 1.0
    assert s.inner(p.coords, q.coords) == 0.0
    assert s.norm(Point(p.coords - q.coords, s).coords) == pytest.approx(np.sqrt(2.0))


def test_dimension_mismatch_raises():
    s = L2Truncation(3)
    with pytest.raises(DimensionError):
        check_coords(s, np.ones(4))
    with pytest.raises(DimensionError):
        Point(np.ones(2), s)


def test_nonfinite_coordinates_rejected():
    s = L2Truncation(3)
    with pytest.raises(InvalidPoint):
        check_coords(s, np.array([1.0, np.nan, 0.0]))
    with pytest.raises(InvalidPoint):
        Point(np.array([np.inf, 0.0, 0.0]), s)
