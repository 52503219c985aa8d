import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from clarklab import models, topology
from clarklab.deformation import TwoClusterFunctional

from clarklab.errors import InvalidParams
from clarklab.models import (
    ClarkModel,
    CriticalSetOracle,
    SublinearEnergy,
    WrapperFunctional,
    clark_model,
    classify_model_point,
    enumerate_critical_set,
    mu_parts,
    phi_parts,
    sublinear_energy,
    wrapper_functional,
)
from clarklab.solvers import RESIDUAL_TOL, verify_no_interior_negatives
from clarklab.spaces import H01Grid, Point


# ---------------------------------------------------------------------------
# ramp profile and clamp penalty

def test_ramp_is_odd_normalized_and_clamped():
    t = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    mu, dmu = mu_parts(t)
    assert np.allclose(mu, -mu[::-1])
    assert mu[0] == -1.0 and mu[-1] == 1.0
    assert mu[3] == 0.0
    # closed form at t = 1/2
    expect = (2.0 / np.pi) * (0.5 * np.sqrt(0.75) + np.arcsin(0.5))
    assert mu[4] == pytest.approx(expect, rel=1e-15)
    # derivative: (4/pi) sqrt(1 - t^2) inside, zero on the clamps
    assert dmu[3] == pytest.approx(4.0 / np.pi)
    assert dmu[4] == pytest.approx((4.0 / np.pi) * np.sqrt(0.75))
    assert dmu[0] == 0.0 and dmu[1] == 0.0 and dmu[-1] == 0.0


def test_ramp_derivative_matches_finite_differences():
    t = np.linspace(-0.95, 0.95, 21)
    h = 1e-6
    fd = (mu_parts(t + h)[0] - mu_parts(t - h)[0]) / (2.0 * h)
    assert np.max(np.abs(fd - mu_parts(t)[1])) < 1e-9


def test_penalty_vanishes_inside_and_grows_quadratically():
    phi, dphi = phi_parts(np.array([-1.5, -1.0, 0.3, 1.0, 1.5]))
    assert np.array_equal(phi[1:4], np.zeros(3))
    assert phi[0] == pytest.approx(0.25) and phi[4] == pytest.approx(0.25)
    assert dphi[0] == pytest.approx(-1.0) and dphi[4] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# coordinate model values at the known branch points

def test_single_axis_branch_values_in_closed_form():
    # only coordinate j active on the positive branch at t = 1:
    # x_j = 9 * 3^(-2j) and the value is -(27/2) * 3^(-4j)
    model = clark_model(n=4)
    for j in range(1, 5):
        coords = np.zeros(5)
        coords[0] = 1.0
        coords[j] = 9.0 * 3.0 ** (-2 * j)
        value = float(model.value_of(coords))
        assert abs(value - (-13.5 * 3.0 ** (-4 * j))) < 1e-15
        assert model.space.norm(model.grad_of(coords)) < 1e-15


def test_branch_magnitudes_at_the_faces():
    model = clark_model(n=3)
    pos, neg = model.branch_magnitudes(1.0)
    assert np.allclose(pos, 9.0 * 3.0 ** (-2 * np.arange(1, 4)), rtol=1e-15)
    assert np.allclose(neg, 1.0 * 3.0 ** (-2 * np.arange(1, 4)), rtol=1e-15)
    pos0, neg0 = model.branch_magnitudes(0.0)
    assert np.allclose(pos0, neg0)


def test_value_is_even_and_zero_on_the_segment():
    model = clark_model(n=3)
    rng = np.random.default_rng(0)
    u = rng.uniform(-1.2, 1.2, size=(40, 4))
    assert np.allclose(model.value_of(u), model.value_of(-u), atol=1e-15)
    assert np.allclose(model.grad_of(u), -model.grad_of(-u), atol=1e-15)
    seg = np.zeros((9, 4))
    seg[:, 0] = np.linspace(-1.0, 1.0, 9)
    assert np.array_equal(model.value_of(seg), np.zeros(9))
    assert np.array_equal(model.grad_of(seg), np.zeros((9, 4)))


def test_clark_model_factory_rejects_a_bad_dimension():
    with pytest.raises(InvalidParams):
        ClarkModel(0)
    with pytest.raises(InvalidParams):
        clark_model(n=0)
    assert isinstance(clark_model(n=2), ClarkModel)


# ---------------------------------------------------------------------------
# enumeration, oracle, classification

def test_enumeration_counts_mirror_symmetry_and_residuals():
    model = clark_model(n=2)
    es = enumerate_critical_set(model, z_samples=11)
    labels = es.labels.tolist()
    assert labels.count("N") == 9
    assert labels.count("-N") == 9
    assert labels.count("Z") == 11
    assert np.max(es.residuals) <= 1e-12
    # the set is symmetric: negating an N point gives a -N point
    n_coords = es.coords[es.labels == "N"]
    neg_coords = es.coords[es.labels == "-N"]
    for c in n_coords:
        assert np.min(np.linalg.norm(neg_coords + c, axis=1)) < 1e-15
    # canonical order: values ascending
    assert np.all(np.diff(es.values) >= 0.0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_batched_enumeration_matches_per_point_evaluation(monkeypatch, n):
    model = clark_model(n=n)
    calls = {"value_of": 0, "grad_of": 0}
    for name in calls:
        def counted(coords, _name=name, _real=getattr(model, name)):
            calls[_name] += 1
            return _real(coords)
        monkeypatch.setattr(model, name, counted)
    es = enumerate_critical_set(model, z_samples=11)
    assert calls == {"value_of": 1, "grad_of": 1}
    monkeypatch.undo()

    m = 2 * 3 ** n + 11
    assert es.coords.shape == (m, n + 1)
    assert len(es.values) == len(es.residuals) == len(es.labels) == len(es.patterns) == m
    for c, value, residual in zip(es.coords, es.values, es.residuals):
        assert value == float(model.value_of(c))
        assert residual == model.space.norm(model.grad_of(c))
    # no negative zeros: the t = -1 rows are built from negated signs
    assert not np.any(np.signbit(es.coords) & (es.coords == 0.0))
    keys = [(v, tuple(c)) for v, c in zip(es.values.tolist(), es.coords.tolist())]
    assert keys == sorted(keys)
    # the all-zero patterns at t = +-1 duplicate the segment endpoints and
    # come before them
    dups = np.flatnonzero((es.labels == "Z") & (np.abs(es.coords[:, 0]) == 1.0))
    assert len(dups) == 2
    for i in dups:
        assert np.array_equal(es.coords[i - 1], es.coords[i])
        assert es.labels[i - 1] == ("N" if es.coords[i - 1, 0] > 0 else "-N")
        assert es.patterns[i - 1] == "0" * n
    # only the segment rows go without a pattern
    assert [p is None for p in es.patterns] == (es.labels == "Z").tolist()


def test_enumerated_branch_values_are_additive_across_mixed_signs():
    # at t = 1 a positive coordinate j adds -13.5 * 3^(-4j) to the value and
    # a negative one -(1/6) * 3^(-4j), whatever the other coordinates hold
    model = clark_model(n=3)
    es = enumerate_critical_set(model, z_samples=11)
    at_one = {p: i for i, p in enumerate(es.patterns) if es.labels[i] == "N"}
    for pattern, expect, tol in (
            ("+00", -1.0 / 6.0, 1e-12),
            ("0-0", -(1.0 / 6.0) * 3.0 ** -8, 1e-15),
            ("-0+", -(1.0 / 6.0) * 3.0 ** -4 - 13.5 * 3.0 ** -12, 1e-14),
            ("+++", -13.5 * (3.0 ** -4 + 3.0 ** -8 + 3.0 ** -12), 1e-13)):
        i = at_one[pattern]
        assert es.values[i] == pytest.approx(expect, abs=tol)
        assert es.coords[i, 0] == 1.0
        assert es.residuals[i] <= 1e-12
        assert classify_model_point(model, es.coords[i:i + 1], RESIDUAL_TOL) == (
            ["N"], [pattern])


@pytest.mark.parametrize("n", [1, 2, 4])
def test_every_enumerated_branch_point_classifies_to_its_own_label_and_pattern(n):
    model = clark_model(n=n)
    es = enumerate_critical_set(model, z_samples=5)
    labels, patterns = classify_model_point(model, es.coords, RESIDUAL_TOL)
    # the all-zero pattern at t = +-1 is the segment's endpoint, so it (and
    # every segment row) is classified Z with no pattern
    on_axis = [p is None or p == "0" * n for p in es.patterns]
    expect = [("Z", None) if axis else (lbl, p)
              for axis, lbl, p in zip(on_axis, es.labels.tolist(), es.patterns)]
    assert list(zip(labels, patterns)) == expect
    assert sum(on_axis) == 2 + 5
    # each face carries every sign pattern exactly once
    every = sorted("".join(s) for s in itertools.product("+0-", repeat=n))
    for face in ("N", "-N"):
        assert sorted(p for p, lbl in zip(es.patterns, es.labels) if lbl == face) == every


def test_enumeration_is_bounded_in_the_truncation_size():
    big = clark_model(n=models.ENUMERATION_N_MAX + 1)
    with pytest.raises(InvalidParams, match="enumerated up to"):
        enumerate_critical_set(big, z_samples=3)
    # the oracle builds no table, so it answers exactly above the bound: a
    # branch point of each face is at 0, and a point 1e-3 off one along x_1
    # (a zero coordinate of its pattern) at exactly 1e-3
    for n in (models.ENUMERATION_N_MAX + 1, 40):
        model = clark_model(n=n)
        oracle = CriticalSetOracle(model)
        pos, neg = model.branch_magnitudes(1.0)
        pick = np.arange(n) % 3
        at_one = np.r_[1.0, np.select([pick == 1, pick == 2], [pos, -neg], 0.0)]
        members = np.stack([at_one, -at_one + 0.0])
        assert oracle.distance(members).tolist() == [0.0, 0.0]
        off = members.copy()
        off[:, 1] = [1e-3, -1e-3]
        assert oracle.distance(off).tolist() == [1e-3, 1e-3]


def test_oracle_distance_is_zero_on_members_and_exact_off_the_segment():
    model = clark_model(n=3)
    oracle = CriticalSetOracle(model)
    es = enumerate_critical_set(model, z_samples=41)
    coords = es.coords
    dists = np.array([oracle.distance(c) for c in coords])
    assert np.max(dists) < 1e-15
    # distance to the segment is computed exactly, not against samples
    assert oracle.distance(np.array([0.123, 0.2, 0.0, 0.0])) == pytest.approx(0.2)
    assert oracle.distance(np.array([1.5, 0.0, 0.0, 0.0])) == pytest.approx(0.5)


@pytest.mark.parametrize("block", [1, 1000, 1 << 15])
def test_oracle_distance_batch_equals_its_single_rows(monkeypatch, block):
    # the table reference cuts its 54 branch-point distances into row blocks
    # (here one row, 18 rows with a ragged last block, or one block); the
    # oracle's batch must give the single-row bytes and the table's at every cut
    monkeypatch.setattr(topology, "_DIST_BLOCK", block)
    model = clark_model(n=3)
    oracle = CriticalSetOracle(model)
    rows = np.random.default_rng(5).normal(scale=0.7, size=(37, 4))
    batch = oracle.distance(rows)
    assert batch.shape == (37,)
    single = np.array([oracle.distance(r) for r in rows])
    assert batch.tobytes() == single.tobytes()
    assert batch.tobytes() == _table_oracle_reference(model, rows).tobytes()
    # the return type follows the input's shape: a one-row batch is a batch
    one = oracle.distance(rows[:1])
    assert isinstance(one, np.ndarray) and one.shape == (1,)
    assert one.tobytes() == single[:1].tobytes()
    assert all(isinstance(oracle.distance(r), float) for r in rows[:3])


def _table_oracle_reference(model, coords):
    """The oracle as written before it read the product structure: the exact
    segment distance against a blocked cdist over all 2 * 3^n branch rows."""
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    t, x = coords[:, 0], coords[:, 1:]
    seg = np.sqrt(np.maximum(np.abs(t) - 1.0, 0.0) ** 2 + np.sum(x * x, axis=1))
    return np.minimum(seg, topology.nearest_distances(
        coords, models._branch_rows(model)[1]))


@st.composite
def _oracle_rows(draw, n):
    """One query row: a box row, or a branch point of either face, exact,
    with a few coordinates nudged by 1e-9 to 1e-3, or pushed out to |t| > 1;
    any of them with its zeros turned to -0.0."""
    kind = draw(st.sampled_from(["box", "exact", "nudged", "outside"]))
    if kind == "box":
        row = np.array(draw(st.lists(st.floats(-1.6, 1.6), min_size=n + 1, max_size=n + 1)))
    else:
        pos, neg = clark_model(n=n).branch_magnitudes(1.0)
        pick = np.array(draw(st.lists(st.sampled_from([1, 0, -1]), min_size=n, max_size=n)))
        side = draw(st.sampled_from([1.0, -1.0]))
        row = side * np.r_[1.0, np.where(pick > 0, pos, 0.0) - np.where(pick < 0, neg, 0.0)] + 0.0
        if kind == "nudged":
            for j in draw(st.lists(st.integers(0, n), min_size=1, max_size=3)):
                row[j] += draw(st.sampled_from([1.0, -1.0])) * draw(st.floats(1e-9, 1e-3))
        elif kind == "outside":
            row[0] = side * draw(st.floats(1.0, 3.0, exclude_min=True))
    if draw(st.booleans()):
        row[row == 0.0] = -0.0
    return row


@st.composite
def _oracle_cases(draw):
    n = draw(st.integers(1, 7))
    return n, np.array(draw(st.lists(_oracle_rows(n), min_size=1, max_size=8)))


@settings(max_examples=60, deadline=None)
@given(case=_oracle_cases())
def test_oracle_equals_the_table_reference_byte_for_byte(case):
    n, rows = case
    model = clark_model(n=n)
    oracle = CriticalSetOracle(model)
    expected = _table_oracle_reference(model, rows)
    assert oracle.distance(rows).tobytes() == expected.tobytes()
    assert oracle.distance(rows[0]) == float(expected[0])


# t anywhere, or on the segment's ends, its middle, or halfway between two
# samples of a 401-point segment cloud (spacing 1/200); x-coordinates zero or not
_SEGMENT_T = st.one_of(st.floats(-3.0, 3.0),
                       st.sampled_from([-1.0, 1.0, 0.0, 1 / 400, -1 + 1 / 400, 1 - 1 / 400]))
_SEGMENT_X = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))


@st.composite
def _segment_rows(draw):
    n = draw(st.integers(1, 7))
    m = draw(st.integers(1, 6))
    return np.array([[draw(_SEGMENT_T), *(draw(_SEGMENT_X) for _ in range(n))]
                     for _ in range(m)])


@settings(max_examples=200, deadline=None)
@given(rows=_segment_rows())
def test_segment_distance_is_exact_and_bounds_the_sampled_one(rows):
    d = models.segment_distance(rows)
    inside = rows.copy()
    inside[:, 0] = np.clip(rows[:, 0], -1.0, 1.0)
    on = np.zeros_like(rows)
    on[:, 0] = inside[:, 0]
    assert models.segment_distance(on).tolist() == [0.0] * len(rows)
    assert np.allclose(models.segment_distance(inside), np.linalg.norm(rows[:, 1:], axis=1),
                       rtol=1e-14, atol=0.0)
    # against a 401-point sample of the segment the exact distance is never
    # above the sampled one and at most half the spacing, 1/400, below it;
    # the allowances are for rounding, as the two sum their squares apart
    cloud = np.zeros((401, rows.shape[1]))
    cloud[:, 0] = np.linspace(-1.0, 1.0, 401)
    sampled = topology.nearest_distances(rows, cloud)
    assert np.all(d <= sampled * (1.0 + 1e-14))
    assert np.all(sampled - d <= 1 / 400 + 1e-12)


def test_classification_recognizes_all_families():
    model = clark_model(n=3)

    def classify(rows):
        return classify_model_point(model, rows, RESIDUAL_TOL)

    branch = np.array([1.0, 1.0, 0.0, -3.0 ** -6])
    assert classify(branch[None]) == (["N"], ["+0-"])
    assert classify(-branch[None]) == (["-N"], ["-0+"])
    assert classify(np.array([[0.37, 0.0, 0.0, 0.0]])) == (["Z"], [None])
    labels, _ = classify(np.array([[0.5, 0.3, 0.0, 0.0]]))
    assert labels == ["other"]
    # a batch gives a list of labels and a list of patterns, an empty one two
    # empty lists
    rows = np.stack([branch, -branch, np.array([0.37, 0.0, 0.0, 0.0])])
    assert classify(rows) == (["N", "-N", "Z"], ["+0-", "-0+", None])
    assert classify(np.empty((0, 4))) == ([], [])


def _classify_one(coords, residual_tol):
    """The per-point classifier the batched one replaced, kept as its
    reference."""
    def pattern(signs):
        return "".join({1: "+", 0: "0", -1: "-"}[s] for s in signs)
    t, x = coords[0], coords[1:]
    if np.linalg.norm(x) < 10.0 * residual_tol and abs(t) <= 1.0 + models._FACE_T_TOL:
        return "Z", None
    signs = np.where(x > 10.0 * residual_tol, 1, np.where(x < -10.0 * residual_tol, -1, 0))
    if abs(t - 1.0) <= models._FACE_T_TOL:
        return "N", pattern(signs)
    if abs(t + 1.0) <= models._FACE_T_TOL:
        return "-N", pattern(signs)
    return "other", pattern(signs)


_FACE_EDGE = 1.0 + models._FACE_T_TOL
# t on the faces, just inside and outside their tolerance, on the zero
# segment and anywhere; x tiny (around the 10 * residual_tol cut) or not
_CLASSIFY_T = st.one_of(
    st.sampled_from([1.0, -1.0, _FACE_EDGE, -_FACE_EDGE, 1.0 - models._FACE_T_TOL,
                     -1.0 + models._FACE_T_TOL, np.nextafter(_FACE_EDGE, 2.0),
                     -np.nextafter(_FACE_EDGE, 2.0), 0.0]),
    st.floats(-1.0, 1.0), st.floats(-3.0, 3.0))
_CLASSIFY_X = st.one_of(st.sampled_from([0.0, 10.0 * 1e-8, -10.0 * 1e-8, 10.0 * 1e-6]),
                        st.floats(-2e-7, 2e-7), st.floats(-2.0, 2.0))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 4), tol=st.sampled_from([1e-8, 1e-6]), data=st.data())
def test_batched_classification_equals_the_per_point_one(n, tol, data):
    m = data.draw(st.integers(0, 6))
    rows = np.array([[data.draw(_CLASSIFY_T)] + data.draw(st.lists(_CLASSIFY_X, min_size=n,
                                                                   max_size=n))
                     for _ in range(m)]).reshape(m, n + 1)
    model = clark_model(n=n)
    labels, patterns = classify_model_point(model, rows, tol)
    expect = [_classify_one(r, tol) for r in rows]
    assert list(zip(labels, patterns)) == expect
    # a row's label does not depend on the other rows of its batch
    assert ([classify_model_point(model, r[None], tol) for r in rows]
            == [([label], [pattern]) for label, pattern in expect])


def test_interior_exclusion_margins_and_flow_crosscheck():
    model = clark_model(n=2)
    report = verify_no_interior_negatives(model)
    # tail/cap ratio is 81/160 for every leading index, margin 79/160
    assert report.min_margin == pytest.approx(79.0 / 160.0, abs=1e-12)
    assert all(r[4] == pytest.approx(79.0 / 160.0, abs=1e-12) for r in report.bound_rows)
    assert [r[0] for r in report.bound_rows] == list(range(1, 7))
    assert report.violations == []
    assert report.converged > 0.9 * report.seeds_run
    assert report.passed


# ---------------------------------------------------------------------------
# H01 functionals

def test_sublinear_gradient_zeros_match_difference_scheme():
    # grad J(u) = u - K^{-1}(h sign(u)|u|^p): vanishing gradient means
    # K u = h sign(u)|u|^p, the central-difference discretization
    grid = H01Grid(30)
    f = sublinear_energy(grid, p=0.5)
    rng = np.random.default_rng(7)
    u = 0.1 + 0.05 * rng.random(30)
    g = f.grad_of(u)
    lhs = grid.to_dual(u - g)
    rhs = grid.mesh_width * np.sign(u) * np.abs(u) ** 0.5
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_sublinear_value_closed_form_on_a_sine():
    from scipy.special import gamma
    grid = H01Grid(400)
    f = sublinear_energy(grid, p=0.5)
    x = np.linspace(0.0, 1.0, 402)[1:-1]
    u = np.sin(np.pi * x)
    # 1/2 int u'^2 = pi^2/4 and int_0^1 sin^{3/2}(pi x) dx in gamma terms
    pot = np.sqrt(np.pi) * gamma(1.25) / (np.pi * gamma(1.75))
    expect = np.pi ** 2 / 4.0 - (2.0 / 3.0) * pot
    assert float(f.value_of(u)) == pytest.approx(expect, abs=1e-4)


def test_sublinear_rejects_bad_exponent():
    with pytest.raises(InvalidParams):
        sublinear_energy(H01Grid(10), p=1.0)
    with pytest.raises(InvalidParams):
        sublinear_energy(H01Grid(10), p=0.0)


def test_wrapper_values_inside_on_and_outside_the_seam():
    grid = H01Grid(10)
    w = wrapper_functional(grid)
    rng = np.random.default_rng(2)
    base = rng.normal(size=10)
    base /= grid.norm(base)

    # inside: 1 - cos(2 pi |u|^2); the half-norm sphere carries value 2
    u_half = base * np.sqrt(0.5)
    assert float(w.value_of(u_half)) == pytest.approx(2.0, abs=1e-12)
    assert grid.norm(w.grad_of(u_half)) < 1e-12
    # the unit sphere is critical at value 0 and the seam is continuous
    assert float(w.value_of(base)) == pytest.approx(0.0, abs=1e-12)
    assert grid.norm(w.grad_of(base)) < 1e-12
    out = base * 1.1
    s = float(grid.norm(out) ** 2)
    inner = w.inner_energy
    assert float(w.value_of(out)) == pytest.approx(
        float(inner.value_of((s - 1.0) * out)), rel=1e-12)
    # just outside the unit sphere a smooth direction carries enough
    # sublinear mass to make the value negative
    x = np.linspace(0.0, 1.0, grid.dim + 2)[1:-1]
    smooth = np.sin(np.pi * x)
    smooth *= 1.02 / grid.norm(smooth)
    assert float(w.value_of(smooth)) < 0.0


def test_wrapper_gradient_closed_form_inside():
    grid = H01Grid(10)
    w = wrapper_functional(grid)
    rng = np.random.default_rng(3)
    u = rng.normal(size=10)
    u *= 0.5 / grid.norm(u)  # |u|^2 = 0.25
    g = w.grad_of(u)
    s = float(grid.norm(u) ** 2)
    assert np.allclose(g, 4.0 * np.pi * np.sin(2.0 * np.pi * s) * u, atol=1e-12)


def test_wrapper_gradient_passes_fd_across_the_seam_region():
    grid = H01Grid(8)
    w = wrapper_functional(grid)
    rng = np.random.default_rng(4)
    from clarklab.functionals import fd_gradient_check
    for target in (0.25, 0.81, 1.44):
        u = rng.normal(size=8)
        u *= np.sqrt(target) / grid.norm(u)
        report = fd_gradient_check(w, Point(u, grid))
        assert report.max_rel_error < 1e-5


# ---------------------------------------------------------------------------
# property tests: evenness of every functional

EVEN_FUNCTIONALS = {
    "clark_n1": clark_model(n=1),
    "clark_n3": clark_model(n=3),
    "sublinear": sublinear_energy(H01Grid(7)),
    "wrapper": wrapper_functional(H01Grid(7)),
    "two_cluster": TwoClusterFunctional(),
}


def test_property_suite_covers_every_even_functional():
    covered = {type(f) for f in EVEN_FUNCTIONALS.values()}
    assert covered == {ClarkModel, SublinearEnergy, WrapperFunctional, TwoClusterFunctional}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(EVEN_FUNCTIONALS)), data=st.data())
def test_even_functionals_have_even_values_and_odd_gradients(name, data):
    f = EVEN_FUNCTIONALS[name]
    # batches reach both sides of the wrapper's seam ||u|| = 1 and the
    # model's clamps |t| = 1; H01 norms are ~nodes times the entries
    scale = 0.5 if isinstance(f.space, H01Grid) else 2.0
    u = data.draw(hnp.arrays(np.float64, (3, f.space.dim),
                             elements=st.floats(-scale, scale, allow_nan=False)))
    assert np.array_equal(f.value_of(-u), f.value_of(u))
    assert np.array_equal(f.grad_of(-u), -f.grad_of(u))


# rows whose single-row value differed from their batch row by one ulp while
# the squares went through scalar pow: (s - 1) ** 2 and ||u|| ** 2
ULP_ROWS = {
    "sublinear": [[-0.186, 0.433, 0.184, -0.341, 0.176, 0.054, -0.226]],
    "wrapper": [[0.427, 0.485, -0.131, 0.316, 0.011, 0.094, 0.365]],
    "two_cluster": [[-1.43, -0.346]],
}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(EVEN_FUNCTIONALS)), data=st.data())
def test_a_single_row_evaluates_bit_for_bit_as_its_batch_row(name, data):
    f = EVEN_FUNCTIONALS[name]
    scale = 0.5 if isinstance(f.space, H01Grid) else 2.0
    drawn = data.draw(hnp.arrays(np.float64, (8, f.space.dim),
                                 elements=st.floats(-scale, scale, allow_nan=False)))
    u = np.concatenate([np.reshape(ULP_ROWS.get(name, []), (-1, f.space.dim)), drawn])
    values, grads = f.value_of(u), f.grad_of(u)
    for row, value, grad in zip(u, values, grads):
        assert np.asarray(f.value_of(row)).tobytes() == value.tobytes()
        assert f.grad_of(row).tobytes() == grad.tobytes()


# squared space norms of the rows drawn inside and outside the unit sphere,
# which is the wrapper's seam; the model's clamps |t| = 1 fall in both
SEAM_SIDES = {"inside": (0.0, 0.95), "outside": (1.05, 3.0)}


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(EVEN_FUNCTIONALS)),
       sides=st.sampled_from(["mixed", "inside", "outside"]), data=st.data())
def test_value_and_grad_equals_value_of_and_grad_of_bit_for_bit(name, sides, data):
    f = EVEN_FUNCTIONALS[name]
    dim = f.space.dim
    m = data.draw(st.integers(2, 6))
    dirs = data.draw(hnp.arrays(np.float64, (m, dim),
                                elements=st.floats(-1.0, 1.0, allow_nan=False)))
    dirs[f.space.norm(dirs) < 1e-3] = 1.0
    # a mixed batch has row 0 inside and row 1 outside, the rest either way
    side = ([sides] * m if sides != "mixed" else
            ["inside", "outside"] + data.draw(st.lists(st.sampled_from(sorted(SEAM_SIDES)),
                                                       min_size=m - 2, max_size=m - 2)))
    s = np.array([data.draw(st.floats(*SEAM_SIDES[k])) for k in side])
    u = dirs * (np.sqrt(s) / f.space.norm(dirs))[:, None]
    assert list(np.square(f.space.norm(u)) > 1.0) == [k == "outside" for k in side]

    value, grad = f.value_and_grad(u)
    assert value.shape == (m,) and grad.shape == (m, dim)
    assert value.tobytes() == np.asarray(f.value_of(u)).tobytes()
    assert grad.tobytes() == f.grad_of(u).tobytes()
    for row in u:
        value, grad = f.value_and_grad(row)
        assert np.ndim(value) == 0 and grad.shape == (dim,)
        assert np.asarray(value).tobytes() == np.asarray(f.value_of(row)).tobytes()
        assert grad.tobytes() == f.grad_of(row).tobytes()
    value, grad = f.value_and_grad(np.zeros((0, dim)))
    assert value.shape == (0,) and grad.shape == (0, dim)
