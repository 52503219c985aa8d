import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clarklab import topology
from clarklab.errors import InvalidParams, OriginMissing
from clarklab.models import clark_model, enumerate_critical_set
from clarklab.topology import (
    QUERY_BLOCK,
    Cloud,
    _labels_down,
    components,
    nearest_distances,
    origin_component_stabilization,
)


def gap_cloud():
    # {0} plus the segment [0.5, 1.0] sampled at 0.01 on the line
    seg = np.arange(0.5, 1.0 + 1e-12, 0.01)
    return Cloud(np.concatenate([[0.0], seg])[:, None])


# ---------------------------------------------------------------------------
# nearest distances

def test_nearest_distances_match_the_pairwise_minimum_in_every_block(monkeypatch):
    rng = np.random.default_rng(2)
    rows, points = rng.normal(size=(50, 3)), rng.normal(size=(7, 3))
    pairwise = np.linalg.norm(rows[:, None, :] - points[None, :, :], axis=2)
    whole = nearest_distances(rows, points)
    assert np.allclose(whole, pairwise.min(axis=1), rtol=1e-15, atol=0.0)
    # one row per block, or 4 rows with a ragged last block: the same bytes
    for block in (1, 30):
        monkeypatch.setattr(topology, "_DIST_BLOCK", block)
        assert nearest_distances(rows, points).tobytes() == whole.tobytes()
    assert nearest_distances(np.zeros((0, 3)), points).shape == (0,)
    with pytest.raises(InvalidParams):
        nearest_distances(rows, np.zeros((0, 3)))


# ---------------------------------------------------------------------------
# components

def test_components_split_and_merge_with_the_scale():
    cloud = gap_cloud()
    # the 0.5 gap exceeds the delta = 0.1 link length: two components
    comps = components(cloud, 0.1)
    assert len(comps) == 2
    sizes = sorted(len(c) for c in comps)
    assert sizes == [1, 51]
    # delta = 0.3 bridges the gap: one component
    assert len(components(cloud, 0.3)) == 1


def test_component_of_origin_requires_the_origin():
    cloud = Cloud(np.array([[0.5], [0.6]]))
    with pytest.raises(OriginMissing):
        origin_component_stabilization(cloud, (0.2,))


def _union_find_components(coords, delta):
    """Brute force: union every pair closer than 2*delta, then list the
    groups by their first member, members ascending."""
    m = len(coords)
    root = list(range(m))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    dists = np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=-1)
    for i in range(m):
        for j in range(i + 1, m):
            if dists[i, j] < 2.0 * delta:
                root[find(j)] = find(i)
    groups = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values(), key=lambda g: g[0])


def _assert_matches_union_find(coords, delta):
    got = [g.tolist() for g in components(Cloud(coords), delta)]
    assert got == _union_find_components(coords, delta)


@settings(max_examples=60, deadline=None)
@given(points=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                       min_size=1, max_size=25))
def test_components_on_lattice_clouds_do_not_chain_at_exactly_two_delta(points):
    # lattice neighbours sit at distance exactly 1 = 2*delta, so no pair
    # chains; at a slightly larger delta they do
    coords = np.array(points, dtype=float)
    _assert_matches_union_find(coords, 0.5)
    _assert_matches_union_find(coords, 0.5 + 1e-9)


@settings(max_examples=60, deadline=None)
@given(points=st.lists(st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2),
                       min_size=1, max_size=30),
       delta=st.floats(0.01, 1.0))
def test_components_match_a_brute_force_union_find(points, delta):
    _assert_matches_union_find(np.array(points), delta)


def _label_groups(labels):
    """Groups of equal labels by first member, members ascending."""
    groups = {}
    for i, label in enumerate(labels.tolist()):
        groups.setdefault(label, []).append(i)
    return list(groups.values())


@st.composite
def _clouds_and_schedules(draw):
    dim = draw(st.integers(1, 3))
    if draw(st.booleans()):
        # lattice neighbours sit at exactly 1 = 2 * 0.5: they chain at
        # 0.5 + 1e-9 and must not chain at 0.5
        points = draw(st.lists(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim),
                               min_size=1, max_size=30))
        scales = st.sampled_from([1.0, 0.75, 0.5 + 1e-9, 0.5, 0.3])
    else:
        points = draw(st.lists(st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim),
                               min_size=1, max_size=30))
        scales = st.floats(0.01, 1.0)
    copies = draw(st.lists(st.integers(0, len(points) - 1), max_size=5))
    coords = np.array(points + [points[k] for k in copies], dtype=float)
    schedule = tuple(sorted(set(draw(st.lists(scales, min_size=1, max_size=5))), reverse=True))
    return coords, schedule


@settings(max_examples=150, deadline=None)
@given(case=_clouds_and_schedules(), block=st.sampled_from([1, 2, 5, QUERY_BLOCK]))
def test_labels_down_match_a_brute_force_union_find_at_every_scale(case, block):
    # small blocks split every scale's query, as a large cloud does
    coords, schedule = case
    with mock.patch.object(topology, "QUERY_BLOCK", block):
        per_scale = _labels_down(Cloud(coords), schedule)
    assert len(per_scale) == len(schedule)
    for delta, labels in zip(schedule, per_scale):
        assert _label_groups(labels) == _union_find_components(coords, delta)


def test_a_cloud_with_no_giant_component_takes_the_blocked_query():
    coords = np.random.default_rng(3).uniform(size=(QUERY_BLOCK + 100, 3))
    schedule = (0.03, 0.02, 0.01)
    per_scale = _labels_down(Cloud(coords), schedule)
    # even the coarsest scale leaves more than a block outside its largest component
    coarse = per_scale[0]
    assert len(coords) - np.max(np.bincount(coarse)) > QUERY_BLOCK
    for delta, labels in zip(schedule, per_scale):
        assert _label_groups(labels) == _union_find_components(coords, delta)


def test_components_of_an_empty_cloud():
    assert components(Cloud(np.zeros((0, 2))), 0.1) == []


def test_an_empty_list_is_a_cloud_of_no_points():
    empty = Cloud([])
    assert len(empty) == 0
    assert components(empty, 0.1) == []
    assert empty.origin_index() is None
    assert Cloud(np.zeros((0, 2))).origin_index() is None


def test_components_validate_inputs():
    with pytest.raises(InvalidParams):
        components(gap_cloud(), 0.0)
    with pytest.raises(InvalidParams):
        Cloud(np.array([[np.nan]]))


# ---------------------------------------------------------------------------
# symmetric clouds

def test_asymmetric_cloud_cannot_be_declared_symmetric():
    with pytest.raises(InvalidParams):
        Cloud(np.array([[1.0, 0.0], [0.5, 0.5]]), symmetric=True)


# ---------------------------------------------------------------------------
# origin-component stabilization

def test_gap_example_stabilizes_to_the_origin_alone():
    cloud = gap_cloud()
    report = origin_component_stabilization(cloud, (0.3, 0.2, 0.1, 0.05))
    assert report.stabilized
    assert report.nested_ok
    assert report.sizes[0] == 52          # delta 0.3 bridges the gap
    assert report.sizes[-1] == 1          # fine scales isolate the origin
    assert np.array_equal(cloud.coords[list(report.member_sets[-1])], np.zeros((1, 1)))


def test_connected_segment_stabilizes_to_the_whole_cloud():
    seg = np.arange(-1.0, 1.0 + 1e-12, 0.01)[:, None]
    report = origin_component_stabilization(Cloud(seg), (0.3, 0.2, 0.1, 0.05))
    assert report.stabilized
    assert report.sizes == [len(seg)] * 4


def test_model_cloud_stabilizes_to_the_segment_points():
    # branch coordinates sit at least 3^(-2n) = 1/81 off the axis, so any
    # scale below that (but above the segment sample spacing 5e-4) keeps
    # exactly the axis points in the origin component
    model = clark_model(n=2)
    es = enumerate_critical_set(model, z_samples=4001)
    cloud = Cloud(es.coords)
    report = origin_component_stabilization(cloud, (0.02, 0.005, 8e-4, 6e-4))
    assert report.stabilized
    # the stable origin component is exactly the points on the t-axis
    # (segment samples plus the two all-zero branch patterns at t = +-1)
    on_axis = np.linalg.norm(cloud.coords[:, 1:], axis=1) == 0.0
    assert report.sizes[-1] == int(np.sum(on_axis))
    assert np.max(np.abs(cloud.coords[list(report.member_sets[-1]), 1:])) == 0.0
    # the coarsest scale bridges to the off-axis branch points
    assert report.sizes[0] > report.sizes[-1]


def test_model_cloud_stabilization_runs_in_bounded_memory():
    # listing every pair at delta = 0.02 on this cloud takes about 500 MB
    cloud = Cloud(enumerate_critical_set(clark_model(n=2), z_samples=20001).coords)
    tracemalloc.start()
    try:
        report = origin_component_stabilization(cloud, (0.02, 0.005, 2e-4, 1e-4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.stabilized
    assert peak < 32e6


def test_member_sets_are_nested_and_sizes_monotone():
    rng = np.random.default_rng(8)
    pts = np.concatenate([np.zeros((1, 3)), rng.normal(size=(50, 3))])
    report = origin_component_stabilization(Cloud(pts), (0.9, 0.5, 0.3, 0.1))
    assert report.nested_ok
    assert all(a >= b for a, b in zip(report.sizes, report.sizes[1:]))
    for coarse, fine in zip(report.member_sets, report.member_sets[1:]):
        assert set(fine) <= set(coarse)


def test_stabilization_schedule_validation():
    cloud = gap_cloud()
    with pytest.raises(InvalidParams):
        origin_component_stabilization(cloud, ())
    with pytest.raises(InvalidParams):
        origin_component_stabilization(cloud, (0.1, 0.2))
    with pytest.raises(InvalidParams):
        origin_component_stabilization(cloud, (0.1, -0.05))


def test_single_scale_schedule_counts_as_stabilized():
    report = origin_component_stabilization(gap_cloud(), (0.05,))
    assert report.stabilized
    assert report.sizes == [1]
