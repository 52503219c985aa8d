"""Finite point-cloud topology.

Compact sets are represented by finite sample clouds.  Two cloud points
are chained at scale delta when their open delta-balls overlap
(distance < 2*delta), which reproduces the component structure of the
delta-neighborhood of the cloud restricted to its sample points.  The
stabilization check tracks the origin's component down a decreasing
scale schedule: the member sets must nest, and on a finite cloud they
become constant once the scale drops below the smallest structural gap.

All scales of a schedule come from one finest-first pass over one
KD-tree.  A coarser scale only adds edges, and an edge inside one
component changes nothing, so it queries only the points outside the
largest component, block by block, and merges the labels they join.

Distances from rows to their nearest cloud point come from one blocked
routine, ``nearest_distances``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components as _graph_components
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .errors import InvalidParams, OriginMissing

SYMMETRY_TOL = 1e-12
ORIGIN_TOL = 1e-12
# outside points per neighbour query: bounds the pairs held at once
QUERY_BLOCK = 1024
# rows x points distances per nearest_distances block: bounds the memory
_DIST_BLOCK = 1 << 15


def nearest_distances(rows, points):
    """Euclidean distance from each row to its nearest point, one row block
    at a time.  Each distance is computed on its own, so a row's result does
    not depend on the block it falls in."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if not len(points):
        raise InvalidParams("a nearest distance needs at least one point")
    step = max(1, _DIST_BLOCK // len(points))
    out = np.empty(len(rows))
    for s in range(0, len(rows), step):
        out[s:s + step] = cdist(rows[s:s + step], points).min(axis=1)
    return out


@dataclass
class Cloud:
    """Finite set of points in R^d, optionally declared symmetric
    (closed under negation, checked to SYMMETRY_TOL)."""

    coords: np.ndarray
    symmetric: bool = False

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        # an empty input is a cloud of no points, not one point of no coordinates
        c = c.reshape(0, 0) if c.size == 0 and c.ndim < 2 else np.atleast_2d(c)
        if not np.all(np.isfinite(c)):
            raise InvalidParams("cloud coordinates must be finite")
        self.coords = c
        if self.symmetric and len(c):
            tree = cKDTree(c)
            dists, _ = tree.query(-c, k=1)
            if np.max(dists) > SYMMETRY_TOL:
                raise InvalidParams(
                    f"cloud declared symmetric but a negation is missing "
                    f"(worst miss {np.max(dists):.3e})")

    def __len__(self):
        return self.coords.shape[0]

    def origin_index(self):
        """Index of the point nearest the origin if it lies within
        ORIGIN_TOL of it, else None."""
        if not len(self):
            return None
        norms = np.linalg.norm(self.coords, axis=1)
        i = int(np.argmin(norms))
        return i if norms[i] <= ORIGIN_TOL else None


def _labels_down(cloud: Cloud, schedule) -> list:
    """One chain-component label array per scale of a decreasing schedule
    (edges strictly below 2*delta), built finest scale first."""
    m = len(cloud)
    labels = np.arange(m)
    if m < 2:
        return [labels] * len(schedule)
    coords = cloud.coords
    tree = cKDTree(coords)
    out = []
    for delta in reversed(schedule):
        reach = 2.0 * delta
        outside = np.flatnonzero(labels != np.argmax(np.bincount(labels)))
        for start in range(0, len(outside), QUERY_BLOCK):
            block = outside[start:start + QUERY_BLOCK]
            near = cKDTree(coords[block]).sparse_distance_matrix(
                tree, reach, output_type="ndarray")
            i, j = block[near["i"]], near["j"]
            split = labels[i] != labels[j]
            i, j = i[split], j[split]
            # the tree's own distances only preselect; the exact gap decides
            joined = np.linalg.norm(coords[i] - coords[j], axis=1) < reach
            if np.any(joined):
                graph = coo_matrix((np.ones(np.count_nonzero(joined)),
                                    (labels[i[joined]], labels[j[joined]])), shape=(m, m))
                labels = _graph_components(graph, directed=False)[1][labels]
        out.append(labels)
    return out[::-1]


def components(cloud: Cloud, delta: float) -> list:
    """Partition of cloud indices into chain components at scale delta
    (edges strictly below 2*delta): index arrays in ascending order, the
    components in the order of their first member."""
    if delta <= 0:
        raise InvalidParams("delta must be positive")
    labels = _labels_down(cloud, (delta,))[0]
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    members = np.argsort(inverse, kind="stable")
    groups = np.split(members, np.cumsum(np.bincount(inverse))[:-1])
    return [groups[g] for g in np.argsort(first)]


@dataclass
class StabilizationReport:
    """Origin-component membership down a decreasing scale schedule."""

    schedule: tuple
    member_sets: list          # sorted index tuples, one per scale
    sizes: list
    nested_ok: bool
    stabilized: bool
    note: str = ""


def origin_component_stabilization(cloud: Cloud, delta_schedule) -> StabilizationReport:
    """Track the origin's component down the schedule; verify the member
    sets nest as the scale shrinks and report whether they have stabilized.

    A nesting violation would be an algorithmic bug (shrinking the scale
    can only remove edges), hence RuntimeError rather than a domain error.
    """
    schedule = tuple(float(d) for d in delta_schedule)
    if not schedule:
        raise InvalidParams("schedule must be nonempty")
    if any(d <= 0 for d in schedule):
        raise InvalidParams("schedule scales must be positive")
    if any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise InvalidParams("schedule must be strictly decreasing")

    o = cloud.origin_index()
    if o is None:
        raise OriginMissing(f"no cloud point within {ORIGIN_TOL} of the origin")
    member_sets = [tuple(np.flatnonzero(labels == labels[o]).tolist())
                   for labels in _labels_down(cloud, schedule)]

    for coarse, fine in zip(member_sets, member_sets[1:]):
        if not set(fine).issubset(coarse):
            raise RuntimeError("internal: origin component grew as the scale shrank")

    stabilized = len(member_sets) < 2 or member_sets[-1] == member_sets[-2]
    note = ("member set constant over the finest scales"
            if stabilized else "schedule too coarse: member set still shrinking")
    return StabilizationReport(
        schedule=schedule,
        member_sets=member_sets,
        sizes=[len(s) for s in member_sets],
        nested_ok=True,
        stabilized=stabilized,
        note=note,
    )
