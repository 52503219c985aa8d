"""Finite point-cloud topology.

Compact sets are represented by finite sample clouds.  Two cloud points
are chained at scale delta when their open delta-balls overlap
(distance < 2*delta), which reproduces the component structure of the
delta-neighborhood of the cloud restricted to its sample points.  The
stabilization check tracks the origin's component down a decreasing
scale schedule: the member sets must nest, and on a finite cloud they
become constant once the scale drops below the smallest structural gap.

Genus values are certificate-based: only set families with a hand-proved
construction get bounds, there is no general algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components as _graph_components
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .errors import EmptyInput, InvalidParams, NotInGenusFamily, OriginMissing

SYMMETRY_TOL = 1e-12
ORIGIN_TOL = 1e-12


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

    def subset(self, indices) -> "Cloud":
        return Cloud(self.coords[np.asarray(indices, dtype=int)])

    def origin_index(self):
        """Index of the point nearest the origin if it lies within
        ORIGIN_TOL of it, else None."""
        if not len(self):
            return None
        norms = np.linalg.norm(self.coords, axis=1)
        i = int(np.argmin(norms))
        return i if norms[i] <= ORIGIN_TOL else None

    def min_origin_distance(self) -> float:
        if not len(self):
            raise EmptyInput("empty cloud has no origin distance")
        return float(np.min(np.linalg.norm(self.coords, axis=1)))

    def to_json_list(self):
        return [[float(v) for v in row] for row in self.coords]


def _component_labels(cloud: Cloud, delta: float) -> np.ndarray:
    """One chain-component label per cloud point at scale delta (edges
    strictly below 2*delta)."""
    if delta <= 0:
        raise InvalidParams("delta must be positive")
    m = len(cloud)
    if m < 2:
        return np.arange(m)
    tree = cKDTree(cloud.coords)
    pairs = tree.query_pairs(2.0 * delta, output_type="ndarray")
    if len(pairs):
        gap = np.linalg.norm(cloud.coords[pairs[:, 0]] - cloud.coords[pairs[:, 1]], axis=1)
        pairs = pairs[gap < 2.0 * delta]
    if not len(pairs):
        return np.arange(m)
    adj = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(m, m))
    return _graph_components(adj, directed=False)[1]


def components(cloud: Cloud, delta: float) -> list:
    """Partition of cloud indices into chain components at scale delta
    (edges strictly below 2*delta): index arrays in ascending order, the
    components in the order of their first member."""
    labels = _component_labels(cloud, delta)
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    members = np.argsort(inverse, kind="stable")
    groups = np.split(members, np.cumsum(np.bincount(inverse))[:-1])
    return [groups[g] for g in np.argsort(first)]


def component_of_origin(cloud: Cloud, delta: float) -> Cloud:
    """Member points of the origin's chain component at scale delta."""
    return cloud.subset(component_of_origin_indices(cloud, delta))


def component_of_origin_indices(cloud: Cloud, delta: float) -> np.ndarray:
    o = cloud.origin_index()
    if o is None:
        raise OriginMissing(f"no cloud point within {ORIGIN_TOL} of the origin")
    labels = _component_labels(cloud, delta)
    return np.flatnonzero(labels == labels[o])


@dataclass
class StabilizationReport:
    """Origin-component membership down a decreasing scale schedule."""

    schedule: tuple
    member_sets: list          # sorted index tuples, one per scale
    sizes: list
    nested_ok: bool
    stabilized: bool
    stable_cloud: Cloud
    note: str = ""

    def to_json_dict(self):
        return {
            "schedule": [float(d) for d in self.schedule],
            "member_sets": [[int(i) for i in s] for s in self.member_sets],
            "sizes": [int(s) for s in self.sizes],
            "nested_ok": self.nested_ok,
            "stabilized": self.stabilized,
            "stable_points": self.stable_cloud.to_json_list(),
            "note": self.note,
        }


def origin_component_stabilization(cloud: Cloud, delta_schedule) -> StabilizationReport:
    """Run component_of_origin down the schedule; verify the member sets
    nest as the scale shrinks and report whether they have stabilized.

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

    member_sets = []
    for d in schedule:
        idx = component_of_origin_indices(cloud, d)
        member_sets.append(tuple(sorted(int(i) for i in idx)))

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
        stable_cloud=cloud.subset(np.array(member_sets[-1], dtype=int)),
        note=note,
    )


def hausdorff(a: Cloud, b: Cloud) -> float:
    if len(a) == 0 or len(b) == 0:
        raise EmptyInput("hausdorff distance needs nonempty clouds")
    d = cdist(a.coords, b.coords)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


# ---------------------------------------------------------------------------
# genus certificates

@dataclass(frozen=True)
class GenusCertificate:
    lower: int
    upper: int
    lower_witness: str
    upper_witness: str

    def __post_init__(self):
        if not (1 <= self.lower <= self.upper):
            raise InvalidParams("certificate needs 1 <= lower <= upper")


@dataclass(frozen=True)
class CoordinateSphere:
    """Radius-rho sphere in the span of the first k coordinates."""

    k: int
    rho: float


@dataclass(frozen=True)
class FinitePairCloud:
    """Finite symmetric cloud not containing the origin."""

    cloud: Cloud


@dataclass(frozen=True)
class UnionSpec:
    a: object
    b: object


@dataclass(frozen=True)
class SymmetricNeighborhood:
    """Closed radius-neighborhood of a finite symmetric cloud; certified
    only while the radius stays below half the cloud's origin distance."""

    inner: FinitePairCloud
    radius: float


def genus_certificate(spec) -> GenusCertificate:
    if isinstance(spec, CoordinateSphere):
        if spec.k < 1:
            raise InvalidParams("sphere dimension count must be >= 1")
        if spec.rho < 0:
            raise InvalidParams("sphere radius must be nonnegative")
        if spec.rho == 0:
            raise NotInGenusFamily("radius-0 sphere is the origin itself")
        return GenusCertificate(
            lower=spec.k, upper=spec.k,
            lower_witness=f"odd maps S^{spec.k - 1} -> R^m \\ {{0}} need m >= {spec.k} "
                          "(Borsuk-Ulam)",
            upper_witness=f"identity embedding into R^{spec.k} \\ {{0}}",
        )

    if isinstance(spec, FinitePairCloud):
        c = spec.cloud
        if len(c) == 0:
            raise InvalidParams("empty cloud has no genus")
        Cloud(c.coords, symmetric=True)  # revalidate symmetry
        if c.origin_index() is not None:
            raise NotInGenusFamily("cloud contains the origin")
        return GenusCertificate(
            lower=1, upper=1,
            lower_witness="nonempty member of the symmetric origin-free family",
            upper_witness="separating linear functional, odd into R \\ {0} "
                          "(finite set, no point is its own negation)",
        )

    if isinstance(spec, UnionSpec):
        ca = genus_certificate(spec.a)
        cb = genus_certificate(spec.b)
        return GenusCertificate(
            lower=max(ca.lower, cb.lower),
            upper=ca.upper + cb.upper,
            lower_witness="monotonicity: each member embeds in the union",
            upper_witness="subadditivity: concatenate the member upper-bound maps",
        )

    if isinstance(spec, SymmetricNeighborhood):
        inner_cert = genus_certificate(spec.inner)
        dist0 = spec.inner.cloud.min_origin_distance()
        if spec.radius <= 0:
            raise InvalidParams("neighborhood radius must be positive")
        if spec.radius >= dist0:
            raise NotInGenusFamily("neighborhood of this radius reaches the origin")
        if spec.radius >= 0.5 * dist0:
            raise NotInGenusFamily(
                "radius not below half the origin distance; small-neighborhood "
                "stability is only certified in that regime")
        return GenusCertificate(
            lower=inner_cert.lower, upper=inner_cert.upper,
            lower_witness="cloud embeds in its neighborhood: " + inner_cert.lower_witness,
            upper_witness="small-neighborhood stability (radius < half origin "
                          "distance keeps the separating map nonvanishing): "
                          + inner_cert.upper_witness,
        )

    raise InvalidParams(f"no certificate family for {type(spec).__name__}")
