"""Functional interface, finite-difference gradient checks, and the
Palais-Smale style sequence diagnostic.

A Functional evaluates to a real number and exposes a gradient that is the
Riesz representative of its derivative with respect to the inner product of
its space: I'(u)v = <gradient(u), v>.  Consequently the coordinate partial
derivatives of I equal space.to_dual(gradient(u)), which is what the central
difference check compares against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, EmptyInput, InvalidPoint
from .spaces import Point, SpaceTag
from .topology import Cloud, components


class Functional:
    """Base class; subclasses implement value_of / grad_of on raw arrays.

    Both accept batches of shape (..., dim).  value_and_grad returns the
    pair in one call; the descent solver makes one such call per step,
    so a subclass whose value and gradient share work
    (norms, profile terms, powers) overrides it to compute that work once.
    Its result must equal (value_of, grad_of) bit for bit.  evaluate is the
    Point-typed wrapper of value_of, with validation.
    """

    space: SpaceTag

    def value_of(self, coords):
        raise NotImplementedError

    def grad_of(self, coords):
        raise NotImplementedError

    def value_and_grad(self, coords):
        return self.value_of(coords), self.grad_of(coords)

    def kink_gaps(self, coords):
        """Per-coordinate distance to the nearest loss of second-order
        smoothness, or None for functionals smooth everywhere.  Used by the
        finite-difference check to skip coordinates sitting on a kink."""
        return None

    def step_blocks(self):
        """Coordinate blocks that the descent solver steps separately, as
        (slice, capped) pairs; a capped block's step never exceeds the
        solver's _STEP_CAP, meant for stiff blocks like the model's x-modes.
        The default is one capped block covering every coordinate; the
        wrapper's is uncapped, as its degenerate minimum's curvature goes to 0."""
        return ((slice(None), True),)

    def evaluate(self, point: Point) -> float:
        self._check(point)
        return float(self.value_of(point.coords))

    def _check(self, point: Point):
        if not isinstance(point, Point):
            raise InvalidPoint("expected a Point")
        if point.space != self.space:
            raise DimensionError(f"point lives in {point.space}, functional in {self.space}")


@dataclass
class RelErrorReport:
    """Outcome of a central-difference check at one point."""

    max_rel_error: float
    per_coordinate: np.ndarray
    skipped: list = field(default_factory=list)  # (index, reason) pairs


_FD_STEP = 1e-6


def fd_gradient_check(functional: Functional, point: Point) -> RelErrorReport:
    """Central differences against space.to_dual(gradient).

    Coordinates within 10*_FD_STEP of a kink locus of the functional are
    reported in ``skipped`` rather than checked; the error would reflect
    the missing second derivative, not a wrong gradient.
    """
    functional._check(point)
    u = point.coords.copy()
    dim = u.shape[0]
    dual = functional.space.to_dual(functional.grad_of(u))
    gaps = functional.kink_gaps(u)

    fd = np.zeros(dim)
    skipped = []
    for i in range(dim):
        if gaps is not None and gaps[i] < 10.0 * _FD_STEP:
            skipped.append((i, "kink-proximity"))
            continue
        e = np.zeros(dim)
        e[i] = _FD_STEP
        fd[i] = (functional.value_of(u + e) - functional.value_of(u - e)) / (2.0 * _FD_STEP)

    scale = max(float(np.max(np.abs(dual))), 1e-12)
    per = np.abs(fd - dual) / scale
    for i, _ in skipped:
        per[i] = 0.0
    return RelErrorReport(
        max_rel_error=float(np.max(per)) if dim else 0.0,
        per_coordinate=per,
        skipped=skipped,
    )


@dataclass
class PSReport:
    """Diagnostic of a finite sequence against a target critical level.

    Everything is computed on a finite truncation, so the clustering
    statement is necessarily about the truncated space; the note records
    that limitation explicitly.
    """

    target_level: float
    value_trace: np.ndarray
    residual_trace: np.ndarray
    cluster_points: list
    has_convergent_subsequence: bool
    values_converge: bool
    residuals_vanish: bool
    note: str


def ps_diagnostic(functional: Functional, sequence, level: float, tol: float = 1e-6) -> PSReport:
    """Tail behaviour of values and residuals of a sequence of Points.

    The tail is the last quarter of the sequence (at least one element).
    Cluster points are the single-linkage components of the tail at
    scale tol/2 (``topology.components``), so two tail points chain when
    their distance is strictly below tol; a pair at distance exactly tol
    does not.  A cluster counts as convergent when its diameter is at
    most tol.
    """
    if len(sequence) == 0:
        raise EmptyInput("ps_diagnostic needs a non-empty sequence")
    for p in sequence:
        functional._check(p)

    coords = np.stack([p.coords for p in sequence])
    values, grads = functional.value_and_grad(coords)
    residuals = functional.space.norm(grads)

    m = len(sequence)
    tail = coords[-max(1, m // 4):]
    tail_vals = values[-max(1, m // 4):]
    tail_res = residuals[-max(1, m // 4):]

    values_converge = bool(np.max(np.abs(tail_vals - level)) <= tol)
    residuals_vanish = bool(np.max(tail_res) <= tol)

    dists = np.linalg.norm(tail[:, None, :] - tail[None, :, :], axis=-1)
    clusters = components(Cloud(tail), 0.5 * tol)

    space = functional.space
    cluster_points = []
    convergent = False
    for members in clusters:
        diam = float(np.max(dists[np.ix_(members, members)]))
        rep = Point(tail[members].mean(axis=0), space)
        cluster_points.append(rep)
        if diam <= tol:
            convergent = True

    if values_converge and residuals_vanish:
        note = (
            f"sequence is consistent with a PS sequence at level {level:g} "
            "on this finite truncation; clustering on a truncation cannot "
            "certify compactness of the full problem"
        )
    else:
        why = []
        if not values_converge:
            why.append("values do not settle at the level")
        if not residuals_vanish:
            why.append(f"residuals stay above tol (min tail residual {np.min(tail_res):.3g})")
        note = f"not a PS sequence at level {level:g}: " + "; ".join(why)

    return PSReport(
        target_level=level,
        value_trace=values,
        residual_trace=residuals,
        cluster_points=cluster_points,
        has_convergent_subsequence=convergent,
        values_converge=values_converge,
        residuals_vanish=residuals_vanish,
        note=note,
    )
