import numpy as np
import pytest

from clarklab.errors import EmptyInput, InvalidPoint
from clarklab.functionals import Functional, fd_gradient_check, ps_diagnostic
from clarklab.models import clark_model
from clarklab.spaces import L2Truncation, Point


class Quadratic(Functional):
    """1/2 |u|^2 with an optional multiplicative gradient bug."""

    def __init__(self, dim, bug=1.0):
        self.space = L2Truncation(dim)
        self.bug = bug

    def value_of(self, coords):
        c = np.asarray(coords, dtype=float)
        return 0.5 * np.sum(c * c, axis=-1)

    def grad_of(self, coords):
        return self.bug * np.asarray(coords, dtype=float)


def test_evaluate_gradient_residual_are_coherent():
    f = Quadratic(3)
    p = Point(np.array([1.0, 2.0, -2.0]), f.space)
    assert f.evaluate(p) == pytest.approx(4.5)
    assert np.array_equal(f.grad_of(p.coords), p.coords)
    assert f.space.norm(f.grad_of(p.coords)) == pytest.approx(3.0)


def test_point_space_mismatch_is_rejected():
    f = Quadratic(3)
    with pytest.raises(InvalidPoint):
        f.evaluate(np.zeros(3))


def test_fd_check_accepts_correct_gradient():
    model = clark_model(n=3)
    p = Point(np.array([0.4, 0.3, -0.2, 0.1]), model.space)
    report = fd_gradient_check(model, p)
    assert report.max_rel_error < 1e-6
    assert report.skipped == []


def test_fd_check_skips_coordinates_on_kinks():
    # x_2 = 0 and t = 1 are kink loci of the coordinate model
    model = clark_model(n=3)
    p = Point(np.array([1.0, 0.3, 0.0, 0.1]), model.space)
    report = fd_gradient_check(model, p)
    skipped_idx = {i for i, _ in report.skipped}
    assert skipped_idx == {0, 2}
    assert report.max_rel_error < 1e-6
    assert report.per_coordinate[0] == 0.0 and report.per_coordinate[2] == 0.0


def test_fd_check_flags_wrong_gradient():
    good = fd_gradient_check(Quadratic(4), Point(np.ones(4), L2Truncation(4)))
    bad = fd_gradient_check(Quadratic(4, bug=1.1), Point(np.ones(4), L2Truncation(4)))
    assert good.max_rel_error < 1e-9
    assert bad.max_rel_error > 1e-2


def test_ps_diagnostic_accepts_vanishing_branch_sequence():
    # branch points marching down the coordinates: values rise to 0,
    # residuals are identically ~0, tail clusters at the segment endpoint
    model = clark_model(n=8)
    seq = []
    for k in range(1, 9):
        coords = np.zeros(9)
        coords[0] = 1.0
        coords[k] = 9.0 * 3.0 ** (-2 * k)
        seq.append(Point(coords, model.space))
    report = ps_diagnostic(model, seq, 0.0, tol=1e-4)
    assert report.values_converge
    assert report.residuals_vanish
    assert report.has_convergent_subsequence
    assert all(v < 0 for v in report.value_trace)
    assert np.all(np.diff(report.value_trace) > 0)
    # the cluster representative sits next to (1, 0, ..., 0)
    reps = np.stack([p.coords for p in report.cluster_points])
    target = np.zeros(9)
    target[0] = 1.0
    assert np.min(np.linalg.norm(reps - target, axis=1)) < 1e-4


def test_ps_diagnostic_rejects_nonvanishing_residuals():
    f = Quadratic(2)
    # walking along the unit circle: value pinned at 1/2, residual pinned at 1
    seq = [Point(np.array([np.cos(a), np.sin(a)]), f.space)
           for a in np.linspace(0.0, 1.0, 12)]
    report = ps_diagnostic(f, seq, 0.5, tol=1e-6)
    assert report.values_converge
    assert not report.residuals_vanish
    assert "residuals stay above" in report.note


def test_ps_diagnostic_rejects_wrong_level():
    f = Quadratic(2)
    seq = [Point(np.zeros(2), f.space) for _ in range(8)]
    report = ps_diagnostic(f, seq, 0.25, tol=1e-6)
    assert not report.values_converge
    assert report.residuals_vanish


def test_ps_diagnostic_empty_sequence_raises():
    with pytest.raises(EmptyInput):
        ps_diagnostic(Quadratic(2), [], 0.0)
