"""Ambient spaces for the finite truncations.

Two space tags are supported:

* ``L2Truncation(dim)``  -- coordinate vectors with the Euclidean inner
  product.  Used by the coordinate model, where the first coordinate is
  the parameter t and the rest are the sequence entries.
* ``H01Grid(nodes)``     -- interior nodal values of a uniform grid on
  (0, 1) with zero boundary conditions.  The inner product is the
  Dirichlet form <u, v> = v . to_dual(u), so norms approximate the H^1_0
  norm and gradients of functionals are Riesz representatives in it.

All vector operations accept batches: arrays of shape (..., dim).
``row_sum`` is the kernel for sums over a short last axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, InvalidParams, InvalidPoint


# numpy sums a last axis of fewer than 8 entries left to right from +0.0;
# from 8 on it sums in pairwise blocks of 8
_ROW_SUM_COLUMNS_MAX = 7


def row_sum(a):
    """np.add.reduce(a, axis=-1), bit for bit, for any array a.

    numpy reduces a short last axis row by row, at a cost per row.  For a
    C-contiguous float64 batch of two or more rows of width 1 to 7, this
    adds whole columns instead, left to right from +0.0: numpy's operations
    in numpy's order.  Starting from 0.0 + column 0 rather than column 0
    keeps numpy's +0.0 for a row of -0.0.  The columns of such a batch are
    strided and at least two long; numpy's add keeps the first operand's
    NaN there, as its reduction does, but not in its one-element and
    contiguous loops.  Anything else goes to np.add.reduce.
    """
    a = np.asarray(a)
    width = a.shape[-1]
    if (a.dtype != np.float64 or not 0 < width <= _ROW_SUM_COLUMNS_MAX
            or a.size < 2 * width or not a.flags.c_contiguous):
        return np.add.reduce(a, axis=-1)
    s = a[..., 0] + 0.0
    for j in range(1, width):
        s += a[..., j]
    return s


@dataclass(frozen=True)
class L2Truncation:
    dim: int

    def norm(self, u):
        # np.linalg.norm(u, axis=-1) of a float u: the sqrt of the sum of u * u
        u = np.asarray(u, dtype=float)
        return np.sqrt(row_sum(u * u))

    def to_dual(self, g):
        """Euclidean partial derivatives of a functional with gradient g."""
        return np.asarray(g, dtype=float)

    def __str__(self):
        return f"l2-truncation(dim={self.dim})"


@dataclass(frozen=True)
class H01Grid:
    """Uniform grid on (0,1): ``nodes`` interior points, spacing 1/(nodes+1).

    A vector holds the interior values only; the boundary values are
    pinned to zero.  norm(u)^2 = sum over cells of ((u_{i+1}-u_i)/h)^2 * h,
    the sum including both boundary cells.
    """

    nodes: int

    def __post_init__(self):
        if self.nodes < 1:
            raise InvalidParams(f"an H01 grid needs at least one node, got {self.nodes}")

    @cached_property
    def mesh_width(self):
        return 1.0 / (self.nodes + 1)

    @property
    def dim(self):
        return self.nodes

    @cached_property
    def grid(self):
        """Interior node abscissae."""
        h = self.mesh_width
        return h * np.arange(1, self.nodes + 1)

    @cached_property
    def _chol(self):
        # banded Cholesky factor of the stiffness matrix (1/h) tridiag(-1,2,-1)
        from scipy.linalg import cholesky_banded

        h = self.mesh_width
        ab = np.zeros((2, self.nodes))
        ab[0, 1:] = -1.0 / h
        ab[1, :] = 2.0 / h
        return cholesky_banded(ab, lower=False)

    @cached_property
    def _pbtrs(self):
        # LAPACK's banded Cholesky solve for the factor's dtype
        from scipy.linalg import get_lapack_funcs

        return get_lapack_funcs(("pbtrs",), (self._chol,))[0]

    @staticmethod
    def _cell_differences(u):
        """The nodes+1 cell differences of u extended by zero boundaries.

        They are the forward differences of u padded by one zero at each
        end: the entries, operations and contiguous layout of
        np.diff(u, prepend=0.0, append=0.0), so every sum over them has the
        same bits, without that call's argument handling.  The last entry
        is 0.0 - u[-1], not -u[-1], which differs in the sign of a zero.
        """
        u = np.asarray(u, dtype=float)
        padded = np.zeros(u.shape[:-1] + (u.shape[-1] + 2,))
        padded[..., 1:-1] = u
        return np.subtract(padded[..., 1:], padded[..., :-1])

    def norm(self, u):
        du = self._cell_differences(u)
        return np.sqrt(np.add.reduce(du * du, axis=-1) / self.mesh_width)

    def to_dual(self, g):
        """A g with A = (1/h) tridiag(-1, 2, -1): the coordinate partial
        derivatives of a functional whose Riesz gradient is g."""
        dg = self._cell_differences(g)
        return (dg[..., :-1] - dg[..., 1:]) / self.mesh_width

    def riesz_of_load(self, f):
        """Riesz representative of the L2 load v -> integral(f v), where the
        integral is the trapezoid rule on the grid: solves A g = h f."""
        f = np.asarray(f, dtype=float)
        rhs = self.mesh_width * f
        # one banded solve with every row as a right-hand-side column; LAPACK
        # solves column by column, so each row's result is the same as alone
        # and a NaN row spoils only its own column.  The call is the pbtrs
        # that cho_solve_banded wraps, on the same arguments, without that
        # wrapper's per-call batching and validation.
        flat = rhs.reshape(-1, self.nodes)
        if not flat.size:
            return rhs
        out, info = self._pbtrs(self._chol, flat.T, lower=False)
        if info:
            from scipy.linalg import LinAlgError

            raise LinAlgError(f"banded Cholesky solve failed: pbtrs info {info}")
        return np.ascontiguousarray(out.T).reshape(rhs.shape)

    def trapezoid(self, values):
        """Trapezoid quadrature of nodal values extended by zero boundaries."""
        return self.mesh_width * np.add.reduce(np.asarray(values), axis=-1)

    def __str__(self):
        return f"h01-grid(nodes={self.nodes})"


SpaceTag = L2Truncation | H01Grid


def check_coords(space, coords):
    coords = np.asarray(coords, dtype=float)
    if coords.shape[-1] != space.dim:
        raise DimensionError(
            f"expected {space.dim} coordinates, got {coords.shape[-1]}"
        )
    if not np.all(np.isfinite(coords)):
        raise InvalidPoint("coordinates must be finite")
    return coords


@dataclass(frozen=True, eq=False)
class Point:
    """A point of a tagged space; coordinates are a read-only float array."""

    coords: np.ndarray
    space: SpaceTag

    def __post_init__(self):
        coords = check_coords(self.space, self.coords)
        if coords.ndim != 1:
            raise InvalidPoint("a Point holds a single coordinate vector")
        coords = coords.copy()
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)

    def __neg__(self):
        return Point(-self.coords, self.space)

    def __repr__(self):
        return f"Point({np.array2string(self.coords, precision=6, threshold=8)}, {self.space})"
