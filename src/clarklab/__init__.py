"""Numerical laboratory for critical point theory of even, bounded-below
functionals: model functionals with closed-form critical sets, descent
and deformation flows, point-cloud topology, minimax upper bounds over
coordinate spheres, and a shooting solver for the sublinear nodal
family.  Everything runs on finite-dimensional truncations and is
verified against hand-derived oracles."""

__version__ = "0.1.0"
