"""Numerical laboratory for critical point theory of even, bounded-below
functionals: model functionals with closed-form critical sets, descent
and deformation flows, point-cloud topology, minimax upper bounds over
coordinate spheres, and a shooting solver for the sublinear nodal
family.  Everything runs on finite-dimensional truncations and is
verified against hand-derived oracles."""

from .errors import (
    ClarkLabError,
    DeformationFailure,
    DimensionError,
    EmptyInput,
    IntegrationError,
    InvalidParams,
    InvalidPoint,
    NoCrossing,
    NoNegativeCertificate,
    OriginMissing,
    SetupInconsistent,
)
from .functionals import (
    Functional,
    PSReport,
    RelErrorReport,
    fd_gradient_check,
    ps_diagnostic,
)
from .models import (
    ClarkModel,
    CriticalSetOracle,
    ModelParams,
    SublinearEnergy,
    WrapperFunctional,
    clark_model,
    classify_model_point,
    enumerate_critical_set,
    sublinear_energy,
    verify_no_interior_negatives,
    wrapper_functional,
)
from .spaces import H01Grid, L2Truncation, Point

__version__ = "0.1.0"

__all__ = [
    "ClarkLabError",
    "ClarkModel",
    "CriticalSetOracle",
    "DeformationFailure",
    "DimensionError",
    "EmptyInput",
    "Functional",
    "H01Grid",
    "IntegrationError",
    "InvalidParams",
    "InvalidPoint",
    "L2Truncation",
    "ModelParams",
    "NoCrossing",
    "NoNegativeCertificate",
    "OriginMissing",
    "PSReport",
    "Point",
    "RelErrorReport",
    "SetupInconsistent",
    "SublinearEnergy",
    "WrapperFunctional",
    "clark_model",
    "classify_model_point",
    "enumerate_critical_set",
    "fd_gradient_check",
    "ps_diagnostic",
    "sublinear_energy",
    "verify_no_interior_negatives",
    "wrapper_functional",
]
