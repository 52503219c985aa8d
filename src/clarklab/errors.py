"""Exception types shared across the package.

Validation failures and broken contracts raise.  An expected negative
outcome of a computation is returned as a value instead: every row of
solvers.gradient_flow_solve_batch reports why it stopped.
"""


class ClarkLabError(Exception):
    """Base class for all package errors."""


class DimensionError(ClarkLabError):
    """Coordinate length does not match the ambient space."""


class InvalidPoint(ClarkLabError):
    """Non-finite or otherwise malformed coordinates."""


class InvalidParams(ClarkLabError):
    """Constructor parameters outside their admissible range."""


class EmptyInput(ClarkLabError):
    """An operation received an empty collection it cannot work with."""


class OriginMissing(ClarkLabError):
    """No point of the cloud lies at the origin (within tolerance)."""


class SetupInconsistent(ClarkLabError):
    """Deformation bounds are contradicted by sampled data."""


class DeformationFailure(ClarkLabError):
    """The deformation contract failed on a concrete trajectory."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class IntegrationError(ClarkLabError):
    """An ODE integration did not reach the requested accuracy or span."""


class NoCrossing(ClarkLabError):
    """Shooting trajectory produced no return to zero before t_max."""
