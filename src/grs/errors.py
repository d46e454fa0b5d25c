"""Exception types shared across the package."""


class GrsError(Exception):
    """Base class for all package errors."""


class DegreeError(GrsError):
    """Form/multivector degree out of range for the requested operation."""


class VarianceError(GrsError):
    """Covariant/contravariant mismatch."""


class DimensionError(GrsError):
    """Chart or value-space dimension mismatch."""


class SingularMetricError(GrsError):
    """Constant metric with no inverse: a diagonal metric with a zero entry."""


class EvalSingularity(GrsError):
    """Numeric evaluation hit a division by (near-)zero."""


class DomainError(GrsError):
    """Expression evaluated or differentiated outside its domain."""


class NonIdempotentProjection(GrsError):
    """Pointwise projection matrix fails pi*pi == pi."""


class NotALieAlgebra(GrsError):
    """Structure constants not finite, not antisymmetric or breaking Jacobi."""


class DegenerateFormError(GrsError):
    """2-form is degenerate where an inverse is required."""


class EmptySampleSet(GrsError):
    """No sample points left after exclusions."""


class StepError(GrsError):
    """Trajectory integration produced a non-finite state."""


class UnknownEntry(GrsError):
    """Catalog id does not exist."""


class MissingParameter(GrsError):
    """Catalog entry invoked without a required parameter."""


class ParameterError(GrsError):
    """Catalog entry invoked with an unknown parameter or one of the wrong kind."""
