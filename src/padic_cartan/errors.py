"""Exception types shared across the package."""


class PadicCartanError(ValueError):
    """Base class for all package-specific errors."""


class UnsupportedPrimeError(PadicCartanError):
    """Raised for a p that is not an odd prime; `WeierstrassCurve`, and so every
    function and CLI command that builds a curve, refuses p = 3 as well."""


class SingularCurveError(PadicCartanError):
    """Raised when a model has discriminant zero."""


class NormalizationError(PadicCartanError):
    """Raised when no good model with the requested ramification exists."""


class PrecisionError(PadicCartanError):
    """Raised when a result cannot be certified at the requested precision."""


class CosetViolationError(PadicCartanError):
    """Raised when pi_e powers fail to cancel where theory says they must."""


class CanonicalSubgroupError(PadicCartanError):
    """Raised when a stabilization level is requested but undefined."""


class ExcludedJInvariantError(PadicCartanError):
    """Raised for the single j-invariant excluded from the per-prime bound."""
