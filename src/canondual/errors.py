"""Exception types shared across the package."""


class CanonDualError(Exception):
    """Base class for all package errors."""


class InvalidMatrix(CanonDualError):
    """Matrix input fails a structural requirement (non-finite or asymmetric)."""


class RangeViolation(CanonDualError):
    """Right-hand side is not in the range of the operator within tolerance.

    Carries the relative residual in ``residual``.
    """

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


class DomainViolation(CanonDualError):
    """Argument lies outside the admissible domain of a canonical term."""


class NonFinite(CanonDualError):
    """Evaluation overflowed or produced a non-finite value."""


class SchemaError(CanonDualError):
    """Problem document violates the JSON schema; ``path`` locates the field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class DimensionMismatch(CanonDualError):
    """Array shapes are inconsistent with the declared dimension."""


class SingularG(CanonDualError):
    """Operator is singular where a nonsingular one is required."""


class NotCritical(CanonDualError):
    """Point pair fails the stationarity residual test."""


class EmptyInterior(CanonDualError):
    """Feasibility phase found no strictly positive-definite dual point.

    Carries the best smallest eigenvalue of G found in ``best_min_eig``.
    """

    def __init__(self, message: str, best_min_eig: float = float("nan")):
        super().__init__(message)
        self.best_min_eig = best_min_eig


class MaxIterations(CanonDualError):
    """Iteration budget exhausted before reaching the requested tolerance."""


class TooLarge(CanonDualError):
    """Instance exceeds a hard budget guard."""


class UnsupportedTerm(CanonDualError):
    """Requested encoding cannot represent this canonical term kind."""
