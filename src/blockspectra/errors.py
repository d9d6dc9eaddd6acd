"""Exception hierarchy shared across the package."""


class BlockspectraError(Exception):
    """Base class of every package-specific error."""


# covariance structures
class IndexOutOfRange(BlockspectraError):
    """A block index lies outside the declared block ranges."""


class SymmetryViolation(BlockspectraError):
    """Stored covariance values contradict the required symmetry."""


class WeightError(BlockspectraError):
    """Invalid block-weight vector for a rectangular spec."""


class DimensionMismatch(BlockspectraError):
    """Matrix argument has the wrong shape for the requested map."""


class WrongKind(BlockspectraError):
    """Operation applied to a covariance spec of an incompatible kind."""


class BadParameter(BlockspectraError):
    """Scalar argument outside its admissible range."""


class PatternViolation(BlockspectraError):
    """Matrix has support outside the weight-compatible sparsity pattern."""


# solvers
class NoConvergence(BlockspectraError):
    """Iteration budget exhausted before reaching the residual target."""


class SingularResolvent(BlockspectraError):
    """z*id - eta(G) was not invertible at an iterate."""


class SingularJacobian(BlockspectraError):
    """Newton linearization was singular."""


# spectra
class GridError(BlockspectraError):
    """Inversion grid is unsorted or inconsistent."""


class NegativeSupport(BlockspectraError):
    """Density carries mass on the negative axis where none is allowed."""


# Monte Carlo oracle
class NotPSD(BlockspectraError):
    """Entry covariance fails sampling-grade positive semidefiniteness."""


class OrderTooLarge(BlockspectraError):
    """Moment order exceeds the supported bound."""


class InvariantViolation(BlockspectraError):
    """A posted output invariant (mass, positivity) failed on a result."""


# CLI / configs
class ParseError(BlockspectraError):
    """Config text is not well-formed JSON."""


class ValidationError(BlockspectraError):
    """Config is well-formed but semantically invalid."""

    def __init__(self, field, message=None):
        self.field = field
        super().__init__(message or f"invalid config field: {field}")


class IoError(BlockspectraError):
    """Artifact could not be written."""
