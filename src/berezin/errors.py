"""Exception hierarchy for the berezin package."""


class BerezinError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(BerezinError):
    """Input outside the mathematical domain of an operation."""


class TruncationError(BerezinError):
    """Requested series truncation is too short for the operation."""


class TruncationOverflow(BerezinError):
    """Requested truncation exceeds the configured maximum."""


class SingularPoint(BerezinError):
    """Evaluation point coincides with a singular center."""


class SchemaError(BerezinError):
    """Malformed serialized document; message carries the field path."""


class OutOfRange(BerezinError):
    """Evaluation point beyond the reach the numeric transform serves."""


class NonConvergence(BerezinError):
    """Successive refinements or iterations failed to converge."""


class ZeroInput(BerezinError):
    """Operation received an input that is numerically zero."""


class PencilFailure(BerezinError):
    """Matrix-pencil eigenvalues are inconsistent with nodes in the disk."""


class IllConditioned(BerezinError):
    """Problem is too ill-conditioned to solve at the working precision."""


class NotRankOne(BerezinError):
    """Operation requires a transform of numerical rank one."""


class NoDiskDenominator(BerezinError):
    """No admissible denominator root inside the disk; input is outside
    the class of rank-one transforms this factorization covers."""


class DegenerateNode(BerezinError):
    """Node with all coefficients zero cannot be decomposed."""
