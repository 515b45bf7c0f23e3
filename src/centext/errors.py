"""Exception types shared across the package.

Validation failures carry a witness (the first offending tuple found) so
callers can report *why* a table was rejected, not just that it was.
"""


class GroupValidationError(ValueError):
    """Base class for Cayley table rejections."""


class NoIdentityAtZero(GroupValidationError):
    """Element 0 does not act as a two-sided identity."""


class NotLatinSquare(GroupValidationError):
    """Some row or column repeats an entry."""


class NonAssociative(GroupValidationError):
    """Found (a*b)*c != a*(b*c)."""


class NotAbelian(ValueError):
    """Operation requires a commutative group."""


class NotAbelianCoefficients(NotAbelian):
    """Cohomology coefficients must be abelian."""


class NotNormalized(ValueError):
    """Map or cocycle fails its normalization convention."""


class GroupMismatch(ValueError):
    """Objects built over different groups were combined."""


class DimensionMismatch(ValueError):
    """Matrix or vector shapes are incompatible."""


class SizeLimitExceeded(RuntimeError):
    """A search or solve exceeded the configured budget."""

    def __init__(self, message, limit=None, needed=None):
        super().__init__(message)
        self.limit = limit
        self.needed = needed


class PreconditionViolated(ValueError):
    """Input fails a documented requirement of the procedure."""


class HypothesisNotVerified(RuntimeError):
    """A verdict rests on coboundary-triviality of the quotient, which
    sim_is_trivial shows fails for the given quotient: a necessary
    condition failed where the statement is not proved, or a negative
    could not be settled by other means."""


class NotLowerIso(ValueError):
    """Certificate construction: the given data is not a lower isomorphism."""


class NotG1Iso(ValueError):
    """Certificate construction: the given data is not a G1-style isomorphism."""


class NotG2Iso(ValueError):
    """Certificate construction: the given data is not a G2-style isomorphism."""


class ConditionsFailed(ValueError):
    """Certificate construction: the criterion's conditions do not hold."""


class InternalInconsistency(RuntimeError):
    """A self-check of the library failed: a computed object does not
    have a property that its construction proves.  This is a defect of
    the library, never a verdict about the input."""
