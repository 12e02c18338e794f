"""Exception types shared across the package."""


class ChevElemError(Exception):
    """Base class for all package errors."""


class BaseMismatch(ChevElemError):
    """Operands live over different base rings or variable counts."""


class ParseError(ChevElemError):
    """Malformed polynomial text or input file."""


class RankTooLow(ChevElemError):
    """Root system rank below 2; rank-1 groups are not supported."""


class UnsupportedType(ChevElemError):
    """Root system type that is no key of rootdata.FORM_SIGN, the table
    every type's model is read off (A and C)."""


class UnknownRoot(ChevElemError):
    """Vector is not a root of the given root system."""


class ProportionalRoots(ChevElemError):
    """Commutator expansion needs a non-proportional root pair."""


class DegreeOverflow(ChevElemError):
    """A total degree past exactring.MAX_DEGREE, the packed monomials' cap."""


class NotAUnit(ChevElemError):
    """Element is not invertible in the base ring."""


class SizeMismatch(ChevElemError):
    """Matrix size does not match the root system's matrix model."""


class PreconditionViolated(ChevElemError):
    """Operation preconditions do not hold for the given inputs."""


class DescentBudgetExceeded(ChevElemError):
    """Descent search exhausted its budget; no word is emitted."""


class CoveringInconsistent(ChevElemError):
    """Covering data fails its unit-ideal or consistency checks."""


class NotInGroup(ChevElemError):
    """Matrix fails the group-membership invariant (det or form check)."""


class InternalCheckFailed(ChevElemError):
    """A word the program built failed its own exact multiply-back: a fault
    in the program, never a verdict on the input."""


class NotFactored(ChevElemError):
    """The search ended without a certificate: it stalled or spent its budget.

    The search found no word; this is never a disproof of membership.
    """
