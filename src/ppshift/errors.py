"""Exception types shared across the package.

Precondition violations all derive from PreconditionError so the CLI
can map them to a single exit code; budget refusals are separate.
"""


class PPShiftError(Exception):
    """Base class for package errors."""


class PreconditionError(PPShiftError, ValueError):
    """An operation was called outside its declared domain."""


class NonPrimeError(PreconditionError):
    """Field characteristic is not prime."""


class NotIrreducibleError(PreconditionError):
    """Supplied modulus is not monic irreducible of the right degree."""


class CapExceededError(PreconditionError):
    """Requested field size exceeds the cap of a construction or procedure."""


class NotADivisorError(PreconditionError):
    """Requested root-of-unity order does not divide q - 1."""


class BadExponentError(PreconditionError):
    """Exponent m outside the valid range [2, p - 1]."""


class NotRootOfUnityError(PreconditionError):
    """Element b is not a root of unity of the required order."""


class OutOfRangeError(PreconditionError):
    """Parameter outside the range a statement declares."""


class DimensionMismatchError(PreconditionError):
    """Operands live in different ambient spaces or fields."""


class NotAPermutationError(PreconditionError):
    """Polynomial is not a permutation of the field."""


class DegenerateParametersError(PreconditionError):
    """Parameter derivation would divide by zero."""


class NotConstructibleError(PreconditionError):
    """Family instance does not satisfy both existence conditions."""


class BudgetExceededError(PPShiftError):
    """Candidate count exceeds the enumeration budget."""
