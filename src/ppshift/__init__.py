"""Shift operators on zero-fixing polynomials over small finite fields.

Exact-arithmetic toolkit: F_{p^n} contexts with reproducible element
encodings, the polynomial space V[x] of zero-fixing polynomials of
degree <= q-2, the commuting family of shift operators f(x) ->
f(x+r) - f(r) with their generalized eigenspaces, permutation-
polynomial oracles, and a parametric family over F_{p^2} with
closed-form compositional inverses.
"""

from .errors import (
    BadExponentError,
    BudgetExceededError,
    CapExceededError,
    DegenerateParametersError,
    DimensionMismatchError,
    NonPrimeError,
    NotADivisorError,
    NotAPermutationError,
    NotConstructibleError,
    NotIrreducibleError,
    NotRootOfUnityError,
    OutOfRangeError,
    PPShiftError,
    PreconditionError,
)
from .gf import FieldContext, Line, build_field, line_count, line_decomposition, roots_of_unity

__version__ = "0.1.0"
