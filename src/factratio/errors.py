"""Exception types shared across the package."""

from __future__ import annotations


class UsageError(ValueError):
    """Invalid user input: unknown claim id, out-of-cap range, bad format."""


class PreconditionError(ValueError):
    """A check was invoked outside its stated domain.

    Distinct from a check returning False: a call outside the domain is a
    caller's error, never a failed check.
    """


class NotPolynomialError(ArithmeticError):
    """A q-expression failed to reduce to a polynomial.

    Carries the witness: either the cyclotomic index ``d`` with a negative
    exponent, or the ``1 - q^factor`` divisor that left a remainder.
    """

    def __init__(self, message: str, *, d: int | None = None, factor: int | None = None):
        super().__init__(message)
        self.d = d
        self.factor = factor


class InternalCheckError(RuntimeError):
    """The verifier itself failed: two independent evaluation routes
    disagreed, a value that must be an exact integer was not, or a worker
    process died."""
