"""Linear forms and the one balanced-ratio type.

Every statement this package checks is built from integer-affine forms
``coeff*n + offset`` of a sweep variable n.  A ``LinearForm`` is the
(coeff, offset) pair itself, a named tuple: it compares equal to, and
unpacks like, the plain pair.  A ``BalancedRatio`` is a pair of
multisets of such forms, built from any (coeff, offset) pairs and read
as factorial blocks

    prod (a_i*n + d_i)!  /  prod (b_j*n + e_j)!

together with optional single factors (1 - q^{g(n)}) above and below the
line, which only the q reading uses.  The blocks are degree-balanced: the
coefficient sums agree on both sides, which is validated at construction.
The paper reads this one object in three ways, each coded once as a
module-level function of the type:

- its step value F(x) = sum floor(a_i x) - sum floor(b_j x), in ``floors``
  (``value_at``, ``landau_min``);
- its Legendre order, in ``valuation.ratio_ord``: for zero offsets,
  ord_p = sum_{k>=1} F(n/p^k);
- its cyclotomic exponent, in ``qratio.exponent_vector``: for zero-offset
  blocks, e_d = F(n/d) plus or minus the single factors that d divides.

Forms with ``coeff == 0`` (pure constants) are allowed; argument
non-negativity is checked per evaluation, not per construction.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field


class LinearForm(namedtuple("LinearForm", "coeff offset")):
    """The affine map ``n -> coeff*n + offset`` with ``coeff >= 0``, as a (coeff, offset) pair."""

    __slots__ = ()

    def __new__(cls, coeff: int, offset: int = 0) -> "LinearForm":
        if coeff < 0:
            raise ValueError(f"linear form requires coeff >= 0, got {coeff}")
        return tuple.__new__(cls, (coeff, offset))

    @classmethod
    def _make(cls, iterable) -> "LinearForm":  # namedtuple's _make and _replace skip __new__
        return cls(*iterable)

    def __call__(self, n: int) -> int:
        return self.coeff * n + self.offset

    def __str__(self) -> str:
        if self.coeff == 0:
            return str(self.offset)
        head = "n" if self.coeff == 1 else f"{self.coeff}n"
        return head if self.offset == 0 else f"{head}{self.offset:+d}"


def form(coeff: int, offset: int = 0) -> LinearForm:
    """Shorthand constructor used throughout the registries."""
    return LinearForm(coeff, offset)


@dataclass(frozen=True)
class BalancedRatio:
    """Balanced factorial blocks and single (1 - q^g(n)) factors; each side a LinearForm tuple."""

    numerator: tuple[LinearForm, ...]
    denominator: tuple[LinearForm, ...]
    single_num: tuple[LinearForm, ...] = ()
    single_den: tuple[LinearForm, ...] = ()
    # Block coefficients (the step-function shape), computed once for the hot loops.
    num_coeffs: tuple[int, ...] = field(init=False, repr=False, compare=False)
    den_coeffs: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for side in ("numerator", "denominator", "single_num", "single_den"):
            object.__setattr__(self, side, tuple(LinearForm(*p) for p in getattr(self, side)))
        num = tuple(c for c, _ in self.numerator)
        den = tuple(c for c, _ in self.denominator)
        if sum(num) != sum(den):
            raise ValueError(
                f"unbalanced factorial ratio: coefficient sums {sum(num)} != {sum(den)}"
            )
        object.__setattr__(self, "num_coeffs", num)
        object.__setattr__(self, "den_coeffs", den)

    def arguments(self, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Factorial-block arguments at n, validated non-negative."""
        num = tuple([c * n + o for c, o in self.numerator])
        den = tuple([c * n + o for c, o in self.denominator])
        for v in num + den:
            if v < 0:
                raise ValueError(f"negative factorial argument {v} at n={n} in {self}")
        return num, den

    def singles(self, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Single-factor arguments at n, unvalidated (the q reading checks them)."""
        return tuple([tuple([c * n + o for c, o in s]) for s in (self.single_num, self.single_den)])

    def __str__(self) -> str:
        num = "".join(f"({f})!" for f in self.numerator)
        den = "".join(f"({f})!" for f in self.denominator)
        num += "".join(f"(1-q^({g}))" for g in self.single_num)
        den += "".join(f"(1-q^({g}))" for g in self.single_den)
        return f"{num or '1'}/{den or '1'}"
