"""Linear forms and the one balanced-ratio type.

Every statement this package checks is built from integer-affine forms
``coeff*n + offset`` of a sweep variable n.  A ``BalancedRatio`` is a pair
of multisets of such forms, read as factorial blocks

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

from dataclasses import dataclass, field


@dataclass(frozen=True)
class LinearForm:
    """The affine map ``n -> coeff*n + offset`` with ``coeff >= 0``."""

    coeff: int
    offset: int = 0

    def __post_init__(self) -> None:
        if self.coeff < 0:
            raise ValueError(f"linear form requires coeff >= 0, got {self.coeff}")

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


def _pairs(forms: tuple[LinearForm, ...]) -> tuple[tuple[int, int], ...]:
    return tuple((f.coeff, f.offset) for f in forms)


@dataclass(frozen=True)
class BalancedRatio:
    """Balanced factorial blocks, plus single (1 - q^g(n)) factors."""

    numerator: tuple[LinearForm, ...]
    denominator: tuple[LinearForm, ...]
    single_num: tuple[LinearForm, ...] = ()
    single_den: tuple[LinearForm, ...] = ()
    # Plain-int views computed once, so the hot loops never touch a
    # LinearForm: the block coefficients (the step-function shape) and the
    # (coeff, offset) pairs of the blocks and of the single factors.
    num_coeffs: tuple[int, ...] = field(init=False, repr=False, compare=False)
    den_coeffs: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _blocks: tuple = field(init=False, repr=False, compare=False)
    _singles: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        num = tuple(f.coeff for f in self.numerator)
        den = tuple(f.coeff for f in self.denominator)
        if sum(num) != sum(den):
            raise ValueError(
                f"unbalanced factorial ratio: coefficient sums {sum(num)} != {sum(den)}"
            )
        object.__setattr__(self, "num_coeffs", num)
        object.__setattr__(self, "den_coeffs", den)
        object.__setattr__(self, "_blocks", (_pairs(self.numerator), _pairs(self.denominator)))
        object.__setattr__(self, "_singles", (_pairs(self.single_num), _pairs(self.single_den)))

    @classmethod
    def from_pairs(cls, numerator, denominator, single_num=(), single_den=()) -> "BalancedRatio":
        """Build from (coeff, offset) pairs, one sequence per multiset."""
        pack = lambda pairs: tuple(LinearForm(c, o) for c, o in pairs)
        return cls(pack(numerator), pack(denominator), pack(single_num), pack(single_den))

    def arguments(self, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Factorial-block arguments at n, validated non-negative."""
        num, den = (tuple(c * n + o for c, o in side) for side in self._blocks)
        for v in num + den:
            if v < 0:
                raise ValueError(f"negative factorial argument {v} at n={n} in {self}")
        return num, den

    def singles(self, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Single-factor arguments at n, unvalidated (the q reading checks them)."""
        return tuple(tuple(c * n + o for c, o in side) for side in self._singles)

    def __str__(self) -> str:
        num = "".join(f"({f})!" for f in self.numerator)
        den = "".join(f"({f})!" for f in self.denominator)
        num += "".join(f"(1-q^({g}))" for g in self.single_num)
        den += "".join(f"(1-q^({g}))" for g in self.single_den)
        return f"{num or '1'}/{den or '1'}"
