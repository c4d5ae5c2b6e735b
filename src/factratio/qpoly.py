"""Dense integer polynomials in q: cyclotomics, Gaussian binomials,
and the reciprocal/unimodal/non-negative predicate suite.

Coefficients are arbitrary-precision integers stored ascending; the
canonical form has no trailing zeros, and the zero polynomial is the
empty tuple with degree -1.  All arithmetic is exact; there is no
floating point anywhere in this module.

General multiplication is Kronecker substitution: both operands are
packed into single integers with one byte-aligned slot per coefficient,
multiplied once with Python's big-integer multiply, and the product's
coefficients are read back from the slots.  Factors of the shape 1 - q^j
get dedicated O(length) multiply/divide kernels, since every q-expression
in the package is a ratio of products of such factors; the cyclotomic
polynomials are built from them too, by the Moebius product.  There is no
division by a general polynomial.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from operator import sub

from .errors import InternalCheckError, NotPolynomialError, PreconditionError
from .valuation import factorize


def _check_power(j: int) -> None:
    if j < 1:
        raise ValueError(f"need j >= 1, got {j}")


class DensePoly:
    """Immutable dense polynomial over the integers."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):  # trailing zeros trimmed
        cs = tuple(coeffs)
        end = len(cs)
        while end and cs[end - 1] == 0:
            end -= 1
        object.__setattr__(self, "coeffs", cs[:end])

    def __setattr__(self, name, value):
        raise AttributeError("DensePoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "DensePoly":
        return cls(())

    @classmethod
    def one(cls) -> "DensePoly":
        return cls((1,))

    @classmethod
    def one_minus_power(cls, j: int) -> "DensePoly":
        """1 - q^j (j >= 1)."""
        _check_power(j)
        return cls((1,) + (0,) * (j - 1) + (-1,))

    # -- basics ------------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 is the zero polynomial's sentinel."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, DensePoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __repr__(self) -> str:
        return f"DensePoly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                term = str(mag)
            else:
                base = "q" if i == 1 else f"q^{i}"
                term = base if mag == 1 else f"{mag}*{base}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(("+ " if c > 0 else "- ") + term)
        return " ".join(parts)

    # -- arithmetic ----------------------------------------------------------

    def __neg__(self) -> "DensePoly":
        return DensePoly(tuple(-c for c in self.coeffs))

    def __add__(self, other: "DensePoly") -> "DensePoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return DensePoly(out)

    def __sub__(self, other: "DensePoly") -> "DensePoly":
        return self + (-other)

    def __mul__(self, other: "DensePoly") -> "DensePoly":
        """Exact product by Kronecker substitution.

        Each operand is packed into one integer, sum c_i 2^(w i), with
        byte-aligned w-bit slots; w leaves a sign bit above the largest
        possible product coefficient, min(len a, len b) max|a| max|b|.
        One big-integer multiply then forms every coefficient at once.
        Adding 2^(w-1) to each slot makes every digit of the product
        non-negative and smaller than 2^w, so no slot borrows from its
        neighbour, and each coefficient is its slot minus 2^(w-1).
        """
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return DensePoly.zero()
        bound = min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b))
        k = bound.bit_length() // 8 + 1  # slot bytes: bound < 2^(8k-1)
        n = len(a) + len(b) - 1
        packed = _pack(a, k) * _pack(b, k)
        offset = int.from_bytes((bytes(k - 1) + b"\x80") * n, "little")
        data = (packed + offset).to_bytes(k * n, "little")
        half = 1 << (8 * k - 1)
        return DensePoly(
            [int.from_bytes(data[i : i + k], "little") - half for i in range(0, k * n, k)]
        )

    def mul_one_minus_power(self, j: int) -> "DensePoly":
        """self * (1 - q^j) in one pass: coefficient i is c_i - c_{i-j}."""
        _check_power(j)
        if self.is_zero():
            return self
        pad = (0,) * j
        return DensePoly(map(sub, self.coeffs + pad, pad + self.coeffs))

    def div_one_minus_power(self, j: int) -> tuple["DensePoly", bool]:
        """(quotient, exact) for division by 1 - q^j, in O(length).

        Coefficient recurrence: q_i = n_i + q_{i-j}, so within each residue
        class mod j the quotient is the running sum of the numerator.  The
        division is exact when the sums vanish beyond the quotient's degree;
        otherwise the quotient is the partial one below that degree.
        """
        _check_power(j)
        if self.is_zero():
            return self, True
        n = self.coeffs
        qlen = len(n) - j
        if qlen <= 0:
            return DensePoly.zero(), False
        out = [0] * len(n)
        for r in range(j):
            out[r::j] = accumulate(n[r::j])
        return DensePoly(out[:qlen]), not any(out[qlen:])

    # -- evaluation / serialization ----------------------------------------

    def evaluate(self, x):
        """Value at x by Horner's rule; x may be int or Fraction."""
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def coefficient_sum(self) -> int:
        return sum(self.coeffs)

    def to_json_coeffs(self) -> list[str]:
        """Ascending coefficients as decimal strings."""
        return [str(c) for c in self.coeffs]


def _pack(coeffs: tuple[int, ...], k: int) -> int:
    """sum c_i 2^(8k i) for signed c_i with |c_i| < 2^(8k)."""
    pos = b"".join([(c if c > 0 else 0).to_bytes(k, "little") for c in coeffs])
    neg = b"".join([(-c if c < 0 else 0).to_bytes(k, "little") for c in coeffs])
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


# --------------------------------------------------------------------------
# Cyclotomic polynomials
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def cyclotomic(d: int) -> DensePoly:
    """d-th cyclotomic polynomial.

    Phi_1 = q - 1; for d > 1 the Moebius product
    Phi_d = prod_{k | d} (1 - q^k)^mu(d/k), over the k with d/k squarefree.
    """
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    if d == 1:
        return DensePoly((-1, 1))
    factors = [(d, 1)]  # (k, mu(d/k))
    for p in factorize(d):
        factors += [(k // p, -mu) for k, mu in factors]
    poly = DensePoly.one()
    for k, mu in factors:
        if mu > 0:
            poly = poly.mul_one_minus_power(k)
    for k, mu in factors:
        if mu < 0:
            poly, exact = poly.div_one_minus_power(k)
            if not exact:
                raise InternalCheckError(f"Moebius product for Phi_{d} does not divide")
    return poly


def qbinomial(n: int, k: int) -> DensePoly:
    """Gaussian binomial coefficient as a polynomial of degree k(n-k).

    Out-of-range k gives the zero polynomial, matching the defining
    convention.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if k < 0 or k > n:
        return DensePoly.zero()
    k = min(k, n - k)
    poly = DensePoly.one()
    for j in range(n - k + 1, n + 1):
        poly = poly.mul_one_minus_power(j)
    for j in range(1, k + 1):
        poly, exact = poly.div_one_minus_power(j)
        if not exact:
            raise NotPolynomialError(f"Gaussian binomial [{n},{k}] build failed", factor=j)
    return poly


# --------------------------------------------------------------------------
# Coefficient predicates
# --------------------------------------------------------------------------

def is_reciprocal(p: DensePoly) -> bool:
    """p_i == p_{d-i} for all i; vacuously true for the zero polynomial."""
    return p.coeffs == p.coeffs[::-1]


def is_nonnegative(p: DensePoly) -> bool:
    return first_negative_index(p) is None


def first_negative_index(p: DensePoly) -> int | None:
    for i, c in enumerate(p.coeffs):
        if c < 0:
            return i
    return None


def unimodality_witness(p: DensePoly) -> int | None:
    """Index breaking 0 <= p_0 <= ... <= p_r >= ... >= p_d >= 0, else None.

    A negative coefficient breaks the chain immediately (the definition
    requires non-negativity), and its index is the witness.
    """
    neg = first_negative_index(p)
    if neg is not None:
        return neg
    falling = False
    for i in range(1, len(p.coeffs)):
        if p.coeffs[i] > p.coeffs[i - 1]:
            if falling:
                return i
        elif p.coeffs[i] < p.coeffs[i - 1]:
            falling = True
    return None


def is_unimodal(p: DensePoly) -> bool:
    return unimodality_witness(p) is None


# --------------------------------------------------------------------------
# The reciprocal-unimodal quotient filter
# --------------------------------------------------------------------------

def rsw_filter(p: DensePoly, m: int, n: int) -> DensePoly:
    """(1 - q^m)/(1 - q^n) * p for reciprocal unimodal p with m <= n.

    When the division is exact the quotient provably has non-negative
    coefficients, so that conclusion is enforced as a post-condition.
    Inexact division raises NotPolynomialError; precondition violations
    raise PreconditionError.
    """
    if m < 1 or n < 1 or m > n:
        raise PreconditionError(f"need 1 <= m <= n, got m={m}, n={n}")
    if not is_reciprocal(p):
        raise PreconditionError("input polynomial is not reciprocal")
    if not is_unimodal(p):
        raise PreconditionError("input polynomial is not unimodal")
    scaled = p.mul_one_minus_power(m)
    quot, exact = scaled.div_one_minus_power(n)
    if not exact:
        raise NotPolynomialError(f"(1-q^{m})/(1-q^{n}) does not divide", factor=n)
    bad = first_negative_index(quot)
    if bad is not None:
        raise InternalCheckError(
            f"reciprocal-unimodal quotient has negative coefficient at index {bad}"
        )
    return quot


def q_catalan(n: int) -> DensePoly:
    """q-Catalan polynomial (1 - q)/(1 - q^{n+1}) * [2n, n]_q.

    Specializes to the Catalan number C(2n,n)/(n+1) at q = 1.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if n == 0:
        return DensePoly.one()
    return rsw_filter(qbinomial(2 * n, n), 1, n + 1)
