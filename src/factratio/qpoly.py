"""Dense integer polynomials in q: cyclotomics, Gaussian binomials,
and the reciprocal/unimodal/non-negative predicate suite.

Coefficients are arbitrary-precision integers stored ascending; the
canonical form has no trailing zeros, and the zero polynomial is the
empty tuple with degree -1.  All arithmetic is exact; there is no
floating point anywhere in this module.

General multiplication is Kronecker substitution: a polynomial can hold its
coefficients as slots, one k-byte offset-binary slot per coefficient, and a
product of two polynomials is formed with one big-integer multiply and stays
in slots.  A chain of products therefore never converts its intermediate
results to Python ints; the coefficient tuple is read out of the slots once,
the first time someone asks for ``coeffs``.  ``first_negative_index``,
``is_reciprocal`` and ``coefficient_sum`` read only the slots' bytes, and a
polynomial held as a tuple is packed for them on first use.  Factors of the
shape 1 - q^j get dedicated O(length) multiply/divide kernels, since every
q-expression in the package is a ratio of products of such factors; the
cyclotomic polynomials are built from them too, by the Moebius product.
There is no division by a general polynomial.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from operator import sub

from .errors import InternalCheckError, NotPolynomialError
from .valuation import factorize


def _check_power(j: int) -> None:
    if j < 1:
        raise ValueError(f"need j >= 1, got {j}")


class DensePoly:
    """Immutable dense polynomial over the integers.

    It holds its coefficient tuple, its Kronecker slots ``(bytes, k)``, or
    both once either has been derived from the other.  A slot is the
    offset-binary byte string of c + 2^(8k-1), little-endian, with
    -2^(8k-1) <= c < 2^(8k-1).  The last slot holds a nonzero coefficient;
    the zero polynomial packs to ``(b"", 1)``.
    """

    __slots__ = ("_coeffs", "_slots")

    def __init__(self, coeffs=()):  # trailing zeros trimmed
        cs = tuple(coeffs)
        end = len(cs)
        while end and cs[end - 1] == 0:
            end -= 1
        object.__setattr__(self, "_coeffs", cs[:end])
        object.__setattr__(self, "_slots", None)

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
    def _from_slots(cls, data: bytes, k: int) -> "DensePoly":
        poly = object.__new__(cls)
        object.__setattr__(poly, "_coeffs", None)
        object.__setattr__(poly, "_slots", (data, k))
        return poly

    # -- representations -----------------------------------------------------

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Ascending coefficients; read out of the slots on first use."""
        cs = self._coeffs
        if cs is None:
            cs = _unpack(*self._slots)
            object.__setattr__(self, "_coeffs", cs)
        return cs

    def _packed(self) -> tuple[bytes, int]:
        """The slots, packed on first use."""
        slots = self._slots
        if slots is None:
            cs = self._coeffs
            k = max(map(abs, cs), default=0).bit_length() // 8 + 1  # |c| < 2^(8k-1)
            half = 1 << (8 * k - 1)
            slots = (b"".join([(c + half).to_bytes(k, "little") for c in cs]), k)
            object.__setattr__(self, "_slots", slots)
        return slots

    def _length(self) -> int:
        cs = self._coeffs
        if cs is None:
            data, k = self._slots
            return len(data) // k
        return len(cs)

    # -- basics ------------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 is the zero polynomial's sentinel."""
        return self._length() - 1

    def __bool__(self) -> bool:
        return bool(self._length())

    def __eq__(self, other) -> bool:
        return isinstance(other, DensePoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __getitem__(self, i: int) -> int:
        cs = self.coeffs
        return cs[i] if 0 <= i < len(cs) else 0

    def __repr__(self) -> str:
        return f"DensePoly({list(self.coeffs)!r})"

    # -- arithmetic ----------------------------------------------------------

    def __mul__(self, other: "DensePoly") -> "DensePoly":
        """Exact product by Kronecker substitution; the result stays packed.

        With X = 2^(8k), each operand's slots are widened to k bytes and read
        as one integer, sum (c_i + 2^(8ka-1)) X^i, from which the offsets are
        subtracted; one big-integer multiply then forms every coefficient at
        once.  k leaves a sign bit above the largest product coefficient the
        operands' slot widths allow, min(len a, len b) 2^(8ka-1) 2^(8kb-1).
        Adding 2^(8k-1) per slot makes every base-X digit of the product
        non-negative and smaller than X, so no slot borrows from its
        neighbour and the digits are the product's offset-binary slots.
        They are narrowed to the fewest bytes that hold every coefficient.
        The leading coefficient is the product of two nonzero ones, so the
        product needs no trimming.
        """
        la, lb = self._length(), other._length()
        if not la or not lb:
            return DensePoly.zero()
        da, ka = self._packed()
        db, kb = other._packed()
        k = (min(la, lb) << (8 * (ka + kb) - 2)).bit_length() // 8 + 1
        n = la + lb - 1
        product = _widen(da, ka, la, k) * _widen(db, kb, lb, k)
        data = (product + _offsets(n, k, k)).to_bytes(k * n, "little")
        return DensePoly._from_slots(*_narrow(data, k))

    def mul_one_minus_power(self, j: int) -> "DensePoly":
        """self * (1 - q^j) in one pass: coefficient i is c_i - c_{i-j}."""
        _check_power(j)
        if not self:
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
        if not self:
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

    def coefficient_sum(self) -> int:
        """The value at q = 1, read from the slots without unpacking them.

        It is sum_t 256^t sum(byte plane t) minus the offsets, len 2^(8k-1).
        """
        data, k = self._packed()
        planes = sum(sum(data[t::k]) << (8 * t) for t in range(k))
        return planes - (len(data) // k << (8 * k - 1))

    def to_json_coeffs(self) -> list[str]:
        """Ascending coefficients as decimal strings."""
        return [str(c) for c in self.coeffs]


# Kronecker slots.  In offset binary the top byte of a slot is the top byte
# of the coefficient's two's complement with its high bit flipped.
_FLIP = bytes(b ^ 0x80 for b in range(256))
_SIGN_FILL = bytes(0 if b < 0x80 else 0xFF for b in range(256))
_NEGATIVE = bytes(b < 0x80 for b in range(256))  # 1 on the top byte of c < 0


def _offsets(n: int, kd: int, k: int) -> int:
    """sum 2^(8kd-1) 2^(8ki) over i < n: the offsets of kd-byte slots set k bytes apart."""
    return int.from_bytes((bytes(kd - 1) + b"\x80" + bytes(k - kd)) * n, "little")


def _widen(data: bytes, kd: int, n: int, k: int) -> int:
    """sum c_i 2^(8ki) for the n coefficients held in kd-byte slots (kd <= k)."""
    if kd < k:
        buf = bytearray(k * n)
        for t in range(kd):
            buf[t::k] = data[t::kd]
        data = buf
    return int.from_bytes(data, "little") - _offsets(n, kd, k)


def _narrow(data: bytes, k: int) -> tuple[bytes, int]:
    """The same coefficients in the fewest bytes per slot.

    A slot can lose its top byte when that byte of the two's complement is
    the sign extension of the byte below it; each test covers every slot at
    once through strided slices and ``bytes.translate``.
    """
    top = data[k - 1 :: k].translate(_FLIP)  # two's complement top bytes
    w = k
    while w > 1 and top == data[w - 2 :: k].translate(_SIGN_FILL):
        w -= 1
        top = data[w - 1 :: k]
    if w == k:
        return data, k
    buf = bytearray(len(data) // k * w)
    for t in range(w - 1):
        buf[t::w] = data[t::k]
    buf[w - 1 :: w] = top.translate(_FLIP)
    return bytes(buf), w


def _unpack(data: bytes, k: int) -> tuple[int, ...]:
    """The coefficients held in k-byte offset-binary slots."""
    half = 1 << (8 * k - 1)
    return tuple(
        [int.from_bytes(data[i : i + k], "little") - half for i in range(0, len(data), k)]
    )


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

# These read a polynomial's slots, packing a tuple-held one on first use, and
# never unpack them: slots are equal exactly when all their bytes are, and a
# coefficient is negative exactly when its slot's top byte is below 0x80.

def is_reciprocal(p: DensePoly) -> bool:
    """p_i == p_{d-i} for all i; vacuously true for the zero polynomial.

    Read from the slots: every strided byte plane is a palindrome.
    """
    data, k = p._packed()
    return all(plane == plane[::-1] for plane in (data[t::k] for t in range(k)))


def is_nonnegative(p: DensePoly) -> bool:
    return first_negative_index(p) is None


def first_negative_index(p: DensePoly) -> int | None:
    """Index of the first negative coefficient, or None.

    Read from the slots: the first top byte below 0x80.
    """
    data, k = p._packed()
    i = data[k - 1 :: k].translate(_NEGATIVE).find(1)
    return i if i >= 0 else None


def unimodality_witness(p: DensePoly) -> int | None:
    """Index breaking 0 <= p_0 <= ... <= p_r >= ... >= p_d >= 0, else None.

    A negative coefficient breaks the chain immediately (the definition
    requires non-negativity), and its index is the witness.
    """
    neg = first_negative_index(p)
    if neg is not None:
        return neg
    cs = p.coeffs
    falling = False
    for i in range(1, len(cs)):
        if cs[i] > cs[i - 1]:
            if falling:
                return i
        elif cs[i] < cs[i - 1]:
            falling = True
    return None


def is_unimodal(p: DensePoly) -> bool:
    return unimodality_witness(p) is None

