"""q-factorial ratio expressions and their cyclotomic-exponent expansion.

A QRatioSpec describes an expression built from two kinds of factor:

    [f(n)]!  = (1-q)(1-q^2)...(1-q^{f(n)})     (q-factorial block)
    (1-q^{g(n)})                               (single factor)

as a numerator/denominator pair of multisets.  Since q^k - 1 factors as
the product of the cyclotomic polynomials of the divisors of k, the whole
expression equals  prod_{d>=2} Phi_d(q)^{e_d}  with

    e_d = sum floor(f_num(n)/d) - sum floor(f_den(n)/d)
        + #{g_num : d | g_num(n)} - #{g_den : d | g_den(n)},

computed by floor sums and divisibility tests only: no polynomial
arithmetic is needed to decide polynomiality.  The expression is a
polynomial exactly when every e_d is non-negative, and the offending d is
the counterexample witness otherwise.

Signs: each (1-q^k) is -(q^k - 1), so a global sign (-1)^(#num - #den)
would be needed in general.  The factor-count balance enforced at
evaluation time pins that sign to +1, which is also exactly the condition
e_1 = 0.

``naive_expand`` is the independent oracle: multiply out every numerator
factor, then divide factor by factor.  Both routes must agree wherever
they are both feasible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd

from .errors import NotPolynomialError
from .forms import LinearForm, form
from .qpoly import DensePoly, cyclotomic

__all__ = [
    "QRatioSpec",
    "CycloExponentVector",
    "exponent_vector",
    "expand",
    "naive_expand",
    "spec_degree",
    "QFamily",
    "FAMILIES",
    "gcd_product_spec",
    "gcd_product_q1_value",
    "qbinomial_spec",
]


@dataclass(frozen=True)
class QRatioSpec:
    """Multisets of q-factorial blocks and single 1-q^k factors."""

    qfact_num: tuple[LinearForm, ...] = ()
    qfact_den: tuple[LinearForm, ...] = ()
    single_num: tuple[LinearForm, ...] = ()
    single_den: tuple[LinearForm, ...] = ()

    @classmethod
    def constant(
        cls,
        qfact_num: tuple[int, ...] = (),
        qfact_den: tuple[int, ...] = (),
        single_num: tuple[int, ...] = (),
        single_den: tuple[int, ...] = (),
    ) -> "QRatioSpec":
        """Spec with fixed integer arguments (coeff-0 forms)."""
        const = lambda vs: tuple(form(0, v) for v in vs)
        return cls(const(qfact_num), const(qfact_den), const(single_num), const(single_den))

    def arguments(self, n: int) -> tuple[list[int], list[int], list[int], list[int]]:
        """Evaluated factor arguments, validated.

        q-factorial arguments must be >= 0 ([0]! is the empty product);
        single-factor arguments must be >= 1 (1 - q^0 = 0 would zero the
        expression).
        """
        qn = [f(n) for f in self.qfact_num]
        qd = [f(n) for f in self.qfact_den]
        sn = [g(n) for g in self.single_num]
        sd = [g(n) for g in self.single_den]
        for v in qn + qd:
            if v < 0:
                raise ValueError(f"negative q-factorial argument {v} at n={n}")
        for v in sn + sd:
            if v < 1:
                raise ValueError(f"single factor argument {v} < 1 at n={n}")
        num_count = sum(qn) + len(sn)
        den_count = sum(qd) + len(sd)
        if num_count != den_count:
            raise ValueError(
                f"sign imbalance at n={n}: {num_count} numerator factors vs "
                f"{den_count} denominator factors"
            )
        return qn, qd, sn, sd

    def max_argument(self, n: int) -> int:
        qn, qd, sn, sd = self.arguments(n)
        return max(qn + qd + sn + sd, default=0)


def spec_degree(spec: QRatioSpec, n: int) -> int:
    """Degree of the expansion (may be computed without expanding)."""
    qn, qd, sn, sd = spec.arguments(n)
    tri = lambda m: m * (m + 1) // 2
    return (
        sum(tri(v) for v in qn)
        - sum(tri(v) for v in qd)
        + sum(sn)
        - sum(sd)
    )


@dataclass(frozen=True)
class CycloExponentVector:
    """Exponents e_d of the cyclotomic factorization, d >= 2.

    Only non-zero exponents are stored; ``bound`` records the largest d
    examined (every e_d with d > bound vanishes identically).
    """

    exponents: dict[int, int]
    bound: int

    def is_polynomial(self) -> bool:
        return all(e >= 0 for e in self.exponents.values())

    def first_negative(self) -> int | None:
        for d in sorted(self.exponents):
            if self.exponents[d] < 0:
                return d
        return None

    def to_json(self) -> dict[str, int]:
        return {str(d): self.exponents[d] for d in sorted(self.exponents)}


def exponent_vector(spec: QRatioSpec, n: int) -> CycloExponentVector:
    """Exact cyclotomic exponents of the expression at n.

    Pure counting: every [m]! block contributes floor(m/d), every single
    factor contributes 1 when d divides its argument.
    """
    qn, qd, sn, sd = spec.arguments(n)
    bound = max(qn + qd + sn + sd, default=0)
    exponents: dict[int, int] = {}
    for d in range(2, bound + 1):
        e = (
            sum(v // d for v in qn)
            - sum(v // d for v in qd)
            + sum(1 for v in sn if v % d == 0)
            - sum(1 for v in sd if v % d == 0)
        )
        if e:
            exponents[d] = e
    return CycloExponentVector(exponents=exponents, bound=bound)


def expand(vector: CycloExponentVector) -> DensePoly:
    """Multiply out prod Phi_d^{e_d}; requires every e_d >= 0.

    The factors Phi_d (each repeated e_d times) are multiplied pairwise in
    a balanced product tree, so most products are between operands of
    similar size, which is where the big-integer multiply behind
    ``DensePoly.__mul__`` is fastest.
    """
    bad = vector.first_negative()
    if bad is not None:
        raise NotPolynomialError(
            f"negative cyclotomic exponent e_{bad} = {vector.exponents[bad]}", d=bad
        )
    factors = [
        cyclotomic(d) for d in sorted(vector.exponents) for _ in range(vector.exponents[d])
    ] or [DensePoly.one()]
    while len(factors) > 1:
        pairs = [x * y for x, y in zip(factors[::2], factors[1::2])]
        factors = pairs + factors[len(pairs) * 2 :]
    return factors[0]


def naive_expand(spec: QRatioSpec, n: int) -> DensePoly:
    """Oracle route: multiply every numerator factor, divide factor-wise.

    Sequential division by 1 - q^j is sound: the full expression is a
    polynomial exactly when every intermediate division is exact.
    """
    qn, qd, sn, sd = spec.arguments(n)
    poly = DensePoly.one()
    for m in qn:
        for j in range(1, m + 1):
            poly = poly.mul_one_minus_power(j)
    for j in sn:
        poly = poly.mul_one_minus_power(j)
    divisors: list[int] = [j for m in qd for j in range(1, m + 1)]
    divisors.extend(sd)
    # large j first keeps intermediate degrees low
    for j in sorted(divisors, reverse=True):
        poly, exact = poly.div_one_minus_power(j)
        if not exact:
            raise NotPolynomialError(f"division by 1-q^{j} leaves a remainder", factor=j)
    return poly


# --------------------------------------------------------------------------
# The gcd-weighted product of two Gaussian binomials
# --------------------------------------------------------------------------

def gcd_product_spec(a: int, b: int, m: int, n: int, use_gcd: bool = True) -> QRatioSpec:
    """Spec of (1-q^w)/(1-q^{m+n}) * [am+bm-1, am]_q * [an+bn, an]_q.

    ``w = gcd(am, m+n)`` for the sharp statement, ``w = am`` for the
    corollary variant.
    """
    if min(a, b, m, n) < 1:
        raise ValueError("a, b, m, n must all be positive")
    w = gcd(a * m, m + n) if use_gcd else a * m
    return QRatioSpec.constant(
        qfact_num=(a * m + b * m - 1, a * n + b * n),
        qfact_den=(a * m, b * m - 1, a * n, b * n),
        single_num=(w,),
        single_den=(m + n,),
    )


def gcd_product_q1_value(a: int, b: int, m: int, n: int, use_gcd: bool = True) -> Fraction:
    """q -> 1 limit of the expression: w/(m+n) * C(am+bm-1, am) * C(an+bn, an)."""
    w = gcd(a * m, m + n) if use_gcd else a * m
    return Fraction(
        w * comb(a * m + b * m - 1, a * m) * comb(a * n + b * n, a * n), m + n
    )


def qbinomial_spec(n: int, k: int) -> QRatioSpec:
    """[n, k]_q as a QRatioSpec (in-range k only)."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n for a spec, got n={n}, k={k}")
    return QRatioSpec.constant(qfact_num=(n,), qfact_den=(k, n - k))


# --------------------------------------------------------------------------
# Named q-expression families swept by the harness
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class QFamily:
    """A q-expression family parameterized by the sweep variable n."""

    id: str
    spec: QRatioSpec
    n_min: int = 1
    description: str = ""


def _family(
    fid: str,
    qfact_num,
    qfact_den,
    single_num=(),
    single_den=(),
    n_min: int = 1,
    description: str = "",
) -> QFamily:
    pack = lambda pairs: tuple(form(c, o) for c, o in pairs)
    return QFamily(
        id=fid,
        spec=QRatioSpec(pack(qfact_num), pack(qfact_den), pack(single_num), pack(single_den)),
        n_min=n_min,
        description=description,
    )


# Base blocks: F(n) = [6n]![n]!/([3n]![2n]!^2), G(n) = [15n]![2n]!/([10n]![4n]![3n]!)
_F_NUM = ((6, 0), (1, 0))
_F_DEN = ((3, 0), (2, 0), (2, 0))
_G_NUM = ((15, 0), (2, 0))
_G_DEN = ((10, 0), (4, 0), (3, 0))

FAMILIES: dict[str, QFamily] = {
    f.id: f
    for f in (
        _family(
            "wz",
            _F_NUM,
            _F_DEN,
            description="[6n]![n]!/([3n]![2n]!^2); non-negative coefficients",
        ),
        _family(
            "wz-15-2",
            _G_NUM,
            _G_DEN,
            description="[15n]![2n]!/([10n]![4n]![3n]!); conjectured non-negative",
        ),
        _family(
            "thm-7.2-1",
            _F_NUM,
            _F_DEN,
            single_num=((0, 1),),
            single_den=((2, 1),),
            description="(1-q) F(n) / (1-q^{2n+1})",
        ),
        _family(
            "thm-7.2-2",
            _F_NUM,
            _F_DEN,
            single_num=((0, 3),),
            single_den=((2, 3),),
            description="(1-q^3) F(n) / (1-q^{2n+3})",
        ),
        _family(
            "thm-7.2-3",
            _F_NUM,
            _F_DEN,
            single_num=((0, 1), (0, 3)),
            single_den=((2, 1), (2, 3)),
            description="(1-q)(1-q^3) F(n) / ((1-q^{2n+1})(1-q^{2n+3}))",
        ),
        _family(
            "thm-7.2-4",
            _F_NUM,
            _F_DEN,
            single_num=((0, 3), (0, 5), (0, 7)),
            single_den=((2, 3), (2, 5), (2, 7)),
            n_min=2,
            description="(1-q^3)(1-q^5)(1-q^7) F(n) / ((1-q^{2n+3})(1-q^{2n+5})(1-q^{2n+7}))",
        ),
        _family(
            "thm-7.2-5",
            _F_NUM,
            _F_DEN,
            single_num=((0, 3), (0, 3), (0, 5), (0, 7)),
            single_den=((2, 1), (2, 3), (2, 5), (2, 7)),
            n_min=2,
            description="(1-q^3)^2(1-q^5)(1-q^7) F(n) / ((1-q^{2n+1})...(1-q^{2n+7}))",
        ),
        _family(
            "thm-7.4-1",
            _G_NUM,
            _G_DEN,
            single_num=((0, 1),),
            single_den=((10, 1),),
            description="(1-q) G(n) / (1-q^{10n+1})",
        ),
        _family(
            "thm-7.4-2",
            _G_NUM,
            _G_DEN,
            single_num=((0, 3), (0, 7)),
            single_den=((0, 1), (10, 3)),
            description="(1-q^3)(1-q^7) G(n) / ((1-q)(1-q^{10n+3}))",
        ),
        _family(
            "q-catalan",
            ((2, 0),),
            ((1, 0), (1, 0)),
            single_num=((0, 1),),
            single_den=((1, 1),),
            description="(1-q)/(1-q^{n+1}) [2n, n]_q",
        ),
    )
}

THM_7_2_FAMILY_IDS = ("thm-7.2-1", "thm-7.2-2", "thm-7.2-3", "thm-7.2-4", "thm-7.2-5")
THM_7_4_FAMILY_IDS = ("thm-7.4-1", "thm-7.4-2")
