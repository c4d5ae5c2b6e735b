"""The q reading of a balanced ratio: its cyclotomic-exponent expansion.

A ``forms.BalancedRatio`` read over q has two kinds of factor:

    [f(n)]!  = (1-q)(1-q^2)...(1-q^{f(n)})     (factorial block)
    (1-q^{g(n)})                               (single factor)

as a numerator/denominator pair of multisets.  Since q^k - 1 factors as
the product of the cyclotomic polynomials of the divisors of k, the whole
expression equals  prod_{d>=2} Phi_d(q)^{e_d}  with

    e_d = sum floor(f_num(n)/d) - sum floor(f_den(n)/d)
        + #{g_num : d | g_num(n)} - #{g_den : d | g_den(n)},

computed by floor sums and divisibility tests only: no polynomial
arithmetic is needed to decide polynomiality.  For zero-offset blocks the
floor part is the step value F(n/d) of ``floors.value_at``.  The
expression is a polynomial exactly when every e_d is non-negative, and the
offending d is the counterexample witness otherwise.

Signs: each (1-q^k) is -(q^k - 1), so a global sign (-1)^(#num - #den)
would be needed in general.  The factor-count balance enforced at
evaluation time pins that sign to +1, which is also exactly the condition
e_1 = 0.

``expand_many`` multiplies out the Phi_d products of several vectors at
once: the families swept at one n share most of their factors, so the part
they have in common is expanded once and each family's few remaining
factors are multiplied onto it.  ``expand`` is its one-vector case.

``naive_expand`` is the independent oracle: cancel the factors numerator
and denominator share, multiply out the rest of the numerator, then divide
factor by factor.  It uses neither ``cyclotomic`` nor general
multiplication.  Both routes must agree wherever they are both feasible.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb, gcd
from operator import add, sub

from .errors import NotPolynomialError
from .floors import STEP_6_1, STEP_15_2, step
from .forms import BalancedRatio
from .qpoly import DensePoly, cyclotomic

def _q_arguments(spec: BalancedRatio, n: int):
    """Block and single-factor arguments at n, validated for the q reading.

    Block arguments must be >= 0 ([0]! is the empty product; checked by
    ``spec.arguments``); single-factor arguments must be >= 1 (1 - q^0 = 0
    would zero the expression); and the factor counts must balance.
    """
    qn, qd = spec.arguments(n)
    sn, sd = spec.singles(n)
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


def spec_degree(spec: BalancedRatio, n: int) -> int:
    """Degree of the expansion (may be computed without expanding)."""
    qn, qd, sn, sd = _q_arguments(spec, n)
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

    Only non-zero exponents are stored.
    """

    exponents: dict[int, int]

    def is_polynomial(self) -> bool:
        return all(e >= 0 for e in self.exponents.values())

    def first_negative(self) -> int | None:
        for d in sorted(self.exponents):
            if self.exponents[d] < 0:
                return d
        return None

    def to_json(self) -> dict[str, int]:
        return {str(d): self.exponents[d] for d in sorted(self.exponents)}


def exponent_vector(spec: BalancedRatio, n: int) -> CycloExponentVector:
    """Exact cyclotomic exponents of the expression at n.

    Pure counting: every [m]! block contributes floor(m/d) to each e_d, in
    one list pass over d per block, and every single factor contributes 1
    to e_d for each divisor d >= 2 of its argument.
    """
    qn, qd, sn, sd = _q_arguments(spec, n)
    bound = max(qn + qd + sn + sd, default=0)
    ds = range(2, bound + 1)
    e = [0] * len(ds)  # e[d - 2] = e_d
    for blocks, op in ((qn, add), (qd, sub)):
        for v in blocks:
            e = list(map(op, e, [v // d for d in ds]))
    for singles, sign in ((sn, 1), (sd, -1)):
        for v in singles:
            for d in range(2, v + 1):
                if v % d == 0:
                    e[d - 2] += sign
    exponents = {d: x for d, x in zip(ds, e) if x}
    return CycloExponentVector(exponents=exponents)


def _tree_product(factors: list[DensePoly]) -> list[DensePoly]:
    """The product of factors as a one-element list, or [] for no factors.

    Factors are multiplied pairwise in a balanced product tree, so most
    products are between operands of similar size, which is where the
    big-integer multiply behind ``DensePoly.__mul__`` is fastest.
    """
    while len(factors) > 1:
        pairs = [x * y for x, y in zip(factors[::2], factors[1::2])]
        factors = pairs + factors[len(pairs) * 2 :]
    return factors


def _cyclotomic_factors(pairs) -> list[DensePoly]:
    """Phi_d repeated e_d times, for the (d, e_d) pairs in ascending d."""
    return [cyclotomic(d) for d, e in sorted(pairs) for _ in range(e)]


def expand_many(vectors: list[CycloExponentVector]) -> list[DensePoly]:
    """Multiply out prod Phi_d^{e_d} for each vector; requires every e_d >= 0.

    The vectors are those of one point's families, which share most of
    their factors.  The common part prod Phi_d^{c_d}, c_d = min over the
    vectors of e_d, is expanded once; each vector's rest
    prod Phi_d^{e_d - c_d} is expanded in the same product tree and
    multiplied onto it.  With one vector the rest is empty and the common
    part is the result.
    """
    for vector in vectors:
        bad = vector.first_negative()
        if bad is not None:
            raise NotPolynomialError(
                f"negative cyclotomic exponent e_{bad} = {vector.exponents[bad]}", d=bad
            )
    common = {
        d: min(v.exponents.get(d, 0) for v in vectors)
        for d in (vectors[0].exponents if vectors else ())
    }
    base = _tree_product(_cyclotomic_factors(common.items()))
    out = []
    for vector in vectors:
        rest = [(d, e - common.get(d, 0)) for d, e in vector.exponents.items()]
        product = _tree_product(base + _tree_product(_cyclotomic_factors(rest)))
        out.append(product[0] if product else DensePoly.one())
    return out


def expand(vector: CycloExponentVector) -> DensePoly:
    """Multiply out prod Phi_d^{e_d}; requires every e_d >= 0.

    The one-vector case of ``expand_many``: the factors Phi_d, each
    repeated e_d times, are multiplied in its balanced product tree.
    """
    return expand_many([vector])[0]


def naive_expand(spec: BalancedRatio, n: int) -> DensePoly:
    """Oracle route: cancel equal factors, multiply out, divide factor-wise.

    Cancelling the (1 - q^j) factors that numerator and denominator share
    leaves the rational function unchanged.  If it is a polynomial P, the
    remaining numerator is P times the remaining denominator, so every
    division is exact.  If not, some division fails, and the failing j is a
    multiple of a d with e_d < 0.
    """
    qn, qd, sn, sd = _q_arguments(spec, n)
    net = Counter(sn)
    net.subtract(sd)
    for m in qn:
        net.update(range(1, m + 1))
    for m in qd:
        net.subtract(range(1, m + 1))
    poly = DensePoly.one()
    for j, e in net.items():
        for _ in range(e):
            poly = poly.mul_one_minus_power(j)
    # large j first keeps intermediate degrees low
    for j in sorted((j for j, e in net.items() if e < 0), reverse=True):
        for _ in range(-net[j]):
            poly, exact = poly.div_one_minus_power(j)
            if not exact:
                raise NotPolynomialError(f"division by 1-q^{j} leaves a remainder", factor=j)
    return poly


# --------------------------------------------------------------------------
# The gcd-weighted product of two Gaussian binomials
# --------------------------------------------------------------------------

def _constant(num, den, single_num=(), single_den=()) -> BalancedRatio:
    """Spec with fixed integer arguments (coeff-0 forms): n is irrelevant."""
    return BalancedRatio(*([(0, v) for v in vs] for vs in (num, den, single_num, single_den)))


def gcd_product_spec(a: int, b: int, m: int, n: int, use_gcd: bool = True) -> BalancedRatio:
    """Spec of (1-q^w)/(1-q^{m+n}) * [am+bm-1, am]_q * [an+bn, an]_q.

    ``w = gcd(am, m+n)`` for the sharp statement, ``w = am`` for the
    corollary variant.
    """
    if min(a, b, m, n) < 1:
        raise ValueError("a, b, m, n must all be positive")
    w = gcd(a * m, m + n) if use_gcd else a * m
    return _constant(
        (a * m + b * m - 1, a * n + b * n),
        (a * m, b * m - 1, a * n, b * n),
        single_num=(w,),
        single_den=(m + n,),
    )


def gcd_product_q1_value(a: int, b: int, m: int, n: int, use_gcd: bool = True) -> Fraction:
    """q -> 1 limit of the expression: w/(m+n) * C(am+bm-1, am) * C(an+bn, an)."""
    w = gcd(a * m, m + n) if use_gcd else a * m
    return Fraction(
        w * comb(a * m + b * m - 1, a * m) * comb(a * n + b * n, a * n), m + n
    )


def qbinomial_spec(n: int, k: int) -> BalancedRatio:
    """[n, k]_q as a BalancedRatio (in-range k only)."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n for a spec, got n={n}, k={k}")
    return _constant((n,), (k, n - k))


# --------------------------------------------------------------------------
# Named q-expression families swept by the harness
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class QFamily:
    """A q-expression family parameterized by the sweep variable n."""

    id: str
    spec: BalancedRatio
    n_min: int = 1


def _family(fid, base, single_num=(), single_den=(), n_min=1) -> QFamily:
    """base times the single factors (1 - q^(c n + o)), given as (c, o) pairs."""
    spec = replace(base, single_num=single_num, single_den=single_den)
    return QFamily(fid, spec, n_min)


# Base blocks: F(n) = [6n]![n]!/([3n]![2n]!^2) and G(n) =
# [15n]![2n]!/([10n]![4n]![3n]!), the q-analogues of floors.STEP_6_1 and
# floors.STEP_15_2.
FAMILIES: dict[str, QFamily] = {
    f.id: f
    for f in (
        _family("wz", STEP_6_1),
        _family("wz-15-2", STEP_15_2),  # conjectured non-negative; no claim sweeps it
        _family(
            "thm-7.2-1",
            STEP_6_1,
            single_num=((0, 1),),
            single_den=((2, 1),),
        ),
        _family(
            "thm-7.2-2",
            STEP_6_1,
            single_num=((0, 3),),
            single_den=((2, 3),),
        ),
        _family(
            "thm-7.2-3",
            STEP_6_1,
            single_num=((0, 1), (0, 3)),
            single_den=((2, 1), (2, 3)),
        ),
        _family(
            "thm-7.2-4",
            STEP_6_1,
            single_num=((0, 3), (0, 5), (0, 7)),
            single_den=((2, 3), (2, 5), (2, 7)),
            n_min=2,
        ),
        _family(
            "thm-7.2-5",
            STEP_6_1,
            single_num=((0, 3), (0, 3), (0, 5), (0, 7)),
            single_den=((2, 1), (2, 3), (2, 5), (2, 7)),
            n_min=2,
        ),
        _family(
            "thm-7.4-1",
            STEP_15_2,
            single_num=((0, 1),),
            single_den=((10, 1),),
        ),
        _family(
            "thm-7.4-2",
            STEP_15_2,
            single_num=((0, 3), (0, 7)),
            single_den=((0, 1), (10, 3)),
        ),
        _family(
            "q-catalan",
            step((2,), (1, 1)),
            single_num=((0, 1),),
            single_den=((1, 1),),
        ),
    )
}

THM_7_2_FAMILY_IDS = ("thm-7.2-1", "thm-7.2-2", "thm-7.2-3", "thm-7.2-4", "thm-7.2-5")
THM_7_4_FAMILY_IDS = ("thm-7.4-1", "thm-7.4-2")
