"""Exact evaluation and valuation verdicts of the divisibility claims.

Central objects:

    S(n) = C(6n,3n) C(3n,n) / (2(2n+1) C(2n,n))
    t(n) = C(15n,5n) C(5n-1,n-1) / ((10n+1) C(3n,n))

both integers for every n >= 1.  Each named claim asserts that a linear
modulus form divides ``multiplier * ratio(n)``.  The proofs work by
showing that the multiplier constants (3, 21, 105, 315, 6435, 3003, 88179,
43263) cover the worst-case negative p-adic orders of a shifted companion
ratio; ``RATIO_BOUNDS`` records those orders with their clearing constants,
and ``check_valuation_bounds`` checks that each constant covers them.

Two routes decide a claim at n.  The primary one works prime by prime,
as the proofs do.  Every claim ratio is an integral base ratio B over a
linear cofactor (see ``BASES``):

    S(n) = W(n) / (2(2n+1)),   W = (6n)! n! / ((3n)! (2n)!^2)
    t(n) = G(n) / (5(10n+1)),  G = (15n)! (2n)! / ((10n)! (4n)! (3n)!)

and the C-form ratio is G itself.  A base has no offsets and a
non-negative Landau minimum, so B(n) is an integer for every n: this
Landau reduction is what makes the route sound, and it is validated when
the base is defined.  Only the primes of cofactor(n) * modulus(n) can
then make ``multiplier * B / cofactor / modulus`` non-integral, and
``valuation_verdict`` reads their orders from Legendre floor sums.  The
second route is exact big-integer division with a remainder check; the
registry runs it as an oracle at every failing point and at every small n.

The central corollary is decided the same way, at the primes of 2(m+n)
(``central_valuation_verdict``), with the ``Fraction`` value
``central_product_value`` as its oracle.  The two-binomial product is
checked by an integer kernel (``check_product``) with the ``Fraction``
forms of ``product_forms`` as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .errors import InternalCheckError
from .floors import STEP_6_1, STEP_15_2, landau_min
from .forms import BalancedRatio, LinearForm, form
from .valuation import binary_digit_sum, factorize, orders_at, primes_up_to


# --------------------------------------------------------------------------
# Ratio specifications (pure factorial form, degree-balanced)
# --------------------------------------------------------------------------

# S(n) = (6n)!(n+1)! / ((3n)!(2n)!(2n+2)!)
S_RATIO = BalancedRatio.from_pairs([(6, 0), (1, 1)], [(3, 0), (2, 0), (2, 2)])

# t(n) = (15n)!(5n-1)!(n)!(2n)! / ((5n)!(n-1)!(4n)!(3n)!(10n+1)!)
T_RATIO = BalancedRatio.from_pairs(
    [(15, 0), (5, -1), (1, 0), (2, 0)],
    [(5, 0), (1, -1), (4, 0), (3, 0), (10, 1)],
)

# C(15n,5n) C(5n,n) / C(3n,n) = (15n)!(2n)! / ((10n)!(4n)!(3n)!) = G(n)
T_CFORM = STEP_15_2

# W(n) = (6n)! n! / ((3n)!(2n)!^2): the integer whose 2-adic order equals
# the binary digit sum of n.
WZ_INT_RATIO = STEP_6_1


def s_shift_ratio(offset: int) -> BalancedRatio:
    """(2n+c-1)!(6n)!(n)! / ((2n+c)!(3n)!(2n)!^2) for modulus form 2n+c."""
    return BalancedRatio.from_pairs(
        [(2, offset - 1), (6, 0), (1, 0)], [(2, offset), (3, 0), (2, 0), (2, 0)]
    )


def t_shift_ratio(coeff: int, offset: int) -> BalancedRatio:
    """(M-1)!(15n)!(2n)! / (M!(10n)!(4n)!(3n)!) for modulus form M = coeff*n+offset."""
    return BalancedRatio.from_pairs(
        [(coeff, offset - 1), (15, 0), (2, 0)],
        [(coeff, offset), (10, 0), (4, 0), (3, 0)],
    )


# --------------------------------------------------------------------------
# Exact evaluation
# --------------------------------------------------------------------------

def eval_ratio(spec: BalancedRatio, n: int) -> Fraction:
    """Exact rational value of the ratio at n."""
    num, den = spec.arguments(n)
    top = 1
    for v in num:
        top *= factorial(v)
    bottom = 1
    for v in den:
        bottom *= factorial(v)
    return Fraction(top, bottom)


def sun_s(n: int) -> int:
    """S(n), by direct big-integer evaluation of the binomial formula."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    num = comb(6 * n, 3 * n) * comb(3 * n, n)
    den = 2 * (2 * n + 1) * comb(2 * n, n)
    q, r = divmod(num, den)
    if r:
        raise InternalCheckError(f"S({n}) failed integrality")
    return q


def sun_t(n: int) -> int:
    """t(n), by direct big-integer evaluation of the binomial formula."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    num = comb(15 * n, 5 * n) * comb(5 * n - 1, n - 1)
    den = (10 * n + 1) * comb(3 * n, n)
    q, r = divmod(num, den)
    if r:
        raise InternalCheckError(f"t({n}) failed integrality")
    return q


def t_cform(n: int) -> int:
    """C(15n,5n) C(5n,n) / C(3n,n), always an integer (= 5(10n+1) t(n))."""
    num = comb(15 * n, 5 * n) * comb(5 * n, n)
    q, r = divmod(num, comb(3 * n, n))
    if r:
        raise InternalCheckError(f"C-form ratio failed integrality at n={n}")
    return q


# --------------------------------------------------------------------------
# Named divisibility claims
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DivisibilityClaim:
    """modulus_form(n) divides multiplier * ratio(n) for all n >= 1."""

    name: str
    multiplier: int
    ratio: BalancedRatio
    modulus_form: LinearForm
    value_key: str  # fast evaluator registered in VALUE_FUNCS

    def __post_init__(self) -> None:
        # ord_p of the multiplier is read by repeated division, which never ends at 0
        if self.multiplier < 1:
            raise ValueError(f"{self.name}: the multiplier must be positive, not {self.multiplier}")


# Fast big-integer evaluators for the claim ratios, looked up by key at each
# call, so that the tracer and the tests can rebind an entry.
VALUE_FUNCS = {
    "s": sun_s,
    "t": sun_t,
    "t-cform": t_cform,
}


@dataclass(frozen=True)
class BaseRatio:
    """An integral factorial ratio B with claim ratio = B(n) / cofactor(n).

    B must be integral at every n for the valuation route to skip the
    primes outside cofactor * modulus, so the definition is checked: no
    offsets, and the Landau minimum of its step function is >= 0.
    """

    spec: BalancedRatio
    cofactor: LinearForm

    def __post_init__(self) -> None:
        if any(f.offset for f in self.spec.numerator + self.spec.denominator):
            raise ValueError(f"base ratio {self.spec} has offsets")
        if landau_min(self.spec) < 0:
            raise ValueError(f"base ratio {self.spec} has a negative Landau minimum")


# Base ratio and cofactor per value key, same keys as VALUE_FUNCS.
BASES: dict[str, BaseRatio] = {
    "s": BaseRatio(WZ_INT_RATIO, form(4, 2)),  # S = W / (2(2n+1))
    "t": BaseRatio(T_CFORM, form(50, 5)),  # t = G / (5(10n+1))
    "t-cform": BaseRatio(T_CFORM, form(0, 1)),
}

CLAIMS_BY_ID: dict[str, tuple[DivisibilityClaim, ...]] = {
    "thm-1.1": (
        DivisibilityClaim("3*S(n) mod 2n+3", 3, S_RATIO, form(2, 3), "s"),
    ),
    "thm-1.2": (
        DivisibilityClaim("21*t(n) mod 10n+3", 21, T_RATIO, form(10, 3), "t"),
    ),
    # The fourth congruence is published as 3003*t(n) = 0 (mod 2n+1), which
    # fails at some n with 5 | 2n+1 (n = 2, 7, 12, 32, ...) because t(n)
    # carries C(5n-1,n-1) = C(5n,n)/5.  The claim that the lemma
    # machinery actually supports, and that holds on every tested range, is
    # the C(5n,n)-normalized ratio below with the same constant and modulus.
    "thm-1.3": (
        DivisibilityClaim("105*S(n) mod 2n+5", 105, S_RATIO, form(2, 5), "s"),
        DivisibilityClaim("315*S(n) mod 2n+7", 315, S_RATIO, form(2, 7), "s"),
        DivisibilityClaim("6435*S(n) mod 2n+9", 6435, S_RATIO, form(2, 9), "s"),
        DivisibilityClaim(
            "3003*C(15n,5n)C(5n,n)/C(3n,n) mod 2n+1",
            3003,
            T_CFORM,
            form(2, 1),
            "t-cform",
        ),
        DivisibilityClaim("88179*t(n) mod 10n+7", 88179, T_RATIO, form(10, 7), "t"),
        DivisibilityClaim("43263*t(n) mod 10n+9", 43263, T_RATIO, form(10, 9), "t"),
    ),
}


def check_divisibility(claim: DivisibilityClaim, n: int) -> bool:
    """Big-integer verdict: modulus | multiplier * ratio value."""
    if n < 1:
        raise ValueError(f"n={n} below claim domain n >= 1")
    value = VALUE_FUNCS[claim.value_key](n)
    return (claim.multiplier * value) % claim.modulus_form(n) == 0


def valuation_verdict(claim: DivisibilityClaim, n: int, shared: dict | None = None) -> bool:
    """Verdict from Legendre orders at the primes of cofactor and modulus.

    With B the claim's base ratio and c its multiplier, the claim ratio is
    B(n)/cofactor(n), and B(n) is an integer by the Landau reduction (see
    ``BaseRatio``).  So a prime p can only matter when it divides
    cofactor(n) or modulus(n), and there the route tests

        ord_p B >= ord_p cofactor                       (integrality)
        ord_p c + ord_p B - ord_p cofactor >= ord_p modulus

    A failed integrality test raises InternalCheckError, as ``sun_s`` does.
    ``shared`` is an optional dict that the caller keeps for one n.  The
    base arguments and the orders at the cofactor primes are stored there
    per base, so the claims of a group that share a base compute them once.
    """
    if n < 1:
        raise ValueError(f"n={n} below claim domain n >= 1")
    if shared is None:
        shared = {}
    if claim.value_key not in shared:
        base = BASES[claim.value_key]
        num, den = base.spec.arguments(n)
        cofactor = factorize(base.cofactor(n))
        base_orders = orders_at(cofactor, num, den)
        for p, e in cofactor.items():
            base_orders[p] -= e
        shared[claim.value_key] = num, den, base_orders
    num, den, base_orders = shared[claim.value_key]
    short = [p for p, e in base_orders.items() if e < 0]
    if short:
        base = BASES[claim.value_key]
        raise InternalCheckError(
            f"base {base.spec} over cofactor {base.cofactor} is not an integer at n={n} "
            f"(primes {short})"
        )
    need = factorize(claim.modulus_form(n))
    orders = orders_at([p for p in need if p not in base_orders], num, den)
    orders.update(base_orders)
    return all(orders[p] + _multiplicity(p, claim.multiplier) >= e for p, e in need.items())


def _multiplicity(p: int, v: int) -> int:
    """ord_p(v) of a positive integer v, by repeated division."""
    k = 0
    while v % p == 0:
        k += 1
        v //= p
    return k


# --------------------------------------------------------------------------
# Two-binomial product integrality (and its central-binomial corollary)
# --------------------------------------------------------------------------

def product_forms(a: int, b: int, m: int, n: int) -> tuple[Fraction, Fraction]:
    """The two displayed forms of the weighted binomial product.

        abm/((a+b)(m+n)) * C(am+bm, am) * C(an+bn, an)
        am/(m+n)        * C(am+bm-1, am) * C(an+bn, an)

    They are equal and integral for all positive a, b, m, n.
    """
    if min(a, b, m, n) < 1:
        raise ValueError("a, b, m, n must all be positive")
    tail = comb(a * n + b * n, a * n)
    first = Fraction(a * b * m * comb(a * m + b * m, a * m) * tail, (a + b) * (m + n))
    second = Fraction(a * m * comb(a * m + b * m - 1, a * m) * tail, m + n)
    return first, second


def check_product(
    a: int, b: int, m: int, n: int, shared: dict | None = None, value: bool = True
) -> tuple[bool, int | None]:
    """True plus the common integer value when both forms agree and divide.

    The integer kernel; ``product_forms`` is the ``Fraction`` route.  With
    H = C(am+bm, am) and L = C(am+bm-1, am) the two forms agree exactly when
    b H = (a+b) L, which does not involve n.  Then abm H = (a+b) amL, so
    both forms equal head tail / (m+n) with head = amL and tail
    C(an+bn, an).  The comparison and head are settled once per (a, b, m),
    and the tail once per (a, b, n); ``shared`` is an optional dict that
    keeps them for a slice of points.  Integrality is decided from head and
    tail reduced mod m+n; the value, a big product and division, is formed
    only when ``value`` is true and is None otherwise.
    """
    if min(a, b, m, n) < 1:
        raise ValueError("a, b, m, n must all be positive")
    if shared is None:
        shared = {}
    key = ("head", a, b, m)
    if key not in shared:
        low = comb(a * m + b * m - 1, a * m)
        agree = b * comb(a * m + b * m, a * m) == (a + b) * low
        shared[key] = a * m * low if agree else None
    head = shared[key]
    if head is None:
        return False, None
    key = ("tail", a, b, n)
    tail = shared.get(key)
    if tail is None:
        tail = shared[key] = comb(a * n + b * n, a * n)
    modulus = m + n
    if head % modulus * (tail % modulus) % modulus:
        return False, None
    return True, head * tail // modulus if value else None


def central_product_value(m: int, n: int, multiplier: int | None = None) -> Fraction:
    """c/(2(m+n)) * C(2m,m) * C(2n,n) with c = m unless given; integral for c = m."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    c = m if multiplier is None else multiplier
    return Fraction(c * comb(2 * m, m) * comb(2 * n, n), 2 * (m + n))


def central_valuation_verdict(
    m: int, n: int, multiplier: int | None = None, shared: dict | None = None
) -> bool:
    """Whether c/(2(m+n)) * C(2m,m) * C(2n,n) is an integer (c = m unless given),
    from Legendre orders at the primes of 2(m+n).

    c * C(2m,m) * C(2n,n) is an integer, so only a prime p of 2(m+n) can
    make the quotient non-integral, and there the route tests

        ord_p c + ord_p C(2m,m) + ord_p C(2n,n) >= ord_p 2(m+n)

    ``shared`` is an optional dict that keeps ord_p(c C(2m,m)) per
    (m, c, p) for a slice of points, so a point computes only the orders of
    C(2n,n).
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    c = m if multiplier is None else multiplier
    if c < 1:
        raise ValueError(f"the multiplier must be positive, got {c}")
    if shared is None:
        shared = {}
    need = factorize(2 * (m + n))
    tail = orders_at(need, (2 * n,), (n, n))
    for p, e in need.items():
        head = shared.get((m, c, p))
        if head is None:
            head = orders_at((p,), (2 * m,), (m, m))[p] + _multiplicity(p, c)
            shared[(m, c, p)] = head
        if head + tail[p] < e:
            return False
    return True


# --------------------------------------------------------------------------
# Valuation case bounds for the shifted companion ratios
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundedRatio:
    """A shifted ratio with per-prime worst-case order bounds (odd primes).

    ``exceptions`` maps the finitely many primes with a negative bound;
    every other odd prime is bounded below by 0.  The clearing constant
    prod p^(-bound) must divide the claim multiplier.
    """

    name: str
    spec: BalancedRatio
    exceptions: dict[int, int]
    clearing: int


RATIO_BOUNDS: dict[str, BoundedRatio] = {
    "S": BoundedRatio("S", s_shift_ratio(3), {3: -1}, 3),
    "t": BoundedRatio("t", t_shift_ratio(10, 3), {3: -1, 7: -1}, 21),
    "X": BoundedRatio("X", s_shift_ratio(7), {3: -1, 5: -1, 7: -1}, 105),
    "Y": BoundedRatio("Y", t_shift_ratio(10, 9), {3: -2, 11: -1, 19: -1, 23: -1}, 43263),
}


def valuation_case_orders(name: str, n: int) -> dict[int, int]:
    """Odd-prime orders of the named shifted ratio at n."""
    num, den = RATIO_BOUNDS[name].spec.arguments(n)
    return orders_at(primes_up_to(max(num + den))[1:], num, den)


def check_valuation_bounds(name: str, n: int) -> list[dict[str, int | str]]:
    """Bound violations plus clearing-constant coverage at n; empty if fine."""
    bounded = RATIO_BOUNDS[name]
    failures: list[dict[str, int | str]] = []
    clearing_needed = 1
    for p, order in valuation_case_orders(name, n).items():
        low = bounded.exceptions.get(p, 0)
        if order < low:
            failures.append({"ratio": name, "p": p, "order": order, "bound": low})
        if order < 0:
            clearing_needed *= p ** (-order)
    if bounded.clearing % clearing_needed != 0:
        failures.append(
            {"ratio": name, "clearing_needed": clearing_needed, "constant": bounded.clearing}
        )
    return failures


# --------------------------------------------------------------------------
# Conjecture sweeps
# --------------------------------------------------------------------------

def check_two_binomial_conjecture(a: int, b: int, n: int) -> bool:
    """(2bn+1)(2bn+3) C(2bn,bn)  |  3(a-b)(3a-b) C(2an,an) C(an,bn), a > b."""
    if b < 1 or a <= b or n < 1:
        raise ValueError(f"need a > b >= 1 and n >= 1, got a={a}, b={b}, n={n}")
    divisor = (2 * b * n + 1) * (2 * b * n + 3) * comb(2 * b * n, b * n)
    value = 3 * (a - b) * (3 * a - b) * comb(2 * a * n, a * n) * comb(a * n, b * n)
    return value % divisor == 0


def parity_verdict(n: int, ord2: int) -> bool:
    """Given ord2 = ord_2 S(n): is it s_2(n) - 1, and is S(n) odd exactly
    when n is a power of two?"""
    if ord2 != binary_digit_sum(n) - 1:
        return False
    is_odd = ord2 == 0
    is_power = n & (n - 1) == 0
    return is_odd == is_power
