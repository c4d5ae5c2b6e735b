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
as the proofs do.  Each ``DivisibilityClaim`` carries its ratio as an
integral Landau base B over a linear cofactor:

    S(n) = W(n) / (2(2n+1)),   W = (6n)! n! / ((3n)! (2n)!^2)
    t(n) = G(n) / (5(10n+1)),  G = (15n)! (2n)! / ((10n)! (4n)! (3n)!)

and the C-form ratio is G itself.  A base has no offsets and a
non-negative Landau minimum, so B(n) is an integer for every n: this
Landau reduction is what makes the route sound, and it is validated when
the claim is defined.  Only the primes of cofactor(n) * modulus(n) can
then make ``multiplier * B / cofactor / modulus`` non-integral, and
``valuation_verdict`` reads their orders from Legendre floor sums.  The
second route is exact big-integer division with a remainder check; the
registry runs it as an oracle at every failing point and in the claim's box.

The two-binomial product and its central corollary are decided the same
way, at the primes of m+n, for a whole run of n at once (``product_run``):
a segmented sieve of m+n over the run reaches every prime up to the square
root of m+n through its residue class, and what it leaves of m+n is 1 or
one larger prime, whose order in m+n is 1.  Its oracles are the integer
kernel ``check_product`` and the ``Fraction`` forms of ``product_forms``
for the product, and the ``Fraction`` value ``central_product_value`` for
the corollary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, isqrt

from .errors import InternalCheckError
from .floors import STEP_6_1, STEP_15_2, landau_min
from .forms import BalancedRatio, LinearForm, form
from .valuation import factorize, orders_at, primes_up_to


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
    return _exact(num, 2 * (2 * n + 1) * comb(2 * n, n), "S", n)


def sun_t(n: int) -> int:
    """t(n), by direct big-integer evaluation of the binomial formula."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    num = comb(15 * n, 5 * n) * comb(5 * n - 1, n - 1)
    return _exact(num, (10 * n + 1) * comb(3 * n, n), "t", n)


def t_cform(n: int) -> int:
    """C(15n,5n) C(5n,n) / C(3n,n), always an integer (= 5(10n+1) t(n))."""
    return _exact(comb(15 * n, 5 * n) * comb(5 * n, n), comb(3 * n, n), "C-form ratio", n)


def _exact(num: int, den: int, name: str, n: int) -> int:
    """num / den for the sequence ``name`` at n; a remainder is an internal failure."""
    q, r = divmod(num, den)
    if r:
        raise InternalCheckError(f"{name} failed integrality at n={n}")
    return q


# --------------------------------------------------------------------------
# Named divisibility claims
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DivisibilityClaim:
    """modulus_form(n) divides multiplier * base(n) / cofactor(n) for all n >= 1.

    The base must be integral at every n for the valuation route to skip
    the primes outside cofactor * modulus, so it is checked here: no
    offsets, and the Landau minimum of its step function is >= 0.
    """

    name: str
    multiplier: int
    base: BalancedRatio
    cofactor: LinearForm
    modulus_form: LinearForm
    value_key: str  # big-integer evaluator of base / cofactor in VALUE_FUNCS

    def __post_init__(self) -> None:
        # ord_p of the multiplier is read by repeated division, which never ends at 0
        if self.multiplier < 1:
            raise ValueError(f"{self.name}: the multiplier must be positive, not {self.multiplier}")
        if any(f.offset for f in self.base.numerator + self.base.denominator):
            raise ValueError(f"base ratio {self.base} has offsets")
        if landau_min(self.base) < 0:
            raise ValueError(f"base ratio {self.base} has a negative Landau minimum")


# Fast big-integer evaluators for the claim ratios, looked up by key at each
# call, so that the tracer and the tests can rebind an entry.
VALUE_FUNCS = {
    "s": sun_s,
    "t": sun_t,
    "t-cform": t_cform,
}

# S = W / (2(2n+1)), t = G / (5(10n+1)), C(15n,5n) C(5n,n) / C(3n,n) = G
CLAIMS_BY_ID: dict[str, tuple[DivisibilityClaim, ...]] = {
    "thm-1.1": (
        DivisibilityClaim("3*S(n) mod 2n+3", 3, STEP_6_1, form(4, 2), form(2, 3), "s"),
    ),
    "thm-1.2": (
        DivisibilityClaim("21*t(n) mod 10n+3", 21, STEP_15_2, form(50, 5), form(10, 3), "t"),
    ),
    # The fourth congruence is published as 3003*t(n) = 0 (mod 2n+1), which
    # fails at some n with 5 | 2n+1 (n = 2, 7, 12, 32, ...) because t(n)
    # carries C(5n-1,n-1) = C(5n,n)/5.  The claim that the lemma
    # machinery actually supports, and that holds on every tested range, is
    # the C(5n,n)-normalized ratio below with the same constant and modulus.
    "thm-1.3": (
        DivisibilityClaim("105*S(n) mod 2n+5", 105, STEP_6_1, form(4, 2), form(2, 5), "s"),
        DivisibilityClaim("315*S(n) mod 2n+7", 315, STEP_6_1, form(4, 2), form(2, 7), "s"),
        DivisibilityClaim("6435*S(n) mod 2n+9", 6435, STEP_6_1, form(4, 2), form(2, 9), "s"),
        DivisibilityClaim(
            "3003*C(15n,5n)C(5n,n)/C(3n,n) mod 2n+1",
            3003,
            STEP_15_2,
            form(0, 1),
            form(2, 1),
            "t-cform",
        ),
        DivisibilityClaim("88179*t(n) mod 10n+7", 88179, STEP_15_2, form(50, 5), form(10, 7), "t"),
        DivisibilityClaim("43263*t(n) mod 10n+9", 43263, STEP_15_2, form(50, 5), form(10, 9), "t"),
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
    ``DivisibilityClaim``).  So a prime p can only matter when it divides
    cofactor(n) or modulus(n), and there the route tests

        ord_p B >= ord_p cofactor                       (integrality)
        ord_p c + ord_p B - ord_p cofactor >= ord_p modulus

    A failed integrality test raises InternalCheckError, as ``sun_s`` does.
    ``shared`` is an optional dict that the caller keeps for one n.  The
    base arguments and the orders at the cofactor primes are stored there
    per ``value_key``, so the claims of a group that share a key, and with
    it their base and cofactor, compute them once.
    """
    if n < 1:
        raise ValueError(f"n={n} below claim domain n >= 1")
    if shared is None:
        shared = {}
    if claim.value_key not in shared:
        num, den = claim.base.arguments(n)
        cofactor = factorize(claim.cofactor(n))
        base_orders = orders_at(cofactor, num, den)
        for p, e in cofactor.items():
            base_orders[p] -= e
        shared[claim.value_key] = num, den, base_orders
    num, den, base_orders = shared[claim.value_key]
    short = [p for p, e in base_orders.items() if e < 0]
    if short:
        raise InternalCheckError(
            f"base {claim.base} over cofactor {claim.cofactor} is not an integer at n={n} "
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


def check_product(a: int, b: int, m: int, n: int) -> tuple[bool, int | None]:
    """True plus the common integer value when both forms agree and divide.

    The integer route; ``product_forms`` is the ``Fraction`` route.  With
    H = C(am+bm, am) and L = C(am+bm-1, am) the two forms agree exactly when
    b H = (a+b) L, which does not involve n.  Then abm H = (a+b) amL, so
    both forms equal amL C(an+bn, an) / (m+n), which is checked by exact
    division.
    """
    if min(a, b, m, n) < 1:
        raise ValueError("a, b, m, n must all be positive")
    low = comb(a * m + b * m - 1, a * m)
    if b * comb(a * m + b * m, a * m) != (a + b) * low:
        return False, None
    value, rest = divmod(a * m * low * comb(a * n + b * n, a * n), m + n)
    return (False, None) if rest else (True, value)


def central_product_value(m: int, n: int, multiplier: int | None = None) -> Fraction:
    """c/(2(m+n)) * C(2m,m) * C(2n,n) with c = m unless given; integral for c = m."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    c = m if multiplier is None else multiplier
    return Fraction(c * comb(2 * m, m) * comb(2 * n, n), 2 * (m + n))


def product_run(
    a: int, b: int, m: int, lo: int, hi: int, multiplier: int | None = None
) -> list[bool]:
    """Whether c/(m+n) * C(am+bm-1, am) * C(an+bn, an) is an integer (c = am
    unless given), for every n in [lo, hi), from Legendre orders at the
    primes of m+n.

    At c = am this is the two-binomial product, and at a = b = 1 it is the
    central corollary, since C(2m, m) = 2 C(2m-1, m).  The numerator is an
    integer, so only a prime p of m+n can make the quotient non-integral,
    and there the route tests

        ord_p c + ord_p C(am+bm-1, am) + ord_p C(an+bn, an) >= ord_p(m+n)

    The primes of m+n come from a segmented sieve of m+n over the run.  Each
    prime p <= isqrt(m+hi-1) walks its residue class n = -m (mod p) and
    divides itself out of m+n, which counts e = ord_p(m+n).  The head
    ord_p c + ord_p C(am+bm-1, am) is taken once per prime; the orders of
    C(an+bn, an) are non-negative, so its floor sum is needed only where the
    head falls short of e.  What the walks leave of m+n is 1 or a single
    prime P with P^2 > m+n, because a composite remainder would have a prime
    factor that walked.  There ord_P(m+n) = 1, but P^2 may still be at most
    (a+b)n, so ord_P C(an+bn, an) takes the full floor sum too.

    Both floor sums are skipped where Kummer's theorem settles them: adding
    an and bn in base p carries out of the lowest digit, so that
    ord_p C(an+bn, an) >= 1, exactly when an mod p > (an+bn) mod p.  On a
    sieved prime's walk n = -m (mod p) that carry is the same at every n and
    joins the head; at the leftover prime P it passes the n by itself.
    """
    if min(a, b, m, lo) < 1:
        raise ValueError("a, b, m and n must be positive")
    c = a * m if multiplier is None else multiplier
    if c < 1:
        raise ValueError(f"the multiplier must be positive, got {c}")

    def head(p: int) -> int:  # ord_p(c C(am+bm-1, am))
        return _multiplicity(p, c) + _binomial_ord(p, a * m + b * m - 1, a * m)

    start = m + lo
    rest = list(range(start, m + hi))
    out = [True] * len(rest)
    for p in primes_up_to(isqrt(m + hi - 1)):
        base = head(p)
        # n = -m (mod p) on the walk, so an and bn have fixed lowest digits
        top = base + ((-a * m) % p + (-b * m) % p >= p)
        for i in range(-start % p, len(rest), p):
            v, e = rest[i] // p, 1
            while v % p == 0:
                v //= p
                e += 1
            rest[i] = v
            if top < e and out[i]:
                n = lo + i
                out[i] = base + _binomial_ord(p, (a + b) * n, a * n) >= e
    for i, P in enumerate(rest):
        if P > 1 and out[i]:
            n = lo + i
            out[i] = (
                a * n % P > (a + b) * n % P
                or _binomial_ord(P, (a + b) * n, a * n) > 0
                or head(P) > 0
            )
    return out


def _binomial_ord(p: int, top: int, k: int) -> int:
    """ord_p C(top, k) of a prime p, by Legendre's formula."""
    e, q = 0, p
    while q <= top:
        e += top // q - k // q - (top - k) // q
        q *= p
    return e


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

    spec: BalancedRatio
    exceptions: dict[int, int]
    clearing: int


RATIO_BOUNDS: dict[str, BoundedRatio] = {
    "S": BoundedRatio(s_shift_ratio(3), {3: -1}, 3),
    "t": BoundedRatio(t_shift_ratio(10, 3), {3: -1, 7: -1}, 21),
    "X": BoundedRatio(s_shift_ratio(7), {3: -1, 5: -1, 7: -1}, 105),
    "Y": BoundedRatio(t_shift_ratio(10, 9), {3: -2, 11: -1, 19: -1, 23: -1}, 43263),
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
