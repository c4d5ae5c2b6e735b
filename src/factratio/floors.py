"""Floor-function step criteria and congruence-conditioned identities.

This module holds the step reading of ``forms.BalancedRatio``: with
{a_i}, {b_j} the coefficients of its blocks (``step`` builds the zero-offset
ratio of a coefficient shape), ``value_at`` evaluates the step function
f(x) = sum floor(a_i x) - sum floor(b_j x).  Two kinds of statement use it.

The integrality criterion: f is 1-periodic and piecewise constant, so its
global minimum over the reals is attained on the finite grid k/L with
L = lcm of all coefficients.  The associated factorial ratio
prod (a_i n)! / prod (b_j n)! is integral for every n exactly when that
minimum is >= 0.

The exact "+1" identities: under a divisor condition m | c*n + d with m
above a family-specific threshold, the inequality sharpens to an equality
with surplus 1, e.g.

    floor(6n/m) + floor(n/m) = floor(3n/m) + 2*floor(2n/m) + 1.

``check_congruence_identity`` raises PreconditionError outside the domain
(m below threshold, m not a divisor), never a failed identity.  Two sweeps
check every divisor m in the domain at each n, by both routes, and never
raise one.  ``identity_run`` checks a run of n at once: it finds each
divisor on its residue class and runs both routes over the whole run in
C-level maps; the registered floor lemmas use it.  ``check_identity_at``
checks one n: it enumerates the divisors of the divisor form from its
factorization and counts those that ``admits`` rejects as skipped; it is
the run's oracle, and the sweep for an identity whose divisor form is a
constant.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import compress, repeat
from math import gcd, isqrt, lcm
from operator import add, eq, floordiv, mod, mul, ne, not_, sub

from .errors import InternalCheckError, PreconditionError
from .forms import BalancedRatio, LinearForm, form
from .valuation import factorize


def step(num: tuple[int, ...], den: tuple[int, ...]) -> BalancedRatio:
    """The zero-offset ratio prod (a_i n)! / prod (b_j n)! of a coefficient shape."""
    if not num + den or any(c <= 0 for c in num + den):
        raise ValueError("step-function coefficients must be positive")
    return BalancedRatio([(a, 0) for a in num], [(b, 0) for b in den])


def value_at(spec: BalancedRatio, k: int, L: int) -> int:
    """Step value F(k/L) of the spec's coefficients, in exact integer arithmetic."""
    return sum(a * k // L for a in spec.num_coeffs) - sum(b * k // L for b in spec.den_coeffs)


def grid(spec: BalancedRatio) -> int:
    """L = lcm of the non-zero coefficients: F is constant on each [k/L, (k+1)/L).

    A constant block (coefficient 0) adds floor(0) = 0 to F, so it does not
    refine the grid.
    """
    return lcm(*(c for c in spec.num_coeffs + spec.den_coeffs if c))


def landau_min(spec: BalancedRatio) -> int:
    """Global minimum of the step function over the reals.

    Non-negative exactly when prod (a_i n)!/prod (b_j n)! is an integer
    for every n >= 0.
    """
    L = grid(spec)
    return min(value_at(spec, k, L) for k in range(L))


def landau_witnesses(spec: BalancedRatio) -> list[tuple[Fraction, int]]:
    """All grid points k/L attaining the minimum, ascending."""
    L = grid(spec)
    values = [value_at(spec, k, L) for k in range(L)]
    low = min(values)
    return [(Fraction(k, L), v) for k, v in enumerate(values) if v == low]


@dataclass(frozen=True)
class CongruenceIdentity:
    """An exact floor identity conditioned on m | divisor_form(n), m >= m_min.

    The identity reads shape(n/m) = surplus.  ``m_allowed`` restricts the
    sweep to an explicit finite set of moduli; it models the extension
    cases that hold only for a handful of m.
    """

    shape: BalancedRatio
    divisor_form: LinearForm
    m_min: int
    surplus: int = 1
    m_allowed: frozenset[int] | None = None

    def admits(self, m: int) -> bool:
        """Whether a divisor m lies in the identity's domain."""
        return m >= self.m_min and (self.m_allowed is None or m in self.m_allowed)

    def condition(self) -> str:
        if self.m_allowed is not None:
            ms = ",".join(str(m) for m in sorted(self.m_allowed))
            return f"m | {self.divisor_form}, m in {{{ms}}}"
        return f"m | {self.divisor_form}, m >= {self.m_min}"


def check_congruence_identity(ident: CongruenceIdentity, m: int, n: int) -> bool:
    """Exact check of the identity at (m, n); domain violations raise."""
    if m < 1 or n < 1:
        raise PreconditionError(f"m and n must be positive, got m={m}, n={n}")
    if ident.divisor_form(n) % m != 0:
        raise PreconditionError(f"m={m} does not divide {ident.divisor_form}={ident.divisor_form(n)}")
    if not ident.admits(m):
        raise PreconditionError(f"m={m} outside the domain {ident.condition()}")
    return value_at(ident.shape, n, m) == ident.surplus


def check_by_fractional_parts(ident: CongruenceIdentity, m: int, n: int) -> bool:
    """Restatement via fractional parts, in residues: {a n/m} = (a n mod m)/m.

    Since sum a_i = sum b_j, the identity sum floor(a_i n/m) - sum
    floor(b_j n/m) = surplus is equivalent, for every m >= 1, to

        sum (a_i n mod m) = sum (b_j n mod m) - surplus * m.

    Independent route used to cross-examine the floor-sum verdict: it never
    forms a floor quotient.
    """
    lhs = sum(a * n % m for a in ident.shape.num_coeffs)
    rhs = sum(b * n % m for b in ident.shape.den_coeffs)
    return lhs == rhs - ident.surplus * m


def divisors_of(v: int) -> list[int]:
    """All positive divisors of v ascending, from its prime factorization."""
    if v < 1:
        return []
    out = [1]
    for p, e in factorize(v).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def check_identity_at(
    ident: CongruenceIdentity, n: int, divisors: list[int] | None = None
) -> tuple[int, int, list[int]]:
    """Every divisor m of divisor_form(n), by both routes.

    Returns (checked, skipped, failing m ascending).  Divisors outside the
    identity's domain are counted as skipped, never as failures.  The floor
    sum and the fractional-parts restatement must agree at every checked m;
    a disagreement raises InternalCheckError.  ``divisors`` is the divisor
    list of divisor_form(n) when the caller already has it.
    """
    checked = skipped = 0
    failing = []
    if divisors is None:
        divisors = divisors_of(ident.divisor_form(n))
    for m in divisors:
        if not ident.admits(m):
            skipped += 1
            continue
        checked += 1
        ok = check_congruence_identity(ident, m, n)
        if ok != check_by_fractional_parts(ident, m, n):
            raise InternalCheckError(
                f"floor/fractional routes disagree for {ident.condition()} at n={n}, m={m}"
            )
        if not ok:
            failing.append(m)
    return checked, skipped, failing


def identity_run(
    ident: CongruenceIdentity, lo: int, hi: int
) -> tuple[Counter[int], list[tuple[int, int]]]:
    """Every divisor m of divisor_form(n) in the identity's domain, for every
    n in [lo, hi), by both routes.

    Returns (checks per n, failing (n, m) ascending); an n without a checked
    divisor is absent from the Counter.  The checked pairs are exactly the
    ones ``check_identity_at`` checks at each n of the run, found by residue
    class rather than by factorization.  With divisor_form = cn+d, each
    k <= isqrt(c(hi-1)+d) with g = gcd(c, k) dividing d divides cn+d exactly
    on one class n = n0 (mod k/g).  On the part of that class where
    k^2 <= cn+d, k pairs with the cofactor (cn+d)/k >= k, which steps by c/g
    along it: the walk checks m = k, and m = (cn+d)/k where that is above k
    and from the index where it reaches m_min.  An identity with
    ``m_allowed`` walks the class of each allowed m instead.

    Both routes then run over all the walks' pairs in C-level maps.  They
    share the products a n and nothing else; each has its own operator: the
    floor sums sum floor(a n/m) - sum floor(b n/m) == surplus, and the
    residues sum (a n mod m) - sum (b n mod m) == -surplus*m.  A
    disagreement raises InternalCheckError.
    """
    c, d = ident.divisor_form
    if c < 1:
        raise ValueError(f"the divisor form must have a positive coefficient, got {c}")
    if lo < 1:
        raise ValueError(f"n must be positive, got lo={lo}")
    ns: list[int] = []  # the checked pairs (n, m), walk by walk
    ms: list[int] = []
    if ident.m_allowed is not None:
        for m in sorted(ident.m_allowed):
            if m >= max(ident.m_min, 1):  # from the n with cn+d >= 1 on
                walk = _divisible(c, d, m, max(lo, -((d - 1) // c)), hi)
                ns += walk
                ms += repeat(m, len(walk))
    else:
        for k in range(1, isqrt(max(c * (hi - 1) + d, 0)) + 1):
            # from the n with k^2 <= cn+d on
            walk = _divisible(c, d, k, max(lo, -((d - k * k) // c)), hi)
            if not walk:
                continue
            if k >= ident.m_min:
                ns += walk
                ms += repeat(k, len(walk))
            first, step = (c * walk.start + d) // k, c * walk.step // k
            skip = max(0, -((first - max(k + 1, ident.m_min)) // step))
            ns += walk[skip:]
            ms += range(first + skip * step, first + len(walk) * step, step)
    shape = ident.shape
    coeffs = {*shape.num_coeffs, *shape.den_coeffs}
    products = {a: list(map(mul, ns, repeat(a))) for a in coeffs}  # a n at each pair
    holds = list(map(eq, _route(floordiv, shape, products, ms), repeat(ident.surplus)))
    residues = _route(mod, shape, products, ms)
    agrees = list(map(eq, residues, map(mul, ms, repeat(-ident.surplus))))
    if holds != agrees:
        n, m = min(compress(zip(ns, ms), map(ne, holds, agrees)))
        raise InternalCheckError(
            f"floor/fractional routes disagree for {ident.condition()} at n={n}, m={m}"
        )
    failing = sorted(compress(zip(ns, ms), map(not_, holds))) if not all(holds) else []
    return Counter(ns), failing


def _divisible(c: int, d: int, m: int, start: int, stop: int) -> range:
    """The n in [start, stop) with m | cn+d: one class mod m/gcd(c, m), or none."""
    g = gcd(c, m)
    if d % g:
        return range(0)
    step = m // g
    n0 = -(d // g) * pow(c // g, -1, step) % step
    return range(start + (n0 - start) % step, stop, step)


def _route(op, shape: BalancedRatio, products: dict[int, list[int]], ms: list[int]):
    """sum op(a n, m) - sum op(b n, m) at each pair (n, m), lazily, from the
    products a n of the pairs."""
    num, den = (
        reduce(partial(map, add), [map(op, products[a], ms) for a in side])
        for side in (shape.num_coeffs, shape.den_coeffs)
    )
    return map(sub, num, den)


# The two balanced ratios behind every claim in the package, defined here
# once:
#     W(n) = (6n)! n! / ((3n)! (2n)!^2),
#     G(n) = (15n)! (2n)! / ((10n)! (4n)! (3n)!).
# Their step functions have minimum 0 (lem-2.1); the divisibility claims
# divide them by a linear cofactor, and the q-families attach single
# factors to their q-analogues.
STEP_6_1 = step((6, 1), (3, 2, 2))
STEP_15_2 = step((15, 2), (10, 4, 3))

# Identity families, keyed by the sweep registry.  The (6,1 | 3,2,2) shape
# carries the 2n+c conditions; the (15,2 | 10,4,3) shape the 2n+1 / 10n+c
# conditions.  Extension entries hold only for the listed m.
#
# The published condition for the last (15,2)-extension reads m | 10n+7,
# but that variant is false already at (n, m) = (1, 17); the surrounding
# valuation argument needs (and numerically gets) m | 10n+9.  The registry
# carries the corrected condition; see tests for the pinned counterexample.
IDENTITIES: dict[str, tuple[CongruenceIdentity, ...]] = {
    "lem-2.2": (
        CongruenceIdentity(STEP_6_1, form(2, 3), 5),
    ),
    "lem-2.3": (
        CongruenceIdentity(STEP_15_2, form(10, 3), 9),
    ),
    "lem-5.1": (
        CongruenceIdentity(STEP_6_1, form(2, 5), 9),
        CongruenceIdentity(STEP_6_1, form(2, 7), 11),
        CongruenceIdentity(STEP_6_1, form(2, 9), 15),
        # m = 3 with n = 1 (mod 3), encoded as 3 | n+2
        CongruenceIdentity(STEP_6_1, form(1, 2), 3, m_allowed=frozenset({3})),
    ),
    "lem-5.2": (
        CongruenceIdentity(STEP_15_2, form(2, 1), 15),
        CongruenceIdentity(STEP_15_2, form(10, 7), 21),
        CongruenceIdentity(STEP_15_2, form(10, 9), 27),
        CongruenceIdentity(STEP_15_2, form(10, 9), 7, m_allowed=frozenset({7, 13, 17})),
    ),
}
