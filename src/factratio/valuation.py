"""Exact p-adic valuations of factorials and factorial ratios.

The whole module is floor-sum arithmetic on machine integers; no
factorial is ever formed here.  Primes come from one growable sieve of
Eratosthenes kept per process: ``primes_up_to`` slices its prime list,
``is_prime`` reads its flag bytes, factorizing only above the sieve limit,
and ``factorize`` trial-divides by its primes.  The classical formula

    ord_p(n!) = sum_{i>=1} floor(n / p^i)

drives everything: the order of a factorial ratio is the signed sum of
the orders of its factorial blocks (and may be negative for ratios whose
value is a non-integer rational).  ``orders_at`` is the one kernel that
takes those sums at many primes; ``legendre_ord`` and ``ratio_ord`` take
them at one prime, with a primality check.  A p-adic profile aggregates
the order over every prime up to the largest factorial argument; the
product ``prod p^order`` then reconstructs the exact ratio value, which is
the cross-check invariant the test suite leans on.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .forms import BalancedRatio

# Growable prime table; rebuilt at most O(log) times per process.
# _SIEVE[i] is 1 exactly when i is prime, for 0 <= i <= _SIEVE_LIMIT.
_SIEVE_LIMIT = 0
_SIEVE = bytearray()
_PRIMES: list[int] = []


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit, from a cached sieve of Eratosthenes."""
    global _SIEVE_LIMIT, _SIEVE, _PRIMES
    if limit > _SIEVE_LIMIT:
        new_limit = max(limit, 2 * _SIEVE_LIMIT, 1 << 10)
        sieve = bytearray([1]) * (new_limit + 1)
        sieve[:2] = b"\x00\x00"
        for p in range(2, isqrt(new_limit) + 1):
            if sieve[p]:
                sieve[p * p :: p] = b"\x00" * len(sieve[p * p :: p])
        _PRIMES = [i for i, flag in enumerate(sieve) if flag]
        _SIEVE = sieve
        _SIEVE_LIMIT = new_limit
    return _PRIMES[: bisect_right(_PRIMES, limit)]


def is_prime(p: int) -> bool:
    """Sieve lookup up to the sieve limit, factorization above it."""
    if p < 2:
        return False
    if p <= _SIEVE_LIMIT:
        return _SIEVE[p] == 1
    return factorize(p) == {p: 1}


def factorize(v: int) -> dict[int, int]:
    """Prime factorization {p: e} of v >= 1, primes ascending.

    Trial division by the sieve primes up to isqrt(v); the cofactor left
    when p*p exceeds what remains is itself prime.
    """
    if v < 1:
        raise ValueError(f"v must be positive, got {v}")
    if isqrt(v) > _SIEVE_LIMIT:
        primes_up_to(isqrt(v))
    out = {}
    for p in _PRIMES:
        if p * p > v:
            break
        if v % p == 0:
            e = 0
            while v % p == 0:
                v //= p
                e += 1
            out[p] = e
    if v > 1:
        out[v] = 1
    return out


def legendre_ord(p: int, n: int) -> int:
    """ord_p(n!) via the floor-sum formula; rejects composite p."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    total = 0
    m = n
    while m:
        m //= p
        total += m
    return total


def binary_digit_sum(n: int) -> int:
    """Number of 1 bits in the binary expansion of n >= 0."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return n.bit_count()


def digit_sum(n: int, base: int) -> int:
    """Digit sum of n >= 0 in the given base >= 2."""
    if n < 0 or base < 2:
        raise ValueError(f"need n >= 0 and base >= 2, got n={n}, base={base}")
    total = 0
    while n:
        n, r = divmod(n, base)
        total += r
    return total


def orders_at(primes, num: tuple[int, ...], den: tuple[int, ...]) -> dict[int, int]:
    """Signed ord_p of prod(v! for v in num) / prod(v! for v in den) at each p.

    The caller vouches that ``primes`` are prime (they come from the sieve
    or from ``factorize``); no primality test is made, which would otherwise
    cost a factorization per floor sum above the sieve limit.
    """
    out = {}
    for p in primes:
        total = 0
        for v in num:
            while v:
                v //= p
                total += v
        for v in den:
            while v:
                v //= p
                total -= v
        out[p] = total
    return out


def ratio_ord(p: int, spec: BalancedRatio, n: int) -> int:
    """Signed order of the spec's factorial blocks at n; negative values allowed.

    The Legendre reading of the ratio: for zero offsets it equals
    sum_{k>=1} F(n/p^k), with F the step function of ``floors.value_at``.
    """
    num, den = spec.arguments(n)
    return sum(legendre_ord(p, v) for v in num) - sum(legendre_ord(p, v) for v in den)


@dataclass(frozen=True)
class PadicProfile:
    """Per-prime orders of a factorial ratio at a fixed n.

    ``orders`` lists every prime up to the largest factorial argument,
    including zero entries; unlisted primes all have order 0.
    """

    n: int
    orders: dict[int, int]

    def value(self) -> Fraction:
        """Reconstruct the exact ratio value as ``prod p^order``."""
        out = Fraction(1)
        for p, e in self.orders.items():
            if e > 0:
                out *= p**e
            elif e < 0:
                out /= p ** (-e)
        return out

    def nonzero(self) -> dict[int, int]:
        return {p: e for p, e in self.orders.items() if e}


def padic_profile(spec: BalancedRatio, n: int) -> PadicProfile:
    """Orders at every prime up to the largest argument."""
    num, den = spec.arguments(n)
    primes = primes_up_to(max(num + den, default=0))
    return PadicProfile(n=n, orders=orders_at(primes, num, den))
