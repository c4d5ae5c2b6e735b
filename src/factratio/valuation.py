"""Exact p-adic valuations of factorials and factorial ratios.

The whole module is floor-sum arithmetic on machine-size arguments; no
factorial is ever formed here.  Primes come from one growable sieve of
Eratosthenes kept per process: ``primes_up_to`` slices its prime list,
``is_prime`` reads its flag bytes, factorizing only above the sieve limit,
and ``factorize`` trial-divides by its primes.  The classical formula

    ord_p(n!) = sum_{i>=1} floor(n / p^i)

drives everything: the order of a factorial ratio is the signed sum of
the orders of its factorial blocks (and may be negative for ratios whose
value is a non-integer rational).  ``orders_at`` is the one kernel that
takes those sums at many primes; ``legendre_ord`` and ``ratio_ord`` take
them at one prime, with a primality check.  ``ratio_ord2_run`` takes the
order at p = 2 for a whole run of n at once from Legendre's digit-sum form
ord_2(v!) = v - s_2(v), one ``int.bit_count`` per argument; the parity
sweep reads ord_2 S(n) from it.
"""

from __future__ import annotations

from bisect import bisect_right
from math import isqrt
from operator import add, sub

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


def ratio_ord2_run(spec: BalancedRatio, lo: int, hi: int) -> list[int]:
    """``ratio_ord(2, spec, n)`` for every n in [lo, hi), by binary digit sums.

    Legendre's formula at p = 2 is ord_2(v!) = v - s_2(v), with s_2(v) the
    number of 1 bits of v.  The arguments c*n + o of each block run over
    one arithmetic progression as n ascends.
    """
    count = hi - lo
    if count <= 0:
        return []
    num, den = spec.arguments(lo)  # coefficients are >= 0: the smallest arguments
    out = [0] * count
    for i, (start, c) in enumerate(zip(num + den, spec.num_coeffs + spec.den_coeffs)):
        run = range(start, start + c * count, c) if c else [start] * count
        out = list(map(add if i < len(num) else sub, out, [v - v.bit_count() for v in run]))
    return out
