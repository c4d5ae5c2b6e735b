"""Valuation layer: Legendre floor sums vs trial-division oracles."""

import random
from fractions import Fraction
from math import isqrt, prod

import pytest

from factratio import (
    BalancedRatio,
    binary_digit_sum,
    digit_sum,
    eval_ratio,
    factorize,
    is_prime,
    legendre_ord,
    padic_profile,
    primes_up_to,
    ratio_ord,
)
from factratio import valuation
from factratio.divisibility import RATIO_BOUNDS, S_RATIO, T_RATIO, WZ_INT_RATIO
from factratio.floors import divisors_of


def ord_p_int(p: int, v: int) -> int:
    """Trial-division order of a single integer."""
    e = 0
    while v % p == 0:
        v //= p
        e += 1
    return e


def test_primes_table():
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_up_to(1) == []
    assert is_prime(2) and is_prime(97) and is_prime(7919)
    assert not is_prime(1) and not is_prime(0) and not is_prime(91)


def _trial_division_is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))


def _keep_sieve(monkeypatch):
    """Have monkeypatch restore the module's sieve globals after the test."""
    for name in ("_SIEVE_LIMIT", "_SIEVE", "_PRIMES"):
        monkeypatch.setattr(valuation, name, getattr(valuation, name))


def test_is_prime_from_empty_sieve(monkeypatch):
    monkeypatch.setattr(valuation, "_SIEVE_LIMIT", 0)
    monkeypatch.setattr(valuation, "_SIEVE", bytearray())
    monkeypatch.setattr(valuation, "_PRIMES", [])
    got = [p for p in range(5001) if is_prime(p)]
    assert got == [p for p in range(5001) if _trial_division_is_prime(p)]
    # the first trial division built the sieve; everything above it was
    # answered by trial division again
    assert 0 < valuation._SIEVE_LIMIT < 5000


def test_is_prime_above_sieve_limit(monkeypatch):
    _keep_sieve(monkeypatch)
    primes_up_to(5000)
    limit = valuation._SIEVE_LIMIT
    for p in range(limit + 1, limit + 3001):
        assert is_prime(p) == _trial_division_is_prime(p), p
    assert is_prime(104_729) and is_prime(2**31 - 1)
    assert not is_prime(7919**2) and not is_prime(104_729 * 7919)
    assert not is_prime(-7) and not is_prime(-1)


def _trial_division_factors(v: int) -> dict[int, int]:
    out = {}
    d = 2
    while d * d <= v:
        while v % d == 0:
            out[d] = out.get(d, 0) + 1
            v //= d
        d += 1
    if v > 1:
        out[v] = out.get(v, 0) + 1
    return out


def _trial_division_divisors(v: int) -> list[int]:
    small = [d for d in range(1, isqrt(v) + 1) if v % d == 0]
    return sorted(set(small) | {v // d for d in small})


def test_factorize_and_divisors_match_trial_division(monkeypatch):
    # start from an empty sieve so factorize grows it only to sqrt(v), and
    # the large prime cofactors lie above the sieve limit
    monkeypatch.setattr(valuation, "_SIEVE_LIMIT", 0)
    monkeypatch.setattr(valuation, "_SIEVE", bytearray())
    monkeypatch.setattr(valuation, "_PRIMES", [])
    rng = random.Random(20131)
    values = list(range(1, 5001)) + [rng.randrange(1, 10**7) for _ in range(2000)]
    values += [9_999_991, 2 * 4_999_999, 3163**2, 2**23, 7 * 11 * 13 * 17 * 19 * 23]
    above_sieve = 0
    for v in values:
        factors = factorize(v)
        assert factors == _trial_division_factors(v), v
        assert list(factors) == sorted(factors)
        assert prod(p**e for p, e in factors.items()) == v
        assert divisors_of(v) == _trial_division_divisors(v), v
        above_sieve += any(p > valuation._SIEVE_LIMIT for p in factors)
    assert valuation._SIEVE_LIMIT < 10_000
    assert above_sieve > 1000
    assert factorize(9_999_991) == {9_999_991: 1}


def test_factorize_and_divisors_edge_cases():
    assert factorize(1) == {}
    assert divisors_of(1) == [1]
    assert divisors_of(0) == [] and divisors_of(-6) == []
    with pytest.raises(ValueError):
        factorize(0)


def test_orders_at_matches_legendre_sums():
    for spec in (S_RATIO, T_RATIO, WZ_INT_RATIO):
        for n in range(1, 80):
            num, den = spec.arguments(n)
            primes = primes_up_to(spec.max_argument(n))
            assert valuation.orders_at(primes, num, den) == {
                p: sum(legendre_ord(p, v) for v in num) - sum(legendre_ord(p, v) for v in den)
                for p in primes
            }


def test_legendre_rejects_composites_inside_sieve(monkeypatch):
    _keep_sieve(monkeypatch)
    primes_up_to(200)
    assert valuation._SIEVE_LIMIT >= 91
    for p in (1, 4, 91):
        with pytest.raises(ValueError):
            legendre_ord(p, 10)


def test_legendre_examples():
    assert legendre_ord(2, 0) == 0
    assert legendre_ord(2, 4) == 3  # 4! = 24 = 2^3 * 3
    assert legendre_ord(3, 9) == 4  # 9! has 3^4


def test_legendre_rejects_bad_inputs():
    with pytest.raises(ValueError):
        legendre_ord(4, 10)
    with pytest.raises(ValueError):
        legendre_ord(1, 10)
    with pytest.raises(ValueError):
        legendre_ord(2, -1)


def test_legendre_matches_trial_division():
    # accumulate ord_p(n!) = sum_{k<=n} ord_p(k) and compare at every n
    for p in primes_up_to(30):
        acc = 0
        for n in range(1, 400):
            acc += ord_p_int(p, n)
            assert legendre_ord(p, n) == acc


def test_legendre_digit_sum_restatement():
    # ord_p(n!) = (n - digit_sum_base_p(n)) / (p - 1)
    for p in (2, 3, 5, 7, 13, 31):
        for n in (0, 1, 5, 100, 12345, 99991):
            assert legendre_ord(p, n) == (n - digit_sum(n, p)) // (p - 1)


def test_ratio_ord_spot_values():
    assert ratio_ord(5, S_RATIO, 1) == 1  # S(1) = 5
    assert ratio_ord(7, S_RATIO, 1) == 0
    assert ratio_ord(13, T_RATIO, 1) == 1  # t(1) = 91 = 7*13


def test_ratio_ord_can_be_negative():
    inv_central = BalancedRatio.from_pairs([(1, 0), (1, 0)], [(2, 0)])
    # (n!)^2/(2n)! = 1/C(2n,n); at n=2 the value is 1/6
    assert ratio_ord(2, inv_central, 2) == -1
    assert ratio_ord(3, inv_central, 2) == -1


def test_padic_profile_examples():
    prof = padic_profile(S_RATIO, 1)
    assert prof.nonzero() == {5: 1}
    assert prof.value() == 5

    prof2 = padic_profile(S_RATIO, 2)
    assert prof2.value() == 231
    assert prof2.nonzero() == {3: 1, 7: 1, 11: 1}

    trivial = BalancedRatio.from_pairs([(1, 0)], [(1, 0)])
    assert padic_profile(trivial, 17).nonzero() == {}


def test_profile_lists_every_prime_up_to_max_argument():
    prof = padic_profile(S_RATIO, 3)
    limit = S_RATIO.max_argument(3)
    assert sorted(prof.orders) == primes_up_to(limit)


# the four shifted companion ratios of the valuation case bounds
SHIFTED = [bounded.spec for bounded in RATIO_BOUNDS.values()]


@pytest.mark.parametrize("spec", [S_RATIO, T_RATIO, WZ_INT_RATIO] + SHIFTED)
def test_profile_product_equals_exact_value(spec):
    for n in range(1, 201):
        assert padic_profile(spec, n).value() == eval_ratio(spec, n)


def test_binary_digit_sum():
    assert binary_digit_sum(0) == 0
    assert binary_digit_sum(8) == 1
    assert binary_digit_sum(11) == 3  # 1011
    with pytest.raises(ValueError):
        binary_digit_sum(-1)


def test_ord2_identity_matches_digit_sum():
    # ord_2 of (6n)! n! / ((3n)!(2n)!^2) equals the binary digit sum of n
    for n in range(1, 3001):
        assert ratio_ord(2, WZ_INT_RATIO, n) == binary_digit_sum(n)


def test_spec_balance_validated():
    with pytest.raises(ValueError):
        BalancedRatio.from_pairs([(6, 0)], [(3, 0), (2, 0)])


def test_negative_argument_rejected():
    spec = BalancedRatio.from_pairs([(1, -1), (1, 1)], [(2, 0)])
    with pytest.raises(ValueError):
        spec.arguments(0)
    assert spec.arguments(1) == ((0, 2), (2,))


def test_eval_ratio_is_exact_rational():
    inv_central = BalancedRatio.from_pairs([(1, 0), (1, 0)], [(2, 0)])
    assert eval_ratio(inv_central, 2) == Fraction(1, 6)
