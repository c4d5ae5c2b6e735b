"""Valuation layer: Legendre floor sums vs trial-division oracles."""

import random
from fractions import Fraction
from math import isqrt, prod

import pytest

from factratio import (
    BalancedRatio,
    digit_sum,
    eval_ratio,
    factorize,
    is_prime,
    legendre_ord,
    primes_up_to,
    ratio_ord,
    ratio_ord2_run,
)
from factratio import valuation
from factratio.divisibility import S_RATIO, T_RATIO
from factratio.floors import STEP_6_1, divisors_of


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
    for spec in (S_RATIO, T_RATIO, STEP_6_1):
        for n in range(1, 80):
            num, den = spec.arguments(n)
            primes = primes_up_to(max(num + den))
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
    inv_central = BalancedRatio([(1, 0), (1, 0)], [(2, 0)])
    # (n!)^2/(2n)! = 1/C(2n,n); at n=2 the value is 1/6
    assert ratio_ord(2, inv_central, 2) == -1
    assert ratio_ord(3, inv_central, 2) == -1


def _orders(spec: BalancedRatio, n: int) -> dict[int, int]:
    """Orders of the ratio at every prime up to its largest factorial argument."""
    num, den = spec.arguments(n)
    return valuation.orders_at(primes_up_to(max(num + den)), num, den)


def _nonzero(orders: dict[int, int]) -> dict[int, int]:
    return {p: e for p, e in orders.items() if e}


def test_orders_at_examples():
    assert _nonzero(_orders(S_RATIO, 1)) == {5: 1}
    assert _nonzero(_orders(S_RATIO, 2)) == {3: 1, 7: 1, 11: 1}
    trivial = BalancedRatio([(1, 0)], [(1, 0)])
    assert _nonzero(_orders(trivial, 17)) == {}


def test_profile_lists_every_prime_up_to_max_argument():
    limit = max(sum(S_RATIO.arguments(3), ()))
    assert sorted(_orders(S_RATIO, 3)) == primes_up_to(limit)
    # a prime above the largest argument divides none of the factorials
    above = next(p for p in primes_up_to(2 * limit) if p > limit)
    assert valuation.orders_at([above], *S_RATIO.arguments(3)) == {above: 0}


# the four shifted companion ratios (M-1)! B / M! of the valuation case
# bounds, B = W = (6n)!n!/((3n)!(2n)!^2) or G = (15n)!(2n)!/((10n)!(4n)!(3n)!)
SHIFTED = {
    "S": BalancedRatio([(2, 2), (6, 0), (1, 0)], [(2, 3), (3, 0), (2, 0), (2, 0)]),
    "t": BalancedRatio([(10, 2), (15, 0), (2, 0)], [(10, 3), (10, 0), (4, 0), (3, 0)]),
    "X": BalancedRatio([(2, 6), (6, 0), (1, 0)], [(2, 7), (3, 0), (2, 0), (2, 0)]),
    "Y": BalancedRatio([(10, 8), (15, 0), (2, 0)], [(10, 9), (10, 0), (4, 0), (3, 0)]),
}


@pytest.mark.parametrize("spec", [S_RATIO, T_RATIO, STEP_6_1, *SHIFTED.values()])
def test_profile_product_equals_exact_value(spec):
    """No prime above the largest factorial argument divides the ratio, so
    prod p^order over the primes up to it rebuilds the exact value."""
    for n in range(1, 201):
        value = Fraction(1)
        for p, e in _orders(spec, n).items():
            value *= Fraction(p) ** e
        assert value == eval_ratio(spec, n)


def test_ord2_identity_matches_digit_sum():
    # ord_2 of (6n)! n! / ((3n)!(2n)!^2) equals the binary digit sum of n
    for n in range(1, 3001):
        assert ratio_ord(2, STEP_6_1, n) == n.bit_count()


def test_spec_balance_validated():
    with pytest.raises(ValueError):
        BalancedRatio([(6, 0)], [(3, 0), (2, 0)])


def test_negative_argument_rejected():
    spec = BalancedRatio([(1, -1), (1, 1)], [(2, 0)])
    with pytest.raises(ValueError):
        spec.arguments(0)
    assert spec.arguments(1) == ((0, 2), (2,))


def test_eval_ratio_is_exact_rational():
    inv_central = BalancedRatio([(1, 0), (1, 0)], [(2, 0)])
    assert eval_ratio(inv_central, 2) == Fraction(1, 6)


# ----------------------------------------------------------------------
# ratio_ord2_run: 2-adic orders of a run of n from binary digit sums
# ----------------------------------------------------------------------

def _ord2_by_legendre(spec, lo, hi):
    """ord_2 of the spec at each n in [lo, hi), one legendre_ord per argument."""
    out = []
    for n in range(lo, hi):
        num, den = spec.arguments(n)
        out.append(sum(legendre_ord(2, v) for v in num) - sum(legendre_ord(2, v) for v in den))
    return out


def _random_offset_ratio(rng):
    """A balanced ratio with offsets, constant blocks and a non-trivial 2-adic order."""
    num = [(rng.randint(1, 12), rng.randint(0, 5)) for _ in range(rng.randint(1, 3))]
    num.append((0, rng.randint(0, 9)))  # a constant block
    total = sum(c for c, _ in num)
    cuts = sorted(rng.sample(range(1, total), min(rng.randint(0, 3), total - 1)))
    coeffs = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    den = [(c, rng.randint(0, 5)) for c in coeffs] + [(0, rng.randint(0, 9))]
    return BalancedRatio(num, den)


C_N_5 = BalancedRatio([(1, 0)], [(0, 5), (1, -5)])  # C(n, 5), n >= 5


def test_ord2_run_matches_legendre_sums():
    rng = random.Random(20171)
    specs = [S_RATIO, T_RATIO, STEP_6_1] + [_random_offset_ratio(rng) for _ in range(20)]
    for spec in specs:
        lo = rng.randint(1, 5000)
        for a, b in ((0, 40), (lo, lo + rng.randint(1, 300)), (lo, lo + 1)):
            if spec is T_RATIO and a == 0:
                a = 1  # (5n-1)! needs n >= 1
            assert ratio_ord2_run(spec, a, b) == _ord2_by_legendre(spec, a, b), (spec, a, b)
    assert any(ratio_ord2_run(spec, 1, 50) != [0] * 49 for spec in specs[3:])


def test_ord2_run_edges():
    assert ratio_ord2_run(S_RATIO, 0, 1) == [ratio_ord(2, S_RATIO, 0)] == [-1]  # S(0) = 1/2
    assert ratio_ord2_run(S_RATIO, 7, 7) == []
    assert ratio_ord2_run(S_RATIO, 9, 3) == []
    assert ratio_ord2_run(S_RATIO, 12, 13) == [ratio_ord(2, S_RATIO, 12)]
    near = 10**6
    assert ratio_ord2_run(S_RATIO, near - 300, near + 5) == _ord2_by_legendre(
        S_RATIO, near - 300, near + 5
    )
    # arguments at 2^k - 1 and 2^k
    for k in range(3, 31):
        lo = (1 << k) - 1
        assert ratio_ord2_run(C_N_5, lo, lo + 2) == _ord2_by_legendre(C_N_5, lo, lo + 2), k
    constant = BalancedRatio([(0, 8), (1, 0)], [(0, 3), (1, 0)])  # 8!/3!
    assert ratio_ord2_run(constant, 0, 4) == [legendre_ord(2, 8) - legendre_ord(2, 3)] * 4


def test_ord2_run_takes_large_arguments_and_rejects_negative_ones():
    top = (1 << 31) - 1
    assert ratio_ord2_run(C_N_5, top, top + 1) == [ord_p_int(2, prod(range(top - 4, top + 1)) // 120)]
    for spec, lo, hi in (
        (C_N_5, top, top + 2),
        (S_RATIO, (1 << 31) // 6 - 3, (1 << 31) // 6 + 3),
        (S_RATIO, 1 << 70, (1 << 70) + 3),
    ):
        assert ratio_ord2_run(spec, lo, hi) == _ord2_by_legendre(spec, lo, hi), (spec, lo)
    with pytest.raises(ValueError):
        ratio_ord2_run(C_N_5, 4, 10)  # (n-5)! at n = 4


def test_ord2_run_shares_no_kernel_with_the_floor_sums(monkeypatch):
    """The parity sweep's primary route must stay independent of its oracle
    box: it reaches neither legendre_ord, orders_at nor ratio_ord."""
    expected = _ord2_by_legendre(S_RATIO, 1, 300)

    def fail(*args):
        pytest.fail("ratio_ord2_run reached a floor-sum kernel")

    for name in ("legendre_ord", "orders_at", "ratio_ord"):
        monkeypatch.setattr(valuation, name, fail)
    assert ratio_ord2_run(S_RATIO, 1, 300) == expected
