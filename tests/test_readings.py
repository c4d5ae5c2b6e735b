"""The three readings of one BalancedRatio agree.

For a zero-offset ratio with step function F(x) = sum floor(a_i x) -
sum floor(b_j x), the Legendre order is ord_p = sum_{k>=1} F(n/p^k) and
the cyclotomic exponent is e_d = F(n/d), minus or plus the single factors
(1 - q^g(n)) that d divides.  The all-n residue-class certificates rest on
exactly these identities.
"""

import random

from factratio import exponent_vector, primes_up_to, ratio_ord
from factratio.floors import STEP_6_1, STEP_15_2, value_at
from factratio.qratio import FAMILIES

from test_floors import _random_balanced_shape

_rng = random.Random(20139)
SHAPES = [STEP_6_1, STEP_15_2] + [_random_balanced_shape(_rng) for _ in range(12)]


def test_legendre_order_is_step_value_at_prime_powers():
    for spec in SHAPES:
        for n in range(1, 121):
            top = max(sum(spec.arguments(n), ()))
            for p in primes_up_to(40):
                expected, q = 0, p
                while q <= top:
                    expected += value_at(spec, n, q)
                    q *= p
                assert ratio_ord(p, spec, n) == expected, (spec, n, p)


def test_cyclotomic_exponent_is_step_value():
    for spec in SHAPES:
        for n in range(1, 121, 7):
            exponents = exponent_vector(spec, n).exponents
            for d in range(2, max(sum(spec.arguments(n), ())) + 1):
                assert exponents.get(d, 0) == value_at(spec, n, d), (spec, n, d)


def test_family_exponent_minus_step_value_counts_single_factors():
    seen = set()
    for fid, family in FAMILIES.items():
        spec = family.spec
        for n in range(family.n_min, 61):
            vector = exponent_vector(spec, n)
            sn, sd = spec.singles(n)
            for d in range(2, max(sum(spec.arguments(n) + (sn, sd), ())) + 1):
                singles = sum(g % d == 0 for g in sn) - sum(g % d == 0 for g in sd)
                assert vector.exponents.get(d, 0) - value_at(spec, n, d) == singles, (fid, n, d)
                seen.add(singles)
    # single factors add and remove divisors, and the known thm-7.2 failures occur
    assert {-1, 1} <= seen
    assert exponent_vector(FAMILIES["thm-7.2-4"].spec, 10).exponents[9] == -1
