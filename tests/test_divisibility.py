"""Big-integer divisibility claims, product identities, conjecture sweeps."""

from fractions import Fraction
from math import comb, gcd

import pytest

from factratio import (
    FactorialRatioSpec,
    IntegralityError,
    central_product_value,
    check_divisibility,
    check_product,
    check_two_binomial_conjecture,
    check_valuation_bounds,
    eval_ratio,
    form,
    parity_matches,
    primes_up_to,
    product_forms,
    ratio_int,
    ratio_ord,
    sun_s,
    sun_t,
    valuation_case_orders,
)
from factratio.divisibility import (
    CLAIMS_BY_ID,
    CONSTANT_FACTORS,
    DivisibilityClaim,
    RATIO_BOUNDS,
    S_RATIO,
    T_CFORM,
    T_RATIO,
    t_cform,
    valuation_verdict,
)


def test_ratio_specs_match_sequences():
    for n in range(1, 30):
        assert eval_ratio(S_RATIO, n) == sun_s(n)
        assert eval_ratio(T_RATIO, n) == sun_t(n)
        assert eval_ratio(T_CFORM, n) == t_cform(n) == 5 * (10 * n + 1) * sun_t(n)


def test_trivial_ratio():
    trivial = FactorialRatioSpec.from_pairs([(1, 0)], [(1, 0)])
    assert eval_ratio(trivial, 7) == 1
    assert ratio_int(trivial, 7) == 1


def test_ratio_int_raises_on_nonintegers():
    bad = FactorialRatioSpec.from_pairs([(1, 0)], [(1, 1)])  # n!/(n+1)!
    with pytest.raises(IntegralityError):
        ratio_int(bad, 3)


def test_sequence_spot_values():
    assert [sun_s(n) for n in range(1, 5)] == [5, 231, 14586, 1062347]
    assert sun_t(1) == 91
    assert sun_t(2) == 858429


def test_sequence_parity_examples():
    assert sun_s(4) % 2 == 1
    assert sun_s(3) % 2 == 0


def test_claim_spot_checks():
    thm11 = CLAIMS_BY_ID["thm-1.1"][0]
    assert check_divisibility(thm11, 1)  # 5 | 15
    thm12 = CLAIMS_BY_ID["thm-1.2"][0]
    assert check_divisibility(thm12, 1)  # 13 | 21*91 = 1911
    first13 = CLAIMS_BY_ID["thm-1.3"][0]
    assert check_divisibility(first13, 1)  # 7 | 105*5


@pytest.mark.parametrize("claim_id", ["thm-1.1", "thm-1.2", "thm-1.3"])
def test_claims_hold_on_initial_range(claim_id):
    for claim in CLAIMS_BY_ID[claim_id]:
        for n in range(1, 120):
            assert check_divisibility(claim, n), (claim.name, n)


def test_published_fourth_congruence_fails_at_n2():
    # 3003*t(n) = 0 (mod 2n+1) as printed: 3003*t(2) = 2577862287 = 2 (mod 5).
    # The registry therefore carries the C(5n,n)-normalized form instead.
    assert (3003 * sun_t(2)) % 5 == 2
    fourth = CLAIMS_BY_ID["thm-1.3"][3]
    assert fourth.value_key == "t-cform"
    for n in range(1, 200):
        assert check_divisibility(fourth, n)


def test_dual_route_verdicts_agree():
    for claim_id in ("thm-1.1", "thm-1.2", "thm-1.3"):
        for claim in CLAIMS_BY_ID[claim_id]:
            for n in range(1, 201):
                assert check_divisibility(claim, n) == valuation_verdict(claim, n)


def test_valuation_route_takes_any_multiplier():
    # multipliers outside CONSTANT_FACTORS, each failing for some n
    for multiplier in (1, 2, 35, 1001):
        claim = DivisibilityClaim("demo", multiplier, S_RATIO, form(2, 9), "s")
        verdicts = [check_divisibility(claim, n) for n in range(1, 61)]
        assert not all(verdicts)
        assert verdicts == [valuation_verdict(claim, n) for n in range(1, 61)]


def test_constant_factorizations():
    for value, factors in CONSTANT_FACTORS.items():
        rebuilt = 1
        for p, e in factors.items():
            rebuilt *= p**e
        assert rebuilt == value
    assert CONSTANT_FACTORS[43263] == {3: 2, 11: 1, 19: 1, 23: 1}


def test_product_forms_examples():
    assert check_product(1, 1, 1, 2) == (True, 2)
    assert check_product(1, 1, 2, 1) == (True, 4)
    assert check_product(2, 3, 1, 1) == (True, 60)


def test_product_forms_agree_and_integral():
    for a in range(1, 7):
        for b in range(1, 7):
            for m in range(1, 7):
                for n in range(1, 7):
                    first, second = product_forms(a, b, m, n)
                    assert first == second
                    assert first.denominator == 1


def test_product_rejects_nonpositive():
    with pytest.raises(ValueError):
        product_forms(0, 1, 1, 1)


def test_central_specializations():
    # m = 2..5 give 6/(n+2), 30/(n+3), 140/(n+4), 630/(n+5) times C(2n,n)
    for n in range(1, 400):
        c = comb(2 * n, n)
        assert Fraction(6 * c, n + 2) == central_product_value(2, n)
        assert Fraction(30 * c, n + 3) == central_product_value(3, n)
        assert Fraction(140 * c, n + 4) == central_product_value(4, n)
        assert Fraction(630 * c, n + 5) == central_product_value(5, n)
        for m in (1, 2, 3, 4, 5):
            assert central_product_value(m, n).denominator == 1


def test_gcd_reductions_along_sweeps():
    for n in range(1, 10_001):
        assert gcd(2 * n + 3, 4 * n + 2) == 1
        assert gcd(10 * n + 1, 10 * n + 3) == 1
    for n in range(1, 1001):
        assert comb(5 * n, n) == 5 * comb(5 * n - 1, n - 1)
    for n in (2000, 5000, 10_000):
        assert comb(5 * n, n) == 5 * comb(5 * n - 1, n - 1)


def test_valuation_case_bounds():
    assert valuation_case_orders("X", 1)[3] >= -1
    for name in RATIO_BOUNDS:
        for n in range(1, 61):
            assert check_valuation_bounds(name, n) == []


def test_case_orders_match_ratio_ord():
    for name, bounded in RATIO_BOUNDS.items():
        spec = bounded.spec
        for n in range(1, 61):
            expected = {
                p: ratio_ord(p, spec, n) for p in primes_up_to(spec.max_argument(n)) if p != 2
            }
            assert valuation_case_orders(name, n) == expected, (name, n)


def test_valuation_bounds_y_examples():
    for n in (1, 7, 19, 40):
        orders = valuation_case_orders("Y", n)
        assert orders[5] >= 0
        assert orders[3] >= -2


def test_clearing_constants_divide_multipliers():
    # the constant attached to each bounded ratio absorbs all negative orders
    for name, bounded in RATIO_BOUNDS.items():
        for n in range(1, 61):
            clearing = 1
            for p, e in valuation_case_orders(name, n).items():
                if e < 0:
                    clearing *= p ** (-e)
            assert bounded.clearing % clearing == 0


def test_two_binomial_conjecture_examples():
    # (a=2,b=1,n=1): divisor 30, product 3*1*5*C(4,2)*C(2,1) = 180
    assert 3 * (2 - 1) * (3 * 2 - 1) * comb(4, 2) * comb(2, 1) == 180
    assert check_two_binomial_conjecture(2, 1, 1)
    # (a=3,b=1,n=1): product 3*2*8*C(6,3)*C(3,1) = 2880
    assert 3 * 2 * 8 * comb(6, 3) * comb(3, 1) == 2880
    assert check_two_binomial_conjecture(3, 1, 1)


def test_two_binomial_conjecture_domain():
    with pytest.raises(ValueError):
        check_two_binomial_conjecture(2, 2, 1)  # requires a > b


def test_parity_claim_against_direct_values():
    for n in range(1, 301):
        assert parity_matches(n)
        want_odd = n & (n - 1) == 0
        assert (sun_s(n) % 2 == 1) == want_odd
