"""Cyclotomic-exponent expansion of q-ratio expressions vs the division oracle."""

import random
from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest

from factratio import (
    BalancedRatio,
    DensePoly,
    NotPolynomialError,
    check_product,
    exponent_vector,
    expand,
    expand_many,
    form,
    naive_expand,
    qbinomial,
)
from factratio import qpoly, qratio
from factratio.qpoly import first_negative_index, is_reciprocal
from factratio.qratio import (
    FAMILIES,
    _q_arguments,
    THM_7_2_FAMILY_IDS,
    THM_7_4_FAMILY_IDS,
    gcd_product_q1_value,
    gcd_product_spec,
    qbinomial_spec,
    spec_degree,
)

from test_floors import _random_balanced_shape


def test_exponent_vector_gcd_product_example():
    # a=b=m=1, n=2 reduces to 1 + q^2
    spec = gcd_product_spec(1, 1, 1, 2)
    vector = exponent_vector(spec, 1)
    assert vector.exponents == {4: 1}
    assert expand(vector).coeffs == (1, 0, 1)
    assert naive_expand(spec, 1).coeffs == (1, 0, 1)


def test_exponent_vector_qbinomial_42():
    vector = exponent_vector(qbinomial_spec(4, 2), 1)
    assert vector.exponents == {3: 1, 4: 1}


def test_exponent_vector_empty_spec():
    vector = exponent_vector(BalancedRatio((), ()), 1)
    assert vector.exponents == {}
    assert expand(vector).coeffs == (1,)


def test_sign_imbalance_rejected():
    spec = BalancedRatio.from_pairs([(0, 3)], [(0, 2)])
    with pytest.raises(ValueError, match="imbalance"):
        exponent_vector(spec, 1)


def test_single_factor_argument_zero_rejected():
    spec = BalancedRatio.from_pairs([(0, 1)], [(0, 1)], [(0, 0)], [(0, 1)])
    with pytest.raises(ValueError):
        exponent_vector(spec, 1)


def test_expand_rejects_negative_exponent():
    from factratio.qratio import CycloExponentVector

    vector = CycloExponentVector(exponents={2: -1, 3: 2}, bound=3)
    with pytest.raises(NotPolynomialError) as err:
        expand(vector)
    assert err.value.d == 2


def test_expansion_matches_oracle_for_qbinomials():
    for n in range(0, 11):
        for k in range(0, n + 1):
            spec = qbinomial_spec(n, k)
            assert expand(exponent_vector(spec, 1)) == qbinomial(n, k)


@pytest.mark.parametrize("fid", sorted(FAMILIES))
def test_expansion_matches_oracle_for_families(fid):
    family = FAMILIES[fid]
    for n in range(family.n_min, 5):
        try:
            primary = expand(exponent_vector(family.spec, n))
        except NotPolynomialError:
            with pytest.raises(NotPolynomialError):
                naive_expand(family.spec, n)
            continue
        assert primary == naive_expand(family.spec, n)


def _uncancelled_expand(spec, n):
    """Every numerator factor multiplied out, then every denominator factor
    divided, largest first; None when a division leaves a remainder."""
    qn, qd = spec.arguments(n)
    sn, sd = spec.singles(n)
    poly = DensePoly.one()
    for j in [j for m in qn for j in range(1, m + 1)] + list(sn):
        poly = poly.mul_one_minus_power(j)
    for j in sorted([j for m in qd for j in range(1, m + 1)] + list(sd), reverse=True):
        poly, exact = poly.div_one_minus_power(j)
        if not exact:
            return None
    return poly


def _random_q_spec(rng):
    """A balanced shape with as many numerator as denominator single factors."""
    singles = [(rng.randint(0, 3), rng.randint(1, 6)) for _ in range(rng.randint(0, 6))]
    half = len(singles) // 2
    return replace(
        _random_balanced_shape(rng),
        single_num=tuple(form(c, o) for c, o in singles[:half]),
        single_den=tuple(form(c, o) for c, o in singles[half : 2 * half]),
    )


def _cancellation_cases():
    for family in FAMILIES.values():
        for n in range(family.n_min, 9):
            yield family.spec, n
    rng = random.Random(20141)
    for _ in range(16):
        spec = _random_q_spec(rng)
        for n in (1, 2, 3):
            yield spec, n


def test_naive_expand_cancellation_matches_uncancelled_reference():
    outcomes = set()
    for spec, n in _cancellation_cases():
        expected = _uncancelled_expand(spec, n)
        try:
            got = naive_expand(spec, n)
        except NotPolynomialError as exc:
            assert expected is None, (spec, n)
            negative = [d for d, e in exponent_vector(spec, n).exponents.items() if e < 0]
            assert any(exc.factor % d == 0 for d in negative), (spec, n, exc.factor)
            outcomes.add("raise")
            continue
        assert got == expected, (spec, n)
        outcomes.add("poly")
    assert outcomes == {"raise", "poly"}


def test_naive_expand_uses_neither_cyclotomic_nor_mul(monkeypatch):
    """The division route shares no kernel with expand but the (1 - q^j)
    ones: it builds no cyclotomic polynomial and makes no general product."""

    def fail(*args):
        pytest.fail("naive_expand reached a kernel of the cyclotomic route")

    cases = [(fid, n) for fid, family in FAMILIES.items() for n in range(family.n_min, 7)]
    with monkeypatch.context() as m:
        m.setattr(qratio, "cyclotomic", fail)
        m.setattr(qpoly, "cyclotomic", fail)
        m.setattr(DensePoly, "__mul__", fail)
        polys = [naive_expand(FAMILIES[fid].spec, n) for fid, n in cases]
        for fid in ("thm-7.2-4", "thm-7.2-5"):  # false at n = 1 (mod 9)
            with pytest.raises(NotPolynomialError):
                naive_expand(FAMILIES[fid].spec, 10)
    assert polys == [expand(exponent_vector(FAMILIES[fid].spec, n)) for fid, n in cases]


def test_spec_degree_matches_expansion():
    for fid in ("wz", "thm-7.2-1", "thm-7.4-2", "q-catalan"):
        family = FAMILIES[fid]
        for n in range(family.n_min, 5):
            poly = expand(exponent_vector(family.spec, n))
            assert poly.degree == spec_degree(family.spec, n)


def test_gcd_product_small_sweep():
    for a in range(1, 4):
        for b in range(1, 4):
            for m in range(1, 4):
                for n in range(1, 4):
                    spec = gcd_product_spec(a, b, m, n)
                    vector = exponent_vector(spec, 1)
                    assert vector.is_polynomial(), (a, b, m, n)
                    poly = expand(vector)
                    assert first_negative_index(poly) is None
                    assert is_reciprocal(poly)
                    assert poly.coefficient_sum() == gcd_product_q1_value(a, b, m, n)


def test_corollary_variant_q1_matches_product_integer():
    for a in range(1, 4):
        for b in range(1, 4):
            for m in range(1, 4):
                for n in range(1, 4):
                    spec = gcd_product_spec(a, b, m, n, use_gcd=False)
                    poly = expand(exponent_vector(spec, 1))
                    assert first_negative_index(poly) is None
                    ok, value = check_product(a, b, m, n)
                    assert ok
                    assert poly.coefficient_sum() == value
                    assert gcd_product_q1_value(a, b, m, n, use_gcd=False) == value


def test_gcd_product_q1_scaling_relation():
    # the gcd form's q=1 value is the product integer scaled by gcd(am,m+n)/am
    a, b, m, n = 3, 1, 1, 1
    _, value = check_product(a, b, m, n)
    expected = Fraction(gcd(a * m, m + n), a * m) * value
    assert gcd_product_q1_value(a, b, m, n) == expected == 2


def test_wz_family_n1_expansion():
    poly = expand(exponent_vector(FAMILIES["wz"].spec, 1))
    assert poly.coeffs == (1, 1, 3, 3, 5, 4, 5, 3, 3, 1, 1)
    assert is_reciprocal(poly)
    # the n=1 polynomial dips at its center: the unimodality conjecture
    # starts at n = 2 for a reason
    from factratio.qpoly import is_unimodal

    assert not is_unimodal(poly)


def test_wz_family_positive_and_unimodal_small():
    from factratio.qpoly import is_unimodal

    for n in range(2, 7):
        poly = expand(exponent_vector(FAMILIES["wz"].spec, n))
        assert first_negative_index(poly) is None
        assert is_reciprocal(poly)
        assert is_unimodal(poly)


def test_section7_polynomiality_small():
    for fid in THM_7_2_FAMILY_IDS + THM_7_4_FAMILY_IDS:
        family = FAMILIES[fid]
        for n in range(family.n_min, 9):
            vector = exponent_vector(family.spec, n)
            if fid in ("thm-7.2-4", "thm-7.2-5") and n % 9 == 1:
                continue  # published expressions fail at n = 1 (mod 9); see ledger
            assert vector.is_polynomial(), (fid, n, vector.first_negative())


def test_published_72_families_fail_at_10():
    # e_9 = -1 whenever 9 | 2n+7: both routes agree these are not polynomials
    for fid in ("thm-7.2-4", "thm-7.2-5"):
        vector = exponent_vector(FAMILIES[fid].spec, 10)
        assert vector.first_negative() == 9
        assert vector.exponents[9] == -1
        with pytest.raises(NotPolynomialError):
            naive_expand(FAMILIES[fid].spec, 10)


def test_family_q1_values_match_integer_ratios():
    # at q=1 the wz family equals (6n)! n! / ((3n)!(2n)!^2)
    from factratio import eval_ratio
    from factratio.divisibility import WZ_INT_RATIO

    for n in range(1, 5):
        poly = expand(exponent_vector(FAMILIES["wz"].spec, n))
        assert poly.coefficient_sum() == eval_ratio(WZ_INT_RATIO, n)


def test_q_catalan_family_matches_direct_construction():
    from factratio import q_catalan

    for n in range(1, 9):
        poly = expand(exponent_vector(FAMILIES["q-catalan"].spec, n))
        assert poly == q_catalan(n)


def test_expand_unpacks_only_when_read(monkeypatch):
    """The product tree keeps every intermediate product packed; the
    coefficients are unpacked once, when first read."""
    calls = []
    unpack = qpoly._unpack

    def counted(data, k):
        calls.append(k)
        return unpack(data, k)

    monkeypatch.setattr(qpoly, "_unpack", counted)
    poly = expand(exponent_vector(FAMILIES["wz"].spec, 12))
    assert poly.degree == 1440 and poly
    assert calls == []
    coeffs = poly.coeffs
    assert poly.coeffs is coeffs and len(calls) == 1
    assert poly == naive_expand(FAMILIES["wz"].spec, 12)
    assert len(calls) == 1


def _per_d_exponents(spec, n):
    """e_d by four sums per d, straight from the definition."""
    qn, qd, sn, sd = _q_arguments(spec, n)
    bound = max(qn + qd + sn + sd, default=0)
    exponents = {}
    for d in range(2, bound + 1):
        e = (
            sum(v // d for v in qn)
            - sum(v // d for v in qd)
            + sum(1 for v in sn if v % d == 0)
            - sum(1 for v in sd if v % d == 0)
        )
        if e:
            exponents[d] = e
    return exponents, bound


def test_exponent_vector_matches_per_d_definition():
    cases = [(f.spec, n) for f in FAMILIES.values() for n in range(f.n_min, 31)]
    rng = random.Random(1402)
    cases += [(_random_q_spec(rng), n) for _ in range(16) for n in range(1, 13)]
    for spec, n in cases:
        vector = exponent_vector(spec, n)
        assert (vector.exponents, vector.bound) == _per_d_exponents(spec, n), (spec, n)


def _polynomial_vectors(fids, n):
    """The polynomial vectors of the families defined at n, as the registry
    passes them to expand_many."""
    vectors = [exponent_vector(FAMILIES[f].spec, n) for f in fids if n >= FAMILIES[f].n_min]
    return [v for v in vectors if v.is_polynomial()]


def _expand_many_groups():
    for n in range(1, 13):
        yield _polynomial_vectors(THM_7_2_FAMILY_IDS, n)
    for n in range(1, 9):
        yield _polynomial_vectors(THM_7_4_FAMILY_IDS, n)
    for n in range(1, 7):
        yield _polynomial_vectors(sorted(FAMILIES), n)
    rng = random.Random(1403)
    for _ in range(30):
        vectors = _polynomial_vectors(
            rng.sample(sorted(FAMILIES), rng.randint(1, 4)), rng.randint(1, 6)
        )
        if vectors and rng.random() < 0.3:
            vectors.append(rng.choice(vectors))  # a repeated vector leaves no rest
        yield vectors


def _multiplications(vectors):
    """__mul__ calls of expand_many: one tree for the common part, one per
    rest, and one to join each nonempty rest onto a nonempty common part."""
    count = lambda exponents: sum(exponents.values())
    common = {
        d: min(v.exponents.get(d, 0) for v in vectors) for d in vectors[0].exponents
    }
    c = count(common)
    calls = max(c - 1, 0)
    for v in vectors:
        r = count(v.exponents) - c
        calls += max(r - 1, 0) + (1 if r and c else 0)
    return calls


def test_expand_many_matches_expand_per_vector(monkeypatch):
    """The shared expansion equals one expansion per vector, and multiplies
    the common part out once per call, not once per vector."""
    calls = []
    mul = DensePoly.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    shared = 0
    for vectors in _expand_many_groups():
        expected = [expand(v) for v in vectors]
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(DensePoly, "__mul__", counted)
            got = expand_many(vectors)
        assert got == expected
        if not vectors:
            continue
        assert len(calls) == _multiplications(vectors)
        separate = sum(max(sum(v.exponents.values()) - 1, 0) for v in vectors)
        assert len(calls) <= separate
        shared += len(calls) < separate
    assert expand_many([]) == []
    assert shared > 20


def test_expand_many_rejects_negative_exponent():
    from factratio.qratio import CycloExponentVector

    good = exponent_vector(FAMILIES["wz"].spec, 2)
    bad = CycloExponentVector(exponents={3: 1, 5: -2}, bound=5)
    with pytest.raises(NotPolynomialError) as err:
        expand_many([good, bad])
    assert err.value.d == 5
