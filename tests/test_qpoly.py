"""Dense polynomial arithmetic, cyclotomics, Gaussian binomials, predicates."""

import random
from math import comb, gcd

import pytest

from factratio import (
    DensePoly,
    NotPolynomialError,
    PreconditionError,
    cyclotomic,
    is_nonnegative,
    is_reciprocal,
    is_unimodal,
    q_catalan,
    qbinomial,
    rsw_filter,
)
from factratio import qpoly
from factratio.qpoly import first_negative_index, unimodality_witness


def test_canonical_form():
    assert DensePoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert DensePoly(()).degree == -1
    assert DensePoly((0,)).is_zero()
    assert DensePoly.one().coeffs == (1,)


def test_arithmetic_small():
    p = DensePoly((1, 1))  # 1 + q
    assert (p * p).coeffs == (1, 2, 1)


def _recurrence_div(coeffs, j):
    """Division by 1 - q^j by the plain recurrence q_i = n_i + q_{i-j}."""
    if not coeffs:
        return DensePoly.zero(), True
    qlen = len(coeffs) - j
    if qlen <= 0:
        return DensePoly.zero(), False
    out = []
    for i, c in enumerate(coeffs):
        out.append(c + (out[i - j] if i >= j else 0))
    return DensePoly(out[:qlen]), not any(out[qlen:])


def test_one_minus_power_helpers_match_generic_ops():
    rng = random.Random(7)
    for mag in (6, 2**31, 10**40):
        for _ in range(40):
            length = rng.randint(0, 25)
            p = DensePoly(_random_coeffs(rng, length, mag) if length else ())
            for j in range(1, length + 4):
                fast = p.mul_one_minus_power(j)
                assert fast == p * DensePoly.one_minus_power(j)
                assert fast.div_one_minus_power(j) == (p, True)
                # usually inexact: the partial quotient must match as well
                assert p.div_one_minus_power(j) == _recurrence_div(p.coeffs, j)
    assert not any(DensePoly((1, 2, 3)).div_one_minus_power(j)[1] for j in range(1, 5))
    assert DensePoly((1, 1, 0, -1, -1)).div_one_minus_power(3) == (DensePoly((1, 1)), True)


@pytest.mark.parametrize("j", [0, -1])
def test_one_minus_power_kernels_reject_non_positive_j(j):
    for p in (DensePoly((1, 2, 3)), DensePoly.zero()):
        for kernel in (p.mul_one_minus_power, p.div_one_minus_power, DensePoly.one_minus_power):
            with pytest.raises(ValueError, match=f"need j >= 1, got {j}"):
                kernel(j)


def _schoolbook(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return DensePoly(out)


def _random_coeffs(rng, length, mag):
    cs = [rng.choice((0, rng.randint(-mag, mag))) for _ in range(length)]
    cs[-1] = rng.choice((-mag, mag))  # keep the length and hit the extreme
    return cs


def test_mul_matches_schoolbook_reference():
    rng = random.Random(2013)
    for mag in (1, 7, 2**31, 10**40):
        for la in range(1, 61):
            lb = rng.randint(1, 60)
            a = DensePoly(_random_coeffs(rng, la, mag))
            b = DensePoly(_random_coeffs(rng, lb, rng.choice((1, 7, 2**31, 10**40))))
            assert a * b == _schoolbook(a.coeffs, b.coeffs)
            assert b * a == _schoolbook(b.coeffs, a.coeffs)


def test_mul_tight_slots():
    """Equal-length constant operands put min(len) max|a| max|b| in the
    middle slot, the largest value a slot must hold; it catches a slot
    one bit too narrow for the sign."""
    for mag in (1, 7, 127, 128, 255, 256, 2**31, 10**40):
        for length in (1, 2, 3, 60):
            pos, neg = DensePoly([mag] * length), DensePoly([-mag] * length)
            for a, b in ((neg, neg), (pos, neg), (neg, pos), (pos, pos)):
                assert a * b == _schoolbook(a.coeffs, b.coeffs)


def test_mul_by_zero_and_constants():
    p = DensePoly((3, 0, -5))
    assert (p * DensePoly.zero()).is_zero()
    assert (DensePoly.zero() * p).is_zero()
    assert (p * DensePoly((-1,))).coeffs == (-3, 0, 5)


def _schoolbook_chain(polys):
    out = (1,)
    for p in polys:
        if not p.coeffs:
            return DensePoly.zero()
        out = _schoolbook(out, p.coeffs).coeffs
    return DensePoly(out)


def _tree_product(rng, polys):
    """Multiply adjacent pairs in random order; no product is read on the way."""
    items = list(polys)
    while len(items) > 1:
        i = rng.randrange(len(items) - 1)
        items[i : i + 2] = [items[i] * items[i + 1]]
    return items[0]


CHAIN_MAGNITUDES = (1, 127, 128, 255, 256, 2**15, 2**31, 2**63, 2**64, 10**30)


def test_packed_chain_matches_schoolbook(monkeypatch):
    """Chains of 2-6 products stay packed until read and equal the
    schoolbook product of the coefficient tuples."""
    rng = random.Random(1313)
    eager_only = [DensePoly.zero(), DensePoly((1,)), DensePoly((-1,)), DensePoly((-128,))]
    for _ in range(300):
        polys = []
        for _ in range(rng.randint(2, 6)):
            if rng.random() < 0.1:
                polys.append(rng.choice(eager_only))
                continue
            mag = rng.choice(CHAIN_MAGNITUDES)
            polys.append(DensePoly(_random_coeffs(rng, rng.randint(1, 12), mag)))
        expected = _schoolbook_chain(polys)
        product = _tree_product(rng, polys)

        # size and truth come from the slots: unpacking is forbidden here
        with monkeypatch.context() as m:
            m.setattr(qpoly, "_unpack", lambda data, k: pytest.fail("unpacked"))
            assert product.degree == expected.degree
            assert bool(product) == bool(expected)
            assert product.is_zero() == expected.is_zero()

        assert product == expected and expected == product
        assert hash(product) == hash(expected)
        assert product.coeffs == expected.coeffs
        if expected:
            j = rng.randint(1, 8)
            assert product.mul_one_minus_power(j) == expected.mul_one_minus_power(j)
            assert (product * DensePoly.one_minus_power(j)).div_one_minus_power(j) == (
                expected,
                True,
            )
            assert product.div_one_minus_power(j) == expected.div_one_minus_power(j)


def test_packed_chain_extreme_slots():
    """Slots at the edge of their width: offset binary holds -2^(8k-1)
    itself, and a coefficient one past it needs one more byte."""
    for mag in CHAIN_MAGNITUDES:
        for sign in (1, -1):
            c = DensePoly((sign * mag,))
            p = DensePoly((sign * mag, -sign * mag, sign * mag))
            chain = [c, p, c, p, c]
            assert _tree_product(random.Random(mag), chain) == _schoolbook_chain(chain)
    minus_128 = DensePoly((-128,)) * DensePoly((1,))  # narrows to one byte
    assert minus_128._packed()[1] == 1
    assert (minus_128 * minus_128).coeffs == (16384,)
    assert (minus_128 * DensePoly((-1,))).coeffs == (128,)


def test_packed_cyclotomic_product_narrows_to_one_byte():
    """prod_{d | k} Phi_d = q^k - 1, coefficients 0 and +-1: every slot
    width the product tree passes through narrows back to one byte."""
    for k in range(1, 301):
        divisors = [d for d in range(1, k + 1) if k % d == 0]
        product = _tree_product(random.Random(k), [cyclotomic(d) for d in divisors])
        if len(divisors) > 1:
            assert product._packed()[1] == 1, k
        assert product == DensePoly((-1,) + (0,) * (k - 1) + (1,)), k  # q^k - 1


def test_coefficient_sum():
    assert DensePoly((1, 0, 2)).coefficient_sum() == 3
    assert DensePoly((-5,)).coefficient_sum() == -5
    assert DensePoly.zero().coefficient_sum() == 0
    wide = DensePoly((1, -(10**30))) * DensePoly((1, 1))  # held only in slots
    assert wide._coeffs is None and wide.coefficient_sum() == 2 * (1 - 10**30)


def test_json_coeffs_are_decimal_strings():
    assert DensePoly((1, -2, 10**30)).to_json_coeffs() == ["1", "-2", str(10**30)]


def test_cyclotomic_small():
    assert cyclotomic(1).coeffs == (-1, 1)
    assert cyclotomic(2).coeffs == (1, 1)
    assert cyclotomic(4).coeffs == (1, 0, 1)
    assert cyclotomic(6).coeffs == (1, -1, 1)


def test_cyclotomic_product_is_qk_minus_one():
    for k in range(1, 61):
        prod = DensePoly.one()
        for d in range(1, k + 1):
            if k % d == 0:
                prod = prod * cyclotomic(d)
        assert prod == DensePoly((-1,) + (0,) * (k - 1) + (1,))  # q^k - 1


def test_cyclotomic_degree_is_euler_phi():
    for d in range(1, 401):
        phi = sum(1 for i in range(1, d + 1) if gcd(i, d) == 1)
        assert cyclotomic(d).degree == phi, d


def test_qbinomial_examples():
    assert qbinomial(2, 1).coeffs == (1, 1)
    assert qbinomial(4, 2).coeffs == (1, 1, 2, 1, 1)
    assert qbinomial(3, 5).is_zero()
    assert qbinomial(5, 0).coeffs == (1,)


def test_qbinomial_degree_and_symmetry():
    for n in range(0, 15):
        for k in range(0, n + 1):
            p = qbinomial(n, k)
            assert p.degree == k * (n - k)
            assert p == qbinomial(n, n - k)
            assert p.coefficient_sum() == comb(n, k)


def test_qbinomial_reciprocal_unimodal():
    for n in range(0, 31):
        for k in range(0, n + 1):
            p = qbinomial(n, k)
            assert is_reciprocal(p)
            assert is_unimodal(p)


def test_predicates_examples():
    p = qbinomial(4, 2)
    assert is_reciprocal(p) and is_unimodal(p) and is_nonnegative(p)
    dip = DensePoly((1, 0, 1))  # rises after a fall: not unimodal
    assert is_reciprocal(dip)
    assert not is_unimodal(dip)
    assert unimodality_witness(dip) == 2


def test_zero_polynomial_conventions():
    z = DensePoly.zero()
    assert is_reciprocal(z) and is_unimodal(z) and is_nonnegative(z)


def test_negative_coefficient_breaks_unimodality():
    p = DensePoly((1, -2, 1))
    assert not is_nonnegative(p)
    assert first_negative_index(p) == 1
    assert unimodality_witness(p) == 1
    assert not is_unimodal(p)


def _random_reciprocal_unimodal(rng, max_half_degree=20):
    # constant term must stay positive or mirroring breaks canonical form
    half = [rng.randint(1, 5)] + [
        rng.randint(0, 5) for _ in range(rng.randint(0, max_half_degree - 1))
    ]
    rising = []
    total = 0
    for step in half:
        total += step
        rising.append(total)
    if rng.random() < 0.5:
        coeffs = rising + rising[::-1]  # even length: plateau peak
    else:
        coeffs = rising + [rising[-1] + rng.randint(0, 3)] + rising[::-1]
    return DensePoly(coeffs)


def test_product_of_reciprocal_unimodal_is_reciprocal_unimodal():
    rng = random.Random(2024)
    for _ in range(40):
        p = _random_reciprocal_unimodal(rng)
        r = _random_reciprocal_unimodal(rng)
        assert is_reciprocal(p) and is_unimodal(p)
        prod = p * r
        assert is_reciprocal(prod)
        assert is_unimodal(prod)


def test_rsw_filter_examples():
    out = rsw_filter(DensePoly((1, 2, 1)), 1, 2)
    assert out.coeffs == (1, 1)
    assert rsw_filter(DensePoly((1,)), 1, 1).coeffs == (1,)


def test_rsw_filter_precondition_vs_nonpolynomial():
    with pytest.raises(PreconditionError):
        rsw_filter(DensePoly((1, 2, 1)), 2, 1)  # m > n
    with pytest.raises(PreconditionError):
        rsw_filter(DensePoly((1, 2)), 1, 2)  # not reciprocal
    with pytest.raises(PreconditionError):
        rsw_filter(DensePoly((1, 0, 1)), 1, 2)  # reciprocal but not unimodal
    with pytest.raises(NotPolynomialError):
        rsw_filter(qbinomial(4, 2), 1, 5)  # printed q-Catalan shape at n=2


def test_q_catalan_values_and_positivity():
    assert q_catalan(0).coeffs == (1,)
    assert q_catalan(1).coeffs == (1,)
    assert q_catalan(2).coeffs == (1, 0, 1)
    for n in range(1, 13):
        c = q_catalan(n)
        assert is_nonnegative(c)
        assert c.coefficient_sum() == comb(2 * n, n) // (n + 1)


def test_q_catalan_n2_is_not_unimodal():
    assert not is_unimodal(q_catalan(2))


def test_printed_catalan_form_is_not_polynomial():
    # (1-q)/(1-q^{2n+1}) [2n,n]_q fails at n=2: value 6/5 at q=1
    num = qbinomial(4, 2).mul_one_minus_power(1)
    _, exact = num.div_one_minus_power(5)
    assert not exact


def _slot_case(poly):
    """A slots-only copy of poly and a tuple-held copy of its coefficients."""
    data, k = poly._packed()
    return DensePoly._from_slots(data, k), DensePoly(qpoly._unpack(data, k))


def _reference_predicates(cs):
    """first_negative_index, is_nonnegative, is_reciprocal and
    coefficient_sum, read off a coefficient tuple."""
    first = next((i for i, c in enumerate(cs) if c < 0), None)
    return first, first is None, cs == cs[::-1], sum(cs)


def _slot_cases(rng):
    yield DensePoly.zero()
    # one-byte slots at the edges of offset binary, built from the bytes
    yield DensePoly._from_slots(bytes([0x00, 0x7F, 0x80, 0xFF]), 1)  # -128, -1, 0, 127
    yield DensePoly._from_slots(bytes([0xFF, 0x80, 0x7F, 0x00]), 1)  # 127, 0, -1, -128
    for c in (-128, -1, 1, 127, 128, 2**63, -(2**64), 10**30):
        # constants, packed from the tuple and narrowed by a product
        yield DensePoly((c,))
        yield DensePoly((c,)) * DensePoly.one()
    for mag in (1, 127, 2**63, 2**64, 10**30):
        head = [rng.randint(0, mag) for _ in range(rng.randint(1, 9))]
        # a negative coefficient first, last, or only in the middle
        yield DensePoly([-mag] + head) * DensePoly.one()
        yield DensePoly(head + [-mag]) * DensePoly.one()
        yield DensePoly(head + [-1] + head[::-1] + [mag]) * DensePoly.one()
        p = DensePoly(_random_coeffs(rng, rng.randint(1, 12), mag))
        yield p * DensePoly(p.coeffs[::-1])  # reciprocal
        q = DensePoly(_random_coeffs(rng, rng.randint(1, 12), mag))
        yield _tree_product(rng, [p, q, DensePoly(q.coeffs[::-1]), DensePoly(p.coeffs[::-1])])
    for _ in range(200):
        polys = [
            DensePoly(_random_coeffs(rng, rng.randint(1, 12), rng.choice(CHAIN_MAGNITUDES)))
            for _ in range(rng.randint(1, 5))
        ]
        yield _tree_product(rng, polys) * DensePoly.one()
    for _ in range(40):
        p, r = _random_reciprocal_unimodal(rng), _random_reciprocal_unimodal(rng)
        yield p * r


def _near_reciprocal(rng, poly):
    """The slots of a reciprocal poly with one byte plane of one slot changed."""
    data, k = poly._packed()
    length = len(data) // k
    i = rng.choice([i for i in range(length - 1) if 2 * i != length - 1])
    buf = bytearray(data)
    buf[i * k + rng.randrange(k)] ^= rng.randint(1, 255)
    return DensePoly._from_slots(bytes(buf), k)


def test_slot_predicates_match_coefficient_tuples(monkeypatch):
    """first_negative_index, is_reciprocal and coefficient_sum read only the
    slots' bytes, on a slots-only polynomial and on a tuple-held one that
    packs on first use, and agree with the coefficient tuple."""
    rng = random.Random(1414)
    seen = set()
    cases = list(_slot_cases(rng))
    reciprocal = [p for p in cases if p.degree > 0 and _reference_predicates(p.coeffs)[2]]
    cases += [_near_reciprocal(rng, p) for p in reciprocal]
    for case in cases:
        packed, eager = _slot_case(case)
        assert packed._coeffs is None and eager._slots is None
        expected = _reference_predicates(eager.coeffs)
        with monkeypatch.context() as m:
            m.setattr(qpoly, "_unpack", lambda data, k: pytest.fail("unpacked"))
            for poly in (packed, eager):
                got = (
                    first_negative_index(poly),
                    is_nonnegative(poly),
                    is_reciprocal(poly),
                    poly.coefficient_sum(),
                )
                assert got == expected, eager
        assert eager._slots is not None  # packed on first use
        seen.add((packed._slots[1] > 1, expected[0], expected[2]))
    # both verdicts of each predicate, on one-byte and wide slots
    neg = {(wide, first is None) for wide, first, _ in seen}
    rec = {(wide, r) for wide, _, r in seen}
    assert neg == rec == {(False, False), (False, True), (True, False), (True, True)}
    firsts = {first for _, first, _ in seen}
    assert 0 in firsts and len(firsts) > 3
