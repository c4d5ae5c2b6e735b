"""Step-function minima and the congruence-conditioned floor identities."""

import random
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest

from factratio import (
    CongruenceIdentity,
    InternalCheckError,
    PreconditionError,
    check_by_fractional_parts,
    check_congruence_identity,
    form,
    landau_min,
    landau_witnesses,
    run_claim,
)
from factratio import floors, registry
from factratio.floors import IDENTITIES, STEP_6_1, STEP_15_2, step

LEM_2_2 = IDENTITIES["lem-2.2"][0]
LEM_2_3 = IDENTITIES["lem-2.3"][0]


def _failing_pairs(ident, n_max):
    """The (n, m) at which one identity fails, n <= n_max, in sweep order."""
    return [(n, m) for n in range(1, n_max + 1) for m in floors.check_identity_at(ident, n)[2]]


def test_landau_min_paper_specs():
    assert landau_min(STEP_6_1) == 0
    assert landau_min(STEP_15_2) == 0


def test_landau_min_trivial_and_negative():
    assert landau_min(step((1, 1), (1, 1))) == 0
    assert landau_min(step((5, 1), (3, 3))) == -1


def test_landau_witnesses():
    assert (Fraction(0), 0) in landau_witnesses(STEP_6_1)
    ws = landau_witnesses(step((5, 1), (3, 3)))
    assert (Fraction(2, 3), -1) in ws
    assert all(v == -1 for _, v in ws)
    assert ws == sorted(ws)
    ws2 = landau_witnesses(STEP_15_2)
    assert all(v == 0 for _, v in ws2)


def test_landau_rejects_unbalanced():
    with pytest.raises(ValueError):
        step((6, 1), (3, 2))
    with pytest.raises(ValueError):
        step((6, 0), (3, 3))


@pytest.mark.parametrize("t", [2, 3])
@pytest.mark.parametrize("spec", [STEP_6_1, STEP_15_2])
def test_landau_min_scaling_invariance(spec, t):
    scaled = step(
        tuple(t * a for a in spec.num_coeffs),
        tuple(t * b for b in spec.den_coeffs),
    )
    assert landau_min(scaled) == landau_min(spec)


def _ratio_is_integer(num, den, n):
    top = 1
    for a in num:
        top *= factorial(a * n)
    bottom = 1
    for b in den:
        bottom *= factorial(b * n)
    return top % bottom == 0


def test_nonnegative_minimum_implies_integrality():
    for n in range(1, 301):
        assert _ratio_is_integer((6, 1), (3, 2, 2), n)
        assert _ratio_is_integer((15, 2), (10, 4, 3), n)


def test_negative_minimum_yields_noninteger_witness():
    spec = step((5, 1), (3, 3))
    L = floors.grid(spec)
    assert any(not _ratio_is_integer((5, 1), (3, 3), n) for n in range(1, L + 1))


def test_identity_spot_checks():
    assert check_congruence_identity(LEM_2_2, 5, 1) is True
    assert check_congruence_identity(LEM_2_3, 13, 1) is True  # 13 | 10*1+3


def test_identity_preconditions_are_not_failures():
    # 3 | 2*3+3 holds but m=3 is below the m >= 5 threshold
    with pytest.raises(PreconditionError):
        check_congruence_identity(LEM_2_2, 3, 3)
    # m does not divide the form at all
    with pytest.raises(PreconditionError):
        check_congruence_identity(LEM_2_2, 7, 1)
    with pytest.raises(PreconditionError):
        check_congruence_identity(LEM_2_2, 5, 0)


def test_identity_false_is_distinct_from_precondition():
    perturbed = CongruenceIdentity(
        shape=step((6, 1), (3, 2, 2)), divisor_form=form(2, 3), m_min=5, surplus=2
    )
    assert check_congruence_identity(perturbed, 5, 1) is False


@pytest.mark.parametrize("claim_id", ["lem-2.2", "lem-2.3", "lem-5.1", "lem-5.2"])
def test_sweeps_have_zero_failures(claim_id):
    report = run_claim(claim_id, {"n": 150})
    assert report.failed == 0, report.counterexamples[:3]
    counts = [
        sum(floors.check_identity_at(ident, n)[0] for n in range(1, 151))
        for ident in IDENTITIES[claim_id]
    ]
    assert all(counts) and report.checked == sum(counts)


def test_sweep_counts_skipped_pairs():
    # m = 1 always divides and is always below threshold
    assert sum(floors.check_identity_at(LEM_2_2, n)[1] for n in range(1, 51)) > 0


def test_perturbed_identity_sweep_fails():
    perturbed = CongruenceIdentity(
        shape=step((6, 1), (3, 2, 2)), divisor_form=form(2, 3), m_min=5, surplus=2
    )
    assert (1, 5) in _failing_pairs(perturbed, 50)


def test_floor_and_fractional_routes_agree():
    for ident in (LEM_2_2, LEM_2_3):
        for n in range(1, 120):
            v = ident.divisor_form(n)
            for m in range(ident.m_min, v + 1):
                if v % m:
                    continue
                assert check_congruence_identity(ident, m, n) == check_by_fractional_parts(
                    ident, m, n
                )


def _fractional_parts_reference(shape, surplus, m, n):
    """sum {a n/m} == sum {b n/m} - surplus, in exact rationals."""
    frac = lambda a: Fraction(a * n, m) - (a * n) // m
    lhs = sum(frac(a) for a in shape.num_coeffs)
    rhs = sum(frac(b) for b in shape.den_coeffs)
    return lhs == rhs - surplus


def _random_balanced_shape(rng):
    num = [rng.randint(1, 20) for _ in range(rng.randint(1, 4))]
    # split the same total into 1..5 positive denominator coefficients
    total = sum(num)
    cuts = sorted(rng.sample(range(1, total), min(rng.randint(0, 4), total - 1)))
    den = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    return step(tuple(num), tuple(den))


def test_residue_route_matches_fractional_parts_reference():
    rng = random.Random(20131)
    shapes = [STEP_6_1, STEP_15_2] + [_random_balanced_shape(rng) for _ in range(12)]
    seen = set()
    for shape in shapes:
        for surplus in (0, 1, 2):
            ident = CongruenceIdentity(shape, form(2, 3), m_min=1, surplus=surplus)
            for n in range(1, 31):
                for m in range(1, 26):
                    expected = _fractional_parts_reference(shape, surplus, m, n)
                    assert check_by_fractional_parts(ident, m, n) == expected, (shape, surplus, m, n)
                    seen.add((ident.divisor_form(n) % m == 0, expected))
    # both verdicts occur, at moduli that do and do not divide the form
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_sweep_raises_when_routes_disagree(monkeypatch):
    real = floors.check_by_fractional_parts
    monkeypatch.setattr(
        floors, "check_by_fractional_parts", lambda ident, m, n: not real(ident, m, n)
    )
    with pytest.raises(InternalCheckError):
        run_claim("lem-2.2", {"n": 10})
    with pytest.raises(InternalCheckError):
        _failing_pairs(LEM_2_2, 10)


def test_extension_m3_matches_congruence_class():
    ext = IDENTITIES["lem-5.1"][3]
    # 3 | n+2 is exactly n = 1 (mod 3)
    for n in range(1, 200):
        if n % 3 == 1:
            assert check_congruence_identity(ext, 3, n) is True
        else:
            with pytest.raises(PreconditionError):
                check_congruence_identity(ext, 3, n)


def test_published_extension_condition_is_false():
    # The 10n+7 variant printed for the m in {7,13,17} extension fails
    # immediately; the corrected registry entry uses 10n+9.
    printed = CongruenceIdentity(
        shape=step((15, 2), (10, 4, 3)),
        divisor_form=form(10, 7),
        m_min=7,
        m_allowed=frozenset({7, 13, 17}),
    )
    assert (1, 17) in _failing_pairs(printed, 50)
    corrected = IDENTITIES["lem-5.2"][3]
    assert _failing_pairs(corrected, 500) == []


def _per_point_run(ident, lo, hi):
    """What ``identity_run`` must return: ``check_identity_at`` at each n."""
    counts, failing = Counter(), []
    for n in range(lo, hi):
        checked, _, bad = floors.check_identity_at(ident, n)
        if checked:
            counts[n] = checked
        failing += [(n, m) for m in bad]
    return counts, failing


PRINTED_10N7 = CongruenceIdentity(STEP_15_2, form(10, 7), 7, m_allowed=frozenset({7, 13, 17}))
SURPLUS_2 = CongruenceIdentity(STEP_6_1, form(2, 3), 5, surplus=2)


def test_identity_run_matches_per_point_sweep():
    rng = random.Random(2029)
    (box,) = {registry.CLAIMS[claim_id].box["n"] for claim_id in IDENTITIES}  # one edge for all
    idents = [ident for family in IDENTITIES.values() for ident in family]
    idents += [
        CongruenceIdentity(STEP_6_1, form(2, 4), 3),  # gcd(c, d) = 2
        CongruenceIdentity(STEP_15_2, form(6, 9), 4),  # gcd(c, d) = 3
        CongruenceIdentity(STEP_6_1, form(3, -5), 1),  # cn+d < 1 at n = 1
        CongruenceIdentity(STEP_6_1, form(1, 2), 5, m_allowed=frozenset({3, 5, 8})),  # 3 < m_min
        PRINTED_10N7,
        SURPLUS_2,
    ]
    for _ in range(6):
        shape = _random_balanced_shape(rng)
        c, d = rng.randint(1, 12), rng.randint(-5, 12)
        m_min, surplus = rng.randint(1, 30), rng.randint(0, 2)
        idents.append(CongruenceIdentity(shape, form(c, d), m_min, surplus=surplus))
    failing = 0
    for ident in idents:
        windows = [(1, 2), (1, box + 1), (box, box + 1), (box + 1, box + 2)]
        windows.append((rng.randint(1, box), rng.randint(box + 1, 3 * box)))  # across the box edge
        lo = rng.randint(999_000, 1_000_000)
        windows.append((lo, min(lo + rng.randint(1, 200), 1_000_001)))  # at the lemmas' cap
        for _ in range(3):
            lo = rng.randint(1, 20_000)
            windows.append((lo, lo + rng.choice([1, rng.randint(2, 40), rng.randint(41, 400)])))
        for lo, hi in windows:
            got = floors.identity_run(ident, lo, hi)
            assert got == _per_point_run(ident, lo, hi), (ident.condition(), lo, hi)
            failing += len(got[1])
    assert failing > 0


@pytest.mark.parametrize(
    "ident, n, square",
    [(LEM_2_2, 11, 25), (IDENTITIES["lem-5.2"][2], 4, 49), (IDENTITIES["lem-5.2"][2], 16, 169)],
)
def test_identity_run_counts_a_square_root_divisor_once(ident, n, square):
    assert ident.divisor_form(n) == square
    counts, failing = floors.identity_run(ident, n, n + 1)
    assert counts == Counter({n: floors.check_identity_at(ident, n)[0]})
    assert counts[n] == sum(map(ident.admits, floors.divisors_of(square)))
    assert failing == []


def test_identity_run_finds_the_pinned_failures():
    assert (1, 17) in floors.identity_run(PRINTED_10N7, 1, 2)[1]
    assert floors.identity_run(SURPLUS_2, 1, 51)[1] == _failing_pairs(SURPLUS_2, 50)
    assert (1, 5) in floors.identity_run(SURPLUS_2, 1, 2)[1]


@pytest.mark.parametrize("name", ["floordiv", "mod"])
def test_identity_run_raises_when_one_route_is_off(monkeypatch, name):
    # the floor route takes its quotients from floordiv and the residue route
    # its residues from mod; moving either one at m = 13 alone must show
    real = getattr(floors, name)
    monkeypatch.setattr(floors, name, lambda x, m: real(x, m) + (m == 13))
    with pytest.raises(InternalCheckError, match=r"m \| 10n\+3, m >= 9 at n=1, m=13$"):
        floors.identity_run(LEM_2_3, 1, 50)


def test_identity_run_domain():
    with pytest.raises(ValueError):
        floors.identity_run(CongruenceIdentity(STEP_6_1, form(0, 5), 1), 1, 10)
    with pytest.raises(ValueError):
        floors.identity_run(LEM_2_2, 0, 10)
    assert floors.identity_run(LEM_2_2, 10, 10) == (Counter(), [])
