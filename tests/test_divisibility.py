"""Big-integer divisibility claims, product identities, conjecture sweeps."""

import dataclasses
import random
import re
import signal
from fractions import Fraction
from math import comb, gcd, prod

import pytest

from factratio import (
    BalancedRatio,
    InternalCheckError,
    central_product_value,
    check_divisibility,
    check_product,
    check_two_binomial_conjecture,
    check_valuation_bounds,
    eval_ratio,
    factorize,
    form,
    primes_up_to,
    product_forms,
    product_run,
    ratio_ord,
    sun_s,
    sun_t,
    valuation_case_orders,
)
from factratio import divisibility as dv
from factratio import floors, registry
from factratio.cli import main
from factratio.divisibility import (
    CLAIMS_BY_ID,
    DivisibilityClaim,
    RATIO_BOUNDS,
    S_RATIO,
    T_RATIO,
    VALUE_FUNCS,
    t_cform,
    valuation_verdict,
)
from factratio.floors import STEP_6_1, STEP_15_2

from test_slice_memo import check_at
from test_valuation import SHIFTED

THM_1_3 = registry.CLAIMS["thm-1.3"]


def test_ratio_specs_match_sequences():
    for n in range(1, 30):
        assert eval_ratio(S_RATIO, n) == sun_s(n)
        assert eval_ratio(T_RATIO, n) == sun_t(n)
        assert eval_ratio(STEP_15_2, n) == t_cform(n) == 5 * (10 * n + 1) * sun_t(n)


def test_trivial_ratio():
    trivial = BalancedRatio([(1, 0)], [(1, 0)])
    assert eval_ratio(trivial, 7) == 1


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
    # the big-integer oracle over each claim's whole default range
    for claim_id in ("thm-1.1", "thm-1.2", "thm-1.3"):
        n_max = registry.resolve_ranges(registry.get_claim(claim_id), None)["n"]
        for claim in CLAIMS_BY_ID[claim_id]:
            for n in range(1, n_max + 1):
                assert check_divisibility(claim, n) == valuation_verdict(claim, n), (claim.name, n)


# multipliers other than the claim constants, each failing for some n
DEMO_CLAIMS = tuple(
    DivisibilityClaim(f"{m}*S(n) mod 2n+9", m, STEP_6_1, form(4, 2), form(2, 9), "s")
    for m in (1, 2, 35, 1001)
)
# the fourth third-theorem congruence as published, false whenever 5 | 2n+1
PUBLISHED_3003 = DivisibilityClaim(
    "3003*t(n) mod 2n+1", 3003, STEP_15_2, form(50, 5), form(2, 1), "t"
)


def _within(seconds, fn, *args, **kwargs):
    """fn(*args, **kwargs) under an alarm, so that a hang fails instead of stalling."""

    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        return fn(*args, **kwargs)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("multiplier", [0, -3])
def test_non_positive_multiplier_is_rejected(multiplier):
    # ord_p of a multiplier 0 would be read by division that never ends
    name = f"{multiplier}*S(n) mod 2n+3"
    with pytest.raises(ValueError, match="multiplier"):
        _within(5, DivisibilityClaim, name, multiplier, STEP_6_1, form(4, 2), form(2, 3), "s")
    with pytest.raises(ValueError, match="multiplier"):
        _within(5, product_run, 1, 1, 3, 1, 300, multiplier=multiplier)


def test_valuation_route_takes_any_multiplier():
    for claim in DEMO_CLAIMS:
        verdicts = [check_divisibility(claim, n) for n in range(1, 61)]
        assert not all(verdicts)
        assert verdicts == [valuation_verdict(claim, n) for n in range(1, 61)]


def test_claim_ratio_is_base_over_cofactor():
    claims = [c for group in CLAIMS_BY_ID.values() for c in group] + list(RATIO_BOUNDS.values())
    assert {c.value_key for c in claims} == set(VALUE_FUNCS)
    # the valuation memo is keyed by value_key, so a key fixes base and cofactor
    by_key = {}
    for c in claims:
        assert by_key.setdefault(c.value_key, (c.base, c.cofactor)) == (c.base, c.cofactor)
    for c in claims:
        for n in range(1, 201):
            want = eval_ratio(c.base, n) / c.cofactor(n)
            assert VALUE_FUNCS[c.value_key](n) == want, (c.name, n)


def test_unsound_base_ratios_rejected():
    def claim(base):
        return DivisibilityClaim("base test", 1, base, form(0, 1), form(2, 3), "s")

    with pytest.raises(ValueError, match="offsets"):
        claim(S_RATIO)
    # n!^2/(2n)! = 1/C(2n,n): balanced, but its Landau minimum is -1
    with pytest.raises(ValueError, match="Landau"):
        claim(BalancedRatio([(1, 0), (1, 0)], [(2, 0)]))
    claim(STEP_6_1)  # the sound base of S(n)
    claim(BalancedRatio([(1, 0), (0, 0)], [(1, 0)]))  # 0! is 1


def test_valuation_route_raises_on_non_integral_ratio(monkeypatch, capsys):
    # W(n)/(4n+4) is not an integer at n = 1 (W(1) = 30)
    bad = dataclasses.replace(CLAIMS_BY_ID["thm-1.1"][0], cofactor=form(4, 4))
    named = f"base {STEP_6_1} over cofactor 4n+4 is not an integer at n=1"
    with pytest.raises(InternalCheckError, match=re.escape(named)):
        valuation_verdict(bad, 1)
    record = dataclasses.replace(
        registry.CLAIMS["thm-1.1"], check=registry._each(registry._check_divisibility_group, (bad,))
    )
    monkeypatch.setitem(registry.CLAIMS, "thm-1.1", record)
    assert main(["verify", "thm-1.1", "--n-max", "5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and named in captured.err


def test_one_claim_type_takes_any_landau_base():
    # conj-7.1 at (a, b): C(2an,an) C(an,bn) / C(2bn,bn) is the Landau base
    # (2an)!(bn)!/((an)!((a-b)n)!(2bn)!), and 2bn+1, 2bn+3 are coprime moduli
    failing = 0
    for a in range(2, 7):
        for b in range(1, a):
            base = floors.step((2 * a, b), (a, a - b, 2 * b))
            for multiplier in (3 * (a - b) * (3 * a - b), 1):
                claims = [
                    DivisibilityClaim(f"R(n) mod {m}", multiplier, base, form(0, 1), m, "r")
                    for m in (form(2 * b, 1), form(2 * b, 3))
                ]
                for n in range(1, 41):
                    got = all(valuation_verdict(c, n) for c in claims)
                    if multiplier == 1:
                        modulus = (2 * b * n + 1) * (2 * b * n + 3)
                        want = eval_ratio(base, n) % modulus == 0
                        failing += not want
                    else:
                        want = check_two_binomial_conjecture(a, b, n)
                    assert got == want, (a, b, multiplier, n)
    assert failing == 142


def _bigint_failures(claim, n):
    """Counterexample dict of the big-integer route alone, or None."""
    residue = claim.multiplier * VALUE_FUNCS[claim.value_key](n) % claim.modulus_form(n)
    if residue == 0:
        return None
    return {"n": n, "congruence": claim.name, "modulus": claim.modulus_form(n), "residue": residue}


def test_registry_counterexamples_match_bigint_reference():
    for claim in (PUBLISHED_3003, *DEMO_CLAIMS):
        got, want = [], []
        for n in range(1, 161):
            checked, failures = registry._check_divisibility_group(THM_1_3, (claim,), (n,))
            assert checked == 1
            got += failures
            want += [bad] if (bad := _bigint_failures(claim, n)) else []
        assert want and got == want, claim.name
        if claim is PUBLISHED_3003:
            assert [bad["n"] for bad in got] == [2, 7, 12, 32, 37, 62, 157]


def test_flipped_bigint_route_raises(monkeypatch):
    real = dv.check_divisibility
    monkeypatch.setattr(dv, "check_divisibility", lambda claim, n: not real(claim, n))
    thm11 = CLAIMS_BY_ID["thm-1.1"]
    record = registry.CLAIMS["thm-1.1"]
    bound = record.box["n"]
    assert bound >= 50
    with pytest.raises(InternalCheckError):
        registry._check_divisibility_group(record, thm11, (50,))  # passing, n <= the bound
    # above the bound a passing point is not re-derived
    assert registry._check_divisibility_group(record, thm11, (bound + 1,)) == (1, [])
    # every failing point is re-derived, above the bound too
    assert not valuation_verdict(PUBLISHED_3003, 157)
    assert THM_1_3.box["n"] < 157
    with pytest.raises(InternalCheckError):
        registry._check_divisibility_group(THM_1_3, (PUBLISHED_3003,), (157,))


def _flip_bounds_scan(monkeypatch):
    """``check_valuation_bounds`` with its verdict flipped: a made-up failure
    where the scan finds none, and none where it finds one."""
    real = dv.check_valuation_bounds
    monkeypatch.setattr(
        dv, "check_valuation_bounds", lambda name, n: [] if real(name, n) else [{"ratio": name}]
    )


def test_flipped_bounds_scan_raises(monkeypatch, capsys):
    record = registry.CLAIMS["val-bounds"]
    bound = record.box["n"]
    assert bound >= 50
    _flip_bounds_scan(monkeypatch)
    with pytest.raises(InternalCheckError, match="val-bounds routes disagree for S at n=50"):
        registry._check_val_bounds(record, (50,))  # passing, n <= the bound
    # above the bound a passing point is not re-derived
    assert registry._check_val_bounds(record, (bound + 1,)) == (4, [])
    # every failing point is re-derived, above the bound too
    claim = _with_clearing(monkeypatch, "S", 1)
    failing = next(n for n in range(bound + 1, 1000) if not valuation_verdict(claim, n))
    with pytest.raises(InternalCheckError, match=f"val-bounds routes disagree for S at n={failing}"):
        registry._check_val_bounds(record, (failing,))
    monkeypatch.undo()
    _flip_bounds_scan(monkeypatch)
    assert main(["verify", "val-bounds", "--n-max", "60"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: val-bounds routes disagree for S at n=1:")


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


def test_product_kernel_outside_oracle_box_matches_forms(monkeypatch):
    """The kernel decides mod m+n alone; check it, with its value, against
    the Fraction forms at random points beyond the registry's oracle box,
    first as they are (always integral), then with C(am+bm, am) and
    C(am+bm-1, am) bumped so that the forms still agree but need not be
    integral."""
    rng = random.Random(1414)
    box = registry.CLAIMS["thm-1.4"].box
    points = []
    while len(points) < 300:
        point = tuple(rng.randint(1, 40) for _ in range(4))
        if any(v > box[name] for name, v in zip("abmn", point)):
            points.append(point)
    for a, b, m, n in points:
        first, second = product_forms(a, b, m, n)
        assert check_product(a, b, m, n) == (True, first.numerator) and first == second

    heads = {point[:3] for point in points[:40]}

    def bumped(N, K):
        # adding 7(a+b) to C(am+bm, am) and 7b to C(am+bm-1, am) keeps b H = (a+b) L
        for a, b, m in heads:
            if (N, K) == (a * m + b * m, a * m):
                return comb(N, K) + (a + b) * 7
            if (N, K) == (a * m + b * m - 1, a * m):
                return comb(N, K) + b * 7
        return comb(N, K)

    monkeypatch.setattr(dv, "comb", bumped)
    failing = 0
    for a, b, m, n in points[:40]:
        first, second = product_forms(a, b, m, n)
        assert first == second
        integral = first.denominator == 1
        assert check_product(a, b, m, n) == (integral, first.numerator if integral else None)
        failing += not integral
    assert 5 < failing < 35


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


def test_group_verdicts_with_shared_work_match_bigint_route():
    # one shared dict per n, as the registry keeps it for a claim group
    for n in range(1, 301):
        shared = {}
        for claim in (*CLAIMS_BY_ID["thm-1.3"], PUBLISHED_3003, *DEMO_CLAIMS):
            assert valuation_verdict(claim, n, shared) == check_divisibility(claim, n), (claim.name, n)
        assert set(shared) == {"s", "t", "t-cform"}


def test_product_kernel_matches_fraction_route():
    # thm-1.4's default 12^4 grid, by the integer kernel and by one run per (a, b, m)
    for point in registry.points_for(registry.get_claim("thm-1.4"), {"a": 12, "b": 12, "m": 12, "n": 12}):
        first, second = product_forms(*point)
        assert first == second and first.denominator == 1
        assert check_product(*point) == (True, first.numerator), point
        if point[3] == 1:
            assert product_run(*point[:3], 1, 13) == [True] * 12, point


def test_central_valuation_matches_fraction_route(monkeypatch):
    # cor-1.5's default range, m <= 5 and n <= 5000.  C(2n, n) is stepped
    # exactly, C(2n+2, n+1) = C(2n, n) * 2(2n+1)/(n+1), and handed to the
    # Fraction route in place of math.comb, which takes milliseconds there.
    central = [1]
    for n in range(5000):
        central.append(central[-1] * 2 * (2 * n + 1) // (n + 1))
    assert central[5000] == comb(10_000, 5000)
    monkeypatch.setattr(dv, "comb", lambda a, b: central[b] if a == 2 * b else comb(a, b))
    for m in range(1, 6):
        assert product_run(1, 1, m, 1, 5001) == [True] * 5000, m
        for n in range(1, 5001):
            assert central_product_value(m, n).denominator == 1, (m, n)


def test_central_routes_agree_without_the_multiplier():
    # C(2m,m) C(2n,n) / (2(m+n)) fails at m = n = 2: 36/8
    by_valuation, by_fraction = set(), set()
    for m in range(1, 11):
        run = product_run(1, 1, m, 1, 301, multiplier=1)
        for n in range(1, 301):
            if not run[n - 1]:
                by_valuation.add((m, n))
            if central_product_value(m, n, multiplier=1).denominator != 1:
                by_fraction.add((m, n))
    assert (2, 2) in by_fraction
    assert by_valuation == by_fraction


def _flip_product_run(monkeypatch):
    real = dv.product_run
    monkeypatch.setattr(
        dv, "product_run", lambda a, b, m, lo, hi: [not ok for ok in real(a, b, m, lo, hi)]
    )


def test_flipped_central_route_raises(monkeypatch):
    _flip_product_run(monkeypatch)
    bound = registry.CLAIMS["cor-1.5"].box["n"]
    assert bound >= 50
    with pytest.raises(InternalCheckError):
        check_at("cor-1.5", (3, 50))  # flipped to failing, n <= the bound
    # a point the flipped route calls failing is re-derived above the bound too
    with pytest.raises(InternalCheckError):
        check_at("cor-1.5", (3, bound + 1))


def test_central_oracle_runs_only_up_to_the_bound(monkeypatch):
    def skewed(m, n):
        return Fraction(1, 2)

    monkeypatch.setattr(dv, "central_product_value", skewed)
    bound = registry.CLAIMS["cor-1.5"].box["n"]
    with pytest.raises(InternalCheckError):
        check_at("cor-1.5", (3, bound))
    assert check_at("cor-1.5", (3, bound + 1)) == (1, [])


def test_flipped_product_kernel_raises(monkeypatch):
    _flip_product_run(monkeypatch)
    box = registry.CLAIMS["thm-1.4"].box
    with pytest.raises(InternalCheckError):
        check_at("thm-1.4", (box["a"], 1, 2, box["n"]))  # inside the oracle box
    with pytest.raises(InternalCheckError):
        check_at("thm-1.4", (box["a"] + 1, 1, 2, 3))  # failing: re-derived


def test_product_kernel_value_is_checked_in_the_box(monkeypatch):
    real = dv.check_product
    monkeypatch.setattr(dv, "check_product", lambda *p: (True, real(*p)[1] + 1))
    with pytest.raises(InternalCheckError):
        check_at("thm-1.4", (1, 2, 3, 4))
    # outside the box a passing point is not re-derived, by either oracle
    monkeypatch.setattr(dv, "product_forms", lambda *p: (Fraction(1, 2), Fraction(1, 3)))
    assert check_at("thm-1.4", (5, 2, 3, 4)) == (1, [])


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
    assert set(SHIFTED) == set(RATIO_BOUNDS)
    for name, spec in SHIFTED.items():
        for n in range(1, 61):
            top = max(sum(spec.arguments(n), ()))
            expected = {p: ratio_ord(p, spec, n) for p in primes_up_to(top) if p != 2}
            assert valuation_case_orders(name, n) == expected, (name, n)


def test_valuation_bounds_y_examples():
    for n in (1, 7, 19, 40):
        orders = valuation_case_orders("Y", n)
        assert orders[5] >= 0
        assert orders[3] >= -2


def test_clearing_constants_divide_multipliers():
    # the constant attached to each bounded ratio absorbs all negative orders
    for name, claim in RATIO_BOUNDS.items():
        for n in range(1, 61):
            clearing = 1
            for p, e in valuation_case_orders(name, n).items():
                if e < 0:
                    clearing *= p ** (-e)
            assert claim.multiplier % clearing == 0


def test_clearing_constants_give_the_anchor_bounds():
    # the bounds the val-bounds anchor states, as -ord_p of each clearing constant
    anchor = {
        "S": {3: -1},
        "t": {3: -1, 7: -1},
        "X": {3: -1, 5: -1, 7: -1},
        "Y": {3: -2, 11: -1, 19: -1, 23: -1},
    }
    got = {
        name: {p: -e for p, e in factorize(claim.multiplier).items()}
        for name, claim in RATIO_BOUNDS.items()
    }
    assert got == anchor
    assert [RATIO_BOUNDS[name].multiplier for name in "StXY"] == [3, 21, 105, 43263]


def _with_clearing(monkeypatch, name, clearing):
    """RATIO_BOUNDS with the named ratio's clearing constant replaced; returns its claim."""
    claim = dataclasses.replace(RATIO_BOUNDS[name], multiplier=clearing)
    monkeypatch.setitem(RATIO_BOUNDS, name, claim)
    return claim


def test_scan_reaches_a_modulus_prime_above_every_base_argument(monkeypatch):
    # at n = 1 Y's modulus 19 is a prime above every argument of G (15, 10, 4, 3, 2)
    claim = _with_clearing(monkeypatch, "Y", 43263 // 19)
    assert max(sum(claim.base.arguments(1), ())) < 19 == claim.modulus_form(1)
    assert not valuation_verdict(claim, 1) and not check_divisibility(claim, 1)
    assert check_valuation_bounds("Y", 1) == [
        {"ratio": "Y", "p": 19, "order": -1, "bound": 0},
        {"ratio": "Y", "clearing_needed": 19, "constant": 2277},
    ]


# (ratio, lowered clearing constant) -> the first n where it fails
FIRST_FAILURE = {("S", 1): 3, ("X", 21): 4, ("Y", 2277): 1}


@pytest.mark.parametrize("name", sorted(RATIO_BOUNDS))
def test_lowered_clearing_constants_fail_by_every_route(monkeypatch, name):
    """Negative controls: each clearing constant divided by one of its primes,
    and 1.  The valuation verdict, the big-integer division and the odd-prime
    scan agree at every n <= 300, and each variant fails somewhere."""
    clearing = RATIO_BOUNDS[name].multiplier
    for lowered in sorted({clearing // p for p in factorize(clearing)} | {1}):
        claim = _with_clearing(monkeypatch, name, lowered)
        failing = []
        for n in range(1, 301):
            verdict = valuation_verdict(claim, n)
            assert verdict == check_divisibility(claim, n), (name, lowered, n)
            bad = check_valuation_bounds(name, n)
            assert verdict == (bad == []), (name, lowered, n)
            if not verdict:
                failing.append(n)
                # the scan names the failing primes, each a prime of the modulus
                primes = {b["p"] for b in bad if "p" in b}
                assert primes and claim.modulus_form(n) % prod(primes) == 0, (name, lowered, n)
        assert failing, (name, lowered)
        assert failing[0] == FIRST_FAILURE.get((name, lowered), failing[0]), (name, lowered)


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
        assert ratio_ord(2, S_RATIO, n) == n.bit_count() - 1
        want_odd = n & (n - 1) == 0
        assert (sun_s(n) % 2 == 1) == want_odd
