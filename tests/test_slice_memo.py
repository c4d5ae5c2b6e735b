"""Slice checking from slice bounds: one checker call per slice.

``check_point(claim_id, ranges, lo, hi)`` checks the index slice [lo, hi)
of a claim's grid.  The run checkers take their windows from the bounds
and keep the work a run shares in one kernel call: thm-1.4 one product run
per (a, b, m) of the slice, cor-1.5 one product run per m of the slice,
the parity sweep one digit-sum run per slice, and the floor lemmas one
identity run per (slice, identity).  A slice must report
exactly the concatenation of what its points report as singleton slices
[i, i + 1), wherever the slice starts and ends.
"""

import dataclasses
import random

import pytest
from fractions import Fraction
from math import comb

from factratio import CongruenceIdentity, form, run_claim
from factratio import divisibility as dv
from factratio import floors, registry
from factratio.registry import CLAIMS, check_point, get_claim, grid_size, points_for
from factratio.valuation import factorize, orders_at


def check_at(claim_id, point):
    """``check_point`` on the singleton slice of one point: the grid whose
    ranges end at the point, where it is the last index."""
    claim = get_claim(claim_id)
    ranges = {p.name: value for p, value in zip(claim.params, point)}
    size = grid_size(claim, ranges)
    return check_point(claim_id, ranges, size - 1, size)


def _per_point(claim_id, ranges, lo, hi):
    """What the slice should return: one singleton slice per grid index."""
    checked, failures = 0, []
    for i in range(lo, hi):
        count, bad = check_point(claim_id, ranges, i, i + 1)
        checked += count
        failures += bad
    return checked, failures


def _failing_central(monkeypatch):
    """Run cor-1.5 with multiplier 1 on both routes, so that it fails."""
    run, value = dv.product_run, dv.central_product_value
    monkeypatch.setattr(
        dv, "product_run", lambda a, b, m, lo, hi: run(a, b, m, lo, hi, multiplier=1)
    )
    monkeypatch.setattr(dv, "central_product_value", lambda m, n: value(m, n, multiplier=1))


def _failing_product(monkeypatch):
    """Run thm-1.4 with multiplier 1 in place of am on every route, so that
    it fails: the run kernel by its multiplier, the Fraction forms divided by
    am, and the integer route by exact division of C(am+bm-1, am) C(an+bn, an)."""
    run, forms = dv.product_run, dv.product_forms

    def integer(a, b, m, n):
        value, rest = divmod(comb(a * m + b * m - 1, a * m) * comb(a * n + b * n, a * n), m + n)
        return (False, None) if rest else (True, value)

    monkeypatch.setattr(dv, "product_run", lambda a, b, m, lo, hi: run(a, b, m, lo, hi, multiplier=1))
    monkeypatch.setattr(dv, "product_forms", lambda a, b, m, n: tuple(f / (a * m) for f in forms(a, b, m, n)))
    monkeypatch.setattr(dv, "check_product", integer)


def shift_parity(monkeypatch, shifted):
    """Move ord_2 S(n) up by one on every route at the n where ``shifted(n)``
    holds, so that those n fail: the digit-sum run, the per-n Legendre sums,
    and the big integer S(n), doubled."""
    run, order, value = registry.ratio_ord2_run, registry.ratio_ord, dv.sun_s
    monkeypatch.setattr(
        registry,
        "ratio_ord2_run",
        lambda spec, lo, hi: [v + shifted(n) for n, v in zip(range(lo, hi), run(spec, lo, hi))],
    )
    monkeypatch.setattr(registry, "ratio_ord", lambda p, spec, n: order(p, spec, n) + shifted(n))
    monkeypatch.setattr(dv, "sun_s", lambda n: value(n) << shifted(n))


def _failing_parity(monkeypatch):
    """Shift ord_2 S(n) on every route at every n = 0 (mod 7), inside the
    oracle box and outside it, so that those n fail."""
    shift_parity(monkeypatch, lambda n: n % 7 == 0)


def _failing_floors(monkeypatch):
    """Sweep lem-5.2 with its last condition as printed, m | 10n+7 for m in
    {7, 13, 17}, which fails at scattered n inside and outside the box."""
    claim = registry.CLAIMS["lem-5.2"]
    printed = CongruenceIdentity(floors.STEP_15_2, form(10, 7), 7, m_allowed=frozenset({7, 13, 17}))
    identities = (*floors.IDENTITIES["lem-5.2"][:3], printed)
    check = registry._each_run(registry._check_floor_run, identities)
    monkeypatch.setitem(registry.CLAIMS, "lem-5.2", dataclasses.replace(claim, check=check))


def _product_reference(a, b, m, n, c):
    """The per-n route: the primes of m+n by trial division, then the
    Legendre orders of c C(am+bm-1, am) C(an+bn, an) at each of them."""
    need = factorize(m + n)
    orders = orders_at(need, (a * m + b * m - 1, a * n + b * n), (a * m, b * m - 1, a * n, b * n))
    for p in need:
        v = c
        while v % p == 0:
            v //= p
            orders[p] += 1
    return all(orders[p] >= e for p, e in need.items())


def test_product_run_matches_per_n_reference():
    # multiplier 1 fails at many points (at a = b = 1 first at m = n = 2), am never
    rng = random.Random(2013)
    windows = [(1, 1, m, 1, registry.BIGINT_ORACLE_N_MAX + 1) for m in (1, 2, 3, 4, 5, 47, 64)]
    windows += [(1, 1, 64, 100_000, 100_001), (1, 1, 63, 99_701, 100_001), (1, 1, 1, 1, 2)]
    for _ in range(12):  # cor-1.5 windows, up to its cap
        m = rng.randint(1, 64)
        lo = rng.choice([rng.randint(2, 3000), rng.randint(99_000, 100_000)])
        length = rng.choice([1, rng.randint(2, 40), rng.randint(41, 400)])
        windows.append((1, 1, m, lo, min(lo + length, 100_001)))
    for _ in range(30):  # thm-1.4 windows, past its cap
        a, b, m = rng.randint(1, 64), rng.randint(1, 64), rng.randint(1, 64)
        lo = rng.choice([1, rng.randint(2, 64), rng.randint(65, 3000)])
        windows.append((a, b, m, lo, lo + rng.choice([1, rng.randint(2, 40), rng.randint(41, 200)])))
    failing = 0
    for a, b, m, lo, hi in windows:
        for c in (1, a * m, rng.randint(2, 10_000)):
            run = dv.product_run(a, b, m, lo, hi, multiplier=c)
            assert len(run) == hi - lo
            for n, ok in zip(range(lo, hi), run):
                assert ok == _product_reference(a, b, m, n, c), (a, b, m, n, c)
                if a == b == 1 and n <= registry.BIGINT_ORACLE_N_MAX:
                    assert ok == (dv.central_product_value(m, n, multiplier=c).denominator == 1)
            failing += run.count(False)
        assert dv.product_run(a, b, m, lo, hi) == dv.product_run(a, b, m, lo, hi, multiplier=a * m)
    assert failing > 10


def test_product_run_takes_the_full_floor_sum_at_the_leftover_prime():
    # At (a, b, m, n) = (17, 7, 20, 31) with c = 32, m+n = 51 = 3 * 17 leaves
    # P = 17 after the sieve (17^2 > 51), but 17^2 <= (a+b)n = 744: the first
    # floor term of ord_17 C(744, 527) is 0 and the second is 1, and the head
    # ord_17(32 C(479, 340)) is 0, so only the full floor sum passes the point.
    a, b, m, n, c = 17, 7, 20, 31, 32
    top, k = (a + b) * n, a * n
    assert (top // 17 - k // 17 - (top - k) // 17, top // 289 - k // 289 - (top - k) // 289) == (0, 1)
    assert comb(a * m + b * m - 1, a * m) % 17 and c % 17
    assert _product_reference(a, b, m, n, c)
    assert c * comb(a * m + b * m - 1, a * m) * comb(top, k) % (m + n) == 0
    assert dv.product_run(a, b, m, n, n + 1, multiplier=c) == [True]
    assert dv.product_run(a, b, m, 1, 65, multiplier=c)[n - 1]


def test_slice_cut_mid_run_matches_per_point_calls():
    cases = [
        # starts inside the (1, 1, 2) run and ends inside the (5, 5, 1) run
        ("thm-1.4", {"a": 5, "b": 5, "m": 5, "n": 5}, 7, 603),
        # starts and ends inside an m run
        ("cor-1.5", {"m": 4, "n": 300}, 150, 1050),
    ]
    for claim_id, ranges, lo, hi in cases:
        assert 0 < lo < hi < grid_size(get_claim(claim_id), ranges)
        got = check_point(claim_id, ranges, lo, hi)
        assert got == _per_point(claim_id, ranges, lo, hi)
        assert got[0] == hi - lo


# the run claims at ranges whose runs of n reach past the oracle bounds
RUN_RANGES = {
    "thm-1.4": {"a": 5, "b": 5, "m": 5, "n": 9},
    "cor-1.5": {"m": 4, "n": 400},
    "parity-power-of-2": {"n": 1500},
    "lem-5.2": {"n": 400},
}
FAILING = {
    "thm-1.4": _failing_product,
    "cor-1.5": _failing_central,
    "parity-power-of-2": _failing_parity,
    "lem-5.2": _failing_floors,
}


@pytest.mark.parametrize("failing", [False, True])
@pytest.mark.parametrize("claim_id", sorted(RUN_RANGES))
def test_random_slices_match_singleton_slices(monkeypatch, claim_id, failing):
    if failing:
        FAILING[claim_id](monkeypatch)
    ranges = RUN_RANGES[claim_id]
    size = grid_size(get_claim(claim_id), ranges)
    rng = random.Random(f"{claim_id} {failing}")
    bounds = [(0, size)]
    for _ in range(10):
        lo = rng.randrange(size)
        bounds.append((lo, min(size, lo + rng.choice([1, rng.randint(2, 40), rng.randint(41, 600)]))))
    # most bounds cut a run of n mid-way
    assert sum(lo % ranges["n"] != 0 for lo, _ in bounds) >= 5
    failures = 0
    for lo, hi in bounds:
        got = check_point(claim_id, ranges, lo, hi)
        assert got == _per_point(claim_id, ranges, lo, hi), (lo, hi)
        if claim_id != "lem-5.2":  # a floor lemma checks each divisor in its domain
            assert got[0] == hi - lo
        failures += len(got[1])
    assert (failures > 0) == failing


# small ranges per claim, each reaching past its oracle bound or into a
# failing point where it has one
SMALL_RANGES = {
    "thm-1.1": {"n": 120},
    "thm-1.2": {"n": 120},
    "thm-1.3": {"n": 120},
    "thm-1.4": {"a": 5, "b": 5, "m": 5, "n": 5},
    "cor-1.5": {"m": 3, "n": 150},
    "lem-2.1": {},
    "lem-2.2": {"n": 60},
    "lem-2.3": {"n": 60},
    "lem-5.1": {"n": 60},
    "lem-5.2": {"n": 60},
    "val-bounds": {"n": 40},
    "thm-6.1": {"a": 3, "b": 3, "m": 3, "n": 3},
    "cor-6.2": {"a": 3, "b": 3, "m": 3, "n": 3},
    "thm-7.2": {"n": 12},
    "thm-7.4": {"n": 6},
    "conj-7.1": {"a": 5, "b": 4, "n": 10},
    "conj-7.3": {"n": 11},
    "conj-7.4-unimodal": {"n": 8},
    "conj-7.5": {"n": 5},
    "wz-positivity": {"n": 8},
    "parity-power-of-2": {"n": 300},
}


@pytest.mark.parametrize("claim_id", sorted(CLAIMS))
def test_mid_grid_slice_matches_per_point_calls(claim_id):
    ranges = SMALL_RANGES[claim_id]
    size = grid_size(get_claim(claim_id), ranges)
    lo, hi = size // 3, size - size // 3  # the whole grid of a one-point claim
    got = check_point(claim_id, ranges, lo, hi)
    assert got == _per_point(claim_id, ranges, lo, hi)
    assert got[0] > 0


def test_slice_failures_match_per_point_calls_for_central(monkeypatch):
    _failing_central(monkeypatch)
    value = dv.central_product_value
    ranges = {"m": 4, "n": 150}
    checked, failures = check_point("cor-1.5", ranges, 75, 525)
    assert (checked, failures) == _per_point("cor-1.5", ranges, 75, 525)
    assert any(bad["n"] > registry.BIGINT_ORACLE_N_MAX for bad in failures)
    for bad in failures:
        assert list(bad) == ["m", "n", "value"]
        assert bad["value"] == str(value(bad["m"], bad["n"]))


def test_non_integral_shared_head_gives_the_same_counterexamples(monkeypatch):
    _failing_product(monkeypatch)
    ranges = {"a": 3, "b": 3, "m": 6, "n": 6}
    lo, hi = 5, grid_size(get_claim("thm-1.4"), ranges) - 7
    checked, failures = check_point("thm-1.4", ranges, lo, hi)
    assert (checked, failures) == _per_point("thm-1.4", ranges, lo, hi)

    expected = []
    for a, b, m, n in points_for(get_claim("thm-1.4"), ranges, lo, hi):
        first, second = dv.product_forms(a, b, m, n)
        assert first == second
        if first.denominator != 1:
            expected.append(
                {"a": a, "b": b, "m": m, "n": n, "form1": str(first), "form2": str(second)}
            )
    assert failures == expected
    for bad in failures:
        assert list(bad) == ["a", "b", "m", "n", "form1", "form2"]
    # failures both inside and outside the oracle box
    in_box = {max(bad["a"], bad["b"], bad["m"], bad["n"]) <= registry.PRODUCT_ORACLE_MAX for bad in failures}
    assert in_box == {True, False}
    low = Fraction(comb(14, 10) * comb(9, 6), 5 + 3)  # (2, 1, 5) at n = 3
    assert low == Fraction(21021, 2)
    assert {"a": 2, "b": 1, "m": 5, "n": 3, "form1": str(low), "form2": str(low)} in failures


def test_cap_block_through_one_slice():
    # a = b = 64 with m, n in 1..64: the largest operands of the thm-1.4 cap
    ranges = {"a": 64, "b": 64, "m": 64, "n": 64}
    size = grid_size(get_claim("thm-1.4"), ranges)
    assert check_point("thm-1.4", ranges, size - 4096, size) == (4096, [])


def _recorded(monkeypatch, name):
    """Record the arguments of every call to ``floors.<name>``."""
    calls = []
    real = getattr(floors, name)
    monkeypatch.setattr(floors, name, lambda *args: calls.append(args) or real(*args))
    return calls


def test_one_floor_run_per_slice(monkeypatch):
    runs = _recorded(monkeypatch, "identity_run")
    divided = _recorded(monkeypatch, "divisors_of")
    identities = floors.IDENTITIES["lem-5.2"]
    report = run_claim("lem-5.2", {"n": 1500}, workers=1)
    assert report.failed == 0 and report.checked > 0
    # 1500 points on one worker make 8 slices of 188, one identity run
    # per (slice, identity)
    bounds = [(lo, min(lo + 188, 1501)) for lo in range(1, 1501, 188)]
    assert runs == [(ident, lo, hi) for lo, hi in bounds for ident in identities]
    # divisor lists only in the oracle box, one per distinct form value
    # (lem-5.2's two 10n+9 conditions read one list)
    box = range(1, registry.FLOOR_ORACLE_N_MAX + 1)
    assert [v for (v,) in divided] == [
        v for n in box for v in dict.fromkeys(ident.divisor_form(n) for ident in identities)
    ]

    # and at failing n: the printed 10n+7 extension on a run across the box edge
    printed = CongruenceIdentity(
        floors.STEP_15_2, form(10, 7), 7, m_allowed=frozenset({7, 13, 17})
    )
    runs.clear()
    divided.clear()
    checked, failures = registry._check_floor_run((printed,), 90, 1000)
    assert runs == [(printed, 90, 1000)]
    failing_ns = sorted({bad["n"] for bad in failures})
    assert failing_ns[0] < registry.FLOOR_ORACLE_N_MAX < failing_ns[-1]
    rederived = sorted({*range(90, registry.FLOOR_ORACLE_N_MAX + 1), *failing_ns})
    assert [v for (v,) in divided] == [10 * n + 7 for n in rederived]
    want_checked, want = 0, []
    for n in range(90, 1000):
        count, _, bad = floors.check_identity_at(printed, n)
        want_checked += count
        want += [{"n": n, "m": m, "condition": printed.condition()} for m in bad]
    assert (checked, failures) == (want_checked, want)

    # each singleton slice is the sum of the per-point sweeps of its n
    for n in (1, 7, 1234):
        want_checked, want = 0, []
        for ident in identities:
            count, _, bad = floors.check_identity_at(ident, n)
            want_checked += count
            want += [{"n": n, "m": m, "condition": ident.condition()} for m in bad]
        assert check_at("lem-5.2", (n,)) == (want_checked, want)
