"""Slice state in checker locals: one checker call per slice.

A checker takes the points of one index slice and keeps the work that many
of them reuse in its locals: thm-1.4 its binomials per (a, b, m) and per
(a, b, n) in a memo dict made fresh for the slice, cor-1.5 one valuation run
per m of the slice, and the parity sweep one digit-sum run of 2-adic orders.
A slice must report exactly the concatenation of what its points report as
singleton slices, wherever the slice starts and ends and in whatever order
the memo is filled.
"""

import random

import pytest
from fractions import Fraction
from math import comb

from factratio import divisibility as dv
from factratio import floors, registry
from factratio.registry import CLAIMS, check_point, get_claim, grid_size, points_for
from factratio.runner import _eval_slice
from factratio.valuation import factorize, orders_at


def _per_point(claim_id, ranges, lo, hi):
    """What the slice should return: one singleton slice per point, fresh memos."""
    checked, failures = 0, []
    for point in points_for(get_claim(claim_id), ranges, lo, hi):
        count, bad = check_point(claim_id, [point])
        checked += count
        failures += bad
    return checked, failures


def test_shared_product_kernel_matches_fresh_calls():
    # a few (a, b) blocks, each drawn on a 6 x 6 (m, n) sub-grid and all
    # shuffled together, so one memo is filled and read across blocks
    rng = random.Random(2013)
    points = []
    for block in range(8):
        top = 4 if block < 2 else 64  # two blocks reach into the oracle box
        a, b = rng.randint(1, top), rng.randint(1, top)
        ms = rng.sample(range(1, 5), 2) + rng.sample(range(5, 65), 4)
        ns = rng.sample(range(1, 5), 2) + rng.sample(range(5, 65), 4)
        points += [(a, b, m, n) for m in ms for n in ns]
    rng.shuffle(points)
    shared = {}
    in_box = 0
    for point in points:
        a, b, m, n = point
        box = max(point) <= registry.PRODUCT_ORACLE_MAX
        ok, value = dv.check_product(a, b, m, n, shared=shared, value=box)
        fresh_ok, fresh_value = dv.check_product(a, b, m, n)
        assert ok == fresh_ok, point
        # the definition, without memo or residues
        direct = a * b * m * comb(a * m + b * m, a * m) * comb(a * n + b * n, a * n)
        assert ok == (direct % ((a + b) * (m + n)) == 0), point
        if box:
            in_box += 1
            first, second = dv.product_forms(a, b, m, n)
            assert value == fresh_value == first.numerator == second.numerator, point
        else:
            assert value is None
    assert in_box >= 4
    assert len(shared) <= 2 * len(points)


def _central_reference(m, n, c):
    """The per-n route: the primes of 2(m+n) by trial division, then the
    Legendre orders of c C(2m,m) C(2n,n) at each of them."""
    need = factorize(2 * (m + n))
    orders = orders_at(need, (2 * m, 2 * n), (m, m, n, n))
    for p in need:
        v = c
        while v % p == 0:
            v //= p
            orders[p] += 1
    return all(orders[p] >= e for p, e in need.items())


def test_central_run_matches_per_n_reference():
    # multiplier 1 fails at many points (first at m = n = 2), multiplier m never
    rng = random.Random(2013)
    windows = [(m, 1, registry.BIGINT_ORACLE_N_MAX + 1) for m in (1, 2, 3, 4, 5, 47, 64)]
    windows += [(64, 100_000, 100_001), (63, 99_701, 100_001), (1, 1, 2)]
    for _ in range(24):
        m = rng.randint(1, 64)
        lo = rng.choice([rng.randint(2, 3000), rng.randint(99_000, 100_000)])
        length = rng.choice([1, rng.randint(2, 40), rng.randint(41, 400)])
        windows.append((m, lo, min(lo + length, 100_001)))
    failing = 0
    for m, lo, hi in windows:
        for c in (1, m, rng.randint(2, 10_000)):
            run = dv.central_valuation_run(m, lo, hi, multiplier=c)
            assert len(run) == hi - lo
            for n, ok in zip(range(lo, hi), run):
                assert ok == _central_reference(m, n, c), (m, n, c)
                if n <= registry.BIGINT_ORACLE_N_MAX:
                    assert ok == (dv.central_product_value(m, n, multiplier=c).denominator == 1)
            failing += run.count(False)
    assert failing > 10


def test_slice_cut_mid_run_matches_per_point_calls():
    cases = [
        # starts inside the (1, 1, 2) run and ends inside the (5, 5, 1) run
        ("thm-1.4", {"a": 5, "b": 5, "m": 5, "n": 5}, 7, 603),
        # starts and ends inside an m run
        ("cor-1.5", {"m": 4, "n": 300}, 150, 1050),
    ]
    for claim_id, ranges, lo, hi in cases:
        assert 0 < lo < hi < grid_size(get_claim(claim_id), ranges)
        got = _eval_slice((claim_id, ranges, lo, hi))
        assert got == _per_point(claim_id, ranges, lo, hi)
        assert got[0] == hi - lo


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
    got = _eval_slice((claim_id, ranges, lo, hi))
    assert got == _per_point(claim_id, ranges, lo, hi)
    assert got[0] > 0


def test_slice_failures_match_per_point_calls_for_central(monkeypatch):
    # run cor-1.5 with multiplier 1 on both routes, so that it fails
    verdict, value = dv.central_valuation_run, dv.central_product_value
    monkeypatch.setattr(
        dv, "central_valuation_run", lambda m, lo, hi: verdict(m, lo, hi, multiplier=1)
    )
    monkeypatch.setattr(dv, "central_product_value", lambda m, n: value(m, n, multiplier=1))
    ranges = {"m": 4, "n": 150}
    checked, failures = _eval_slice(("cor-1.5", ranges, 75, 525))
    assert (checked, failures) == _per_point("cor-1.5", ranges, 75, 525)
    assert any(bad["n"] > registry.BIGINT_ORACLE_N_MAX for bad in failures)
    for bad in failures:
        assert list(bad) == ["m", "n", "value"]
        assert bad["value"] == str(value(bad["m"], bad["n"], multiplier=1))


def test_non_integral_shared_head_gives_the_same_counterexamples(monkeypatch):
    # Make the head of (a, b, m) = (2, 3, 5) non-integral: C(25, 10) += 5
    # and C(24, 10) += 3 keep b C(25, 10) = (a+b) C(24, 10), so the two
    # displayed forms still agree, but 30 (C(25, 10) + 5) C(5n, 2n) / (5(5+n))
    # is no longer an integer at every n.  Both routes read dv.comb.
    bumps = {(25, 10): 5, (24, 10): 3}
    monkeypatch.setattr(dv, "comb", lambda N, K: comb(N, K) + bumps.get((N, K), 0))
    ranges = {"a": 3, "b": 3, "m": 6, "n": 6}
    lo, hi = 5, grid_size(get_claim("thm-1.4"), ranges) - 7
    checked, failures = _eval_slice(("thm-1.4", ranges, lo, hi))
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
    assert {(bad["a"], bad["b"], bad["m"]) for bad in failures} >= {(2, 3, 5)}
    head = Fraction(30 * (comb(25, 10) + 5) * comb(15, 6), 5 * 8)  # (2, 3, 5) at n = 3
    assert {"a": 2, "b": 3, "m": 5, "n": 3, "form1": str(head), "form2": str(head)} in failures


def test_cap_block_through_one_slice():
    # a = b = 64 with m, n in 1..64: the largest operands of the thm-1.4 cap
    ranges = {"a": 64, "b": 64, "m": 64, "n": 64}
    size = grid_size(get_claim("thm-1.4"), ranges)
    assert _eval_slice(("thm-1.4", ranges, size - 4096, size)) == (4096, [])


def test_floor_sweep_enumerates_each_divisor_list_once(monkeypatch):
    # lem-5.2's two 10n+9 conditions read one divisor list
    calls = []
    real = floors.divisors_of
    monkeypatch.setattr(floors, "divisors_of", lambda v: calls.append(v) or real(v))
    for n in (1, 7, 1234):
        calls.clear()
        checked, failures = check_point("lem-5.2", [(n,)])
        assert sorted(calls) == [2 * n + 1, 10 * n + 7, 10 * n + 9]
        want_checked, want = 0, []
        for ident in floors.IDENTITIES["lem-5.2"]:
            count, _, bad = floors.check_identity_at(ident, n)
            want_checked += count
            want += [{"n": n, "m": m, "condition": ident.condition()} for m in bad]
        assert (checked, failures) == (want_checked, want)
