"""Acceptance suite: one test per criterion, at the stated ranges.

Run `pytest -s tests/test_acceptance.py` to get one PASS/FAIL line per
criterion.  The fourth and fifth seventh-section expressions, as
registered, are not polynomials at n = 1 (mod 9) (first hits n = 10, 19):
there 9 divides 2n+7 while the floor sum at d = 9 is 0, so Phi_9 occurs
with exponent -1.  Criteria 8a and 8d therefore assert that the harness
reports exactly these verified counterexamples, derived here from the
plain floor sum, and nothing else; the whole suite is green.
"""

import json
import time
from functools import lru_cache

import pytest

from factratio import (
    NotPolynomialError,
    emit_report,
    legendre_ord,
    primes_up_to,
    ratio_ord,
    run_claim,
    sun_s,
    sun_t,
)
from factratio.cli import main
from factratio.floors import STEP_6_1, STEP_15_2
from factratio.qpoly import DensePoly, cyclotomic, qbinomial
from factratio.qratio import FAMILIES, exponent_vector, expand, naive_expand
from factratio import landau_min


def _line(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


@lru_cache(maxsize=None)
def _theorem_sweep_reports(workers: int):
    out = {}
    for claim_id, n_max in (("thm-1.1", 2000), ("thm-1.2", 1000), ("thm-1.3", 1000)):
        report = run_claim(claim_id, {"n": n_max}, workers=workers)
        out[claim_id] = (report, emit_report(report, "json"))
    return out


def test_criterion_01_theorem_sweeps():
    start = time.time()
    reports = _theorem_sweep_reports(1)
    elapsed = time.time() - start
    failed = {cid: rep.failed for cid, (rep, _) in reports.items()}
    ok = all(v == 0 for v in failed.values())
    _line("1", ok, f"thm-1.1 n<=2000, thm-1.2 n<=1000, thm-1.3 n<=1000 "
                   f"(six congruences): failures {failed}, {elapsed:.0f}s")
    assert failed == {"thm-1.1": 0, "thm-1.2": 0, "thm-1.3": 0}
    assert reports["thm-1.3"][0].checked == 6000


def test_criterion_02_spot_values():
    ok = (
        sun_s(1) == 5
        and sun_s(2) == 231
        and sun_t(1) == 91
        and (3 * sun_s(1)) % 5 == 0
        and (21 * sun_t(1)) % 13 == 0
    )
    _line("2", ok, "S(1)=5, S(2)=231, t(1)=91, 5 | 3*S(1), 13 | 21*t(1)")
    assert sun_s(1) == 5
    assert sun_s(2) == 231
    assert sun_t(1) == 91
    assert (3 * sun_s(1)) % (2 * 1 + 3) == 0
    assert (21 * sun_t(1)) % (10 * 1 + 3) == 0


def test_criterion_03_product_theorem_and_corollary():
    start = time.time()
    rep_product = run_claim("thm-1.4", {"a": 12, "b": 12, "m": 12, "n": 12})
    rep_central = run_claim("cor-1.5", {"m": 5, "n": 5000})
    elapsed = time.time() - start
    ok = rep_product.failed == 0 and rep_central.failed == 0
    _line("3", ok, f"both product forms agree+integral on 20736 cases; "
                   f"four central specializations integral to n=5000 ({elapsed:.0f}s)")
    assert rep_product.checked == 12**4 and rep_product.failed == 0
    assert rep_central.checked == 25000 and rep_central.failed == 0


def test_criterion_04_floor_machinery():
    assert landau_min(STEP_6_1) == 0
    assert landau_min(STEP_15_2) == 0
    total_failures = 0
    swept = 0
    for claim_id in ("lem-2.2", "lem-2.3", "lem-5.1", "lem-5.2"):
        report = run_claim(claim_id, {"n": 500})
        total_failures += report.failed
        swept += report.checked
    ok = total_failures == 0
    _line("4", ok, f"landau minima 0; {swept} identity pairs to n=500 "
                   f"(incl. both extension cases), {total_failures} failures")
    assert total_failures == 0


def test_criterion_05_valuation_layer():
    start = time.time()
    for p in primes_up_to(100):
        acc = 0
        for n in range(1, 2001):
            v = n
            while v % p == 0:
                acc += 1
                v //= p
            assert legendre_ord(p, n) == acc
    for n in range(1, 100_001):
        assert ratio_ord(2, STEP_6_1, n) == n.bit_count()
    parity = run_claim("parity-power-of-2", {"n": 10_000})
    elapsed = time.time() - start
    ok = parity.failed == 0
    _line("5", ok, f"legendre oracle n<=2000 p<=100; ord_2 identity n<=1e5; "
                   f"parity n<=1e4 ({elapsed:.0f}s)")
    assert parity.failed == 0


def test_criterion_06_q_layer_exactness():
    start = time.time()
    for k in range(1, 201):
        prod = DensePoly.one()
        for d in range(1, k + 1):
            if k % d == 0:
                prod = prod * cyclotomic(d)
        assert prod == DensePoly((-1,) + (0,) * (k - 1) + (1,))  # q^k - 1

    from factratio import NotPolynomialError

    checked = 0
    for family in FAMILIES.values():
        for n in range(family.n_min, 7):
            try:
                primary = expand(exponent_vector(family.spec, n))
            except NotPolynomialError:
                with pytest.raises(NotPolynomialError):
                    naive_expand(family.spec, n)
                continue
            assert primary == naive_expand(family.spec, n), (family.id, n)
            checked += 1

    from factratio.qratio import qbinomial_spec

    for n in range(0, 17):
        for k in range(0, n + 1):
            via_counting = expand(exponent_vector(qbinomial_spec(n, k), 1))
            assert via_counting == qbinomial(n, k)
            checked += 1
    elapsed = time.time() - start
    _line("6", True, f"cyclotomic products k<=200; counting == division oracle "
                     f"on {checked} expansions ({elapsed:.0f}s)")


def test_criterion_07_gcd_product_sweep():
    start = time.time()
    rep_gcd = run_claim("thm-6.1", {"a": 5, "b": 5, "m": 5, "n": 5})
    rep_cor = run_claim("cor-6.2", {"a": 5, "b": 5, "m": 5, "n": 5})
    # corollary form at q=1 equals the integer of the product theorem, exactly
    from factratio import check_product
    from factratio.qratio import gcd_product_spec

    for a in range(1, 6):
        for b in range(1, 6):
            for m in range(1, 6):
                for n in range(1, 6):
                    poly = expand(
                        exponent_vector(gcd_product_spec(a, b, m, n, use_gcd=False), 1)
                    )
                    ok, value = check_product(a, b, m, n)
                    assert ok and poly.coefficient_sum() == value
    elapsed = time.time() - start
    ok = rep_gcd.failed == 0 and rep_cor.failed == 0
    _line("7", ok, f"gcd form and corollary form polynomial+non-negative for "
                   f"a,b,m,n<=5; q=1 equals the product integers ({elapsed:.0f}s)")
    assert rep_gcd.failed == 0
    assert rep_cor.failed == 0


# The five thm-7.2 expressions, transcribed from the statement: each is
# F(n) = [6n]![n]!/([3n]![2n]!^2) times prod (1-q^a) / prod (1-q^{2n+b}),
# given here as (a's, b's, least n).
_THM_7_2_STATEMENT = {
    "thm-7.2-1": ((1,), (1,), 1),
    "thm-7.2-2": ((3,), (3,), 1),
    "thm-7.2-3": ((1, 3), (1, 3), 1),
    "thm-7.2-4": ((3, 5, 7), (3, 5, 7), 2),
    "thm-7.2-5": ((3, 3, 5, 7), (1, 3, 5, 7), 2),
}


def _thm_7_2_e_d(family: str, n: int, d: int) -> int:
    """Exponent of Phi_d in a thm-7.2 expression, by the plain floor sum."""
    num, den, _ = _THM_7_2_STATEMENT[family]
    return (
        (6 * n) // d + n // d - (3 * n) // d - 2 * ((2 * n) // d)
        + sum(1 for a in num if a % d == 0)
        - sum(1 for b in den if (2 * n + b) % d == 0)
    )


def _thm_7_2_witnesses(n_max: int) -> list[tuple[str, int, int, int]]:
    """(family, n, d, e_d) for every non-polynomial point with n <= n_max.

    d is the least index with a negative exponent; past 6n + 7 every term
    of the floor sum vanishes.
    """
    out = []
    for family, (_, _, n_min) in _THM_7_2_STATEMENT.items():
        for n in range(n_min, n_max + 1):
            for d in range(2, 6 * n + 8):
                e_d = _thm_7_2_e_d(family, n, d)
                if e_d < 0:
                    out.append((family, n, d, e_d))
                    break
    return sorted(out)


def test_criterion_08a_section7_polynomiality_first_theorem():
    expected = _thm_7_2_witnesses(20)
    # the floor sum at d = 9 for n = 9k+1 is 6k+k-3k-4k = 0, and 9 | 2n+7
    assert expected == [
        (family, n, 9, -1)
        for family in ("thm-7.2-4", "thm-7.2-5")
        for n in range(2, 21)
        if n % 9 == 1
    ]
    report = run_claim("thm-7.2", {"n": 20})
    reported = sorted(
        (ce["family"], ce["n"], ce["d"], ce["e_d"]) for ce in report.counterexamples
    )
    ok = reported == expected and report.checked == 98
    _line("8a", ok, f"{report.checked} checks for n<=20; not polynomial exactly at "
                    f"{[(f, n) for f, n, _, _ in reported]} (d = 9, e_d = -1), "
                    f"expected {[(f, n) for f, n, _, _ in expected]}")
    assert reported == expected
    assert report.checked == 98  # 3 families from n=1, 2 from n=2
    for family, n, _, _ in expected:
        # the independent division route agrees: Phi_9 is missing
        with pytest.raises(NotPolynomialError) as exc:
            naive_expand(FAMILIES[family].spec, n)
        assert exc.value.factor % 9 == 0, (family, n, exc.value.factor)


def test_criterion_08b_section7_polynomiality_second_theorem():
    report = run_claim("thm-7.4", {"n": 12})
    _line("8b", report.failed == 0, f"both expressions polynomial for n<=12: "
                                    f"{report.failed} failures")
    assert report.failed == 0


def test_criterion_08c_wz_positivity_and_unimodality():
    rep_pos = run_claim("wz-positivity", {"n": 12})
    rep_uni = run_claim("conj-7.4-unimodal", {"n": 12})
    ok = rep_pos.failed == 0 and rep_uni.failed == 0
    _line("8c", ok, "[6n]![n]!/([3n]![2n]!^2) non-negative (n<=12), "
                    "unimodal and reciprocal (2<=n<=12)")
    assert rep_pos.failed == 0
    assert rep_uni.failed == 0


def test_criterion_08d_conjecture_positivity_first_family():
    expected = [(family, n, d) for family, n, d, _ in _thm_7_2_witnesses(12)]
    report = run_claim("conj-7.3", {"n": 12})
    not_polynomial = sorted(
        (ce["family"], ce["n"], ce["d"]) for ce in report.counterexamples if "d" in ce
    )
    negative = [ce for ce in report.counterexamples if "index" in ce or "coefficient" in ce]
    ok = (
        not_polynomial == expected
        and report.failed == len(expected)
        and not negative
        and report.checked == 58
    )
    _line("8d", ok, f"five-expression positivity n<=12: {report.checked} checks; "
                    f"not polynomial at {[(f, n) for f, n, _ in not_polynomial]} (d = 9), "
                    f"expected {[(f, n) for f, n, _ in expected]}; "
                    f"negative coefficients {negative}")
    assert all(n % 9 == 1 and d == 9 for _, n, d in expected)
    assert not_polynomial == expected
    assert report.failed == len(expected)
    assert negative == []  # non-negative wherever the expression is a polynomial
    assert report.checked == 58  # 3 families from n=1, 2 from n=2


def test_criterion_08e_conjecture_positivity_second_family():
    start = time.time()
    report = run_claim("conj-7.5", {"n": 12})
    _line("8e", report.failed == 0,
          f"two-expression positivity n<=12: {report.failed} failures "
          f"({time.time()-start:.0f}s)")
    assert report.failed == 0


def test_criterion_09_conjecture_sweep_exit_code(capsys):
    code = main([
        "verify", "conj-7.1", "--a-max", "6", "--n-max", "40", "--format", "json",
    ])
    payload = json.loads(capsys.readouterr().out)
    ok = code == 0 and payload["failed"] == 0
    _line("9", ok, f"a<=6, b<a, n<=40: {payload['checked']} checks, "
                   f"{payload['failed']} counterexamples, exit code {code}")
    assert code == 0
    assert payload["failed"] == 0
    assert payload["checked"] == 600


def test_criterion_10_worker_determinism():
    start = time.time()
    byte_sets = {}
    for workers in (1, 4, 8):
        byte_sets[workers] = {
            cid: blob for cid, (_, blob) in _theorem_sweep_reports(workers).items()
        }
    elapsed = time.time() - start
    ok = byte_sets[1] == byte_sets[4] == byte_sets[8]
    _line("10", ok, f"criterion-1 sweeps byte-identical with 1, 4, 8 workers "
                    f"({elapsed:.0f}s)")
    assert byte_sets[1] == byte_sets[4]
    assert byte_sets[4] == byte_sets[8]
