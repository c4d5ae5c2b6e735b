"""Fixed-size kernel probes, run in one fresh interpreter.

    PYTHONPATH=src python3 perfbench/probes.py

Times one call of each kernel at the sizes in its metric name, in the order
listed (so the cyclotomic memo is cold for the expand probe, as it is for a
user), except `legendre_ord`, which is timed per call over a fixed loop.
Each result is checked.  Prints one JSON object:
{"ok": bool, "errors": [...], "metrics": {name: value}}.
"""

from __future__ import annotations

import json
import statistics
import time

from factratio import divisibility, qpoly, qratio, valuation


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def _legendre_ns() -> tuple[float, bool]:
    """Median ns per legendre_ord call over 7 repeats of a fixed 10k-call loop."""
    pairs = [(p, n) for p in (2, 3, 5, 7, 11, 13, 101, 997) for n in range(1, 1251)]
    expected = sum(n - n.bit_count() for p, n in pairs if p == 2)
    legendre_ord = valuation.legendre_ord
    samples = []
    ok = True
    for _ in range(7):
        start = time.perf_counter()
        for p, n in pairs:
            legendre_ord(p, n)
        samples.append((time.perf_counter() - start) / len(pairs) * 1e9)
        ok = ok and sum(legendre_ord(2, n) for p, n in pairs if p == 2) == expected
    return statistics.median(samples), ok


def main() -> None:
    metrics: dict[str, float] = {}
    errors: list[str] = []

    def check(cond: bool, what: str) -> None:
        if not cond:
            errors.append(what)

    n = 20_000
    metrics["divisibility.sun_s_n20000_s"], s = _timed(divisibility.sun_s, n)
    # ord_2 S(n) = s_2(n) - 1 (the parity claim)
    check((s & -s).bit_length() - 1 == n.bit_count() - 1, "sun_s(20000) has the wrong 2-adic order")
    metrics["divisibility.sun_t_n20000_s"], t = _timed(divisibility.sun_t, n)
    check(21 * t % (10 * n + 3) == 0, "21 t(20000) is not divisible by 10n+3")
    thm_1_1 = divisibility.CLAIMS_BY_ID["thm-1.1"][0]
    metrics["divisibility.valuation_verdict_n20000_s"], verdict = _timed(
        divisibility.valuation_verdict, thm_1_1, n
    )
    check(verdict is True, "valuation_verdict rejects thm-1.1 at n=20000")
    metrics["valuation.legendre_ord_ns"], ok = _legendre_ns()
    check(ok, "legendre_ord(2, n) != n - s_2(n)")

    wz = qratio.FAMILIES["wz"].spec
    metrics["qratio.expand_wz30_s"], poly = _timed(
        lambda: qratio.expand(qratio.exponent_vector(wz, 30))
    )
    metrics["qratio.naive_expand_wz30_s"], oracle = _timed(qratio.naive_expand, wz, 30)
    check(poly == oracle, "expand and naive_expand disagree on wz at n=30")

    j = 1000
    body = qpoly.DensePoly([k % 7 + 1 for k in range(20_001 - j)])
    product = body.mul_one_minus_power(j)  # degree 20000
    metrics["qpoly.div_one_minus_power_deg20000_s"], (quotient, exact) = _timed(
        product.div_one_minus_power, j
    )
    check(exact and quotient == body, "div_one_minus_power does not invert mul_one_minus_power")

    print(json.dumps({"ok": not errors, "errors": errors, "metrics": metrics}))


if __name__ == "__main__":
    main()
