"""The claim registry: every named statement mapped to an executable check.

Each ClaimRecord is the whole description of one claim: its sweep
parameters (with defaults and hard caps; the defaults are sized so the
full default suite runs in seconds on one core and no q-expansion exceeds
20000 coefficients), a statement string, and its checker
``check(claim, ranges, lo, hi)``, which checks the index slice [lo, hi) of
the claim's parameter grid and yields, in grid order, results

    (window, points covered, number of individual checks, counterexample dicts)

whose covered counts add up to hi - lo.  Multi-part claims (the six
third-theorem congruences, the five seventh-section families) report
per-part witnesses.  Most claims check point by point (``_each``): their
window is one point, built with ``points_for``.  The run kernels (thm-1.4,
cor-1.5, the floor lemmas, parity) check a whole run of the last parameter
at once (``_each_run``): the window is the other coordinates and a range of
the last, decoded from the slice bounds without building a point.  Either
wrapper notes an exception with the window it was raised in.  The sweep is
always the whole product grid of the parameter ranges; a checker skips the
points outside its claim's domain itself and counts 0 checks for them.

A claim with two routes (thm-1.1 to 1.4, cor-1.5, lem-2.2 to 5.2, parity)
carries its oracle box in its record, in the claim table; ``_two_routes``
re-derives every point in the box and every failing point by the second
route, and a disagreement raises InternalCheckError instead of producing a
counterexample.  The q claims re-derive only their failures, by
``naive_expand``; val-bounds and lem-2.1 have one route.

Checkers reach the kernels through module attributes (``dv.``, ``floors.``)
and through this module's ``expand`` / ``expand_many`` / ``naive_expand`` /
``points_for`` globals, never through a stored reference, so those names
can be rebound at run time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from operator import eq, not_, sub
from typing import Callable, Iterator

from . import divisibility as dv
from . import floors
from .errors import InternalCheckError, NotPolynomialError, UsageError
from .valuation import ratio_ord, ratio_ord2_run
from .qpoly import first_negative_index, is_reciprocal, unimodality_witness
from .qratio import (
    FAMILIES,
    THM_7_2_FAMILY_IDS,
    THM_7_4_FAMILY_IDS,
    exponent_vector,
    expand,
    expand_many,
    gcd_product_q1_value,
    gcd_product_spec,
    naive_expand,
)

Point = tuple[int, ...]
# (window, points covered, checks, counterexamples); the window is a point,
# or (other coordinates, lo, hi) for a run of the last parameter over [lo, hi)
Result = tuple[tuple, int, int, list[dict]]


@dataclass(frozen=True)
class ParamSpec:
    name: str
    default: int
    cap: int
    minimum: int = 1


@dataclass(frozen=True)
class ClaimRecord:
    id: str
    kind: str
    description: str
    anchor: str
    params: tuple[ParamSpec, ...]
    check: Callable[["ClaimRecord", dict[str, int], int, int], Iterator[Result]]
    box: dict[str, int] | None = field(default=None, hash=False)
    conjecture: bool = False
    note: str = ""


KINDS = (
    "divisibility",
    "floor-identity",
    "q-polynomiality",
    "q-positivity",
    "unimodality",
    "parity",
    "valuation-bound",
)


def _n(default: int, cap: int, minimum: int = 1) -> tuple[ParamSpec, ...]:
    return (ParamSpec("n", default, cap, minimum),)


def _abmn(default: int, cap: int) -> tuple[ParamSpec, ...]:
    return tuple(ParamSpec(p, default, cap) for p in ("a", "b", "m", "n"))


# --------------------------------------------------------------------------
# Checkers: (record, claim data, point or run) -> (checks run, counterexample dicts)
# --------------------------------------------------------------------------


def _each(check, *data):
    """The slice checker that checks each point on its own:
    ``check(claim, *data, point)`` returns the point's (checks, failures)."""

    def checker(claim: ClaimRecord, ranges: dict[str, int], lo: int, hi: int) -> Iterator[Result]:
        for point in points_for(claim, ranges, lo, hi):
            try:
                checks, failures = check(claim, *data, point)
            except Exception as exc:
                raise _noted(exc, claim.id, point)
            yield point, 1, checks, failures

    return checker


def _each_run(check, *data):
    """The slice checker that checks each run of the last parameter at once:
    ``check(claim, *data, *fixed, lo, hi)`` returns the (checks, failures) of
    the run with the other parameters at ``fixed`` and the last one in
    [lo, hi).  The runs are decoded from the slice bounds; no point is built."""

    def checker(claim: ClaimRecord, ranges: dict[str, int], lo: int, hi: int) -> Iterator[Result]:
        *heads, last = [range(p.minimum, ranges[p.name] + 1) for p in claim.params]
        length = len(last)
        first = lo // length
        for key, fixed in enumerate(_grid_slice(heads, first, -(-hi // length)), first):
            start = last.start + max(lo - key * length, 0)
            stop = last.start + min(hi - key * length, length)
            try:
                checks, failures = check(claim, *data, *fixed, start, stop)
            except Exception as exc:
                where = [f"{p.name}={v}" for p, v in zip(claim.params, fixed)]
                where.append(f"{claim.params[-1].name} in [{start}, {stop})")
                raise _noted(exc, claim.id, ", ".join(where))
            yield (fixed, start, stop), stop - start, checks, failures

    return checker


def _noted(exc: Exception, claim_id: str, window) -> Exception:
    """``exc`` with a note naming the window it was raised in.  A
    StopIteration would read as the end of the results, so it is replaced
    by an InternalCheckError."""
    if isinstance(exc, StopIteration):
        cause, exc = exc, InternalCheckError(f"StopIteration from the {claim_id} checker")
        exc.__cause__ = cause
    exc.add_note(f"while checking {claim_id} at {window}")
    return exc


def _two_routes(claim, fixed, lo, holds, oracle, primary=None, part=None):
    """The failures of a run of the primary route, re-derived by the oracle.

    The run is n = lo, lo+1, ... of the claim's last parameter, the others at
    ``fixed``; ``holds[i]`` is the primary verdict at n = lo + i and
    ``primary(n)`` the primary value (by default the verdict).  Every failing
    n and every n in the claim's box (each parameter at most its bound, one
    left out unbounded) is re-derived, ascending and once: ``oracle(n)``
    returns (readings, data), and each reading must equal the primary value,
    or InternalCheckError names the claim, its ``part``, the coordinates and
    both routes' values.  Returns (n, readings, data) at each failing n.
    """
    ns = range(lo, lo + len(holds))
    rederived = itertools.compress(ns, map(not_, holds))  # the failing n, picked at C level
    cut = claim.box[claim.params[-1].name] + 1 - lo  # the n below lo + cut are in the box's range
    if cut > 0 and all(v <= claim.box.get(p.name, v) for p, v in zip(claim.params, fixed)):
        rederived = itertools.chain(ns[:cut], itertools.compress(ns[cut:], map(not_, holds[cut:])))
    failing = []
    for n in rederived:
        value = holds[n - lo] if primary is None else primary(n)
        readings, data = oracle(n)
        if any(reading != value for reading in readings):
            where = ", ".join(f"{p.name}={v}" for p, v in zip(claim.params, (*fixed, n)))
            raise InternalCheckError(
                f"{claim.id} routes disagree{f' for {part}' if part else ''} at {where}: "
                f"primary {value!r}, oracle {readings!r}"
            )
        if not holds[n - lo]:
            failing.append((n, readings, data))
    return failing


def _check_divisibility_group(record, group, point: Point):
    (n,) = point
    failures = []
    bases: dict = {}  # per-base work at this n, see dv.valuation_verdict
    for claim in group:
        ok = dv.valuation_verdict(claim, n, bases)
        oracle = lambda n: ((dv.check_divisibility(claim, n),), None)
        if _two_routes(record, (), n, [ok], oracle, part=claim.name):
            mod = claim.modulus_form(n)
            res = claim.multiplier * dv.VALUE_FUNCS[claim.value_key](n) % mod
            failures.append({"n": n, "congruence": claim.name, "modulus": mod, "residue": res})
    return len(group), failures


def _check_product(claim, a: int, b: int, m: int, lo: int, hi: int) -> tuple[int, list[dict]]:
    """thm-1.4 on the run n in [lo, hi) from one product run; the oracle is
    the integer route and the Fraction route, whose forms must be equal and,
    where the integer route is integral, equal to its value."""

    def oracle(n):
        integral, value = dv.check_product(a, b, m, n)
        first, second = dv.product_forms(a, b, m, n)
        agreed = first == second and value in (None, first)
        forms = first.denominator == 1 if agreed else (value, first, second)
        return (integral, forms), (first, second)

    failing = _two_routes(claim, (a, b, m), lo, dv.product_run(a, b, m, lo, hi), oracle)
    return hi - lo, [
        {"a": a, "b": b, "m": m, "n": n, "form1": str(first), "form2": str(second)}
        for n, _, (first, second) in failing
    ]


def _check_central(claim, m: int, lo: int, hi: int) -> tuple[int, list[dict]]:
    """cor-1.5 on the run n in [lo, hi) from one product run at a = b = 1;
    the oracle is the Fraction value."""

    def oracle(n):
        value = dv.central_product_value(m, n)
        return (value.denominator == 1,), value

    failing = _two_routes(claim, (m,), lo, dv.product_run(1, 1, m, lo, hi), oracle)
    return hi - lo, [{"m": m, "n": n, "value": str(value)} for n, _, value in failing]


def _check_landau_point(claim, point: Point):
    failures = []
    for spec in (floors.STEP_6_1, floors.STEP_15_2):
        low = floors.landau_min(spec)
        if low != 0:
            failures.append(
                {
                    "numerator": ",".join(map(str, spec.num_coeffs)),
                    "denominator": ",".join(map(str, spec.den_coeffs)),
                    "minimum": low,
                }
            )
    return 2, failures


def _check_floor_run(claim, identities, lo: int, hi: int) -> tuple[int, list[dict]]:
    """The floor identities on the run n in [lo, hi), from one identity run
    each; the oracle is the per-point sweep over the divisor lists, which
    must find the same checks and failing m for every identity."""
    runs = [floors.identity_run(ident, lo, hi) for ident in identities]
    holds = [True] * (hi - lo)
    bad_at: dict[tuple[int, int], list[int]] = {}  # (n, identity) -> failing m, ascending
    for i, (_, bad) in enumerate(runs):
        for n, m in bad:
            holds[n - lo] = False
            bad_at.setdefault((n, i), []).append(m)

    def oracle(n):
        divisors: dict[int, list[int]] = {}  # lem-5.2 has two 10n+9 conditions
        sweep = []
        for ident in identities:
            v = ident.divisor_form(n)
            if v not in divisors:
                divisors[v] = floors.divisors_of(v)
            checked, _, bad = floors.check_identity_at(ident, n, divisors[v])
            sweep.append((checked, bad))
        return (sweep,), None

    primary = lambda n: [(c[n], bad_at.get((n, i), [])) for i, (c, _) in enumerate(runs)]
    failing = _two_routes(claim, (), lo, holds, oracle, primary)
    return sum(counts.total() for counts, _ in runs), [
        {"n": n, "m": m, "condition": ident.condition()}
        for n, (sweep,), _ in failing
        for ident, (_, bad) in zip(identities, sweep)
        for m in bad
    ]


def _check_val_bounds(claim, point: Point):
    (n,) = point
    failures = []
    for name in sorted(dv.RATIO_BOUNDS):
        for bad in dv.check_valuation_bounds(name, n):
            failures.append({"n": n, **bad})
    return len(dv.RATIO_BOUNDS), failures


def _check_conjecture_product(claim, point: Point):
    a, b, n = point
    if b >= a:  # the conjecture is stated for a > b only
        return 0, []
    if dv.check_two_binomial_conjecture(a, b, n):
        return 1, []
    return 1, [{"a": a, "b": b, "n": n}]


def _check_parity(claim, lo: int, hi: int) -> tuple[int, list[dict]]:
    """ord_2 S(n) for n in [lo, hi) from one digit-sum run; the oracle is the
    per-n Legendre floor sums and the 2-adic order of the big integer S(n),
    which must both reproduce it."""
    run = ratio_ord2_run(dv.S_RATIO, lo, hi)
    digit_sums = list(map(int.bit_count, range(lo, hi)))
    gaps = map(sub, digit_sums, run)  # s_2(n) - ord_2 S(n): 1 where the claim holds
    holds = list(map(eq, gaps, itertools.repeat(1)))

    def oracle(n):
        value = dv.sun_s(n)
        return (ratio_ord(2, dv.S_RATIO, n), (value & -value).bit_length() - 1), None

    failing = _two_routes(claim, (), lo, holds, oracle, lambda n: run[n - lo])
    return hi - lo, [
        {"n": n, "ord2": ord2, "digit_sum": digit_sums[n - lo]} for n, (ord2, _), _ in failing
    ]


def _confirm_expansion(spec, n: int, poly, message: str) -> None:
    """Raise InternalCheckError unless the division route reproduces poly.

    ``poly=None`` states that the counting route found no polynomial, so
    the division route must reject the expression as well.
    """
    try:
        oracle = naive_expand(spec, n)
    except NotPolynomialError:
        oracle = None
    if oracle != poly:
        raise InternalCheckError(message)


def _check_family_polynomiality(claim, family_ids, point: Point):
    (n,) = point
    checked = 0
    failures = []
    for fid in family_ids:
        family = FAMILIES[fid]
        if n < family.n_min:
            continue
        checked += 1
        vector = exponent_vector(family.spec, n)
        bad = vector.first_negative()
        if bad is not None:
            _confirm_expansion(
                family.spec, n, None, f"counting and division routes disagree for {fid} at n={n}"
            )
            failures.append({"n": n, "family": fid, "d": bad, "e_d": vector.exponents[bad]})
    return checked, failures


def _check_family_positivity(claim, family_ids, point: Point):
    """The families' polynomials at n come from one ``expand_many`` call,
    which expands the Phi_d part they share once."""
    (n,) = point
    fids = [fid for fid in family_ids if n >= FAMILIES[fid].n_min]
    vectors = {fid: exponent_vector(FAMILIES[fid].spec, n) for fid in fids}
    good = [fid for fid in fids if vectors[fid].is_polynomial()]
    polys = dict(zip(good, expand_many([vectors[fid] for fid in good])))
    failures = []
    for fid in fids:
        spec = FAMILIES[fid].spec
        message = f"expansion routes disagree for {fid} at n={n}"
        poly = polys.get(fid)
        if poly is None:
            _confirm_expansion(spec, n, None, message)
            failures.append({"n": n, "family": fid, "d": vectors[fid].first_negative()})
            continue
        bad = first_negative_index(poly)
        if bad is not None:
            _confirm_expansion(spec, n, poly, message)
            failures.append(
                {"n": n, "family": fid, "index": bad, "coefficient": poly[bad]}
            )
    return len(fids), failures


def _check_unimodality(claim, point: Point):
    (n,) = point
    spec = FAMILIES["wz"].spec
    poly = expand(exponent_vector(spec, n))
    failures = []
    if not is_reciprocal(poly):
        failures.append({"n": n, "property": "reciprocal"})
    witness = unimodality_witness(poly)
    if witness is not None:
        failures.append({"n": n, "property": "unimodal", "index": witness})
    if failures:
        _confirm_expansion(spec, n, poly, f"expansion routes disagree for wz at n={n}")
    return 2, failures


def _check_gcd_product(claim, use_gcd: bool, point: Point):
    a, b, m, n = point
    spec = gcd_product_spec(a, b, m, n, use_gcd=use_gcd)
    failures = []
    base = {"a": a, "b": b, "m": m, "n": n}
    message = f"gcd-product routes disagree at {base}"
    vector = exponent_vector(spec, 1)  # constant forms: n is irrelevant
    checked = 3 + (1 if use_gcd else 0)
    bad_d = vector.first_negative()
    if bad_d is not None:
        _confirm_expansion(spec, 1, None, message)
        failures.append({**base, "d": bad_d, "e_d": vector.exponents[bad_d]})
        return checked, failures
    poly = expand(vector)
    bad_i = first_negative_index(poly)
    if bad_i is not None:
        failures.append({**base, "index": bad_i, "coefficient": poly[bad_i]})
    expected = gcd_product_q1_value(a, b, m, n, use_gcd=use_gcd)
    q1_value = poly.coefficient_sum()
    if q1_value != expected:
        failures.append({**base, "q1_value": q1_value, "expected": str(expected)})
    if use_gcd and not is_reciprocal(poly):
        failures.append({**base, "property": "reciprocal"})
    if failures:
        _confirm_expansion(spec, 1, poly, message)
    return checked, failures


# --------------------------------------------------------------------------
# The claim table
# --------------------------------------------------------------------------

_RECORDS = (
    ClaimRecord(
        "thm-1.1",
        "divisibility",
        "2n+3 divides 3*S(n) with S(n) = C(6n,3n)C(3n,n)/(2(2n+1)C(2n,n))",
        "3 S(n) = 0 (mod 2n+3)",
        _n(2000, 100_000),
        _each(_check_divisibility_group, dv.CLAIMS_BY_ID["thm-1.1"]),
        box={"n": 100},
    ),
    ClaimRecord(
        "thm-1.2",
        "divisibility",
        "10n+3 divides 21*t(n) with t(n) = C(15n,5n)C(5n-1,n-1)/((10n+1)C(3n,n))",
        "21 t(n) = 0 (mod 10n+3)",
        _n(1000, 100_000),
        _each(_check_divisibility_group, dv.CLAIMS_BY_ID["thm-1.2"]),
        box={"n": 100},
    ),
    ClaimRecord(
        "thm-1.3",
        "divisibility",
        "six companion congruences for S(n) and t(n)",
        "105 S(n) = 0 (mod 2n+5); 315 S(n) = 0 (mod 2n+7); 6435 S(n) = 0 (mod 2n+9); "
        "3003 C(15n,5n)C(5n,n)/C(3n,n) = 0 (mod 2n+1); 88179 t(n) = 0 (mod 10n+7); "
        "43263 t(n) = 0 (mod 10n+9)",
        _n(1000, 100_000),
        _each(_check_divisibility_group, dv.CLAIMS_BY_ID["thm-1.3"]),
        box={"n": 100},
        note="fourth congruence normalized to the C(5n,n) form; as published "
        "(3003 t(n) mod 2n+1) it fails at n=2",
    ),
    ClaimRecord(
        "thm-1.4",
        "divisibility",
        "abm/((a+b)(m+n)) C(am+bm,am) C(an+bn,an) is an integer, equal to "
        "am/(m+n) C(am+bm-1,am) C(an+bn,an)",
        "abm/((a+b)(m+n)) * C(am+bm,am) * C(an+bn,an) in Z",
        _abmn(12, 64),
        _each_run(_check_product),
        box={"a": 4, "b": 4, "m": 4, "n": 4},
    ),
    ClaimRecord(
        "cor-1.5",
        "divisibility",
        "m/(2(m+n)) C(2m,m) C(2n,n) is an integer; m=2..5 give the "
        "6/(n+2), 30/(n+3), 140/(n+4), 630/(n+5) specializations of C(2n,n)",
        "m/(2(m+n)) * C(2m,m) * C(2n,n) in Z",
        (ParamSpec("m", 5, 64), ParamSpec("n", 5000, 100_000)),
        _each_run(_check_central),
        box={"n": 100},
    ),
    ClaimRecord(
        "lem-2.1",
        "floor-identity",
        "the two step functions behind every claim have global minimum 0 "
        "(hence the associated factorial ratios are integral)",
        "floor(6x)+floor(x) >= floor(3x)+2 floor(2x); "
        "floor(15x)+floor(2x) >= floor(10x)+floor(4x)+floor(3x)",
        (),
        _each(_check_landau_point),
    ),
    ClaimRecord(
        "lem-2.2",
        "floor-identity",
        "exact +1 floor identity for the (6,1|3,2,2) shape under m | 2n+3, m >= 5",
        "floor(6n/m)+floor(n/m) = floor(3n/m)+2 floor(2n/m)+1 when m | 2n+3, m >= 5",
        _n(500, 1_000_000),
        _each_run(_check_floor_run, floors.IDENTITIES["lem-2.2"]),
        box={"n": 100},
    ),
    ClaimRecord(
        "lem-2.3",
        "floor-identity",
        "exact +1 floor identity for the (15,2|10,4,3) shape under m | 10n+3, m >= 9",
        "floor(15n/m)+floor(2n/m) = floor(10n/m)+floor(4n/m)+floor(3n/m)+1 "
        "when m | 10n+3, m >= 9",
        _n(500, 1_000_000),
        _each_run(_check_floor_run, floors.IDENTITIES["lem-2.3"]),
        box={"n": 100},
    ),
    ClaimRecord(
        "lem-5.1",
        "floor-identity",
        "the (6,1|3,2,2) identity under m|2n+5 (m>=9), m|2n+7 (m>=11), "
        "m|2n+9 (m>=15), and the m=3, n=1 (mod 3) extension",
        "floor(6n/m)+floor(n/m) = floor(3n/m)+2 floor(2n/m)+1 on the listed conditions",
        _n(500, 1_000_000),
        _each_run(_check_floor_run, floors.IDENTITIES["lem-5.1"]),
        box={"n": 100},
    ),
    ClaimRecord(
        "lem-5.2",
        "floor-identity",
        "the (15,2|10,4,3) identity under m|2n+1 (m>=15), m|10n+7 (m>=21), "
        "m|10n+9 (m>=27), and the m in {7,13,17} extension (corrected to m | 10n+9)",
        "floor(15n/m)+floor(2n/m) = floor(10n/m)+floor(4n/m)+floor(3n/m)+1 "
        "on the listed conditions",
        _n(500, 1_000_000),
        _each_run(_check_floor_run, floors.IDENTITIES["lem-5.2"]),
        box={"n": 100},
        note="the published extension condition m | 10n+7 fails at (n,m)=(1,17)",
    ),
    ClaimRecord(
        "val-bounds",
        "valuation-bound",
        "per-prime order bounds of the shifted companion ratios, and the "
        "clearing constants 3, 21, 105, 43263 cover all negative orders",
        "ord_p S-shift >= -1 (p=3); ord_p t-shift >= -1 (p=3,7); "
        "ord_p X >= -1 (p=3,5,7); ord_p Y >= -2 (p=3), >= -1 (p=11,19,23)",
        _n(200, 5000),
        _each(_check_val_bounds),
    ),
    ClaimRecord(
        "thm-6.1",
        "q-positivity",
        "(1-q^gcd(am,m+n))/(1-q^{m+n}) [am+bm-1,am]_q [an+bn,an]_q is a "
        "reciprocal polynomial with non-negative coefficients",
        "(1-q^gcd(am,m+n))/(1-q^(m+n)) * [am+bm-1,am]_q * [an+bn,an]_q "
        "has non-negative integer coefficients",
        _abmn(5, 10),
        _each(_check_gcd_product, True),
    ),
    ClaimRecord(
        "cor-6.2",
        "q-positivity",
        "(1-q^{am})/(1-q^{m+n}) [am+bm-1,am]_q [an+bn,an]_q is a polynomial "
        "with non-negative coefficients; q=1 recovers the integer of thm-1.4",
        "(1-q^am)/(1-q^(m+n)) * [am+bm-1,am]_q * [an+bn,an]_q "
        "has non-negative integer coefficients",
        _abmn(5, 10),
        _each(_check_gcd_product, False),
    ),
    ClaimRecord(
        "thm-7.2",
        "q-polynomiality",
        "five quotient families of F(n) = [6n]![n]!/([3n]![2n]!^2) are polynomials",
        "(1-q)F/(1-q^(2n+1)); (1-q^3)F/(1-q^(2n+3)); (1-q)(1-q^3)F/(...); "
        "(1-q^3)(1-q^5)(1-q^7)F/(...) (n>=2); (1-q^3)^2(1-q^5)(1-q^7)F/(...) (n>=2)",
        _n(20, 200),
        _each(_check_family_polynomiality, THM_7_2_FAMILY_IDS),
    ),
    ClaimRecord(
        "thm-7.4",
        "q-polynomiality",
        "two quotient families of G(n) = [15n]![2n]!/([10n]![4n]![3n]!) are polynomials",
        "(1-q)G/(1-q^(10n+1)); (1-q^3)(1-q^7)G/((1-q)(1-q^(10n+3)))",
        _n(12, 100),
        _each(_check_family_polynomiality, THM_7_4_FAMILY_IDS),
    ),
    ClaimRecord(
        "conj-7.1",
        "divisibility",
        "(2bn+1)(2bn+3)C(2bn,bn) divides 3(a-b)(3a-b)C(2an,an)C(an,bn) for a > b",
        "(2bn+1)(2bn+3) C(2bn,bn) | 3(a-b)(3a-b) C(2an,an) C(an,bn)",
        (ParamSpec("a", 6, 20, 2), ParamSpec("b", 5, 20), ParamSpec("n", 40, 500)),
        _each(_check_conjecture_product),
        conjecture=True,
    ),
    ClaimRecord(
        "conj-7.3",
        "q-positivity",
        "the five thm-7.2 families have non-negative coefficients (evidence only)",
        "all polynomials of the thm-7.2 list have non-negative integer coefficients",
        _n(12, 44),
        _each(_check_family_positivity, THM_7_2_FAMILY_IDS),
        conjecture=True,
    ),
    ClaimRecord(
        "conj-7.4-unimodal",
        "unimodality",
        "F(n) = [6n]![n]!/([3n]![2n]!^2) is unimodal for n >= 2 (and reciprocal)",
        "[6n]![n]!/([3n]![2n]!^2) is unimodal (n >= 2)",
        _n(12, 44, minimum=2),
        _each(_check_unimodality),
        conjecture=True,
    ),
    ClaimRecord(
        "conj-7.5",
        "q-positivity",
        "the two thm-7.4 families have non-negative coefficients (evidence only)",
        "both polynomials of the thm-7.4 list have non-negative integer coefficients",
        _n(12, 19),
        _each(_check_family_positivity, THM_7_4_FAMILY_IDS),
        conjecture=True,
    ),
    ClaimRecord(
        "wz-positivity",
        "q-positivity",
        "F(n) = [6n]![n]!/([3n]![2n]!^2) has non-negative coefficients",
        "[6n]![n]!/([3n]![2n]!^2) has non-negative integer coefficients",
        _n(12, 44),
        _each(_check_family_positivity, ("wz",)),
    ),
    ClaimRecord(
        "parity-power-of-2",
        "parity",
        "ord_2 S(n) = s_2(n) - 1, hence S(n) is odd exactly when n is a power of 2",
        "S(n) is odd iff n is a power of 2",
        _n(10_000, 1_000_000),
        _each_run(_check_parity),
        box={"n": 100},
    ),
)

CLAIMS: dict[str, ClaimRecord] = {r.id: r for r in _RECORDS}


def get_claim(claim_id: str) -> ClaimRecord:
    try:
        return CLAIMS[claim_id]
    except KeyError:
        raise UsageError(f"unknown claim id {claim_id!r}; see `list`") from None


def list_claims(kind: str | None = None) -> list[ClaimRecord]:
    """Stable sorted listing, optionally filtered by kind."""
    records = sorted(CLAIMS.values(), key=lambda r: r.id)
    if kind is not None:
        if kind not in KINDS:
            raise UsageError(f"unknown kind {kind!r} (valid: {', '.join(KINDS)})")
        records = [r for r in records if r.kind == kind]
    return records


def resolve_ranges(claim: ClaimRecord, ranges: dict[str, int] | None) -> dict[str, int]:
    """Merge user ranges with defaults; enforce caps and parameter names."""
    ranges = dict(ranges or {})
    known = {p.name for p in claim.params}
    for name in ranges:
        if name not in known:
            raise UsageError(
                f"claim {claim.id} does not take a range for {name!r} "
                f"(valid: {sorted(known) or 'none'})"
            )
    resolved = {}
    for p in claim.params:
        value = ranges.get(p.name, p.default)
        if type(value) is not int or value < p.minimum:  # a bool is no range
            raise UsageError(f"range {p.name} must be an integer >= {p.minimum}")
        if value > p.cap:
            raise UsageError(
                f"range {p.name}={value} exceeds the hard cap {p.cap} for {claim.id}"
            )
        resolved[p.name] = value
    return resolved


def grid_size(claim: ClaimRecord, ranges: dict[str, int]) -> int:
    """Number of points of the claim's parameter grid."""
    return math.prod(ranges[p.name] - p.minimum + 1 for p in claim.params)


def points_for(
    claim: ClaimRecord, ranges: dict[str, int], start: int = 0, stop: int | None = None
) -> list[Point]:
    """Parameter points in ascending lexicographic order.

    ``start`` and ``stop`` select the index slice [start, stop) of the
    grid.  The slice is built from its decoded first point, so its cost
    does not grow with ``start``.
    """
    axes = [range(p.minimum, ranges[p.name] + 1) for p in claim.params]
    size = grid_size(claim, ranges)
    stop = size if stop is None else min(stop, size)
    return list(_grid_slice(axes, start, stop)) if start < stop else []


def _grid_slice(axes: list[range], start: int, stop: int) -> Iterator[Point]:
    """Points of product(*axes) at lexicographic index start <= i < stop."""
    if len(axes) < 2:
        yield from itertools.product(*(axis[start:stop] for axis in axes))
        return
    head, tail = axes[0], axes[1:]
    stride = math.prod(map(len, tail))
    first, offset = divmod(start, stride)
    last, end = divmod(stop, stride)
    if first == last:
        yield from ((head[first], *rest) for rest in _grid_slice(tail, offset, end))
        return
    if offset:
        yield from ((head[first], *rest) for rest in _grid_slice(tail, offset, stride))
        first += 1
    yield from itertools.product(head[first:last], *tail)
    if end:
        yield from ((head[last], *rest) for rest in _grid_slice(tail, 0, end))


def check_point(claim_id: str, ranges: dict[str, int], lo: int, hi: int) -> tuple[int, list[dict]]:
    """Check the index slice [lo, hi) of the claim's grid at ``ranges``:
    the summed (checks, counterexamples) of its checker's results, in order.

    The results must cover exactly hi - lo points; a checker that loses
    points or yields extra results raises InternalCheckError.
    """
    claim = CLAIMS[claim_id]
    checked, failures, covered = 0, [], 0
    window = None
    for window, count, checks, bad in claim.check(claim, ranges, lo, hi):
        covered += count
        checked += checks
        failures += bad
    if covered != hi - lo:
        raise InternalCheckError(
            f"the {claim_id} checker covered {covered} points of the {hi - lo} at grid "
            f"indices [{lo}, {hi}); its last result was at {window}"
        )
    return checked, failures
