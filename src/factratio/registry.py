"""The claim registry: every named statement mapped to an executable check.

Each ClaimRecord is the whole description of one claim: its sweep
parameters (with defaults and hard caps; the defaults are sized so the
full default suite runs in minutes on one core and no q-expansion exceeds
20000 coefficients), a statement string, an optional constraint on the
parameter grid, and its checker ``check(point)``, a module-level checker
with the claim's own data bound by ``functools.partial``.  A record with
``takes_shared`` has a checker ``check(point, shared)`` instead: ``shared``
is the memo dict of the point's index slice, where the checker keeps work
that many points of the slice reuse.  Checkers return

    (number of individual checks, list of counterexample dicts)

so that multi-part claims (the six third-theorem congruences, the five
seventh-section families) report per-part witnesses.  Theorem-class
checkers re-verify any failure through an independent second route
before reporting it; a disagreement between routes raises
InternalCheckError instead of producing a counterexample.

Checkers reach the kernels through module attributes (``dv.``, ``floors.``)
and through this module's ``expand`` / ``expand_many`` / ``naive_expand``
globals, never through a stored reference, so those names can be rebound
at run time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator

from . import divisibility as dv
from . import floors
from .errors import InternalCheckError, NotPolynomialError, UsageError
from .valuation import binary_digit_sum, ratio_ord
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
    check: Callable[[Point], tuple[int, list[dict]]]
    conjecture: bool = False
    note: str = ""
    constraint: Callable[[Point], bool] | None = None  # keeps a grid point
    takes_shared: bool = False  # check(point, shared), see check_point


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
# Checkers: (claim data, point) -> (checks run, counterexample dicts)
# --------------------------------------------------------------------------

# The big-integer route re-derives every thm-1.1/1.2/1.3 verdict, and the
# Fraction route every cor-1.5 verdict, at n up to this bound, so each sweep
# exercises the direct definition; above it, they run only at failing points.
BIGINT_ORACLE_N_MAX = 100


def _check_divisibility_group(group, point: Point):
    (n,) = point
    failures = []
    shared: dict = {}  # per-base work at this n, see dv.valuation_verdict
    for claim in group:
        ok = dv.valuation_verdict(claim, n, shared)
        if ok and n > BIGINT_ORACLE_N_MAX:
            continue
        big = dv.check_divisibility(claim, n)
        if big != ok:
            raise InternalCheckError(
                f"divisibility routes disagree for {claim.name} at n={n}: "
                f"big-integer={big}, valuation={ok}"
            )
        if ok:
            continue
        value = dv.VALUE_FUNCS[claim.value_key](n)
        failures.append(
            {
                "n": n,
                "congruence": claim.name,
                "modulus": claim.modulus_form(n),
                "residue": (claim.multiplier * value) % claim.modulus_form(n),
            }
        )
    return len(group), failures


# The Fraction route re-derives every thm-1.4 verdict on the box
# max(a, b, m, n) <= PRODUCT_ORACLE_MAX; outside it, only at failing points.
PRODUCT_ORACLE_MAX = 4


def _check_product_point(point: Point, shared: dict):
    a, b, m, n = point
    in_box = max(point) <= PRODUCT_ORACLE_MAX
    ok, value = dv.check_product(a, b, m, n, shared=shared, value=in_box)
    if ok and not in_box:
        return 1, []
    first, second = dv.product_forms(a, b, m, n)
    if first != second:
        raise InternalCheckError(
            f"the two product forms disagree at a={a}, b={b}, m={m}, n={n}"
        )
    if ok != (first.denominator == 1) or (ok and value != first.numerator):
        raise InternalCheckError(
            f"integer and Fraction product routes disagree at a={a}, b={b}, m={m}, n={n}"
        )
    if ok:
        return 1, []
    return 1, [
        {"a": a, "b": b, "m": m, "n": n, "form1": str(first), "form2": str(second)}
    ]


def _check_central_point(point: Point, shared: dict):
    m, n = point
    ok = dv.central_valuation_verdict(m, n, shared=shared)
    if ok and n > BIGINT_ORACLE_N_MAX:
        return 1, []
    value = dv.central_product_value(m, n)
    if ok != (value.denominator == 1):
        raise InternalCheckError(f"central product routes disagree at m={m}, n={n}")
    if ok:
        return 1, []
    return 1, [{"m": m, "n": n, "value": str(value)}]


def _check_landau_point(point: Point):
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


def _check_floor_sweep(identities, point: Point):
    (n,) = point
    checked = 0
    failures = []
    divisors: dict[int, list[int]] = {}  # lem-5.2 has two 10n+9 conditions
    for ident in identities:
        v = ident.divisor_form(n)
        if v not in divisors:
            divisors[v] = floors.divisors_of(v)
        count, _, bad = floors.check_identity_at(ident, n, divisors[v])
        checked += count
        failures += [{"n": n, "m": m, "condition": ident.condition()} for m in bad]
    return checked, failures


def _check_val_bounds(point: Point):
    (n,) = point
    failures = []
    for name in sorted(dv.RATIO_BOUNDS):
        for bad in dv.check_valuation_bounds(name, n):
            failures.append({"n": n, **bad})
    return len(dv.RATIO_BOUNDS), failures


def _check_conjecture_product(point: Point):
    a, b, n = point
    if dv.check_two_binomial_conjecture(a, b, n):
        return 1, []
    return 1, [{"a": a, "b": b, "n": n}]


def _check_parity(point: Point):
    (n,) = point
    if dv.parity_matches(n):
        return 1, []
    return 1, [{"n": n, "ord2": ratio_ord(2, dv.S_RATIO, n), "digit_sum": binary_digit_sum(n)}]


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


def _check_family_polynomiality(family_ids, point: Point):
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


def _check_family_positivity(family_ids, point: Point):
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


def _check_unimodality(point: Point):
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


def _check_gcd_product(use_gcd: bool, point: Point):
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
        partial(_check_divisibility_group, dv.CLAIMS_BY_ID["thm-1.1"]),
    ),
    ClaimRecord(
        "thm-1.2",
        "divisibility",
        "10n+3 divides 21*t(n) with t(n) = C(15n,5n)C(5n-1,n-1)/((10n+1)C(3n,n))",
        "21 t(n) = 0 (mod 10n+3)",
        _n(1000, 100_000),
        partial(_check_divisibility_group, dv.CLAIMS_BY_ID["thm-1.2"]),
    ),
    ClaimRecord(
        "thm-1.3",
        "divisibility",
        "six companion congruences for S(n) and t(n)",
        "105 S(n) = 0 (mod 2n+5); 315 S(n) = 0 (mod 2n+7); 6435 S(n) = 0 (mod 2n+9); "
        "3003 C(15n,5n)C(5n,n)/C(3n,n) = 0 (mod 2n+1); 88179 t(n) = 0 (mod 10n+7); "
        "43263 t(n) = 0 (mod 10n+9)",
        _n(1000, 100_000),
        partial(_check_divisibility_group, dv.CLAIMS_BY_ID["thm-1.3"]),
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
        _check_product_point,
        takes_shared=True,
    ),
    ClaimRecord(
        "cor-1.5",
        "divisibility",
        "m/(2(m+n)) C(2m,m) C(2n,n) is an integer; m=2..5 give the "
        "6/(n+2), 30/(n+3), 140/(n+4), 630/(n+5) specializations of C(2n,n)",
        "m/(2(m+n)) * C(2m,m) * C(2n,n) in Z",
        (ParamSpec("m", 5, 64), ParamSpec("n", 5000, 100_000)),
        _check_central_point,
        takes_shared=True,
    ),
    ClaimRecord(
        "lem-2.1",
        "floor-identity",
        "the two step functions behind every claim have global minimum 0 "
        "(hence the associated factorial ratios are integral)",
        "floor(6x)+floor(x) >= floor(3x)+2 floor(2x); "
        "floor(15x)+floor(2x) >= floor(10x)+floor(4x)+floor(3x)",
        (),
        _check_landau_point,
    ),
    ClaimRecord(
        "lem-2.2",
        "floor-identity",
        "exact +1 floor identity for the (6,1|3,2,2) shape under m | 2n+3, m >= 5",
        "floor(6n/m)+floor(n/m) = floor(3n/m)+2 floor(2n/m)+1 when m | 2n+3, m >= 5",
        _n(500, 1_000_000),
        partial(_check_floor_sweep, floors.IDENTITIES["lem-2.2"]),
    ),
    ClaimRecord(
        "lem-2.3",
        "floor-identity",
        "exact +1 floor identity for the (15,2|10,4,3) shape under m | 10n+3, m >= 9",
        "floor(15n/m)+floor(2n/m) = floor(10n/m)+floor(4n/m)+floor(3n/m)+1 "
        "when m | 10n+3, m >= 9",
        _n(500, 1_000_000),
        partial(_check_floor_sweep, floors.IDENTITIES["lem-2.3"]),
    ),
    ClaimRecord(
        "lem-5.1",
        "floor-identity",
        "the (6,1|3,2,2) identity under m|2n+5 (m>=9), m|2n+7 (m>=11), "
        "m|2n+9 (m>=15), and the m=3, n=1 (mod 3) extension",
        "floor(6n/m)+floor(n/m) = floor(3n/m)+2 floor(2n/m)+1 on the listed conditions",
        _n(500, 1_000_000),
        partial(_check_floor_sweep, floors.IDENTITIES["lem-5.1"]),
    ),
    ClaimRecord(
        "lem-5.2",
        "floor-identity",
        "the (15,2|10,4,3) identity under m|2n+1 (m>=15), m|10n+7 (m>=21), "
        "m|10n+9 (m>=27), and the m in {7,13,17} extension (corrected to m | 10n+9)",
        "floor(15n/m)+floor(2n/m) = floor(10n/m)+floor(4n/m)+floor(3n/m)+1 "
        "on the listed conditions",
        _n(500, 1_000_000),
        partial(_check_floor_sweep, floors.IDENTITIES["lem-5.2"]),
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
        _check_val_bounds,
    ),
    ClaimRecord(
        "thm-6.1",
        "q-positivity",
        "(1-q^gcd(am,m+n))/(1-q^{m+n}) [am+bm-1,am]_q [an+bn,an]_q is a "
        "reciprocal polynomial with non-negative coefficients",
        "(1-q^gcd(am,m+n))/(1-q^(m+n)) * [am+bm-1,am]_q * [an+bn,an]_q "
        "has non-negative integer coefficients",
        _abmn(5, 10),
        partial(_check_gcd_product, True),
    ),
    ClaimRecord(
        "cor-6.2",
        "q-positivity",
        "(1-q^{am})/(1-q^{m+n}) [am+bm-1,am]_q [an+bn,an]_q is a polynomial "
        "with non-negative coefficients; q=1 recovers the integer of thm-1.4",
        "(1-q^am)/(1-q^(m+n)) * [am+bm-1,am]_q * [an+bn,an]_q "
        "has non-negative integer coefficients",
        _abmn(5, 10),
        partial(_check_gcd_product, False),
    ),
    ClaimRecord(
        "thm-7.2",
        "q-polynomiality",
        "five quotient families of F(n) = [6n]![n]!/([3n]![2n]!^2) are polynomials",
        "(1-q)F/(1-q^(2n+1)); (1-q^3)F/(1-q^(2n+3)); (1-q)(1-q^3)F/(...); "
        "(1-q^3)(1-q^5)(1-q^7)F/(...) (n>=2); (1-q^3)^2(1-q^5)(1-q^7)F/(...) (n>=2)",
        _n(20, 200),
        partial(_check_family_polynomiality, THM_7_2_FAMILY_IDS),
    ),
    ClaimRecord(
        "thm-7.4",
        "q-polynomiality",
        "two quotient families of G(n) = [15n]![2n]!/([10n]![4n]![3n]!) are polynomials",
        "(1-q)G/(1-q^(10n+1)); (1-q^3)(1-q^7)G/((1-q)(1-q^(10n+3)))",
        _n(12, 100),
        partial(_check_family_polynomiality, THM_7_4_FAMILY_IDS),
    ),
    ClaimRecord(
        "conj-7.1",
        "divisibility",
        "(2bn+1)(2bn+3)C(2bn,bn) divides 3(a-b)(3a-b)C(2an,an)C(an,bn) for a > b",
        "(2bn+1)(2bn+3) C(2bn,bn) | 3(a-b)(3a-b) C(2an,an) C(an,bn)",
        (ParamSpec("a", 6, 20, 2), ParamSpec("b", 5, 20), ParamSpec("n", 40, 500)),
        _check_conjecture_product,
        conjecture=True,
        constraint=lambda point: point[1] < point[0],  # b < a
    ),
    ClaimRecord(
        "conj-7.3",
        "q-positivity",
        "the five thm-7.2 families have non-negative coefficients (evidence only)",
        "all polynomials of the thm-7.2 list have non-negative integer coefficients",
        _n(12, 44),
        partial(_check_family_positivity, THM_7_2_FAMILY_IDS),
        conjecture=True,
    ),
    ClaimRecord(
        "conj-7.4-unimodal",
        "unimodality",
        "F(n) = [6n]![n]!/([3n]![2n]!^2) is unimodal for n >= 2 (and reciprocal)",
        "[6n]![n]!/([3n]![2n]!^2) is unimodal (n >= 2)",
        _n(12, 44, minimum=2),
        _check_unimodality,
        conjecture=True,
    ),
    ClaimRecord(
        "conj-7.5",
        "q-positivity",
        "the two thm-7.4 families have non-negative coefficients (evidence only)",
        "both polynomials of the thm-7.4 list have non-negative integer coefficients",
        _n(12, 19),
        partial(_check_family_positivity, THM_7_4_FAMILY_IDS),
        conjecture=True,
    ),
    ClaimRecord(
        "wz-positivity",
        "q-positivity",
        "F(n) = [6n]![n]!/([3n]![2n]!^2) has non-negative coefficients",
        "[6n]![n]!/([3n]![2n]!^2) has non-negative integer coefficients",
        _n(12, 44),
        partial(_check_family_positivity, ("wz",)),
    ),
    ClaimRecord(
        "parity-power-of-2",
        "parity",
        "ord_2 S(n) = s_2(n) - 1, hence S(n) is odd exactly when n is a power of 2",
        "S(n) is odd iff n is a power of 2",
        _n(10_000, 1_000_000),
        _check_parity,
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
        if not isinstance(value, int) or value < p.minimum:
            raise UsageError(f"range {p.name} must be an integer >= {p.minimum}")
        if value > p.cap:
            raise UsageError(
                f"range {p.name}={value} exceeds the hard cap {p.cap} for {claim.id}"
            )
        resolved[p.name] = value
    return resolved


def grid_size(claim: ClaimRecord, ranges: dict[str, int]) -> int:
    """Number of points of the unfiltered grid, before any constraint."""
    return math.prod(ranges[p.name] - p.minimum + 1 for p in claim.params)


def points_for(
    claim: ClaimRecord, ranges: dict[str, int], start: int = 0, stop: int | None = None
) -> list[Point]:
    """Parameter points in ascending lexicographic order.

    ``start`` and ``stop`` select the index slice [start, stop) of the
    unfiltered grid; the constraint then filters the slice.  The slice is
    built from its decoded first point, so its cost does not grow with
    ``start``.
    """
    axes = [range(p.minimum, ranges[p.name] + 1) for p in claim.params]
    size = grid_size(claim, ranges)
    stop = size if stop is None else min(stop, size)
    points = _grid_slice(axes, start, stop) if start < stop else ()
    if claim.constraint is not None:
        return [point for point in points if claim.constraint(point)]
    return list(points)


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


def check_point(
    claim_id: str, point: Point, shared: dict | None = None
) -> tuple[int, list[dict]]:
    """Run one parameter point of a claim; used directly by worker processes.

    ``shared`` is the memo dict of the point's slice, handed to a checker
    whose record ``takes_shared``; without it the call uses a fresh dict.
    """
    record = CLAIMS[claim_id]
    if not record.takes_shared:
        return record.check(point)
    return record.check(point, {} if shared is None else shared)
