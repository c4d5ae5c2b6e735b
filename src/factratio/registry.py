"""The claim registry: every named statement mapped to an executable check.

Each claim declares its sweep parameters (with defaults and hard caps,
sized so the full default suite runs in minutes on one core and no
q-expansion exceeds 20000 coefficients), a statement string, and a
checker.  Checkers take one parameter point and return

    (number of individual checks, list of counterexample dicts)

so that multi-part claims (the six third-theorem congruences, the five
seventh-section families) report per-part witnesses.  Theorem-class
checkers re-verify any failure through an independent second route
before reporting it; a disagreement between routes raises
InternalCheckError instead of producing a counterexample.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import divisibility as dv
from . import floors
from .errors import InternalCheckError, NotPolynomialError, UsageError
from .valuation import binary_digit_sum, ratio_ord
from .qpoly import (
    first_negative_index,
    is_reciprocal,
    unimodality_witness,
)
from .qratio import (
    FAMILIES,
    THM_7_2_FAMILY_IDS,
    THM_7_4_FAMILY_IDS,
    exponent_vector,
    expand,
    gcd_product_q1_value,
    gcd_product_spec,
    naive_expand,
)


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


_RECORDS = (
    ClaimRecord(
        "thm-1.1",
        "divisibility",
        "2n+3 divides 3*S(n) with S(n) = C(6n,3n)C(3n,n)/(2(2n+1)C(2n,n))",
        "3 S(n) = 0 (mod 2n+3)",
        _n(2000, 100_000),
    ),
    ClaimRecord(
        "thm-1.2",
        "divisibility",
        "10n+3 divides 21*t(n) with t(n) = C(15n,5n)C(5n-1,n-1)/((10n+1)C(3n,n))",
        "21 t(n) = 0 (mod 10n+3)",
        _n(1000, 100_000),
    ),
    ClaimRecord(
        "thm-1.3",
        "divisibility",
        "six companion congruences for S(n) and t(n)",
        "105 S(n) = 0 (mod 2n+5); 315 S(n) = 0 (mod 2n+7); 6435 S(n) = 0 (mod 2n+9); "
        "3003 C(15n,5n)C(5n,n)/C(3n,n) = 0 (mod 2n+1); 88179 t(n) = 0 (mod 10n+7); "
        "43263 t(n) = 0 (mod 10n+9)",
        _n(1000, 100_000),
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
    ),
    ClaimRecord(
        "cor-1.5",
        "divisibility",
        "m/(2(m+n)) C(2m,m) C(2n,n) is an integer; m=2..5 give the "
        "6/(n+2), 30/(n+3), 140/(n+4), 630/(n+5) specializations of C(2n,n)",
        "m/(2(m+n)) * C(2m,m) * C(2n,n) in Z",
        (ParamSpec("m", 5, 64), ParamSpec("n", 5000, 100_000)),
    ),
    ClaimRecord(
        "lem-2.1",
        "floor-identity",
        "the two step functions behind every claim have global minimum 0 "
        "(hence the associated factorial ratios are integral)",
        "floor(6x)+floor(x) >= floor(3x)+2 floor(2x); "
        "floor(15x)+floor(2x) >= floor(10x)+floor(4x)+floor(3x)",
        (),
    ),
    ClaimRecord(
        "lem-2.2",
        "floor-identity",
        "exact +1 floor identity for the (6,1|3,2,2) shape under m | 2n+3, m >= 5",
        "floor(6n/m)+floor(n/m) = floor(3n/m)+2 floor(2n/m)+1 when m | 2n+3, m >= 5",
        _n(500, 1_000_000),
    ),
    ClaimRecord(
        "lem-2.3",
        "floor-identity",
        "exact +1 floor identity for the (15,2|10,4,3) shape under m | 10n+3, m >= 9",
        "floor(15n/m)+floor(2n/m) = floor(10n/m)+floor(4n/m)+floor(3n/m)+1 "
        "when m | 10n+3, m >= 9",
        _n(500, 1_000_000),
    ),
    ClaimRecord(
        "lem-5.1",
        "floor-identity",
        "the (6,1|3,2,2) identity under m|2n+5 (m>=9), m|2n+7 (m>=11), "
        "m|2n+9 (m>=15), and the m=3, n=1 (mod 3) extension",
        "floor(6n/m)+floor(n/m) = floor(3n/m)+2 floor(2n/m)+1 on the listed conditions",
        _n(500, 1_000_000),
    ),
    ClaimRecord(
        "lem-5.2",
        "floor-identity",
        "the (15,2|10,4,3) identity under m|2n+1 (m>=15), m|10n+7 (m>=21), "
        "m|10n+9 (m>=27), and the m in {7,13,17} extension (corrected to m | 10n+9)",
        "floor(15n/m)+floor(2n/m) = floor(10n/m)+floor(4n/m)+floor(3n/m)+1 "
        "on the listed conditions",
        _n(500, 1_000_000),
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
    ),
    ClaimRecord(
        "thm-6.1",
        "q-positivity",
        "(1-q^gcd(am,m+n))/(1-q^{m+n}) [am+bm-1,am]_q [an+bn,an]_q is a "
        "reciprocal polynomial with non-negative coefficients",
        "(1-q^gcd(am,m+n))/(1-q^(m+n)) * [am+bm-1,am]_q * [an+bn,an]_q "
        "has non-negative integer coefficients",
        _abmn(5, 10),
    ),
    ClaimRecord(
        "cor-6.2",
        "q-positivity",
        "(1-q^{am})/(1-q^{m+n}) [am+bm-1,am]_q [an+bn,an]_q is a polynomial "
        "with non-negative coefficients; q=1 recovers the integer of thm-1.4",
        "(1-q^am)/(1-q^(m+n)) * [am+bm-1,am]_q * [an+bn,an]_q "
        "has non-negative integer coefficients",
        _abmn(5, 10),
    ),
    ClaimRecord(
        "thm-7.2",
        "q-polynomiality",
        "five quotient families of F(n) = [6n]![n]!/([3n]![2n]!^2) are polynomials",
        "(1-q)F/(1-q^(2n+1)); (1-q^3)F/(1-q^(2n+3)); (1-q)(1-q^3)F/(...); "
        "(1-q^3)(1-q^5)(1-q^7)F/(...) (n>=2); (1-q^3)^2(1-q^5)(1-q^7)F/(...) (n>=2)",
        _n(20, 200),
    ),
    ClaimRecord(
        "thm-7.4",
        "q-polynomiality",
        "two quotient families of G(n) = [15n]![2n]!/([10n]![4n]![3n]!) are polynomials",
        "(1-q)G/(1-q^(10n+1)); (1-q^3)(1-q^7)G/((1-q)(1-q^(10n+3)))",
        _n(12, 100),
    ),
    ClaimRecord(
        "conj-7.1",
        "divisibility",
        "(2bn+1)(2bn+3)C(2bn,bn) divides 3(a-b)(3a-b)C(2an,an)C(an,bn) for a > b",
        "(2bn+1)(2bn+3) C(2bn,bn) | 3(a-b)(3a-b) C(2an,an) C(an,bn)",
        (ParamSpec("a", 6, 20, 2), ParamSpec("b", 5, 20), ParamSpec("n", 40, 500)),
        conjecture=True,
    ),
    ClaimRecord(
        "conj-7.3",
        "q-positivity",
        "the five thm-7.2 families have non-negative coefficients (evidence only)",
        "all polynomials of the thm-7.2 list have non-negative integer coefficients",
        _n(12, 44),
        conjecture=True,
    ),
    ClaimRecord(
        "conj-7.4-unimodal",
        "unimodality",
        "F(n) = [6n]![n]!/([3n]![2n]!^2) is unimodal for n >= 2 (and reciprocal)",
        "[6n]![n]!/([3n]![2n]!^2) is unimodal (n >= 2)",
        _n(12, 44, minimum=2),
        conjecture=True,
    ),
    ClaimRecord(
        "conj-7.5",
        "q-positivity",
        "the two thm-7.4 families have non-negative coefficients (evidence only)",
        "both polynomials of the thm-7.4 list have non-negative integer coefficients",
        _n(12, 19),
        conjecture=True,
    ),
    ClaimRecord(
        "wz-positivity",
        "q-positivity",
        "F(n) = [6n]![n]!/([3n]![2n]!^2) has non-negative coefficients",
        "[6n]![n]!/([3n]![2n]!^2) has non-negative integer coefficients",
        _n(12, 44),
    ),
    ClaimRecord(
        "parity-power-of-2",
        "parity",
        "ord_2 S(n) = s_2(n) - 1, hence S(n) is odd exactly when n is a power of 2",
        "S(n) is odd iff n is a power of 2",
        _n(10_000, 1_000_000),
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


def points_for(claim: ClaimRecord, ranges: dict[str, int]) -> list[tuple[int, ...]]:
    """Parameter points in ascending lexicographic order."""
    if claim.id in ("thm-1.4", "thm-6.1", "cor-6.2"):
        return list(
            itertools.product(*(range(1, ranges[p] + 1) for p in ("a", "b", "m", "n")))
        )
    if claim.id == "cor-1.5":
        return list(
            itertools.product(range(1, ranges["m"] + 1), range(1, ranges["n"] + 1))
        )
    if claim.id == "conj-7.1":
        return [
            (a, b, n)
            for a in range(2, ranges["a"] + 1)
            for b in range(1, min(a - 1, ranges["b"]) + 1)
            for n in range(1, ranges["n"] + 1)
        ]
    if claim.id == "lem-2.1":
        return [()]
    n_min = claim.params[0].minimum
    return [(n,) for n in range(n_min, ranges["n"] + 1)]


# --------------------------------------------------------------------------
# Checkers: point -> (checks run, counterexample dicts)
# --------------------------------------------------------------------------

def _check_divisibility_group(claim_id: str, point: tuple[int, ...]):
    (n,) = point
    failures = []
    group = dv.CLAIMS_BY_ID[claim_id]
    for claim in group:
        if dv.check_divisibility(claim, n):
            continue
        dv.recheck_divisibility(claim, n)  # raises if the two routes disagree
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


def _check_product_point(claim_id: str, point: tuple[int, ...]):
    a, b, m, n = point
    ok, value = dv.check_product(a, b, m, n)
    if ok:
        return 1, []
    first, second = dv.product_forms(a, b, m, n)
    return 1, [
        {"a": a, "b": b, "m": m, "n": n, "form1": str(first), "form2": str(second)}
    ]


def _check_central_point(claim_id: str, point: tuple[int, ...]):
    m, n = point
    value = dv.central_product_value(m, n)
    if value.denominator == 1:
        return 1, []
    # independent route: the general product at a=b=1
    ok, _ = dv.check_product(1, 1, m, n)
    if ok:
        raise InternalCheckError(f"central product routes disagree at m={m}, n={n}")
    return 1, [{"m": m, "n": n, "value": str(value)}]


def _check_landau_point(claim_id: str, point: tuple[int, ...]):
    failures = []
    for spec in (floors.STEP_6_1, floors.STEP_15_2):
        low = floors.landau_min(spec)
        if low != 0:
            failures.append(
                {
                    "numerator": ",".join(map(str, spec.numerator_coeffs)),
                    "denominator": ",".join(map(str, spec.denominator_coeffs)),
                    "minimum": low,
                }
            )
    return 2, failures


def _check_floor_sweep(claim_id: str, point: tuple[int, ...]):
    (n,) = point
    checked = 0
    failures = []
    for ident in floors.IDENTITIES[claim_id]:
        for m in floors.divisors_of(ident.divisor_form(n)):
            if m < ident.m_min or (
                ident.m_allowed is not None and m not in ident.m_allowed
            ):
                continue
            checked += 1
            ok = floors.check_congruence_identity(ident, m, n)
            dual = floors.check_by_fractional_parts(ident, m, n)
            if ok != dual:
                raise InternalCheckError(
                    f"floor/fractional routes disagree for {claim_id} at n={n}, m={m}"
                )
            if not ok:
                failures.append({"n": n, "m": m, "condition": ident.condition()})
    return checked, failures


def _check_val_bounds(claim_id: str, point: tuple[int, ...]):
    (n,) = point
    failures = []
    for name in sorted(dv.RATIO_BOUNDS):
        for bad in dv.check_valuation_bounds(name, n):
            failures.append({"n": n, **bad})
    return len(dv.RATIO_BOUNDS), failures


def _check_conjecture_product(claim_id: str, point: tuple[int, ...]):
    a, b, n = point
    if dv.check_two_binomial_conjecture(a, b, n):
        return 1, []
    return 1, [{"a": a, "b": b, "n": n}]


def _check_parity(claim_id: str, point: tuple[int, ...]):
    (n,) = point
    if dv.parity_matches(n):
        return 1, []
    return 1, [
        {
            "n": n,
            "ord2": ratio_ord(2, dv.S_RATIO, n),
            "digit_sum": binary_digit_sum(n),
        }
    ]


def _expand_family(family_id: str, n: int):
    """Expanded polynomial of a registered family via the counting route."""
    spec = FAMILIES[family_id].spec
    return expand(exponent_vector(spec, n))


def _recheck_family_polynomiality(family_id: str, n: int, primary_poly_ok: bool):
    """Naive-oracle confirmation; raises when the routes disagree."""
    spec = FAMILIES[family_id].spec
    try:
        naive_expand(spec, n)
        naive_ok = True
    except NotPolynomialError:
        naive_ok = False
    if naive_ok != primary_poly_ok:
        raise InternalCheckError(
            f"counting and division routes disagree for {family_id} at n={n}"
        )


def _confirm_expansion(spec, n: int, poly, message: str) -> None:
    """Raise InternalCheckError unless the division route reproduces poly."""
    try:
        oracle = naive_expand(spec, n)
    except NotPolynomialError:
        oracle = None
    if oracle != poly:
        raise InternalCheckError(message)


def _check_family_polynomiality(claim_id: str, point: tuple[int, ...]):
    (n,) = point
    family_ids = THM_7_2_FAMILY_IDS if claim_id == "thm-7.2" else THM_7_4_FAMILY_IDS
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
            _recheck_family_polynomiality(fid, n, primary_poly_ok=False)
            failures.append({"n": n, "family": fid, "d": bad, "e_d": vector.exponents[bad]})
    return checked, failures


def _check_family_positivity(claim_id: str, point: tuple[int, ...]):
    (n,) = point
    if claim_id == "conj-7.3":
        family_ids = THM_7_2_FAMILY_IDS
    elif claim_id == "conj-7.5":
        family_ids = THM_7_4_FAMILY_IDS
    else:  # wz-positivity
        family_ids = ("wz",)
    checked = 0
    failures = []
    for fid in family_ids:
        family = FAMILIES[fid]
        if n < family.n_min:
            continue
        checked += 1
        try:
            poly = _expand_family(fid, n)
        except NotPolynomialError as exc:
            _recheck_family_polynomiality(fid, n, primary_poly_ok=False)
            failures.append({"n": n, "family": fid, "d": exc.d})
            continue
        bad = first_negative_index(poly)
        if bad is not None:
            _confirm_expansion(
                family.spec, n, poly, f"expansion routes disagree for {fid} at n={n}"
            )
            failures.append(
                {"n": n, "family": fid, "index": bad, "coefficient": poly[bad]}
            )
    return checked, failures


def _check_unimodality(claim_id: str, point: tuple[int, ...]):
    (n,) = point
    poly = _expand_family("wz", n)
    failures = []
    if not is_reciprocal(poly):
        failures.append({"n": n, "property": "reciprocal"})
    witness = unimodality_witness(poly)
    if witness is not None:
        failures.append({"n": n, "property": "unimodal", "index": witness})
    if failures:
        _confirm_expansion(
            FAMILIES["wz"].spec, n, poly, f"expansion routes disagree for wz at n={n}"
        )
    return 2, failures


def _check_gcd_product(claim_id: str, point: tuple[int, ...]):
    a, b, m, n = point
    use_gcd = claim_id == "thm-6.1"
    spec = gcd_product_spec(a, b, m, n, use_gcd=use_gcd)
    failures = []
    base = {"a": a, "b": b, "m": m, "n": n}
    vector = exponent_vector(spec, 1)  # constant forms: n is irrelevant
    checked = 3 + (1 if use_gcd else 0)
    bad_d = vector.first_negative()
    if bad_d is not None:
        _recheck_gcd_product(spec, poly_ok=False, a=a, b=b, m=m, n=n)
        failures.append({**base, "d": bad_d, "e_d": vector.exponents[bad_d]})
        return checked, failures
    poly = expand(vector)
    bad_i = first_negative_index(poly)
    if bad_i is not None:
        failures.append({**base, "index": bad_i, "coefficient": poly[bad_i]})
    expected = gcd_product_q1_value(a, b, m, n, use_gcd=use_gcd)
    if poly.evaluate(1) != expected:
        failures.append(
            {**base, "q1_value": poly.evaluate(1), "expected": str(expected)}
        )
    if use_gcd and not is_reciprocal(poly):
        failures.append({**base, "property": "reciprocal"})
    if failures:
        _confirm_expansion(spec, 1, poly, f"gcd-product routes disagree at {base}")
    return checked, failures


def _recheck_gcd_product(spec, poly_ok: bool, **params):
    try:
        naive_expand(spec, 1)
        naive_ok = True
    except NotPolynomialError:
        naive_ok = False
    if naive_ok != poly_ok:
        raise InternalCheckError(f"gcd-product routes disagree at {params}")


CHECKERS = {
    "thm-1.1": _check_divisibility_group,
    "thm-1.2": _check_divisibility_group,
    "thm-1.3": _check_divisibility_group,
    "thm-1.4": _check_product_point,
    "cor-1.5": _check_central_point,
    "lem-2.1": _check_landau_point,
    "lem-2.2": _check_floor_sweep,
    "lem-2.3": _check_floor_sweep,
    "lem-5.1": _check_floor_sweep,
    "lem-5.2": _check_floor_sweep,
    "val-bounds": _check_val_bounds,
    "thm-6.1": _check_gcd_product,
    "cor-6.2": _check_gcd_product,
    "thm-7.2": _check_family_polynomiality,
    "thm-7.4": _check_family_polynomiality,
    "conj-7.1": _check_conjecture_product,
    "conj-7.3": _check_family_positivity,
    "conj-7.5": _check_family_positivity,
    "conj-7.4-unimodal": _check_unimodality,
    "wz-positivity": _check_family_positivity,
    "parity-power-of-2": _check_parity,
}


def check_point(claim_id: str, point: tuple[int, ...]) -> tuple[int, list[dict]]:
    """Run one parameter point of a claim; used directly by worker processes."""
    return CHECKERS[claim_id](claim_id, point)
