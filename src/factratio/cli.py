"""Command-line front end.

    factratio verify <claim-id> [--n-max N] [--a-max A] [--b-max B]
                     [--m-max M] [--workers W] [--format json|csv|text]
                     [--out PATH]
    factratio list [--kind K] [--format json|text]
    factratio landau --num 6,1 --den 3,2,2 [--format json|text]
    factratio qpoly --family <id> --n N [--emit coeffs|exponents|summary]

Exit codes: 0 all checks passed, 1 a command's own negative verdict (a
counterexample from verify, a negative minimum from landau, not a
polynomial from qpoly), 2 usage or validation error (an unwritable --out
path included), 3 any internal failure (two independent routes
disagreeing, a crashed worker, any other exception; never a
counterexample).  verify runs on one worker unless --workers says more.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import InternalCheckError, NotPolynomialError, UsageError
from .floors import grid, landau_min, landau_witnesses, step
from .qpoly import is_nonnegative, is_reciprocal, is_unimodal
from .qratio import FAMILIES, exponent_vector, expand, spec_degree
from .registry import list_claims
from .reports import FORMATS, emit_report
from .runner import run_claim


def _check_out_path(path: str) -> None:
    """Reject an --out path that cannot be written, before the sweep runs.

    Nothing is created or truncated: a run that later fails for another
    reason leaves an existing file as it was.
    """
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        reason = "is a directory"
    elif not os.path.isdir(parent):
        reason = f"no such directory {parent}"
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        reason = "permission denied"
    else:
        return
    raise UsageError(f"cannot write --out {path}: {reason}")


def _write_output(data: bytes, path: str | None) -> None:
    if path:
        try:
            with open(path, "wb") as fh:
                fh.write(data)
        except OSError as exc:
            raise UsageError(f"cannot write --out {path}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(data.decode())


def _cmd_verify(args: argparse.Namespace) -> int:
    ranges = {}
    for flag, name in (("n_max", "n"), ("a_max", "a"), ("b_max", "b"), ("m_max", "m")):
        value = getattr(args, flag)
        if value is not None:
            ranges[name] = value
    if args.out:
        _check_out_path(args.out)
    report = run_claim(args.claim, ranges, workers=args.workers)
    _write_output(emit_report(report, args.format), args.out)
    if report.failed:
        if report.conjecture:
            print(
                f"note: {report.failed} counterexample(s) to an open conjecture; "
                "verify independently before reporting",
                file=sys.stderr,
            )
        else:
            print(
                f"warning: {report.failed} failure(s) on a theorem-class claim "
                "(confirmed by the independent route); suspect a source erratum",
                file=sys.stderr,
            )
        return 1
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    records = list_claims(kind=args.kind)
    if args.format == "json":
        payload = [
            {
                "id": r.id,
                "kind": r.kind,
                "conjecture": r.conjecture,
                "description": r.description,
                "anchor": r.anchor,
                "params": {p.name: {"default": p.default, "cap": p.cap} for p in r.params},
                "note": r.note,
            }
            for r in records
        ]
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for r in records:
            tag = " (conjecture)" if r.conjecture else ""
            params = ", ".join(f"{p.name}<={p.default}" for p in r.params) or "-"
            print(f"{r.id:<20} {r.kind:<16} defaults: {params:<28}{tag}")
            print(f"{'':<20} {r.anchor}")
            if r.note:
                print(f"{'':<20} note: {r.note}")
    return 0


def _parse_coeffs(text: str, label: str) -> tuple[int, ...]:
    try:
        coeffs = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise UsageError(f"--{label} expects a comma-separated integer list") from None
    if not coeffs:
        raise UsageError(f"--{label} must not be empty")
    return coeffs


def _cmd_landau(args: argparse.Namespace) -> int:
    num = _parse_coeffs(args.num, "num")
    den = _parse_coeffs(args.den, "den")
    try:
        spec = step(num, den)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if grid(spec) > 5_000_000:
        raise UsageError(
            f"evaluation grid lcm={grid(spec)} is too fine; keep the "
            "coefficient lcm under 5e6"
        )
    low = landau_min(spec)
    witnesses = landau_witnesses(spec)
    if args.format == "json":
        payload = {
            "numerator": list(num),
            "denominator": list(den),
            "minimum": low,
            "integral_for_all_n": low >= 0,
            "witnesses": [{"x": str(x), "value": v} for x, v in witnesses],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"step function: sum floor(a*x) for a in {list(num)} minus {list(den)}")
        print(f"minimum over the reals: {low}")
        verdict = "integral for every n" if low >= 0 else "NOT always integral"
        print(f"factorial ratio prod(a_i*n)!/prod(b_j*n)! is {verdict}")
        shown = ", ".join(f"f({x})={v}" for x, v in witnesses[:10])
        print(f"minimizers: {shown}" + (" ..." if len(witnesses) > 10 else ""))
    return 0 if low >= 0 else 1


def _cmd_qpoly(args: argparse.Namespace) -> int:
    try:
        family = FAMILIES[args.family]
    except KeyError:
        raise UsageError(
            f"unknown family {args.family!r}; known: {', '.join(sorted(FAMILIES))}"
        ) from None
    if args.n < family.n_min:
        raise UsageError(f"family {family.id} requires n >= {family.n_min}")
    degree = spec_degree(family.spec, args.n)
    if degree > 20_000:
        raise UsageError(f"expansion degree {degree} exceeds the 20000-coefficient cap")
    vector = exponent_vector(family.spec, args.n)
    if args.emit == "exponents":
        print(json.dumps(vector.to_json(), indent=2, sort_keys=True))
        return 0
    try:
        poly = expand(vector)
    except NotPolynomialError as exc:
        print(
            json.dumps({"family": family.id, "n": args.n, "not_polynomial_at_d": exc.d})
        )
        return 1
    if args.emit == "coeffs":
        print(json.dumps(poly.to_json_coeffs()))
        return 0
    payload = {
        "family": family.id,
        "n": args.n,
        "degree": poly.degree,
        "reciprocal": is_reciprocal(poly),
        "unimodal": is_unimodal(poly),
        "nonnegative": is_nonnegative(poly),
        "q1_value": str(poly.coefficient_sum()),
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factratio",
        description="Exact verification of factorial-ratio divisibility, floor "
        "identities, and q-binomial positivity claims.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="sweep one claim over parameter ranges")
    verify.add_argument("claim", help="claim id, e.g. thm-1.1 (see `list`)")
    verify.add_argument("--n-max", type=int, default=None)
    verify.add_argument("--a-max", type=int, default=None)
    verify.add_argument("--b-max", type=int, default=None)
    verify.add_argument("--m-max", type=int, default=None)
    verify.add_argument("--workers", type=int, default=1)
    verify.add_argument("--format", choices=FORMATS, default="text")
    verify.add_argument("--out", default=None, help="write the report to a file")
    verify.set_defaults(func=_cmd_verify)

    lister = sub.add_parser("list", help="list registered claims")
    lister.add_argument("--kind", default=None)
    lister.add_argument("--format", choices=("json", "text"), default="text")
    lister.set_defaults(func=_cmd_list)

    landau = sub.add_parser("landau", help="step-function minimum for a coefficient pair")
    landau.add_argument("--num", required=True, help="comma-separated coefficients")
    landau.add_argument("--den", required=True, help="comma-separated coefficients")
    landau.add_argument("--format", choices=("json", "text"), default="text")
    landau.set_defaults(func=_cmd_landau)

    qpoly = sub.add_parser("qpoly", help="expand a registered q-expression family")
    qpoly.add_argument("--family", required=True)
    qpoly.add_argument("--n", type=int, required=True)
    qpoly.add_argument(
        "--emit", choices=("coeffs", "exponents", "summary"), default="summary"
    )
    qpoly.set_defaults(func=_cmd_qpoly)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        if not isinstance(exc, InternalCheckError):
            import traceback  # imported here, off the start-up path

            traceback.print_exc(file=sys.stderr)
        print(f"internal error: {exc}", *getattr(exc, "__notes__", ()), sep="\n", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
