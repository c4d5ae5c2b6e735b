"""Claim registry, sweep runner, report serialization, CLI contract."""

import ast
import dataclasses
import itertools
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from factratio import (
    DensePoly,
    InternalCheckError,
    RunReport,
    UsageError,
    emit_report,
    list_claims,
    run_claim,
)
import factratio
from factratio import cli, divisibility, floors, registry, runner, valuation
from factratio.cli import main
from factratio.registry import (
    CLAIMS,
    KINDS,
    check_point,
    get_claim,
    grid_size,
    points_for,
    resolve_ranges,
)

from test_slice_memo import check_at, shift_parity

EXPECTED_IDS = {
    "thm-1.1",
    "thm-1.2",
    "thm-1.3",
    "thm-1.4",
    "cor-1.5",
    "lem-2.1",
    "lem-2.2",
    "lem-2.3",
    "lem-5.1",
    "lem-5.2",
    "thm-6.1",
    "cor-6.2",
    "thm-7.2",
    "thm-7.4",
    "conj-7.1",
    "conj-7.3",
    "conj-7.4-unimodal",
    "conj-7.5",
    "wz-positivity",
    "parity-power-of-2",
    "val-bounds",
}


def test_registry_contents():
    assert set(CLAIMS) == EXPECTED_IDS
    for record in CLAIMS.values():
        assert record.kind in KINDS
        assert record.anchor
        assert record.description


def test_list_claims_sorted_and_stable():
    ids = [r.id for r in list_claims()]
    assert ids == sorted(EXPECTED_IDS)
    assert [r.id for r in list_claims()] == ids


def test_list_claims_kind_filter():
    positivity = {r.id for r in list_claims(kind="q-positivity")}
    assert positivity == {"thm-6.1", "cor-6.2", "conj-7.3", "conj-7.5", "wz-positivity"}
    with pytest.raises(UsageError, match="valid: divisibility, floor-identity"):
        list_claims(kind="no-such-kind")


def test_conjecture_flags():
    conjectures = {r.id for r in list_claims() if r.conjecture}
    assert conjectures == {"conj-7.1", "conj-7.3", "conj-7.4-unimodal", "conj-7.5"}


def test_unknown_claim_id():
    with pytest.raises(UsageError):
        get_claim("thm-9.9")
    with pytest.raises(UsageError):
        run_claim("thm-9.9")


def test_range_validation():
    claim = get_claim("thm-1.1")
    with pytest.raises(UsageError):
        resolve_ranges(claim, {"a": 3})  # wrong parameter name
    with pytest.raises(UsageError):
        resolve_ranges(claim, {"n": 10**9})  # beyond the cap
    with pytest.raises(UsageError):
        resolve_ranges(claim, {"n": 0})
    # a bool is an int, but no range: True would sweep one point and report "n": true
    for flag in (True, False):
        with pytest.raises(UsageError, match="range n must be an integer >= 1"):
            run_claim("thm-1.1", {"n": flag})
    assert resolve_ranges(claim, None) == {"n": 2000}


def test_points_ordering():
    claim = get_claim("thm-1.4")
    pts = points_for(claim, {"a": 2, "b": 2, "m": 2, "n": 2})
    assert pts == sorted(pts)
    assert len(pts) == 16
    conj = get_claim("conj-7.1")
    cpts = points_for(conj, {"a": 3, "b": 5, "n": 2})
    assert cpts == list(itertools.product(range(2, 4), range(1, 6), range(1, 3)))
    upts = points_for(get_claim("conj-7.4-unimodal"), {"n": 4})
    assert upts == [(2,), (3,), (4,)]
    assert points_for(get_claim("lem-2.1"), {}) == [()]
    central = points_for(get_claim("cor-1.5"), {"m": 2, "n": 3})
    assert central == [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]


@pytest.mark.parametrize("claim_id", sorted(EXPECTED_IDS))
def test_points_for_slices_concatenate_to_the_grid(claim_id):
    claim = get_claim(claim_id)
    ranges = {p.name: min(p.minimum + 3, p.cap) for p in claim.params}
    whole = points_for(claim, ranges)
    size = grid_size(claim, ranges)
    assert len(whole) == size
    for step in (1, 2, 7, size + 1):
        slices = [points_for(claim, ranges, lo, lo + step) for lo in range(0, size, step)]
        assert [len(s) for s in slices] == [
            min(lo + step, size) - lo for lo in range(0, size, step)
        ], step
        assert [point for s in slices for point in s] == whole, step
    assert points_for(claim, ranges, size, size + 5) == []


def test_points_for_slice_starts_deep_in_the_grid():
    claim = get_claim("thm-1.4")
    ranges = {"a": 64, "b": 64, "m": 64, "n": 64}
    lo = grid_size(claim, ranges) - 70
    assert points_for(claim, ranges, lo, lo + 3) == [(64, 64, 63, 59), (64, 64, 63, 60), (64, 64, 63, 61)]
    assert points_for(claim, ranges, lo + 69)[-1] == (64, 64, 64, 64)


@pytest.mark.parametrize(
    "claim_id, ranges",
    [
        ("thm-1.4", {"a": 5, "b": 5, "m": 5, "n": 5}),
        ("cor-1.5", {"m": 3, "n": 200}),
        ("conj-7.1", {"a": 6, "b": 5, "n": 12}),
        ("parity-power-of-2", {"n": 3000}),
        ("thm-6.1", {"a": 3, "b": 3, "m": 3, "n": 3}),
        ("thm-7.2", {"n": 20}),
        ("thm-1.1", {"n": 5}),  # fewer slices than 7 workers
    ],
)
def test_reports_do_not_depend_on_worker_count(claim_id, ranges):
    """On 7 workers every case but parity has a slice count that is no
    multiple of 7 (thm-6.1 41, thm-7.2 20), and thm-1.1 at n <= 5 has 5
    slices, fewer than the workers; thm-7.2 has 20 slices on 3 workers."""
    reports = [run_claim(claim_id, ranges, workers=w) for w in (1, 2, 3, 7)]
    first, *rest = (emit_report(report, "json") for report in reports)
    assert all(other == first for other in rest)
    if claim_id == "thm-7.2":  # its counterexamples merge in order on every worker count
        assert reports[0].failed == 4


@pytest.mark.parametrize("workers", [1, 2])
def test_checker_errors_name_claim_and_point(monkeypatch, workers):
    record = CLAIMS["thm-1.1"]

    def broken(claim, group, point):
        if point == (37,):
            raise InternalCheckError("routes disagree")
        return registry._check_divisibility_group(claim, group, point)

    check = registry._each(broken, divisibility.CLAIMS_BY_ID["thm-1.1"])
    monkeypatch.setitem(CLAIMS, "thm-1.1", dataclasses.replace(record, check=check))
    with pytest.raises(InternalCheckError) as info:
        run_claim("thm-1.1", {"n": 60}, workers=workers)
    assert "while checking thm-1.1 at (37,)" in info.value.__notes__

    # a run checker: the parity sweep's digit-sum run is wrong at n = 64,
    # and the note names the slice's run, which holds n = 64 (300 points
    # make slices of 38 on one worker and of 19 on two)
    monkeypatch.setattr(registry, "ratio_ord2_run", _shift_run_at(registry.ratio_ord2_run, 64))
    with pytest.raises(InternalCheckError, match="parity-power-of-2 routes disagree at n=64:") as info:
        run_claim("parity-power-of-2", {"n": 300}, workers=workers)
    window = {1: "[39, 77)", 2: "[58, 77)"}[workers]
    assert f"while checking parity-power-of-2 at n in {window}" in info.value.__notes__


def _replace_checker(monkeypatch, claim_id, wrap):
    record = CLAIMS[claim_id]
    monkeypatch.setitem(CLAIMS, claim_id, dataclasses.replace(record, check=wrap(record.check)))


def _one_result_twice(check):
    def checker(claim, ranges, lo, hi):
        results = list(check(claim, ranges, lo, hi))
        yield from results
        yield results[-1]

    return checker


def _last_result_dropped(check):
    def checker(claim, ranges, lo, hi):
        yield from list(check(claim, ranges, lo, hi))[:-1]

    return checker


@pytest.mark.parametrize("workers", [1, 2])
def test_extra_results_raise(monkeypatch, workers):
    # 60 points make slices of 8 on one worker and of 4 on two
    _replace_checker(monkeypatch, "thm-1.1", _one_result_twice)
    step = {1: 8, 2: 4}[workers]
    message = rf"thm-1\.1 checker covered {step + 1} points of the {step} at grid indices \[0, {step}\)"
    with pytest.raises(InternalCheckError, match=message):
        run_claim("thm-1.1", {"n": 60}, workers=workers)
    # a run checker: the slice's one parity run counted twice
    _replace_checker(monkeypatch, "parity-power-of-2", _one_result_twice)
    with pytest.raises(InternalCheckError, match="covered 20 points of the 10 "):
        check_point("parity-power-of-2", {"n": 50}, 0, 10)


@pytest.mark.parametrize("workers", [1, 2])
def test_lost_points_raise(monkeypatch, workers):
    _replace_checker(monkeypatch, "thm-1.1", _last_result_dropped)
    step = {1: 8, 2: 4}[workers]
    message = rf"thm-1\.1 checker covered {step - 1} points of the {step} at grid indices \[0, {step}\)"
    with pytest.raises(InternalCheckError, match=message):
        run_claim("thm-1.1", {"n": 60}, workers=workers)
    # a run checker: a slice that ends inside the m = 2 run loses that run
    _replace_checker(monkeypatch, "cor-1.5", _last_result_dropped)
    with pytest.raises(InternalCheckError, match=r"covered 20 points of the 25 .* at \(\(1,\), 11, 31\)"):
        check_point("cor-1.5", {"m": 3, "n": 30}, 10, 35)


def test_faulting_run_kernel_is_noted_with_its_run(monkeypatch):
    real = divisibility.product_run

    def faulty(a, b, m, lo, hi):
        if (a, b, m) == (1, 1, 1) and lo <= 2500 < hi:
            raise ValueError("kernel fault")
        return real(a, b, m, lo, hi)

    monkeypatch.setattr(divisibility, "product_run", faulty)
    ranges = {"m": 3, "n": 3000}
    # one slice over the whole grid holds the whole m = 1 run
    with pytest.raises(ValueError) as info:
        check_point("cor-1.5", ranges, 0, 9000)
    assert info.value.__notes__ == ["while checking cor-1.5 at m=1, n in [1, 3001)"]
    # one worker cuts the grid into slices of 1125, and the third one holds
    # the m = 1 run's last 750 n
    with pytest.raises(ValueError) as info:
        run_claim("cor-1.5", ranges, workers=1)
    assert info.value.__notes__ == ["while checking cor-1.5 at m=1, n in [2251, 3001)"]
    # thm-1.4 names (a, b, m) and its run's n window
    with pytest.raises(ValueError) as info:
        check_point("thm-1.4", {"a": 2, "b": 2, "m": 2, "n": 3000}, 2400, 2600)
    assert info.value.__notes__ == ["while checking thm-1.4 at a=1, b=1, m=1, n in [2401, 2601)"]


@pytest.mark.parametrize("workers", [1, 2])
def test_run_checkers_build_no_point_tuples(monkeypatch, workers):
    cases = [
        ("thm-1.4", {"a": 3, "b": 3, "m": 3, "n": 40}),
        ("cor-1.5", {"m": 3, "n": 300}),
        ("parity-power-of-2", {"n": 3000}),
        ("lem-5.2", {"n": 300}),
    ]
    want = [emit_report(run_claim(claim_id, ranges, workers=workers), "json") for claim_id, ranges in cases]

    def no_points(*args):
        raise AssertionError("points_for called")

    monkeypatch.setattr(registry, "points_for", no_points)
    got = [emit_report(run_claim(claim_id, ranges, workers=workers), "json") for claim_id, ranges in cases]
    assert got == want
    with pytest.raises(AssertionError, match="points_for called"):  # the patch is live
        run_claim("thm-1.1", {"n": 40}, workers=workers)


@pytest.mark.parametrize("workers", [1, 2])
def test_stop_iteration_in_a_check_exits_3(monkeypatch, tmp_path, capsys, workers):
    """A StopIteration from a kernel is an internal failure; it must not end
    the sweep early as if the slices had run out."""
    real = divisibility.valuation_verdict

    def stopping(claim, n, shared=None):
        if n == 37:
            raise StopIteration
        return real(claim, n, shared)

    monkeypatch.setattr(divisibility, "valuation_verdict", stopping)
    out = tmp_path / "report.json"
    argv = ["verify", "thm-1.1", "--n-max", "60", "--workers", str(workers), "--out", str(out)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: StopIteration from the thm-1.1 checker")
    assert "while checking thm-1.1 at (37,)" in err
    assert not out.exists()


def test_one_parity_run_per_slice(monkeypatch):
    calls = []
    real = registry.ratio_ord2_run
    monkeypatch.setattr(
        registry, "ratio_ord2_run", lambda spec, lo, hi: calls.append((lo, hi)) or real(spec, lo, hi)
    )
    report = run_claim("parity-power-of-2", {"n": 3000}, workers=1)
    assert (report.checked, report.failed) == (3000, 0)
    # 3000 points on one worker make 8 slices of 375
    assert calls == [(1 + lo, 1 + lo + 375) for lo in range(0, 3000, 375)]


def test_one_product_run_per_slice_and_run(monkeypatch):
    calls = []
    real = divisibility.product_run
    monkeypatch.setattr(divisibility, "product_run", lambda *args: calls.append(args) or real(*args))
    report = run_claim("cor-1.5", {"m": 3, "n": 3000}, workers=1)
    assert (report.checked, report.failed) == (9000, 0)
    # 9000 points on one worker make 8 slices of 1125; the third and the
    # sixth cross from one m to the next and make one run on each side
    assert calls == [
        (1, 1, 1, 1, 1126), (1, 1, 1, 1126, 2251), (1, 1, 1, 2251, 3001),
        (1, 1, 2, 1, 376), (1, 1, 2, 376, 1501), (1, 1, 2, 1501, 2626), (1, 1, 2, 2626, 3001),
        (1, 1, 3, 1, 751), (1, 1, 3, 751, 1876), (1, 1, 3, 1876, 3001),
    ]

    # thm-1.4: 27 runs of 40 n in 8 slices of 135 points, and each of the 7
    # inner slice bounds cuts a run in two, so one call per (slice, a, b, m)
    calls.clear()
    ranges = {"a": 3, "b": 3, "m": 3, "n": 40}
    report = run_claim("thm-1.4", ranges, workers=1)
    assert (report.checked, report.failed) == (1080, 0)
    claim = get_claim("thm-1.4")
    per_slice = [{p[:3] for p in points_for(claim, ranges, lo, lo + 135)} for lo in range(0, 1080, 135)]
    assert len(calls) == sum(map(len, per_slice)) == 27 + 7
    # the windows cover the grid once, in order
    covered = [(a, b, m, n) for a, b, m, lo, hi in calls for n in range(lo, hi)]
    assert covered == points_for(claim, ranges)


def test_run_claim_small_sweeps():
    rep = run_claim("thm-1.1", {"n": 30})
    assert (rep.checked, rep.passed, rep.failed) == (30, 30, 0)
    assert rep.ok and rep.counterexamples == []

    rep = run_claim("lem-2.1")
    assert rep.checked == 2 and rep.failed == 0

    rep = run_claim("conj-7.1", {"a": 3, "b": 2, "n": 4})
    assert rep.failed == 0


def test_conjecture_checker_skips_b_not_below_a():
    # b runs past a: the checker, not the grid, drops the points with b >= a
    ranges = {"a": 4, "b": 6, "n": 3}
    in_domain = sum(b < a for a, b, n in points_for(get_claim("conj-7.1"), ranges))
    assert in_domain == 18
    reports = [run_claim("conj-7.1", ranges, workers=w) for w in (1, 2)]
    assert [(r.checked, r.failed) for r in reports] == [(in_domain, 0)] * 2
    assert emit_report(reports[0], "json") == emit_report(reports[1], "json")


def test_run_claim_reports_known_counterexamples():
    # the published seventh-section expressions 4 and 5 fail at n = 10
    rep = run_claim("thm-7.2", {"n": 10})
    assert rep.failed == 2
    assert {(ce["family"], ce["n"], ce["d"]) for ce in rep.counterexamples} == {
        ("thm-7.2-4", 10, 9),
        ("thm-7.2-5", 10, 9),
    }


def test_worker_pool_determinism():
    r1 = emit_report(run_claim("thm-1.1", {"n": 50}, workers=1), "json")
    r2 = emit_report(run_claim("thm-1.1", {"n": 50}, workers=2), "json")
    r3 = emit_report(run_claim("thm-1.1", {"n": 50}, workers=5), "json")
    assert r1 == r2 == r3


def test_json_report_shape():
    rep = run_claim("thm-1.2", {"n": 10})
    payload = json.loads(emit_report(rep, "json"))
    assert payload["claim"] == "thm-1.2"
    assert payload["failed"] == 0
    assert payload["counterexamples"] == []
    assert payload["ranges"] == {"n": 10}
    assert "wall_time" not in json.dumps(payload)


def test_json_counterexamples_use_decimal_strings():
    rep = RunReport(
        claim_id="demo",
        kind="divisibility",
        description="d",
        anchor="a",
        conjecture=False,
        ranges={"n": 3},
        checked=3,
        passed=2,
        failed=1,
        counterexamples=[{"n": 2, "value": 10**40}],
    )
    payload = json.loads(emit_report(rep, "json"))
    assert payload["counterexamples"] == [{"n": "2", "value": str(10**40)}]


def test_csv_report():
    rep = run_claim("thm-1.1", {"n": 5})
    text = emit_report(rep, "csv").decode()
    assert text.splitlines()[0] == "claim"
    rep.counterexamples = [{"n": 4, "m": 7}, {"n": 9, "m": 3}]
    text = emit_report(rep, "csv").decode()
    lines = text.splitlines()
    assert lines[0] == "claim,m,n"
    assert lines[1] == "thm-1.1,7,4"


def test_text_report_contains_anchor():
    rep = run_claim("thm-1.1", {"n": 5})
    text = emit_report(rep, "text").decode()
    assert "3 S(n) = 0 (mod 2n+3)" in text
    assert "PASS" in text


def test_unknown_format():
    rep = run_claim("thm-1.1", {"n": 2})
    with pytest.raises(UsageError):
        emit_report(rep, "xml")


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------

def test_cli_verify_pass(capsys):
    assert main(["verify", "thm-1.1", "--n-max", "15", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["failed"] == 0


def test_cli_verify_failure_exit_code(capsys):
    # theorem-class failure: the published expressions fail at n=10
    code = main(["verify", "thm-7.2", "--n-max", "10", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out)["failed"] == 2
    assert "warning" in captured.err


def test_cli_verify_unknown_claim(capsys):
    assert main(["verify", "thm-9.9"]) == 2
    assert "unknown claim" in capsys.readouterr().err


def test_cli_verify_cap_exceeded(capsys):
    assert main(["verify", "thm-1.1", "--n-max", "999999999"]) == 2
    assert "cap" in capsys.readouterr().err


def test_cli_verify_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "thm-1.1", "--n-max", "5", "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["checked"] == 5


def test_cli_verify_unwritable_out_is_usage_error(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    assert main(["verify", "thm-1.1", "--n-max", "5", "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def _no_sweep(*args, **kwargs):
    raise AssertionError("the sweep ran before --out was checked")


@pytest.mark.parametrize("where", ["missing/report.json", "."])
def test_cli_unwritable_out_fails_before_the_sweep(monkeypatch, tmp_path, capsys, where):
    monkeypatch.setattr(cli, "run_claim", _no_sweep)
    out = tmp_path / where
    assert main(["verify", "parity-power-of-2", "--out", str(out)]) == 2
    assert f"cannot write --out {out}" in capsys.readouterr().err
    assert not (tmp_path / "missing").exists()


def test_cli_failed_run_leaves_existing_out_file(monkeypatch, tmp_path, capsys):
    out = tmp_path / "report.json"
    out.write_bytes(b"an earlier report")
    real = registry.ratio_ord2_run
    monkeypatch.setattr(
        registry, "ratio_ord2_run", lambda spec, lo, hi: [v + 1 for v in real(spec, lo, hi)]
    )
    assert main(["verify", "parity-power-of-2", "--n-max", "50", "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(
        "internal error: parity-power-of-2 routes disagree at n=1: primary 1, oracle (0, 0)\n"
    )
    assert out.read_bytes() == b"an earlier report"


def test_cli_route_disagreement_exits_3(monkeypatch, capsys):
    real = divisibility.check_divisibility
    monkeypatch.setattr(divisibility, "check_divisibility", lambda claim, n: not real(claim, n))
    assert main(["verify", "thm-1.1", "--n-max", "5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "internal error: thm-1.1 routes disagree for 3*S(n) mod 2n+3 at n=1: "
        "primary True, oracle (False,)\n"
    )
    assert "while checking thm-1.1 at (1,)" in captured.err


@pytest.mark.parametrize("workers", [1, 2])
def test_cli_any_exception_in_a_check_exits_3(monkeypatch, capsys, workers):
    """An exception that is not a route disagreement is still an internal
    failure, never the counterexample exit 1.  From a worker it keeps the
    worker's traceback and its note.  On two workers n = 4 is the fourth of
    five one-point slices, which share 1, a forked worker, checks."""
    real = divisibility.valuation_verdict

    def broken(claim, n, shared=None):
        if n == 4:
            raise ValueError("kernel bug")
        return real(claim, n, shared)

    monkeypatch.setattr(divisibility, "valuation_verdict", broken)
    assert main(["verify", "thm-1.1", "--n-max", "5", "--workers", str(workers)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" in captured.err
    assert ", in broken\n" in captured.err
    assert "internal error: kernel bug" in captured.err
    # once: the traceback already ends with the notes
    assert captured.err.count("while checking thm-1.1 at (4,)") == 1


def test_cli_unpicklable_exception_in_a_worker_exits_3(monkeypatch, capsys):
    class Local(Exception):
        """A local class: pickle cannot find it by name."""

    parent = os.getpid()
    real = divisibility.valuation_verdict

    def broken(claim, n, shared=None):
        if n == 3 and os.getpid() != parent:  # only in a forked worker, never in the test process
            raise Local("kernel bug")
        return real(claim, n, shared)

    monkeypatch.setattr(divisibility, "valuation_verdict", broken)
    # five one-point slices on 3 workers: n = 3 is slice 2, share 2's, in a forked worker
    assert main(["verify", "thm-1.1", "--n-max", "5", "--workers", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Local in a worker: kernel bug" in captured.err
    assert ", in broken\n" in captured.err
    assert captured.err.count("while checking thm-1.1 at (3,)") == 1


def _faulty_at(monkeypatch, fault, at=300):
    """``valuation_verdict`` faulting at n = ``at``: "die" or "raise" only in
    a forked worker, never in the test process; "raise here" only in it."""
    parent = os.getpid()
    real = divisibility.valuation_verdict

    def faulty(claim, n, shared=None):
        if n == at and (os.getpid() == parent) == (fault == "raise here"):
            if fault == "die":
                os._exit(9)
            raise ValueError("kernel bug")
        return real(claim, n, shared)

    monkeypatch.setattr(divisibility, "valuation_verdict", faulty)


def test_cli_dead_pool_worker_exits_3(monkeypatch, capsys):
    _faulty_at(monkeypatch, "die")
    assert main(["verify", "thm-1.1", "--n-max", "400", "--workers", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal error: a worker process died" in captured.err
    # a worker sends its slices in order, so the parent names the one it died in
    notes = re.findall(
        r"while checking (\S+): a worker process died \(exit code 9\) "
        r"with grid indices \[(\d+), (\d+)\) in flight",
        captured.err,
    )
    assert len(notes) == 1
    claim_id, lo, hi = notes[0]
    assert claim_id == "thm-1.1"
    assert int(lo) <= 299 < int(hi)  # n = 300 is grid index 299
    assert int(hi) - int(lo) <= -(-400 // (2 * runner.SLICES_PER_WORKER))  # one slice step


def _interrupted_after_one_slice(report, outcomes):
    next(iter(outcomes))
    raise KeyboardInterrupt


@pytest.mark.parametrize(
    "fault, raises",
    [
        (None, None),
        ("raise", ValueError),
        ("raise here", ValueError),
        ("die", InternalCheckError),
        ("interrupt", KeyboardInterrupt),
    ],
    ids=["pass", "raise", "raise-here", "die", "interrupt"],
)
def test_no_worker_outlives_its_run(monkeypatch, fault, raises):
    """Every forked worker is reaped, whether the run passes, a check
    raises in a forked worker or in this process, a worker dies or the
    parent is interrupted mid-merge."""
    if fault == "interrupt":
        monkeypatch.setattr(runner, "_merge", _interrupted_after_one_slice)
    elif fault == "raise here":  # 16 slices of 25: n = 260 is in slice 10, share 0's
        _faulty_at(monkeypatch, fault, 260)
    elif fault:
        _faulty_at(monkeypatch, fault)
    if raises is None:
        assert run_claim("thm-1.1", {"n": 400}, workers=2).checked == 400
    else:
        with pytest.raises(raises) as info:
            run_claim("thm-1.1", {"n": 400}, workers=2)
        if raises is ValueError:  # only a forked worker's exception comes with its stack as text
            forked = isinstance(info.value.__cause__, runner._WorkerTraceback)
            assert forked == (fault == "raise")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _counted_forks(monkeypatch):
    """The pids that called ``os.fork`` in this run; every fork goes ahead."""
    forks, real = [], os.fork
    monkeypatch.setattr(runner.os, "fork", lambda: forks.append(os.getpid()) or real())
    return forks


@pytest.mark.parametrize("workers", [1, 2, 3, 7])
def test_w_workers_fork_w_minus_1_processes(monkeypatch, workers):
    """This process checks share 0 itself; thm-7.2 at n <= 20 has 20 slices,
    so every share gets one, and 4 counterexamples to merge in order."""
    want = emit_report(run_claim("thm-7.2", {"n": 20}, workers=1), "json")
    forks = _counted_forks(monkeypatch)
    got = emit_report(run_claim("thm-7.2", {"n": 20}, workers=workers), "json")
    assert forks == [os.getpid()] * (workers - 1)
    assert got == want


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for claim_id in EXPECTED_IDS:
        assert claim_id in out


def test_python_dash_m_runs_the_cli(capsys):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "factratio", "list"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert main(["list"]) == 0
    assert proc.stdout == capsys.readouterr().out


def test_cli_list_unknown_kind_is_usage_error(capsys):
    assert main(["list", "--kind", "nonexistent"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown kind 'nonexistent'" in captured.err
    assert all(kind in captured.err for kind in KINDS)


def test_cli_landau(capsys):
    assert main(["landau", "--num", "6,1", "--den", "3,2,2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["minimum"] == 0
    assert payload["integral_for_all_n"] is True

    assert main(["landau", "--num", "5,1", "--den", "3,3", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["minimum"] == -1
    assert {"x": "2/3", "value": -1} in payload["witnesses"]


def test_cli_landau_bad_input(capsys):
    assert main(["landau", "--num", "6,x", "--den", "3,2,2"]) == 2
    assert main(["landau", "--num", "6,1", "--den", "3,2"]) == 2


def test_cli_qpoly_coeffs(capsys):
    assert main(["qpoly", "--family", "wz", "--n", "1", "--emit", "coeffs"]) == 0
    coeffs = json.loads(capsys.readouterr().out)
    assert coeffs == ["1", "1", "3", "3", "5", "4", "5", "3", "3", "1", "1"]


def test_cli_qpoly_exponents_and_summary(capsys):
    assert main(["qpoly", "--family", "q-catalan", "--n", "2", "--emit", "exponents"]) == 0
    assert json.loads(capsys.readouterr().out) == {"4": 1}
    assert main(["qpoly", "--family", "wz", "--n", "2"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["reciprocal"] is True and summary["degree"] == 40


def test_cli_qpoly_unknown_family(capsys):
    assert main(["qpoly", "--family", "nope", "--n", "1"]) == 2


def test_cli_qpoly_domain(capsys):
    assert main(["qpoly", "--family", "thm-7.2-4", "--n", "1"]) == 2


@pytest.fixture
def started(monkeypatch):
    """One entry per worker process a run tried to fork; every fork is refused."""
    forks = []

    def no_fork():
        forks.append("fork")
        raise OSError("no worker process in this test")

    monkeypatch.setattr(runner.os, "fork", no_fork)
    return forks


def test_worker_count_above_the_cap_starts_no_process(capsys, started):
    with pytest.raises(UsageError):
        run_claim("thm-1.1", {"n": 50}, workers=10**6)
    assert main(["verify", "thm-1.1", "--n-max", "50", "--workers", str(10**6)]) == 2
    assert "workers" in capsys.readouterr().err
    assert started == []


@pytest.mark.parametrize("workers", [0, -3])
def test_worker_count_below_one_is_usage_error(capsys, started, workers):
    with pytest.raises(UsageError, match="at least 1"):
        run_claim("thm-1.1", {"n": 50}, workers=workers)
    assert main(["verify", "thm-1.1", "--n-max", "50", "--workers", str(workers)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"workers={workers} must be at least 1" in captured.err
    assert started == []


def test_default_is_one_worker_whatever_the_environment(monkeypatch, capsys, started):
    monkeypatch.setenv("FACTRATIO_WORKERS", "4")
    assert run_claim("thm-1.1", {"n": 50}).failed == 0
    assert main(["verify", "thm-1.1", "--n-max", "50"]) == 0
    capsys.readouterr()
    assert started == []
    with pytest.raises(OSError, match="no worker process"):  # the fixture sees a fork
        run_claim("thm-1.1", {"n": 50}, workers=2)
    assert started == ["fork"]


def test_one_worker_verify_imports_no_pickle_or_traceback():
    """Pickles and worker stacks belong to the fork path only."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = (
        "import sys\n"
        "from factratio.cli import main\n"
        "status = main(['verify', 'thm-1.1', '--n-max', '60', '--out', sys.argv[1]])\n"
        "print(status, 'pickle' in sys.modules, 'traceback' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, os.devnull], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 False False\n"


def test_no_module_reads_the_environment():
    """Every setting comes from an argument: no module reads os.environ or os.getenv."""
    package = Path(factratio.__file__).resolve().parent
    reads = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                reads.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = {alias.name for alias in node.names}
                if names & {"environ", "getenv"}:
                    reads.append(f"{path.name}:{node.lineno}")
    assert reads == []


def test_no_module_level_alias():
    """One name per object: no module binds a second name to an existing one (X = Y)."""
    package = Path(factratio.__file__).resolve().parent
    aliases = []
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(
                node.value, (ast.Name, ast.Attribute)
            ):
                aliases.append(f"{path.name}:{node.lineno}")
    assert aliases == []


# Public definitions whose only callers are tests, each kept as a reference.
TEST_REFERENCES = {
    "eval_ratio": "exact Fraction value of a ratio; the oracle for valuations and q = 1 values",
    "digit_sum": "base-p digit sum in Legendre's (n - s_p(n))/(p - 1) cross-check",
    "qbinomial": "direct Gaussian binomial that the cyclotomic expansion is checked against",
    "qbinomial_spec": "[n, k]_q as a spec, to feed the Gaussian binomials through expand",
}


def _names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_public_definition_has_a_caller():
    """Each public top-level function or class, and each public method of
    the package's classes, is used in the package outside its own
    definition (re-exports do not count), or is a named test reference."""
    package = Path(factratio.__file__).resolve().parent
    trees = [ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))]
    used = Counter(name for tree in trees for name in _names(tree))
    definitions = []
    for tree in trees:
        for node in tree.body:
            methods = node.body if isinstance(node, ast.ClassDef) else []
            definitions += [
                sub
                for sub in (node, *methods)
                if isinstance(sub, (ast.FunctionDef, ast.ClassDef)) and not sub.name.startswith("_")
            ]
    defined = {sub.name for sub in definitions}
    assert set(TEST_REFERENCES) <= defined
    # a use counts only outside the definition's own body
    uncalled = {sub.name for sub in definitions if used[sub.name] == Counter(_names(sub))[sub.name]}
    assert sorted(uncalled - set(TEST_REFERENCES)) == []


def test_readme_library_surface_is_exported():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Library surface", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    (statement,) = ast.parse(block).body
    assert isinstance(statement, ast.ImportFrom) and statement.module == "factratio"
    names = [alias.name for alias in statement.names]
    assert len(names) > 20
    assert [name for name in names if not hasattr(factratio, name)] == []


@pytest.mark.parametrize(
    "claim_id, point, alter",
    [
        # not reciprocal, though unimodal and non-negative
        ("conj-7.4-unimodal", (3,), lambda poly: DensePoly((1, 2))),
        ("thm-6.1", (1, 1, 1, 1), lambda poly: DensePoly((1, 2))),
        # reciprocal and non-negative, but the q = 1 value is doubled
        ("cor-6.2", (1, 1, 1, 1), lambda poly: poly * DensePoly((2,))),
        # one family's polynomial of the shared expansion turns negative
        ("conj-7.3", (3,), lambda polys: polys[:2] + [polys[2] * DensePoly((-1,))] + polys[3:]),
        (
            "conj-7.5",
            (2,),
            lambda polys: [
                polys[0],
                DensePoly([c - 10**6 * (i == 2) for i, c in enumerate(polys[1].coeffs)]),
            ],
        ),
    ],
)
def test_expand_only_failures_are_rechecked_by_division(monkeypatch, claim_id, point, alter):
    """A counting-route expansion that the division route does not reproduce
    raises instead of being reported as a counterexample."""
    # the positivity sweeps over several families expand them together
    kernel = "expand_many" if claim_id in ("conj-7.3", "conj-7.5") else "expand"
    real = getattr(registry, kernel)
    monkeypatch.setattr(registry, kernel, lambda arg: alter(real(arg)))
    with pytest.raises(InternalCheckError):
        check_at(claim_id, point)


def test_product_route_disagreement_raises(monkeypatch):
    """Unequal displayed forms of thm-1.4 are a route disagreement, not a
    counterexample."""
    real_forms = divisibility.product_forms

    def skewed(a, b, m, n):
        first, second = real_forms(a, b, m, n)
        return first, second + 1

    monkeypatch.setattr(divisibility, "product_forms", skewed)
    with pytest.raises(InternalCheckError):
        check_at("thm-1.4", (1, 1, 1, 1))


def _skewed_identity_run(monkeypatch, at, skew):
    """``floors.identity_run`` with its (checks, failures) at n = ``at``
    passed through ``skew``."""
    real = floors.identity_run

    def skewed(ident, lo, hi):
        counts, failing = real(ident, lo, hi)
        if lo <= at < hi:
            counts, failing = skew(ident, counts, failing)
        return counts, failing

    monkeypatch.setattr(floors, "identity_run", skewed)


def test_cli_false_floor_failure_outside_the_box_exits_3(monkeypatch, capsys):
    """A failure that only the identity run reports is a route disagreement:
    the divisor sweep re-derives every failing n, inside the box or not."""
    at = 150
    assert at > CLAIMS["lem-2.2"].box["n"]
    _skewed_identity_run(
        monkeypatch, at, lambda ident, counts, failing: (counts, sorted([*failing, (at, 303)]))
    )
    assert main(["verify", "lem-2.2", "--n-max", "200"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "internal error: lem-2.2 routes disagree at n=150: primary [(2, [303])], oracle ([(2, [])],)\n"
    )
    # 200 points on one worker make slices of 25; n = 150 ends the sixth
    assert captured.err.count("while checking lem-2.2 at n in [126, 151)") == 1


def test_floor_run_count_off_in_the_box_raises(monkeypatch):
    def one_lost(ident, counts, failing):
        counts = counts.copy()
        counts[50] -= 1
        return counts, failing

    _skewed_identity_run(monkeypatch, 50, one_lost)
    message = "lem-2.2 routes disagree at n=50: primary [(0, [])], oracle ([(1, [])],)"
    with pytest.raises(InternalCheckError, match=re.escape(message)):
        run_claim("lem-2.2", {"n": 60}, workers=1)


def _shift_run_at(real, at):
    """ratio_ord2_run with the value at n = at moved up by one."""
    return lambda spec, lo, hi: [v + (n == at) for n, v in zip(range(lo, hi), real(spec, lo, hi))]


@pytest.mark.parametrize("at", [1, 64, 100, 1000])
def test_shifted_parity_run_raises_in_the_box(monkeypatch, at):
    # outside the box (n = 1000) the shift makes a failing verdict, which
    # both oracles re-derive
    monkeypatch.setattr(registry, "ratio_ord2_run", _shift_run_at(registry.ratio_ord2_run, at))
    with pytest.raises(InternalCheckError, match=f"parity-power-of-2 routes disagree at n={at}:"):
        run_claim("parity-power-of-2", {"n": 1200}, workers=1)


def test_parity_big_integer_route_alone_catches_a_shift(monkeypatch, capsys):
    # the digit-sum run and the per-n Legendre sums agree on the wrong value;
    # the 2-adic order of S(n) itself still disagrees
    at = 37
    monkeypatch.setattr(registry, "ratio_ord2_run", _shift_run_at(registry.ratio_ord2_run, at))
    real = registry.ratio_ord
    monkeypatch.setattr(registry, "ratio_ord", lambda p, spec, n: real(p, spec, n) + (n == at))
    assert check_at("parity-power-of-2", (at + 1,)) == (1, [])
    assert main(["verify", "parity-power-of-2", "--n-max", "50"]) == 3
    err = capsys.readouterr().err
    # the digit-sum run's value, then the Legendre sums and the 2-adic order of S(n)
    assert err.startswith(
        f"internal error: parity-power-of-2 routes disagree at n={at}: primary 3, oracle (3, 2)\n"
    )


def test_parity_sweep_runs_the_per_n_route_only_in_the_box(monkeypatch):
    calls = []
    real = valuation.legendre_ord
    monkeypatch.setattr(valuation, "legendre_ord", lambda p, v: calls.append(p) or real(p, v))
    report = run_claim("parity-power-of-2", {"n": 2000}, workers=1)
    assert (report.checked, report.failed) == (2000, 0)
    assert calls == [2] * 5 * CLAIMS["parity-power-of-2"].box["n"]


def test_parity_failure_fields(monkeypatch):
    # outside the box a failing verdict that every route confirms reports
    # the run's order and the digit sum
    assert registry.ratio_ord(2, divisibility.S_RATIO, 1000) == 5
    shift_parity(monkeypatch, lambda n: n == 1000)
    report = run_claim("parity-power-of-2", {"n": 1200}, workers=1)
    assert report.counterexamples == [{"n": 1000, "ord2": 6, "digit_sum": 6}]


DUAL_ROUTE_IDS = {
    "thm-1.1",
    "thm-1.2",
    "thm-1.3",
    "thm-1.4",
    "cor-1.5",
    "lem-2.2",
    "lem-2.3",
    "lem-5.1",
    "lem-5.2",
    "parity-power-of-2",
}


def test_oracle_boxes_are_claim_data(monkeypatch):
    """Exactly the claims whose checker compares two routes carry a box.  A
    box bounds some of its record's parameters, always the last one, inside
    the default ranges, so every default sweep runs its oracle."""
    compared = set()
    real = registry._two_routes
    monkeypatch.setattr(
        registry,
        "_two_routes",
        lambda claim, *args, **kwargs: compared.add(claim.id) or real(claim, *args, **kwargs),
    )
    for claim_id, record in CLAIMS.items():
        ranges = {p.name: p.minimum + 1 for p in record.params}
        check_point(claim_id, ranges, 0, grid_size(record, ranges))
    assert compared == {claim_id for claim_id, record in CLAIMS.items() if record.box}
    assert compared == DUAL_ROUTE_IDS
    for claim_id in DUAL_ROUTE_IDS:
        params = {p.name: p for p in CLAIMS[claim_id].params}
        box = CLAIMS[claim_id].box
        assert set(box) <= set(params) and CLAIMS[claim_id].params[-1].name in box, claim_id
        for name, bound in box.items():
            assert params[name].minimum <= bound <= params[name].default, (claim_id, name)


# cor-1.5's parameters (m, n) with a box on both
BOXED = dataclasses.replace(CLAIMS["cor-1.5"], box={"m": 2, "n": 10})


@pytest.mark.parametrize(
    "m, lo, hi, rederived",
    [
        (1, 5, 20, [5, 6, 7, 8, 9, 10, 12, 15]),  # across the box edge
        (2, 2, 9, [2, 3, 4, 5, 6, 7, 8]),  # wholly inside the box
        (1, 11, 30, [12, 15]),  # wholly outside the box: the failing n only
        (3, 1, 20, [7, 12, 15]),  # m outside the box: at n <= 10 too, the failing n only
    ],
)
def test_two_routes_rederives_the_box_and_the_failing_n(m, lo, hi, rederived):
    failing = {7, 12, 15}
    holds = [n not in failing for n in range(lo, hi)]
    calls = []

    def oracle(n):
        calls.append(n)
        return (n not in failing, n not in failing), f"data at {n}"

    got = registry._two_routes(BOXED, (m,), lo, holds, oracle)
    assert calls == rederived  # box and failing n, ascending, each once
    assert got == [(n, (False, False), f"data at {n}") for n in range(lo, hi) if n in failing]


def test_two_routes_raises_on_a_disagreement():
    holds = [True] * 20  # n = 1 .. 20
    wrong_at_8 = lambda n: ((n != 8,), None)
    message = "cor-1.5 routes disagree at m=1, n=8: primary True, oracle (False,)"
    with pytest.raises(InternalCheckError, match=re.escape(message)):
        registry._two_routes(BOXED, (1,), 1, holds, wrong_at_8)
    # outside the box a passing n is not re-derived
    assert registry._two_routes(BOXED, (3,), 1, holds, wrong_at_8) == []

    # a failing n outside the box, with the primary's own values and a part
    holds[14] = False  # n = 15
    readings = lambda n: ((10 * n, 10 * n + (n == 15)), None)
    message = "cor-1.5 routes disagree for one part at m=3, n=15: primary 150, oracle (150, 151)"
    with pytest.raises(InternalCheckError, match=re.escape(message)):
        registry._two_routes(BOXED, (3,), 1, holds, readings, lambda n: 10 * n, "one part")
