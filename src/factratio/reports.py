"""Run reports and their machine-readable serializations.

JSON and CSV output is bit-stable for fixed inputs: keys are sorted,
counterexample witness integers are rendered as decimal strings, and the
wall time is deliberately excluded (it appears in the text format only),
so reruns with different worker counts produce identical bytes.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

from .errors import UsageError

FORMATS = ("json", "csv", "text")


@dataclass
class RunReport:
    claim_id: str
    kind: str
    description: str
    anchor: str
    conjecture: bool
    ranges: dict[str, int]
    checked: int = 0
    passed: int = 0
    failed: int = 0
    counterexamples: list[dict] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.failed == 0


def _json_obj(report: RunReport) -> dict:
    return {
        "claim": report.claim_id,
        "kind": report.kind,
        "description": report.description,
        "anchor": report.anchor,
        "conjecture": report.conjecture,
        "ranges": {k: report.ranges[k] for k in sorted(report.ranges)},
        "checked": report.checked,
        "passed": report.passed,
        "failed": report.failed,
        "counterexamples": [
            {k: str(v) for k, v in sorted(ce.items())}
            for ce in report.counterexamples
        ],
    }


def emit_report(report: RunReport, fmt: str) -> bytes:
    if fmt == "json":
        text = json.dumps(_json_obj(report), sort_keys=True, indent=2) + "\n"
        return text.encode()
    if fmt == "csv":
        keys = sorted({k for ce in report.counterexamples for k in ce})
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["claim"] + keys)
        for ce in report.counterexamples:
            writer.writerow([report.claim_id] + [str(ce.get(k, "")) for k in keys])
        return buf.getvalue().encode()
    if fmt == "text":
        lines = [
            f"claim:       {report.claim_id} [{report.kind}]"
            + (" (conjecture)" if report.conjecture else ""),
            f"statement:   {report.anchor}",
            f"description: {report.description}",
            f"ranges:      {report.ranges}",
            f"checked:     {report.checked}   passed: {report.passed}   failed: {report.failed}",
            f"wall time:   {report.wall_time_s:.2f}s",
            f"status:      {'PASS' if report.ok else 'FAIL'}",
        ]
        shown = report.counterexamples[:20]
        for ce in shown:
            lines.append("  counterexample: " + ", ".join(f"{k}={v}" for k, v in sorted(ce.items())))
        if len(report.counterexamples) > len(shown):
            lines.append(f"  ... and {len(report.counterexamples) - len(shown)} more")
        return ("\n".join(lines) + "\n").encode()
    raise UsageError(f"unknown format {fmt!r}; expected one of {', '.join(FORMATS)}")
