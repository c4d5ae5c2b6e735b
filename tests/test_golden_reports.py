"""Report bytes of every claim, pinned against the benchmark's golden file.

`perfbench/golden.json` records, for each claim at the benchmark's fixed
ranges, the exit code and the sha256 of its `verify --format json` report.
This test reruns each sweep in-process on one worker and asserts both, so
a change that alters any verdict or any report byte fails here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from factratio import emit_report, run_claim

GOLDEN = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "golden.json").read_text()
)


@pytest.mark.parametrize("claim_id", sorted(GOLDEN))
def test_report_matches_golden(claim_id):
    entry = GOLDEN[claim_id]
    report = run_claim(claim_id, dict(entry["ranges"]), workers=1)
    digest = hashlib.sha256(emit_report(report, "json")).hexdigest()
    assert digest == entry["sha256"]
    assert (1 if report.failed > 0 else 0) == entry["exit"]
