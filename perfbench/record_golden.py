"""Record the golden verdict of every benchmark invocation.

    python3 perfbench/record_golden.py

Run from the root of a checkout of the commit whose reports are the
reference.  For each claim of each workload it runs the verify invocation
once, with the workload's worker count, and writes its ranges, exit code
and the sha256 of its `--format json` report to golden.json.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from workloads import GOLDEN_PATH, WORKLOADS


def main() -> None:
    root = Path.cwd()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    golden = {}
    for workload in WORKLOADS.values():
        for inv in workload.invocations:
            cmd = [sys.executable, "-m", "factratio.cli", *inv.argv(workload.workers)]
            proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, check=False)
            if proc.returncode not in (0, 1):
                sys.exit(f"{inv.claim}: exit {proc.returncode}: {proc.stderr.decode()}")
            golden[inv.claim] = {
                "ranges": [list(r) for r in inv.ranges],
                "exit": proc.returncode,
                "sha256": hashlib.sha256(proc.stdout).hexdigest(),
            }
            print(inv.claim, golden[inv.claim]["exit"], golden[inv.claim]["sha256"][:12])
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
