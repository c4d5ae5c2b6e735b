"""The perfbench tracer still sees every kernel its workloads must reach.

The tracer wraps each target when ``perfbench/run.py --trace 1`` runs,
reports the ones it cannot find, and fails the run when a target that a
workload lists is never called.  These tests catch both in the test
suite instead: every target resolves, and each workload, run through
``perfbench/verify_child.py --trace`` on one worker, gives its golden exit
codes and report digests and fires every target that lists it.  They read
``perfbench/`` and write nothing there.
"""

import hashlib
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load(name: str):
    """One perfbench module, imported from its file as ``perfbench_<name>``."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load("tracer").TARGETS
WORKLOADS = _load("workloads")


def test_every_tracer_target_resolves():
    assert TARGETS
    missing = []
    for module_name, paths, _, _ in TARGETS.values():
        module = importlib.import_module(f"factratio.{module_name}")
        for path in paths:
            # resolved as the tracer's install does: a module global or a class attribute
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or not callable(vars(owner).get(attr)):
                missing.append(f"{module_name}.{path}")
    assert missing == []


def _traced(argv: list[str]) -> tuple[subprocess.CompletedProcess, dict]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "verify_child.py"), "--trace", *argv],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=300,
    )
    prefix = "perfbench-trace "
    lines = [line for line in proc.stderr.decode().splitlines() if line.startswith(prefix)]
    assert len(lines) == 1, proc.stderr.decode()[-2000:]
    return proc, json.loads(lines[0][len(prefix) :])


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_traced_workload_is_golden_and_fires_its_targets(name):
    golden = WORKLOADS.load_golden()
    calls = Counter()
    for inv in WORKLOADS.WORKLOADS[name].invocations:
        proc, trace = _traced(inv.argv(1))
        assert proc.returncode == golden[inv.claim]["exit"], inv.claim
        assert hashlib.sha256(proc.stdout).hexdigest() == golden[inv.claim]["sha256"], inv.claim
        assert trace["missing"] == []
        calls.update({prefix: stat[0] for prefix, stat in trace["stats"].items()})
    required = [prefix for prefix, target in TARGETS.items() if name in target[3]]
    assert required
    assert [prefix for prefix in required if not calls[prefix]] == []
