"""Every target of the perfbench tracer names a function the package still has.

The tracer wraps each target when ``perfbench/run.py --trace 1`` runs and
reports the ones it cannot find; this test catches a deleted or renamed
target in the test suite instead.  It reads the tracer's source and writes
nothing under ``perfbench/``.
"""

import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_targets():
    namespace = {"__name__": "tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace["TARGETS"]


def test_every_tracer_target_resolves():
    targets = _tracer_targets()
    assert targets
    missing = []
    for module_name, paths, _, _ in targets.values():
        module = importlib.import_module(f"factratio.{module_name}")
        for path in paths:
            # resolved as the tracer's install does: a module global or a class attribute
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or not callable(vars(owner).get(attr)):
                missing.append(f"{module_name}.{path}")
    assert missing == []
