"""What a `factratio` process does at its edges, seen from outside.

Each test starts `python -m factratio` (or a small driver of `cli.main`) in
a fresh interpreter: a closed stdout, the exit-time heap freeze, and the
report bytes as they stand when the process has ended.
"""

import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from factratio.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "perfbench" / "golden.json").read_text())
FLAGS = {"a": "--a-max", "b": "--b-max", "m": "--m-max", "n": "--n-max"}


def _env() -> dict[str, str]:
    """The package on the path and stdout block-buffered, as a user's pipe is."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    env.pop("PYTHONUNBUFFERED", None)
    return env


@pytest.mark.parametrize(
    "argv",
    [
        ["list"],
        ["verify", "thm-1.1", "--n-max", "50", "--format", "json"],
        ["--help"],
        ["verify", "--help"],
    ],
    ids=["list", "verify", "help", "verify-help"],
)
def test_closed_stdout_is_a_usage_error_not_a_crash(argv):
    """A pipe whose reader has gone: exit 2, one stderr line, no traceback."""
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child starts, so the first write fails
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "factratio", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=_env(),
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: cannot write to stdout: Broken pipe\n"  # no traceback


def test_exit_hook_freezes_the_heap_after_main():
    """An atexit probe registered before `main` runs after `main`'s own hook
    (last in, first out), so it must find the heap frozen."""
    code = (
        "import atexit, gc, os\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
        "from factratio.cli import main\n"
        "print('status', main(['verify', 'thm-1.1', '--n-max', '5', '--out', os.devnull]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_env(), timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "status 0\nfrozen True\n"


def test_main_leaves_the_collector_as_it_found_it(capsys):
    """The freeze waits for interpreter exit: an in-process caller keeps a
    normal collector."""
    frozen = gc.get_freeze_count()
    assert main(["verify", "thm-1.1", "--n-max", "5"]) == 0
    assert main(["list"]) == 0
    capsys.readouterr()
    assert gc.get_freeze_count() == frozen
    assert gc.isenabled()


@pytest.mark.parametrize(
    "claim_id, workers", [("thm-1.1", 1), ("thm-7.2", 1), ("cor-1.5", 2)]
)
def test_report_bytes_at_process_end_match_golden(claim_id, workers):
    """The golden gate runs in-process; this reads what the process wrote
    by the time it exited, and its exit status."""
    entry = GOLDEN[claim_id]
    flags = [arg for name, value in entry["ranges"] for arg in (FLAGS[name], str(value))]
    argv = ["verify", claim_id, *flags, "--workers", str(workers), "--format", "json"]
    proc = subprocess.run(
        [sys.executable, "-m", "factratio", *argv], capture_output=True, env=_env(), timeout=60
    )
    assert proc.returncode == entry["exit"], proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == entry["sha256"]


def test_argparse_exits_return_their_status(capsys):
    """With a live stdout, `--help` still exits 0 and an argparse usage error
    still exits 2 with argparse's own message."""
    assert main(["verify", "--help"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: factratio verify") and err == ""
    assert main(["verify", "thm-1.1", "--bogus"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.endswith("error: unrecognized arguments: --bogus\n")
