"""Sweep driver: runs a claim over its parameter ranges.

The lexicographic index range [0, grid size) of the parameter grid is cut
into contiguous slices.  A worker hands each slice's task (claim id,
ranges, lo, hi) as it is to one ``check_point`` call, which resolves the
checker from the registry and returns the slice's summed (checked,
failures); only that result crosses the process boundary.  The checker
takes its windows from the slice bounds: single points, which it builds
with ``points_for``, or runs of the last parameter, which need no point at
all.  Work that a run's points share lives in the checker (see
``registry``), and a failing window is named by the checker's note.

A run on W workers is W processes: shares 1 to W - 1 are forked (POSIX
only) before the first slice, and share k checks slices k, k + W,
k + 2W, ...  A forked share pickles each outcome to its own pipe as soon as
it has it; this process checks share 0 itself, between its reads of the
other pipes, so it takes every result in slice order and the report
content never depends on the worker count.  One worker forks nothing.  A
full pipe stops its worker, so memory is bounded by the slices in flight,
not by the grid.  An exception in a check is re-raised here with its
notes, caused by the forked worker's traceback as text where it came from
one.  A worker's results come in slice order, so one that dies is named
with the exact slice it held.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Iterable, Iterator, NoReturn

from .registry import ClaimRecord, check_point, get_claim, grid_size, resolve_ranges
from .errors import InternalCheckError, UsageError
from .reports import RunReport

MAX_WORKERS = 64  # hard cap: a run forks all but one of its workers before the first slice

SLICE_POINTS = 4096  # largest slice, in grid points
SLICES_PER_WORKER = 8  # slices per worker on grids too small to fill SLICE_POINTS

_SIGKILL = 9  # fixed by POSIX; importing the signal module takes 2 ms

Task = tuple[str, dict[str, int], int, int]


class _WorkerTraceback(Exception):
    """A worker's stack as text, the cause of its exception re-raised here."""


def _sendable(exc: Exception) -> tuple[Exception, str]:
    """``exc`` and its stack as text, ready to pickle to the parent.

    An exception that does not survive a pickle round trip is replaced by
    a RuntimeError that keeps its type name, message and notes.
    """
    import pickle
    import traceback

    frames = traceback.format_tb(exc.__traceback__)
    stack = "".join(["\nTraceback (most recent call last):\n", *frames])
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        stand_in = RuntimeError(f"unpicklable {type(exc).__qualname__} in a worker: {exc}")
        for note in getattr(exc, "__notes__", ()):
            stand_in.add_note(note)
        exc = stand_in
    return exc, stack


def _slices(
    task: Callable[[int], Task], bounds: range, workers: int
) -> Iterator[tuple[int, list[dict]]]:
    """The results of ``check_point(*task(lo))`` for ``lo`` in ``bounds``, in
    order: share 0 checked here, the other ``workers - 1`` shares each in a
    forked process.  Closing the generator, as its end or an exception
    does, kills and reaps every forked worker."""
    pipes = []  # read ends, one per forked share
    pids: list[int | None] = []  # None once reaped
    try:
        for k in range(1, workers):
            import pickle  # only a forked share sends pickles

            r, w = os.pipe()
            pipes.append(open(r, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _worker(task, bounds[k::workers], w, pipes)
                pids.append(pid)
            finally:
                os.close(w)  # the worker's end; the worker never gets here
        for i, lo in enumerate(bounds):
            k = i % workers - 1  # into pipes and pids; -1 is share 0, checked here
            if k < 0:
                yield check_point(*task(lo))
                continue
            try:
                ok, value = pickle.load(pipes[k])
            except (EOFError, pickle.UnpicklingError):
                _, status = os.waitpid(pids[k], 0)
                pids[k] = None
                claim_id, _, lo, hi = task(lo)
                exc = InternalCheckError("a worker process died")
                exc.add_note(
                    f"while checking {claim_id}: a worker process died (exit code "
                    f"{os.waitstatus_to_exitcode(status)}) with grid indices [{lo}, {hi}) in flight"
                )
                raise exc from None
            if not ok:
                exc, stack = value
                raise exc from _WorkerTraceback(stack)
            yield value
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            if pid is not None:
                os.kill(pid, _SIGKILL)
                os.waitpid(pid, 0)


def _worker(task: Callable[[int], Task], los: range, fd: int, inherited: list) -> NoReturn:
    """The forked side of ``_slices``: check the slices at ``los`` and
    pickle each outcome, ``(True, result)`` or ``(False, (exception,
    stack))``, to ``fd``; stop after the first exception.  It ends in
    ``os._exit``, so it never returns into the caller's stack or flushes
    the parent's stdio buffers."""
    status = 1
    try:
        import pickle

        for pipe in inherited:  # read ends are the parent's: a write to a dead parent fails
            pipe.close()
        with open(fd, "wb") as out:
            for lo in los:
                try:
                    outcome = True, check_point(*task(lo))
                except Exception as exc:
                    outcome = False, _sendable(exc)
                pickle.dump(outcome, out)
                out.flush()
                if not outcome[0]:
                    break
        status = 0
    finally:
        os._exit(status)


def run_claim(claim_id: str, ranges: dict[str, int] | None = None, workers: int = 1) -> RunReport:
    claim: ClaimRecord = get_claim(claim_id)
    resolved = resolve_ranges(claim, ranges)
    if workers < 1:
        raise UsageError(f"workers={workers} must be at least 1")
    if workers > MAX_WORKERS:
        raise UsageError(f"workers={workers} exceeds the hard cap {MAX_WORKERS}")

    size = grid_size(claim, resolved)
    step = max(1, min(SLICE_POINTS, -(-size // (workers * SLICES_PER_WORKER))))
    bounds = range(0, size, step)

    def task(lo: int) -> Task:
        return claim.id, resolved, lo, min(lo + step, size)

    start = time.perf_counter()
    report = RunReport(
        claim_id=claim.id,
        kind=claim.kind,
        description=claim.description,
        anchor=claim.anchor,
        conjecture=claim.conjecture,
        ranges=resolved,
    )
    outcomes = _slices(task, bounds, max(1, min(workers, len(bounds))))
    try:
        _merge(report, outcomes)
    finally:
        outcomes.close()
    report.wall_time_s = time.perf_counter() - start
    report.passed = report.checked - report.failed
    return report


def _merge(report: RunReport, outcomes: Iterable[tuple[int, list[dict]]]) -> None:
    for checked, failures in outcomes:
        report.checked += checked
        report.failed += len(failures)
        report.counterexamples.extend(failures)
