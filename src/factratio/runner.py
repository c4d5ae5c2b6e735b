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

One worker checks the slices in this process.  More workers are forked
(POSIX only) before the first slice: worker k of W checks slices k, k + W,
k + 2W, ... and pickles each outcome to its own pipe as soon as it has it.
The parent reads slice i from worker i % W and merges the results in slice
order, so the report content never depends on the worker count.  A full
pipe stops its worker, so memory is bounded by the slices in flight, not
by the grid.  An exception in a check is re-raised in the parent with its
notes, caused by the worker's traceback as text.  A worker's results come
in slice order, so one that dies is named with the exact slice it held.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Iterable, Iterator, NoReturn

from .registry import ClaimRecord, check_point, get_claim, grid_size, resolve_ranges
from .errors import InternalCheckError, UsageError
from .reports import RunReport

MAX_WORKERS = 64  # hard cap: a run forks all its workers before the first slice

SLICE_POINTS = 4096  # largest slice, in grid points
SLICES_PER_WORKER = 8  # slices per worker on grids too small to fill SLICE_POINTS

_SIGKILL = 9  # fixed by POSIX; importing the signal module takes 2 ms

Task = tuple[str, dict[str, int], int, int]


def _eval_slice(task: Task) -> tuple[int, list[dict]]:
    """Check one index slice; the one path for all worker counts."""
    return check_point(*task)


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


def _forked(
    task: Callable[[int], Task], bounds: range, workers: int
) -> Iterator[tuple[int, list[dict]]]:
    """The results of ``_eval_slice(task(lo))`` for ``lo`` in ``bounds``, in
    order, from ``workers`` forked processes.  Closing the generator, as
    its end or an exception does, kills and reaps every worker."""
    import pickle

    pipes = []  # read ends, one per worker
    pids: list[int | None] = []  # None once reaped
    try:
        for k in range(workers):
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
            k = i % workers
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
    """The forked side of ``_forked``: check the slices at ``los`` and
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
                    outcome = True, _eval_slice(task(lo))
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
    if workers == 1 or len(bounds) < 2:
        _merge(report, map(_eval_slice, map(task, bounds)))
    else:
        outcomes = _forked(task, bounds, min(workers, len(bounds)))
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
