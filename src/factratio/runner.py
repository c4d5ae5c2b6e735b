"""Sweep driver: runs a claim over its parameter ranges.

The lexicographic index range [0, grid size) of the parameter grid is cut
into contiguous slices.  Only (claim id, ranges, lo, hi) crosses the
process boundary: a worker hands that task as it is to one
``check_point`` call, which resolves the checker from its own imported
registry and returns the slice's summed (checked, failures).  The checker
takes its windows from the slice bounds: single points, which it builds
with ``points_for``, or runs of the last parameter, which need no point at
all.  Work that a run's points share lives in the checker (see
``registry``), and a failing window is named by the checker's note.  The
parent keeps a few slices per worker in flight and merges the results in
slice order, so the report content never depends on the worker count, and
memory is bounded by the slices in flight, not by the grid.  A dead worker
breaks the pool; the parent cannot tell which slice it held, so its note
names the claim and every grid index in flight.
"""

from __future__ import annotations

import concurrent.futures
import time
from collections import deque
from typing import Iterable, Iterator

from .registry import ClaimRecord, check_point, get_claim, grid_size, resolve_ranges
from .errors import UsageError
from .reports import RunReport

MAX_WORKERS = 64  # hard cap: a pool forks all its workers at the first submit

SLICE_POINTS = 4096  # largest slice, in grid points
SLICES_PER_WORKER = 8  # slices per worker on grids too small to fill SLICE_POINTS
IN_FLIGHT_PER_WORKER = 4  # submitted but unmerged slices per worker

Task = tuple[str, dict[str, int], int, int]


def _eval_slice(task: Task) -> tuple[int, list[dict]]:
    """Check one index slice; the one path for all worker counts."""
    return check_point(*task)


def _in_order(pool, tasks: Iterable[Task], depth: int) -> Iterator[tuple[int, list[dict]]]:
    """Results of ``_eval_slice`` in task order, with at most ``depth`` in flight."""
    pending: deque[tuple[Task, concurrent.futures.Future]] = deque()
    try:
        for task in tasks:
            pending.append((task, pool.submit(_eval_slice, task)))
            if len(pending) >= depth:
                yield pending[0][1].result()
                pending.popleft()
        while pending:
            yield pending[0][1].result()
            pending.popleft()
    except concurrent.futures.BrokenExecutor as exc:  # BrokenProcessPool
        if pending:
            claim_id, _, lo, _ = pending[0][0]
            exc.add_note(
                f"while checking {claim_id}: a worker process died with grid indices "
                f"[{lo}, {pending[-1][0][3]}) in flight"
            )
        raise


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
    tasks = ((claim.id, resolved, lo, min(lo + step, size)) for lo in bounds)

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
        _merge(report, map(_eval_slice, tasks))
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            _merge(report, _in_order(pool, tasks, workers * IN_FLIGHT_PER_WORKER))
    report.wall_time_s = time.perf_counter() - start
    report.passed = report.checked - report.failed
    return report


def _merge(report: RunReport, outcomes: Iterable[tuple[int, list[dict]]]) -> None:
    for checked, failures in outcomes:
        report.checked += checked
        report.failed += len(failures)
        report.counterexamples.extend(failures)
