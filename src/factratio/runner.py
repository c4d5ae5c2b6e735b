"""Sweep driver: runs a claim over its parameter ranges.

The lexicographic index range [0, grid size) of the parameter grid is cut
into contiguous slices.  Only (claim id, ranges, lo, hi) crosses the
process boundary: a worker rebuilds the slice's points with
``points_for``, resolves the checker from its own imported registry, and
returns one summed (checked, failures) per slice.  Each slice carries one
memo dict, passed to every ``check_point`` call of the slice: checkers
that take it keep there the work that many points of the slice reuse
(thm-1.4 its binomials per (a, b, m) and per (a, b, n), cor-1.5 its orders
of m C(2m,m), the parity sweep its current run of 2-adic orders), and the
memo is dropped with the slice.  The parent keeps a
few slices per worker in flight and merges the results in slice order, so
the report content never depends on the worker count, and memory is
bounded by the slices in flight, not by the grid.
"""

from __future__ import annotations

import concurrent.futures
import time
from collections import deque
from typing import Iterable, Iterator

from .registry import ClaimRecord, check_point, get_claim, grid_size, points_for, resolve_ranges
from .errors import UsageError
from .reports import RunReport

MAX_WORKERS = 64  # hard cap: a pool forks all its workers at the first submit

SLICE_POINTS = 4096  # largest slice, in grid points
SLICES_PER_WORKER = 8  # slices per worker on grids too small to fill SLICE_POINTS
IN_FLIGHT_PER_WORKER = 4  # submitted but unmerged slices per worker

Task = tuple[str, dict[str, int], int, int]


def _eval_slice(task: Task) -> tuple[int, list[dict]]:
    """Check every point of one index slice; the one path for all worker counts."""
    claim_id, ranges, lo, hi = task
    checked = 0
    failures: list[dict] = []
    shared: dict = {}  # the slice's memo, see check_point
    for point in points_for(get_claim(claim_id), ranges, lo, hi):
        try:
            count, bad = check_point(claim_id, point, shared)
        except Exception as exc:
            exc.add_note(f"while checking {claim_id} at {point}")
            raise
        checked += count
        failures += bad
    return checked, failures


def _in_order(pool, tasks: Iterable[Task], depth: int) -> Iterator[tuple[int, list[dict]]]:
    """Results of ``_eval_slice`` in task order, with at most ``depth`` in flight."""
    pending: deque[concurrent.futures.Future] = deque()
    for task in tasks:
        pending.append(pool.submit(_eval_slice, task))
        if len(pending) >= depth:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


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
