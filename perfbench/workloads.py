"""The benchmark's workloads: which `factratio verify` invocations each runs.

Every claim of the registry is in exactly one workload.  Ranges are fixed,
so each workload is an exhaustive, deterministic sweep; the run's seed only
shuffles the order of the invocations.  Why each workload exists is in
METRICS.md.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import prod
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

_FLAGS = {"a": "--a-max", "b": "--b-max", "m": "--m-max", "n": "--n-max"}


@dataclass(frozen=True)
class Invocation:
    claim: str
    ranges: tuple[tuple[str, int], ...]  # (parameter, max) pairs passed as flags
    points: int  # parameter points the sweep checks

    def argv(self, workers: int) -> list[str]:
        flags = [arg for name, value in self.ranges for arg in (_FLAGS[name], str(value))]
        return ["verify", self.claim, *flags, "--workers", str(workers), "--format", "json"]


def n_sweep(claim: str, n_max: int, n_min: int = 1) -> Invocation:
    return Invocation(claim, (("n", n_max),), n_max - n_min + 1)


def grid(claim: str, **ranges: int) -> Invocation:
    """A full product grid 1..max over every named parameter."""
    return Invocation(claim, tuple(ranges.items()), prod(ranges.values()))


def conj_7_1(a: int, b: int, n: int) -> Invocation:
    """a in 2..a_max, b in 1..min(a-1, b_max), n in 1..n_max."""
    points = sum(min(x - 1, b) for x in range(2, a + 1)) * n
    return Invocation("conj-7.1", (("a", a), ("b", b), ("n", n)), points)


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    invocations: tuple[Invocation, ...]

    @property
    def points(self) -> int:
        return sum(inv.points for inv in self.invocations)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # Big-integer comb evaluation only: no valuation, floors or qpoly.
        Workload(
            "divisibility-bigint",
            1,
            (
                n_sweep("thm-1.1", 1200),
                n_sweep("thm-1.2", 700),
                n_sweep("thm-1.3", 600),
            ),
        ),
        # Machine-size integers: Legendre sums at all primes (val-bounds) and
        # at p = 2 over many n (parity); floor identities above their defaults.
        Workload(
            "valuation-floor",
            1,
            (
                n_sweep("val-bounds", 100),
                n_sweep("parity-power-of-2", 30_000),
                Invocation("lem-2.1", (), 1),
                n_sweep("lem-2.2", 1500),
                n_sweep("lem-2.3", 1500),
                n_sweep("lem-5.1", 1500),
                n_sweep("lem-5.2", 1500),
            ),
        ),
        # Few points, polynomials of degree in the thousands; thm-7.2 and
        # conj-7.3 include their registered counterexamples (n = 10, 19).
        Workload(
            "q-expansion",
            1,
            (
                n_sweep("conj-7.5", 8),
                n_sweep("conj-7.3", 12),
                n_sweep("conj-7.4-unimodal", 12, n_min=2),
                n_sweep("wz-positivity", 12),
                n_sweep("thm-7.2", 20),
                n_sweep("thm-7.4", 12),
            ),
        ),
        # Tens of thousands of cheap points through the process pool.
        Workload(
            "many-points-pool",
            2,
            (
                grid("thm-1.4", a=18, b=18, m=18, n=18),
                grid("cor-1.5", m=10, n=8000),
                conj_7_1(6, 5, 40),
                grid("thm-6.1", a=4, b=4, m=4, n=4),
                grid("cor-6.2", a=4, b=4, m=4, n=4),
            ),
        ),
    )
}


def load_golden() -> dict[str, dict]:
    """Expected exit code and report sha256 per claim, recorded at the seed commit."""
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)
