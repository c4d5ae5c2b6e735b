"""Verify-sweep benchmark for factratio.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a factratio checkout; the package is imported from
./src and nothing is installed.  Every `factratio verify` invocation runs
in a fresh interpreter (see verify_child.py), one after another, so the
prime sieve, the cyclotomic memo and the central-binomial cache start cold
as they do for a user.  Each report is checked against the golden exit code
and sha256 in golden.json.

--trace 0 repeats the workload in passes until --seconds is used up (the
seed shuffles the invocation order of each pass) and reports the medians of
the end-to-end metrics over the passes.  --trace 1 runs one untraced pass,
one traced pass with one worker, and the kernel probes, and reports the
per-layer metrics.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  METRICS.md describes every
metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
from workloads import WORKLOADS, Invocation, Workload, load_golden

HERE = Path(__file__).resolve().parent
INVOCATION_TIMEOUT_S = 120

# name -> unit (the end-to-end metrics reported with --trace 0)
END_TO_END = {
    "wall_s": "s",
    "points_per_s": "1/s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

# name -> unit (the per-layer metrics reported with --trace 1)
PER_LAYER = {
    "divisibility.bigint_eval.calls": "count",
    "divisibility.bigint_eval.self_s": "s",
    "divisibility.bigint_eval.max_bits": "bits",
    "divisibility.valuation_verdict.calls": "count",
    "divisibility.valuation_verdict.self_s": "s",
    "divisibility.check_valuation_bounds.self_s": "s",
    "divisibility.product.calls": "count",
    "divisibility.product.self_s": "s",
    "valuation.legendre_ord.calls": "count",
    "valuation.legendre_ord.self_s": "s",
    "valuation.is_prime.calls": "count",
    "valuation.is_prime.self_s": "s",
    "valuation.primes_up_to.calls": "count",
    "valuation.primes_up_to.self_s": "s",
    "valuation.ratio_ord.self_s": "s",
    "floors.divisors_of.calls": "count",
    "floors.divisors_of.self_s": "s",
    "floors.divisors.enumerated": "count",
    "floors.check_congruence_identity.calls": "count",
    "floors.check_congruence_identity.self_s": "s",
    "floors.check_by_fractional_parts.self_s": "s",
    "floors.checked_per_divisor": "ratio",
    "qratio.exponent_vector.calls": "count",
    "qratio.exponent_vector.self_s": "s",
    "qratio.expand.calls": "count",
    "qratio.expand.self_s": "s",
    "qratio.expand.max_degree": "degree",
    "qratio.naive_expand.calls": "count",
    "qratio.naive_expand.self_s": "s",
    "qpoly.mul.calls": "count",
    "qpoly.mul.self_s": "s",
    "qpoly.mul.coeff_ops": "count",
    "qpoly.one_minus_power.calls": "count",
    "qpoly.one_minus_power.self_s": "s",
    "qpoly.one_minus_power.coeff_ops": "count",
    "qpoly.cyclotomic.self_s": "s",
    "qpoly.cyclotomic.hit_ratio": "ratio",
    "registry.check_point.calls": "count",
    "registry.check_point.self_s": "s",
    "registry.check_point.p50_ms": "ms",
    "registry.check_point.tail_ms": "ms",
    "registry.points_for.self_s": "s",
    "runner.run_claim.self_s": "s",
    "runner.pool_efficiency": "ratio",
    "reports.emit_report.self_s": "s",
    "reports.bytes": "B",
    "cli.main.self_s": "s",
    "trace_overhead_ratio": "ratio",
    "divisibility.sun_s_n20000_s": "s",
    "divisibility.sun_t_n20000_s": "s",
    "divisibility.valuation_verdict_n20000_s": "s",
    "valuation.legendre_ord_ns": "ns",
    "qratio.expand_wz30_s": "s",
    "qratio.naive_expand_wz30_s": "s",
    "qpoly.div_one_minus_power_deg20000_s": "s",
}


@dataclass
class Outcome:
    """One verify invocation as seen from outside."""

    claim: str
    ok: bool
    problem: str
    setup_s: float
    wall_s: float
    cpu_s: float
    rss_mb: float
    trace: dict | None = None


@dataclass
class Pass:
    order: list[str]
    outcomes: list[Outcome] = field(default_factory=list)

    def total(self, attr: str) -> float:
        return sum(getattr(o, attr) for o in self.outcomes)

    @property
    def rss_mb(self) -> float:
        return max(o.rss_mb for o in self.outcomes)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("FACTRATIO_WORKERS", None)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_invocation(
    root: Path, inv: Invocation, workers: int, golden: dict, trace: bool
) -> Outcome:
    """Start one verify process, wait for it and everything it started, check it."""
    cmd = [sys.executable, str(HERE / "verify_child.py")]
    cmd += ["--trace"] if trace else []
    cmd += inv.argv(workers)
    start = time.monotonic()
    proc = subprocess.Popen(
        cmd,
        cwd=root,
        env=_child_env(root),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    killer = threading.Timer(INVOCATION_TIMEOUT_S, _kill_group, (proc.pid,))
    killer.start()
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    end = time.monotonic()
    killer.cancel()
    reader.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    _kill_group(proc.pid)  # a worker left behind by a crashed invocation

    ready, trace_data = None, None
    for line in err[0].decode(errors="replace").splitlines():
        if line.startswith("perfbench-ready "):
            ready = float(line.split()[1])
        elif line.startswith("perfbench-trace "):
            trace_data = json.loads(line[len("perfbench-trace ") :])
    expected = golden[inv.claim]
    digest = hashlib.sha256(out).hexdigest()
    problem = ""
    if ready is None:
        problem = "no set-up stamp (the interpreter did not import factratio)"
    elif proc.returncode != expected["exit"]:
        problem = f"exit code {proc.returncode}, expected {expected['exit']}"
    elif digest != expected["sha256"]:
        problem = f"report sha256 {digest[:12]}, expected {expected['sha256'][:12]}"
    elif trace and trace_data is None:
        problem = "no trace counters"
    ready = start if ready is None else ready
    return Outcome(
        claim=inv.claim,
        ok=not problem,
        problem=problem,
        setup_s=ready - start,
        wall_s=end - ready,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
        trace=trace_data,
    )


def run_pass(
    root: Path, workload: Workload, rng: random.Random, golden: dict, trace: bool, workers: int
) -> Pass:
    invocations = list(workload.invocations)
    rng.shuffle(invocations)
    result = Pass(order=[inv.claim for inv in invocations])
    for inv in invocations:
        outcome = run_invocation(root, inv, workers, golden, trace)
        if not outcome.ok:
            print(f"FAILED {inv.claim}: {outcome.problem}")
        result.outcomes.append(outcome)
    return result


def machine_record() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg": list(os.getloadavg()),
    }


def end_to_end(root: Path, workload: Workload, seed: int, seconds: float, golden: dict):
    rng = random.Random(seed)
    start = time.monotonic()
    passes: list[Pass] = []
    while True:
        p = run_pass(root, workload, rng, golden, trace=False, workers=workload.workers)
        passes.append(p)
        print(
            f"pass {len(passes)}: wall_s={p.total('wall_s'):.4f} setup_s={p.total('setup_s'):.4f} "
            f"cpu_s={p.total('cpu_s'):.4f} peak_rss_mb={p.rss_mb:.1f} order={','.join(p.order)}"
        )
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    wall = statistics.median(p.total("wall_s") for p in passes)
    metrics = {
        "wall_s": wall,
        "points_per_s": workload.points / wall,
        "setup_s": statistics.median(p.total("setup_s") for p in passes),
        "cpu_s": statistics.median(p.total("cpu_s") for p in passes),
        "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
    }
    outcomes = [o for p in passes for o in p.outcomes]
    print(f"medians over {len(passes)} passes of {len(workload.invocations)} invocations")
    return metrics, END_TO_END, outcomes, []


def _tail(durations: list[float]) -> tuple[float, float, float]:
    """(p50, tail value, tail percentile): the tail is the highest percentile
    that still has at least ten samples above it."""
    if not durations:
        return 0.0, 0.0, 0.0
    ordered = sorted(durations)
    n = len(ordered)
    if n <= 10:
        return statistics.median(ordered), ordered[-1], 100.0
    return statistics.median(ordered), ordered[n - 11], 100.0 * (n - 10) / n


def _aggregate(outcomes: list[Outcome]) -> tuple[dict, list[int]]:
    """Add the counters of every traced invocation together."""
    totals = {prefix: [0, 0.0, 0.0, tracer.initial_extra(prefix)] for prefix in tracer.TARGETS}
    cache = [0, 0]
    for o in outcomes:
        if o.trace is None:
            continue
        for prefix, (calls, total_s, self_s, extra) in o.trace["stats"].items():
            t = totals[prefix]
            t[0] += calls
            t[1] += total_s
            t[2] += self_s
            kind = tracer.TARGETS[prefix][2]
            if kind:
                t[3] = tracer.EXTRAS[kind][2](t[3], extra)
        if o.trace["cyclotomic_cache"]:
            cache = [a + b for a, b in zip(cache, o.trace["cyclotomic_cache"])]
    return totals, cache


def traced(root: Path, workload: Workload, seed: int, golden: dict):
    rng = random.Random(seed)
    plain = run_pass(root, workload, rng, golden, trace=False, workers=workload.workers)
    traced_pass = run_pass(root, workload, rng, golden, trace=True, workers=1)
    problems: list[str] = []
    probe_metrics = {}
    try:
        probe = subprocess.run(
            [sys.executable, str(HERE / "probes.py")],
            cwd=root,
            env=_child_env(root),
            capture_output=True,
            timeout=INVOCATION_TIMEOUT_S,
        )
        probes = json.loads(probe.stdout)
        problems += [f"probe: {e}" for e in probes["errors"]]
        probe_metrics = probes["metrics"]
    except subprocess.TimeoutExpired:
        problems.append(f"probes did not finish in {INVOCATION_TIMEOUT_S} s")
    except (json.JSONDecodeError, KeyError):
        problems.append(f"probes exited {probe.returncode}: {probe.stderr.decode()[-500:]}")

    totals, cache = _aggregate(traced_pass.outcomes)
    missing = sorted({m for o in traced_pass.outcomes if o.trace for m in o.trace["missing"]})
    problems += [f"tracer: target {m} not found" for m in missing]
    for prefix, (_, _, _, must_fire) in tracer.TARGETS.items():
        if workload.name in must_fire and totals[prefix][0] == 0:
            problems.append(f"tracer: {prefix} never called on {workload.name}")

    untraced_wall = plain.total("wall_s")
    traced_wall = traced_pass.total("wall_s")
    m: dict[str, float] = {}
    for prefix, (calls, total_s, self_s, _) in totals.items():
        m[f"{prefix}.calls"] = calls
        m[f"{prefix}.self_s"] = self_s
    extra = {prefix: t[3] for prefix, t in totals.items()}
    m["divisibility.bigint_eval.max_bits"] = extra["divisibility.bigint_eval"]
    enumerated = extra["floors.divisors_of"]
    m["floors.divisors.enumerated"] = enumerated
    checked = m["floors.check_congruence_identity.calls"]
    m["floors.checked_per_divisor"] = checked / enumerated if enumerated else 0.0
    m["qratio.expand.max_degree"] = extra["qratio.expand"]
    m["qpoly.mul.coeff_ops"] = extra["qpoly.mul"]
    m["qpoly.one_minus_power.coeff_ops"] = extra["qpoly.one_minus_power"]
    hits, misses = cache
    m["qpoly.cyclotomic.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    durations = extra["registry.check_point"]
    p50, tail, pct = _tail(durations)
    m["registry.check_point.p50_ms"] = p50 * 1e3
    m["registry.check_point.tail_ms"] = tail * 1e3
    check_point_s = totals["registry.check_point"][1]
    m["runner.pool_efficiency"] = check_point_s / (workload.workers * untraced_wall)
    m["reports.bytes"] = extra["reports.emit_report"]
    m["trace_overhead_ratio"] = traced_wall / untraced_wall
    m.update(probe_metrics)

    for o in traced_pass.outcomes:
        spans = o.trace["stats"]["registry.check_point"][3] if o.trace else []
        print(
            f"span claim={o.claim} wall_s={o.wall_s:.4f} points={len(spans)} "
            f"check_point_s={sum(spans):.4f}"
        )
    print(
        f"registry.check_point.tail_ms is the p{pct:.4f} of {len(durations)} point spans "
        "(the highest percentile with at least ten samples above it)"
    )
    print(f"untraced wall_s={untraced_wall:.4f} traced wall_s (1 worker)={traced_wall:.4f}")
    if not m["divisibility.valuation_verdict.calls"]:
        print(
            "divisibility.valuation_verdict.* are 0: the valuation route only "
            "confirms failing divisibility points, and none fail here"
        )
    for name in PER_LAYER:
        if name not in m:
            problems.append(f"metric {name} was not measured")
    metrics = {name: m.get(name, 0.0) for name in PER_LAYER}
    return metrics, PER_LAYER, plain.outcomes + traced_pass.outcomes, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "factratio" / "__init__.py").is_file():
        print("error: run from the root of a factratio checkout (no src/factratio)", file=sys.stderr)
        return 2
    golden = load_golden()
    workload = WORKLOADS[args.workload]
    for inv in workload.invocations:
        recorded = golden.get(inv.claim, {}).get("ranges")
        if recorded != [list(r) for r in inv.ranges]:
            print(f"error: golden.json holds no verdict for {inv.claim} at these ranges", file=sys.stderr)
            return 2

    print(
        f"perfbench workload={workload.name} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} workers={workload.workers} points={workload.points}"
    )
    print("machine " + json.dumps(machine_record()))
    if args.trace:
        metrics, units, outcomes, problems = traced(root, workload, args.seed, golden)
    else:
        metrics, units, outcomes, problems = end_to_end(
            root, workload, args.seed, args.seconds, golden
        )
    failed = sum(not o.ok for o in outcomes)
    for name, value in metrics.items():
        print(f"{name:<44} {value:>16.6g} {units[name]}")
    print(f"{'op_fail_ratio':<44} {failed / len(outcomes):>16.6g} ratio ({failed} of {len(outcomes)} invocations)")
    for problem in problems:
        print(f"CHECK FAILED {problem}")
    result = {
        "correct": failed == 0 and not problems and all(map(math.isfinite, metrics.values())),
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
