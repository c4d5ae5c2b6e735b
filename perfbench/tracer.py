"""Counting wrappers around factratio's public functions, installed from outside.

Each target is replaced under every name its callers look up: module
globals that hold it (``registry`` binds ``expand`` and ``naive_expand`` at
import, ``runner`` binds ``check_point``, ``cli`` binds ``run_claim``),
values of module-level dicts (``divisibility.VALUE_FUNCS``), and methods of
``DensePoly``.  Nothing under ``src/`` is edited.

Hot kernels (about a million calls to ``legendre_ord`` in one sweep) are
summed as a call count, total time and self time, not kept as one span per
call.  Self time is a call's duration minus the time spent in wrapped calls
it made.  Only ``registry.check_point`` keeps one duration per call: those
are the point-level spans; the claim-level span is the whole invocation.
"""

from __future__ import annotations

import sys
import time
from operator import add

ALL = frozenset({"divisibility-bigint", "valuation-floor", "q-expansion", "many-points-pool"})
Q_WORK = frozenset({"q-expansion", "many-points-pool"})

# metric prefix -> (module, attribute paths, extra counter, workloads on
# which at least one call is required).  Several paths may share a prefix:
# their calls and times are added up.
TARGETS: dict[str, tuple[str, tuple[str, ...], str | None, frozenset[str]]] = {
    "divisibility.bigint_eval": (
        "divisibility", ("sun_s", "sun_t", "t_cform"), "max_bits",
        frozenset({"divisibility-bigint"}),
    ),
    # Runs only to confirm a failing divisibility point, and no point of the
    # workloads fails; the kernel probe times it instead.
    "divisibility.valuation_verdict": ("divisibility", ("valuation_verdict",), None, frozenset()),
    "divisibility.check_valuation_bounds": (
        "divisibility", ("check_valuation_bounds",), None, frozenset({"valuation-floor"}),
    ),
    "divisibility.product": (
        "divisibility",
        ("check_product", "central_product_value", "check_two_binomial_conjecture"),
        None,
        frozenset({"many-points-pool"}),
    ),
    "valuation.legendre_ord": ("valuation", ("legendre_ord",), None, frozenset({"valuation-floor"})),
    "valuation.is_prime": ("valuation", ("is_prime",), None, frozenset({"valuation-floor"})),
    "valuation.primes_up_to": ("valuation", ("primes_up_to",), None, frozenset({"valuation-floor"})),
    "valuation.ratio_ord": ("valuation", ("ratio_ord",), None, frozenset({"valuation-floor"})),
    "floors.divisors_of": ("floors", ("divisors_of",), "enumerated", frozenset({"valuation-floor"})),
    "floors.check_congruence_identity": (
        "floors", ("check_congruence_identity",), None, frozenset({"valuation-floor"}),
    ),
    "floors.check_by_fractional_parts": (
        "floors", ("check_by_fractional_parts",), None, frozenset({"valuation-floor"}),
    ),
    "qratio.exponent_vector": ("qratio", ("exponent_vector",), None, Q_WORK),
    "qratio.expand": ("qratio", ("expand",), "max_degree", Q_WORK),
    "qratio.naive_expand": ("qratio", ("naive_expand",), None, frozenset({"q-expansion"})),
    "qpoly.mul": ("qpoly", ("DensePoly.__mul__",), "mul_ops", Q_WORK),
    "qpoly.one_minus_power": (
        "qpoly",
        ("DensePoly.mul_one_minus_power", "DensePoly.div_one_minus_power"),
        "len_ops",
        frozenset({"q-expansion"}),
    ),
    "qpoly.cyclotomic": ("qpoly", ("cyclotomic",), None, Q_WORK),
    "registry.check_point": ("registry", ("check_point",), "durations", ALL),
    "registry.points_for": ("registry", ("points_for",), None, ALL),
    "runner.run_claim": ("runner", ("run_claim",), None, ALL),
    "reports.emit_report": ("reports", ("emit_report",), "bytes", ALL),
    "cli.main": ("cli", ("main",), None, ALL),
}


def _max_bits(stat, args, result, elapsed):
    stat.extra = max(stat.extra, result.bit_length())


def _enumerated(stat, args, result, elapsed):
    stat.extra += len(result)


def _max_degree(stat, args, result, elapsed):
    stat.extra = max(stat.extra, result.degree)


def _mul_ops(stat, args, result, elapsed):
    stat.extra += len(args[0].coeffs) * len(args[1].coeffs)


def _len_ops(stat, args, result, elapsed):
    stat.extra += len(args[0].coeffs)


def _bytes(stat, args, result, elapsed):
    stat.extra += len(result)


def _durations(stat, args, result, elapsed):
    stat.extra.append(elapsed)


# extra counter -> (per-call update, initial value factory, how invocations combine)
EXTRAS = {
    "max_bits": (_max_bits, int, max),
    "enumerated": (_enumerated, int, add),
    "max_degree": (_max_degree, int, max),
    "mul_ops": (_mul_ops, int, add),
    "len_ops": (_len_ops, int, add),
    "bytes": (_bytes, int, add),
    "durations": (_durations, list, add),
}


def initial_extra(prefix: str):
    kind = TARGETS[prefix][2]
    return EXTRAS[kind][1]() if kind else 0


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "extra")

    def __init__(self, extra) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.extra = extra


def _wrap(fn, stat: Stat, stack: list[float], on_exit):
    clock = time.perf_counter

    def wrapper(*args, **kwargs):
        stack.append(0.0)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = clock() - start
            child = stack.pop()
            stat.calls += 1
            stat.total_s += elapsed
            stat.self_s += elapsed - child
            if stack:
                stack[-1] += elapsed
        if on_exit is not None:
            on_exit(stat, args, result, elapsed)
        return result

    return wrapper


def _rebind(original, wrapper) -> int:
    """Replace every factratio module global and dict value that is `original`."""
    count = 0
    for name, module in list(sys.modules.items()):
        if name != "factratio" and not name.startswith("factratio."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                count += 1
            elif isinstance(value, dict):
                for key in [k for k, v in value.items() if v is original]:
                    value[key] = wrapper
                    count += 1
    return count


class Tracer:
    """Installs the wrappers of TARGETS and reads their counters back."""

    def __init__(self) -> None:
        self.stack: list[float] = []
        self.stats: dict[str, Stat] = {}
        self.missing: list[str] = []
        self._cyclotomic = None

    def install(self) -> None:
        import factratio

        for prefix, (module_name, paths, extra, _) in TARGETS.items():
            module = getattr(factratio, module_name)
            on_exit = EXTRAS[extra][0] if extra else None
            stat = self.stats[prefix] = Stat(initial_extra(prefix))
            for path in paths:
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = vars(owner).get(attr) if owner is not None else None
                if original is None:
                    self.missing.append(f"{module_name}.{path}")
                    continue
                wrapper = _wrap(original, stat, self.stack, on_exit)
                if owner_name:
                    setattr(owner, attr, wrapper)
                elif not _rebind(original, wrapper):
                    self.missing.append(f"{module_name}.{path}")
                if path == "cyclotomic":
                    self._cyclotomic = original

    def snapshot(self) -> dict:
        cache = getattr(self._cyclotomic, "cache_info", None)
        return {
            "stats": {
                prefix: [s.calls, s.total_s, s.self_s, s.extra] for prefix, s in self.stats.items()
            },
            "cyclotomic_cache": list(cache())[:2] if cache else None,
            "missing": self.missing,
        }
