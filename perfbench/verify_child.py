"""Run one `factratio verify` invocation in a fresh interpreter.

    python3 perfbench/verify_child.py [--trace] verify <claim> [options]

Does what the `factratio` console script does (`sys.exit(cli.main(argv))`),
so the report on stdout is byte for byte the user's.  On stderr it adds the
line `perfbench-ready <t>`, the CLOCK_MONOTONIC time at which the
interpreter had started and imported factratio.  With --trace the public
functions are wrapped first (see tracer.py) and the counters follow as one
line `perfbench-trace <json>` once the command has finished.
"""

import json
import sys
import time

import factratio.cli

READY = time.monotonic()


def main() -> int:
    print(f"perfbench-ready {READY!r}", file=sys.stderr, flush=True)
    argv = sys.argv[1:]
    if argv[:1] != ["--trace"]:
        return factratio.cli.main(argv)
    import tracer

    trace = tracer.Tracer()
    trace.install()
    code = factratio.cli.main(argv[1:])
    print("perfbench-trace " + json.dumps(trace.snapshot()), file=sys.stderr, flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
