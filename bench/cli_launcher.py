"""Run ``rtfalsify.cli.main`` with the tracing wrappers installed.

Usage: cli_launcher.py SPANS_CSV LAUNCH_MONOTONIC_S CLI_ARGS...

LAUNCH_MONOTONIC_S is the parent's ``time.monotonic()`` just before it
started this process (the clock is shared by all processes on Linux); the
time from then until ``main`` is entered is recorded as start-up. The spans
are written to SPANS_CSV when ``main`` returns, and the exit code is
``main``'s.
"""

import sys
import time

launch = float(sys.argv[2])

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import rtfalsify.cli  # noqa: E402
import tracing  # noqa: E402

tracer = tracing.Tracer()
with tracing.installed(tracer):
    tracer.startup_s.append(time.monotonic() - launch)
    code = rtfalsify.cli.main(sys.argv[3:])
tracer.write(sys.argv[1])
sys.exit(code)
