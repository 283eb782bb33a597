"""Print how long a fresh process takes to set up one workload.

Usage: time_setup.py WORKLOAD SEED SMOKE(0|1) WORKDIR

The time covers importing rtfalsify (with numpy), loading and compiling the
tables, building the models and, for cli, generating the replay trace.
"""

import sys
import time

start = time.perf_counter()

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402  (imports rtfalsify)

workload, seed, smoke, workdir = sys.argv[1:5]
workloads.WORKLOADS[workload].setup(int(seed), smoke == "1", Path(workdir))
print(repr(time.perf_counter() - start))
