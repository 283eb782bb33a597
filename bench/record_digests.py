"""Record the current commit's output digests into digests.json.

Usage: python3 bench/record_digests.py FIRST_SEED LAST_SEED

Runs one full-size and one smoke pass of every workload for each seed in
the range and stores the digest of every operation whose key has none yet.
A key that already has a digest is compared instead. Operations that fail
a check are printed, and the script then exits with 1.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

first, last = int(sys.argv[1]), int(sys.argv[2])
digests = workloads.Digests.load(record=True)
mismatches = []
for seed in range(first, last + 1):
    for name, wl in workloads.WORKLOADS.items():
        for smoke in (False, True):
            with tempfile.TemporaryDirectory(dir=workloads.ROOT / ".bench_out") as tmp:
                state = wl.setup(seed, smoke, Path(tmp))
                failed = [op for op in wl.run_pass(state, digests) if not op.ok]
            mismatches += [f"{name} seed {seed}: {op.name}: {op.detail}" for op in failed]
            print(f"{name} seed {seed} smoke {smoke}: {len(failed)} failed", flush=True)
with open(workloads.DIGEST_FILE, "w", encoding="utf-8") as fh:
    json.dump(dict(sorted(digests.recorded.items())), fh, indent=0)
    fh.write("\n")
if mismatches:
    print("\n".join(mismatches))
    sys.exit(1)
