"""Tests of the benchmark itself.

Run from the root of the repository: ``python3 -m pytest bench/test_bench.py``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: metric["unit"] for name, metric in line["metrics"].items()}
    assert emitted == {metric["name"]: metric["unit"] for metric in expected}
    assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())


def test_wrong_digest_counts_in_failed_share(tmp_path, monkeypatch):
    recorded = workloads.Digests.load().recorded
    key = "plant-demo/sc/sa/6/0"  # the one search of a smoke plant-sa pass on seed 0
    assert key in recorded
    wrong = dict(recorded, **{key: "0" * 16})
    monkeypatch.setattr(workloads.Digests, "load", classmethod(lambda cls, record=False: cls(wrong)))

    args = run.parse_args(["--workload", "plant-sa", "--seed", "0", "--seconds", "1", "--smoke"])
    line, report = run.run(args, tmp_path)

    assert line["failed"] == 1 and not line["correct"]
    assert report["failed_share"] == 1 / line["attempted"]
    assert "digest" in report["failures"][0]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "cli", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("n, percentile", [(10, None), (11, 9), (12, 16), (60, 83), (1000, 99)])
def test_tail_percentile_leaves_ten_operations_beyond(n, percentile):
    assert run.tail_percentile(n) == percentile
