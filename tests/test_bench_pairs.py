"""``scripts/bench_pairs.py``'s per-metric summary, on synthetic pairs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_metric_summary_pairs_runs_across_a_host_slowdown(bench_pairs):
    # the host halves its speed after five pairs; the change wins every pair
    parent = [100.0] * 5 + [50.0] * 5
    ratios = [1.1, 1.3, 1.2, 1.4, 1.2, 1.1, 1.3, 1.2, 1.4, 1.2]
    change = [p * r for p, r in zip(parent, ratios)]
    spec = {"name": "evals_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
    summary = bench_pairs.metric_summary(spec, parent, change)
    assert summary["pair_ratio"] == {"median": 1.2, "q1": 1.2, "q3": 1.3}
    # the verdicts still compare the two sides' medians, which mix both speeds
    assert summary["parent"] == {"median": 75.0, "q1": 50.0, "q3": 100.0}
    assert summary["change"] == {"median": 90.0, "q1": 61.25, "q3": 120.0}
    assert summary["median_ratio_change_over_parent"] == 1.2
    assert (summary["parent_iqr"], summary["change_wins_pairs"]) == (50.0, 10)
    assert (summary["worse_by_share"], summary["within_bound"]) == (-0.2, True)
    assert summary["gain_shown"] is False
