"""``scripts/bench_pairs.py``'s per-metric summary, on synthetic pairs."""

import importlib.util
import re
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
    # the parent's own spread (50 of 75) is wider than the bound, and the runs overlap
    assert summary["resolved"] is False


EVALS = {"name": "evals_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}


@pytest.mark.parametrize(
    "spec, parent, change, resolved",
    [
        # parent IQR 10 of median 100 is inside the bound, whatever the change reads
        (EVALS, [90.0, 95.0, 100.0, 105.0, 110.0], [60.0, 70.0, 80.0, 90.0, 99.0], True),
        # parent IQR 40 of 100 is wider, and the runs overlap
        (EVALS, [60.0, 80.0, 100.0, 120.0, 140.0], [100.0, 120.0, 150.0, 160.0, 170.0], False),
        # as wide, but every change run beats every parent run
        (EVALS, [60.0, 80.0, 100.0, 120.0, 140.0], [141.0, 150.0, 160.0, 170.0, 180.0], True),
        (WALL, [0.6, 0.8, 1.0, 1.2, 1.4], [0.3, 0.4, 0.5, 0.55, 0.59], True),
        (WALL, [0.6, 0.8, 1.0, 1.2, 1.4], [0.3, 0.4, 0.5, 0.55, 0.6], False),  # a tie is no win
        (WALL, [0.6, 0.8, 1.0, 1.2, 1.4], [1.41, 1.5, 1.6, 1.7, 1.8], False),  # worse throughout
    ],
    ids=["narrow", "wide-overlapping", "wide-beats-all", "wall-beats-all", "wall-tie", "wall-worse"],
)
def test_metric_is_unresolved_when_the_parent_spreads_wider_than_the_bound(
    bench_pairs, spec, parent, change, resolved
):
    assert bench_pairs.metric_summary(spec, parent, change)["resolved"] is resolved


@pytest.mark.parametrize("where", ["src/rtfalsify", "bench", "tests"])
def test_a_checkout_with_stale_bytecode_is_refused(bench_pairs, tmp_path, where, monkeypatch):
    parent, change = tmp_path / "parent", tmp_path / "change"
    (parent / "scripts" / "__pycache__").mkdir(parents=True)  # outside the checked directories
    (change / where / "__pycache__").mkdir(parents=True)
    monkeypatch.setattr(bench_pairs, "bench_run", lambda *a: pytest.fail("a run started"))
    out = tmp_path / "BENCH.json"
    argv = [str(parent), str(change), "--out", str(out), "--change", "x"]
    stale = change / where / "__pycache__"
    with pytest.raises(SystemExit, match=f"^{re.escape(f'{change}: remove {stale} ')}"):
        bench_pairs.main(argv)
    assert not out.exists()
