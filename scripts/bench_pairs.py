"""Run bench/run.py in interleaved pairs on two checkouts and write a BENCH_<n>.json.

Usage (from anywhere):

    git archive PARENT_REV | tar -x -C /tmp/parent
    git archive CHANGE_REV | tar -x -C /tmp/change
    python3 scripts/bench_pairs.py /tmp/parent /tmp/change --out BENCH_<n>.json \\
        --change "what the change does" [--pairs 10] [--seed 0] \\
        [--workload omm-grid --workload cli]

For each workload (default: those gated in the change's BENCHMARK.json) it
runs ``python3 bench/run.py --workload W --seed S --seconds T --trace 0``
``--pairs`` times in each checkout, one run at a time, with T the change's
``run_seconds``. The side that runs
first alternates from pair to pair, starting with the parent. The file is
rewritten after every run, so an interrupted run keeps the pairs it
finished. A checkout holding a ``__pycache__`` under ``src/``, ``bench/`` or
``tests/`` is refused: with bytecode writing off, as in an environment that
sets PYTHONDONTWRITEBYTECODE, only the side with a stale cache skips
compiling, and its ``setup_s`` reads about 20% faster.

Per gated metric the file holds every run, each side's median and quartiles
(``statistics.quantiles(method="inclusive")``), the median and quartiles of
change/parent over the pairs (``pair_ratio``), the pairs the change won,
and three verdicts: ``within_bound`` (the change's median is no worse than the
parent's by more than the metric's bound), ``gain_shown`` (at least ten
pairs, the change won at least nine tenths of them, and the medians differ by
more than the parent's interquartile range) and ``resolved`` (False when the
parent's interquartile range, as a share of its median, is wider than the
bound, unless every change run beats every parent run; an unresolved metric
is reported as such, not as unchanged).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

MIN_GAIN_PAIRS = 10  # fewer pairs cannot show a gain
CACHED_DIRS = ("src", "bench", "tests")  # where a stale __pycache__ would skew setup_s


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="clean export of the parent commit")
    parser.add_argument("change", type=Path, help="clean export of the change")
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_<n>.json to write")
    parser.add_argument("--change", dest="description", required=True, help="what the change does")
    parser.add_argument("--workload", action="append", help="repeatable; default: the gated ones")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    return parser.parse_args(argv)


def bench_run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in ``checkout``: its JSON line plus its report file."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          timeout=4 * seconds + 300)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {checkout} exited {done.returncode}:\n{done.stderr}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    report = json.loads((checkout / ".bench_out" / f"result-{workload}-seed{seed}-trace0.json").read_text())
    return {**line, "passes": report["passes"], "digests_checked": report["digests_checked"],
            "environment": report["environment"]}


def refuse_stale_bytecode(checkout: Path) -> None:
    """Exit unless ``checkout`` is free of ``__pycache__`` directories under CACHED_DIRS."""
    found = sorted(p for d in CACHED_DIRS for p in (checkout / d).rglob("__pycache__"))
    if found:
        raise SystemExit(f"{checkout}: remove {found[0]} (and any other __pycache__) first")


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def metric_summary(spec: dict, parent: list[float], change: list[float]) -> dict:
    """Each side's spread and the verdicts for one metric over paired runs."""
    sign = 1 if spec["better"] == "lower" else -1
    p, c = quartiles(parent), quartiles(change)
    parent_iqr = p["q3"] - p["q1"]
    wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) < 0)
    worse_by = sign * (c["median"] - p["median"]) / p["median"]
    beats_every_run = max(sign * b for b in change) < min(sign * a for a in parent)
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "parent": p,
        "change": c,
        "median_ratio_change_over_parent": round(c["median"] / p["median"], 3),
        "pair_ratio": quartiles([b / a for a, b in zip(parent, change)]),
        "parent_iqr": round(parent_iqr, 4),
        "change_wins_pairs": wins,
        "worse_by_share": round(worse_by, 3),
        "within_bound": worse_by <= spec["bound"],
        "resolved": parent_iqr / abs(p["median"]) <= spec["bound"] or beats_every_run,
        "gain_shown": len(parent) >= MIN_GAIN_PAIRS and wins >= 0.9 * len(parent) and -sign * (c["median"] - p["median"]) > parent_iqr,
        "runs": {"parent": [round(v, 4) for v in parent], "change": [round(v, 4) for v in change]},
    }


def workload_summary(specs: list[dict], runs: dict[str, list[dict]], first: list[str]) -> dict:
    summary = {"pairs": min(len(runs["parent"]), len(runs["change"])), "first_in_pair": first}
    for key in ("passes", "failed", "attempted", "digests_checked"):
        summary[key] = {side: [r[key] for r in runs[side]] for side in ("parent", "change")}
    n = summary["pairs"]
    if n >= 2:  # quartiles need two runs a side
        summary["metrics"] = {
            spec["name"]: metric_summary(
                spec,
                [r["metrics"][spec["name"]]["value"] for r in runs["parent"][:n]],
                [r["metrics"][spec["name"]]["value"] for r in runs["change"][:n]],
            )
            for spec in specs
        }
    return summary


def main(argv=None) -> int:
    args = parse_args(argv)
    for checkout in (args.parent, args.change):
        refuse_stale_bytecode(checkout)
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    specs = benchmark["end_to_end"]
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    result = {
        "change": args.description,
        "environment": {},
        "method": (
            f"python3 bench/run.py --workload W --seed {args.seed} --seconds {seconds:g} "
            f"--trace 0, run by scripts/bench_pairs.py from a clean export of the parent commit "
            f"and of the change; {args.pairs} pairs per workload, run one after another, the side "
            f"that runs first alternating from pair to pair; workloads in the order "
            f"{', '.join(workloads)}. Quartiles are statistics.quantiles(method='inclusive'). "
            "pair_ratio holds the median and quartiles of change/parent taken pair by pair, so "
            "a host that changes speed between pairs changes both runs of a ratio alike. "
            "resolved is false where the parent's interquartile range, as a share of its "
            "median, is wider than the bound, unless every change run beats every parent run."
        ),
        "workloads": {},
    }
    sides = {"parent": args.parent, "change": args.change}
    for workload in workloads:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        first: list[str] = []
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            first.append(order[0])
            for side in order:
                run = bench_run(sides[side], workload, args.seed, seconds)
                runs[side].append(run)
                env = run["environment"]
                result["environment"] = {k: env[k] for k in ("cpu", "nproc", "python", "numpy")}
                result["workloads"][workload] = workload_summary(specs, runs, first)
                args.out.write_text(json.dumps(result, indent=1) + "\n")
                print(f"{workload} pair {i + 1}/{args.pairs} {side}: "
                      + ", ".join(f"{k} {v['value']:.4g}" for k, v in run["metrics"].items()),
                      file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
