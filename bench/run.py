"""Falsification benchmark for rtfalsify.

Usage (from the root of the repository):

    python3 bench/run.py --workload omm-grid|plant-sa|cli --seed N --seconds S --trace 0|1 [--smoke]

With ``--trace 0`` the run repeats whole passes of the workload for about S
seconds and reports the end-to-end metrics. With ``--trace 1`` it alternates
an untraced and a traced pass (at least one of each) and reports the
per-layer metrics from the traced passes, plus the tracing overhead.
``--smoke`` runs one tiny pass. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``; a readable
report, with the environment, goes to standard error and to
``.bench_out/result-<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "evals_per_s": "1/s", "peak_rss_mb": "MB"}
# Layers only the CLI calls. Their per-row and start-up times are reported in
# the readable report alone: on the library workloads they would read 0 on
# every run. Their call counts are in the JSON line on every workload.
CLI_ONLY_TIMES = (
    "sim.read_trace_csv_us_per_row",
    "sim.write_trace_csv_us_per_row",
    "monitor.write_degree_csv_us_per_row",
    "cli.startup_s",
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("omm-grid", "plant-sa", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one tiny pass of the workload")
    return parser.parse_args(argv)


def environment(args) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def time_setups(args, workdir: Path, repeats: int) -> list[float]:
    """Set the workload up in ``repeats`` fresh processes; one duration each."""
    times = []
    for i in range(repeats):
        target = workdir / f"setup-{i}"
        target.mkdir()
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "time_setup.py"), args.workload, str(args.seed),
             "1" if args.smoke else "0", str(target)],
            capture_output=True, text=True, cwd=ROOT, timeout=60, check=True,
        ).stdout
        times.append(float(out.strip().splitlines()[-1]))
        shutil.rmtree(target)
    return times


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ten operations beyond it."""
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    while n - math.ceil(p * n / 100) < 10:
        p -= 1
    return p


def op_latency(ops) -> dict:
    seconds = sorted(op.seconds for op in ops)
    n = len(seconds)
    info = {"op_s_p50": statistics.median(seconds), "operations": n}
    p = tail_percentile(n)
    if p is not None:
        info["op_s_tail"] = seconds[math.ceil(p * n / 100) - 1]
        info["op_s_tail_percentile"] = p
    return info


def pass_figures(ops) -> tuple[float, float]:
    """(wall seconds, fitness-history entries per second of search time) of one pass."""
    searches = [op for op in ops if op.evals]
    search_s = sum(op.seconds for op in searches)
    evals_per_s = sum(op.evals for op in searches) / search_s if searches else 0.0
    return sum(op.seconds for op in ops), evals_per_s


def per_layer(tracer, traced_walls, untraced_walls) -> dict:
    from tracing import LayerTotals, layer_totals

    t = layer_totals(tracer.spans)

    def layer(name):
        return t.get(name, LayerTotals())

    def per(seconds, work, scale):
        return seconds / work * scale if work else 0.0

    falsify = layer("search.falsify")
    evaluate = layer("search.evaluate")
    inst, simu, mon = layer("search.instantiate"), layer("sim.simulate"), layer("monitor.run_monitor")
    parse, comp = layer("table.parse"), layer("monitor.compile")
    rd, wr, wd = layer("sim.read_trace_csv"), layer("sim.write_trace_csv"), layer("monitor.write_degree_csv")
    search_s = falsify.seconds
    traced, untraced = statistics.median(traced_walls), statistics.median(untraced_walls)
    return {
        "search.falsify_calls": (falsify.calls, "count"),
        "search.evaluate_calls": (evaluate.calls, "count"),
        "search.useful_eval_ratio": (falsify.work / evaluate.calls if evaluate.calls else 0.0, "ratio"),
        "search.self_share": (per(falsify.self_seconds + evaluate.self_seconds, search_s, 1), "ratio"),
        "search.instantiate_calls": (inst.calls, "count"),
        "search.instantiate_samples": (inst.work, "count"),
        "search.instantiate_us_per_sample": (per(inst.seconds, inst.work, 1e6), "us"),
        "search.instantiate_share": (per(inst.in_search_seconds, search_s, 1), "ratio"),
        "sim.simulate_calls": (simu.calls, "count"),
        "sim.simulate_samples": (simu.work, "count"),
        "sim.simulate_us_per_sample": (per(simu.seconds, simu.work, 1e6), "us"),
        "sim.simulate_share": (per(simu.in_search_seconds, search_s, 1), "ratio"),
        "monitor.run_monitor_calls": (mon.calls, "count"),
        "monitor.run_monitor_samples": (mon.work, "count"),
        "monitor.run_monitor_us_per_sample": (per(mon.seconds, mon.work, 1e6), "us"),
        "monitor.run_monitor_share": (per(mon.in_search_seconds, search_s, 1), "ratio"),
        "expr.calls": (tracer.counts["expr.calls"], "count"),
        "expr.evals_per_sample": (per(tracer.counts["expr.calls"], mon.work, 1), "1/sample"),
        "table.parse_calls": (parse.calls, "count"),
        "table.parse_ms": (per(parse.seconds, parse.calls, 1e3), "ms"),
        "monitor.compile_calls": (comp.calls, "count"),
        "monitor.compile_ms": (per(comp.seconds, comp.calls, 1e3), "ms"),
        "sim.read_trace_csv_calls": (rd.calls, "count"),
        "sim.read_trace_csv_us_per_row": (per(rd.seconds, rd.work, 1e6), "us"),
        "sim.write_trace_csv_calls": (wr.calls, "count"),
        "sim.write_trace_csv_us_per_row": (per(wr.seconds, wr.work, 1e6), "us"),
        "monitor.write_degree_csv_calls": (wd.calls, "count"),
        "monitor.write_degree_csv_us_per_row": (per(wd.seconds, wd.work, 1e6), "us"),
        "cli.calls": (len(tracer.startup_s), "count"),
        "cli.startup_s": (statistics.median(tracer.startup_s) if tracer.startup_s else 0.0, "s"),
        "trace.wall_s": (traced, "s"),
        "trace.overhead_share": ((traced - untraced) / untraced, "ratio"),
    }


def run(args, workdir: Path) -> tuple[dict, dict]:
    """Run the workload; returns (result line, full report)."""
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    digests = workloads.Digests.load()
    state = wl.setup(args.seed, args.smoke, workdir)

    passes, traced_walls, untraced_walls = [], [], []
    tracer = tracing.Tracer()
    traced_state = None
    start = time.perf_counter()
    while True:
        if args.trace:
            ops = wl.run_pass(state, digests)
            untraced_walls.append(pass_figures(ops)[0])
            passes.append(ops)
            with tracing.installed(tracer):
                if traced_state is None:
                    # the tables are parsed and compiled under the tracer once
                    traced_state = wl.setup(args.seed, args.smoke, workdir) if wl.in_process else state
                traced = wl.run_pass(traced_state, digests, tracer)
            traced_walls.append(pass_figures(traced)[0])
            passes.append(traced)
            rounds = len(traced_walls)
        else:
            passes.append(wl.run_pass(state, digests))
            rounds = len(passes)
        elapsed = time.perf_counter() - start
        # stop when one more round of the same length would end after --seconds
        if args.smoke or elapsed * (rounds + 1) / rounds > args.seconds:
            break

    if args.trace:
        metrics = per_layer(tracer, traced_walls, untraced_walls)
        info = {"cli_layer_times": {name: metrics.pop(name) for name in CLI_ONLY_TIMES}}
        tracer.write(OUT_DIR / f"spans-{args.workload}.csv")
    else:
        who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
        figures = [pass_figures(ops) for ops in passes]
        setup = time_setups(args, workdir, 1 if args.smoke else SETUP_REPEATS)
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(w for w, _ in figures),
            "evals_per_s": statistics.median(e for _, e in figures),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
        info = {"passes": len(passes), "setup_samples_s": setup, **op_latency([op for ops in passes for op in ops])}

    all_ops = [op for ops in passes for op in ops]
    failed = [op for op in all_ops if not op.ok]
    line = {
        "correct": not failed,
        "attempted": len(all_ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    report = {
        "environment": environment(args),
        **line,
        "failed_share": len(failed) / len(all_ops),
        "digests_checked": digests.checked,
        "digests_unchecked": digests.unchecked,
        **info,
        "failures": [f"{op.name}: {op.detail}" for op in failed[:20]],
    }
    return line, report


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in (ROOT / "src" / "rtfalsify" / "__init__.py", ROOT / "tests" / "oracle.py") if not p.is_file()]
    if missing:
        print(f"error: run from a checkout of the repository; missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH_DIR))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        line, report = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    text = json.dumps(report, indent=2)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(text + "\n")
    print(text, file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
