"""In-memory spans around rtfalsify's layer boundaries, for the traced run.

The program is not modified: ``installed(tracer)`` rebinds the names that
callers look up at call time (``rtfalsify.search.evaluate``,
``rtfalsify.search.simulate``, ``ParameterizedInput.instantiate``, the names
the CLI imported, ...) to wrappers that record a span, and restores the
originals on exit. The expression functions the monitor calls are only
counted, because a span per expression would cost more than the
expression.

A span is ``(id, name, start, end, parent, n)``: ``parent`` is the id of the
enclosing span (-1 at the root) and ``n`` is the work the call did (samples,
rows or fitness-history entries). Spans stay in memory until ``write``.
"""

from __future__ import annotations

import contextlib
import csv
import time
from collections import Counter
from dataclasses import dataclass


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.counts: Counter[str] = Counter()
        self.startup_s: list[float] = []
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, name, fn, work=None):
        """Return ``fn`` wrapped in a span; ``work(args, result)`` sizes the call."""

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
            n = work(args, result) if work is not None else 0
            self.spans.append((sid, name, start, end, parent, n))
            return result

        return traced

    def count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def write(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start", "end", "parent", "n"])
            writer.writerows(self.spans)
            for name, value in sorted(self.counts.items()):
                writer.writerow(["", f"count:{name}", "", "", "", value])
            for value in self.startup_s:
                writer.writerow(["", "startup_s", "", "", "", repr(value)])

    def merge_file(self, path) -> None:
        """Add the spans and counts another process wrote with ``write``."""
        offset = self._next_id
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            next(reader)
            for sid, name, start, end, parent, n in reader:
                if name.startswith("count:"):
                    self.counts[name[len("count:"):]] += int(n)
                elif name == "startup_s":
                    self.startup_s.append(float(n))
                else:
                    parent_id = int(parent)
                    self.spans.append(
                        (
                            int(sid) + offset,
                            name,
                            float(start),
                            float(end),
                            parent_id + offset if parent_id >= 0 else -1,
                            int(n),
                        )
                    )
                    self._next_id = max(self._next_id, int(sid) + offset + 1)


def _samples_of_result(args, result):
    return result.n_samples


def _samples_of_first_arg(args, result):
    return args[0].n_samples


def _samples_of_second_arg(args, result):
    return args[1].n_samples


def _rows_of_degree_run(args, result):
    return len(args[0].times)


def _history_of_result(args, result):
    return result.iterations


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Rebind rtfalsify's layer entry points to traced wrappers, then restore them."""
    import rtfalsify.cli as cli
    import rtfalsify.monitor as monitor
    import rtfalsify.search as search
    import rtfalsify.table as table

    bindings = [
        (search, "falsify", "search.falsify", _history_of_result),
        (cli, "falsify", "search.falsify", _history_of_result),
        (search, "evaluate", "search.evaluate", None),
        (search.ParameterizedInput, "instantiate", "search.instantiate", _samples_of_result),
        (search, "simulate", "sim.simulate", _samples_of_second_arg),
        (search, "run_monitor", "monitor.run_monitor", _samples_of_second_arg),
        (cli, "run_monitor", "monitor.run_monitor", _samples_of_second_arg),
        (table, "parse_table", "table.parse", None),
        (monitor, "compile_table", "monitor.compile", None),
        (search, "compile_table", "monitor.compile", None),
        (cli, "compile_table", "monitor.compile", None),
        (cli, "read_trace_csv", "sim.read_trace_csv", _samples_of_result),
        (cli, "write_trace_csv", "sim.write_trace_csv", _samples_of_first_arg),
        (cli, "write_degree_csv", "monitor.write_degree_csv", _rows_of_degree_run),
    ]
    saved = []
    for owner, attr, name, work in bindings:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, work))
    for attr in ("eval_bool", "degree", "eval_arith"):
        original = monitor.__dict__[attr]
        saved.append((monitor, attr, original))
        setattr(monitor, attr, tracer.count("expr.calls", original))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


@dataclass
class LayerTotals:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    work: int = 0
    in_search_seconds: float = 0.0  # part of ``seconds`` spent inside search.falsify


def layer_totals(spans) -> dict[str, LayerTotals]:
    """Per span name: calls, total and self time, work, and time inside searches."""
    by_id = {s[0]: s for s in spans}
    child_seconds: Counter[int] = Counter()
    for sid, name, start, end, parent, n in spans:
        if parent >= 0:
            child_seconds[parent] += end - start

    def inside_search(sid: int) -> bool:
        parent = by_id[sid][4]
        while parent >= 0:
            if by_id[parent][1] == "search.falsify":
                return True
            parent = by_id[parent][4]
        return False

    totals: dict[str, LayerTotals] = {}
    for sid, name, start, end, parent, n in spans:
        layer = totals.setdefault(name, LayerTotals())
        seconds = end - start
        layer.calls += 1
        layer.seconds += seconds
        layer.self_seconds += seconds - child_seconds[sid]
        layer.work += n
        if name == "search.falsify" or inside_search(sid):
            layer.in_search_seconds += seconds
    return totals
