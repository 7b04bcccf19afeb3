"""In-memory span tracing around tiltmc's public layer functions, and the
arithmetic that turns a span file into per-layer metrics.

Standard library only: ``run.py`` derives the metrics from the span files
without importing numpy or tiltmc.

A span is one call of a wrapped function: name, start, end, parent span,
thread, pipeline id, plus counts read from the call's arguments or result.
Parents are thread-local. A span opened on a worker thread with no open
span of its own takes the innermost open span of the main thread as its
parent, which is the dispatching call (``coverage_experiment`` or
``run_experiment``) blocked on the pool. A new pipeline id starts at each
``estimate.run_pipeline`` span that is not already inside one; its
descendants share it. One op is one pipeline.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import statistics
import threading
import time
from collections import defaultdict

LAYERS = ("config", "gaussian", "payoffs", "drift", "optimize", "estimate", "cli")
PIPELINE_SPAN = "estimate.run_pipeline"
TAIL_CANDIDATES = (50.0, 75.0, 90.0, 95.0, 97.5, 99.0, 99.5, 99.9)


class Tracer:
    """Collects spans in memory; ``dump`` writes them out once, at the end."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._pipelines = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[dict] = []

    def _stack(self) -> list[dict]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def _open(self, name: str) -> dict:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        pipeline = parent["pipeline"] if parent else None
        if pipeline is None and name == PIPELINE_SPAN:
            pipeline = next(self._pipelines)
        record = {
            "id": next(self._ids),
            "name": name,
            "parent": parent["id"] if parent else None,
            "pipeline": pipeline,
            "thread": threading.get_ident(),
            "start": 0.0,
            "end": 0.0,
            "attrs": {},
        }
        stack.append(record)
        record["start"] = time.perf_counter()
        return record

    def _close(self, record: dict):
        record["end"] = time.perf_counter()
        self._stack().pop()
        self.spans.append(record)

    def wrap(self, name: str, fn, attrs=None):
        """Wrap ``fn`` in a span; ``attrs(args, kwargs, result)`` adds counts."""

        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if attrs is not None:
                record["attrs"].update(attrs(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path, **meta):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(dict(meta, spans=self.spans), handle)


# --- arithmetic on span lists -------------------------------------------------


def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its children.

    Children may run on other threads and overlap each other; the covered
    part is the union of their intervals clipped to the parent's.
    """
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    result = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        covered = _union_length(
            (max(lo, c["start"]), min(hi, c["end"]))
            for c in children[s["id"]]
            if c["end"] > lo and c["start"] < hi
        )
        result[s["id"]] = (hi - lo) - covered
    return result


def tail_percentile(count: int) -> float | None:
    """Highest candidate percentile with at least 10 of ``count`` samples
    beyond it, or None when even the median has fewer than 10 beyond."""
    best = None
    for p in TAIL_CANDIDATES:
        if count * (1.0 - p / 100.0) >= 10.0 - 1e-9:
            best = p
    return best


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default rule)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def passes_per_block(spans: list[dict]) -> float:
    """Payoff rows evaluated per sample row drawn."""
    rows = sum(s["attrs"].get("rows", 0) for s in spans if s["name"] == "payoffs.eval")
    drawn = sum(s["attrs"].get("n", 0) for s in spans if s["name"] == "gaussian.draw_samples")
    return rows / drawn if drawn else 0.0


def descendants(spans: list[dict], root_id: int) -> list[dict]:
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    out, todo = [], [root_id]
    while todo:
        for child in children[todo.pop()]:
            out.append(child)
            todo.append(child["id"])
    return out


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced workload process.

    ``trace`` holds ``spans`` plus ``threads`` (the workload's worker count).
    The work phase is the ``bench.work`` span; ``config.build_s`` covers the
    config spans of the ``bench.setup`` span.
    """
    spans = trace["spans"]
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
    (work,) = by_name["bench.work"]
    (setup,) = by_name["bench.setup"]
    work_spans = descendants(spans, work["id"])
    selfs = self_times(spans)
    wall = work["end"] - work["start"]

    def total(name):
        return sum(s["end"] - s["start"] for s in work_spans if s["name"] == name)

    def self_total(name):
        return sum(selfs[s["id"]] for s in work_spans if s["name"] == name)

    def attr_sum(name, key):
        return sum(s["attrs"].get(key, 0) for s in work_spans if s["name"] == name)

    m = {}
    draw_s = total("gaussian.draw_samples")
    normals = attr_sum("gaussian.draw_samples", "normals")
    m["gaussian.draw_s"] = draw_s
    m["gaussian.normals"] = normals
    m["gaussian.ns_per_normal"] = 1e9 * draw_s / normals if normals else 0.0
    m["gaussian.block_mb"] = max(
        (s["attrs"].get("normals", 0) * 8 / 1e6 for s in by_name["gaussian.draw_samples"]),
        default=0.0,
    )

    eval_s = total("payoffs.eval")
    elements = attr_sum("payoffs.eval", "elements")
    m["payoffs.eval_s"] = eval_s
    m["payoffs.rows"] = attr_sum("payoffs.eval", "rows")
    m["payoffs.passes_per_block"] = passes_per_block(work_spans)
    m["payoffs.ns_per_element"] = 1e9 * eval_s / elements if elements else 0.0

    newton_s = total("optimize.newton_minimize")
    iters = attr_sum("optimize.newton_minimize", "iterations")
    m["optimize.newton_s"] = newton_s
    m["optimize.newton_iters"] = iters
    m["optimize.ms_per_iter"] = 1e3 * newton_s / iters if iters else 0.0
    m["optimize.safeguarded"] = attr_sum("optimize.newton_minimize", "safeguarded")
    m["optimize.weights_self_s"] = self_total("optimize.precompute_weights")
    rows_weighted = attr_sum("optimize.precompute_weights", "n")
    m["optimize.nonzero_frac"] = (
        attr_sum("optimize.precompute_weights", "nonzero") / rows_weighted if rows_weighted else 0.0
    )

    m["drift.adjoint_s"] = total("drift.apply_adjoint")

    pipelines = [s for s in work_spans if s["name"] == PIPELINE_SPAN]
    durations_ms = [1e3 * (s["end"] - s["start"]) for s in pipelines]
    m["estimate.pipeline_self_s"] = self_total(PIPELINE_SPAN)
    m["estimate.tilted_self_s"] = self_total("estimate.tilted_terms")
    m["estimate.pipelines"] = len(pipelines)
    m["estimate.fallbacks"] = sum(s["attrs"].get("fallback", 0) for s in pipelines)
    m["estimate.pipeline_p50_ms"] = percentile(durations_ms, 50.0) if durations_ms else 0.0
    tail = tail_percentile(len(durations_ms))
    m["estimate.pipeline_tail_ms"] = (
        percentile(durations_ms, tail) if tail is not None else max(durations_ms, default=0.0)
    )
    dispatch = [
        s for s in work_spans if s["name"] in ("cli.run_experiment", "estimate.coverage_experiment")
    ]
    threads = max(1, int(trace["threads"]))
    dispatch_wall = sum(s["end"] - s["start"] for s in dispatch)
    dispatch_ids = {s["id"] for s in dispatch}
    busy = sum(s["end"] - s["start"] for s in work_spans if s["parent"] in dispatch_ids)
    m["estimate.thread_busy_frac"] = busy / (dispatch_wall * threads) if dispatch_wall else 0.0

    m["config.build_s"] = sum(
        s["end"] - s["start"]
        for s in spans
        if s["parent"] == setup["id"] and s["name"].startswith("config.")
    )
    m["cli.emit_s"] = total("cli.emit_report") + total("cli.emit_coverage")

    layer_self = defaultdict(float)
    for s in work_spans:
        layer_self[s["name"].split(".", 1)[0]] += selfs[s["id"]]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    m["trace.wall_s"] = wall
    m["trace.accounted_frac"] = sum(layer_self.values()) / (wall * threads) if wall else 0.0
    return m


def thread_accounted(trace: dict) -> dict[int, float]:
    """Per thread: summed layer self time over the work phase, as a share of
    the traced wall time. Worker threads of a parallel workload each show
    their own share."""
    spans = trace["spans"]
    (work,) = [s for s in spans if s["name"] == "bench.work"]
    wall = work["end"] - work["start"]
    selfs = self_times(spans)
    per_thread = defaultdict(float)
    for s in descendants(spans, work["id"]):
        per_thread[s["thread"]] += selfs[s["id"]]
    return {t: v / wall for t, v in per_thread.items()}


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}
