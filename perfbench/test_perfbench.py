"""Checks of the benchmark's own arithmetic on synthetic spans and reports.

    python3 -m pytest perfbench -q
"""

import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
import workload  # noqa: E402


def span(id, name, start, end, parent=None, thread=1, **attrs):
    return {"id": id, "name": name, "parent": parent, "pipeline": None,
            "thread": thread, "start": start, "end": end, "attrs": attrs}


def test_self_time_with_children_on_two_threads():
    trace = [
        span(1, "estimate.coverage_experiment", 0.0, 10.0),
        span(2, "estimate.run_pipeline", 1.0, 6.0, parent=1, thread=2),
        span(3, "estimate.run_pipeline", 2.0, 9.0, parent=1, thread=3),
        span(4, "payoffs.eval", 2.0, 5.0, parent=3, thread=3),
        span(5, "gaussian.draw_samples", 9.5, 11.0, parent=1, thread=2),  # runs past its parent
    ]
    selfs = spans.self_times(trace)
    # children cover [1, 9] and [9.5, 10] of the parent: 8.5 of its 10 s
    assert selfs[1] == pytest.approx(1.5)
    assert selfs[2] == pytest.approx(5.0)
    assert selfs[3] == pytest.approx(4.0)
    assert selfs[4] == pytest.approx(3.0)


def test_tail_percentile_needs_ten_samples_beyond():
    assert spans.tail_percentile(9) is None
    assert spans.tail_percentile(19) is None
    assert spans.tail_percentile(20) == 50.0
    assert spans.tail_percentile(99) == 75.0
    assert spans.tail_percentile(100) == 90.0
    assert spans.tail_percentile(400) == 97.5
    assert spans.tail_percentile(1000) == 99.0
    assert spans.tail_percentile(10_000) == 99.9
    assert spans.percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5
    assert spans.percentile(range(1, 101), 90.0) == pytest.approx(90.1)


def test_passes_per_block_counts_payoff_rows_per_drawn_row():
    trace = [span(1, "gaussian.draw_samples", 0, 1, n=100, d=3, normals=300)]
    trace += [span(2 + k, "payoffs.eval", 1, 2, rows=100, elements=300) for k in range(5)]
    assert spans.passes_per_block(trace) == 5.0
    assert spans.passes_per_block([]) == 0.0


def _report(mode, price, variance=1e-8, n=10_000, fallback=False):
    return SimpleNamespace(mode=mode, price=price, variance=variance, n=n, fallback=fallback,
                           ci_low=price - 0.02, ci_high=price + 0.02, level=0.95)


REFS = {"w": {"r": {"crude": {"mean": 1.0, "se": 0.0, "sd": 0.01},
                    "ris": {"mean": 1.0, "se": 0.0, "sd": 0.001}}}}


def test_ops_failed_counts_each_kind_of_miss_once():
    ops = [
        ("r", "crude", _report("crude", 1.0), None),
        ("r", "ris", _report("ris", 1.001), None),  # passes
        ("r", "ris", None, "ris: boom"),  # error row
        ("r", "ris", _report("ris", 1.0, fallback=True), None),  # fallback
        ("r", "ris", _report("ris", math.nan), None),  # non-finite
        ("r", "ris", _report("ris", 1.2), None),  # far from the reference
    ]
    failed, messages = workload.gate("w", ops, None, 0.95, None, REFS)
    assert failed == 4
    assert len(messages) == 4


def test_tilted_price_is_checked_against_crude_of_its_row():
    # Within the frozen reference band, but the crude row is far off.
    refs = {"w": {"r": {"crude": {"mean": 1.0, "se": 0.0, "sd": 0.001},
                        "ris": {"mean": 1.0, "se": 0.0, "sd": 0.001}}}}
    ops = [("r", "crude", _report("crude", 1.004), None),
           ("r", "ris", _report("ris", 0.996), None)]
    failed, messages = workload.gate("w", ops, None, 0.95, None, refs)
    assert failed == 1
    assert messages[0].startswith("r/ris: against crude")


def test_coverage_band_miss_counts_as_one_failure():
    ops = [("d", "ris", _report("ris", 0.05, variance=1e-4, n=100_000), None)]
    coverage = SimpleNamespace(replications=400, failures=0, hits=330)
    failed, _ = workload.gate("digital-coverage", ops, coverage, 0.95, 0.05, {})
    assert failed == 1
    coverage.hits = 380
    assert workload.gate("digital-coverage", ops, coverage, 0.95, 0.05, {})[0] == 0


def test_layer_self_times_tile_the_work_phase():
    trace = {"threads": 1, "spans": [
        span(1, "bench.setup", 0.0, 1.0),
        span(2, "config.builtin_experiment", 0.1, 0.9, parent=1),
        span(3, "bench.work", 1.0, 11.0),
        span(4, "cli.run_experiment", 1.0, 10.0, parent=3),
        span(5, "gaussian.draw_samples", 1.0, 3.0, parent=4, n=10, d=2, normals=20),
        span(6, "estimate.run_pipeline", 3.0, 10.0, parent=4, fallback=0),
        span(7, "payoffs.eval", 3.0, 5.0, parent=6, rows=10, elements=20),
        span(8, "cli.emit_report", 10.0, 10.5, parent=3),
    ]}
    m = spans.layer_metrics(trace)
    assert m["trace.wall_s"] == pytest.approx(10.0)
    assert m["trace.accounted_frac"] == pytest.approx(0.95)
    assert m["gaussian.self_s"] == pytest.approx(2.0)
    assert m["estimate.self_s"] == pytest.approx(5.0)
    assert m["cli.self_s"] == pytest.approx(0.5)
    assert m["config.build_s"] == pytest.approx(0.8)
    assert m["estimate.thread_busy_frac"] == pytest.approx(1.0)
    assert m["payoffs.passes_per_block"] == 1.0
    assert m["gaussian.ns_per_normal"] == pytest.approx(1e8)
    assert set(m) | {"trace.overhead_frac"} == set(run.PER_LAYER)


def test_benchmark_json_matches_the_metric_tables():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == run.PER_LAYER
