"""Smoke test of the package API that the benchmark workloads drive.

Claims:
    - ``perfbench/workload.py`` can build each workload's rows, shrink them
      with ``with_overrides(n=...)`` and run its work phase through the
      public API, with no error row and a non-empty rendered report
    - its tracing hooks find every layer function they wrap, so a renamed
      function fails here instead of silently losing its spans

This checks the interface only. The statistical gate needs the full sample
sizes and is not run here.
"""

import sys
from pathlib import Path

import pytest

import tiltmc
import tiltmc.cli  # noqa: F401  (binds tiltmc.cli and tiltmc.config)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workload  # noqa: E402


@pytest.mark.parametrize(
    "name, n", [("table4", 2_000), ("basket-ris", 1_000), ("digital-coverage", 1_000)]
)
def test_workload_runs_through_public_api(name, n):
    config = tiltmc.config
    rows = [
        config.ExperimentRow(label=row.label, spec=config.with_overrides(row.spec, n=n))
        for row in workload.build_rows(tiltmc, name, seed=7)
    ]
    ops, text, coverage = workload.run_work(tiltmc, name, rows)
    assert ops
    assert [error for _, _, report, error in ops if report is None] == []
    assert all(report.n == n for _, _, report, _ in ops)
    assert text.strip()
    assert (coverage is not None) == (name == "digital-coverage")


def test_runs_resolve_layer_functions_on_the_estimate_module(monkeypatch):
    counts = dict.fromkeys(("draw_samples", "precompute_weights", "run_pipeline"), 0)
    for name in counts:

        def counted(*args, _inner=getattr(tiltmc.estimate, name), _name=name, **kwargs):
            counts[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(tiltmc.estimate, name, counted)

    rows = tiltmc.config.builtin_experiment("table4", n=500)  # 3 rows x crude, ris, rris
    results = tiltmc.cli.run_experiment("table4", rows)
    assert all(r.report is not None for r in results)
    assert counts == {"draw_samples": 3, "precompute_weights": 3, "run_pipeline": 9}

    (row,) = tiltmc.config.builtin_experiment("digital-coverage", n=500)
    counts.update(dict.fromkeys(counts, 0))
    tiltmc.estimate.coverage_experiment(
        row.spec.payoff(), "ris", 500, 7, 0.1, replications=4, drift=row.spec.drift()
    )
    assert counts == {"draw_samples": 4, "precompute_weights": 4, "run_pipeline": 4}


SPAN_NAMES = {
    "cli.emit_coverage",
    "cli.emit_report",
    "cli.reference_price",
    "cli.run_experiment",
    "config.builtin_experiment",
    "config.drift",
    "config.parse_config",
    "config.payoff",
    "config.with_overrides",
    "drift.apply_adjoint",
    "estimate.coverage_experiment",
    "estimate.run_pipeline",
    "estimate.tilted_terms",
    "gaussian.draw_samples",
    "optimize.newton_minimize",
    "optimize.precompute_weights",
    "payoffs.eval",
}


def test_tracing_hooks_wrap_every_layer_function():
    # ``install_tracing`` skips an attribute it cannot find. This tracer
    # returns each function unwrapped, so the package is left as it was.
    names = []

    class Recorder:
        def wrap(self, name, fn, attrs=None):
            names.append(name)
            return fn

    workload.install_tracing(Recorder(), tiltmc)
    assert sorted(names) == sorted(SPAN_NAMES)
