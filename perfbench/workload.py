"""One workload process: set up, run the work phase, check the outputs.

Run by ``run.py``, one fresh process per sample, with ``src`` on
PYTHONPATH and BLAS pinned to one thread:

    python3 perfbench/workload.py --workload table4 --seed 7 --mode plain

``--mode setup`` stops once set-up is done; ``--mode traced`` wraps the
public layer functions in spans and writes them to ``--spans``. The last
stdout line is one JSON object with the monotonic time at which set-up
finished (``run.py`` subtracts its own launch time) and, unless in setup
mode, the work-phase wall time, peak RSS, CI width and op counts.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("table4", "digital-coverage", "basket-ris")
THREADS = {"table4": 1, "digital-coverage": 2, "basket-ris": 1}
COVERAGE_REPLICATIONS = 400

# Bands of the correctness gate. A price misses when it is further than
# Z_PRICE combined standard errors from its reference; the coverage study
# misses when the share of intervals holding the closed-form price is
# further than Z_COVERAGE binomial standard deviations from the level.
Z_PRICE = 5.0
Z_COVERAGE = 4.5


def _load_references() -> dict:
    with open(HERE / "references.json", encoding="utf-8") as handle:
        return json.load(handle)["prices"]


# --- tracing hooks --------------------------------------------------------------


def install_tracing(tracer, tiltmc):
    """Wrap each layer function at the attribute its caller resolves."""
    cli, config, estimate = tiltmc.cli, tiltmc.config, tiltmc.estimate
    drift_mod, payoffs = tiltmc.drift, tiltmc.payoffs

    def draw_attrs(args, kwargs, block):
        n, d = block.values.shape
        return {"n": n, "d": d, "normals": n * d}

    def eval_attrs(args, kwargs, values):
        shape = getattr(args[1], "shape", ())
        rows = 1 if len(shape) <= 1 else int(math.prod(shape[:-1]))
        return {"rows": rows, "elements": rows * args[0].dim}

    def newton_attrs(args, kwargs, result):
        return {"iterations": result.iterations, "safeguarded": int(result.safeguarded)}

    def weights_attrs(args, kwargs, table):
        return {"n": table.n, "nonzero": table.nonzero}

    def pipeline_attrs(args, kwargs, report):
        return {"fallback": int(report.fallback)}

    shared = {}  # one wrapper per function, whichever attribute it sits at

    def wrap_attr(owner, attr, name, attrs=None):
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        key = getattr(fn, "__wrapped__", fn)
        if key not in shared:
            shared[key] = tracer.wrap(name, fn, attrs)
        setattr(owner, attr, shared[key])

    for attr in ("builtin_experiment", "parse_config", "with_overrides"):
        wrap_attr(config, attr, f"config.{attr}")
    wrap_attr(config.ExperimentSpec, "payoff", "config.payoff")
    wrap_attr(config.ExperimentSpec, "drift", "config.drift")
    for module in (cli, estimate):
        wrap_attr(module, "draw_samples", "gaussian.draw_samples", draw_attrs)
        wrap_attr(module, "run_pipeline", "estimate.run_pipeline", pipeline_attrs)
    wrap_attr(payoffs.Payoff, "__call__", "payoffs.eval", eval_attrs)
    pending = [drift_mod.DriftMap]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "apply_adjoint" in vars(cls):
            wrap_attr(cls, "apply_adjoint", "drift.apply_adjoint")
    wrap_attr(estimate, "precompute_weights", "optimize.precompute_weights", weights_attrs)
    wrap_attr(estimate, "newton_minimize", "optimize.newton_minimize", newton_attrs)
    wrap_attr(estimate, "tilted_terms", "estimate.tilted_terms")
    wrap_attr(estimate, "coverage_experiment", "estimate.coverage_experiment")
    wrap_attr(cli, "run_experiment", "cli.run_experiment")
    wrap_attr(cli, "emit_report", "cli.emit_report")
    wrap_attr(cli, "reference_price", "cli.reference_price")
    wrap_attr(cli, "_emit_coverage", "cli.emit_coverage")


# --- set-up and work phases -------------------------------------------------------


def build_rows(tiltmc, workload: str, seed: int):
    """The workload's experiment rows.

    Set-up also constructs each row's payoff and drift once, which checks
    them; the work phase builds them again where the CLI does, inside
    ``run_experiment`` or the coverage command.
    """
    config = tiltmc.config
    if workload == "basket-ris":
        spec = config.with_overrides(config.parse_config(HERE / "basket_ris.cfg"), seed=seed)
        rows = [config.ExperimentRow(label="basket-ris", spec=spec)]
    else:
        rows = config.builtin_experiment(workload, seed=seed)
    for row in rows:
        row.spec.payoff()
        row.spec.drift()
    return rows


def digital_reference(tiltmc, spec) -> float:
    model = spec.model
    return tiltmc.oracles.bs_digital_price(
        float(model.spot[0]), spec.claim.level, model.rate, float(model.vol[0]), model.maturity
    )


def run_work(tiltmc, workload: str, rows):
    """Run the work phase as the CLI does; return (ops, rendered text, coverage).

    An op is (label, mode, report or None, error text or None).
    """
    cli = tiltmc.cli
    if workload != "digital-coverage":
        results = cli.run_experiment(workload, rows, threads=THREADS[workload])
        text = cli.emit_report(results, rows[0].spec.out_format)
        ops = [(r.label, r.report.mode if r.report else None, r.report, r.error) for r in results]
        return ops, text, None

    # The coverage command: reference, payoff and drift, replications, report.
    row = rows[0]
    spec, mode = row.spec, row.spec.modes[0]
    reference = cli.reference_price(spec)
    captured = []
    inner = tiltmc.estimate.run_pipeline

    def capture(*args, **kwargs):
        report = inner(*args, **kwargs)
        captured.append(report)
        return report

    tiltmc.estimate.run_pipeline = capture
    try:
        result = tiltmc.estimate.coverage_experiment(
            spec.payoff(),
            mode,
            spec.n,
            spec.seed,
            reference,
            replications=COVERAGE_REPLICATIONS,
            drift=spec.drift(),
            level=spec.level,
            threads=THREADS[workload],
        )
    finally:
        tiltmc.estimate.run_pipeline = inner
    emit = getattr(cli, "_emit_coverage", None)  # the coverage command's renderer
    if emit is not None:
        text = emit(workload, row.label, mode, spec, reference, result, spec.out_format)
    else:
        text = f"{workload} {row.label} {mode}: {result}\n"
    ops = [(row.label, r.mode, r, None) for r in captured]
    ops += [(row.label, mode, None, "replication raised")] * result.failures
    return ops, text, result


# --- correctness gate -------------------------------------------------------------


def _std_error(report) -> float:
    return math.sqrt(report.variance / report.n)


def report_problem(report, error) -> str | None:
    """Why one op fails on its own: an error row, a fallback or a
    non-finite output."""
    if report is None:
        return f"error row: {error}"
    if report.fallback:
        return "fallback to the untilted estimate"
    values = (report.price, report.variance, report.ci_low, report.ci_high)
    if not all(math.isfinite(v) for v in values):
        return "non-finite output"
    return None


def price_miss(price, se, ref_price, ref_se, z=Z_PRICE) -> str | None:
    band = z * math.hypot(se, ref_se)
    if abs(price - ref_price) > band:
        return f"price {price:.6g} vs {ref_price:.6g} outside +-{band:.3g}"
    return None


def coverage_miss(hits: int, effective: int, level: float, z=Z_COVERAGE) -> str | None:
    if effective < 1:
        return "no replication succeeded"
    half = z * math.sqrt(level * (1.0 - level) / effective)
    share = hits / effective
    if abs(share - level) > half:
        return f"coverage {share:.4f} outside {level} +- {half:.4f}"
    return None


def gate(workload: str, ops, coverage, level: float, reference: float | None, references: dict):
    """Return (failed op count, failure messages) for one work phase.

    Each op fails on an error row, a fallback, a non-finite output or a
    price outside its band: the closed form for the digital, else the
    frozen reference of its (row, mode) and the crude price of its row. A
    price's spread is the larger of its own standard error and the frozen
    single-run spread of its pipeline. A coverage study outside its binomial
    band counts as one more failure.
    """
    messages = []
    failed = 0
    refs = references.get(workload, {})
    crude = {label: rep for label, mode, rep, _ in ops if mode == "crude" and rep is not None}
    for label, mode, rep, error in ops:
        problem = report_problem(rep, error)
        if problem is None and workload == "digital-coverage":
            problem = price_miss(rep.price, _std_error(rep), reference, 0.0)
        elif problem is None:
            ref = refs[label][mode]
            spread = max(_std_error(rep), ref["sd"])
            problem = price_miss(rep.price, spread, ref["mean"], ref["se"])
            base = crude.get(label)
            if problem is None and mode != "crude" and base is not None:
                base_spread = max(_std_error(base), refs[label]["crude"]["sd"])
                problem = price_miss(rep.price, spread, base.price, base_spread)
                if problem:
                    problem = "against crude: " + problem
        if problem:
            failed += 1
            messages.append(f"{label}/{mode}: {problem}")
    if coverage is not None:
        problem = coverage_miss(coverage.hits, coverage.replications - coverage.failures, level)
        if problem:
            failed += 1
            messages.append(problem)
    return failed, messages


def ci_halfwidth_rel(ops) -> float:
    """Median over tilted, non-fallback pipelines of CI half-width / |price|."""
    ratios = [
        0.5 * (rep.ci_high - rep.ci_low) / abs(rep.price)
        for _, mode, rep, _ in ops
        if rep is not None and mode != "crude" and not rep.fallback and rep.price != 0.0
    ]
    return statistics.median(ratios) if ratios else float("nan")


# --- provenance -------------------------------------------------------------------


def provenance(np, scipy) -> dict:
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.25 has no dict mode
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def input_sizes(workload: str, rows) -> dict:
    spec = rows[0].spec
    if workload == "digital-coverage":
        pipelines = COVERAGE_REPLICATIONS
        normals = COVERAGE_REPLICATIONS * spec.n * spec.dim
    else:
        pipelines = sum(len(r.spec.modes) for r in rows)
        normals = sum(
            r.spec.n * r.spec.dim * (1 + r.spec.modes.count("two_stage")) for r in rows
        )
    return {
        "rows": len(rows),
        "n": spec.n,
        "d": spec.dim,
        "d_reduced": spec.d_reduced,
        "modes": list(spec.modes),
        "threads": THREADS[workload],
        "pipelines": pipelines,
        "normals_drawn": normals,
    }


# --- entry point --------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced", "setup"), required=True)
    parser.add_argument("--spans", help="span output file (traced mode)")
    args = parser.parse_args(argv)

    tracer = None
    phase = lambda name: contextlib.nullcontext()  # noqa: E731
    if args.mode == "traced":
        from spans import Tracer

        tracer = Tracer()
        phase = tracer.span

    import numpy as np
    import scipy
    import tiltmc
    import tiltmc.cli  # noqa: F401  (binds tiltmc.cli and tiltmc.config)

    if tracer is not None:
        install_tracing(tracer, tiltmc)
    with phase("bench.setup"):
        rows = build_rows(tiltmc, args.workload, args.seed)
    ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    references = _load_references()
    reference = None
    if args.workload == "digital-coverage":
        reference = digital_reference(tiltmc, rows[0].spec)
    started = time.perf_counter()
    with phase("bench.work"):
        ops, text, coverage = run_work(tiltmc, args.workload, rows)
    wall = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed, messages = gate(
        args.workload, ops, coverage, rows[0].spec.level, reference, references
    )
    if tracer is not None:
        tracer.dump(args.spans, workload=args.workload, threads=THREADS[args.workload])
    record = {
        "ready": ready,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "ci_halfwidth_rel": ci_halfwidth_rel(ops),
        "ops": len(ops),
        "ops_failed": failed,
        "failures": messages,
        "report_bytes": len(text),
        "provenance": provenance(np, scipy),
        "sizes": input_sizes(args.workload, rows),
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
