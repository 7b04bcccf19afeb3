"""tiltmc benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload table4 --seed 7 --seconds 40 --trace 0

Run from a checkout of the repository; the package is imported from
``src``. For ``--seconds`` seconds it launches fresh workload processes
(``workload.py``) one after another, with BLAS pinned to one thread:

* ``--trace 0``: untraced workload processes, each followed by two
  set-up-only processes. Reports the medians of ``wall_s``, ``setup_s``,
  ``peak_rss_mb`` and ``ci_halfwidth_rel``.
* ``--trace 1``: untraced and traced processes in turn. The traced ones
  write their spans to ``.perfbench_out/``; the per-layer metrics are
  derived from those files, as medians over the traced processes.

Every workload process runs the correctness gate. The last stdout line is
one JSON object: ``correct``, ``attempted`` (ops, i.e. pipelines run),
``failed`` (ops that missed the gate) and ``metrics``. The lines before it
give every metric with its unit and quartiles, and the run's provenance;
the same goes to ``.perfbench_out/result-<workload>-<seed>-<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("table4", "digital-coverage", "basket-ris")
CHILD_TIMEOUT_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "ci_halfwidth_rel": "ratio"}

# name -> (unit, better); metrics other than trace.overhead_frac come from
# spans.layer_metrics.
PER_LAYER = {
    "gaussian.draw_s": ("s", "lower"),
    "gaussian.normals": ("count", "lower"),
    "gaussian.ns_per_normal": ("ns", "lower"),
    "gaussian.block_mb": ("MB_computed", "lower"),
    "payoffs.eval_s": ("s", "lower"),
    "payoffs.rows": ("count", "lower"),
    "payoffs.passes_per_block": ("ratio", "lower"),
    "payoffs.ns_per_element": ("ns", "lower"),
    "optimize.newton_s": ("s", "lower"),
    "optimize.newton_iters": ("count", "lower"),
    "optimize.ms_per_iter": ("ms", "lower"),
    "optimize.safeguarded": ("count", "lower"),
    "optimize.weights_self_s": ("s", "lower"),
    "optimize.nonzero_frac": ("ratio", "higher"),
    "drift.adjoint_s": ("s", "lower"),
    "estimate.pipeline_self_s": ("s", "lower"),
    "estimate.tilted_self_s": ("s", "lower"),
    "estimate.pipelines": ("count", "higher"),
    "estimate.fallbacks": ("count", "lower"),
    "estimate.pipeline_p50_ms": ("ms", "lower"),
    "estimate.pipeline_tail_ms": ("ms", "lower"),
    "estimate.thread_busy_frac": ("ratio", "higher"),
    "config.build_s": ("s", "lower"),
    "cli.emit_s": ("s", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in spans.LAYERS},
    "trace.wall_s": ("s", "lower"),
    "trace.accounted_frac": ("ratio", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
}


class BenchError(RuntimeError):
    pass


def git_commit(root: Path) -> str:
    """Commit of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env[var] = "1"
    return env


def launch(workload: str, seed: int, mode: str, env: dict, spans_path: Path | None = None):
    """Run one workload process to completion; return its record."""
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process timed out after {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} process printed no record")
    record = json.loads(lines[-1])
    record["setup_s"] = record["ready"] - started
    record["process_s"] = time.monotonic() - started
    return record


def run_processes(workload: str, seed: int, seconds: float, trace: bool, env: dict):
    """Launch processes in a fixed cycle until the next one would overrun."""
    cycle = ("plain", "traced") if trace else ("plain", "setup", "setup")
    launch(workload, seed, "setup", env)  # warm the page cache and bytecode; not counted
    records = {kind: [] for kind in cycle}
    deadline = time.monotonic() + seconds
    step = 0
    while True:
        kind = cycle[step % len(cycle)]
        done = records[kind]
        predicted = max((r["process_s"] for r in done), default=0.0)
        if step >= len(cycle) and time.monotonic() + predicted > deadline:
            break
        spans_path = None
        if kind == "traced":
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"spans-{workload}-{seed}-{len(done)}.json"
        record = launch(workload, seed, kind, env, spans_path)
        if spans_path is not None:
            record["spans_file"] = str(spans_path)
        done.append(record)
        step += 1
    return records


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end_metrics(records) -> tuple[dict, list[str]]:
    plain = records["plain"]
    samples = {
        "wall_s": [r["wall_s"] for r in plain],
        "setup_s": [r["setup_s"] for r in plain + records["setup"]],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "ci_halfwidth_rel": [r["ci_halfwidth_rel"] for r in plain],
    }
    metrics, lines = {}, []
    for name, unit in END_TO_END.items():
        values = samples[name]
        value = statistics.median(values)
        q1, q3 = quartiles(values)
        metrics[name] = {"value": value, "unit": unit}
        lines.append(
            f"{name:18s} {value:12.6g} {unit:6s} median of {len(values)}, quartiles {q1:.6g}..{q3:.6g}"
        )
    return metrics, lines


def per_layer_metrics(records) -> tuple[dict, list[str]]:
    traced = []
    lines = []
    for record in records["traced"]:
        with open(record["spans_file"], encoding="utf-8") as handle:
            trace = json.load(handle)
        traced.append(spans.layer_metrics(trace))
        shares = sorted(spans.thread_accounted(trace).values(), reverse=True)
        lines.append("per-thread accounted share of traced wall: " + ", ".join(f"{s:.3f}" for s in shares))
    values = spans.median_metrics(traced)
    plain_wall = statistics.median(r["wall_s"] for r in records["plain"])
    values["trace.overhead_frac"] = values["trace.wall_s"] / plain_wall - 1.0
    pipelines = int(values["estimate.pipelines"])
    tail = spans.tail_percentile(pipelines)
    lines.append(
        f"estimate.pipeline_tail_ms is "
        + (f"p{tail:g}" if tail is not None else "the max (fewer than 20 pipelines)")
        + f" of {pipelines} pipelines per traced process"
    )
    metrics = {}
    for name, (unit, _) in PER_LAYER.items():
        metrics[name] = {"value": values[name], "unit": unit}
        lines.append(f"{name:28s} {values[name]:14.6g} {unit}  (median of {len(traced)})")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tiltmc benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "tiltmc" / "__init__.py").is_file():
        print(f"perfbench: no tiltmc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        records = run_processes(args.workload, args.seed, args.seconds, bool(args.trace), child_env())
        if args.trace:
            metrics, lines = per_layer_metrics(records)
        else:
            metrics, lines = end_to_end_metrics(records)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    work = [r for kind in ("plain", "traced") for r in records.get(kind, [])]
    attempted = sum(r["ops"] for r in work)
    failed = sum(r["ops_failed"] for r in work)
    for message in sorted({m for r in work for m in r["failures"]}):
        print(f"gate miss: {message}", file=sys.stderr)
    provenance = dict(
        work[0]["provenance"],
        commit=git_commit(ROOT),
        seed=args.seed,
        workload=args.workload,
        sizes=work[0]["sizes"],
        processes={kind: len(rs) for kind, rs in records.items()},
    )
    lines.append(f"ops                {attempted:12d} count")
    lines.append(f"ops_failed         {failed:12d} count")
    lines.append("provenance " + json.dumps(provenance, sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-{args.seed}-{args.trace}.json", "w", encoding="utf-8") as handle:
        json.dump(dict(result, provenance=provenance, records=records), handle, indent=1)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
