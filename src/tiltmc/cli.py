"""Batch command-line front end.

Subcommands:

* ``price <config>`` -- run one config and print a human-readable report
  per mode.
* ``experiment <name|config>`` -- run a builtin parameter grid (or a config
  file) and emit one row per parameter set per mode, as aligned text or CSV.
* ``coverage <config|name>`` -- for each parameter row, replicate the run
  with distinct stream ids, every listed mode on each replication's one
  block, and report how often each mode's interval contains the row's
  reference price.

Exit codes: 0 on success, 2 on configuration errors, 3 on numerical
failures (``price`` and ``coverage``; ``experiment`` batches record row
failures inline in the output and keep going). ``TILTMC_SEED`` and
``TILTMC_THREADS`` override the seed and worker count when the flags are
absent; invalid values exit 2 like invalid flags. Rows are dispatched to
worker threads but emitted in config order.
CSV omits the wall-time column unless ``--timings`` is given, so
equal-seed runs emit byte-identical files regardless of thread count.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from dataclasses import dataclass

import numpy as np

from .config import (
    BUILTIN_NAMES,
    ExperimentRow,
    ExperimentSpec,
    builtin_experiment,
    parse_config,
    with_overrides,
)
from .errors import ConfigError, TiltmcError
from .estimate import (
    CSV_COLUMNS,
    CoverageResult,
    EstimateReport,
    _coverage,
    fmt17,
    map_threads,
    run_block,
)
from .gaussian import RngStream, normal_draws
from .oracles import bs_call_price, bs_digital_price, bs_put_price
from .payoffs import Basket, BlackScholesMulti, Digital, chunk_rows

__all__ = ["main", "run_experiment", "emit_report", "reference_price"]

_REFERENCE_STREAM_ID = 999_983  # reserved; coverage replication ids stay below it


@dataclass(frozen=True)
class ResultRow:
    experiment: str
    label: str
    report: EstimateReport | None
    error: str | None = None


def run_experiment(
    name: str, rows: list[ExperimentRow], *, threads: int = 1, record_failures: bool = True
) -> list[ResultRow]:
    """Run every (parameter row, mode) pipeline and keep config order.

    Each parameter row is one :func:`run_block` on its own stream id (the
    row index): one block and one payoff evaluation, shared by all its
    modes. Rows run concurrently when threads > 1. Numerical failures are
    recorded inline as error rows and the batch continues, unless
    ``record_failures`` is False: then the row's first error is raised.
    """

    def run_row(index_row):
        index, row = index_row
        spec = row.spec
        outcomes = run_block(
            spec.payoff(), spec.drift(), RngStream(spec.seed, index), spec.n, spec.modes,
            level=spec.level,
        )
        results = []
        for mode, outcome in zip(spec.modes, outcomes):
            if isinstance(outcome, EstimateReport):
                results.append(ResultRow(name, row.label, outcome))
            elif record_failures:
                results.append(ResultRow(name, row.label, None, f"{mode}: {outcome}"))
            else:
                raise outcome
        return results

    return [item for chunk in map_threads(run_row, enumerate(rows), threads) for item in chunk]


def emit_report(rows: list[ResultRow], fmt: str, *, timings: bool = False) -> str:
    """Render result rows as aligned text or CSV.

    CSV uses a header row, '.' decimal separator and 17 significant digits,
    so re-parsing reproduces every float bit-exactly.
    """
    if fmt == "csv":
        records = [["experiment", "row", *CSV_COLUMNS, "wall_time", "error"]]
        for row in rows:
            if row.report is None:
                cells = [""] * (len(CSV_COLUMNS) + 1) + [row.error or "failed"]
            else:
                cells = row.report.to_csv_row() + [fmt17(row.report.wall_time), ""]
            records.append([row.experiment, row.label, *cells])
        if not timings:  # the wall-time column is opt-in
            for record in records:
                del record[-2]
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(records)
        return buffer.getvalue()

    header = ["row", "mode", "n", "price", "variance", "ci_low", "ci_high", "iters", "time_s"]
    table = [header]
    for row in rows:
        rep = row.report
        if rep is None:
            table.append([row.label, "ERROR", row.error or "failed", "", "", "", "", "", ""])
            continue
        table.append(
            [
                row.label,
                rep.mode + ("*" if rep.fallback else ""),
                str(rep.n),
                f"{rep.price:.6f}",
                f"{rep.variance:.6f}" + ("c" if rep.variance_clamped else ""),
                f"{rep.ci_low:.6f}",
                f"{rep.ci_high:.6f}",
                str(0 if rep.optim is None else rep.optim.iterations),
                f"{rep.wall_time:.3f}",
            ]
        )
    widths = [max(len(line[i]) for line in table) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip() for line in table]
    return "\n".join(lines) + "\n"


def reference_price(spec: ExperimentSpec, *, n_ref: int = 2_000_000) -> float:
    """Reference value for coverage runs: closed form when available,
    otherwise an untilted estimate on a reserved high-n stream.

    The closed forms cover one lognormal asset: a digital, and a
    basket without barriers whose weight w and strike K have w K > 0,
    which is |w| times the call (w > 0) or put (w < 0) struck at K / w.
    """
    model, claim = spec.model, spec.claim
    payoff = spec.payoff()  # checks the claim against the model first
    if isinstance(model, BlackScholesMulti) and model.n_assets == 1:
        spot = float(model.spot[0])
        vol = float(model.vol[0])
        rate, maturity = model.rate, model.maturity
        if isinstance(claim, Digital):  # a below digital pays the bond less the above one
            above = bs_digital_price(spot, claim.level, rate, vol, maturity)
            return above if claim.above else float(np.exp(-rate * maturity)) - above
        if isinstance(claim, Basket) and claim.barriers is None:
            w = float(np.ravel(claim.weights)[0])
            if w * claim.strike > 0:
                price = bs_call_price if w > 0 else bs_put_price
                return abs(w) * price(spot, claim.strike / w, rate, vol, maturity)
    stream = RngStream(spec.seed, _REFERENCE_STREAM_ID)
    rows_per_draw = chunk_rows(payoff.dim)
    total = 0.0
    for done in range(0, n_ref, rows_per_draw):
        m = min(rows_per_draw, n_ref - done)
        draws = normal_draws(stream, m * payoff.dim, offset=done * payoff.dim)
        total += float(np.sum(payoff(draws.reshape(m, payoff.dim))))
    return total / n_ref


def _emit_coverage(
    name: str, label: str, mode: str, spec: ExperimentSpec,
    reference: float, result: CoverageResult, fmt: str,
) -> str:
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(
            ["experiment", "row", "mode", "n", "level", "replications",
             "hits", "failures", "empirical_level", "reference"]
        )
        writer.writerow(
            [name, label, mode, str(spec.n), fmt17(spec.level), str(result.replications),
             str(result.hits), str(result.failures),
             fmt17(result.empirical_level), fmt17(reference)]
        )
        return buffer.getvalue()
    return (
        f"coverage of {name} [{label}] mode={mode} n={spec.n} level={spec.level}\n"
        f"reference        {reference:.6f}\n"
        f"replications     {result.replications} ({result.failures} failed)\n"
        f"hits             {result.hits}\n"
        f"empirical level  {result.empirical_level:.4f}\n"
    )


def _positive_int(value: str) -> int:
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return parsed


def _seed(value: str) -> int:
    try:
        return RngStream(int(value)).seed
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid seed {value!r}: {exc}") from exc


def _env_override(parser, name: str, convert):
    """Parse environment variable ``name`` with a flag's converter; exit 2 if invalid."""
    raw = os.environ.get(name)
    if not raw:
        return None
    try:
        return convert(raw)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        parser.error(f"{name}={raw!r}: {exc}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tiltmc",
        description="Adaptive importance-sampling Monte Carlo for Gaussian payoffs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=_positive_int, help="override sample count per run")
        p.add_argument("--seed", type=_seed, help="override the base seed")
        p.add_argument("--modes", nargs="+", help="override the mode list")
        p.add_argument("--format", choices=("text", "csv"), help="output format")
        p.add_argument("--out", help="write the report to this file instead of stdout")
        p.add_argument("--threads", type=_positive_int, help="worker threads (default 1)")

    price = sub.add_parser("price", help="run a single config and print a report per mode")
    price.add_argument("config")
    common(price)

    experiment = sub.add_parser(
        "experiment",
        help=f"run a builtin grid ({', '.join(BUILTIN_NAMES)}) or a config file",
    )
    experiment.add_argument("target")
    common(experiment)
    experiment.add_argument(
        "--timings", action="store_true", help="include the wall-time column in CSV output"
    )

    coverage = sub.add_parser("coverage", help="replicate a pipeline and report CI coverage")
    coverage.add_argument("target")
    common(coverage)
    coverage.add_argument("--replications", type=_positive_int, help="number of replications")
    return parser


def _load_rows(target: str, args) -> tuple[str, list[ExperimentRow]]:
    overrides = dict(n=args.n, seed=args.seed, modes=tuple(args.modes) if args.modes else None)
    if target in BUILTIN_NAMES:
        return target, builtin_experiment(target, **overrides)
    spec = with_overrides(parse_config(target), **overrides)
    return target, [ExperimentRow(label="config", spec=spec)]


def _write(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = _env_override(parser, "TILTMC_SEED", _seed)
    threads = args.threads or _env_override(parser, "TILTMC_THREADS", _positive_int) or 1

    try:
        if args.command == "price":
            name, rows = _load_rows(args.config, args)
            fmt = args.format or rows[0].spec.out_format
            results = run_experiment(name, rows, threads=threads, record_failures=False)
            if fmt == "csv":
                _write(emit_report(results, "csv"), args.out)
            else:
                reports = iter(result.report for result in results)
                blocks = []
                for row in rows:  # each row's description, then a block per mode
                    blocks.append(row.spec.describe())
                    blocks += [
                        f"--- {row.label} / {report.mode} ---\n{report.format_block()}"
                        for report in (next(reports) for _ in row.spec.modes)
                    ]
                _write("\n\n".join(blocks) + "\n", args.out)
            return 0

        if args.command == "experiment":
            name, rows = _load_rows(args.target, args)
            fmt = args.format or rows[0].spec.out_format
            results = run_experiment(name, rows, threads=threads)
            _write(emit_report(results, fmt, timings=args.timings), args.out)
            return 0

        # coverage
        name, rows = _load_rows(args.target, args)
        replications = args.replications or rows[0].spec.replications
        if replications is None:
            raise ConfigError(
                "coverage needs --replications or a 'replications' key in [run]",
                field="replications",
            )
        if replications > _REFERENCE_STREAM_ID:
            raise ConfigError(
                f"at most {_REFERENCE_STREAM_ID} replications: replication r draws "
                f"stream r, and stream {_REFERENCE_STREAM_ID} is the reference price's",
                field="replications",
            )
        fmt = args.format or rows[0].spec.out_format
        blocks = []
        for row in rows:
            spec = row.spec
            reference = reference_price(spec)
            results = _coverage(
                spec.payoff(), spec.drift(), spec.n, spec.seed, spec.modes, reference,
                replications, spec.level, threads,
            )
            blocks += [
                _emit_coverage(name, row.label, mode, spec, reference, result, fmt)
                for mode, result in zip(spec.modes, results)
            ]
        if fmt == "csv":  # one header, then one row per (parameter row, mode)
            blocks[1:] = [block.split("\n", 1)[1] for block in blocks[1:]]
        _write("".join(blocks) if fmt == "csv" else "\n".join(blocks), args.out)
        return 0

    except (ConfigError, OSError) as exc:
        print(f"tiltmc: config error: {exc}", file=sys.stderr)
        return 2
    except TiltmcError as exc:
        print(f"tiltmc: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
