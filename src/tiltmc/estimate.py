"""Tilted Monte Carlo estimators, confidence intervals, and pipelines.

The estimator of E[f(G)] under a drift theta is

    M_n(theta) = (1/n) sum_i f(G_i + theta) exp(-theta . G_i - |theta|^2/2),

unbiased for any fixed theta. The pipelines tune theta on the same stored
samples (modes ``ris`` and ``rris``), on the other half of them
(``two_stage``, cross-fitted), or not at all (``crude``), and attach a CLT
interval. Its second moment is the variance proxy v_n at the optimum where
the tilt was tuned on the same samples, and otherwise the summands' sample
second moment.
"""

from __future__ import annotations

import ctypes
import functools
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .drift import DriftMap, identity_map
from .errors import (
    ConvergenceFailure,
    DegeneratePayoff,
    DimensionMismatch,
    NonFiniteEstimate,
    TiltmcError,
)
from .gaussian import RngStream, draw_samples
from .optimize import OptimResult, WeightTable, newton_minimize, precompute_weights
from .payoffs import Payoff, chunk_rows

__all__ = [
    "MODES",
    "EstimateReport",
    "CoverageResult",
    "tilted_terms",
    "variance_estimate",
    "confidence_interval",
    "run_pipeline",
    "run_block",
    "coverage_experiment",
]

MODES = ("crude", "ris", "rris", "two_stage")

CSV_COLUMNS = (
    "mode",
    "n",
    "price",
    "variance",
    "variance_clamped",
    "ci_low",
    "ci_high",
    "level",
    "iterations",
    "grad_norm",
    "theta_norm",
    "safeguarded",
    "fallback",
)


def tilted_terms(table: WeightTable, theta) -> np.ndarray:
    """Per-sample summands f(G_i + theta) exp(-theta . G_i - |theta|^2/2)."""
    samples = table.samples
    theta = np.asarray(theta, dtype=np.float64).reshape(-1)
    if theta.size != samples.d:
        raise ValueError(f"theta has length {theta.size}, samples have dimension {samples.d}")
    if not theta.any():
        # Zero tilt: the weights are exactly one, so the summands are f(G_i).
        terms = table.values
    else:
        # One chunk at a time, each chunk's summands formed in place in one
        # n-vector: f at the shifted chunk, then that chunk's likelihood ratio.
        # Chunks start on 64-row boundaries, so each row's dot product has the
        # bits of one whole-block product; np.dot, not @, since numpy's matmul
        # takes a per-row loop on a one-column block.
        half_square = 0.5 * float(theta @ theta)
        step = chunk_rows(samples.d)
        terms = None
        for lo in range(0, samples.n, step):
            chunk = samples.values[lo : lo + step]
            values = table.payoff(chunk + theta)
            if terms is None:
                # Taken after the first chunk's payoff, not before: on a block of
                # few chunks (d = 1) that payoff's temporaries set the peak, and
                # an n-vector held through them raised the peak RSS of d = 1,
                # n = 100k coverage runs on 2 threads by 1.4 MiB.
                terms = np.empty(samples.n)
            out = terms[lo : lo + step]
            np.dot(chunk, theta, out=out)
            np.negative(out, out=out)
            out -= half_square
            np.exp(out, out=out)
            out *= values
    if not np.isfinite(terms).all():
        raise NonFiniteEstimate("Monte Carlo summand is not finite; check the payoff and the tilt")
    return terms


def variance_estimate(v_at_min: float, price: float) -> tuple[float, bool]:
    """Asymptotic-variance estimate: second moment minus M_n^2, clamped at zero.

    With the same-sample second moment v_n(theta_n) the raw difference
    converges to the true optimal variance but can dip below zero for
    small n; the clamp flag records that this happened.
    """
    if v_at_min < 0:
        raise ValueError("v_at_min must be nonnegative")
    raw = v_at_min - price * price
    if raw < 0.0:
        return 0.0, True
    return float(raw), False


def confidence_interval(price: float, variance: float, n: int, level: float) -> tuple[float, float]:
    """Central-limit interval price +- z_{(1+level)/2} sqrt(variance / n).

    The quantile comes from the inverse normal CDF (error-function route,
    accurate to double precision), so intervals are bit-stable.
    """
    if variance < 0:
        raise ValueError("variance must be nonnegative")
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    half = ndtri(0.5 * (1.0 + level)) * np.sqrt(variance / n)
    return float(price - half), float(price + half)


def fmt17(x) -> str:
    """A float with 17 significant digits: re-parsing it is bit-exact."""
    return format(float(x), ".17g")


@dataclass(frozen=True, eq=False)
class EstimateReport:
    """Price estimate with its interval, tilt, and optimizer result.

    ``theta`` and ``optim`` are None in crude mode and on fallback; in
    ``two_stage`` they are those tuned on the first half of the samples.
    ``fallback`` marks a run where the optimizer failed to converge and the
    pipeline degraded to the untilted estimate rather than aborting.
    """

    mode: str
    n: int
    price: float
    variance: float
    variance_clamped: bool
    ci_low: float
    ci_high: float
    level: float
    theta: np.ndarray | None
    optim: OptimResult | None
    fallback: bool
    wall_time: float
    sample_provenance: RngStream

    def to_csv_row(self) -> list[str]:
        if self.optim is None:
            iterations, grad_norm, safeguarded, theta_norm = 0, float("nan"), False, 0.0
        else:
            iterations, grad_norm = self.optim.iterations, self.optim.grad_norm
            safeguarded, theta_norm = self.optim.safeguarded, float(np.linalg.norm(self.theta))
        return [
            self.mode,
            str(self.n),
            fmt17(self.price),
            fmt17(self.variance),
            str(int(self.variance_clamped)),
            fmt17(self.ci_low),
            fmt17(self.ci_high),
            fmt17(self.level),
            str(iterations),
            fmt17(grad_norm),
            fmt17(theta_norm),
            str(int(safeguarded)),
            str(int(self.fallback)),
        ]

    def format_block(self) -> str:
        lines = [
            f"mode            {self.mode}" + ("  [fallback to crude]" if self.fallback else ""),
            f"samples         {self.n}",
            f"price           {self.price:.6f}",
            f"variance        {self.variance:.6f}"
            + ("  (clamped at 0)" if self.variance_clamped else ""),
            f"{100 * self.level:.0f}% interval    [{self.ci_low:.6f}, {self.ci_high:.6f}]",
        ]
        if self.optim is not None:
            with np.printoptions(precision=5, suppress=True, threshold=8):
                lines.append(f"tilt (reduced)  {self.optim.theta}")
            lines.append(
                f"optimizer       {self.optim.iterations} iterations, "
                f"|grad| = {self.optim.grad_norm:.2e}"
                + (", safeguarded" if self.optim.safeguarded else "")
            )
        lines.append(f"wall time       {self.wall_time:.3f} s")
        return "\n".join(lines)


def run_pipeline(
    table: WeightTable, mode: str, drift: DriftMap | None = None, *, level: float = 0.95
) -> EstimateReport:
    """Run one estimation pipeline over a :func:`precompute_weights` table.

    Every mode reads f(G_i) from the table; none evaluates f there again.

    Modes
    -----
    crude
        No tilt; the variance column is the raw second moment minus the
        squared mean.
    ris
        Tilt optimized over the full space (drift argument ignored; the
        identity map is used); the same block feeds the optimizer and the
        final estimate.
    rris
        Same-sample tilt restricted to the supplied drift map's subspace.
    two_stage
        Cross-fitted: the table is split at row n // 2, a tilt is tuned on
        each half in the drift map's subspace as in ``rris`` (the identity
        when none is given), and each half's summands use the tilt tuned on
        the other half. The n summands are pooled in row order. The report
        carries the first half's tilt and optimizer result.

    Every mode evaluates the same estimator M_n by one rule: it is a list
    of row parts, each with the tilt its summands take. Crude and a
    fallback take the whole table untilted, ``ris`` and ``rris`` the whole
    table with its own tilt, and ``two_stage`` the two halves, each with the
    other half's tilt. The second moment is v_n at the optimum, as in the
    paper, when one part took the tilt tuned on it, and otherwise the mean
    of the squared summands. A :class:`ConvergenceFailure` in the optimizer
    (in either half for ``two_stage``) degrades to the crude estimate with
    ``fallback=True`` and a warning instead of raising, so batch runs keep
    going. ``two_stage`` on fewer than 2 rows raises :class:`DegeneratePayoff`.
    """
    started = time.perf_counter()
    samples = table.samples
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    optim = theta = None
    parts, tilts = [table], [np.zeros(samples.d)]
    if mode != "crude":
        if mode == "rris" and drift is None:
            raise ValueError("rris mode needs a drift map; use mode='ris' for the full space")
        if mode == "ris" or drift is None:
            drift = identity_map(samples.d)
        if mode == "two_stage":
            if samples.n < 2:
                raise DegeneratePayoff("two_stage needs n >= 2 samples to tune a tilt on each half")
            parts = [table.rows(0, samples.n // 2), table.rows(samples.n // 2, samples.n)]
        try:
            optims = [newton_minimize(part, drift) for part in parts]
        except ConvergenceFailure as exc:
            parts = [table]  # the fallback: the whole table, untilted
            warnings.warn(
                f"tilt optimization failed ({exc}); falling back to the untilted estimate",
                RuntimeWarning,
                stacklevel=2,
            )
        else:
            optim = optims[0]
            # Each part takes the tilt tuned on the other part; one part takes its own.
            tilts = [drift.apply(result.theta) for result in reversed(optims)]
            theta = tilts[-1]

    terms = [tilted_terms(part, tilt) for part, tilt in zip(parts, tilts)]
    terms = np.concatenate(terms) if len(terms) > 1 else terms[0]
    price = float(terms.mean())
    tuned_here = optim is not None and len(parts) == 1  # tilt tuned on these samples
    second_moment = optim.v_value if tuned_here else float((terms * terms).mean())
    variance, clamped = variance_estimate(second_moment, price)
    low, high = confidence_interval(price, variance, samples.n, level)
    return EstimateReport(
        mode=mode,
        n=samples.n,
        price=price,
        variance=variance,
        variance_clamped=clamped,
        ci_low=low,
        ci_high=high,
        level=level,
        theta=theta,
        optim=optim,
        fallback=mode != "crude" and optim is None,
        wall_time=time.perf_counter() - started,
        sample_provenance=samples.provenance,
    )


def map_threads(fn, items, threads: int) -> list:
    """``[fn(item) for item in items]``, on ``threads`` workers when there is
    more than one of each; results keep the order of ``items``. Each call
    starts its own pool, so a call made on a worker cannot wait for the pool
    it occupies. No item is still running when this returns or raises."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(threads) as pool:  # an error cancels the items not started
        return list(pool.map(fn, items))


def run_block(
    payoff: Payoff, drift: DriftMap | None, stream: RngStream, n: int, modes, *, level: float
) -> list[EstimateReport | TiltmcError]:
    """Draw one n-row block on ``stream``, evaluate ``payoff`` on it once, and
    run every mode on that table. Returns one outcome per mode, in order: its
    report or the :class:`TiltmcError` it raised; an error from the payoff is
    every mode's outcome."""
    _keep_block_memory_mapped()
    table = _outcome(precompute_weights, draw_samples(stream, n, payoff.dim), payoff)
    if isinstance(table, TiltmcError):
        return [table] * len(modes)
    return [_outcome(run_pipeline, table, mode, drift, level=level) for mode in modes]


@functools.cache
def _keep_block_memory_mapped() -> None:
    """Keep freed block-sized arrays in the process heap under glibc.

    By default glibc returns a freed array of a few MB to the kernel, and a
    repeated block faults the same pages back in zeroed (about 1,000 minor
    faults per n = 100k, d = 1 block). Arrays below 32 MiB are taken from the
    heap arenas, which keep up to 64 MiB free at their top; larger arrays
    are still mapped on their own and returned when freed. These are the
    ceiling of glibc's own dynamic mmap threshold and the trim threshold its
    rule pairs with it. The setting is process-wide and is made once;
    without glibc it does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    except (OSError, TypeError, AttributeError):
        pass


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except TiltmcError as exc:
        return exc.with_traceback(None)  # its frames would keep the block alive


@dataclass(frozen=True)
class CoverageResult:
    """Outcome of repeated interval construction against a reference value."""

    replications: int
    hits: int
    failures: int
    empirical_level: float

    def __post_init__(self):
        if not 0 <= self.hits <= self.replications:
            raise ValueError("hits must lie in [0, replications]")

    @classmethod
    def tally(cls, outcomes, reference: float) -> CoverageResult:
        """One mode's :func:`run_block` outcomes, one per replication: errors
        fail, and reports whose interval holds ``reference`` hit."""
        reports = [o for o in outcomes if not isinstance(o, TiltmcError)]
        hits = sum(1 for r in reports if r.ci_low <= reference <= r.ci_high)
        failures = len(outcomes) - len(reports)
        return cls(len(outcomes), hits, failures, hits / len(reports) if reports else float("nan"))


def coverage_experiment(
    payoff: Payoff,
    mode: str,
    n: int,
    seed: int,
    reference: float,
    *,
    replications: int,
    drift: DriftMap | None = None,
    level: float = 0.95,
    threads: int = 1,
) -> CoverageResult:
    """Fraction of replicated confidence intervals containing ``reference``.

    Replication r is :func:`run_block` on stream_id = r, so runs are
    independent and individually reproducible. Replications that fail with a
    :class:`TiltmcError` (e.g. a degenerate payoff on a small block) are
    counted and excluded from the empirical level; other exceptions propagate.
    A drift map that does not fit the payoff is a caller error and raises
    :class:`DimensionMismatch` before the first replication.
    """
    if replications < 1:
        raise ValueError("replications must be >= 1")
    if drift is not None and drift.d != payoff.dim:
        raise DimensionMismatch(
            f"drift map has dimension {drift.d} but the payoff has dimension {payoff.dim}"
        )
    return _coverage(payoff, drift, n, seed, (mode,), reference, replications, level, threads)[0]


def _coverage(payoff, drift, n, seed, modes, reference, replications, level, threads):
    """Each mode's :class:`CoverageResult` over ``replications`` :func:`run_block`
    calls, the r-th on stream (seed, r), every mode on that call's one block."""
    per_replication = map_threads(
        lambda rep: run_block(payoff, drift, RngStream(seed, rep), n, modes, level=level),
        range(replications),
        threads,
    )
    return [CoverageResult.tally(outcomes, reference) for outcomes in zip(*per_replication)]
