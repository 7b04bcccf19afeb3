"""Tilted Monte Carlo estimators, confidence intervals, and pipelines.

The estimator of E[f(G)] under a drift theta is

    M_n(theta) = (1/n) sum_i f(G_i + theta) exp(-theta . G_i - |theta|^2/2),

unbiased for any fixed theta. The pipelines tune theta on the same stored
samples (modes ``ris`` and ``rris``), on an independent stream
(``two_stage``), or not at all (``crude``), and attach an interval based on
the variance proxy evaluated at the optimized parameter.
"""

from __future__ import annotations

import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .drift import DriftMap, identity_map
from .errors import ConvergenceFailure, NonFiniteEstimate, TiltmcError
from .gaussian import RngStream, SampleBlock, draw_samples
from .optimize import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    newton_minimize,
    precompute_weights,
)
from .payoffs import Payoff

__all__ = [
    "MODES",
    "EstimateReport",
    "CoverageResult",
    "tilted_terms",
    "tilted_mean",
    "variance_estimate",
    "confidence_interval",
    "run_pipeline",
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


def tilted_terms(samples: SampleBlock, payoff: Payoff, theta) -> np.ndarray:
    """Per-sample summands f(G_i + theta) exp(-theta . G_i - |theta|^2/2)."""
    theta = np.asarray(theta, dtype=np.float64).reshape(-1)
    if theta.size != samples.d:
        raise ValueError(f"theta has length {theta.size}, samples have dimension {samples.d}")
    if not theta.any():
        # Zero tilt: the weights are exactly one, so return f(G_i) untouched.
        return np.asarray(payoff(samples.values), dtype=np.float64)
    values = np.asarray(payoff(samples.values + theta), dtype=np.float64)
    log_weights = -(samples.values @ theta) - 0.5 * float(theta @ theta)
    terms = values * np.exp(log_weights)
    if not np.isfinite(terms).all():
        raise NonFiniteEstimate("tilted summand is not finite; the drift is too extreme")
    return terms


def tilted_mean(samples: SampleBlock, payoff: Payoff, theta) -> float:
    """Importance-sampling estimate of E[f(G)] at a fixed drift theta.

    Summation is numpy's pairwise reduction over the sample index, so the
    result is reproducible for a given block regardless of worker threads.
    """
    return float(tilted_terms(samples, payoff, theta).mean())


def variance_estimate(v_at_min: float, price: float) -> tuple[float, bool]:
    """Asymptotic-variance estimate v_n(theta_n) - M_n^2, clamped at zero.

    The raw difference converges to the true optimal variance but can dip
    below zero for small n; the clamp flag records that this happened.
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


@dataclass(frozen=True, eq=False)
class EstimateReport:
    """Price estimate with its interval, tilt, and optimizer diagnostics.

    ``theta_reduced`` / ``theta`` are None in crude mode (and on fallback).
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
    theta_reduced: np.ndarray | None
    theta: np.ndarray | None
    iterations: int
    grad_norm: float
    u_value: float
    v_value: float
    safeguarded: bool
    fallback: bool
    wall_time: float
    sample_provenance: RngStream
    optimizer_provenance: RngStream | None

    @staticmethod
    def csv_header() -> list[str]:
        return list(CSV_COLUMNS)

    def to_csv_row(self) -> list[str]:
        def fmt(x):
            return format(float(x), ".17g")

        theta_norm = 0.0 if self.theta is None else float(np.linalg.norm(self.theta))
        return [
            self.mode,
            str(self.n),
            fmt(self.price),
            fmt(self.variance),
            str(int(self.variance_clamped)),
            fmt(self.ci_low),
            fmt(self.ci_high),
            fmt(self.level),
            str(self.iterations),
            fmt(self.grad_norm),
            fmt(theta_norm),
            str(int(self.safeguarded)),
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
        if self.theta_reduced is not None:
            with np.printoptions(precision=5, suppress=True, threshold=8):
                lines.append(f"tilt (reduced)  {self.theta_reduced}")
            lines.append(
                f"optimizer       {self.iterations} iterations, "
                f"|grad| = {self.grad_norm:.2e}"
                + (", safeguarded" if self.safeguarded else "")
            )
        lines.append(f"wall time       {self.wall_time:.3f} s")
        return "\n".join(lines)


def _crude_report(samples, payoff, level, started, *, mode="crude", fallback=False) -> EstimateReport:
    terms = tilted_terms(samples, payoff, np.zeros(samples.d))
    price = float(terms.mean())
    second_moment = float((terms * terms).mean())
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
        theta_reduced=None,
        theta=None,
        iterations=0,
        grad_norm=float("nan"),
        u_value=float("nan"),
        v_value=float("nan"),
        safeguarded=False,
        fallback=fallback,
        wall_time=time.perf_counter() - started,
        sample_provenance=samples.provenance,
        optimizer_provenance=None,
    )


def run_pipeline(
    samples: SampleBlock,
    payoff: Payoff,
    mode: str,
    drift: DriftMap | None = None,
    *,
    level: float = 0.95,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> EstimateReport:
    """Run one estimation pipeline over a stored sample block.

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
        Tilt optimized on an independent stream (stream_id + 1, counter 0);
        the main block is used only for the final estimate.

    A :class:`ConvergenceFailure` in the optimizer degrades to the crude
    estimate with ``fallback=True`` and a warning instead of raising, so
    batch runs keep going.
    """
    started = time.perf_counter()
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if mode == "crude":
        return _crude_report(samples, payoff, level, started)

    if mode == "ris":
        drift = identity_map(samples.d)
    elif drift is None:
        if mode == "rris":
            raise ValueError("rris mode needs a drift map; use mode='ris' for the full space")
        drift = identity_map(samples.d)

    if mode == "two_stage":
        opt_samples = draw_samples(samples.provenance.substream(1), samples.n, samples.d)
    else:
        opt_samples = samples

    weights = precompute_weights(opt_samples, payoff)
    try:
        result = newton_minimize(weights, drift, tol=tol, max_iter=max_iter)
    except ConvergenceFailure as exc:
        warnings.warn(
            f"tilt optimization failed ({exc}); falling back to the untilted estimate",
            RuntimeWarning,
            stacklevel=2,
        )
        return _crude_report(samples, payoff, level, started, mode=mode, fallback=True)

    theta = drift.apply(result.theta)
    price = tilted_mean(samples, payoff, theta)
    variance, clamped = variance_estimate(result.v_value, price)
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
        theta_reduced=result.theta,
        theta=theta,
        iterations=result.iterations,
        grad_norm=result.grad_norm,
        u_value=result.u_value,
        v_value=result.v_value,
        safeguarded=result.safeguarded,
        fallback=False,
        wall_time=time.perf_counter() - started,
        sample_provenance=samples.provenance,
        optimizer_provenance=opt_samples.provenance,
    )


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
    base_stream_id: int = 0,
    threads: int = 1,
) -> CoverageResult:
    """Fraction of replicated confidence intervals containing ``reference``.

    Replication r uses stream_id = base_stream_id + r, so runs are
    independent and individually reproducible. Replications that fail with
    a :class:`TiltmcError` (e.g. a degenerate payoff on a small block) are
    counted and excluded from the empirical level; other exceptions propagate.
    """
    if replications < 1:
        raise ValueError("replications must be >= 1")

    def one(rep: int) -> bool | None:
        stream = RngStream(seed, base_stream_id + rep)
        block = draw_samples(stream, n, payoff.dim)
        try:
            report = run_pipeline(block, payoff, mode, drift, level=level)
        except TiltmcError:
            return None
        return bool(report.ci_low <= reference <= report.ci_high)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(one, range(replications)))
    else:
        outcomes = [one(rep) for rep in range(replications)]

    failures = sum(1 for o in outcomes if o is None)
    hits = sum(1 for o in outcomes if o)
    effective = replications - failures
    empirical = hits / effective if effective else float("nan")
    return CoverageResult(
        replications=replications,
        hits=hits,
        failures=failures,
        empirical_level=empirical,
    )
