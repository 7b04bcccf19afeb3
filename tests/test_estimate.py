"""Estimator and pipeline tests.

Claims:
    - the zero-tilt estimator is the plain sample mean, bitwise, and reads
      the weight table's f(G_i) without evaluating the payoff again
    - for the exponential payoff the tilted summands are a known constant,
      so the estimator is exact with zero spread
    - tilting leaves the mean unbiased at a fixed drift (vanilla call vs
      closed form over one million draws)
    - variance estimates subtract the squared price and clamp at zero
    - confidence intervals use the documented normal quantile
    - pipelines share one weight table between optimization and estimation,
      run every mode, degrade gracefully, reject non-finite summands in every
      mode, and are deterministic; the solver's own iteration cap and
      backtracking underflow fall back to crude, and a payoff that fails on
      the block is every mode's outcome
    - two_stage cross-fits: each half of the block, split at row n // 2 by
      a view with its own nonzero count, takes the tilt tuned on the other
      half; it pools the n summands in row order, takes its variance from
      them, and falls back when either half's solve fails
    - repeated same-sample runs cut the variance estimate well below the
      untilted one
    - interval coverage behaves as advertised on degenerate and digital
      payoffs, and two_stage's interval, built from its pooled summands,
      holds the price at the nominal rate on a d = 50 basket
    - the block-by-tilt product gives the same bits as a matmul on one-column
      and wide blocks, and the summands formed chunk by chunk in place the
      bits of the whole-block formula, on a block or a half not a whole
      number of chunks long
    - a coverage run with a drift map that does not fit the payoff is a
      caller error, raised before any replication is drawn
    - under glibc, a repeated block reuses freed heap memory instead of
      faulting it back in, on the main thread and on worker threads; the
      allocator policy is set once and is skipped without glibc
    - each threaded call starts its own pool: back-to-back calls agree, a
      threaded call made on a worker does not wait for the pool it runs on,
      and an error returns only after every item already started has finished
    - a fresh process that imports the CLI, runs identity and path-map
      blocks and solves on a dense map never loads scipy.linalg; the
      sandwich covariance, its one user, loads it
"""

import ctypes
import os
import platform
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from pytest import approx

import tiltmc.estimate
import tiltmc.optimize
from tiltmc import (
    Basket,
    BlackScholesMulti,
    ConvergenceFailure,
    DegeneratePayoff,
    Digital,
    DimensionMismatch,
    NonFiniteEstimate,
    NonFiniteObjective,
    Payoff,
    RngStream,
    SampleBlock,
    bs_call_price,
    bs_digital_price,
    build_payoff,
    confidence_interval,
    coverage_experiment,
    draw_samples,
    identity_map,
    newton_minimize,
    path_drift_multi,
    precompute_weights,
    run_pipeline,
    tilted_terms,
    variance_estimate,
)
from tiltmc.config import builtin_experiment
from tiltmc.estimate import run_block
from tiltmc.optimize import _Objective
from tiltmc.payoffs import chunk_rows

EXP_PAYOFF = Payoff(1, lambda x: np.exp(0.2 * x[..., 0]))


class TestTiltedMean:
    def test_zero_tilt_is_plain_mean(self):
        block = draw_samples(RngStream(1, 0), 5_000, 1)
        payoff = Payoff(1, lambda x: np.maximum(x[..., 0], 0.0))
        table = precompute_weights(block, payoff)
        assert tilted_terms(table, [0.0]) is table.values
        assert tilted_terms(table, [0.0]).mean() == payoff(block.values).mean()

    def test_exponential_summands_are_constant(self):
        # f(x + s) e^{-s x - s^2/2} == e^{s^2/2} identically for f = e^{s x}.
        block = draw_samples(RngStream(2, 0), 10_000, 1)
        terms = tilted_terms(precompute_weights(block, EXP_PAYOFF), [0.2])
        assert np.abs(terms - np.exp(0.02)).max() <= 1e-12
        assert terms.std() <= 1e-13

    def test_constant_payoff_unbiased_under_tilt(self):
        c = 2.5
        payoff = Payoff(2, lambda x: np.full(x.shape[:-1], c))
        block = draw_samples(RngStream(3, 0), 100_000, 2)
        terms = tilted_terms(precompute_weights(block, payoff), [0.4, -0.3])
        se = terms.std() / np.sqrt(terms.size)
        assert terms.mean() == approx(c, abs=4 * se)

    def test_fixed_tilt_grand_mean_matches_closed_form(self):
        # 10^4 replications of n = 100 collapse to one mean over 10^6 draws.
        model = BlackScholesMulti.create(1, [1.0], 100.0, 0.2, 0.05)
        payoff = build_payoff(model, Basket(np.ones(1), 100.0))
        block = draw_samples(RngStream(4, 0), 1_000_000, 1)
        terms = tilted_terms(precompute_weights(block, payoff), [0.5])
        se = terms.std() / np.sqrt(terms.size)
        assert terms.mean() == approx(bs_call_price(100.0, 100.0, 0.05, 0.2, 1.0), abs=4 * se)

    @pytest.mark.parametrize(
        "n, d", [(100_000, 1), (6_300, 1), (20_000, 5), (100_000, 120), (512, 500), (20_000, 500)]
    )
    def test_block_by_tilt_product_matches_matmul_bits(self, n, d, monkeypatch):
        # tilted_terms and the optimizer's pass take the block-by-tilt
        # product with np.dot, which skips numpy matmul's per-row loop on a
        # one-column block. The bits match the matmul's, chunk for chunk.
        rng = np.random.default_rng(n + d)
        block = SampleBlock(rng.standard_normal((n, d)), RngStream(0))
        table = precompute_weights(block, Payoff(d, lambda x: np.ones(x.shape[:-1])))
        theta = rng.uniform(-0.05, 0.05, d)
        expected = np.exp(-(block.values @ theta) - 0.5 * float(theta @ theta))
        assert (tilted_terms(table, theta) == expected).all()
        obj = _Objective(table, identity_map(d))
        chunks = [block.values[lo : lo + obj.step] @ theta for lo in range(0, n, obj.step)]
        products, dot = [], np.dot
        monkeypatch.setattr(np, "dot", lambda a, b: products.append(dot(a, b)) or products[-1])
        obj.evaluate(theta)
        assert len(products) == len(chunks)
        assert all((got == want).all() for got, want in zip(products, chunks))

    @pytest.mark.parametrize(
        "n, d, lo", [(70_000, 1, 0), (20_000, 5, 0), (1_504, 500, 0), (9_000, 120, 4_328)]
    )
    def test_chunked_summands_match_whole_block_formula_bits(self, n, d, lo):
        # n - lo is not a multiple of chunk_rows(d), and the last case is a
        # two_stage-style half that starts off a 64-row boundary. Each chunk's
        # summands, formed in place, have the bits of the whole-block formula.
        # n - lo is a multiple of 32: a threaded BLAS splits the reference's
        # one whole-block product between its threads, and an unaligned split
        # would change the reference's bits, not the chunked ones.
        rng = np.random.default_rng(n + d)
        block = SampleBlock(rng.standard_normal((n, d)), RngStream(0))
        payoff = Payoff(d, lambda x: np.maximum(x[..., 0], 0.0) + np.exp(0.1 * x[..., -1]))
        table = precompute_weights(block, payoff).rows(lo, n)
        assert (n - lo) % chunk_rows(d) != 0 and n - lo > chunk_rows(d)
        theta = rng.uniform(-0.05, 0.05, d)
        expected = np.dot(table.samples.values, theta)
        np.negative(expected, out=expected)
        expected -= 0.5 * float(theta @ theta)
        np.exp(expected, out=expected)
        expected *= payoff(table.samples.values + theta)
        assert (tilted_terms(table, theta) == expected).all()

    def test_dimension_check(self):
        table = precompute_weights(draw_samples(RngStream(5, 0), 10, 1), EXP_PAYOFF)
        with pytest.raises(ValueError):
            tilted_terms(table, [0.1, 0.2])


class TestVarianceEstimate:
    def test_reconstructs_reference_column(self):
        variance, clamped = variance_estimate(13.56 + 3.304**2, 3.304)
        assert variance == approx(13.56, rel=1e-12)
        assert not clamped

    def test_boundary_is_not_clamped(self):
        # v equal to price^2 as the same float: the raw difference is 0.0.
        variance, clamped = variance_estimate(1.1 * 1.1, 1.1)
        assert variance == 0.0
        assert not clamped

    def test_negative_raw_value_clamps(self):
        variance, clamped = variance_estimate(1.0, 1.1)
        assert variance == 0.0
        assert clamped

    def test_rejects_negative_proxy(self):
        with pytest.raises(ValueError):
            variance_estimate(-1.0, 0.0)


class TestConfidenceInterval:
    def test_zero_variance_degenerates(self):
        assert confidence_interval(3.0, 0.0, 100, 0.95) == (3.0, 3.0)

    def test_reference_halfwidth(self):
        low, high = confidence_interval(3.296, 1.74, 10_000, 0.95)
        # Textbook normal quantile: z_{0.975} = 1.959963985.
        half = 1.959963985 * np.sqrt(1.74 / 10_000)
        assert (high - low) / 2.0 == approx(half, rel=1e-7)
        assert (high - low) / 2.0 == approx(0.02585, abs=5e-6)

    def test_level_validation(self):
        with pytest.raises(ValueError):
            confidence_interval(0.0, 1.0, 10, 1.0)
        with pytest.raises(ValueError):
            confidence_interval(0.0, -1.0, 10, 0.95)


def _basket_setup(n=10_000, seed=99):
    """Weight table of the 40-asset basket on stream 0 of ``seed``."""
    model = BlackScholesMulti.create(40, [1.0], 50.0, 0.2, 0.05, 0.2)
    payoff = build_payoff(model, Basket(weights=np.full(40, 1.0 / 40.0), strike=50.0))
    return precompute_weights(draw_samples(RngStream(seed, 0), n, 40), payoff)


def _cross_fit(table):
    """The two_stage halves of ``table``, their pooled cross-fitted summands
    in row order, and each half's optimizer result."""
    half = table.n // 2
    halves = [table.rows(0, half), table.rows(half, table.n)]
    tuned = [newton_minimize(h, identity_map(table.samples.d)) for h in halves]
    terms = np.concatenate(
        [tilted_terms(halves[0], tuned[1].theta), tilted_terms(halves[1], tuned[0].theta)]
    )
    return halves, terms, tuned


class TestPipelines:
    def test_crude_price_is_zero_tilt_mean_bitwise(self):
        table = _basket_setup(n=2_000)
        report = run_pipeline(table, "crude")
        assert report.price == tilted_terms(table, np.zeros(40)).mean()
        assert report.theta is None
        assert report.optim is None

    def test_same_samples_feed_optimizer_and_estimate(self, monkeypatch):
        tuned = []
        inner = tiltmc.estimate.newton_minimize
        monkeypatch.setattr(
            tiltmc.estimate, "newton_minimize", lambda t, drift: tuned.append(t) or inner(t, drift)
        )
        table = _basket_setup(n=2_000)
        report = run_pipeline(table, "ris")
        assert len(tuned) == 1 and tuned[0] is table
        assert report.sample_provenance == table.samples.provenance

    def test_two_stage_cross_fits_its_halves(self):
        # An odd n: the first half has n // 2 rows. Each half is a view of the
        # block with its own nonzero count, and its summands take the tilt
        # tuned on the other half; the report carries the first half's tilt.
        table = _basket_setup(n=2_001)
        report = run_pipeline(table, "two_stage")
        halves, terms, tuned = _cross_fit(table)
        assert [h.n for h in halves] == [1_000, 1_001]
        for half, (lo, hi) in zip(halves, [(0, 1_000), (1_000, 2_001)]):
            assert np.shares_memory(half.samples.values, table.samples.values)
            assert (half.samples.values == table.samples.values[lo:hi]).all()
            assert np.shares_memory(half.values, table.values)
            assert (half.values == table.values[lo:hi]).all()
            assert half.nonzero == np.count_nonzero(table.values[lo:hi])
        assert (report.theta == tuned[0].theta).all()
        assert (report.optim.u_history == tuned[0].u_history).all()
        assert report.price == float(terms.mean())
        assert report.n == 2_001 and report.sample_provenance == table.samples.provenance

    def test_two_stage_variance_comes_from_its_own_terms(self):
        # Each half's tilt was tuned on the other half, so v_n at a minimum
        # says nothing about these summands: the second moment is the pooled
        # summands' own.
        table = _basket_setup(n=2_000)
        report = run_pipeline(table, "two_stage")
        terms = _cross_fit(table)[1]
        assert report.variance == float((terms * terms).mean()) - report.price * report.price
        assert not report.variance_clamped

    def test_two_stage_falls_back_when_either_half_fails(self, monkeypatch):
        inner = tiltmc.estimate.newton_minimize
        table = _basket_setup(n=500)
        crude = run_pipeline(table, "crude")
        for failing in (0, 1):
            calls = []

            def fail_one(t, drift):
                calls.append(t)
                if len(calls) - 1 == failing:
                    raise ConvergenceFailure("forced")
                return inner(t, drift)

            monkeypatch.setattr(tiltmc.estimate, "newton_minimize", fail_one)
            with pytest.warns(RuntimeWarning, match="forced"):
                report = run_pipeline(table, "two_stage")
            assert report.fallback and report.optim is None and report.theta is None
            assert (report.price, report.variance) == (crude.price, crude.variance)

    def test_two_stage_needs_a_row_in_each_half(self):
        table = _basket_setup(n=1)
        with pytest.raises(DegeneratePayoff, match="n >= 2"):
            run_pipeline(table, "two_stage")

    def test_subspace_mode_uses_supplied_drift(self):
        times = 2.0 / 24.0 * np.arange(1, 25)
        model = BlackScholesMulti.create(1, times, 100.0, 0.2, 0.05)
        payoff = build_payoff(model, Basket(np.ones(1), 110.0, np.array([80.0])))
        table = precompute_weights(draw_samples(RngStream(41, 0), 4_000, 24), payoff)
        drift = path_drift_multi(times, 1)
        report = run_pipeline(table, "rris", drift)
        assert report.optim.theta.shape == (1,)
        assert (report.theta == drift.apply(report.optim.theta)).all()

    def test_exponential_variance_collapses_under_tilt(self):
        # Optimal tilt makes the exponential estimator exact: the variance
        # proxy at the minimizer approaches the squared mean. The crude
        # variance reference E f^2 - (E f)^2 comes from quadrature.
        from quadrature import gaussian_expectation

        table = precompute_weights(draw_samples(RngStream(7, 0), 50_000, 1), EXP_PAYOFF)
        report = run_pipeline(table, "ris")
        crude = run_pipeline(table, "crude")
        second = gaussian_expectation(lambda y: np.exp(0.4 * y))
        first = gaussian_expectation(lambda y: np.exp(0.2 * y))
        assert crude.variance == approx(second - first**2, rel=0.10)
        assert report.variance <= 1e-3 * crude.variance

    def test_interval_orders_around_price(self):
        table = _basket_setup(n=4_000)
        for mode in ("crude", "ris", "two_stage"):
            report = run_pipeline(table, mode)
            assert report.ci_low <= report.price <= report.ci_high

    def test_degenerate_payoff_raises(self):
        # The table of an all-zero payoff is valid: crude prices it at 0,
        # and only the optimizer, which needs a nonzero weight, refuses it.
        model = BlackScholesMulti.create(1, [1.0], 100.0, 0.2, 0.05)
        payoff = build_payoff(model, Digital(level=1e9))
        table = precompute_weights(draw_samples(RngStream(8, 0), 50, 1), payoff)
        assert table.nonzero == 0
        with pytest.raises(DegeneratePayoff):
            run_pipeline(table, "ris")
        crude = run_pipeline(table, "crude")
        assert (crude.price, crude.variance, crude.ci_low, crude.ci_high) == (0.0, 0.0, 0.0, 0.0)

    def test_crude_rejects_non_finite_payoff(self):
        # Crude goes through the same finiteness check as the tilted modes
        # instead of pricing inf with a nan interval.
        payoff = Payoff(1, lambda x: np.where(x[..., 0] > 3, np.inf, 1.0))
        table = precompute_weights(draw_samples(RngStream(1), 100_000, 1), payoff)
        with pytest.raises(NonFiniteEstimate):
            run_pipeline(table, "crude")
        with pytest.raises(NonFiniteObjective):
            run_pipeline(table, "ris")

    def test_convergence_failure_falls_back_to_crude(self, monkeypatch):
        def fail(table, drift):
            raise ConvergenceFailure("forced")

        monkeypatch.setattr(tiltmc.estimate, "newton_minimize", fail)
        table = _basket_setup(n=500)
        with pytest.warns(RuntimeWarning, match="forced"):
            report = run_pipeline(table, "ris")
        assert report.fallback
        assert report.mode == "ris"
        assert report.optim is None
        assert report.theta is None
        crude = run_pipeline(table, "crude")
        assert report.price == crude.price

    @pytest.mark.parametrize(
        "limit, value, message",
        [
            ("DEFAULT_MAX_ITER", 1, r"after 1 iterations \(tolerance 1\.0e-06\)"),
            ("_MIN_STEP", 1.0, r"backtracking underflow at iteration \d+ \(gradient norm"),
        ],
        ids=["iteration-cap", "backtracking-underflow"],
    )
    def test_real_solver_failure_falls_back_to_crude(self, monkeypatch, limit, value, message):
        # cosh(3x) takes more than one step, and the line search shortens one
        # of them; with no room for either, the solver itself gives up.
        payoff = Payoff(1, lambda x: np.cosh(3.0 * x[..., 0]))
        table = precompute_weights(draw_samples(RngStream(11, 0), 5_000, 1), payoff)
        monkeypatch.setattr(tiltmc.optimize, limit, value)
        with pytest.raises(ConvergenceFailure, match=message):
            newton_minimize(table, identity_map(1))
        with pytest.warns(RuntimeWarning, match=message):
            report = run_pipeline(table, "ris")
        assert report.fallback and report.optim is None and report.theta is None
        assert report.price == run_pipeline(table, "crude").price

    def test_payoff_error_is_every_modes_outcome(self):
        def explode(x):
            raise NonFiniteEstimate("payoff failed on the block")

        modes = ("crude", "ris", "two_stage")
        outcomes = run_block(Payoff(2, explode), None, RngStream(5, 0), 100, modes, level=0.95)
        assert isinstance(outcomes[0], NonFiniteEstimate)
        assert outcomes == [outcomes[0]] * len(modes)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            run_pipeline(_basket_setup(n=100), "antithetic")

    def test_rris_requires_drift(self):
        with pytest.raises(ValueError):
            run_pipeline(_basket_setup(n=100), "rris")

    def test_deterministic_reports(self):
        a = run_pipeline(_basket_setup(n=3_000, seed=55), "ris")
        b = run_pipeline(_basket_setup(n=3_000, seed=55), "ris")
        assert a.price == b.price
        assert a.variance == b.variance
        assert (a.theta == b.theta).all()

    def test_localvol_pipeline_matches_closed_form(self):
        # Constant-vol Euler model priced through the reduced pipeline vs
        # the lognormal closed form; the 64-step weak bias (~2e-3) hides
        # well inside the Monte Carlo band.
        from tiltmc import ConstantVol, LocalVol1D

        model = LocalVol1D(spot=100.0, rate=0.05, maturity=1.0, n_steps=64, vol_fn=ConstantVol(0.2))
        payoff = build_payoff(model, Basket(np.ones(1), 100.0))
        table = precompute_weights(draw_samples(RngStream(500, 0), 50_000, 64), payoff)
        report = run_pipeline(table, "rris", path_drift_multi(model.times, 1))
        exact = bs_call_price(100.0, 100.0, 0.05, 0.2, 1.0)
        band = 4.0 * np.sqrt(report.variance / report.n) + 0.01
        assert report.price == approx(exact, abs=band)
        assert report.optim.iterations <= 10

    def test_two_stage_price_quality(self):
        model = BlackScholesMulti.create(1, [1.0], 100.0, 0.2, 0.05)
        payoff = build_payoff(model, Basket(np.ones(1), 110.0))
        table = precompute_weights(draw_samples(RngStream(501, 0), 50_000, 1), payoff)
        report = run_pipeline(table, "two_stage")
        exact = bs_call_price(100.0, 110.0, 0.05, 0.2, 1.0)
        band = 4.0 * np.sqrt(report.variance / report.n)
        assert report.price == approx(exact, abs=band)

    def test_variance_dominance_over_thirty_runs(self):
        model = BlackScholesMulti.create(40, [1.0], 50.0, 0.2, 0.05, 0.2)
        payoff = build_payoff(model, Basket(weights=np.full(40, 1.0 / 40.0), strike=50.0))
        crude_vars, tilted_vars = [], []
        for rep in range(30):
            table = precompute_weights(draw_samples(RngStream(1234, rep), 10_000, 40), payoff)
            crude_vars.append(run_pipeline(table, "crude").variance)
            tilted_vars.append(run_pipeline(table, "ris").variance)
        assert np.mean(tilted_vars) < np.mean(crude_vars) / 5.0


class TestCoverage:
    def test_constant_payoff_degenerate_full_coverage(self):
        payoff = Payoff(1, lambda x: np.ones(x.shape[:-1]))
        result = coverage_experiment(
            payoff, "crude", 101, 7, 1.0, replications=50, level=0.95
        )
        assert result.hits == 50
        assert result.failures == 0
        assert result.empirical_level == 1.0

    def test_level_monotonicity_on_digital(self):
        model = BlackScholesMulti.create(1, [1.0], 100.0, 0.2, 0.05)
        payoff = build_payoff(model, Digital(level=140.0))
        reference = bs_digital_price(100.0, 140.0, 0.05, 0.2, 1.0)
        kwargs = dict(replications=200, drift=identity_map(1), threads=2)
        wide = coverage_experiment(payoff, "ris", 4_000, 42, reference, level=0.99, **kwargs)
        narrow = coverage_experiment(payoff, "ris", 4_000, 42, reference, level=0.95, **kwargs)
        assert wide.empirical_level >= narrow.empirical_level

    def test_two_stage_interval_coverage(self):
        # 5 assets x 10 steps (d = 50) at n = 300: the tuning block's
        # in-sample minimum v_n understates the main block's variance, so an
        # interval built from it would be far too narrow here.
        model = BlackScholesMulti.create(5, 0.1 * np.arange(1, 11), 100.0, 0.2, 0.05, 0.3)
        payoff = build_payoff(model, Basket(weights=np.full(5, 0.2), strike=100.0))
        reference = np.mean(
            [payoff(draw_samples(RngStream(5, 1000 + k), 50_000, 50).values).mean() for k in range(4)]
        )
        replications = 200
        result = coverage_experiment(
            payoff, "two_stage", 300, 2024, reference, replications=replications
        )
        assert result.failures == 0
        band = 4.5 * np.sqrt(0.95 * 0.05 / replications)
        assert abs(result.empirical_level - 0.95) <= band

    def test_failures_are_recorded_and_excluded(self):
        model = BlackScholesMulti.create(1, [1.0], 100.0, 0.2, 0.05)
        payoff = build_payoff(model, Digital(level=260.0))
        reference = bs_digital_price(100.0, 260.0, 0.05, 0.2, 1.0)
        # Tiny blocks: some replications see no payoff at all and fail.
        result = coverage_experiment(payoff, "ris", 40, 5, reference, replications=60)
        assert result.failures > 0
        assert result.replications == 60
        assert 0 <= result.hits <= 60 - result.failures

    def test_drift_of_wrong_dimension_raises_before_any_replication(self, monkeypatch):
        model = BlackScholesMulti.create(2, [0.5, 1.0], 100.0, 0.2, 0.05, 0.3)
        payoff = build_payoff(model, Basket(weights=np.full(2, 0.5), strike=100.0))
        drift = path_drift_multi(model.times, 1)  # d = 2, the payoff's d = 4
        drawn = []
        monkeypatch.setattr(
            tiltmc.estimate, "draw_samples", lambda *args: drawn.append(args) or draw_samples(*args)
        )
        with pytest.raises(DimensionMismatch, match="dimension 2 .* dimension 4"):
            coverage_experiment(payoff, "rris", 200, 1, 10.0, replications=5, drift=drift)
        assert drawn == []

    @pytest.mark.parametrize("threads", [1, 2])
    def test_programming_error_in_payoff_propagates(self, threads):
        def broken(x):
            raise TypeError("payoff bug")

        payoff = Payoff(1, broken)
        with pytest.raises(TypeError, match="payoff bug"):
            coverage_experiment(payoff, "ris", 100, 3, 0.0, replications=4, threads=threads)

    def test_thread_count_does_not_change_outcome(self):
        payoff = Payoff(1, lambda x: np.abs(x[..., 0]))
        serial = coverage_experiment(payoff, "ris", 500, 9, 0.7978845608, replications=40)
        back_to_back = [
            coverage_experiment(payoff, "ris", 500, 9, 0.7978845608, replications=40, threads=4)
            for _ in range(2)
        ]
        assert serial == back_to_back[0] == back_to_back[1]

    def test_call_from_a_worker_gets_its_own_pool(self):
        # Each call starts its own pool, so an inner call never waits for the
        # outer items that occupy the outer pool's workers.
        def outer(i):
            return tiltmc.estimate.map_threads(lambda j: (i, j), range(3), 2)

        done = []
        runner = threading.Thread(
            target=lambda: done.append(tiltmc.estimate.map_threads(outer, range(4), 2)), daemon=True
        )
        runner.start()
        runner.join(timeout=30)
        assert not runner.is_alive()
        assert done == [[[(i, j) for j in range(3)] for i in range(4)]]

    def test_error_returns_after_every_started_item(self):
        started, finished = threading.Event(), []

        def item(i):
            if i == 0:
                started.wait(timeout=10)
                raise TypeError("item bug")
            started.set()
            time.sleep(0.05)
            finished.append(i)

        with pytest.raises(TypeError, match="item bug"):
            tiltmc.estimate.map_threads(item, range(2), 2)
        assert finished == [1]


class TestBlockMemory:
    WARM_UP, MEASURED = 3, 20

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="allocator policy is glibc's")
    @pytest.mark.parametrize("threads", [1, 2])
    def test_repeated_blocks_do_not_fault_memory_back_in(self, threads):
        # The digital-coverage payoff at its n = 100k: each block allocates
        # 4-5 MB, which glibc would otherwise return to the kernel when freed.
        spec = builtin_experiment("digital-coverage")[0].spec
        payoff, drift = spec.payoff(), spec.drift()

        def faults(rep):
            before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
            run_block(payoff, drift, RngStream(spec.seed, rep), spec.n, ("ris",), level=spec.level)
            return threading.get_ident(), resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before

        blocks = tiltmc.estimate.map_threads(
            faults, range(threads * self.WARM_UP + self.MEASURED), threads
        )
        seen, measured = {}, []
        for worker, count in blocks:  # each worker's first blocks are its warm-up
            seen[worker] = seen.get(worker, 0) + 1
            if seen[worker] > self.WARM_UP:
                measured.append(count)
        assert len(measured) >= self.MEASURED
        assert np.mean(measured) < 20

    @pytest.fixture
    def fresh_policy(self):
        tiltmc.estimate._keep_block_memory_mapped.cache_clear()
        yield
        tiltmc.estimate._keep_block_memory_mapped.cache_clear()

    def _block(self):
        return run_block(EXP_PAYOFF, None, RngStream(3, 0), 200, ("crude", "ris"), level=0.95)

    def test_policy_is_skipped_without_mallopt(self, monkeypatch, fresh_policy):
        def no_libc(name):
            raise OSError("no C library")

        monkeypatch.setattr(ctypes, "CDLL", no_libc)
        assert [report.mode for report in self._block()] == ["crude", "ris"]

    def test_policy_is_set_once(self, monkeypatch, fresh_policy):
        calls = []

        class FakeLibc:
            def __init__(self, name):
                assert name is None
                self.mallopt = lambda param, value: calls.append((param, value)) or 1

        monkeypatch.setattr(ctypes, "CDLL", FakeLibc)
        self._block()
        self._block()
        assert calls == [(-3, 32 << 20), (-1, 64 << 20)]


_LINALG_PROBE = """
import sys
import numpy as np
import tiltmc.cli
from tiltmc import (
    Payoff, RngStream, dense_map, draw_samples, estimate_theta_covariance,
    newton_minimize, precompute_weights,
)
from tiltmc.config import builtin_experiment
from tiltmc.estimate import run_block

# digital-coverage runs on the identity map, table4 on a path_drift_multi map.
for name, modes in (("digital-coverage", ("ris", "two_stage")), ("table4", ("ris", "rris"))):
    spec = builtin_experiment(name, n=2_000)[0].spec
    outcomes = run_block(spec.payoff(), spec.drift(), RngStream(7, 0), 2_000, modes, level=0.95)
    assert [o.fallback for o in outcomes] == [False] * len(modes), outcomes

payoff = Payoff(4, lambda x: np.exp(0.2 * x.sum(axis=-1)))
table = precompute_weights(draw_samples(RngStream(3), 2_000, 4), payoff)
drift = dense_map(np.arange(1.0, 9.0).reshape(4, 2))
theta = newton_minimize(table, drift).theta
q = np.array([1.0, -2.0])
assert np.allclose(drift.solve_gram(drift.gram() @ q), q, rtol=1e-13, atol=0.0)
loaded_before_covariance = "scipy.linalg" in sys.modules
assert np.isfinite(estimate_theta_covariance(table, drift, theta)).all()
print(loaded_before_covariance, "scipy.linalg" in sys.modules)
"""


def test_only_the_sandwich_covariance_loads_scipy_linalg():
    # The sandwich covariance's Hessian pass adds with BLAS dsyrk, the one
    # use of scipy.linalg. A fresh process, the CLI imported, runs identity
    # and path-map blocks and a dense-map solve on numpy alone, and loads
    # scipy.linalg only when it takes the covariance.
    src = str(Path(tiltmc.estimate.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-c", _LINALG_PROBE],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "True"]
