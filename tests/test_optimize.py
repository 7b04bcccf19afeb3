"""Optimizer tests.

Claims:
    - the weight table stores f(G_i), the rows with w_i = f(G_i)^2 > 0 (an
      underflowed square counts as zero) and whether every w_i is finite;
      the objective reads both and rejects all-zero and non-finite tables,
      which crude still prices; a sample block with a non-finite entry fails
      the payoff evaluation
    - v_n and u_n satisfy v_n = exp(u_n)/n to relative 1e-10 and the
      closed single-sample / two-sample values
    - the gradient matches central finite differences of u_n, and the dense
      reference Hessian matches central differences of the gradient
    - the reference Hessian minus the Gram matrix stays positive semidefinite
    - Newton lands on the closed-form minimizer in one step for a single
      sample, converges within a few iterations for the exponential payoff,
      and its accepted objective values strictly decrease
    - a solve gathers each nonzero row once per point it evaluates: for
      A = I its first trial point is, bit for bit,
      -grad u_n(0), and its BFGS steps reach the minimizer of a textbook
      exact-Newton loop on u_n and its derivatives within tolerance; a
      d = d' = 500 solve shaped like the basket-ris workload converges
      within 10 steps, and with 100 samples on that payoff within 35 on
      each of 40 seeds; on anisotropic dense maps (cond(A) = 100, largest
      singular value 10 or 100) it converges to the exact-Newton loop's v_n
      within 1e-10 relative
    - rescaling all weights shifts u_n by a constant and leaves the
      gradient, Hessian and minimizer unchanged
    - a rank-deficient drift map cannot be built, even by hand
    - the dense reference sandwich covariance reproduces the two
      Gaussian-moment values that have closed forms, and does not change
      when the payoff is scaled by up to 1e150
    - the optimizer's pass over fixed chunks of the nonzero rows matches the
      dense whole-array mean to 1e-12 relative, and holds no copy of the
      nonzero rows: memory above the block is a few chunks plus O(n); a
      pass holds one gathered chunk at a time, and a solve no d' x d' array
    - one pass, shifted by a running maximum over 64-row chunks, matches a
      reference shifted by the maximum of all logits to 1e-12 relative, when
      the maximum sits in a later chunk and when the logits span over 1,400;
      a point where u_n is not finite still raises NonFiniteObjective, and
      so do a finite u_n whose gradient overflows and a v_n = e^{u_n} / n
      beyond the largest double
"""

import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx
from scipy.linalg import cho_factor, cho_solve

from objectives import eval_un, eval_un_derivatives, eval_vn, theta_covariance
from tiltmc import (
    Basket,
    BlackScholesMulti,
    DegeneratePayoff,
    Digital,
    DriftMap,
    NonFiniteInput,
    NonFiniteObjective,
    Payoff,
    RankDeficientDriftMap,
    RngStream,
    SampleBlock,
    build_payoff,
    dense_map,
    draw_samples,
    identity_map,
    newton_minimize,
    path_drift_multi,
    precompute_weights,
    run_pipeline,
)
from tiltmc.config import parse_config
from tiltmc.optimize import _ARMIJO, DEFAULT_TOL, _Objective
from tiltmc.payoffs import chunk_rows

EXP_PAYOFF = Payoff(1, lambda x: np.exp(0.2 * x[..., 0]))
ONES_PAYOFF_1D = Payoff(1, lambda x: np.ones(x.shape[:-1]))


def _textbook_newton(table, drift):
    """The textbook exact-Newton loop on u_n and its derivatives, with the
    solver's Armijo rule: (minimizer, u_n after each accepted step, the
    number of points the line search tried in the first step)."""
    x = np.zeros(drift.d_reduced)
    history = [eval_un(table, drift, x)]
    trials, first_step = [], 0
    grad, hess = eval_un_derivatives(table, drift, x)
    while np.linalg.norm(grad) > DEFAULT_TOL:
        direction = cho_solve(cho_factor(hess, lower=True), -grad)
        slope, step = float(grad @ direction), 1.0
        while True:
            trials.append(x + step * direction)
            if eval_un(table, drift, trials[-1]) < history[-1] + _ARMIJO * step * slope:
                break
            step *= 0.5
        x = trials[-1]
        history.append(eval_un(table, drift, x))
        grad, hess = eval_un_derivatives(table, drift, x)
        if len(history) == 2:
            first_step = len(trials)
    return x, history, first_step


def _table(values, *, d=None, weights_of=None):
    """WeightTable over explicit sample values with f either given or 1."""
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    block = draw_samples(RngStream(0, 0), *values.shape)
    object.__setattr__(block, "values", values)
    values.setflags(write=False)
    fn = weights_of if weights_of is not None else (lambda x: np.ones(x.shape[:-1]))
    payoff = Payoff(values.shape[1], fn)
    return precompute_weights(block, payoff)


class TestWeights:
    def test_constant_payoff_gives_unit_weights(self):
        block = draw_samples(RngStream(5, 0), 50, 2)
        table = precompute_weights(block, Payoff(2, lambda x: np.ones(x.shape[:-1])))
        assert table.values == approx(np.ones(50))
        assert table.nonzero == 50
        assert eval_vn(table, identity_map(2), [0.0, 0.0]) == approx(1.0)

    def test_all_zero_weights_raise(self):
        # The table itself is valid (crude prices it at 0); every user of
        # the objective rejects it.
        model = BlackScholesMulti.create(1, [1.0], 100.0, 0.2, 0.05)
        payoff = build_payoff(model, Digital(level=1e9))
        block = draw_samples(RngStream(5, 1), 10, 1)
        table = precompute_weights(block, payoff)
        assert table.nonzero == 0
        drift = identity_map(1)
        uses = (
            lambda: newton_minimize(table, drift),
            lambda: eval_un(table, drift, [0.0]),
        )
        for use in uses:
            with pytest.raises(DegeneratePayoff):
                use()

    def test_underflowed_square_counts_as_zero(self):
        block = draw_samples(RngStream(5, 2), 10, 1)
        payoff = Payoff(1, lambda x: np.full(x.shape[:-1], 1e-200))
        table = precompute_weights(block, payoff)
        assert table.nonzero == 0
        with pytest.raises(DegeneratePayoff):
            newton_minimize(table, identity_map(1))

    def test_support_leaves_out_underflowed_squares(self):
        # One scan gives the rows with f^2 > 0: 1e-200 squares to zero and is
        # left out like an exact zero. A square that overflows makes the
        # table non-finite; only the solve rejects that, and crude prices it.
        block = draw_samples(RngStream(5, 4), 300, 1)
        tiny, huge = np.arange(300) % 3 == 1, np.arange(300) == 299
        values = np.where(np.arange(300) % 3 == 0, 0.0, np.where(tiny, 1e-200, 2.0))
        table = precompute_weights(block, Payoff(1, lambda x: values[: x.shape[0]]))
        expected = np.flatnonzero(values == 2.0)
        assert table.support.tolist() == expected.tolist()
        assert table.nonzero == expected.size and table.finite
        obj = _Objective(table, identity_map(1))
        assert obj.rows is table.support
        assert (obj.log_w == np.log(4.0)).all()
        assert newton_minimize(table, identity_map(1)).grad_norm <= DEFAULT_TOL

        overflowing = np.where(huge, 1e200, values)
        with np.errstate(over="ignore"):
            table = precompute_weights(block, Payoff(1, lambda x: overflowing[: x.shape[0]]))
            assert not table.finite and table.nonzero == expected.size
            with pytest.raises(NonFiniteObjective):
                newton_minimize(table, identity_map(1))
            assert run_pipeline(table, "crude").price == overflowing.mean()

    def test_non_finite_weights_raise(self):
        block = draw_samples(RngStream(5, 3), 1_000, 1)
        payoff = Payoff(1, lambda x: np.where(x[..., 0] > 1.5, np.nan, 1.0))
        table = precompute_weights(block, payoff)
        with pytest.raises(NonFiniteObjective):
            newton_minimize(table, identity_map(1))

    def test_non_finite_sample_block_raises(self):
        # A block is not scanned when built; the payoff evaluation that
        # every mode starts from rejects it.
        values = np.zeros((300, 2))
        values[201, 1] = np.nan
        block = SampleBlock(values, RngStream(0))
        with pytest.raises(NonFiniteInput):
            precompute_weights(block, Payoff(2, lambda x: np.ones(x.shape[:-1])))

    def test_basket_has_positive_mass(self):
        # Crude check that the at-the-money basket pays off often enough for
        # a 10,000-sample table to be nondegenerate with huge probability.
        model = BlackScholesMulti.create(40, [1.0], 50.0, 0.2, 0.05, 0.2)
        payoff = build_payoff(model, Basket(weights=np.full(40, 1.0 / 40.0), strike=50.0))
        block = draw_samples(RngStream(77, 0), 10_000, 40)
        table = precompute_weights(block, payoff)
        assert table.nonzero / table.n > 0.1

    def test_weights_are_squared_payoffs(self):
        block = draw_samples(RngStream(6, 0), 100, 1)
        table = precompute_weights(block, EXP_PAYOFF)
        assert table.values == approx(np.exp(0.2 * block.values[:, 0]))
        weights = np.exp(0.4 * block.values[:, 0])
        assert eval_un(table, identity_map(1), [0.0]) == approx(np.log(weights.sum()))


class TestObjectives:
    def test_unit_weights_at_zero(self):
        table = _table(np.linspace(-2, 2, 7).reshape(-1, 1))
        drift = identity_map(1)
        assert eval_vn(table, drift, [0.0]) == approx(1.0)
        assert eval_un(table, drift, [0.0]) == approx(np.log(7))

    def test_identity_between_objectives(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n, d = int(rng.integers(2, 40)), int(rng.integers(1, 4))
            table = _table(rng.standard_normal((n, d)), weights_of=lambda x: np.exp(x[..., 0]))
            drift = identity_map(d)
            theta = rng.standard_normal(d)
            vn = eval_vn(table, drift, theta)
            un = eval_un(table, drift, theta)
            assert vn == approx(np.exp(un) / n, rel=1e-10)

    def test_single_sample_closed_form(self):
        g = np.array([[0.8]])
        table = _table(g, weights_of=lambda x: np.full(x.shape[:-1], 3.0))
        drift = identity_map(1)
        for theta in (-1.0, 0.0, 0.5, 2.0):
            expected = 0.5 * theta**2 - theta * 0.8 + np.log(9.0)
            assert eval_un(table, drift, [theta]) == approx(expected)

    def test_two_point_gradient_hessian(self):
        g = 1.3
        table = _table(np.array([[g], [-g]]))
        drift = identity_map(1)
        grad, hess = eval_un_derivatives(table, drift, [0.0])
        assert grad[0] == approx(0.0, abs=1e-14)
        assert hess[0, 0] == approx(1.0 + g * g)

    def test_single_point_gradient_hessian(self):
        g = np.array([0.4, -1.1])
        table = _table(g.reshape(1, -1))
        drift = identity_map(2)
        grad, hess = eval_un_derivatives(table, drift, [0.0, 0.0])
        assert grad == approx(-g)
        assert hess == approx(np.eye(2))

    def test_vn_matches_quadrature_for_exponential(self):
        # Two independent routes to v(0.2) = E exp(0.4 G) e^{-0.2 G + 0.02}:
        # the tilt-absorbing quadrature e^{theta^2} E f^2(G - theta) and the
        # closed form exp((2*0.2 - theta)^2/2 + theta^2/2). They agree, and
        # the sampled value matches both to Monte Carlo accuracy.
        from quadrature import gaussian_expectation

        block = draw_samples(RngStream(314, 0), 100_000, 1)
        table = precompute_weights(block, EXP_PAYOFF)
        theta = 0.2
        vn = eval_vn(table, identity_map(1), [theta])
        quad = np.exp(theta**2) * gaussian_expectation(lambda y: np.exp(0.4 * (y - theta)))
        exact = np.exp((0.4 - theta) ** 2 / 2.0 + theta**2 / 2.0)
        assert quad == approx(exact, rel=1e-12)
        terms = table.values**2 * np.exp(-block.values[:, 0] * theta + theta**2 / 2.0)
        se = terms.std() / np.sqrt(terms.size)
        assert vn == approx(quad, abs=4 * se)


def _random_config(rng):
    kind = rng.choice(["identity", "path_single", "path_multi", "dense"])
    if kind == "identity":
        d = int(rng.integers(1, 6))
        drift = identity_map(d)
    elif kind == "path_single":
        d = int(rng.integers(2, 7))
        drift = path_drift_multi(np.cumsum(rng.uniform(0.1, 0.5, d)), 1)
    elif kind == "path_multi":
        steps, assets = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        drift = path_drift_multi(np.cumsum(rng.uniform(0.1, 0.5, steps)), assets)
        d = drift.d
    else:
        d, d_red = int(rng.integers(2, 6)), int(rng.integers(1, 3))
        drift = dense_map(rng.standard_normal((d, d_red)) + np.eye(d, d_red))
        d = drift.d
    n = int(rng.integers(5, 60))
    scale = rng.uniform(0.3, 1.5)
    table = _table(
        rng.standard_normal((n, d)),
        weights_of=lambda x: np.abs(np.sin(scale * x.sum(axis=-1))) + 0.05,
    )
    theta = rng.uniform(-1.0, 1.0, drift.d_reduced)
    return table, drift, theta


class TestDerivativeOracles:
    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(2718)
        step = 1e-4
        for _ in range(20):
            table, drift, theta = _random_config(rng)
            grad, _ = eval_un_derivatives(table, drift, theta)
            numeric = np.empty_like(grad)
            for k in range(theta.size):
                e = np.zeros_like(theta)
                e[k] = step
                numeric[k] = (
                    eval_un(table, drift, theta + e) - eval_un(table, drift, theta - e)
                ) / (2 * step)
            assert np.linalg.norm(numeric - grad) <= 1e-4 * max(np.linalg.norm(grad), 1.0)

    def test_hessian_matches_gradient_differences(self):
        rng = np.random.default_rng(928)
        step = 1e-4
        for _ in range(20):
            table, drift, theta = _random_config(rng)
            _, hess = eval_un_derivatives(table, drift, theta)
            for k in range(theta.size):
                e = np.zeros_like(theta)
                e[k] = step
                g_up, _ = eval_un_derivatives(table, drift, theta + e)
                g_dn, _ = eval_un_derivatives(table, drift, theta - e)
                column = (g_up - g_dn) / (2 * step)
                assert np.linalg.norm(column - hess[:, k]) <= 1e-4 * max(
                    np.linalg.norm(hess[:, k]), 1.0
                )

    def test_hessian_dominates_gram(self):
        rng = np.random.default_rng(515)
        for _ in range(25):
            table, drift, theta = _random_config(rng)
            _, hess = eval_un_derivatives(table, drift, theta)
            gap = hess - drift.gram()
            np.linalg.cholesky(gap + 1e-10 * np.eye(gap.shape[0]))  # raises if not PSD


class TestNewton:
    def test_single_sample_one_step(self):
        g = np.array([[0.6, -0.9, 1.4]])
        table = _table(g)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # single-point table
            result = newton_minimize(table, identity_map(3))
        assert result.iterations == 1
        assert result.theta == approx(g[0])
        assert result.grad_norm <= 1e-6

    def test_exponential_payoff_recovers_sigma(self):
        # theta* = 0.2 from minimizing the closed-form proxy; the 0.025
        # band is about 4.8 asymptotic standard errors at n = 10,000.
        block = draw_samples(RngStream(161, 0), 10_000, 1)
        table = precompute_weights(block, EXP_PAYOFF)
        result = newton_minimize(table, identity_map(1))
        assert abs(result.theta[0] - 0.2) <= 0.025
        assert result.iterations <= 10

    def test_descent_and_consistency(self):
        block = draw_samples(RngStream(99, 0), 4_000, 40)
        model = BlackScholesMulti.create(40, [1.0], 50.0, 0.2, 0.05, 0.2)
        payoff = build_payoff(model, Basket(weights=np.full(40, 1.0 / 40.0), strike=50.0))
        table = precompute_weights(block, payoff)
        result = newton_minimize(table, identity_map(40))
        assert np.all(np.diff(result.u_history) < 0)
        assert result.v_value == approx(np.exp(result.u_history[-1]) / table.n, rel=1e-10)
        assert result.grad_norm <= 1e-6

    def test_minimizer_beats_origin_and_probes(self):
        rng = np.random.default_rng(77)
        table, drift, _ = _random_config(rng)
        result = newton_minimize(table, drift)
        v_min = eval_vn(table, drift, result.theta)
        assert v_min <= eval_vn(table, drift, np.zeros(drift.d_reduced)) + 1e-9
        for _ in range(100):
            probe = result.theta + rng.uniform(-1.0, 1.0, drift.d_reduced)
            assert v_min <= eval_vn(table, drift, probe) + 1e-9

    def test_single_nonzero_weight_warns_but_converges(self):
        values = np.array([[3.0], [-1.0], [0.5]])
        table = _table(values, weights_of=lambda x: (x[..., 0] > 2.0).astype(float))
        with pytest.warns(RuntimeWarning):
            result = newton_minimize(table, identity_map(1))
        assert result.theta[0] == approx(3.0, abs=1e-6)

    def test_rank_deficient_map_rejected_at_construction(self):
        # Built by hand, not through dense_map: the map checks its own rank,
        # so no solve can meet a singular A*A.
        with pytest.raises(RankDeficientDriftMap):
            DriftMap(d=2, matrix=np.array([[1.0, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("case", ["basket", "cosh"])
    def test_matches_textbook_loop_without_a_hessian_pass(self, case, monkeypatch):
        # The 40-asset basket takes full steps; cosh(3x) needs shortened ones.
        # The textbook exact-Newton loop on u_n and its derivatives is the
        # oracle: both minimizers lie within 2 * DEFAULT_TOL of each other,
        # since the Hessian is at least A*A = I here. The solve starts from
        # that bound, so its first trial point is -grad u_n(0) bit for bit.
        if case == "basket":
            model = BlackScholesMulti.create(40, [1.0], 50.0, 0.2, 0.05, 0.2)
            payoff = build_payoff(model, Basket(weights=np.full(40, 1.0 / 40.0), strike=60.0))
            table = precompute_weights(draw_samples(RngStream(99, 0), 3_000, 40), payoff)
        else:
            payoff = Payoff(1, lambda x: np.cosh(3.0 * x[..., 0]))
            table = precompute_weights(draw_samples(RngStream(11, 0), 5_000, 1), payoff)
        drift = identity_map(table.samples.d)
        x, history, first_step = _textbook_newton(table, drift)
        assert len(history) - 1 >= 3
        assert (first_step > 1) == (case == "cosh")
        grad_at_zero, _ = eval_un_derivatives(table, drift, np.zeros(drift.d_reduced))

        points = []
        evaluate = _Objective.evaluate
        monkeypatch.setattr(
            _Objective, "evaluate", lambda obj, v: points.append(v) or evaluate(obj, v)
        )
        result = newton_minimize(table, drift)
        assert (points[1] == -grad_at_zero).all()
        assert np.all(np.diff(result.u_history) < 0)
        assert result.safeguarded == (case == "cosh")
        assert np.linalg.norm(result.theta - x) <= 2 * DEFAULT_TOL
        assert result.v_value == eval_vn(table, drift, result.theta)

    def test_basket_ris_shaped_solve_takes_no_hessian_pass(self, monkeypatch):
        # d = d' = 500 as on the basket-ris workload, where building a
        # Hessian would cost several gradient passes. The BFGS steps grow in
        # number as n falls toward d' (about 14 at n = 2,000, 28 at n = 100);
        # the workload's n = 20,000 block and its 10,000-row halves take 7-9.
        # Each point the solve evaluates gathers every nonzero row once.
        cfg = Path(__file__).resolve().parent.parent / "perfbench" / "basket_ris.cfg"
        payoff = parse_config(cfg).payoff()
        table = precompute_weights(draw_samples(RngStream(3), 6_000, payoff.dim), payoff)
        points, gathered = [], []
        evaluate, chunks = _Objective.evaluate, _Objective.chunks

        def counted(obj):
            for part, chunk in chunks(obj):
                gathered.append(len(chunk))
                yield part, chunk

        monkeypatch.setattr(
            _Objective, "evaluate", lambda obj, v: points.append(v) or evaluate(obj, v)
        )
        monkeypatch.setattr(_Objective, "chunks", counted)
        result = newton_minimize(table, identity_map(payoff.dim))
        assert len(points) > result.iterations
        assert sum(gathered) == len(points) * table.nonzero
        assert 1 < result.iterations <= 10
        assert result.grad_norm <= DEFAULT_TOL
        assert np.all(np.diff(result.u_history) < 0)

    def test_few_nonzero_rows_against_d_reduced_converge(self):
        # 100 samples of the basket-ris payoff against d' = 500: the softmax
        # weights concentrate on a few rows, the curvature at the optimum is
        # far from the curvature at the start, and a solve seeded with the
        # exact Hessian at 0 reached the 50-step cap on 3 of these seeds.
        cfg = Path(__file__).resolve().parent.parent / "perfbench" / "basket_ris.cfg"
        payoff = parse_config(cfg).payoff()
        drift = identity_map(payoff.dim)
        steps = []
        for seed in range(40):
            table = precompute_weights(draw_samples(RngStream(seed), 100, payoff.dim), payoff)
            result = newton_minimize(table, drift)
            assert result.grad_norm <= DEFAULT_TOL
            steps.append(result.iterations)
        assert max(steps) <= 35

    @pytest.mark.parametrize("lowest", [0.1, 1.0])
    @pytest.mark.parametrize("d_reduced", [20, 50, 200])
    def test_anisotropic_dense_map_matches_exact_newton(self, d_reduced, lowest):
        # A = U diag(sigma) V* with singular values over two decades from
        # ``lowest`` on a basket of d = 2 d' assets, so the A*A seed is far
        # from a multiple of the identity. Both solves stop at a gradient
        # below DEFAULT_TOL, and v_n is flat to second order there. With
        # sigma up to 100 the Euclidean gradient in v is up to 100 times the
        # gradient in theta, and a stop on it asks for a decrease of u_n
        # below rounding, which the line search cannot find.
        rng = np.random.default_rng(d_reduced)
        d = 2 * d_reduced
        left = np.linalg.qr(rng.standard_normal((d, d_reduced)))[0]
        right = np.linalg.qr(rng.standard_normal((d_reduced, d_reduced)))[0]
        sigma = np.geomspace(lowest, 100.0 * lowest, d_reduced)
        drift = dense_map(left * sigma @ right.T)
        assert np.linalg.cond(drift.matrix) == approx(100.0)
        model = BlackScholesMulti.create(d, [1.0], 50.0, 0.2, 0.05, 0.2)
        payoff = build_payoff(model, Basket(weights=np.full(d, 1.0 / d), strike=55.0))
        table = precompute_weights(draw_samples(RngStream(d_reduced, 0), 4_000, d), payoff)
        result = newton_minimize(table, drift)
        assert result.grad_norm <= DEFAULT_TOL
        x, _, _ = _textbook_newton(table, drift)
        assert result.v_value == approx(eval_vn(table, drift, x), rel=1e-10)

    def test_deterministic_result(self):
        block = draw_samples(RngStream(12, 0), 1_000, 3)
        payoff = Payoff(3, lambda x: np.maximum(x.sum(axis=-1), 0.0))
        a = newton_minimize(precompute_weights(block, payoff), identity_map(3))
        b = newton_minimize(precompute_weights(block, payoff), identity_map(3))
        assert (a.theta == b.theta).all()
        assert a.u_history[-1] == b.u_history[-1]


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**31 - 1), log_scale=st.floats(-12.0, 12.0))
def test_weight_rescaling_invariance(seed, log_scale):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(2, 30)), int(rng.integers(1, 4))
    values = rng.standard_normal((n, d))
    base = rng.uniform(0.1, 2.0, n)
    scale = np.exp(log_scale)
    theta = rng.uniform(-0.5, 0.5, d)

    def table_for(factor):
        weights = np.sqrt(base * factor)
        return _table(values, weights_of=lambda x: np.broadcast_to(weights, x.shape[:-1]))

    drift = identity_map(d)
    t1, t2 = table_for(1.0), table_for(scale)
    u1, u2 = eval_un(t1, drift, theta), eval_un(t2, drift, theta)
    assert u2 - u1 == approx(log_scale, abs=1e-9)
    g1, h1 = eval_un_derivatives(t1, drift, theta)
    g2, h2 = eval_un_derivatives(t2, drift, theta)
    assert g1 == approx(g2, abs=1e-12)
    assert np.abs(h1 - h2).max() <= 1e-12
    r1 = newton_minimize(t1, drift)
    r2 = newton_minimize(t2, drift)
    assert r1.theta == approx(r2.theta, abs=1e-12)


class TestThetaCovariance:
    def test_unit_payoff_limit(self):
        # f == 1: Hessian of the proxy at 0 is E(1 + G^2) = 2 and the score
        # covariance is Cov(-G) = 1, so the sandwich is 1/4.
        block = draw_samples(RngStream(400, 0), 200_000, 1)
        table = precompute_weights(block, ONES_PAYOFF_1D)
        result = newton_minimize(table, identity_map(1))
        gamma = theta_covariance(table, identity_map(1), result.theta)
        assert gamma[0, 0] == approx(0.25, rel=0.05)

    def test_exponential_payoff_value(self):
        # Gaussian-moment calculus gives gamma = e^{sigma^2} (1 + sigma^2)/4
        # at sigma = 0.2.
        block = draw_samples(RngStream(401, 0), 1_000_000, 1)
        table = precompute_weights(block, EXP_PAYOFF)
        result = newton_minimize(table, identity_map(1))
        gamma = theta_covariance(table, identity_map(1), result.theta)
        expected = np.exp(0.04) * 1.04 / 4.0
        assert gamma[0, 0] == approx(expected, rel=0.10)

    def test_independent_of_payoff_scale(self):
        # Scaling f scales w by its square, which only shifts log w: the tilt
        # and gamma stay put, though at 1e100 an unshifted w_i e^{...} squared
        # would overflow.
        block = draw_samples(RngStream(3, 0), 2_000, 2)
        drift = identity_map(2)

        def gamma_at(scale):
            payoff = Payoff(2, lambda x: scale * np.maximum(x[..., 0] + 0.5 * x[..., 1], 0.0))
            table = precompute_weights(block, payoff)
            return theta_covariance(table, drift, newton_minimize(table, drift).theta)

        base = gamma_at(1.0)
        assert np.isfinite(base).all()
        for scale in (1e50, 1e100, 1e150):
            got = gamma_at(scale)
            assert np.abs(got - base).max() <= 1e-10 * np.abs(base).max(), scale

    def test_symmetric_and_psd_on_random_configs(self):
        rng = np.random.default_rng(31415)
        for _ in range(10):
            table, drift, _ = _random_config(rng)
            result = newton_minimize(table, drift)
            gamma = theta_covariance(table, drift, result.theta)
            assert gamma.shape == (drift.d_reduced, drift.d_reduced)
            assert np.abs(gamma - gamma.T).max() <= 1e-10
            np.linalg.cholesky(gamma + 1e-12 * np.eye(gamma.shape[0]))


class TestChunkedPasses:
    def test_chunked_moments_match_dense_formulas(self):
        # A non-identity map, and a nonzero count spanning several chunks
        # that is not a multiple of the chunk.
        rng = np.random.default_rng(77)
        d, d_red = 300, 256
        drift = dense_map(rng.standard_normal((d, d_red)) / np.sqrt(d) + np.eye(d, d_red))
        table = _table(
            rng.standard_normal((4000, d)),
            weights_of=lambda x: np.maximum(np.sin(x[:, :3].sum(axis=-1)) + 0.4, 0.0),
        )
        step = chunk_rows(d_red)
        assert table.nonzero > 2 * step and table.nonzero % step != 0
        v = rng.uniform(-0.05, 0.05, d_red)

        nz = table.values != 0.0
        reduced = drift.apply_adjoint(table.samples.values[nz])
        gram = drift.gram()
        logits = 2.0 * np.log(np.abs(table.values[nz])) - reduced @ v
        p = np.exp(logits - logits.max())
        p /= p.sum()
        mean = p @ reduced
        _, grad = _Objective(table, drift).evaluate(v)
        got_mean = gram @ v - grad
        assert np.abs(got_mean - mean).max() <= 1e-12 * np.abs(mean).max()

    @pytest.mark.parametrize("case", ["rising", "wide"])
    def test_online_shift_matches_two_pass_reference(self, case):
        # 64-row chunks, so one pass spans many. "rising": log w_i grows with
        # i, so the largest logit sits in the last chunk and later chunks
        # rescale the sums before them. "wide": logits spanning over 1,400,
        # where an unshifted exp overflows. The reference shifts all logits
        # at once by their maximum.
        rng = np.random.default_rng(5)
        n, d = 1_000, 3
        values = rng.standard_normal((n, d))
        if case == "rising":
            f, v = np.exp(np.linspace(0.0, 4.0, n)), rng.uniform(-0.1, 0.1, d)
        else:
            f, v = rng.uniform(0.5, 2.0, n), np.array([300.0, -200.0, 100.0])
        table = _table(values, weights_of=lambda x: np.broadcast_to(f, x.shape[:-1]))
        obj = _Objective(table, identity_map(d))
        obj.step = 64

        logits = np.log(f * f) - values @ v
        if case == "rising":
            assert logits[:64].max() < logits[-64:].max() == logits.max()
        else:
            assert np.ptp(logits) > 1_400
            with np.errstate(over="ignore"):
                assert not np.isfinite(np.exp(logits)).all()
        shift = logits.max()
        e = np.exp(logits - shift)
        p = e / e.sum()
        u = 0.5 * float(v @ v) + shift + np.log(e.sum())
        mean = p @ values

        got_u, grad = obj.evaluate(v)
        assert abs(got_u - u) <= 1e-12 * abs(u)
        assert np.abs((v - grad) - mean).max() <= 1e-12 * np.abs(mean).max()

    def test_online_shift_raises_on_non_finite_objective(self):
        rng = np.random.default_rng(6)
        obj = _Objective(_table(rng.standard_normal((1_000, 3))), identity_map(3))
        obj.step = 64
        for v in (np.full(3, 1e200), np.array([1e308, 0.0, 0.0]), np.array([np.nan, 0.0, 0.0])):
            with np.errstate(all="ignore"), pytest.raises(NonFiniteObjective):
                obj.evaluate(v)

    def test_gradient_overflow_raises_where_u_is_finite(self):
        # u_n = log 2 at v = 0, but the softmax mean of A*G_i sums 2 x 1e308.
        obj = _Objective(_table([[1e308], [1e308]]), identity_map(1))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteObjective, match="derivatives"):
            obj.evaluate(np.zeros(1))

    def test_variance_proxy_overflow_raises_where_u_is_finite(self):
        # f = 1e154 puts log w_i near 709, and |v|^2 / 2 = 450 lifts u_n - log n past 709.8.
        samples = np.random.default_rng(3).standard_normal((100, 1))
        table = _table(samples, weights_of=lambda x: np.full(x.shape[:-1], 1e154))
        obj = _Objective(table, identity_map(1))
        u, _ = obj.evaluate(np.array([30.0]))
        assert np.isfinite(u)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteObjective, match="overflowed"):
            obj.v_from_u(u)

    def test_memory_above_block_is_bounded_by_optimizer_chunks(self):
        # The basket-ris workload's block (d = d' = 500, n = 20k, 80 MB, most
        # rows nonzero): copying the nonzero rows, or forming an n_nz x d'
        # product, would each take most of the block.
        cfg = Path(__file__).resolve().parent.parent / "perfbench" / "basket_ris.cfg"
        payoff = parse_config(cfg).payoff()
        n, d = 20_000, payoff.dim
        table = precompute_weights(draw_samples(RngStream(5), n, d), payoff)
        chunk_bytes = chunk_rows(d) * d * 8
        bound = 4 * chunk_bytes + 8 * n * 8
        assert bound < table.samples.values.nbytes / 3
        tracemalloc.start()
        try:
            _Objective(table, identity_map(d)).evaluate(np.zeros(d))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_one_gathered_chunk_per_pass(self, monkeypatch):
        # The basket-ris block (d = d' = 500, 500 KiB chunks). A pass drops
        # each chunk before gathering the next, so doubling the chunk raises
        # its peak by one chunk; two live chunks would raise it by two. The
        # slack of half a chunk covers the chunk-sized vectors.
        cfg = Path(__file__).resolve().parent.parent / "perfbench" / "basket_ris.cfg"
        payoff = parse_config(cfg).payoff()
        n, d = 20_000, payoff.dim
        table = precompute_weights(draw_samples(RngStream(13), n, d), payoff)
        obj = _Objective(table, identity_map(d))
        assert obj.step == chunk_rows(d)
        chunk_bytes = obj.step * d * 8
        square_bytes = d * d * 8

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        gradient_pass = peak(lambda: obj.evaluate(np.zeros(d)))
        obj.step *= 2
        growth = peak(lambda: obj.evaluate(np.zeros(d))) - gradient_pass
        obj.step //= 2
        assert 0.5 * chunk_bytes < growth < 1.5 * chunk_bytes
        assert gradient_pass < chunk_bytes + chunk_bytes // 2

        # A solve builds no Hessian: whenever it enters a pass it holds O(n)
        # vectors and its BFGS pairs, not a d' x d' array.
        evaluate = _Objective.evaluate
        entries = []

        def spy(obj, v):
            entries.append(tracemalloc.get_traced_memory()[0] - start)
            return evaluate(obj, v)

        monkeypatch.setattr(_Objective, "evaluate", spy)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            newton_minimize(table, identity_map(d))
        finally:
            tracemalloc.stop()
        assert entries and max(entries) < 1.5 * square_bytes
