"""Acceptance suite: one test per criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion; add ``-s`` to see the measured values behind each verdict.

The three benchmark parameter grids are executed once per session on their
default seed and shared across criteria. Reference prices and variances in
the assertions are frozen benchmark values; price bands are 3 asymptotic
standard errors wide and variance bands are fixed multiplicative windows.
"""

import time

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.special import ndtr
from scipy.stats import kstest

from objectives import eval_un, eval_un_derivatives, eval_vn
from tiltmc import (
    Basket,
    BestOf,
    BlackScholesMulti,
    Digital,
    Payoff,
    RngStream,
    bs_digital_price,
    build_payoff,
    draw_samples,
    estimate_theta_covariance,
    identity_map,
    newton_minimize,
    path_drift_multi,
    precompute_weights,
    run_pipeline,
    tilted_terms,
    coverage_experiment,
)
from tiltmc.cli import main, run_experiment
from tiltmc.config import builtin_experiment

EXP_PAYOFF = Payoff(1, lambda x: np.exp(0.2 * x[..., 0]))


def _check(tag: str, ok: bool, detail: str):
    print(f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag} failed: {detail}"


def _grouped(rows):
    table = {}
    for row in rows:
        table.setdefault(row.label, {})[row.report.mode] = row.report
    return table


@pytest.fixture(scope="session")
def table1():
    started = time.perf_counter()
    rows = run_experiment("table1", builtin_experiment("table1"), threads=1)
    return _grouped(rows), time.perf_counter() - started


@pytest.fixture(scope="session")
def table3():
    return _grouped(run_experiment("table3", builtin_experiment("table3"), threads=1))


@pytest.fixture(scope="session")
def table4():
    return _grouped(run_experiment("table4", builtin_experiment("table4"), threads=1))


# --- AC1: 40-asset basket grid -------------------------------------------------

# label -> (reference price, crude variance, tilted variance)
BASKET_REFERENCE = {
    "rho=0.2 K=50": (3.298, 13.56, 1.74),
    "rho=0.1 K=45": (7.210, 12.12, 1.04),
    "rho=0.1 K=55": (0.561, 1.90, 0.14),
    "rho=0.9 K=45": (8.215, 69.47, 7.89),
    "rho=0.9 K=55": (2.823, 30.08, 2.58),
}


def test_ac1_basket_grid_reproduction(table1):
    reports, elapsed = table1
    for label, (price_ref, crude_ref, tilted_ref) in BASKET_REFERENCE.items():
        crude, tilted = reports[label]["crude"], reports[label]["ris"]
        band = 3.0 * np.sqrt(tilted_ref / 10_000)
        _check(
            "AC1 price " + label,
            abs(tilted.price - price_ref) <= band,
            f"{tilted.price:.4f} vs {price_ref} within {band:.4f}",
        )
        lo, hi = tilted_ref * (1.3 / 1.74), tilted_ref * (2.3 / 1.74)
        _check(
            "AC1 tilted variance " + label,
            lo <= tilted.variance <= hi,
            f"{tilted.variance:.3f} in [{lo:.3f}, {hi:.3f}]",
        )
        lo, hi = crude_ref * (11.0 / 13.56), crude_ref * (16.0 / 13.56)
        _check(
            "AC1 crude variance " + label,
            lo <= crude.variance <= hi,
            f"{crude.variance:.2f} in [{lo:.2f}, {hi:.2f}]",
        )
    _check("AC1 runtime", elapsed <= 10.0, f"full grid in {elapsed:.2f}s single-threaded")


# --- AC2: discretely monitored barrier call ------------------------------------


def test_ac2_barrier_reproduction(table3):
    row = table3["L=80"]
    full, reduced = row["ris"], row["rris"]
    band = 3.0 * np.sqrt(35.68 / 10_000)
    _check("AC2 price full", abs(full.price - 11.244) <= band, f"{full.price:.3f} +- {band:.3f}")
    _check(
        "AC2 price reduced", abs(reduced.price - 11.244) <= band, f"{reduced.price:.3f} +- {band:.3f}"
    )
    _check(
        "AC2 variance full",
        0.75 * 35.68 <= full.variance <= 1.25 * 35.68,
        f"{full.variance:.2f} in +-25% of 35.68",
    )
    _check(
        "AC2 variance reduced",
        0.75 * 36.11 <= reduced.variance <= 1.25 * 36.11,
        f"{reduced.variance:.2f} in +-25% of 36.11",
    )
    gap = abs(full.variance - reduced.variance) / min(full.variance, reduced.variance)
    _check("AC2 variance agreement", gap <= 0.15, f"relative gap {gap:.3f} <= 0.15")


# --- AC3: 5-asset barrier basket ------------------------------------------------


def test_ac3_barrier_basket_reproduction(table4):
    reduced = table4["K=50"]["rris"]
    band = 3.0 * np.sqrt(0.79 / 100_000)
    _check("AC3 price", abs(reduced.price - 1.175) <= band, f"{reduced.price:.4f} +- {band:.4f}")
    _check(
        "AC3 variance", 0.6 <= reduced.variance <= 1.0, f"{reduced.variance:.3f} in [0.6, 1.0]"
    )


def test_ac3_reduced_search_is_faster():
    # Direction-only timing of the Newton solve on the K=50 row's weight
    # table: the reduced d' = 5 search against the full d = 120 one. Whole
    # pipelines are not timed, because their payoff passes dominate and
    # are the same for both. Medians over three alternating repetitions
    # absorb scheduler noise.
    spec = builtin_experiment("table4")[1].spec
    payoff = spec.payoff()
    block = draw_samples(RngStream(spec.seed, 1), spec.n, payoff.dim)
    table = precompute_weights(block, payoff)
    reduced, full = spec.drift(), identity_map(payoff.dim)
    assert (reduced.d_reduced, full.d_reduced) == (5, 120)

    def solve_time(drift):
        started = time.perf_counter()
        newton_minimize(table, drift)
        return time.perf_counter() - started

    solve_time(reduced)  # warmup
    reduced_times, full_times = [], []
    for _ in range(3):
        reduced_times.append(solve_time(reduced))
        full_times.append(solve_time(full))
    reduced_med, full_med = np.median(reduced_times), np.median(full_times)
    _check(
        "AC3 timing direction",
        reduced_med < full_med,
        f"reduced {1e3 * reduced_med:.0f} ms < full {1e3 * full_med:.0f} ms",
    )


# --- AC4: interval coverage on the digital option -------------------------------


def test_ac4_digital_coverage():
    model = BlackScholesMulti.create(1, [1.0], 100.0, 0.2, 0.05, 0.0)
    payoff = build_payoff(model, Digital(level=140.0))
    reference = bs_digital_price(100.0, 140.0, 0.05, 0.2, 1.0)
    result = coverage_experiment(
        payoff,
        "ris",
        100_000,
        1729,
        reference,
        replications=2_000,
        drift=identity_map(1),
        level=0.95,
        threads=2,
    )
    _check(
        "AC4 coverage",
        0.935 <= result.empirical_level <= 0.965,
        f"{result.empirical_level:.4f} in [0.935, 0.965] over {result.replications} runs",
    )
    _check("AC4 failures", result.failures == 0, f"{result.failures} failed replications")


# --- AC5: exponential-payoff exactness ------------------------------------------


def test_ac5_exponential_exactness():
    block = draw_samples(RngStream(1729, 0), 10_000, 1)
    table = precompute_weights(block, EXP_PAYOFF)
    terms = tilted_terms(table, [0.2])
    spread = np.abs(terms - np.exp(0.02)).max()
    _check("AC5 summand identity", spread <= 1e-12, f"max |term - e^0.02| = {spread:.2e}")
    _check("AC5 summand variance", terms.var() <= 1e-12, f"var = {terms.var():.2e}")
    result = newton_minimize(table, identity_map(1))
    _check(
        "AC5 optimizer recovers tilt",
        abs(result.theta[0] - 0.2) <= 0.025,
        f"theta = {result.theta[0]:.4f} vs 0.2 +- 0.025",
    )


# --- AC6: derivative correctness over randomized configurations -----------------


def _random_payoff_config(rng):
    pick = rng.integers(0, 5)
    if pick == 0:
        model = BlackScholesMulti.create(1, [1.0], 100.0, rng.uniform(0.1, 0.4), 0.05)
        claim = Basket(np.ones(1), rng.uniform(80.0, 120.0))
        drift = identity_map(1)
    elif pick == 1:
        model = BlackScholesMulti.create(1, [1.0], 100.0, 0.2, 0.05)
        claim = Digital(level=rng.uniform(90.0, 120.0))
        drift = identity_map(1)
    elif pick == 2:
        n_assets = int(rng.integers(2, 5))
        model = BlackScholesMulti.create(
            n_assets, [1.0], rng.uniform(40, 60, n_assets), rng.uniform(0.15, 0.3, n_assets),
            0.05, rng.uniform(0.0, 0.6),
        )
        claim = Basket(weights=np.full(n_assets, 1.0 / n_assets), strike=rng.uniform(40, 55))
        drift = identity_map(n_assets)
    elif pick == 3:
        times = np.cumsum(rng.uniform(0.1, 0.3, int(rng.integers(3, 7))))
        model = BlackScholesMulti.create(1, times, 100.0, 0.2, 0.05)
        claim = Basket(np.ones(1), rng.uniform(90, 115), np.array([rng.uniform(60, 85)]))
        drift = path_drift_multi(times, 1)
    else:
        times = np.cumsum(rng.uniform(0.2, 0.4, int(rng.integers(2, 4))))
        n_assets = int(rng.integers(2, 4))
        model = BlackScholesMulti.create(
            n_assets, times, 50.0, 0.2, 0.05, rng.uniform(0.1, 0.5)
        )
        claim = BestOf(weights=np.ones(n_assets), strike=rng.uniform(40, 60))
        drift = path_drift_multi(times, n_assets)
    payoff = build_payoff(model, claim)
    block = draw_samples(RngStream(int(rng.integers(1, 2**32)), 0), 400, payoff.dim)
    table = precompute_weights(block, payoff)
    theta = rng.uniform(-0.6, 0.6, drift.d_reduced)
    return table, drift, theta


def test_ac6_derivatives_match_finite_differences():
    rng = np.random.default_rng(60_61_62)
    step = 1e-4
    worst_grad, worst_hess = 0.0, 0.0
    for _ in range(20):
        table, drift, theta = _random_payoff_config(rng)
        grad, hess = eval_un_derivatives(table, drift, theta)
        fd_grad = np.empty_like(grad)
        for k in range(theta.size):
            e = np.zeros_like(theta)
            e[k] = step
            fd_grad[k] = (eval_un(table, drift, theta + e) - eval_un(table, drift, theta - e)) / (
                2 * step
            )
        rel_g = np.linalg.norm(fd_grad - grad) / max(np.linalg.norm(grad), 1.0)
        worst_grad = max(worst_grad, rel_g)
        for k in range(theta.size):
            e = np.zeros_like(theta)
            e[k] = step
            g_up, _ = eval_un_derivatives(table, drift, theta + e)
            g_dn, _ = eval_un_derivatives(table, drift, theta - e)
            column = (g_up - g_dn) / (2 * step)
            rel_h = np.linalg.norm(column - hess[:, k]) / max(np.linalg.norm(hess[:, k]), 1.0)
            worst_hess = max(worst_hess, rel_h)
    _check("AC6 gradient vs central differences", worst_grad <= 1e-4, f"worst rel {worst_grad:.2e}")
    _check("AC6 hessian vs central differences", worst_hess <= 1e-4, f"worst rel {worst_hess:.2e}")


# --- AC7: structural invariants --------------------------------------------------


def test_ac7_hessian_bound_and_objective_identity():
    rng = np.random.default_rng(70_71)
    worst_identity = 0.0
    for _ in range(100):
        table, drift, theta = _random_payoff_config(rng)
        _, hess = eval_un_derivatives(table, drift, theta)
        gap = hess - drift.gram()
        np.linalg.cholesky(gap + 1e-10 * np.eye(gap.shape[0]))
        vn = eval_vn(table, drift, theta)
        un = eval_un(table, drift, theta)
        rel = abs(vn - np.exp(un) / table.n) / vn
        worst_identity = max(worst_identity, rel)
    _check("AC7 hessian lower bound", True, "cholesky succeeded on 100 configs")
    _check("AC7 proxy identity", worst_identity <= 1e-10, f"worst rel {worst_identity:.2e}")


def test_ac7_minimizer_optimality():
    rng = np.random.default_rng(72_73)
    for _ in range(5):
        table, drift, _ = _random_payoff_config(rng)
        result = newton_minimize(table, drift)
        v_min = eval_vn(table, drift, result.theta)
        assert v_min <= eval_vn(table, drift, np.zeros(drift.d_reduced)) + 1e-9
        for _ in range(100):
            probe = result.theta + rng.uniform(-1.0, 1.0, drift.d_reduced)
            assert v_min <= eval_vn(table, drift, probe) + 1e-9
    _check("AC7 minimizer optimality", True, "origin and 100 probes per config dominated")


def test_ac7_newton_iterations_on_all_tables(table1, table3, table4):
    reports1, _ = table1
    worst = 0
    for grouped in (reports1, table3, table4):
        for label, by_mode in grouped.items():
            for mode, report in by_mode.items():
                if mode == "crude":
                    continue
                assert not report.fallback, f"{label}/{mode} fell back"
                assert report.optim.grad_norm <= 1e-6
                worst = max(worst, report.optim.iterations)
    _check("AC7 newton iterations", worst <= 10, f"max iterations {worst} <= 10")


# --- AC8: variance-reduction ratios ----------------------------------------------


def test_ac8_exchange_basket_ratio():
    rng = np.random.default_rng(808)
    weights = np.array([0.1] * 5 + [-0.1] * 5)
    for trial in range(3):
        spots = rng.uniform(70.0, 130.0, 10)
        vols = rng.uniform(0.1, 0.3, 10)
        model = BlackScholesMulti.create(10, [1.0], spots, vols, 0.05, 0.2)
        payoff = build_payoff(model, Basket(weights=weights, strike=0.0))
        table = precompute_weights(draw_samples(RngStream(811, trial), 20_000, 10), payoff)
        crude = run_pipeline(table, "crude")
        tilted = run_pipeline(table, "ris")
        ratio = crude.variance / tilted.variance
        _check(f"AC8 exchange basket {trial}", ratio >= 5.0, f"ratio {ratio:.1f} >= 5")


def test_ac8_best_of_ratio():
    times = np.arange(1, 13) / 12.0
    model = BlackScholesMulti.create(12, times, 50.0, 0.2, 0.05, 0.5)
    payoff = build_payoff(model, BestOf(weights=np.ones(12), strike=80.0))
    table = precompute_weights(draw_samples(RngStream(812, 0), 20_000, model.dim), payoff)
    crude = run_pipeline(table, "crude")
    reduced = run_pipeline(table, "rris", path_drift_multi(times, 12))
    ratio = crude.variance / reduced.variance
    _check("AC8 best-of", ratio >= 3.0, f"ratio {ratio:.1f} >= 3")


# --- AC9: asymptotic normality of the optimized tilt ------------------------------


def test_ac9_tilt_normality():
    model = BlackScholesMulti.create(1, [1.0], 100.0, 0.2, 0.05, 0.0)
    payoff = build_payoff(model, Digital(level=140.0))
    # Closed-form proxy for the digital: v(t) = e^{t^2 - 2rT} P(G > c + t),
    # minimized to machine precision as the centering value.
    threshold = (np.log(140.0 / 100.0) - 0.03) / 0.2

    def proxy(t):
        return float(np.exp(t * t - 0.1) * ndtr(-(threshold + t)))

    theta_star = minimize_scalar(
        proxy, bracket=(0.0, 2.0, 4.0), method="brent", options={"xtol": 1e-12}
    ).x
    drift = identity_map(1)
    n = 10_000
    z = np.empty(2_000)
    for rep in range(z.size):
        block = draw_samples(RngStream(909, rep), n, 1)
        table = precompute_weights(block, payoff)
        result = newton_minimize(table, drift)
        gamma = estimate_theta_covariance(table, drift, result.theta)[0, 0]
        z[rep] = (result.theta[0] - theta_star) / np.sqrt(gamma / n)
    stat, pvalue = kstest(z, "norm")
    _check("AC9 normality", pvalue > 0.01, f"KS stat {stat:.4f}, p = {pvalue:.3f} > 0.01")


# --- AC10: byte-identical CSV across thread counts --------------------------------


def test_ac10_thread_determinism(tmp_path):
    for name, n in (("table3", 2_000), ("table1", 1_000)):
        out1 = tmp_path / f"{name}_t1.csv"
        out8 = tmp_path / f"{name}_t8.csv"
        base = ["experiment", name, "--n", str(n), "--format", "csv", "--seed", "31"]
        assert main(base + ["--threads", "1", "--out", str(out1)]) == 0
        assert main(base + ["--threads", "8", "--out", str(out8)]) == 0
        _check(
            f"AC10 determinism {name}",
            out1.read_bytes() == out8.read_bytes(),
            "threads=1 vs threads=8 byte-identical",
        )
