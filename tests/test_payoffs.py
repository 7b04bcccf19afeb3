"""Payoff model tests.

Claims:
    - lognormal paths evaluate the closed exponential at x = 0 and match the
      closed-form call price in Monte Carlo over one million draws
    - the Euler recursion degenerates correctly with zero noise and reduces
      to one multiplicative step for constant volatility
    - a volatility table is bilinear (a cell midpoint is its corners' mean),
      holds its edge values beyond both ends of both axes, and a grid of one
      point is constant along that axis
    - claims (basket, digital, barriers, best-of) implement their
      indicator/rectifier definitions and discounting; a one-asset basket
      with weight 1 or -1 and strike K or -K gives the bits of the call
      max(S_T - K, 0) and the put max(K - S_T, 0)
    - barrier payoffs are nondecreasing along the single-parameter path
      drift direction
    - claim/model compatibility is validated eagerly, and a count mismatch
      names what is miscounted (weights or barriers)
    - each model and volatility function checks its own parameters when
      built and raises InvalidParameter naming the one that broke its rule;
      a model's states reject an input of the wrong width
    - lognormal claims read Brownian values: the terminal read equals the
      price grid's last date bitwise, and barrier claims, monitored against
      thresholds on W, equal their price-space definitions bitwise, also on
      paths placed just either side of a barrier; Euler barrier claims
      compare prices directly; ``states`` equals the per-row matmul and
      cumsum bitwise, also on long grids, row by row as in a one-row call,
      and its date-major memory reads the same terminal values, barrier
      outcomes and prices as a row-major copy
    - batches are evaluated over 64-row-aligned row chunks: bit-identical to
      one whole-array call for every claim (payoff and tilted pass), no
      non-finite row is skipped, and the extra memory is bounded by a chunk,
      not by n*d
"""

import tracemalloc

import numpy as np
import pytest
from pytest import approx

from tiltmc import (
    Basket,
    BestOf,
    BlackScholesMulti,
    ConstantVol,
    Digital,
    IncompatibleClaim,
    InvalidParameter,
    LocalVol1D,
    NonFiniteInput,
    Payoff,
    PowerLawVol,
    RngStream,
    TabulatedVol,
    bs_call_price,
    build_payoff,
    draw_samples,
    path_drift_multi,
    precompute_weights,
    tilted_terms,
)
from tiltmc.config import builtin_experiment
from tiltmc.payoffs import chunk_rows


def _basket40(rho=0.2, strike=50.0):
    model = BlackScholesMulti.create(40, [1.0], 50.0, 0.2, 0.05, rho)
    return model, Basket(weights=np.full(40, 1.0 / 40.0), strike=strike)


_SINGLE_ASSET_MODELS = (
    BlackScholesMulti.create(1, [0.5, 1.0], 100.0, 0.2, 0.05),
    LocalVol1D(
        spot=100.0, rate=0.05, maturity=1.0, n_steps=12,
        vol_fn=PowerLawVol(sigma=0.2, gamma=0.5, ref_spot=100.0),
    ),
)


def _terminal_draws(model):
    """Draws, their S_T read off the price grid, and the discount factor."""
    x = draw_samples(RngStream(21), 5000, model.dim).values
    return x, model.paths(x)[..., -1, 0], np.exp(-model.rate * model.maturity)


class TestAssetPaths:
    def test_bs_at_zero_noise(self):
        model = BlackScholesMulti.create(1, [1.0], 50.0, 0.2, 0.05)
        s = model.paths(np.zeros(1))
        # S_T = S0 exp((r - sigma^2/2) T) = 50 e^{0.03}
        assert s[0, 0] == approx(50.0 * np.exp(0.03))
        assert s[0, 0] == approx(51.52273, abs=1e-5)

    def test_localvol_zero_vol_is_deterministic(self):
        model = LocalVol1D(spot=80.0, rate=0.03, maturity=1.0, n_steps=5, vol_fn=ConstantVol(1e-12))
        x = np.array([3.0, -2.0, 1.0, 0.0, 5.0])
        s = model.paths(x)[:, 0]
        h = 1.0 / 5.0
        expected = 80.0 * (1.0 + 0.03 * h) ** np.arange(1, 6)
        assert s == approx(expected, rel=1e-9)

    def test_localvol_single_step_constant_vol(self):
        sigma, maturity = 0.25, 1.0
        model = LocalVol1D(spot=100.0, rate=0.05, maturity=maturity, n_steps=1, vol_fn=ConstantVol(sigma))
        x = np.array([0.7])
        s = model.paths(x)
        assert s[0, 0] == approx(100.0 * (1.0 + sigma * np.sqrt(maturity) * 0.7 + 0.05 * maturity))

    def test_batched_evaluation_matches_single(self):
        model = BlackScholesMulti.create(2, [0.5, 1.0], [50.0, 60.0], [0.2, 0.3], 0.05, 0.4)
        rng = np.random.default_rng(5)
        batch = rng.standard_normal((7, model.dim))
        stacked = np.stack([model.paths(row) for row in batch])
        assert model.paths(batch) == approx(stacked)

    def test_terminal_law_matches_closed_form_call(self):
        model = BlackScholesMulti.create(1, [1.0], 100.0, 0.2, 0.05)
        payoff = build_payoff(model, Basket(np.ones(1), 100.0))
        block = draw_samples(RngStream(88, 0), 1_000_000, 1)
        values = payoff(block.values)
        se = values.std() / np.sqrt(values.size)
        assert values.mean() == approx(bs_call_price(100.0, 100.0, 0.05, 0.2, 1.0), abs=4 * se)


class TestClaims:
    def test_basket_at_zero_noise(self):
        model, claim = _basket40()
        payoff = build_payoff(model, claim)
        expected = np.exp(-0.05) * (50.0 * np.exp(0.03) - 50.0)
        assert payoff(np.zeros(40)) == approx(expected)
        assert payoff(np.zeros(40)) == approx(1.448462, abs=1e-5)

    def test_digital_below_level_pays_zero(self):
        model = BlackScholesMulti.create(1, [1.0], 100.0, 0.2, 0.05)
        payoff = build_payoff(model, Digital(level=140.0))
        assert payoff(np.zeros(1)) == 0.0
        # Far above the level it pays the discounted unit.
        assert payoff(np.array([10.0])) == approx(np.exp(-0.05))

    def test_barrier_knockout_annihilates(self):
        times = np.array([0.5, 1.0])
        model = BlackScholesMulti.create(1, times, 100.0, 0.2, 0.05)
        payoff = build_payoff(model, Basket(np.ones(1), 50.0, np.array([80.0])))
        # First coordinate very negative: monitoring date breaches the
        # barrier even though the terminal value recovers above the strike.
        x = np.array([-4.0, 8.0])
        s = model.paths(x)[:, 0]
        assert s[0] < 80.0 < s[1]
        assert payoff(x) == 0.0

    def test_vanilla_call_closed_chain(self):
        model = BlackScholesMulti.create(1, [1.0], 100.0, 0.2, 0.05)
        payoff = build_payoff(model, Basket(np.ones(1), 95.0))
        rng = np.random.default_rng(17)
        for x in rng.standard_normal(10):
            expected = np.exp(-0.05) * max(
                100.0 * np.exp((0.05 - 0.02) * 1.0 + 0.2 * x) - 95.0, 0.0
            )
            assert payoff(np.array([x])) == approx(expected)
        # Weight 1 and strike K give the call max(S_T - K, 0) bit for bit.
        for model in _SINGLE_ASSET_MODELS:
            x, s_t, discount = _terminal_draws(model)
            call = build_payoff(model, Basket(np.ones(1), 95.0))(x)
            assert np.array_equal(call, discount * np.maximum(s_t - 95.0, 0.0))
            assert call.mean() > 0.0

    def test_best_of_single_asset_is_vanilla(self):
        model = BlackScholesMulti.create(1, [1.0], 100.0, 0.2, 0.05)
        best = build_payoff(model, BestOf(weights=np.array([1.0]), strike=90.0))
        call = build_payoff(model, Basket(np.ones(1), 90.0))
        x = np.linspace(-2, 2, 9).reshape(-1, 1)
        assert best(x) == approx(call(x))

    def test_exchange_basket_cancels_at_zero_noise(self):
        weights = np.array([0.1] * 5 + [-0.1] * 5)
        model = BlackScholesMulti.create(10, [1.0], 100.0, 0.2, 0.05, 0.2)
        payoff = build_payoff(model, Basket(weights=weights, strike=0.0))
        assert payoff(np.zeros(10)) == approx(0.0, abs=1e-10)

    def test_doubling_weights_doubles_zero_strike_basket(self):
        model = BlackScholesMulti.create(3, [1.0], 100.0, 0.2, 0.05, 0.1)
        w = np.array([0.2, 0.3, 0.5])
        single = build_payoff(model, Basket(weights=w, strike=0.0))
        double = build_payoff(model, Basket(weights=2 * w, strike=0.0))
        x = np.random.default_rng(3).standard_normal((20, 3))
        assert double(x) == approx(2.0 * single(x))

    def test_barrier_basket_requires_all_assets_alive(self):
        times = np.array([1.0])
        model = BlackScholesMulti.create(2, times, [50.0, 50.0], [0.2, 0.2], 0.05, 0.0)
        payoff = build_payoff(
            model,
            Basket(weights=np.array([0.5, 0.5]), strike=10.0, barriers=np.array([40.0, 40.0])),
        )
        # Second asset crashes through its barrier.
        x = np.array([0.5, -8.0])
        assert payoff(x) == 0.0

    def test_put_is_negative_weight_basket(self):
        # Weight -1 and strike -K give the put max(K - S_T, 0) bit for bit:
        # S_T * -1 is exact and -S_T - (-K) rounds as K - S_T does.
        for model in _SINGLE_ASSET_MODELS:
            x, s_t, discount = _terminal_draws(model)
            put = build_payoff(model, Basket(-np.ones(1), -95.0))(x)
            assert np.array_equal(put, discount * np.maximum(95.0 - s_t, 0.0))
            assert put.mean() > 0.0


def _near_barrier_rows(model, barriers, rng, count):
    """Rows that stay near the drift except at one random (date, asset),
    where the price is barrier * (1 -+ 1e-9): even rows just below, odd
    rows just above."""
    x = 0.1 * rng.standard_normal((count, model.dim))
    steps = x.reshape(count, model.n_steps, model.n_assets)
    sqrt_dt = np.sqrt(np.diff(model.times, prepend=0.0))
    log_drift = np.outer(model.times, model.rate - 0.5 * model.vol**2)
    barriers = np.broadcast_to(barriers, (model.n_assets,))
    for k in range(count):
        j, i = rng.integers(model.n_steps), rng.integers(model.n_assets)
        level = barriers[i] * (1.0 + (1e-9 if k % 2 else -1e-9))
        target = (np.log(level / model.spot[i]) - log_drift[j, i]) / model.vol[i]
        w = model.states(x[k])
        # W[j, i] moves by sqrt(dt_j) * chol[i, i] per unit of this entry;
        # the next increment takes the move back, so later dates keep theirs.
        shift = (target - w[j, i]) / (sqrt_dt[j] * model.chol[i, i])
        steps[k, j, i] += shift
        if j + 1 < model.n_steps:
            steps[k, j + 1, i] -= shift * sqrt_dt[j] / sqrt_dt[j + 1]
    return x


def _price_space_reference(model, claim, x):
    """The claim's definition evaluated on the full price grid."""
    s = model.paths(x)
    alive = (s <= claim.barriers if claim.up else s >= claim.barriers).all(axis=(-2, -1))
    value = np.maximum(s[..., -1, :] @ claim.weights - claim.strike, 0.0)
    return np.exp(-model.rate * model.maturity) * (value * alive), alive


class TestBrownianReads:
    steps = 2.0 / 24.0 * np.arange(1, 25)
    five = BlackScholesMulti.create(5, steps, [50.0, 40.0, 60.0, 30.0, 20.0], 0.2, 0.05, 0.3)
    single = BlackScholesMulti.create(1, steps, 100.0, 0.2, 0.05)
    CASES = {
        "basket": (five, Basket(
            weights=np.full(5, 0.2), strike=38.0, barriers=np.array([45.0, 36.0, 54.0, 27.0, 18.0]),
        )),
        "down-out": (single, Basket(np.ones(1), 100.0, np.array([90.0]))),
        "up-out": (single, Basket(np.ones(1), 95.0, np.array([115.0]), up=True)),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_barrier_claim_equals_price_space_reference(self, name):
        model, claim = self.CASES[name]
        near = _near_barrier_rows(model, claim.barriers, np.random.default_rng(4), 400)
        x = np.concatenate([draw_samples(RngStream(6), 3000, model.dim).values, near])
        expected, alive = _price_space_reference(model, claim, x)
        assert np.array_equal(build_payoff(model, claim)(x), expected)
        # The rows placed at the barrier land on the intended sides of it:
        # the side beyond it knocks out, the other survives unless another
        # date crosses too.
        below, above = alive[-400::2], alive[-399::2]
        knocked, kept = (above, below) if name == "up-out" else (below, above)
        assert not knocked.any()
        assert kept.mean() > 0.9

    @pytest.mark.parametrize("model", [five, single, _basket40()[0]], ids=["five", "single", "basket40"])
    def test_terminal_read_is_the_price_grid_last_date(self, model):
        x = draw_samples(RngStream(8), 700, model.dim).values
        assert np.array_equal(model.terminal(model.states(x)), model.paths(x)[..., -1, :])
        assert np.array_equal(model.terminal(model.states(x[5])), model.paths(x[5])[-1, :])

    @pytest.mark.parametrize("n_steps", [1, 3, 24])
    @pytest.mark.parametrize("n_assets", [1, 2, 5, 40])
    def test_states_shortcuts_match_matmul_and_cumsum(self, n_assets, n_steps):
        # One asset skips the per-row 1 x 1 matmul, and dates are summed by
        # a loop over date-major memory; neither may change a bit of the
        # matmul and cumsum.
        model = BlackScholesMulti.create(n_assets, np.linspace(0.25, 2.0, n_steps), 50.0, 0.2, 0.05, 0.3)
        rng = np.random.default_rng(10 * n_assets + n_steps)
        dt = np.sqrt(np.diff(model.times, prepend=0.0))[:, None]

        def reference(x):
            w = x.reshape(x.shape[:-1] + (n_steps, n_assets)) @ model.chol.T
            return np.cumsum(w * dt, axis=-2)

        for x in [rng.standard_normal((rows, model.dim)) for rows in (1, 63, 64, 517)] + [
            rng.standard_normal(model.dim)
        ]:
            assert np.array_equal(model.states(x), reference(x)), x.shape

    @pytest.mark.parametrize("n_steps", [1, 3, 24])
    @pytest.mark.parametrize("n_assets", [2, 5, 40])
    def test_each_row_of_a_batch_equals_its_one_row_call(self, n_assets, n_steps):
        # One stacked (N, rows, I) product would sum some rows differently
        # from the same rows alone; the per-row product must not.
        model = BlackScholesMulti.create(n_assets, np.linspace(0.25, 2.0, n_steps), 50.0, 0.2, 0.05, 0.3)
        x = np.random.default_rng(n_assets * n_steps).standard_normal((517, model.dim))
        batch = model.states(x)
        for row in range(517):
            assert np.array_equal(batch[row], model.states(x[row : row + 1])[0]), row
            assert np.array_equal(batch[row], model.states(x[row])), row

    @pytest.mark.parametrize("n_steps, n_assets", [(1000, 1), (252, 5), (50, 10), (24, 5), (3, 2)])
    def test_date_loop_equals_cumsum(self, n_steps, n_assets):
        model = BlackScholesMulti.create(n_assets, np.linspace(0.01, 1.0, n_steps), 50.0, 0.2, 0.05, 0.3)
        dt = np.sqrt(np.diff(model.times, prepend=0.0))[:, None]
        rng = np.random.default_rng(n_steps + n_assets)
        for x in (rng.standard_normal(model.dim), rng.standard_normal((chunk_rows(model.dim), model.dim))):
            w = x.reshape(x.shape[:-1] + (n_steps, n_assets)) @ model.chol.T
            assert np.array_equal(model.states(x), np.cumsum(w * dt, axis=-2)), x.shape

    @pytest.mark.parametrize("name", ["basket", "up-out"])
    def test_reads_agree_on_date_major_and_row_major_memory(self, name):
        model, claim = self.CASES[name]
        x = draw_samples(RngStream(14), chunk_rows(model.dim), model.dim).values
        w = model.states(x)
        assert not w.flags.c_contiguous  # held date-major
        copy = np.ascontiguousarray(w)
        assert np.array_equal(model.terminal(w), model.terminal(copy))
        alive = model.alive(w, claim.barriers, claim.up)
        assert np.array_equal(alive, model.alive(copy, claim.barriers, claim.up))
        assert 0.0 < alive.mean() < 1.0
        grid = model.spot * np.exp(model._log_drift() + model.vol * copy)
        assert np.array_equal(model.paths(x), grid)

    @pytest.mark.parametrize("knock, barrier", [("down-out", 85.0), ("up-out", 125.0)])
    def test_local_vol_barrier_call_prices_on_euler_prices(self, knock, barrier):
        model = LocalVol1D(
            spot=100.0, rate=0.05, maturity=1.0, n_steps=12,
            vol_fn=PowerLawVol(sigma=0.2, gamma=0.5, ref_spot=100.0),
        )
        claim = Basket(np.ones(1), 100.0, np.array([barrier]), up=knock == "up-out")
        x = draw_samples(RngStream(12), 20_000, model.dim).values
        values = build_payoff(model, claim)(x)
        expected, alive = _price_space_reference(model, claim, x)
        assert np.array_equal(values, expected)
        assert 0.2 < alive.mean() < 0.99
        assert 0.0 < values.mean() < build_payoff(model, Basket(np.ones(1), 100.0))(x).mean()


class TestMonotonicityAlongDrift:
    def test_barrier_call_nondecreasing_in_path_drift(self):
        times = 2.0 / 24.0 * np.arange(1, 25)
        model = BlackScholesMulti.create(1, times, 100.0, 0.2, 0.05)
        payoff = build_payoff(model, Basket(np.ones(1), 110.0, np.array([80.0])))
        drift = path_drift_multi(times, 1)
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.standard_normal(24)
            lo, hi = np.sort(rng.uniform(-2.0, 2.0, 2))
            below = payoff(x + drift.apply([lo]))
            above = payoff(x + drift.apply([hi]))
            assert above >= below - 1e-12


class TestValidation:
    def test_weight_count_mismatch(self):
        model = BlackScholesMulti.create(3, [1.0], 100.0, 0.2, 0.05, 0.1)
        with pytest.raises(IncompatibleClaim):
            build_payoff(model, Basket(weights=np.ones(2), strike=1.0))

    def test_digital_needs_single_asset(self):
        model = BlackScholesMulti.create(2, [1.0], 100.0, 0.2, 0.05, 0.1)
        with pytest.raises(IncompatibleClaim):
            build_payoff(model, Digital(level=100.0))

    def test_non_finite_input_rejected(self):
        model = BlackScholesMulti.create(1, [1.0], 100.0, 0.2, 0.05)
        payoff = build_payoff(model, Basket(np.ones(1), 100.0))
        with pytest.raises(NonFiniteInput):
            payoff(np.array([np.nan]))

    def test_dimension_mismatch_rejected(self):
        model = BlackScholesMulti.create(1, [1.0], 100.0, 0.2, 0.05)
        payoff = build_payoff(model, Basket(np.ones(1), 100.0))
        with pytest.raises(ValueError):
            payoff(np.zeros(2))

    def test_barrier_count_mismatch_names_barriers(self):
        model = BlackScholesMulti.create(5, [0.5, 1.0], 50.0, 0.2, 0.05, 0.3)
        with pytest.raises(IncompatibleClaim, match="claim has 3 barriers but the model has 5 assets"):
            build_payoff(model, Basket(np.full(5, 0.2), 50.0, np.ones(3)))

    def test_non_finite_weights_rejected(self):
        model = BlackScholesMulti.create(2, [1.0], 100.0, 0.2, 0.05)
        with pytest.raises(IncompatibleClaim, match="claim weights must be finite"):
            build_payoff(model, Basket(np.array([0.5, np.nan]), 100.0))

    @pytest.mark.parametrize(
        "model",
        [
            BlackScholesMulti.create(2, [0.5, 1.0], 100.0, 0.2, 0.05),
            LocalVol1D(spot=100.0, rate=0.05, maturity=1.0, n_steps=4, vol_fn=ConstantVol(0.2)),
        ],
        ids=["lognormal", "euler"],
    )
    def test_states_of_the_wrong_width_rejected(self, model):
        with pytest.raises(ValueError, match=f"expected last dimension {model.dim}, got 3"):
            model.states(np.zeros((2, 3)))

    def test_function_payoff(self):
        payoff = Payoff(1, lambda x: np.exp(0.2 * x[..., 0]))
        assert payoff(np.array([1.0])) == approx(np.exp(0.2))
        assert payoff(np.zeros((4, 1))) == approx(np.ones(4))


_BS = dict(spot=[100.0], vol=[0.2], rate=0.05, rho=0.0, times=[1.0])
_EULER = dict(spot=100.0, rate=0.05, maturity=1.0, n_steps=4, vol_fn=ConstantVol(0.2))


class TestParameterRules:
    @pytest.mark.parametrize(
        "build, name",
        [
            (lambda: BlackScholesMulti(**{**_BS, "spot": [100.0, 0.0], "vol": [0.2, 0.2]}), "spot"),
            (lambda: BlackScholesMulti(**{**_BS, "vol": [-0.2]}), "vol"),
            (lambda: BlackScholesMulti(**{**_BS, "rate": -0.01}), "rate"),
            (lambda: BlackScholesMulti(**{**_BS, "vol": [0.2, 0.2]}), "vol"),
            (lambda: BlackScholesMulti(**{**_BS, "times": [1.0, 0.5]}), "times"),
            (lambda: BlackScholesMulti.create(3, [1.0], 100.0, 0.2, 0.05, 1.5), "rho"),
            (
                lambda: BlackScholesMulti.create(1000, [1.0], 100.0, 0.2, 0.05, 0.9999999999999999),
                "rho",
            ),
            (lambda: LocalVol1D(**{**_EULER, "spot": 0.0}), "spot"),
            (lambda: LocalVol1D(**{**_EULER, "maturity": -1.0}), "maturity"),
            (lambda: LocalVol1D(**{**_EULER, "rate": -0.01}), "rate"),
            (lambda: LocalVol1D(**{**_EULER, "n_steps": 0}), "n_steps"),
            (lambda: ConstantVol(-0.2), "sigma"),
            (lambda: ConstantVol(np.nan), "sigma"),
            (lambda: PowerLawVol(sigma=-0.2, gamma=0.5, ref_spot=100.0), "sigma"),
            (lambda: PowerLawVol(sigma=0.2, gamma=0.5, ref_spot=100.0, floor=-0.01), "floor"),
            (lambda: PowerLawVol(sigma=0.2, gamma=0.5, ref_spot=1.0, floor=0.5, cap=0.1), "floor"),
            (lambda: TabulatedVol(np.zeros(1), np.ones(2), np.array([[0.2, 0.0]])), "values"),
        ],
        ids=[
            "bs-spot", "bs-vol", "bs-rate", "bs-vol-per-spot", "bs-times", "bs-rho",
            "bs-rho-rounds-to-singular", "euler-spot", "euler-maturity", "euler-rate",
            "euler-steps", "constant-sigma", "constant-sigma-nan", "power-sigma",
            "power-floor", "power-floor-above-cap", "table-values",
        ],
    )
    def test_constructor_names_the_broken_parameter(self, build, name):
        with pytest.raises(InvalidParameter) as info:
            build()
        assert info.value.name == name
        assert str(info.value) == f"{name} must {info.value.rule}"


class TestLocalVolSurfaces:
    def test_power_law_clamps(self):
        vol = PowerLawVol(sigma=0.2, gamma=0.5, ref_spot=100.0, floor=0.1, cap=0.4)
        s = np.array([1e-8, 100.0, 1e8])
        out = vol(0.0, s)
        assert out[0] == approx(0.4)  # tiny spot, gamma < 1 blows up, capped
        assert out[1] == approx(0.2)
        assert out[2] == approx(0.1)  # huge spot decays, floored

    def test_tabulated_from_csv(self, tmp_path):
        path = tmp_path / "vol.csv"
        rows = ["# t, s, sigma"]
        for t in (0.0, 1.0):
            for s in (50.0, 150.0):
                rows.append(f"{t},{s},{0.2 + 0.1 * t + 0.001 * (s - 50.0)}")
        path.write_text("\n".join(rows) + "\n")
        vol = TabulatedVol.from_csv(path)
        assert vol(0.0, np.array([50.0]))[0] == approx(0.2)
        assert vol(1.0, np.array([150.0]))[0] == approx(0.4)
        # The cell midpoint is the mean of the four corners.
        corners = vol.values.sum() / 4.0
        assert vol(0.5, np.array([100.0]))[0] == approx(corners, rel=1e-15, abs=0.0)
        # Beyond either end of either axis the edge value holds.
        for t, row in ((-1.0, 0), (0.0, 0), (1.0, 1), (7.0, 1)):
            out = vol(t, np.array([-10.0, 50.0, 150.0, 1e6]))
            assert np.array_equal(out, vol.values[row][[0, 0, 1, 1]])
        assert vol(-1.0, np.array([100.0]))[0] == approx(vol.values[0].mean(), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize(
        "rows, columns", [(1, 3), (3, 1), (1, 1)], ids=["one-t-row", "one-s-column", "one-by-one"]
    )
    def test_tabulated_one_point_grids(self, rows, columns):
        # Along an axis of one point the table is constant; along an axis of
        # three points it is linear between them and held beyond the ends.
        grid, line = np.array([0.0, 1.0, 3.0]), np.array([0.2, 0.3, 0.5])
        at = np.array([-1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 9.0])
        along = np.array([0.2, 0.2, 0.25, 0.3, 0.4, 0.5, 0.5])  # `line` at `at`, by hand
        values = line[: rows * columns].reshape(rows, columns)
        vol = TabulatedVol(t_grid=grid[:rows], s_grid=grid[:columns] + 100.0, values=values)
        for i, t in enumerate(at):
            expected = along if columns > 1 else np.full(at.size, along[i] if rows > 1 else 0.2)
            assert vol(t, at + 100.0) == approx(expected, rel=1e-15, abs=0.0)

    def test_tabulated_requires_full_grid(self, tmp_path):
        path = tmp_path / "vol.csv"
        path.write_text("0,50,0.2\n0,150,0.2\n1,50,0.3\n")
        with pytest.raises(ValueError):
            TabulatedVol.from_csv(path)

    def test_localvol_paths_with_table(self, tmp_path):
        path = tmp_path / "vol.csv"
        path.write_text("0,50,0.2\n0,150,0.2\n2,50,0.2\n2,150,0.2\n")
        vol = TabulatedVol.from_csv(path)
        model_tab = LocalVol1D(spot=100.0, rate=0.05, maturity=1.0, n_steps=4, vol_fn=vol)
        model_const = LocalVol1D(spot=100.0, rate=0.05, maturity=1.0, n_steps=4, vol_fn=ConstantVol(0.2))
        x = np.random.default_rng(2).standard_normal((6, 4))
        assert model_tab.paths(x) == approx(model_const.paths(x))


def _every_claim():
    """One payoff per claim type, plus a local-vol one; table1's basket first."""
    steps = 2.0 / 24.0 * np.arange(1, 25)
    single = BlackScholesMulti.create(1, [1.0], 100.0, 0.2, 0.05)
    single_path = BlackScholesMulti.create(1, steps, 100.0, 0.2, 0.05)
    five = BlackScholesMulti.create(5, steps, [50.0, 40.0, 60.0, 30.0, 20.0], 0.2, 0.05, 0.3)
    three = BlackScholesMulti.create(3, [0.5, 1.0], [50.0, 60.0, 70.0], [0.2, 0.3, 0.25], 0.05, 0.4)
    local = LocalVol1D(
        spot=100.0, rate=0.05, maturity=1.0, n_steps=10,
        vol_fn=PowerLawVol(sigma=0.2, gamma=0.5, ref_spot=100.0),
    )
    return {
        "basket40": build_payoff(*_basket40()),
        "digital": build_payoff(single, Digital(level=100.0)),
        "call": build_payoff(single, Basket(np.ones(1), 100.0)),
        "put": build_payoff(single, Basket(-np.ones(1), -100.0)),
        "barrier": build_payoff(single_path, Basket(np.ones(1), 100.0, np.array([85.0]))),
        "barrier_basket": build_payoff(
            five,
            Basket(
                weights=np.full(5, 0.2), strike=40.0,
                barriers=np.array([40.0, 30.0, 45.0, 20.0, 10.0]),
            ),
        ),
        "best_of": build_payoff(three, BestOf(weights=np.ones(3), strike=65.0)),
        "local_vol": build_payoff(local, Basket(np.ones(1), 100.0)),
    }


CLAIMS = _every_claim()


class TestChunkedEvaluation:
    @pytest.mark.parametrize("d, rows", [(1, 65536), (40, 1600), (120, 512), (500, 128), (2000, 64)])
    def test_chunk_rule(self, d, rows):
        assert chunk_rows(d) == rows

    @pytest.mark.parametrize("d", [3, 40, 120])
    def test_fn_sees_aligned_row_slices_in_order(self, d):
        rows = chunk_rows(d)
        seen = []

        def record(x):
            seen.append(x.copy())
            return x.sum(axis=-1)

        payoff = Payoff(d, record)
        x = np.random.default_rng(d).standard_normal((3 * rows + 17, d))
        out = payoff(x)
        assert np.array_equal(np.concatenate(seen), x)
        assert all(len(chunk) <= rows for chunk in seen)
        assert all(len(chunk) % 64 == 0 for chunk in seen[:-1])
        assert np.array_equal(out, np.concatenate([chunk.sum(axis=-1) for chunk in seen]))

    @pytest.mark.parametrize("name", sorted(CLAIMS))
    def test_bit_identical_to_whole_array_call(self, name):
        payoff = CLAIMS[name]
        rows = chunk_rows(payoff.dim)
        x = np.random.default_rng(5).standard_normal((3 * rows + 17, payoff.dim))
        for n in (1, rows - 1, rows, rows + 1, 3 * rows + 17):
            assert np.array_equal(payoff(x[:n]), payoff.fn(x[:n])), n

    @pytest.mark.parametrize("name", sorted(CLAIMS))
    def test_tilted_pass_bit_identical_to_whole_array(self, name):
        payoff = CLAIMS[name]
        block = draw_samples(RngStream(9), 3 * chunk_rows(payoff.dim) + 17, payoff.dim)
        theta = np.random.default_rng(1).uniform(-0.3, 0.3, payoff.dim)
        expected = payoff.fn(block.values + theta) * np.exp(
            -(block.values @ theta) - 0.5 * float(theta @ theta)
        )
        terms = tilted_terms(precompute_weights(block, payoff), theta)
        assert np.array_equal(terms, expected)

    @pytest.mark.parametrize("row", [0, -1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_in_any_chunk_rejected(self, row, bad):
        payoff = CLAIMS["basket40"]
        x = np.zeros((3 * chunk_rows(payoff.dim) + 17, payoff.dim))
        x[row, -1] = bad
        with pytest.raises(NonFiniteInput, match="non-finite point"):
            payoff(x)

    def test_memory_above_block_is_bounded_by_a_chunk(self):
        # A table4 row on 20k samples: the block is 19.2 MB, a whole-array
        # pass allocated several block-sized path temporaries on top of it.
        payoff = builtin_experiment("table4")[1].spec.payoff()
        n, d = 20_000, payoff.dim
        block = draw_samples(RngStream(3), n, d)
        theta = np.full(d, 0.05)
        bound = 8 * chunk_rows(d) * d * 8 + 6 * n * 8
        assert bound < block.values.nbytes / 3
        tracemalloc.start()
        try:
            table = precompute_weights(block, payoff)
            weights_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            tilted_terms(table, theta)
            tilted_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert weights_peak < bound
        assert tilted_peak < bound
