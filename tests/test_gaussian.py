"""Sample engine tests.

Claims:
    - draws are a pure function of (seed, stream_id, index): bit-identical
      re-draws, offset draws equal to the block's slice (also across 2^16
      boundaries), stream separation, and bit for bit the Philox words
      through a half-step-shifted 53-bit uniform and ndtri
    - marginals are standard normal (moment bounds and column-wise KS)
    - equicorrelation Cholesky is exact and rejects inadmissible rho, also
      one inside the interval whose C rounds to singular, and a count of no
      assets, each on its parameter; one asset gives a read-only [[1.0]]
      for any rho, nan included
    - streams, draws and blocks reject a non-integer seed, a negative count,
      an empty size and a block that is not an (n, d) matrix; a time grid
      that is empty, not increasing or not finite fails on 'times'
    - the lognormal model's map from normals to Brownian values realizes
      the discrete Brownian covariance exactly (dense composition) and
      empirically (sampled covariance); the model keeps read-only copies of
      its arrays and leaves the caller's writable
"""

import numpy as np
import pytest
from numpy.random import Philox
from pytest import approx
from scipy.special import ndtri
from scipy.stats import kstest, kstwobign

from tiltmc import (
    BlackScholesMulti,
    InvalidParameter,
    RngStream,
    SampleBlock,
    SampleBudgetExceeded,
    cholesky_correlation,
    draw_samples,
    normal_draws,
)
from tiltmc.gaussian import DEFAULT_SAMPLE_BUDGET

# 2^16 draws, the span the offset cases below straddle.
_CHUNK = 1 << 16


class TestStreams:
    def test_same_stream_is_bit_identical(self):
        a = draw_samples(RngStream(7, 0), 500, 3)
        b = draw_samples(RngStream(7, 0), 500, 3)
        assert (a.values == b.values).all()

    def test_distinct_stream_ids_differ(self):
        a = draw_samples(RngStream(7, 0), 500, 3)
        b = draw_samples(RngStream(7, 1), 500, 3)
        assert (a.values != b.values).any()

    def test_distinct_seeds_differ(self):
        a = normal_draws(RngStream(1, 0), 64)
        b = normal_draws(RngStream(2, 0), 64)
        assert (a != b).any()

    def test_counter_addressing_matches_slicing(self):
        stream = RngStream(123, 5)
        whole = normal_draws(stream, 1000)
        for start, count in ((0, 10), (1, 7), (13, 100), (997, 3)):
            assert (normal_draws(stream, count, offset=start) == whole[start : start + count]).all()

    def test_block_is_flat_stream_in_row_major_order(self):
        block = draw_samples(RngStream(11, 0), 100, 2)
        flat = normal_draws(RngStream(11, 0), 200)
        assert (block.values == flat.reshape(100, 2)).all()

    def test_multi_chunk_block_is_flat_stream(self):
        # Large enough to span several 2^16-draw spans.
        block = draw_samples(RngStream(11, 1), 50_000, 4)
        flat = normal_draws(RngStream(11, 1), 200_000)
        assert (block.values == flat.reshape(50_000, 4)).all()

    def test_offset_draws_across_fill_chunks_match_the_block(self):
        # An unaligned offset: the request straddles two 2^16-draw boundaries.
        block = draw_samples(RngStream(11, 2), 40_000, 5)
        offset, count = _CHUNK - 12_345, 2 * _CHUNK + 7
        draws = normal_draws(RngStream(11, 2), count, offset=offset)
        assert np.array_equal(draws, block.values.reshape(-1)[offset : offset + count])

    @pytest.mark.parametrize("offset", [0, 3, _CHUNK - 12_345, 2**40 + 3])
    @pytest.mark.parametrize("count", [0, 1, 2 * _CHUNK + 7])
    def test_stream_is_pinned_to_philox_words(self, offset, count):
        # The stream, spelled out from raw words: Philox output word w at
        # index k becomes ((w >> 11) + 1/2) 2^-53, then ndtri. numpy does not
        # promise Generator.random stable across releases (NEP 19), so a
        # release that changes it must fail here, not rewrite every CSV.
        stream = RngStream(11, 2)
        bits = Philox(key=np.array([stream.seed, stream.stream_id], dtype=np.uint64))
        bits.advance(offset // 4)
        words = bits.random_raw(offset % 4 + count)[offset % 4 :]
        expected = ndtri(((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53)
        got = normal_draws(stream, count, offset=offset)
        assert got.shape == (count,)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_regenerate_is_bit_identical(self):
        block = draw_samples(RngStream(21, 3), 64, 5)
        again = draw_samples(block.provenance, block.n, block.d)
        assert (again.values == block.values).all()

    def test_budget_error(self):
        # One element over the budget; the check runs before any allocation.
        with pytest.raises(SampleBudgetExceeded):
            draw_samples(RngStream(1), DEFAULT_SAMPLE_BUDGET + 1, 1)

    def test_block_shape_and_finiteness(self):
        block = draw_samples(RngStream(3), 1, 3)
        assert block.values.shape == (1, 3)
        assert np.isfinite(block.values).all()

    def test_blocks_are_read_only(self):
        block = draw_samples(RngStream(3), 4, 2)
        with pytest.raises(ValueError):
            block.values[0, 0] = 0.0

    def test_seed_range_validated(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(2**64)

    def test_seed_and_stream_id_must_be_integers(self):
        with pytest.raises(TypeError, match="seed must be an integer, got float"):
            RngStream(1.0)
        with pytest.raises(TypeError, match="stream_id must be an integer, got str"):
            RngStream(1, "0")

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="count must be nonnegative"):
            normal_draws(RngStream(1), -1)

    @pytest.mark.parametrize("n, d", [(0, 3), (3, 0)])
    def test_empty_block_rejected(self, n, d):
        with pytest.raises(ValueError, match="n and d must be >= 1"):
            draw_samples(RngStream(1), n, d)

    @pytest.mark.parametrize("shape", [(3,), (0, 2), (2, 0)])
    def test_hand_built_block_must_be_a_matrix(self, shape):
        with pytest.raises(ValueError, match=r"values must be an \(n, d\) matrix"):
            SampleBlock(np.zeros(shape), RngStream(1))


class TestMarginals:
    def test_moments_over_one_million_draws(self):
        z = normal_draws(RngStream(2024, 0), 1_000_000)
        # CLT bounds: 4 standard errors for the mean, 1% for the variance.
        assert abs(z.mean()) < 4.0 / np.sqrt(1_000_000)
        assert z.var() == approx(1.0, abs=0.01)

    def test_columnwise_ks_against_normal(self):
        n = 100_000
        block = draw_samples(RngStream(555, 7), n, 3)
        critical = kstwobign.isf(0.01) / np.sqrt(n)
        for j in range(3):
            stat = kstest(block.values[:, j], "norm").statistic
            assert stat < critical


class TestCorrelationChol:
    def test_uncorrelated_is_identity(self):
        chol = cholesky_correlation(2, 0.0)
        assert chol == approx(np.eye(2))
        with pytest.raises(ValueError):
            chol[0, 0] = 2.0  # the factor is read-only

    def test_two_by_two_hand_value(self):
        chol = cholesky_correlation(2, 0.5)
        assert chol[0] == approx([1.0, 0.0])
        assert chol[1] == approx([0.5, np.sqrt(0.75)])
        assert chol[1, 1] == approx(0.8660254, abs=1e-7)

    def test_inadmissible_rho_rejected(self):
        with pytest.raises(InvalidParameter):
            cholesky_correlation(3, -0.6)  # -0.6 < -1/2
        with pytest.raises(InvalidParameter):
            cholesky_correlation(2, 1.0)

    def test_rho_inside_the_interval_that_rounds_to_singular_is_rejected(self):
        # (-1/999, 1) holds 1 - 2^-53, but at I = 1000 C does not factor.
        with pytest.raises(InvalidParameter, match="C rounds to singular") as info:
            cholesky_correlation(1000, 0.9999999999999999)
        assert info.value.name == "rho"

    def test_no_assets_rejected(self):
        with pytest.raises(InvalidParameter) as info:
            cholesky_correlation(0, 0.0)
        assert info.value.name == "n_assets"

    def test_single_asset_accepts_any_rho(self):
        for rho in (-5.0, 0.0, 0.5, np.nan):
            chol = cholesky_correlation(1, rho)
            assert np.array_equal(chol, [[1.0]])
            assert not chol.flags.writeable

    @pytest.mark.parametrize("dim", [2, 5, 17, 64])
    @pytest.mark.parametrize("rho", [-0.01, 0.0, 0.3, 0.9, 0.999])
    def test_residual_below_1e12(self, dim, rho):
        if dim > 1 and rho <= -1.0 / (dim - 1):
            pytest.skip("inadmissible pair")
        chol = cholesky_correlation(dim, rho)
        equicorrelation = np.full((dim, dim), rho)
        np.fill_diagonal(equicorrelation, 1.0)
        assert np.array_equal(chol, np.tril(chol))
        residual = np.abs(chol @ chol.T - equicorrelation).max()
        assert residual <= 1e-12


def _model(times, n_assets=1, rho=0.0):
    return BlackScholesMulti.create(n_assets, times, 100.0, 0.2, 0.0, rho)


def _dense(model):
    """The (I*N) x (I*N) block lower-triangular matrix that ``states`` applies."""
    sqrt_dt = np.sqrt(np.diff(model.times, prepend=0.0))
    return np.kron(np.tril(np.tile(sqrt_dt, (model.n_steps, 1))), model.chol)


class TestPathMap:
    def test_single_step_unit_time_is_identity(self):
        model = _model([1.0])
        x = np.array([1.7])
        assert model.states(x) == approx(np.array([[1.7]]))

    def test_regular_two_step_grid(self):
        model = _model([0.5, 1.0])
        g = np.array([2.0, -1.0])
        w = model.states(g)
        root = np.sqrt(0.5)
        assert w[0, 0] == approx(root * 2.0)
        assert w[1, 0] == approx(root * (2.0 - 1.0))

    def test_exact_covariance_matches_brownian_law(self):
        # Cov(W^i_{t_j}, W^l_{t_k}) = rho^{1[i != l]} min(t_j, t_k), checked
        # through the dense composition M M*.
        times = np.array([0.25, 0.7, 1.3, 2.0])
        rho = 0.5
        n_assets = 3
        dense = _dense(_model(times, n_assets, rho))
        cov = dense @ dense.T
        corr = np.full((n_assets, n_assets), rho)
        np.fill_diagonal(corr, 1.0)
        expected = np.kron(np.minimum.outer(times, times), corr)
        assert np.abs(cov - expected).max() <= 1e-12

    def test_sampled_covariance_two_assets(self):
        model = _model([1.0], 2, 0.5)
        block = draw_samples(RngStream(31, 0), 100_000, 2)
        w = model.states(block.values)[:, 0, :]
        cov = np.cov(w.T)
        assert cov == approx(np.array([[1.0, 0.5], [0.5, 1.0]]), abs=0.02)

    def test_grid_validation(self):
        with pytest.raises(InvalidParameter):
            _model([1.0, 0.5])
        with pytest.raises(InvalidParameter):
            _model([-1.0, 0.5])
        with pytest.raises(InvalidParameter):
            _model([])

    @pytest.mark.parametrize("times", [[], [0.0, 1.0], [0.5, 0.5], [np.nan, 1.0], [0.5, np.inf]])
    def test_grid_rule_names_times(self, times):
        with pytest.raises(InvalidParameter) as info:
            _model(times)
        assert info.value.name == "times"

    def test_apply_matches_dense(self):
        times = np.array([0.5, 1.0, 1.75])
        model = _model(times, 2, 0.3)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(model.dim)
        flat = model.states(x).reshape(-1)
        assert flat == approx(_dense(model) @ x)

    @pytest.mark.parametrize("times", [[0.5, 1.0], np.array([0.5, 1.0])], ids=["list", "array"])
    def test_direct_construction_holds_a_read_only_grid(self, times):
        model = BlackScholesMulti(
            spot=np.array([100.0]), vol=np.array([0.2]), rate=0.0, rho=0.0, times=times
        )
        assert isinstance(model.times, np.ndarray) and model.times.dtype == np.float64
        assert not model.times.flags.writeable and not model.chol.flags.writeable
        assert model.maturity == 1.0 and model.dim == 2
        if isinstance(times, np.ndarray):  # the model's grid is its own copy
            times[0] = 2.0
            assert model.times[0] == 0.5

    def test_direct_construction_leaves_the_callers_arrays_writable(self):
        spot, vol = np.array([100, 90]), np.array([0.2, 0.3])
        model = BlackScholesMulti(spot=spot, vol=vol, rate=0.05, rho=0.0, times=[1.0])
        assert spot.flags.writeable and vol.flags.writeable
        assert not model.spot.flags.writeable and not model.vol.flags.writeable
        assert model.spot.dtype == np.float64
        spot[0], vol[0] = 1, 0.5
        assert model.spot[0] == 100.0 and model.vol[0] == 0.2
