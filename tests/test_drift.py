"""Drift subspace tests.

Claims:
    - structured maps reproduce their defining matrices (identity columns,
      sqrt time increments, the sparse per-asset layout; the single-asset
      path drift is the one-asset per-asset map)
    - apply/apply_adjoint form an adjoint pair and compose to the Gram matrix,
      which solve_gram inverts
    - construction rejects rank-deficient or non-finite matrices and bad grids,
      by hand as through the factories, and keeps its own read-only copy of
      the matrix; the identity needs an integer d >= 1, a path map an asset,
      and a dense file its header
    - the identity stays implicit: its adjoint returns the block itself, and
      solve_gram returns its vector itself
    - dense maps round-trip through the text-file loader
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from tiltmc import (
    DimensionMismatch,
    DriftMap,
    InvalidParameter,
    NonFiniteInput,
    RankDeficientDriftMap,
    dense_map,
    identity_map,
    load_dense_map,
    path_drift_multi,
)


class TestIdentity:
    def test_apply_is_identity(self):
        drift = identity_map(3)
        v = np.array([1.0, -2.0, 0.5])
        assert drift.apply(v) == approx(v)
        assert drift.apply_adjoint(v) == approx(v)

    def test_adjoint_returns_the_block_itself(self):
        # A = I is never materialised: no copy and no n x d x d product.
        block = np.random.default_rng(0).standard_normal((6, 4))
        assert np.shares_memory(identity_map(4).apply_adjoint(block), block)

    def test_gram_is_identity(self):
        assert identity_map(3).gram() == approx(np.eye(3))

    def test_solve_gram_returns_the_vector_itself(self):
        q = np.array([1.0, -2.0, 0.5])
        assert identity_map(3).solve_gram(q) is q

    def test_dimensions(self):
        drift = identity_map(3)
        assert drift.d == 3
        assert drift.d_reduced == 3

    @pytest.mark.parametrize("build", [DriftMap, identity_map], ids=["by-hand", "factory"])
    @pytest.mark.parametrize("d", [0, -2, 2.5])
    def test_needs_an_integer_dimension(self, build, d):
        with pytest.raises(InvalidParameter) as info:
            build(d)
        assert info.value.name == "d"


class TestPathSingle:
    def test_regular_grid_entries(self):
        # 24 equal steps over [0, 2]: every entry is sqrt(1/12).
        times = 2.0 / 24.0 * np.arange(1, 25)
        column = path_drift_multi(times, 1).apply([1.0])
        assert column == approx(np.full(24, np.sqrt(1.0 / 12.0)))
        assert column[0] == approx(0.2886751, abs=1e-7)

    def test_single_date(self):
        drift = path_drift_multi([1.0], 1)
        assert drift.apply([1.0]) == approx([1.0])

    def test_gram_telescopes_to_total_time(self):
        times = np.array([0.3, 0.9, 1.4, 2.0])
        assert path_drift_multi(times, 1).gram() == approx(np.array([[2.0]]))

    def test_apply_regular_unit_grid(self):
        drift = path_drift_multi([0.25, 0.5, 0.75, 1.0], 1)
        assert drift.apply([2.0]) == approx(np.ones(4))

    def test_adjoint_sums_scaled_coordinates(self):
        drift = path_drift_multi([0.25, 0.5, 0.75, 1.0], 1)
        assert drift.apply_adjoint(np.ones(4)) == approx([2.0])

    def test_rejects_bad_grid(self):
        with pytest.raises(InvalidParameter):
            path_drift_multi([1.0, 0.5], 1)


class TestPathMulti:
    def test_single_asset_reduces_to_path_single(self):
        # One asset: A is the column of square-rooted time steps.
        times = np.array([0.5, 1.0, 1.5])
        multi = path_drift_multi(times, 1)
        column = np.sqrt(np.diff(times, prepend=0.0))[:, None]
        v = np.array([0.7])
        assert multi.apply(v) == approx(column @ v)
        x = np.arange(3.0)
        assert multi.apply_adjoint(x) == approx(x @ column)

    def test_gram_regular_grid(self):
        times = 2.0 / 24.0 * np.arange(1, 25)
        assert path_drift_multi(times, 5).gram() == approx(2.0 * np.eye(5))

    def test_sparsity_pattern(self):
        times = np.array([0.5, 1.0])
        drift = path_drift_multi(times, 3)
        theta = drift.apply([1.0, 0.0, 0.0])
        # Only the first asset's coordinates (j-1)*I + 1 are hit.
        nonzero = np.nonzero(theta)[0]
        assert nonzero.tolist() == [0, 3]

    def test_batched_adjoint_matches_per_asset_sums(self):
        # Reference: A*x[i] = sum_j sqrt(t_j - t_{j-1}) x[(j-1)*I + i].
        times = np.array([0.5, 1.0, 1.75])
        x = np.random.default_rng(1).standard_normal((4, 6))
        steps = np.sqrt(np.diff(times, prepend=0.0))
        expected = np.einsum("rji,j->ri", x.reshape(4, 3, 2), steps)
        assert path_drift_multi(times, 2).apply_adjoint(x) == approx(expected, rel=1e-14, abs=0)

    def test_dimensions(self):
        drift = path_drift_multi(2.0 / 24.0 * np.arange(1, 25), 5)
        assert drift.d == 120
        assert drift.d_reduced == 5

    def test_needs_an_asset(self):
        with pytest.raises(InvalidParameter) as info:
            path_drift_multi([0.5, 1.0], 0)
        assert info.value.name == "n_assets"


class TestDense:
    def test_two_by_one(self):
        drift = dense_map(np.array([[1.0], [2.0]]))
        assert drift.apply([3.0]) == approx([3.0, 6.0])

    def test_gram_hand_product(self):
        drift = dense_map(np.array([[1.0, 0.0], [1.0, 1.0]]))
        assert drift.gram() == approx(np.array([[2.0, 1.0], [1.0, 1.0]]))

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankDeficientDriftMap):
            dense_map(np.array([[1.0, 1.0], [2.0, 2.0]]))

    def test_wide_matrix_rejected(self):
        with pytest.raises(RankDeficientDriftMap):
            dense_map(np.ones((1, 2)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, value):
        with pytest.raises(NonFiniteInput):
            dense_map(np.array([[2.0], [value]]))

    def test_rows_must_match_d(self):
        with pytest.raises(DimensionMismatch):
            DriftMap(d=3, matrix=np.ones((2, 1)))

    @pytest.mark.parametrize(
        "d, matrix, error",
        [
            (2, [[np.nan], [1.0]], NonFiniteInput),
            (1, np.ones((1, 2)), RankDeficientDriftMap),
            (2, np.ones(2), RankDeficientDriftMap),
        ],
        ids=["non-finite", "wide", "one-dimensional"],
    )
    def test_hand_built_map_is_checked(self, d, matrix, error):
        with pytest.raises(error):
            DriftMap(d=d, matrix=matrix)

    def test_callers_array_stays_writable(self):
        matrix = np.array([[1.0], [2.0]])
        drift = dense_map(matrix)
        matrix[0, 0] = 5.0
        assert drift.matrix == approx(np.array([[1.0], [2.0]]))
        assert not drift.matrix.flags.writeable

    def test_view_of_a_base_array_is_copied(self):
        base = np.array([[1.0, 0.0], [0.5, 1.0], [0.0, 2.0]])
        drift = DriftMap(d=2, matrix=base[1:])
        base[1:] = 0.0  # would make A rank-deficient after its rank check
        assert drift.matrix == approx(np.array([[0.5, 1.0], [0.0, 2.0]]))
        assert drift.solve_gram(drift.gram() @ np.array([1.0, -1.0])) == approx([1.0, -1.0])

    def test_solve_gram_inverts_gram(self):
        drift = dense_map(np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 3.0]]))
        q = np.array([0.3, -1.2])
        assert drift.solve_gram(q) == approx(np.linalg.solve(drift.gram(), q), rel=1e-13)

    def test_dimension_mismatch(self):
        drift = dense_map(np.array([[1.0], [2.0]]))
        with pytest.raises(DimensionMismatch):
            drift.apply([1.0, 2.0])
        with pytest.raises(DimensionMismatch):
            drift.apply_adjoint([1.0, 2.0, 3.0])


class TestLoader:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "drift.txt"
        path.write_text("3 2\n1 0\n0.5 1\n0 2\n")
        drift = load_dense_map(path)
        assert drift.matrix == approx(np.array([[1.0, 0.0], [0.5, 1.0], [0.0, 2.0]]))

    def test_wrong_count_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n1 0 0\n")
        with pytest.raises(ValueError):
            load_dense_map(path)

    @pytest.mark.parametrize("text", ["", "3\n"])
    def test_missing_header_rejected(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match="expected a 'd d-reduced' header"):
            load_dense_map(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1\n1\nx\n")
        with pytest.raises(ValueError):
            load_dense_map(path)


def _random_map(kind: str, rng):
    if kind == "identity":
        return identity_map(rng.integers(1, 7))
    if kind == "path_single":  # the config alias for a one-asset path_multi
        return path_drift_multi(np.cumsum(rng.uniform(0.1, 1.0, rng.integers(1, 7))), 1)
    if kind == "path_multi":
        times = np.cumsum(rng.uniform(0.1, 1.0, rng.integers(1, 5)))
        return path_drift_multi(times, int(rng.integers(1, 5)))
    matrix = rng.standard_normal((rng.integers(2, 8), rng.integers(1, 3)))
    return dense_map(matrix)


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**31 - 1),
    kind=st.sampled_from(["identity", "path_single", "path_multi", "dense"]),
)
def test_adjoint_identity(seed, kind):
    # <A v, x> == <v, A* x> for random v, x.
    rng = np.random.default_rng(seed)
    drift = _random_map(kind, rng)
    v = rng.standard_normal(drift.d_reduced)
    x = rng.standard_normal(drift.d)
    assert float(drift.apply(v) @ x) == approx(float(v @ drift.apply_adjoint(x)), abs=1e-12, rel=1e-12)


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**31 - 1),
    kind=st.sampled_from(["identity", "path_single", "path_multi", "dense"]),
)
def test_gram_equals_adjoint_of_apply_on_basis(seed, kind):
    rng = np.random.default_rng(seed)
    drift = _random_map(kind, rng)
    gram = drift.gram()
    composed = np.column_stack(
        [drift.apply_adjoint(drift.apply(basis)) for basis in np.eye(drift.d_reduced)]
    )
    assert gram.shape == (drift.d_reduced, drift.d_reduced)
    assert np.abs(composed - gram).max() <= 1e-12
    # Constructor-produced maps have a positive-definite Gram matrix.
    np.linalg.cholesky(gram)
    assert np.linalg.eigvalsh(gram)[0] > 0.0


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**31 - 1))
def test_batched_adjoint_matches_rowwise(seed):
    rng = np.random.default_rng(seed)
    drift = _random_map(rng.choice(["identity", "path_single", "path_multi", "dense"]), rng)
    batch = rng.standard_normal((5, drift.d))
    stacked = np.vstack([drift.apply_adjoint(row) for row in batch])
    assert drift.apply_adjoint(batch) == approx(stacked)
