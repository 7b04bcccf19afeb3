"""Drift subspaces: the reduction matrix A mapping reduced parameters to drifts.

A full importance-sampling search runs over all of R^d; restricting the
drift to {A v : v in R^d'} keeps the optimization d'-dimensional. The
structured maps here (identity, and one linear Brownian drift parameter
per asset) have O(d) apply kernels; arbitrary matrices are supported
through the dense fallback.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, RankDeficientDriftMap
from .gaussian import validate_grid

__all__ = [
    "DriftMap",
    "IdentityDrift",
    "PathMultiDrift",
    "DenseDrift",
    "identity_map",
    "path_drift_multi",
    "dense_map",
    "load_dense_map",
]


class DriftMap:
    """Interface shared by all drift representations.

    Subclasses provide ``d`` (ambient dimension), ``d_reduced`` (subspace
    dimension), ``apply`` (theta = A v), ``apply_adjoint`` (A* x, also for
    row-stacked batches) and ``gram`` (the d' x d' array A*A).
    """

    d: int
    d_reduced: int

    def apply(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def apply_adjoint(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def gram(self) -> np.ndarray:
        raise NotImplementedError

    def _check_reduced(self, v) -> np.ndarray:
        v = np.atleast_1d(np.asarray(v, dtype=np.float64))
        if v.shape != (self.d_reduced,):
            raise DimensionMismatch(
                f"expected reduced vector of length {self.d_reduced}, got shape {v.shape}"
            )
        return v

    def _check_ambient(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.d:
            raise DimensionMismatch(
                f"expected trailing dimension {self.d}, got shape {x.shape}"
            )
        return x


@dataclass(frozen=True, eq=False)
class IdentityDrift(DriftMap):
    """A = I_d: the unreduced, full-dimensional search space."""

    d: int

    @property
    def d_reduced(self) -> int:
        return self.d

    def apply(self, v):
        return self._check_reduced(v).copy()

    def apply_adjoint(self, x):
        # No copy: inputs are immutable sample blocks and this is the hot
        # path of the full-dimensional optimizer.
        return self._check_ambient(x)

    def gram(self) -> np.ndarray:
        return np.eye(self.d)


@dataclass(frozen=True, eq=False)
class PathMultiDrift(DriftMap):
    """One parameter per asset over an N-step grid of I correlated assets.

    With the time-major sample layout, A[(j-1)*I + i, i] = sqrt(t_j - t_{j-1})
    and every other entry is zero: parameter i adds a linear drift to asset
    i's Brownian coordinate. With one asset, A is the single column
    (sqrt(t_1), sqrt(t_2 - t_1), ..., sqrt(t_N - t_{N-1}))*.
    """

    times: np.ndarray
    n_assets: int

    def __post_init__(self):
        self.times.setflags(write=False)

    @property
    def n_steps(self) -> int:
        return self.times.size

    @property
    def d(self) -> int:
        return self.n_steps * self.n_assets

    @property
    def d_reduced(self) -> int:
        return self.n_assets

    @property
    def sqrt_steps(self) -> np.ndarray:
        return np.sqrt(np.diff(self.times, prepend=0.0))

    def apply(self, v):
        v = self._check_reduced(v)
        return np.outer(self.sqrt_steps, v).reshape(-1)

    def apply_adjoint(self, x):
        x = self._check_ambient(x)
        steps = x.reshape(x.shape[:-1] + (self.n_steps, self.n_assets))
        return np.einsum("...ji,j->...i", steps, self.sqrt_steps)

    def gram(self) -> np.ndarray:
        # The squared step sizes telescope to the last grid time.
        return float(self.times[-1]) * np.eye(self.n_assets)


@dataclass(frozen=True, eq=False)
class DenseDrift(DriftMap):
    """Arbitrary full-column-rank matrix supplied by the user."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)

    @property
    def d(self) -> int:
        return self.matrix.shape[0]

    @property
    def d_reduced(self) -> int:
        return self.matrix.shape[1]

    def apply(self, v):
        return self.matrix @ self._check_reduced(v)

    def apply_adjoint(self, x):
        return self._check_ambient(x) @ self.matrix

    def gram(self) -> np.ndarray:
        gram = self.matrix.T @ self.matrix
        return 0.5 * (gram + gram.T)


def identity_map(d: int) -> IdentityDrift:
    if d < 1:
        raise ValueError("d must be >= 1")
    return IdentityDrift(d=d)


def path_drift_multi(times, n_assets: int) -> PathMultiDrift:
    """Per-asset drift columns over an I-asset, N-step grid (d = I*N, d' = I)."""
    if n_assets < 1:
        raise ValueError("n_assets must be >= 1")
    return PathMultiDrift(times=validate_grid(times), n_assets=n_assets)


def dense_map(matrix) -> DenseDrift:
    """Wrap an explicit matrix; rank is verified eagerly via Cholesky of A*A."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] < matrix.shape[1] or matrix.shape[1] < 1:
        raise RankDeficientDriftMap(
            f"drift matrix must be d x d' with d >= d' >= 1, got shape {matrix.shape}"
        )
    out = DenseDrift(matrix=matrix)
    try:
        np.linalg.cholesky(out.gram())
    except np.linalg.LinAlgError as exc:
        raise RankDeficientDriftMap(
            "A*A is not positive definite; the drift map lacks full column rank"
        ) from exc
    return out


def load_dense_map(path) -> DenseDrift:
    """Read a dense drift matrix from a whitespace-separated text file.

    The first line holds the two dimensions ``d d'``; the remaining tokens
    are the d*d' entries in row-major order.
    """
    with open(path, "r", encoding="utf-8") as handle:
        tokens = handle.read().split()
    if len(tokens) < 2:
        raise ValueError(f"{path}: expected a 'd d-reduced' header")
    try:
        d, d_red = int(tokens[0]), int(tokens[1])
        entries = np.array([float(t) for t in tokens[2:]], dtype=np.float64)
    except ValueError as exc:
        raise ValueError(f"{path}: non-numeric token in drift matrix file") from exc
    if entries.size != d * d_red:
        raise ValueError(
            f"{path}: header promises {d}x{d_red} = {d * d_red} entries, found {entries.size}"
        )
    return dense_map(entries.reshape(d, d_red))
