"""Drift subspaces: the reduction matrix A mapping reduced parameters to drifts.

A full importance-sampling search runs over all of R^d; restricting the
drift to {A v : v in R^d'} keeps the optimization d'-dimensional. A is one
:class:`DriftMap`, a d x d' matrix of full column rank: one column of
square-root time steps per asset (:func:`path_drift_multi`), or any matrix
(:func:`dense_map`, :func:`load_dense_map`). The identity
(:func:`identity_map`) stays implicit: its adjoint hands a sample block
back unchanged instead of multiplying it by an explicit d x d matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput, RankDeficientDriftMap
from .gaussian import validate_grid

__all__ = [
    "DriftMap",
    "identity_map",
    "path_drift_multi",
    "dense_map",
    "load_dense_map",
]


@dataclass(frozen=True, eq=False)
class DriftMap:
    """The d x d' drift matrix A; ``matrix`` is None for A = I_d.

    ``apply`` gives theta = A v, ``apply_adjoint`` gives A* x (row by row
    for a stacked batch) and ``gram`` the d' x d' array A*A. Build one
    through the factories below, which check the rank.
    """

    d: int
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.matrix is not None:
            if self.matrix.shape[0] != self.d:
                raise DimensionMismatch(f"matrix has {self.matrix.shape[0]} rows, not d={self.d}")
            self.matrix.setflags(write=False)

    @property
    def d_reduced(self) -> int:
        return self.d if self.matrix is None else self.matrix.shape[1]

    def apply(self, v) -> np.ndarray:
        v = self._check_reduced(v)
        return v.copy() if self.matrix is None else self.matrix @ v

    def apply_adjoint(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.d:
            raise DimensionMismatch(f"expected trailing dimension {self.d}, got shape {x.shape}")
        # The identity returns x itself: no copy and no n x d x d product on
        # the optimizer's sample block.
        return x if self.matrix is None else x @ self.matrix

    def gram(self) -> np.ndarray:
        if self.matrix is None:
            return np.eye(self.d)
        gram = self.matrix.T @ self.matrix
        return 0.5 * (gram + gram.T)

    def _check_reduced(self, v) -> np.ndarray:
        v = np.atleast_1d(np.asarray(v, dtype=np.float64))
        if v.shape != (self.d_reduced,):
            raise DimensionMismatch(
                f"expected reduced vector of length {self.d_reduced}, got shape {v.shape}"
            )
        return v


def identity_map(d: int) -> DriftMap:
    """A = I_d: the unreduced, full-dimensional search space."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return DriftMap(d=d)


def path_drift_multi(times, n_assets: int) -> DriftMap:
    """One linear Brownian drift per asset over an I-asset, N-step grid.

    With the time-major sample layout (d = N*I, d' = I),
    A[(j-1)*I + i, i] = sqrt(t_j - t_{j-1}) and every other entry is zero.
    With one asset, A is the single column of square-root time steps.
    """
    if n_assets < 1:
        raise ValueError("n_assets must be >= 1")
    sqrt_steps = np.sqrt(np.diff(validate_grid(times), prepend=0.0))
    return dense_map(np.kron(sqrt_steps[:, None], np.eye(n_assets)))


def dense_map(matrix) -> DriftMap:
    """Wrap an explicit finite matrix; rank is verified eagerly via Cholesky of A*A."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] < matrix.shape[1] or matrix.shape[1] < 1:
        raise RankDeficientDriftMap(
            f"drift matrix must be d x d' with d >= d' >= 1, got shape {matrix.shape}"
        )
    if not np.isfinite(matrix).all():
        raise NonFiniteInput("drift matrix has NaN or infinite entries")
    out = DriftMap(d=matrix.shape[0], matrix=matrix)
    try:
        np.linalg.cholesky(out.gram())
    except np.linalg.LinAlgError as exc:
        raise RankDeficientDriftMap(
            "A*A is not positive definite; the drift map lacks full column rank"
        ) from exc
    return out


def load_dense_map(path) -> DriftMap:
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
