"""Deterministic generation of standard normal samples.

Draws are counter-addressable: the normal at flat index k is a pure function
of (seed, stream_id, k), so any slice of a stream can be drawn on its own
or regenerated later with bit-identical results. The k-th output word of
the Philox counter-based generator becomes a 53-bit uniform, which is
mapped to a normal through the inverse CDF (``scipy.special.ndtri``) rather
than a rejection method, which would break index addressing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtri

from .errors import InvalidCorrelation, InvalidGrid, SampleBudgetExceeded

__all__ = [
    "RngStream",
    "SampleBlock",
    "normal_draws",
    "draw_samples",
    "cholesky_correlation",
]

# Default storage budget for one block: 2**27 float64 entries (1 GiB).
DEFAULT_SAMPLE_BUDGET = 1 << 27


@dataclass(frozen=True)
class RngStream:
    """A deterministic normal stream, selected by ``seed`` and ``stream_id``.

    Draws within the stream are addressed by flat index through
    :func:`normal_draws`'s ``offset``.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
            if not 0 <= value < 2**64:
                raise ValueError(f"{name} must fit in 64 bits")


def normal_draws(stream: RngStream, count: int, offset: int = 0) -> np.ndarray:
    """Standard normal draws at flat indices ``offset .. offset+count-1``.

    The value at each index is a pure function of (seed, stream_id, index):
    Philox output word w at that index becomes the uniform
    (w >> 11) 2^-53 + 2^-54, the 53-bit uniform of ``Generator.random``
    moved by half a step into the open interval (0, 1), so ``ndtri`` is
    finite on it. ``Generator.random`` fills the output array, and the
    shift and ``ndtri`` work on it in place, so there is no temporary.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    bits = Philox(key=[stream.seed, stream.stream_id])
    # Philox emits 4 output words per counter block and advance() moves whole
    # blocks, so word ``offset`` is word offset % 4 of block offset // 4.
    bits.advance(offset // 4)
    bits.random_raw(offset % 4)
    out = Generator(bits).random(count)
    out += 2.0**-54
    return ndtri(out, out=out)


@dataclass(frozen=True, eq=False)
class SampleBlock:
    """Stored i.i.d. standard normal draws with their generator provenance.

    ``values`` has shape (n, d) and is read-only; it holds the first n*d
    draws of the ``provenance`` stream, so ``draw_samples(provenance, n, d)``
    reproduces the block exactly. A row range of a block
    (:meth:`WeightTable.rows`) keeps the block's provenance. Only the shape
    is checked here: draws are always finite, and a hand-built block with a
    non-finite entry is rejected with ``NonFiniteInput`` by the payoff
    evaluation that every use of a block starts with.
    """

    values: np.ndarray
    provenance: RngStream

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape[0] < 1 or self.values.shape[1] < 1:
            raise ValueError("values must be an (n, d) matrix with n, d >= 1")
        self.values.setflags(write=False)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


def draw_samples(stream: RngStream, n: int, d: int) -> SampleBlock:
    """Draw and store an n-by-d block of standard normals.

    Entry (i, j) depends only on (seed, stream_id, i*d + j); the block
    can therefore be regenerated from its provenance without storage.

    Raises
    ------
    SampleBudgetExceeded
        If n*d exceeds ``DEFAULT_SAMPLE_BUDGET``. Callers that genuinely
        need more should regenerate chunks on demand via
        :func:`normal_draws`.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    total = n * d
    if total > DEFAULT_SAMPLE_BUDGET:
        raise SampleBudgetExceeded(
            f"block of {n}x{d} = {total} doubles exceeds budget of "
            f"{DEFAULT_SAMPLE_BUDGET} elements"
        )
    return SampleBlock(values=normal_draws(stream, total).reshape(n, d), provenance=stream)


def cholesky_correlation(n_assets: int, rho: float) -> np.ndarray:
    """Read-only lower Cholesky factor L of the equicorrelation matrix
    C = (1-rho) I + rho 11* of ``n_assets`` Brownian motions (L L* = C).

    ``rho`` must lie in the open interval (-1/(n_assets-1), 1) for the
    matrix to be positive definite. With one asset any value is accepted:
    C is the 1x1 identity, and its factor is exactly ``[[1.0]]``.
    """
    if n_assets < 1:
        raise ValueError("n_assets must be >= 1")
    if n_assets > 1:
        lo = -1.0 / (n_assets - 1)
        if not lo < rho < 1.0:
            raise InvalidCorrelation(
                f"rho={rho} outside the admissible interval ({lo}, 1) for {n_assets} assets"
            )
    c = np.full((n_assets, n_assets), float(rho))
    np.fill_diagonal(c, 1.0)
    factor = np.linalg.cholesky(c)
    factor.setflags(write=False)
    return factor


def validate_grid(times) -> np.ndarray:
    """A float64 copy of a time grid, flattened; rejects empty or non-increasing ones."""
    times = np.array(times, dtype=np.float64).reshape(-1)
    if times.size == 0:
        raise InvalidGrid("time grid is empty")
    if times[0] <= 0.0 or np.any(np.diff(times) <= 0.0):
        raise InvalidGrid("time grid must be positive and strictly increasing")
    return times
