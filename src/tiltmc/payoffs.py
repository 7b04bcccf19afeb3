"""Market models and claims composed into discounted payoff evaluators.

A payoff is a function f: R^d -> R mapping a standard normal vector to a
discounted claim value. Two model families are provided: a multi-asset
lognormal model driven by equicorrelated Brownian motions (exact terminal
law on the monitoring grid), and a one-dimensional local-volatility
diffusion discretized by the Euler recursion
s_{k} = s_{k-1} (1 + sigma((k-1)h, s_{k-1}) sqrt(h) u_k + r h).

Claims read a model's paths only through two questions: the asset values
at maturity (``model.terminal``) and whether every asset stayed on its side
of a barrier at every grid date (``model.alive``). Each model answers them
from its own path representation (``model.states``). The Euler model keeps
prices. The lognormal model keeps the Brownian values W and never builds
the price grid: a barrier B is monitored as W^i_{t_j} against the threshold
(log(B_i / S0_i) - (r - vol_i^2/2) t_j) / vol_i, and only the terminal date
is exponentiated, by the same expression as :meth:`BlackScholesMulti.paths`,
so terminal values are bit-identical to the price grid's last date. A
barrier comparison can differ from the price-space one only when the path
lies within rounding of the barrier; none did in about 3 million table3
and table4 paths (seeds 1-9). W is a (..., N, I) view over date-major
memory: each row's correlating product is scaled into it and accumulated
date by date, and ``alive`` reads each date as one contiguous slab.

Evaluators are pure and vectorized: x may be a single point of length d or
a row-stacked batch (n, d). Rows are evaluated over fixed chunks (see
:func:`chunk_rows`): the evaluator receives contiguous row slices of at most
one chunk, and row i of its output must depend only on row i of its input.
Chunked output is bit-identical to one whole-array call, and no temporary
grows beyond one chunk.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .errors import IncompatibleClaim, NonFiniteInput
from .gaussian import cholesky_correlation, validate_grid

__all__ = [
    "BlackScholesMulti",
    "LocalVol1D",
    "ConstantVol",
    "PowerLawVol",
    "TabulatedVol",
    "Basket",
    "Digital",
    "BestOf",
    "Payoff",
    "build_payoff",
    "chunk_rows",
]

# Chunks are a multiple of this many rows. Claims reduce over assets with
# BLAS (``terminal @ w``), and OpenBLAS sums a few trailing rows of a call
# in a different order; on 64-row boundaries every row takes the same code
# path as in one whole-array call, so chunking changes no bit.
_ROW_ALIGN = 64

_CHUNK_ELEMENTS = 1 << 16  # 2^16 doubles, 512 KiB


def chunk_rows(d: int) -> int:
    """Rows per chunk of a row pass at width d: about 2^16 elements,
    rounded down to a multiple of 64 rows, and at least 64 rows.

    The package's one chunk rule: payoff and tilted passes take it at d,
    optimizer passes at d', and the reference price's draws at d.
    """
    return max(_ROW_ALIGN, _CHUNK_ELEMENTS // d // _ROW_ALIGN * _ROW_ALIGN)


# --- local volatility functions ---------------------------------------------


@dataclass(frozen=True)
class ConstantVol:
    """sigma(t, s) = sigma0."""

    sigma: float

    def __call__(self, t: float, s: np.ndarray) -> np.ndarray:
        return np.full_like(np.asarray(s, dtype=np.float64), self.sigma)


@dataclass(frozen=True)
class PowerLawVol:
    """Spot-power volatility sigma0 * (s / ref)^(gamma - 1), clamped.

    The clamp to [floor, cap] keeps the function bounded, which the Euler
    scheme requires for s near 0 or very large.
    """

    sigma: float
    gamma: float
    ref_spot: float
    floor: float = 0.01
    cap: float = 2.0

    def __post_init__(self):
        if not self.floor <= self.cap:
            raise ValueError(f"vol_floor {self.floor} exceeds vol_cap {self.cap}")

    def __call__(self, t: float, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=np.float64)
        with np.errstate(divide="ignore", over="ignore"):
            raw = self.sigma * np.power(np.maximum(s, 1e-300) / self.ref_spot, self.gamma - 1.0)
        return np.clip(raw, self.floor, self.cap)


@dataclass(frozen=True, eq=False)
class TabulatedVol:
    """Bilinear interpolation of a (t, s) -> sigma table: ``np.interp`` in t
    (a blend of two rows), then in s, each holding its edge values outside."""

    t_grid: np.ndarray
    s_grid: np.ndarray
    values: np.ndarray  # shape (len(t_grid), len(s_grid))

    def __post_init__(self):
        self.t_grid.setflags(write=False)
        self.s_grid.setflags(write=False)
        self.values.setflags(write=False)

    @classmethod
    def from_csv(cls, path) -> "TabulatedVol":
        """Load (t, s, sigma) triples; they must fill a rectangular grid."""
        triples = []
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            for row in reader:
                if not row or row[0].lstrip().startswith("#"):
                    continue
                if len(row) != 3:
                    raise ValueError(f"{path}: expected 't,s,sigma' rows, got {row!r}")
                triples.append(tuple(float(v) for v in row))
                if not np.isfinite(triples[-1]).all():
                    raise ValueError(f"{path}: line {reader.line_num} {row!r} is not finite")
        if not triples:
            raise ValueError(f"{path}: no volatility rows found")
        t_grid = np.unique([p[0] for p in triples])
        s_grid = np.unique([p[1] for p in triples])
        table = np.full((t_grid.size, s_grid.size), np.nan)
        for t, s, sig in triples:
            cell = np.searchsorted(t_grid, t), np.searchsorted(s_grid, s)
            if not np.isnan(table[cell]):
                raise ValueError(f"{path}: duplicate (t, s) point ({t:g}, {s:g})")
            table[cell] = sig
        if np.isnan(table).any():
            raise ValueError(f"{path}: (t, s) points do not form a full rectangular grid")
        if (table <= 0).any():
            raise ValueError(f"{path}: volatilities must be positive")
        return cls(t_grid=t_grid, s_grid=s_grid, values=table)

    def __call__(self, t: float, s: np.ndarray) -> np.ndarray:
        at = np.interp(t, self.t_grid, np.arange(self.t_grid.size))
        lo = int(at)
        hi = min(lo + 1, self.t_grid.size - 1)
        row = (lo + 1 - at) * self.values[lo] + (at - lo) * self.values[hi]
        return np.interp(s, self.s_grid, row)


# --- market models -----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BlackScholesMulti:
    """I lognormal assets on a monitoring grid, equicorrelated drivers.

    Asset i at grid date t_j is spot_i * exp((rate - vol_i^2/2) t_j +
    vol_i W^i_{t_j}), so the terminal law is exact on the grid. The model
    owns the map from normals to W: G in R^(I*N) is read time-major (index
    (j-1)*I + i holds the i-th asset's j-th increment), and ``states(G)``
    has covariance Cov(W^i_{t_j}, W^l_{t_k}) = rho^{1[i != l]} min(t_j, t_k).
    ``states`` returns W as a (..., N, I) view over date-major memory;
    ``terminal``, ``alive`` and ``paths`` give the same bits from it as
    from a row-major copy.
    """

    spot: np.ndarray
    vol: np.ndarray
    rate: float
    rho: float
    times: np.ndarray
    chol: np.ndarray = field(init=False, repr=False)  # lower factor of the correlation

    def __post_init__(self):
        for name in ("spot", "vol"):  # copies, so the caller's arrays stay writable
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=np.float64))
        if np.any(self.spot <= 0):
            raise ValueError("spots must be positive")
        if np.any(self.vol <= 0):
            raise ValueError("volatilities must be positive")
        if self.rate < 0:
            raise ValueError("rate must be nonnegative")
        if self.spot.shape != self.vol.shape or self.spot.ndim != 1:
            raise ValueError("spot and vol must be 1-d arrays of equal length")
        object.__setattr__(self, "chol", cholesky_correlation(self.spot.size, self.rho))
        object.__setattr__(self, "times", validate_grid(self.times))
        for array in (self.spot, self.vol, self.times):
            array.setflags(write=False)

    @property
    def n_assets(self) -> int:
        return self.spot.size

    @property
    def n_steps(self) -> int:
        return self.times.size

    @property
    def dim(self) -> int:
        return self.n_steps * self.n_assets

    @property
    def maturity(self) -> float:
        return float(self.times[-1])

    def _log_drift(self) -> np.ndarray:
        """(rate - vol_i^2/2) t_j, shape (N, I)."""
        return np.outer(self.times, self.rate - 0.5 * self.vol**2)

    def paths(self, x: np.ndarray) -> np.ndarray:
        """Asset values S^i_{t_j}, shape (..., N, I), row-major (see :meth:`terminal`)."""
        w = np.ascontiguousarray(self.states(x))
        return self.spot * np.exp(self._log_drift() + self.vol * w)

    def states(self, x: np.ndarray) -> np.ndarray:
        """Brownian values W^i_{t_j}, shape (..., N, I); what claims read.

        Each row's increments are correlated by a product of their own with
        ``chol.T`` and written, scaled by sqrt(t_j - t_{j-1}), into date-major
        memory (date j of every row is one contiguous (I, rows) slab). A loop
        adds date j-1 to date j, and the result is a view over that memory.
        The loop adds the same terms in the same order as ``np.cumsum`` over
        dates on a row-major array, so the layout changes no bit.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.dim:
            raise ValueError(f"expected last dimension {self.dim}, got {x.shape[-1]}")
        n, k = self.n_steps, self.n_assets
        rows = x.reshape(-1, n, k)
        scale = np.sqrt(np.diff(self.times, prepend=0.0))[:, None, None]
        slabs = np.empty((n, k, rows.shape[0]))
        if k == 1:  # no 1 x 1 matmul, and no temporary beside the slabs
            np.multiply(rows.transpose(1, 2, 0), self.chol[0, 0], out=slabs)
            slabs *= scale
        else:
            # A product per row keeps each row's bits independent of the
            # rows beside it, which one stacked (N, rows, I) product does not.
            np.multiply((rows @ self.chol.T).transpose(1, 2, 0), scale, out=slabs)
        for j in range(1, n):
            slabs[j] += slabs[j - 1]
        return slabs.transpose(2, 0, 1).reshape(x.shape[:-1] + (n, k))

    def terminal(self, w: np.ndarray) -> np.ndarray:
        """Asset values at maturity, shape (..., I): ``paths(x)[..., -1, :]`` bit for bit.

        Row-major whatever the layout of ``w``: claims reduce it over assets
        with BLAS, whose summation order follows the memory layout."""
        last = np.ascontiguousarray(w[..., -1, :])
        return self.spot * np.exp(self._log_drift()[-1] + self.vol * last)

    def alive(self, w: np.ndarray, barriers, up: bool) -> np.ndarray:
        """Whether every asset stays at or below (``up``) or at or above its
        barrier at every grid date, shape (...); compared on W, not on prices."""
        with np.errstate(divide="ignore"):
            # A barrier at or below zero maps to -inf: never hit from above.
            log_ratio = np.log(np.maximum(barriers, 0.0) / self.spot)
        thresholds = (log_ratio - self._log_drift()) / self.vol
        hit = w <= thresholds if up else w >= thresholds
        # Dates first: on date-major memory (see :meth:`states`) each date
        # is one contiguous slab.
        return np.logical_and.reduce(hit, axis=-2).all(axis=-1)

    @classmethod
    def create(cls, n_assets, times, spot, vol, rate, rho=0.0) -> "BlackScholesMulti":
        """Build from possibly scalar spot/vol, broadcast across assets."""
        spot, vol = np.broadcast_to(spot, (n_assets,)), np.broadcast_to(vol, (n_assets,))
        return cls(spot=spot, vol=vol, rate=float(rate), rho=float(rho), times=times)


@dataclass(frozen=True, eq=False)
class LocalVol1D:
    """One asset following ds = s (sigma(t, s) dW + r dt), Euler-discretized.

    The normal vector has one entry per Euler step; sigma must be bounded
    with s * sigma(t, s) Lipschitz in s (documented requirement on the
    supplied function, not machine-checked).
    """

    spot: float
    rate: float
    maturity: float
    n_steps: int
    vol_fn: Callable[[float, np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.spot <= 0 or self.maturity <= 0:
            raise ValueError("spot and maturity must be positive")
        if self.rate < 0:
            raise ValueError("rate must be nonnegative")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")

    @property
    def n_assets(self) -> int:
        return 1

    @property
    def dim(self) -> int:
        return self.n_steps

    @property
    def times(self) -> np.ndarray:
        h = self.maturity / self.n_steps
        return h * np.arange(1, self.n_steps + 1)

    def paths(self, x: np.ndarray) -> np.ndarray:
        """Euler path values at the step dates, shape (..., N, 1)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.n_steps:
            raise ValueError(f"expected last dimension {self.n_steps}, got {x.shape[-1]}")
        h = self.maturity / self.n_steps
        sqrt_h = np.sqrt(h)
        s = np.full(x.shape[:-1], self.spot)
        out = np.empty(x.shape[:-1] + (self.n_steps, 1))
        for k in range(self.n_steps):
            sig = self.vol_fn(k * h, s)
            s = s * (1.0 + sig * sqrt_h * x[..., k] + self.rate * h)
            out[..., k, 0] = s
        return out

    def states(self, x: np.ndarray) -> np.ndarray:
        """Euler path values, as :meth:`paths`; what claims read."""
        return self.paths(x)

    def terminal(self, s: np.ndarray) -> np.ndarray:
        """Asset value at maturity, shape (..., 1)."""
        return s[..., -1, :]

    def alive(self, s: np.ndarray, barriers, up: bool) -> np.ndarray:
        """Whether the path stays at or below (``up``) or at or above the
        barrier at every step date, shape (...)."""
        return (s <= barriers if up else s >= barriers).all(axis=(-2, -1))


ModelSpec = Union[BlackScholesMulti, LocalVol1D]


# --- claims ------------------------------------------------------------------


def _as_weights(weights, n_assets, name="weights") -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    if w.size != n_assets:
        raise IncompatibleClaim(f"claim has {w.size} {name} but the model has {n_assets} assets")
    if not np.isfinite(w).all():
        raise IncompatibleClaim(f"claim {name} must be finite")
    return w


@dataclass(frozen=True, eq=False)
class Basket:
    """(sum_i w_i S^i_T - K)_+, optionally voided by barriers.

    One asset with weight 1 and strike K is a call; weight -1 and strike -K
    is a put. With ``barriers`` (one per asset) the claim pays only if every
    asset stays at or above its barrier (at or below it, if ``up``) at every
    grid date.
    """

    weights: np.ndarray
    strike: float
    barriers: np.ndarray | None = None
    up: bool = False

    def payout(self, states: np.ndarray, model) -> np.ndarray:
        w = _as_weights(self.weights, model.n_assets)
        value = np.maximum(model.terminal(states) @ w - self.strike, 0.0)
        if self.barriers is None:
            return value
        barriers = _as_weights(self.barriers, model.n_assets, "barriers")
        return value * model.alive(states, barriers, self.up)


@dataclass(frozen=True)
class Digital:
    """Indicator that the terminal value is beyond a level (single asset)."""

    level: float
    above: bool = True

    def payout(self, states: np.ndarray, model) -> np.ndarray:
        if model.n_assets != 1:
            raise IncompatibleClaim("digital claims require a single-asset model")
        terminal = model.terminal(states)[..., 0]
        hit = terminal > self.level if self.above else terminal < self.level
        return hit.astype(np.float64)


@dataclass(frozen=True, eq=False)
class BestOf:
    """(max_i w_i S^i_T - K)_+ over several assets."""

    weights: np.ndarray
    strike: float

    def payout(self, states: np.ndarray, model) -> np.ndarray:
        w = _as_weights(self.weights, model.n_assets)
        best = (model.terminal(states) * w).max(axis=-1)
        return np.maximum(best - self.strike, 0.0)


ClaimSpec = Union[Basket, Digital, BestOf]


# --- composed evaluator -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Payoff:
    """Discounted claim evaluator f: R^d -> R.

    ``fn`` is a vectorized function of the normal vector. It receives
    contiguous (m, d) row slices, m at most :func:`chunk_rows` (a single
    point arrives as one row), and returns one value per row; row i of its
    output must depend only on row i of its input.
    """

    dim: int
    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x) -> np.ndarray | float:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.dim:
            raise ValueError(f"payoff has dimension {self.dim}, input has {x.shape[-1]}")
        rows = x.reshape(-1, self.dim)
        step = chunk_rows(self.dim)
        parts = []
        for lo in range(0, rows.shape[0], step):
            chunk = rows[lo : lo + step]
            if not np.isfinite(chunk).all():
                raise NonFiniteInput("payoff evaluated at a non-finite point")
            parts.append(np.asarray(self.fn(chunk), dtype=np.float64))
        # Filling an output allocated up front measured no faster than
        # joining the parts at the end, and held slightly more memory.
        values = np.concatenate(parts) if parts else np.empty(0)
        return float(values[0]) if x.ndim == 1 else values.reshape(x.shape[:-1])


def build_payoff(model: ModelSpec, claim: ClaimSpec) -> Payoff:
    """Compose a model and a claim into a present-value evaluator.

    The discount factor exp(-r T) is part of the payoff, so estimates are
    present values. Claim/model compatibility (asset counts, barrier
    vectors) is checked here on one point, so a bad pairing fails when the
    payoff is built; every ``payout`` call checks it again on each chunk.
    """
    discount = np.exp(-model.rate * model.maturity)
    claim.payout(model.states(np.zeros(model.dim)), model)  # validate pairing eagerly

    def fn(x: np.ndarray) -> np.ndarray:
        return discount * claim.payout(model.states(x), model)

    return Payoff(dim=model.dim, fn=fn)
