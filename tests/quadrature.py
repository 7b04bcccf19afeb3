"""Quadrature oracles for the tests: Gauss-Hermite expectations under the
standard normal law and the one-dimensional optimal tilt they imply.

They share nothing with the Monte Carlo machinery, so their values can sit
on the other side of an assertion from the sampled estimators. This module
is a helper that the test files import; it holds no tests of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tiltmc import TiltmcError

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


class BracketFailure(TiltmcError, RuntimeError):
    """Scalar minimization scan found no interior minimum."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Hermite rule for expectations under the standard normal law.

    ``nodes`` points per axis (>= 32 so doubling checks are meaningful);
    ``scale`` widens the substitution y = sqrt(2) * scale * x for integrands
    with mass far from the origin, with the density ratio folded back in
    exactly.
    """

    dim: int = 1
    nodes: int = 128
    scale: float = 1.0

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        if self.nodes < 32:
            raise ValueError("nodes must be >= 32")
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    def doubled(self) -> "QuadratureSpec":
        return QuadratureSpec(dim=self.dim, nodes=2 * self.nodes, scale=self.scale)


def _rule(spec: QuadratureSpec):
    x, w = np.polynomial.hermite.hermgauss(spec.nodes)
    points = np.sqrt(2.0) * spec.scale * x
    # E g(G) = (s/sqrt(pi)) sum w_j exp(x_j^2 (1 - s^2)) g(sqrt(2) s x_j)
    weights = spec.scale * w * np.exp(x * x * (1.0 - spec.scale**2)) / np.sqrt(np.pi)
    return points, weights


def gaussian_expectation(fn, spec: QuadratureSpec = QuadratureSpec()) -> float:
    """E[fn(G)] for G standard normal in 1 or 2 dimensions.

    ``fn`` must be vectorized: it receives an array of evaluation points
    (shape (m,) in one dimension, (m, 2) in two) and returns one value per
    point.
    """
    points, weights = _rule(spec)
    if spec.dim == 1:
        return float(weights @ np.asarray(fn(points), dtype=np.float64))
    px, py = np.meshgrid(points, points, indexing="ij")
    grid = np.column_stack([px.ravel(), py.ravel()])
    values = np.asarray(fn(grid), dtype=np.float64).reshape(spec.nodes, spec.nodes)
    return float(weights @ values @ weights)


def _variance_proxy(fn, spec: QuadratureSpec):
    """v(theta) = e^{theta^2} E[f^2(G - theta)]: the tilt enters only as an
    argument shift, so the Gauss-Hermite rule absorbs the exponential factor
    exactly."""
    points, weights = _rule(spec)

    def v(theta: float) -> float:
        values = np.asarray(fn(points - theta), dtype=np.float64)
        return float(np.exp(theta * theta) * (weights @ (values * values)))

    return v


def _golden_section(v, lo, hi, tol=1e-11):
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    vc, vd = v(c), v(d)
    while b - a > tol:
        if vc < vd:
            b, d, vd = d, c, vc
            c = b - _GOLDEN * (b - a)
            vc = v(c)
        else:
            a, c, vc = c, d, vd
            d = a + _GOLDEN * (b - a)
            vd = v(d)
    return 0.5 * (a + b)


def quadrature_theta_star(
    fn,
    spec: QuadratureSpec = QuadratureSpec(),
    *,
    scan: tuple[float, float] = (-8.0, 8.0),
    scan_points: int = 129,
) -> tuple[float, float]:
    """Optimal one-dimensional tilt and proxy value from quadrature alone.

    Scans the variance proxy over ``scan`` for an interior minimum (the
    proxy is strictly convex, so a boundary minimum means the bracket is
    too narrow and a :class:`BracketFailure` is raised), refines it by
    golden-section search, then polishes with a few finite-difference Newton
    steps. Returns (theta_star, v(theta_star)).

    Accuracy is spectral for smooth payoffs. Kinked or discontinuous
    payoffs converge slowly under this rule and the located minimum can
    move by ~1e-2 between node counts; reference values for those come
    from closed forms instead.
    """
    v = _variance_proxy(fn, spec)
    grid = np.linspace(scan[0], scan[1], scan_points)
    values = np.array([v(t) for t in grid])
    if not np.isfinite(values).all():
        raise BracketFailure("variance proxy is not finite over the scan range")
    k = int(np.argmin(values))
    if k == 0 or k == grid.size - 1:
        raise BracketFailure(
            f"no interior minimum in scan range {scan}; objective must decrease "
            "then increase within it"
        )
    theta = _golden_section(v, grid[k - 1], grid[k + 1])

    # Newton polish on the finite-difference derivative. Golden section
    # stalls at ~sqrt(eps) because nearby objective values compare equal;
    # the derivative keeps a usable signal well below that.
    h = 1e-5
    best = theta
    slope_best = abs((v(best + h) - v(best - h)) / (2.0 * h))
    for _ in range(8):
        vp = (v(best + h) - v(best - h)) / (2.0 * h)
        vpp = (v(best + h) - 2.0 * v(best) + v(best - h)) / (h * h)
        if vpp <= 0.0 or not np.isfinite(vp):
            break
        candidate = best - vp / vpp
        if not grid[k - 1] <= candidate <= grid[k + 1]:
            break
        slope = abs((v(candidate + h) - v(candidate - h)) / (2.0 * h))
        if not np.isfinite(slope) or slope >= slope_best:
            break
        best, slope_best = candidate, slope
        if abs(vp / vpp) < 1e-12:
            break
    return float(best), float(v(best))
