"""Sample-average variance-proxy objectives and their Newton minimizer.

Shifting the sampling measure by a drift theta = A v multiplies the
estimator's asymptotic variance term by the empirical proxy

    v_n(v) = (1/n) sum_i w_i exp(-A v . G_i + |A v|^2 / 2),   w_i = f(G_i)^2,

which is strongly convex with a unique minimizer. Newton runs instead on

    u_n(v) = |A v|^2 / 2 + log sum_i w_i exp(-A v . G_i),

which has the same minimizer (v_n = exp(u_n)/n) but a Hessian bounded below
by A*A independently of the weights, so the linear systems stay well
conditioned no matter how small the payoff is.

All softmax-type quantities are computed from max-shifted exponents; zero
weights are excluded from the logs. Reductions use numpy's fixed pairwise
summation over the sample index and never depend on worker threads, so
optimizer output is bit-reproducible for a given sample block.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .drift import DriftMap
from .errors import (
    ConvergenceFailure,
    DegeneratePayoff,
    NonFiniteObjective,
    SingularHessian,
)
from .gaussian import SampleBlock
from .payoffs import Payoff

__all__ = [
    "WeightTable",
    "OptimResult",
    "precompute_weights",
    "eval_vn",
    "eval_un",
    "eval_un_derivatives",
    "newton_minimize",
    "estimate_theta_covariance",
]

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 50
_ARMIJO = 1e-4
_MIN_STEP = 2.0**-40


@dataclass(frozen=True, eq=False)
class WeightTable:
    """A sample block with its payoff and ``values`` = f(G_i), evaluated once.

    The crude estimate, the fallback, the optimizer's weights w_i = f(G_i)^2
    and every same-sample mode read ``values``; ``nonzero`` counts w_i > 0.
    Nothing is checked here: each user checks what it needs.
    """

    samples: SampleBlock
    payoff: Payoff
    values: np.ndarray
    nonzero: int

    def __post_init__(self):
        self.values.setflags(write=False)

    @property
    def n(self) -> int:
        return self.values.size


def precompute_weights(samples: SampleBlock, payoff: Payoff) -> WeightTable:
    """Evaluate f on the stored samples."""
    values = np.asarray(payoff(samples.values), dtype=np.float64)
    nonzero = int(np.count_nonzero(values * values > 0.0))
    return WeightTable(samples=samples, payoff=payoff, values=values, nonzero=nonzero)


class _Objective:
    """u_n and its derivatives for a fixed (weights, drift) pair.

    Caches log w_i and the reduced projections A*G_i of the nonzero-weight
    samples, so each Newton iteration costs O(n d'^2) instead of O(n d d').
    Raises NonFiniteObjective if some w_i = f(G_i)^2 is not finite, and
    DegeneratePayoff if every w_i is zero (u_n then has no minimizer).
    """

    def __init__(self, table: WeightTable, drift: DriftMap):
        weights = table.values * table.values
        if not np.isfinite(weights).all():
            raise NonFiniteObjective("payoff produced non-finite values on the sample block")
        nz = weights > 0.0
        if not nz.any():
            raise DegeneratePayoff(
                f"payoff vanished on all {table.n} samples; cannot tune a tilt on it"
            )
        self.n = table.n
        self.log_w = np.log(weights[nz])
        self.reduced = drift.apply_adjoint(table.samples.values[nz])
        self.gram = drift.gram()
        self.d_reduced = drift.d_reduced

    def _softmax(self, v: np.ndarray):
        scores = self.reduced @ v
        logits = self.log_w - scores
        shift = logits.max()
        weights = np.exp(logits - shift)
        total = weights.sum()
        return logits, shift, weights / total, total

    def value(self, v: np.ndarray) -> float:
        _, shift, _, total = self._softmax(v)
        u = 0.5 * v @ (self.gram @ v) + shift + np.log(total)
        if not np.isfinite(u):
            raise NonFiniteObjective(f"objective is not finite at v={v!r}")
        return float(u)

    def value_grad_hess(self, v: np.ndarray):
        _, shift, probs, total = self._softmax(v)
        u = 0.5 * v @ (self.gram @ v) + shift + np.log(total)
        mean = probs @ self.reduced
        second = self.reduced.T @ (self.reduced * probs[:, None])
        grad = self.gram @ v - mean
        hess = self.gram + second - np.outer(mean, mean)
        if not (np.isfinite(u) and np.isfinite(grad).all() and np.isfinite(hess).all()):
            raise NonFiniteObjective(f"objective derivatives are not finite at v={v!r}")
        return float(u), grad, hess

    def v_from_u(self, u: float) -> float:
        v = np.exp(u - np.log(self.n))
        if not np.isfinite(v):
            raise NonFiniteObjective("variance proxy overflowed after stabilization")
        return float(v)


def eval_vn(table: WeightTable, drift: DriftMap, theta) -> float:
    """Empirical variance proxy v_n at the reduced parameter theta."""
    obj = _Objective(table, drift)
    return obj.v_from_u(obj.value(drift._check_reduced(theta)))


def eval_un(table: WeightTable, drift: DriftMap, theta) -> float:
    """Reformulated objective u_n = |A theta|^2/2 + log sum_i w_i e^{-A theta . G_i}."""
    return _Objective(table, drift).value(drift._check_reduced(theta))


def eval_un_derivatives(table: WeightTable, drift: DriftMap, theta):
    """Gradient and Hessian of u_n at theta.

    The gradient is A*A theta - A* m(theta) with m the softmax-weighted mean
    of the samples under weights w_i e^{-A theta . G_i}; the Hessian is
    A*A plus the softmax-weighted covariance of A*G, hence bounded below by
    A*A.
    """
    _, grad, hess = _Objective(table, drift).value_grad_hess(drift._check_reduced(theta))
    return grad, hess


@dataclass(frozen=True, eq=False)
class OptimResult:
    """Minimizer of u_n with convergence diagnostics.

    ``u_history`` holds u_n at the initial point and after each accepted
    step; it is strictly decreasing and ends at the minimum, where
    ``v_value`` = exp(u_n)/n. ``safeguarded`` flags that at least one
    Newton step had to be shortened to descend.
    """

    theta: np.ndarray
    iterations: int
    grad_norm: float
    v_value: float
    safeguarded: bool
    u_history: np.ndarray

    def __post_init__(self):
        self.theta.setflags(write=False)
        self.u_history.setflags(write=False)


def newton_minimize(table: WeightTable, drift: DriftMap) -> OptimResult:
    """Find the unique minimizer of u_n by safeguarded Newton iteration.

    Each step solves H p = -g through a Cholesky factorization (H is
    symmetric positive definite by the A*A lower bound; no inverse is ever
    formed) and is then shortened by halving until the Armijo decrease
    condition holds. Full steps that already descend are taken unchanged,
    which is the typical case: the objective is strongly convex and a
    handful of iterations reaches tolerances near 1e-6.

    Raises
    ------
    ConvergenceFailure
        If the gradient norm does not reach ``DEFAULT_TOL`` within
        ``DEFAULT_MAX_ITER`` accepted steps, or a step underflows during
        backtracking.
    SingularHessian
        If the Cholesky factorization fails, which signals a rank-deficient
        drift map rather than a property of the payoff.
    """
    if table.nonzero == 1:
        warnings.warn(
            "only one sample carries a nonzero payoff; the tilt will chase that "
            "single point and the estimate will be fragile",
            RuntimeWarning,
            stacklevel=2,
        )
    obj = _Objective(table, drift)
    x = np.zeros(obj.d_reduced)
    u, grad, hess = obj.value_grad_hess(x)
    history = [u]
    safeguarded = False

    for iteration in range(DEFAULT_MAX_ITER + 1):
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= DEFAULT_TOL:
            return OptimResult(
                theta=x,
                iterations=iteration,
                grad_norm=grad_norm,
                v_value=obj.v_from_u(u),
                safeguarded=safeguarded,
                u_history=np.array(history),
            )
        if iteration == DEFAULT_MAX_ITER:
            break
        try:
            factor = cho_factor(hess, lower=True)
        except np.linalg.LinAlgError as exc:
            raise SingularHessian(
                "Newton system is singular; check the drift map for rank deficiency"
            ) from exc
        direction = cho_solve(factor, -grad)
        slope = float(grad @ direction)
        step = 1.0
        while True:
            u_new = obj.value(x + step * direction)
            if u_new < u + _ARMIJO * step * slope:
                break
            step *= 0.5
            if step < _MIN_STEP:
                raise ConvergenceFailure(
                    f"backtracking underflow at iteration {iteration} "
                    f"(gradient norm {grad_norm:.3e})"
                )
        if step < 1.0:
            safeguarded = True
        x = x + step * direction
        u, grad, hess = obj.value_grad_hess(x)
        history.append(u)

    raise ConvergenceFailure(
        f"gradient norm {float(np.linalg.norm(grad)):.3e} after {DEFAULT_MAX_ITER} "
        f"iterations (tolerance {DEFAULT_TOL:.1e})"
    )


def estimate_theta_covariance(table: WeightTable, drift: DriftMap, theta) -> np.ndarray:
    """Sandwich covariance gamma = H^{-1} S H^{-1} of sqrt(n) (theta_n - theta*).

    Per-sample score: A*(A theta - G_i) w_i e^{-A theta . G_i + |A theta|^2/2}
    with covariance S. The Hessian plug-in H adds A*A times the same
    exponential factor. Both use the stored weights and are evaluated at
    theta; expectations become sample means over the block.
    """
    theta = drift._check_reduced(theta)
    obj = _Objective(table, drift)
    n, gram, reduced = obj.n, obj.gram, obj.reduced
    log_terms = obj.log_w - reduced @ theta + 0.5 * float(theta @ (gram @ theta))
    terms = np.exp(log_terms)
    if not np.isfinite(terms).all():
        raise NonFiniteObjective("variance-proxy terms overflowed in covariance plug-in")
    offsets = (gram @ theta)[None, :] - reduced  # rows A*(A theta - G_i)
    weighted = offsets * terms[:, None]
    hessian = (terms.sum() / n) * gram + (offsets.T @ weighted) / n
    score_mean = weighted.sum(axis=0) / n
    score_sq = (weighted.T @ weighted) / n
    score_cov = score_sq - np.outer(score_mean, score_mean)
    solved = np.linalg.solve(hessian, score_cov)
    gamma = np.linalg.solve(hessian, solved.T).T
    return 0.5 * (gamma + gamma.T)
