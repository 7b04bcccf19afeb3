"""Sample-average variance-proxy objectives and their quasi-Newton minimizer.

Shifting the sampling measure by a drift theta = A v multiplies the
estimator's asymptotic variance term by the empirical proxy

    v_n(v) = (1/n) sum_i w_i exp(-A v . G_i + |A v|^2 / 2),   w_i = f(G_i)^2,

which is strongly convex with a unique minimizer. The optimizer works instead on

    u_n(v) = |A v|^2 / 2 + log sum_i w_i exp(-A v . G_i),

which has the same minimizer (v_n = exp(u_n)/n) but a Hessian bounded below
by A*A independently of the weights. The minimizer takes BFGS steps
(Nocedal & Wright, Numerical Optimization, ch. 6) from that bound, so its
first step is -(A*A)^{-1} grad u_n and it never builds a Hessian. Each
point it evaluates costs one pass over the nonzero-weight rows, O(n d'),
which gives u_n and its gradient.

The sandwich covariance of the tilt takes two such passes that also build
the Hessian, O(n d'^2), so that pass is the only code here that reads the
rows. It shifts every exponent by a running maximum and excludes zero
weights from the logs. It sums over fixed chunks of ``chunk_rows(d')``
nonzero-weight rows, the package's one chunk rule taken at width d', added
in row order and never split by worker threads, so optimizer output is
bit-reproducible for a given sample block.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .drift import DriftMap
from .errors import ConvergenceFailure, DegeneratePayoff, NonFiniteObjective
from .gaussian import SampleBlock
from .payoffs import Payoff, chunk_rows

__all__ = [
    "WeightTable",
    "OptimResult",
    "precompute_weights",
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
    and every same-sample mode read ``values``. One scan of the weights
    gives ``support``, the indices of the rows with w_i > 0 in row order (a
    value whose square underflows has zero weight), and ``finite``, whether
    every w_i is finite; ``nonzero`` is the length of ``support``. Nothing
    is checked here: each user checks what it needs, so crude prices a table
    that the optimizer rejects.
    """

    samples: SampleBlock
    payoff: Payoff
    values: np.ndarray
    support: np.ndarray
    finite: bool

    def __post_init__(self):
        self.values.setflags(write=False)
        self.support.setflags(write=False)

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def nonzero(self) -> int:
        return self.support.size

    def rows(self, lo: int, hi: int) -> WeightTable:
        """Rows lo..hi-1 as a table of their own, with its own ``support``;
        its samples and values are views of this table's, not copies."""
        block = SampleBlock(values=self.samples.values[lo:hi], provenance=self.samples.provenance)
        return _table(block, self.payoff, self.values[lo:hi])


def _table(samples: SampleBlock, payoff: Payoff, values: np.ndarray) -> WeightTable:
    weights = values * values
    return WeightTable(
        samples=samples,
        payoff=payoff,
        values=values,
        support=np.flatnonzero(weights > 0.0),
        finite=bool(np.isfinite(weights).all()),
    )


def precompute_weights(samples: SampleBlock, payoff: Payoff) -> WeightTable:
    """Evaluate f on the stored samples."""
    return _table(samples, payoff, np.asarray(payoff(samples.values), dtype=np.float64))


class _Objective:
    """u_n and its derivatives for a fixed (weights, drift) pair.

    Holds log w_i and the indices ``rows`` of the nonzero-weight samples,
    which are the table's ``support``, and ``source`` = A*G for the whole
    block; for A = I that is the block itself, so nothing is copied. It
    keeps the drift, not A*A: a point takes A*A v as A*(A v), and only a
    Hessian pass, which only the sandwich covariance takes, forms A*A. A
    pass gathers the rows A*G_i of one chunk of ``rows`` at a time,
    ``chunk_rows(d')`` of them as in the payoff's passes, and drops it
    before gathering the next, so it holds one chunk of them beyond O(n),
    and a Hessian pass the Hessian plus one d' x d' temporary more. A
    point costs O(n_nz d'), and a Hessian O(n_nz d'^2), not O(n d d').
    Raises NonFiniteObjective if some w_i = f(G_i)^2 is not finite, and
    DegeneratePayoff if every w_i is zero (u_n then has no minimizer).
    """

    def __init__(self, table: WeightTable, drift: DriftMap):
        if not table.finite:
            raise NonFiniteObjective("payoff produced non-finite values on the sample block")
        if table.nonzero == 0:
            raise DegeneratePayoff(
                f"payoff vanished on all {table.n} samples; cannot tune a tilt on it"
            )
        self.n = table.n
        self.rows = table.support
        values = table.values[self.rows]
        self.log_w = np.log(values * values)
        self.source = drift.apply_adjoint(table.samples.values)
        self.drift = drift
        self.d_reduced = drift.d_reduced
        self.step = chunk_rows(self.d_reduced)

    def chunks(self):
        """(slice of ``rows``, a fresh copy of those rows of A*G), in row order."""
        for lo in range(0, self.rows.size, self.step):
            part = slice(lo, lo + self.step)
            yield part, self.source[self.rows[part]]

    def evaluate(self, v: np.ndarray, hessian: bool = False):
        """(u_n, its gradient A*A v - m, and with ``hessian`` its Hessian
        A*A + C, else None) at v, where m and C are the mean and covariance
        of A*G_i under the softmax weights p_i ~ w_i e^{-A*G_i . v}.

        One pass gathers each chunk once. Its exponents are shifted by the
        largest logit seen so far, and the sums are rescaled by exp(old - new)
        when a chunk raises it (an online softmax normalizer, Milakov &
        Gimelshein 2018), so no exp overflows and no n-vector is kept.
        """
        shift, total = -np.inf, 0.0
        first = np.zeros(self.d_reduced)
        second = None
        if hessian:
            # Imported here, not at module level: only the sandwich covariance
            # builds a Hessian, and a process that never does so skips loading
            # scipy.linalg, about 6 MiB of peak RSS and 40-50 ms of launch
            # (measured).
            from scipy.linalg.blas import dsyrk

            second = np.zeros((self.d_reduced, self.d_reduced), order="F")
        for part, chunk in self.chunks():
            # np.dot, not @: numpy's matmul takes a per-row loop for a one-column chunk.
            logits = self.log_w[part] - np.dot(chunk, v)
            top = logits.max()
            if top > shift:
                scale = np.exp(shift - top)
                total *= scale
                first *= scale
                if hessian:
                    second *= scale
                shift = top
            e = np.exp(logits - shift)
            total += e.sum()
            first += e @ chunk
            if hessian:
                chunk *= np.sqrt(e)[:, None]
                # BLAS adds c.T @ c to the lower triangle of ``second`` in place,
                # without the full-matrix temporary of numpy's c.T @ c.
                second = dsyrk(1.0, chunk.T, beta=1.0, c=second, lower=1, overwrite_c=1)
            del chunk  # before ``chunks()`` gathers the next one
        gram_v = self.drift.apply_adjoint(self.drift.apply(v))  # A*A v; a copy of v for A = I
        u = 0.5 * v @ gram_v + shift + np.log(total)
        if not np.isfinite(u):
            raise NonFiniteObjective(f"objective is not finite at v={v!r}")
        mean = first / total
        grad = gram_v - mean
        if hessian:  # mirror the lower triangle, then A*A + second / total - m m^T
            # In place, row by row: no second d' x d' array beside the Hessian.
            for i in range(1, self.d_reduced):
                second[:i, i] = second[i, :i]
            second /= total
            self.drift.add_gram(second)
            for i, m_i in enumerate(mean):
                second[i] -= m_i * mean
        if not (np.isfinite(grad).all() and (second is None or np.isfinite(second).all())):
            raise NonFiniteObjective(f"objective derivatives are not finite at v={v!r}")
        return float(u), grad, second

    def v_from_u(self, u: float) -> float:
        v = np.exp(u - np.log(self.n))
        if not np.isfinite(v):
            raise NonFiniteObjective("variance proxy overflowed after stabilization")
        return float(v)


@dataclass(frozen=True, eq=False)
class OptimResult:
    """Minimizer of u_n with convergence diagnostics.

    ``iterations`` counts accepted quasi-Newton steps from the starting
    point. ``grad_norm`` is the gradient's norm in the A*A metric,
    sqrt(g.(A*A)^{-1} g): the norm of the gradient in theta = A v, so it
    does not depend on the scale of A, and for A = I it is |g|.
    ``u_history`` holds u_n at the initial point and after each accepted
    step; it is strictly decreasing and ends at the minimum, where
    ``v_value`` = exp(u_n)/n. ``safeguarded`` flags that at least one step
    had to be shortened to descend.
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


def _inverse_times(drift: DriftMap, pairs, q: np.ndarray) -> np.ndarray:
    """The BFGS inverse Hessian times q, by the two-loop recursion (Nocedal
    & Wright, Alg. 7.4) over the accepted (s, y, 1/y.s) pairs, oldest first.

    The middle step is gamma (A*A)^{-1} q: the Hessian's lower bound A*A,
    scaled by gamma = s.y / (y.(A*A)^{-1} y) from the latest pair (eq. 7.20
    taken in the A*A metric), with gamma = 1 before any pair exists.
    """
    alphas = []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * (s @ q))
        q = q - alphas[-1] * y
    r = drift.solve_gram(q)
    if pairs:
        s, y, _ = pairs[-1]
        r = (s @ y) / (y @ drift.solve_gram(y)) * r
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        r = r + (alpha - rho * (y @ r)) * s
    return r


def newton_minimize(table: WeightTable, drift: DriftMap) -> OptimResult:
    """Find the unique minimizer of u_n by safeguarded quasi-Newton iteration.

    BFGS starts from the Hessian's lower bound A*A, so the first direction
    is -(A*A)^{-1} grad u_n and no Hessian is ever built. Every direction
    comes from a two-loop recursion over the accepted steps s and gradient
    changes y, so no inverse Hessian is formed either; ``DriftMap.solve_gram``
    applies (A*A)^{-1}, which for the identity is no work at all. A pair
    with y.s <= 0 is skipped, which keeps the implied inverse positive
    definite; strong convexity rules such pairs out up to rounding. Each
    step is shortened by halving until the Armijo decrease condition holds;
    full steps that already descend are taken unchanged, the typical case.

    Each point costs one pass over the nonzero rows, which gives u_n and its
    gradient together, so the accepted trial point's gradient comes from
    its line-search pass. The solve stops when the gradient's norm in the
    A*A metric, the ``grad_norm`` of ``OptimResult``, reaches
    ``DEFAULT_TOL``. The Euclidean norm of the gradient in v grows with the
    scale of A, so a map with large singular values would ask it for a
    decrease of u_n below rounding, and backtracking would underflow.

    Raises
    ------
    ConvergenceFailure
        If ``grad_norm`` does not reach ``DEFAULT_TOL`` within
        ``DEFAULT_MAX_ITER`` accepted steps, or a step underflows during
        backtracking.
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
    u, grad, _ = obj.evaluate(x)
    history = [u]
    safeguarded = False
    pairs = []

    for iteration in range(DEFAULT_MAX_ITER + 1):
        grad_norm = float(np.sqrt(grad @ drift.solve_gram(grad)))
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
        direction = _inverse_times(drift, pairs, -grad)
        slope = float(grad @ direction)
        step = 1.0
        while True:
            trial = x + step * direction
            u_trial, trial_grad, _ = obj.evaluate(trial)
            if u_trial < u + _ARMIJO * step * slope:
                break
            step *= 0.5
            if step < _MIN_STEP:
                raise ConvergenceFailure(
                    f"backtracking underflow at iteration {iteration} "
                    f"(gradient norm {grad_norm:.3e})"
                )
        if step < 1.0:
            safeguarded = True
        s, y = trial - x, trial_grad - grad
        curvature = float(y @ s)
        if curvature > 0.0:
            pairs.append((s, y, 1.0 / curvature))
        x, u, grad = trial, u_trial, trial_grad
        history.append(u)

    raise ConvergenceFailure(
        f"gradient norm {grad_norm:.3e} after {DEFAULT_MAX_ITER} "
        f"iterations (tolerance {DEFAULT_TOL:.1e})"
    )


def estimate_theta_covariance(table: WeightTable, drift: DriftMap, theta) -> np.ndarray:
    """Sandwich covariance gamma = H^{-1} S H^{-1} of sqrt(n) (theta_n - theta*).

    The per-sample score is A*(A theta - G_i) t_i, t_i = w_i e^{-A theta . G_i
    + |A theta|^2/2}, with covariance S; H is the sample mean of the Hessian
    plug-in (A*A + A*(A theta - G_i)(A theta - G_i)^T A) t_i. Two passes of
    ``_Objective.evaluate`` give both: (u, g, h) at theta, and (u2, g2, h2)
    at 2 theta with log w doubled, whose softmax weights are p_i^2 / sum p^2.
    With c = A*A theta, v_n = exp(u)/n and q = n sum p_i^2 = exp(u2 - 2u -
    theta . c + log n),

        H / v_n = h + g g^T,   S / v_n^2 = q (h2 - A*A + (c - g2)(c - g2)^T) - g g^T,

    and v_n cancels in gamma. The passes shift every exponent they take by
    their running maximum and log q lies in [0, log n], so no exponent is
    taken unshifted and gamma does not depend on the payoff's scale.
    """
    theta = drift._check_reduced(theta)
    obj = _Objective(table, drift)
    u, g, h = obj.evaluate(theta, hessian=True)
    obj.log_w *= 2.0
    u2, g2, h2 = obj.evaluate(2.0 * theta, hessian=True)
    c = drift.apply_adjoint(drift.apply(theta))
    q = np.exp(u2 - 2.0 * u - theta @ c + np.log(obj.n))
    gg, offset = np.outer(g, g), c - g2
    hessian = h + gg
    score_cov = q * (h2 - drift.gram() + np.outer(offset, offset)) - gg
    gamma = np.linalg.solve(hessian, np.linalg.solve(hessian, score_cov).T).T
    return 0.5 * (gamma + gamma.T)
