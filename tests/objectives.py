"""The variance proxy v_n, its log form u_n, u_n's derivatives at one point
and the sandwich covariance of the tilt, for the tests.

v_n, u_n and the gradient wrap the optimizer's ``_Objective``, so an
assertion can read the same sums the solver reads. The Hessian and the
sandwich covariance, which the package never builds, are dense references
over the table's nonzero rows. This module is a helper that the test files
import; it holds no tests of its own.
"""

from __future__ import annotations

import numpy as np

from tiltmc.optimize import _Objective


def eval_vn(table, drift, theta) -> float:
    """Empirical variance proxy v_n at the reduced parameter theta."""
    obj = _Objective(table, drift)
    return obj.v_from_u(obj.evaluate(drift._check_reduced(theta))[0])


def eval_un(table, drift, theta) -> float:
    """Reformulated objective u_n = |A theta|^2/2 + log sum_i w_i e^{-A theta . G_i}."""
    return _Objective(table, drift).evaluate(drift._check_reduced(theta))[0]


def _softmax(table, drift, theta):
    """A*G_i on the nonzero rows, and their softmax weights p_i ~ w_i e^{-A theta . G_i}
    with the logits shifted by their maximum, so the payoff's scale cancels."""
    reduced = drift.apply_adjoint(table.samples.values[table.support])
    values = table.values[table.support]
    logits = np.log(values * values) - reduced @ theta
    p = np.exp(logits - logits.max())
    return reduced, p / p.sum()


def eval_un_derivatives(table, drift, theta):
    """Gradient and Hessian of u_n at theta.

    The gradient is the optimizer's, A*A theta - m(theta) with m the
    softmax-weighted mean of A*G under weights w_i e^{-A theta . G_i}; the
    Hessian is A*A plus the softmax-weighted covariance of A*G, hence
    bounded below by A*A.
    """
    theta = drift._check_reduced(theta)
    _, grad = _Objective(table, drift).evaluate(theta)
    reduced, p = _softmax(table, drift, theta)
    centered = reduced - p @ reduced
    return grad, drift.gram() + centered.T @ (centered * p[:, None])


def theta_covariance(table, drift, theta) -> np.ndarray:
    """Sandwich covariance gamma = H^{-1} S H^{-1} of sqrt(n) (theta_n - theta*).

    The per-sample score is o_i t_i, o_i = A*(A theta - G_i) and t_i = w_i
    e^{-A theta . G_i + |A theta|^2/2}, with covariance S over all n rows;
    H = (1/n) sum_i t_i (A*A + o_i o_i^T). Scaling every t_i by one constant
    leaves gamma unchanged, so t_i is taken as the softmax weight p_i:

        H ~ A*A + sum_i p_i o_i o_i^T,   S ~ n sum_i p_i^2 o_i o_i^T - m m^T,   m = sum_i p_i o_i.
    """
    theta = drift._check_reduced(theta)
    reduced, p = _softmax(table, drift, theta)
    gram = drift.gram()
    offsets = gram @ theta - reduced
    weighted = offsets * p[:, None]
    hessian = gram + offsets.T @ weighted
    mean = weighted.sum(axis=0)
    score_cov = table.n * (weighted.T @ weighted) - np.outer(mean, mean)
    gamma = np.linalg.solve(hessian, np.linalg.solve(hessian, score_cov).T).T
    return 0.5 * (gamma + gamma.T)
