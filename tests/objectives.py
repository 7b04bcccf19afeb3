"""The variance proxy v_n, its log form u_n and u_n's derivatives at one
point, for the tests.

Each is a thin wrapper over the optimizer's ``_Objective``, so an assertion
can read the same sums the solver reads. This module is a helper that the
test files import; it holds no tests of its own.
"""

from __future__ import annotations

from tiltmc.optimize import _Objective


def eval_vn(table, drift, theta) -> float:
    """Empirical variance proxy v_n at the reduced parameter theta."""
    obj = _Objective(table, drift)
    return obj.v_from_u(obj.evaluate(drift._check_reduced(theta))[0])


def eval_un(table, drift, theta) -> float:
    """Reformulated objective u_n = |A theta|^2/2 + log sum_i w_i e^{-A theta . G_i}."""
    return _Objective(table, drift).evaluate(drift._check_reduced(theta))[0]


def eval_un_derivatives(table, drift, theta):
    """Gradient and Hessian of u_n at theta.

    The gradient is A*A theta - A* m(theta) with m the softmax-weighted mean
    of the samples under weights w_i e^{-A theta . G_i}; the Hessian is
    A*A plus the softmax-weighted covariance of A*G, hence bounded below by
    A*A.
    """
    _, grad, hess = _Objective(table, drift).evaluate(drift._check_reduced(theta), hessian=True)
    return grad, hess
