"""Lognormal closed-form prices, used for reference prices, tests and the benchmark.

Everything here is independent of the Monte Carlo machinery: the closed
forms evaluate the normal CDF directly, so these values can sit on the
other side of an assertion from the sampled estimators.

The normal CDF is scipy's Cephes implementation via the error function
(``ndtr``), accurate to double precision; digital prices computed from it
are bit-stable across runs.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

__all__ = ["bs_call_price", "bs_put_price", "bs_digital_price"]


def _d1_d2(spot, strike, rate, vol, maturity):
    sd = vol * np.sqrt(maturity)
    d1 = (np.log(spot / strike) + (rate + 0.5 * vol * vol) * maturity) / sd
    return d1, d1 - sd


def bs_call_price(spot, strike, rate, vol, maturity) -> float:
    """Lognormal European call value."""
    d1, d2 = _d1_d2(spot, strike, rate, vol, maturity)
    return float(spot * ndtr(d1) - strike * np.exp(-rate * maturity) * ndtr(d2))


def bs_put_price(spot, strike, rate, vol, maturity) -> float:
    """Lognormal European put value."""
    d1, d2 = _d1_d2(spot, strike, rate, vol, maturity)
    return float(strike * np.exp(-rate * maturity) * ndtr(-d2) - spot * ndtr(-d1))


def bs_digital_price(spot, level, rate, vol, maturity) -> float:
    """Value of the indicator that the terminal asset exceeds ``level``:
    exp(-r T) N(d2) with d2 = (ln(S0/L) + (r - vol^2/2) T) / (vol sqrt(T)).
    The terminal value is positive, so a level <= 0 pays the bond exp(-r T)."""
    if level <= 0:
        return float(np.exp(-rate * maturity))
    _, d2 = _d1_d2(spot, level, rate, vol, maturity)
    return float(np.exp(-rate * maturity) * ndtr(d2))
