"""The discrete-time Mittag-Leffler series, read from binomial series at s = 1."""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError
from .polynomial import _BLOCK, series_divide

__all__ = [
    "MittagLefflerParams",
    "discrete_mittag_leffler",
    "mittag_leffler_series",
    "step_offset",
]


def step_offset(k, base_point):
    """The step index m = k - a as an int, validated to lie in {1, 2, ...}."""
    m = k - base_point
    mi = round(m)
    if abs(m - mi) > 1e-9 or mi < 1:
        raise ValueError(
            f"k = {k} is not in the causal index set {{a+1, a+2, ...}} for a = {base_point}"
        )
    return int(mi)


def check_parameters(alpha, beta, lam):
    """Raise unless alpha, beta > 0 and |lambda| < 1, where the series converges
    at every step (terms decay like lambda^i times a polynomial in i)."""
    if not (alpha > 0 and beta > 0):
        raise ValueError("alpha and beta must be positive")
    if abs(lam) >= 1:
        raise ParameterDomainError(
            f"|lambda| = {abs(lam):g} >= 1 is outside the invertible range")


@dataclass(frozen=True)
class MittagLefflerParams:
    """Parameters (alpha, beta, lambda, base point a) of the discrete series."""

    alpha: float
    beta: float
    lam: complex
    base_point: float = 0.0

    def __post_init__(self):
        check_parameters(self.alpha, self.beta, self.lam)


def mittag_leffler_series(alpha, beta, lam, order):
    """The discrete Mittag-Leffler sequence at step offsets m = 1..order+1, as
    a complex array whose entry m - 1 is the value at m.

    F_{alpha,beta}(lambda; m) = sum_i lambda^i (m)^(rising i*alpha+beta-1) /
    Gamma(i*alpha+beta) is the w^(m-1) coefficient of the atom's transform at
    s = 1 - w, (1-w)^(alpha-beta) / ((1-w)^alpha - lambda), so one power-series
    division of two binomial series gives every step at once.  With lambda = 0
    the transform is (1-w)^-beta and only the i = 0 term survives: the rising
    power (m)^(rising beta-1) / Gamma(beta), read straight from that binomial
    series in O(m), as pair-table row 5 reads it.  A real lambda keeps the
    division in float64; the coefficients are cast to complex once after it.
    Entry j does not depend on ``order``, so a longer array extends a shorter
    one bit for bit.
    """
    lam = complex(lam)
    if lam == 0:
        coeffs = _binomial_series(-beta, order)
    else:
        real = lam.imag == 0
        # at least _BLOCK + 1 coefficients: a non-integer alpha is divided in
        # blocks at every order
        den = _binomial_series(alpha, max(order, _BLOCK))
        den = den.astype(float if real else complex)
        den[0] -= lam.real if real else lam
        coeffs = series_divide(_binomial_series(alpha - beta, order), den, order)
    return coeffs.astype(complex, copy=False)


def _binomial_series(gamma, order):
    """Coefficients of (1-w)^gamma up to w^order: c_j = c_{j-1} (j-1-gamma) / j.

    Trailing zeros are dropped: for an integer gamma >= 0 the series is a
    polynomial of gamma + 1 coefficients, cut there before the product, and a
    short denominator keeps the division O(order * gamma).  Any other gamma
    has no zero coefficient unless its tail underflows.
    """
    if gamma >= 0 and float(gamma).is_integer():
        order = min(order, int(gamma))
    j = np.arange(1, order + 1)
    c = np.cumprod(np.concatenate(([1.0], (j - 1 - gamma) / j)))
    return c if c[-1] else np.trim_zeros(c, "b")


def discrete_mittag_leffler(params, k):
    """Sum_{i>=0} lambda^i (k-a)^(rising i*alpha+beta-1) / Gamma(i*alpha+beta).

    Read from mittag_leffler_series: a power-series coefficient, which stays
    accurate where summing the defining series does not (its terms grow far
    past the result before they decay, and cancel).
    """
    m = step_offset(k, params.base_point)
    return complex(mittag_leffler_series(params.alpha, params.beta, params.lam, m - 1)[m - 1])
