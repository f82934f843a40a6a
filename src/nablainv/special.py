"""The discrete-time Mittag-Leffler series, read from binomial series at s = 1."""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError
from .polynomial import _BLOCK, series_divide

__all__ = [
    "MittagLefflerParams",
    "MittagLefflerSeries",
    "discrete_mittag_leffler",
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


class MittagLefflerSeries:
    """The discrete Mittag-Leffler sequence of ``params`` (a record with alpha,
    beta and lam: MittagLefflerParams or FractionalAtom) at step offsets m >= 1.

    F_{alpha,beta}(lambda; m) = sum_i lambda^i (m)^(rising i*alpha+beta-1) /
    Gamma(i*alpha+beta) is the w^(m-1) coefficient of the atom's transform at
    s = 1 - w, (1-w)^(alpha-beta) / ((1-w)^alpha - lambda), so one power-series
    division of two binomial series gives every step at once.  With lambda = 0
    the transform is (1-w)^-beta and only the i = 0 term survives: the rising
    power (m)^(rising beta-1) / Gamma(beta), read straight from that binomial
    series in O(m), as pair-table row 5 reads it.  A real lambda keeps the
    division in float64; the coefficients are cast to complex once after it.
    Calling with an int returns one value, with an int ndarray the values on
    that grid.  The coefficients are kept between calls and regrown by
    doubling, so asking for the steps in growing blocks costs a small constant
    factor over one call at the last step, not a division per block.
    """

    def __init__(self, params):
        self.params = params
        self._coeffs = np.empty(0, dtype=complex)

    def __call__(self, m):
        coeffs = self._coeffs  # one read, so a concurrent regrowth cannot shrink it
        top = int(np.max(m))
        if top > len(coeffs):
            p = self.params
            order = max(top, 2 * len(coeffs)) - 1
            lam = complex(p.lam)
            if lam == 0:
                coeffs = _binomial_series(-p.beta, order)
            else:
                real = lam.imag == 0
                # at least _BLOCK + 1 coefficients, so a non-integer alpha is
                # divided in blocks at every order, and coefficient j does not
                # depend on how many are asked for
                den = _binomial_series(p.alpha, max(order, _BLOCK))
                den = den.astype(float if real else complex)
                den[0] -= lam.real if real else lam
                coeffs = series_divide(_binomial_series(p.alpha - p.beta, order), den, order)
            coeffs = self._coeffs = coeffs.astype(complex, copy=False)
        return coeffs[np.asarray(m) - 1]


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

    Read from MittagLefflerSeries: a power-series coefficient, which stays
    accurate where summing the defining series does not (its terms grow far
    past the result before they decay, and cancel).
    """
    return complex(MittagLefflerSeries(params)(step_offset(k, params.base_point)))
