"""Reference values for the benchmark, computed without any nablainv code.

The nabla transform F(s) = sum_{k>=1} (1-s)^(k-1) f(k) makes f(k) the
coefficient of w^(k-1) in F(1 - w).  Three independent routes give it:

* ``rational_values``: exact integer long division of the two polynomials
  recentred at s = 1 (O(K * degree), no rounding until the final division,
  so cancelled pole-zero pairs cannot excite spurious modes).
* ``partial_fraction_values``: the textbook pair r/(s-p)^n <-> r C(m+n-2, n-1)
  (1-p)^-(m+n-1), summed in log space so terms never overflow on the way.
* ``atom_values`` / ``row6_values`` / ``row10_values``: binomial series of
  (1-w)^gamma (c_j = c_{j-1} (j-1-gamma)/j) multiplied and divided as power
  series; this covers fractional-power atoms and the tabulated shapes.

Every function returns the grid f(1..K) as a float64 array; entries whose
true value lies beyond the float64 range come back as inf or nan.
"""

import math
from fractions import Fraction

import numpy as np


def _quotient(a, b):
    try:
        return a / b
    except OverflowError:
        return math.inf


# --- rational F given as exact polynomials ---------------------------------


def poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_pow(a, n):
    out = [Fraction(1)]
    for _ in range(n):
        out = poly_mul(out, a)
    return out


def _recentre(coeffs):
    """Coefficients of p(1 - w) in w, exactly."""
    out = [0] * len(coeffs)
    for i, a in enumerate(coeffs):
        for j in range(i + 1):
            out[j] += a * math.comb(i, j) * (-1) ** j
    return out


def rational_values(num, den, K):
    """f(1..K) of F = num/den, coefficients as Fractions in ascending powers of s."""
    scale = math.lcm(*(Fraction(c).denominator for c in (*num, *den)))
    nw = _recentre([int(Fraction(c) * scale) for c in num])
    dw = _recentre([int(Fraction(c) * scale) for c in den])
    d0 = dw[0]
    if d0 == 0:
        raise ValueError("pole at s = 1")
    # c_j = C_j / d0^(j+1) keeps the long division in integers
    powers = [1]
    for _ in range(K):
        powers.append(powers[-1] * d0)
    C = []
    for j in range(K):
        acc = (nw[j] if j < len(nw) else 0) * powers[j]
        for i in range(1, min(j, len(dw) - 1) + 1):
            acc -= dw[i] * C[j - i] * powers[i - 1]
        C.append(acc)
    return np.array([_quotient(C[j], powers[j + 1]) for j in range(K)])


# --- sums of partial fractions ----------------------------------------------


def partial_fraction_values(terms, K):
    """f(1..K) of sum r/(s-p)^n over (r, p, n); real part of the complex sum."""
    m = np.arange(1, K + 1, dtype=float)
    total = np.zeros(K, dtype=complex)
    for r, p, n in terms:
        binom = np.ones(K)
        for i in range(n - 1):
            binom *= (m + i) / (i + 1)
        log_term = np.log(complex(r)) + np.log(binom) - (m + n - 1) * np.log(1 - complex(p))
        with np.errstate(over="ignore", invalid="ignore"):
            total += np.exp(log_term)
    return total.real


# --- binomial series for fractional powers ----------------------------------


def binomial_series(gamma, K):
    """Coefficients of (1 - w)^gamma up to w^(K-1)."""
    c = np.empty(K, dtype=complex)
    c[0] = 1.0
    for j in range(1, K):
        c[j] = c[j - 1] * (j - 1 - gamma) / j
    return c


def series_div(a, b):
    """Power-series quotient a/b truncated to len(a) terms; b[0] != 0."""
    K = len(a)
    c = np.zeros(K, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(K):
            c[j] = (a[j] - np.dot(b[1 : j + 1], c[j - 1 :: -1][:j])) / b[0]
    return c


def _atom_series(r, alpha, beta, lam, K):
    den = binomial_series(alpha, K)
    den[0] -= lam
    return complex(r) * series_div(binomial_series(alpha - beta, K), den)


def atom_values(atoms, K):
    """f(1..K) of sum r s^(alpha-beta)/(s^alpha - lam) over (r, alpha, beta, lam)."""
    total = np.zeros(K, dtype=complex)
    for r, alpha, beta, lam in atoms:
        total += _atom_series(r, alpha, beta, lam, K)
    return total.real


def row6_values(a, b, e, K):
    """f(1..K) of (a + b s)^-e: (a+b)^-e (1 - x w)^-e with x = b/(a+b)."""
    x = b / (a + b)
    series = binomial_series(-e, K) * x ** np.arange(K)
    return ((a + b) ** -e * series).real


def row10_values(alpha, lam, K):
    """f(1..K) of alpha s^(alpha-1) (1-s) / (s^alpha - lam)^2."""
    num = np.zeros(K, dtype=complex)
    num[1:] = alpha * binomial_series(alpha - 1, K)[: K - 1]  # times w = 1 - s
    base = binomial_series(alpha, K)
    base[0] -= lam
    den = np.convolve(base, base)[:K]
    return series_div(num, den).real


def values(spec, K):
    """Dispatch on a request's JSON reference spec."""
    kind = spec["type"]
    if kind == "rational":
        return rational_values(
            [Fraction(c) for c in spec["num"]], [Fraction(c) for c in spec["den"]], K
        )
    if kind == "partial-fractions":
        return partial_fraction_values(
            [(complex(r), complex(p), n) for r, p, n in spec["terms"]], K
        )
    if kind == "atoms":
        return atom_values(
            [(complex(r), a, b, complex(lam)) for r, a, b, lam in spec["atoms"]], K
        )
    if kind == "row6":
        return row6_values(spec["a"], spec["b"], spec["e"], K)
    if kind == "row10":
        return row10_values(spec["alpha"], spec["lam"], K)
    raise ValueError(f"unknown reference type {kind!r}")
