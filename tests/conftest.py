"""Shared builders and high-precision references for the test suite."""

import math

import mpmath
import numpy as np
import pytest

from nablainv import Polynomial, RationalFunction

# the one stderr line of a command that refuses a non-real F
REFUSED = ("error: F(s) is not real: its complex coefficients do not come in conjugate "
           "pairs, so f(k) is not real\n")


def rational_from_factors(numerator_coeffs, pole_multiplicities):
    """Rational function with the denominator built from (root, multiplicity)."""
    roots = [r for r, m in pole_multiplicities for _ in range(m)]
    return RationalFunction(Polynomial(numerator_coeffs), Polynomial.from_roots(roots))


def example1():
    """9/((s+1)^2 (s-2)); denominator expanded as s^3 - 3s - 2."""
    return RationalFunction(Polynomial([9.0]), Polynomial([-2.0, -3.0, 0.0, 1.0]))


def example1_closed_form(m):
    """(-1)^(k-a) - 2^(a-k) + 3(a-k) 2^(a-k-1) at m = k - a."""
    return (-1.0) ** m - 2.0 ** (-m) + 3.0 * (-m) * 2.0 ** (-m - 1)


def random_real_rational_from_factors(rng, max_degree=6, min_dist_from_one=0.15,
                                      max_multiplicity=3, separation=0.3):
    """Strictly proper real-coefficient rational built from known pole factors.

    Complex poles come in conjugate pairs so the coefficients stay real;
    repeated poles exercise the multiple-pole paths.
    """
    degree = int(rng.integers(1, max_degree + 1))
    roots = []

    def acceptable(z):
        if abs(z - 1.0) < min_dist_from_one:
            return False
        return all(abs(z - r) > separation for r in roots)

    guard = 0
    while len(roots) < degree and guard < 500:
        guard += 1
        remaining = degree - len(roots)
        mult = int(rng.integers(1, max_multiplicity + 1))
        if remaining >= 2 and rng.random() < 0.4:
            mult = min(mult, remaining // 2)
            if mult == 0:
                continue
            z = complex(rng.uniform(-1.2, 2.2), rng.uniform(0.18, 1.3))
            if acceptable(z) and acceptable(z.conjugate()):
                roots.extend([z] * mult + [z.conjugate()] * mult)
        else:
            mult = min(mult, remaining)
            z = complex(rng.uniform(-1.4, 2.6), 0.0)
            if acceptable(z):
                roots.extend([z] * mult)
    if not roots:
        roots = [complex(rng.uniform(1.4, 2.4), 0.0)]
    num_degree = int(rng.integers(0, len(roots)))
    num = rng.uniform(-5.0, 5.0, num_degree + 1)
    while abs(num[-1]) < 0.2:
        num[-1] = float(rng.uniform(0.2, 5.0))
    return RationalFunction(Polynomial(num), Polynomial.from_roots(roots)), roots


def random_coefficient_rational(rng, max_degree=6, min_dist_from_one=0.15, bound=5.0):
    """Strictly proper rational with all coefficients drawn uniformly in [-5, 5].

    Resamples until every pole keeps the required distance from s = 1.
    """
    for _ in range(200):
        degree = int(rng.integers(1, max_degree + 1))
        den = rng.uniform(-bound, bound, degree + 1)
        if abs(den[-1]) < 0.3:
            den[-1] = float(rng.uniform(0.3, bound))
        num_degree = int(rng.integers(0, degree))
        num = rng.uniform(-bound, bound, num_degree + 1)
        while abs(num[-1]) < 0.2:
            num[-1] = float(rng.uniform(0.2, bound))
        rf = RationalFunction(Polynomial(num), Polynomial(den))
        if rf.radius >= min_dist_from_one:
            return rf
    raise RuntimeError("could not draw an admissible rational")


def mpmath_mittag_leffler(alpha, beta, lam, m, digits=60):
    """sum_i lam^i Gamma(m + i alpha + beta - 1) / (Gamma(m) Gamma(i alpha + beta)).

    The defining series summed term by term in mpmath.  Its terms grow far
    past the result before they decay, so the working precision is ``digits``
    plus the decimal exponent of the largest term (found from float lgamma);
    the sum stops once the terms fall below 10^-(digits+10) and keep falling.
    """
    def log10_term(i):
        return (i * math.log10(abs(lam)) + (math.lgamma(m + i * alpha + beta - 1)
                - math.lgamma(m) - math.lgamma(i * alpha + beta)) / math.log(10))

    peak = max(log10_term(i) for i in range(0, 20000, 10))
    with mpmath.workdps(digits + max(0, math.ceil(peak)) + 10):
        tiny = mpmath.mpf(10) ** -(digits + 10)
        a, b, z = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpc(lam)
        gamma_m = mpmath.gamma(m)
        total, last, i = mpmath.mpc(0), None, 0
        while True:
            term = z**i * mpmath.rf(i * a + b, m - 1) / gamma_m
            total += term
            if last is not None and abs(term) < min(abs(last), tiny):
                return complex(total)
            last, i = term, i + 1


def _mp_binomial(gamma, n):
    """Coefficients of (1-w)^gamma up to w^n, in the current mpmath precision."""
    c = [mpmath.mpf(1)]
    for j in range(1, n + 1):
        c.append(c[-1] * (j - 1 - mpmath.mpf(gamma)) / j)
    return c


def _mp_divide(num, den):
    """Power-series quotient num/den, as many terms as num has."""
    c = []
    for j in range(len(num)):
        c.append((num[j] - mpmath.fdot(den[1 : j + 1], c[::-1])) / den[0])
    return c


def mpmath_quotient(num, den, order, digits=40):
    """The power series num/den up to x^order, in ``digits``-digit arithmetic."""
    with mpmath.workdps(digits):
        n = [mpmath.mpc(complex(v)) for v in np.atleast_1d(num)[: order + 1]]
        d = [mpmath.mpc(complex(v)) for v in np.atleast_1d(den)]
        return np.array([complex(v) for v in
                         _mp_divide(n + [mpmath.mpc(0)] * (order + 1 - len(n)), d)])


def mpmath_atom_values(atoms, K, digits=50):
    """f(1..K) of sum r s^(alpha-beta)/(s^alpha - lam) over (r, alpha, beta, lam).

    The w^j coefficients of each atom at s = 1 - w, by dividing the binomial
    series of (1-w)^(alpha-beta) by that of (1-w)^alpha - lam in
    ``digits``-digit arithmetic.
    """
    with mpmath.workdps(digits):
        total = [mpmath.mpc(0)] * K
        for r, alpha, beta, lam in atoms:
            den = _mp_binomial(alpha, K - 1)
            den[0] -= mpmath.mpc(lam)
            q = _mp_divide(_mp_binomial(alpha - beta, K - 1), den)
            total = [t + mpmath.mpc(r) * v for t, v in zip(total, q)]
        return np.array([complex(v) for v in total])


def mpmath_row10_values(alpha, lam, K, digits=50):
    """f(1..K) of alpha s^(alpha-1) (1-s) / (s^alpha - lam)^2, as above."""
    with mpmath.workdps(digits):
        num = [mpmath.mpf(0)] + [alpha * c for c in _mp_binomial(alpha - 1, K - 2)]
        base = _mp_binomial(alpha, K - 1)
        base[0] -= mpmath.mpc(lam)
        den = [mpmath.fsum(base[i] * base[j - i] for i in range(j + 1)) for j in range(K)]
        return np.array([complex(v) for v in _mp_divide(num, den)])


def mpmath_factored_values(constant, factors, K, digits=50):
    """f(1..K) of constant * prod q(s)^e over (ascending coefficients of q, e).

    Each factor is recentered at s = 1 - w exactly (binomial expansion of its
    float coefficients) in ``digits``-digit arithmetic, the shifted factors
    are multiplied, and the two products divided as power series.
    """
    def mul(a, b):
        out = [mpmath.mpc(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    with mpmath.workdps(digits):
        num, den = [mpmath.mpc(constant)], [mpmath.mpc(1)]
        for coeffs, e in factors:
            shifted = [mpmath.mpc(0)] * len(coeffs)
            for i, c in enumerate(coeffs):
                for j in range(i + 1):
                    shifted[j] += mpmath.mpc(c) * mpmath.binomial(i, j) * (-1) ** j
            for _ in range(abs(e)):
                if e > 0:
                    num = mul(num, shifted)
                else:
                    den = mul(den, shifted)
        num = (num + [mpmath.mpc(0)] * K)[:K]
        den = den + [mpmath.mpc(0)] * K
        return np.array([complex(v) for v in _mp_divide(num, den)])


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
