"""The discrete Mittag-Leffler series."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from scipy.special import gamma as scipy_gamma
from scipy.special import loggamma as scipy_loggamma
from scipy.special import poch as scipy_poch

from nablainv import MittagLefflerParams, ParameterDomainError, discrete_mittag_leffler
from nablainv.special import MittagLefflerSeries
from conftest import mpmath_atom_values, mpmath_mittag_leffler


def brute_force_ml(alpha, beta, lam, m, terms=3000):
    """Direct summation oracle, independent of the library's stopping rule."""
    total = 0j
    for i in range(terms):
        if lam == 0 and i > 0:
            break
        log_lam = cmath.log(lam) if lam != 0 else 0.0
        total += cmath.exp(
            i * log_lam
            + scipy_loggamma(m + i * alpha + beta - 1)
            - scipy_loggamma(m)
            - scipy_loggamma(i * alpha + beta)
        )
    return total


class TestDiscreteMittagLeffler:
    def test_lambda_zero_beta_one(self):
        p = MittagLefflerParams(0.7, 1.0, 0.0)
        assert discrete_mittag_leffler(p, 5) == pytest.approx(1.0)

    def test_first_step_is_geometric_sum(self):
        # at k = a+1 every term is lam^i, so the sum is 1/(1-lam) = 1.25
        p = MittagLefflerParams(0.5, 0.5, 0.2)
        got = discrete_mittag_leffler(p, 1)
        assert got.real == pytest.approx(1.25, rel=1e-12)
        assert got == pytest.approx(brute_force_ml(0.5, 0.5, 0.2, 1, 200), rel=1e-12)

    def test_alpha_beta_one_is_geometric_sequence(self):
        # 2.44140625 = 0.8^-4
        p = MittagLefflerParams(1.0, 1.0, 0.2)
        got = discrete_mittag_leffler(p, 4)
        assert got.real == pytest.approx(2.44140625, rel=1e-12)
        assert got == pytest.approx(brute_force_ml(1.0, 1.0, 0.2, 4), rel=1e-12)

    @pytest.mark.parametrize("lam", [0.2, -0.5, 0.5j])
    def test_order_one_reduces_to_geometric(self, lam):
        p = MittagLefflerParams(1.0, 1.0, lam)
        for m in range(1, 21):
            expected = (1.0 - lam) ** (-m)
            got = discrete_mittag_leffler(p, m)
            assert abs(got - expected) <= 1e-10 * abs(expected)

    def test_lambda_zero_is_first_term(self):
        for alpha, beta in [(0.5, 0.5), (0.7, 1.3), (1.2, 0.4)]:
            p = MittagLefflerParams(alpha, beta, 0.0)
            for m in (1, 3, 7):
                expected = scipy_poch(m, beta - 1) / scipy_gamma(beta)
                assert discrete_mittag_leffler(p, m) == pytest.approx(expected, rel=1e-13)

    def test_first_step_geometric_for_any_orders(self):
        lam = 0.37
        for alpha in (0.3, 0.5, 0.7, 1.2):
            for beta in (0.3, 0.5, 0.7, 1.2):
                p = MittagLefflerParams(alpha, beta, lam)
                got = discrete_mittag_leffler(p, 1)
                assert got.real == pytest.approx(1.0 / (1.0 - lam), rel=1e-10)

    def test_truncation_converged_against_long_oracle(self, rng):
        """The stopping rule loses nothing against a far longer summation."""
        for _ in range(25):
            alpha = float(rng.uniform(0.2, 1.5))
            beta = float(rng.uniform(0.2, 1.5))
            lam = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3))
            if abs(lam) > 0.5:
                lam *= 0.5 / abs(lam)
            m = int(rng.integers(1, 12))
            got = discrete_mittag_leffler(MittagLefflerParams(alpha, beta, lam), m)
            ref = brute_force_ml(alpha, beta, lam, m)
            assert abs(got - ref) <= 1e-12 * (1.0 + abs(ref))

    def test_base_point_offsets(self):
        p = MittagLefflerParams(0.5, 0.5, 0.2, base_point=2.0)
        q = MittagLefflerParams(0.5, 0.5, 0.2, base_point=0.0)
        assert discrete_mittag_leffler(p, 3.0) == discrete_mittag_leffler(q, 1)

    def test_domain_errors(self):
        with pytest.raises(ParameterDomainError):
            MittagLefflerParams(0.5, 0.5, 1.0)
        with pytest.raises(ParameterDomainError):
            MittagLefflerParams(0.5, 0.5, -2.0)
        with pytest.raises(ValueError):
            MittagLefflerParams(-0.5, 0.5, 0.2)
        with pytest.raises(ValueError):
            MittagLefflerParams(0.5, 0.0, 0.2)

    def test_k_outside_index_set(self):
        p = MittagLefflerParams(0.5, 0.5, 0.2)
        with pytest.raises(ValueError):
            discrete_mittag_leffler(p, 0)


class TestLambdaZeroRisingPower:
    """lambda = 0 leaves (m)^(rising beta-1) / Gamma(beta), the w^(m-1)
    coefficient of (1-w)^-beta: the identities of the rising power."""

    def test_first_step_is_one(self):
        # (1)^(rising beta-1) = Gamma(beta): the leading coefficient, exactly
        for beta in (0.1, 0.5, 1.0, 2.7, 7.3):
            assert discrete_mittag_leffler(MittagLefflerParams(0.5, beta, 0.0), 1) == 1.0

    def test_integer_beta_is_binomial_coefficient(self):
        # (m)^(rising n) / n! = C(m+n-1, n); (3)^(rising 2) / 2! = 6
        assert discrete_mittag_leffler(MittagLefflerParams(0.7, 3.0, 0.0), 3) == 6.0
        for n in range(5):
            series = MittagLefflerSeries(MittagLefflerParams(0.7, n + 1.0, 0.0))
            for m in range(1, 31):
                assert series(m) == pytest.approx(math.comb(m + n - 1, n), rel=1e-14)

    def test_step_recurrence(self, rng):
        """(m+1)^(rising beta-1) = (m)^(rising beta-1) (m+beta-1)/m."""
        ms = np.arange(1, 200)
        for beta in rng.uniform(0.1, 8.0, 20):
            f = MittagLefflerSeries(MittagLefflerParams(0.5, float(beta), 0.0))(np.arange(1, 201))
            np.testing.assert_allclose(f[1:], f[:-1] * (ms + beta - 1) / ms, rtol=1e-14, atol=0)

    def test_matches_gamma_ratio(self, rng):
        for _ in range(30):
            m = int(rng.integers(1, 60))
            beta = float(rng.uniform(0.1, 4.0))
            p = MittagLefflerParams(float(rng.uniform(0.2, 2.0)), beta, 0.0)
            expected = scipy_poch(m, beta - 1) / scipy_gamma(beta)
            assert discrete_mittag_leffler(p, m) == pytest.approx(expected, rel=1e-12)


class TestMittagLefflerAgainstMpmath:
    """The series division against the defining sum in 60-digit arithmetic.

    Negative and complex lambda with non-integer orders are where summing the
    defining series in floats fails: its terms grow far past the result.
    """

    @pytest.mark.parametrize("alpha, beta, lam, steps", [
        (0.5, 0.7, -0.5 + 0.3j, (1, 17, 150)),
        (1.3, 0.4, -0.6, (2, 40, 150)),
        (0.37, 1.61, 0.6j, (5, 100)),
        (1.7, 1.7, -0.7, (3, 60)),
        (0.83, 1.29, -0.45 - 0.55j, (9, 120)),
    ])
    def test_relative_agreement(self, alpha, beta, lam, steps):
        p = MittagLefflerParams(alpha, beta, lam)
        for m in steps:
            want = mpmath_mittag_leffler(alpha, beta, lam, m)
            got = discrete_mittag_leffler(p, m)
            assert abs(got - want) <= 1e-12 * abs(want), (m, got, want)

    def test_nearly_integer_order(self):
        # summing the defining series in log space returned 2e63 here
        want = mpmath_mittag_leffler(2.0000001, 1.0, -0.9, 60)
        assert want.real == pytest.approx(7.0859563203e-11, rel=1e-10)
        got = discrete_mittag_leffler(MittagLefflerParams(2.0000001, 1.0, -0.9), 60)
        assert got.real == pytest.approx(want.real, rel=1e-12)


class TestMittagLefflerSeries:
    @pytest.mark.parametrize("alpha, beta", [(0.5, 0.5), (0.7, 1.3), (1.2, 0.4), (0.3, 0.7)])
    def test_lambda_zero_long_grid_against_mpmath(self, alpha, beta):
        """lambda = 0 reads the binomial series of (1-w)^-beta; dividing
        (1-w)^(alpha-beta) by (1-w)^alpha instead was off by 2.4e-12 at
        (1.2, 0.4)."""
        ms = np.arange(1, 4001, 3)
        got = MittagLefflerSeries(MittagLefflerParams(alpha, beta, 0.0))(ms)
        with mpmath.workdps(40):
            b = mpmath.mpf(beta)
            want = np.array([complex(mpmath.rf(int(m), b - 1) / mpmath.gamma(b)) for m in ms])
        assert np.max(np.abs(got - want) / np.abs(want)) <= 5e-13

    def test_steps_one_at_a_time_match_the_grid(self):
        """Kept coefficients regrown by doubling give the values one whole-grid
        division gives, bit for bit: coefficient j of a series division does
        not depend on the order it is carried to."""
        p = MittagLefflerParams(0.83, 1.29, -0.45 - 0.55j)
        stepper = MittagLefflerSeries(p)
        stepped = np.array([stepper(m) for m in range(1, 131)])
        np.testing.assert_array_equal(stepped, MittagLefflerSeries(p)(np.arange(1, 131)))

    @pytest.mark.parametrize("alpha, beta, lam", [
        (1.5, 1.5, -0.5),
        (0.83, 1.29, -0.45 - 0.55j),
        (0.5, 0.7, 0.95j),
        (1.3, 0.4, -0.95),
        (0.37, 1.61, 0.6 - 0.2j),
        (1.7, 1.7, 0.5),  # grows like 3^m: past the float64 range at m = 649
    ])
    def test_long_grid_against_a_40_digit_division(self, alpha, beta, lam):
        """K = 1500 is 24 blocks of the dense division; every finite value is
        within 1e-12 of the same division in 40 digits."""
        K = 1500
        with np.errstate(over="ignore", invalid="ignore"):
            got = MittagLefflerSeries(MittagLefflerParams(alpha, beta, lam))(np.arange(1, K + 1))
        want = mpmath_atom_values([(1.0, alpha, beta, lam)], K, digits=40)
        finite = np.isfinite(got)
        assert finite[:600].all()
        # a value out of range is out of range in 40 digits too
        assert np.all(np.abs(want[~finite]) > 1e307)
        assert np.max(np.abs(got[finite] - want[finite]) / np.abs(want[finite])) <= 1e-12

    def test_scalar_and_grid_calls(self):
        series = MittagLefflerSeries(MittagLefflerParams(1.0, 1.0, 0.2))
        assert isinstance(series(4), complex)
        np.testing.assert_allclose(series(np.array([4, 1, 9])), 0.8 ** -np.array([4, 1, 9]),
                                   rtol=1e-14)
