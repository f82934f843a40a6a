"""Polynomial arithmetic, root clustering with multiplicities, series division."""

import numpy as np
import pytest

from nablainv import Polynomial, roots_with_multiplicities
from nablainv.polynomial import series_divide

CUBIC = Polynomial([-2.0, -3.0, 0.0, 1.0])  # s^3 - 3s - 2 = (s+1)^2 (s-2)


class TestEvaluation:
    def test_root_of_factored_cubic(self):
        assert CUBIC(2.0) == pytest.approx(0.0, abs=1e-12)

    def test_constant(self):
        assert Polynomial([1.0])(5 + 2j) == 1.0

    def test_constant_term(self):
        assert CUBIC(0.0) == pytest.approx(-2.0)

    def test_vectorized(self):
        s = np.array([0.0, 1.0, 2.0])
        np.testing.assert_allclose(CUBIC(s), [-2.0, -4.0, 0.0])


class TestDerivative:
    def test_cubic(self):
        assert CUBIC.derivative() == Polynomial([-3.0, 0.0, 3.0])

    def test_constant_to_zero(self):
        assert Polynomial([7.0]).derivative().is_zero()

    def test_linear(self):
        assert Polynomial([1.0, 2.0]).derivative() == Polynomial([2.0])


class TestArithmetic:
    def test_trailing_zero_trim(self):
        p = Polynomial([1.0, 2.0, 0.0, 0.0])
        assert p.degree == 1

    def test_compose_one_minus_w(self):
        # (1-w)^2 + 1 from s^2 + 1
        p = Polynomial([1.0, 0.0, 1.0]).in_one_minus_w()
        assert p == Polynomial([2.0, -2.0, 1.0])

    def test_shift(self):
        # (t+2)^2 - 4 = t^2 + 4t
        p = Polynomial([-4.0, 0.0, 1.0]).shifted(2.0)
        assert np.allclose(p.coeffs, [0.0, 4.0, 1.0])

    def test_divmod_exact(self):
        q, r = CUBIC.divmod(Polynomial([1.0, 1.0]))
        assert r.is_zero()
        assert np.allclose(q.coeffs, [-2.0, -1.0, 1.0])

    def test_deflate(self):
        assert np.allclose(CUBIC.deflate(2.0).coeffs, [1.0, 2.0, 1.0])


class TestRoots:
    def test_example_cubic_multiplicities(self):
        clusters = roots_with_multiplicities(CUBIC)
        got = sorted((round(c.value.real, 6), c.multiplicity) for c in clusters)
        assert got == [(-1.0, 2), (2.0, 1)]

    def test_conjugate_pair(self):
        clusters = roots_with_multiplicities(Polynomial([1.0, 0.0, 1.0]))
        values = sorted(c.value.imag for c in clusters)
        assert values == pytest.approx([-1.0, 1.0], abs=1e-12)
        assert all(c.multiplicity == 1 for c in clusters)

    def test_single_linear(self):
        (c,) = roots_with_multiplicities(Polynomial([-0.04, 1.0]))
        assert c.value == pytest.approx(0.04, abs=1e-14)
        assert c.multiplicity == 1

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            roots_with_multiplicities(Polynomial([3.0]))

    def test_random_products_recover_roots_and_multiplicities(self, rng):
        """Products of well-separated factors, degree <= 8, multiplicity <= 4."""
        for _ in range(150):
            degree = int(rng.integers(2, 9))
            roots, mults = [], []
            while sum(mults) < degree:
                m = min(int(rng.integers(1, 5)), degree - sum(mults))
                for _attempt in range(100):
                    z = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
                    if all(abs(z - r) > 0.5 for r in roots):
                        break
                roots.append(z)
                mults.append(m)
            p = Polynomial.from_roots([r for r, m in zip(roots, mults) for _ in range(m)])
            clusters = roots_with_multiplicities(p)
            assert sum(c.multiplicity for c in clusters) == degree
            assert len(clusters) == len(roots)
            for r, m in zip(roots, mults):
                match = min(clusters, key=lambda c: abs(c.value - r))
                assert abs(match.value - r) < 1e-8
                assert match.multiplicity == m

    def test_reported_roots_have_small_residual(self, rng):
        for _ in range(60):
            degree = int(rng.integers(1, 9))
            coeffs = rng.uniform(-3, 3, degree + 1) + 1j * rng.uniform(-3, 3, degree + 1)
            if abs(coeffs[-1]) < 0.3:
                coeffs[-1] = 1.0
            p = Polynomial(coeffs)
            bound = 1e-7 * (1.0 + float(np.max(np.abs(p.coeffs))))
            for c in roots_with_multiplicities(p):
                assert abs(p(c.value)) <= bound


class TestSeriesDivide:
    def test_geometric(self):
        c = series_divide([1.0], [1.0, -1.0], 5)
        np.testing.assert_allclose(c, np.ones(6))

    def test_polynomial_over_one(self):
        c = series_divide([2.0, 3.0], [1.0], 3)
        np.testing.assert_allclose(c, [2.0, 3.0, 0.0, 0.0])

    def test_zero_constant_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            series_divide([1.0], [0.0, 1.0], 2)

    def test_matches_direct_division_near_zero(self, rng):
        # den[0] >= 0.5 with |den[i]| <= 2 keeps all denominator roots
        # outside |x| = 0.2, so |x| <= 0.02 converges fast
        for _ in range(25):
            num = rng.uniform(-2, 2, 4)
            den = rng.uniform(-2, 2, 5)
            den[0] = float(rng.uniform(0.5, 2.0))
            c = series_divide(num, den, 16)
            for x in (0.02, -0.015, 0.01 + 0.01j):
                series = sum(c[j] * x**j for j in range(17))
                direct = np.polyval(num[::-1], x) / np.polyval(den[::-1], x)
                assert abs(series - direct) < 1e-9


def _long_division(num, den, order):
    """Reference oracle: O(order^2) long division over zero-padded coefficients."""
    n = np.zeros(order + 1, dtype=complex)
    d = np.zeros(order + 1, dtype=complex)
    nc = np.atleast_1d(np.asarray(num, dtype=complex))
    dc = np.atleast_1d(np.asarray(den, dtype=complex))
    n[: min(len(nc), order + 1)] = nc[: order + 1]
    d[: min(len(dc), order + 1)] = dc[: order + 1]
    c = np.zeros(order + 1, dtype=complex)
    for j in range(order + 1):
        c[j] = (n[j] - np.dot(d[1 : j + 1], c[j - 1 :: -1][:j])) / d[0]
    return c


class TestSeriesDivideRecurrence:
    """The degree-bounded recurrence against the full long division."""

    def test_matches_long_division_at_high_order(self, rng):
        for trial in range(30):
            degree = int(rng.integers(1, 11))
            # roots with |x| >= 0.97 keep 700 coefficients inside float64
            radii = rng.uniform(0.97, 3.0, degree)
            roots = radii * np.exp(1j * rng.uniform(0, 2 * np.pi, degree))
            den = Polynomial.from_roots(roots).coeffs * rng.uniform(0.5, 2.0)
            num = rng.normal(size=int(rng.integers(1, degree + 4)))
            if trial % 2:
                num = num + 1j * rng.normal(size=num.size)
            order = int(rng.integers(500, 701))
            got = series_divide(num, den, order)
            want = _long_division(num, den, order)
            assert got.shape == (order + 1,)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12 * np.max(np.abs(want)))

    def test_numerator_longer_than_order(self):
        got = series_divide([1.0, 2.0, 3.0, 4.0], [1.0, 0.5], 2)
        np.testing.assert_allclose(got, _long_division([1.0, 2.0, 3.0, 4.0], [1.0, 0.5], 2))

    def test_denominator_longer_than_order(self):
        den = [2.0, 1.0, -1.0, 0.5, 0.25]
        np.testing.assert_allclose(series_divide([1.0], den, 1), _long_division([1.0], den, 1))
