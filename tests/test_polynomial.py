"""Polynomial arithmetic, root clustering with multiplicities, series division."""

import numpy as np
import pytest

from nablainv import Polynomial, RootCluster, roots_with_multiplicities
from nablainv import polynomial
from nablainv.polynomial import (
    _BLOCK,
    _LOOP_MAX,
    factor_divide,
    factor_roots,
    pool_roots,
    series_divide,
)
from nablainv.special import _binomial_series

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


    def test_real_polynomial_gives_real_roots_and_exact_conjugates(self):
        # the factors of test_triple_conjugate_pair_reconstructs, multiplied
        # out in real arithmetic: unsnapped, the eigen-solve leaves an
        # imaginary part on the simple real root and the two triple clusters
        # apart from exact conjugates
        z = 1.6930638236116151 + 0.3692657886863366j
        real_root = 1.7481308551550843
        pair = Polynomial([abs(z) ** 2, -2.0 * z.real, 1.0])
        p = (Polynomial([-2.28431870913172, 1.0]) * Polynomial([-real_root, 1.0])
             * pair**3)
        assert not np.any(p.coeffs.imag)
        clusters = roots_with_multiplicities(p)
        near = min(clusters, key=lambda c: abs(c.value - real_root))
        assert near.value.imag == 0.0 and near.multiplicity == 1
        lower, upper = sorted((c for c in clusters if c.multiplicity == 3),
                              key=lambda c: c.value.imag)
        assert lower.value == upper.value.conjugate()
        assert abs(upper.value - z) < 1e-4

    def test_conjugate_closed_roots_give_real_coefficients(self):
        # the factors of test_triple_conjugate_pair_reconstructs: the product
        # carried imaginary parts of up to 1.4e-14, so the real snapping did
        # not apply and the simple real root came back as ...4235693+3.7e-11j
        z = 1.6930638236116151 + 0.3692657886863366j
        real_root = 1.7481308551550843
        p = Polynomial.from_roots([2.28431870913172, *[z] * 3, *[z.conjugate()] * 3,
                                   real_root])
        assert not np.any(p.coeffs.imag)
        near = min(roots_with_multiplicities(p), key=lambda c: abs(c.value - real_root))
        assert near.value.imag == 0.0 and near.multiplicity == 1
        assert abs(near.value - real_root) < 1e-9
        # one root without its conjugate keeps the complex product
        assert np.any(Polynomial.from_roots([z, z, z.conjugate()]).coeffs.imag)

    def test_complex_polynomial_is_not_mirrored(self):
        p = Polynomial.from_roots([1j, -2j, 0.5])
        got = sorted((c.value for c in roots_with_multiplicities(p)), key=lambda v: v.imag)
        np.testing.assert_allclose(got, [-2j, 0.5, 1j], atol=1e-12)


class TestFactorRoots:
    def test_linear_is_exact(self):
        assert factor_roots(Polynomial([-0.77, 1.0])) == [RootCluster(0.77 + 0j, 1)]
        assert factor_roots(Polynomial([1.5, 3.0])) == [RootCluster(-0.5 + 0j, 1)]

    def test_real_quadratic_gives_an_exact_conjugate_pair(self):
        # s^2 - 3.28 s + 2.768 = (s - 1.64)^2 + 0.28^2
        lower, upper = factor_roots(Polynomial([2.768, -3.28, 1.0]))
        assert lower.value == upper.value.conjugate()
        assert lower.value.imag < 0 and (lower.multiplicity, upper.multiplicity) == (1, 1)
        assert abs(upper.value - (1.64 + 0.28j)) < 1e-14

    def test_zero_discriminant_is_one_double_root(self):
        assert factor_roots(Polynomial([0.25, -1.0, 1.0])) == [RootCluster(0.5 + 0j, 2)]

    def test_stable_small_root(self):
        # s^2 - 1e8 s + 1: the textbook formula loses the root 1e-8 entirely
        small, big = factor_roots(Polynomial([1.0, -1e8, 1.0]))
        assert small.value == pytest.approx(1e-8, rel=1e-15)
        assert big.value == pytest.approx(1e8, rel=1e-15)
        assert small.value.imag == 0.0 and big.value.imag == 0.0

    def test_complex_quadratic(self, rng):
        for _ in range(20):
            r1, r2 = rng.uniform(-2, 2, 2) + 1j * rng.uniform(-2, 2, 2)
            got = [c.value for c in factor_roots(Polynomial.from_roots([r1, r2]))]
            for r in (r1, r2):
                assert min(abs(g - r) for g in got) < 1e-13

    def test_higher_degree_uses_the_eigen_solve(self):
        assert factor_roots(CUBIC) == roots_with_multiplicities(CUBIC)


class TestPoolRoots:
    def test_coincident_roots_of_different_factors_merge(self):
        groups = [factor_roots(Polynomial([-0.5, 1.0])),
                  factor_roots(Polynomial([0.25, -1.0, 1.0]))]
        ((cluster, members),) = pool_roots(groups)
        assert cluster == RootCluster(0.5 + 0j, 3)
        assert [i for i, _rc in members] == [0, 1]

    def test_distinct_roots_stay_apart_and_sorted(self):
        groups = [[RootCluster(2.0 + 0j, 1)], [RootCluster(1 - 1j, 2), RootCluster(1 + 1j, 2)]]
        got = [rc for rc, _members in pool_roots(groups)]
        assert got == [RootCluster(1 - 1j, 2), RootCluster(1 + 1j, 2), RootCluster(2 + 0j, 1)]


class TestHash:
    def test_signed_zeros_hash_alike(self):
        a, b = Polynomial([0.0, 1.0]), Polynomial([-0.0, 1.0])
        assert a == b and hash(a) == hash(b)
        assert len({a: 1, b: 2}) == 1


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


def _scalar_recurrence(num, den, order):
    """The long-division recurrence c_j = (n_j - sum_i d_i c_{j-i}) / d_0 in
    Python complex arithmetic, summed from d_1 up: the loop the banded path
    runs, so its results must be equal bit for bit."""
    n = np.atleast_1d(np.asarray(num, dtype=complex))[: order + 1].tolist()
    d = np.atleast_1d(np.asarray(den, dtype=complex))[: order + 1].tolist()
    n += [0j] * (order + 1 - len(n))
    c = []
    for j in range(order + 1):
        acc = 0j
        for i in range(1, min(j, len(d) - 1) + 1):
            acc += d[i] * c[j - i]
        c.append((n[j] - acc) / d[0])
    return np.array(c, dtype=complex)


def _dense_denominators(rng, order):
    """Dense denominators whose quotients stay inside float64 to ``order``:
    the binomial series of (1-x)^alpha - lam at a non-integer alpha, real and
    complex, and random coefficients under a decaying envelope beside a
    dominant d_0 (sum |d_i|, i >= 1, below |d_0|, so 1/den is analytic past
    the unit disk)."""
    dens = []
    for alpha, lam in [(1.5, -0.5), (0.83, -0.45 - 0.55j), (0.5, 0.95j), (2.3, -0.6)]:
        den = _binomial_series(alpha, order).astype(complex)
        den[0] -= lam
        dens.append(den)
    envelope = 0.6 ** np.arange(order + 1)
    real = rng.uniform(-1.0, 1.0, order + 1) * envelope
    real[0] = 3.0
    dens.append(real)
    dens.append(real + 1j * rng.uniform(-1.0, 1.0, order + 1) * envelope)
    return dens


class TestBlockedSeriesDivide:
    """A denominator of more than _BLOCK coefficients is divided in blocks."""

    @pytest.mark.parametrize("order", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3, 701])
    def test_dense_matches_long_division(self, rng, order):
        for den in _dense_denominators(rng, order):
            for num in (rng.normal(size=5), _binomial_series(-0.7, order),
                        rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1)):
                got = series_divide(num, den, order)
                want = _long_division(num, den, order)
                assert got.shape == (order + 1,)
                np.testing.assert_allclose(got, want, rtol=1e-10,
                                           atol=1e-12 * np.max(np.abs(want)))

    def test_first_block_is_the_recurrence(self, rng):
        den = _dense_denominators(rng, 300)[1]
        num = rng.normal(size=3)
        got = series_divide(num, den, 300)
        np.testing.assert_array_equal(got[:_BLOCK], _scalar_recurrence(num, den, _BLOCK - 1))

    def test_coefficients_do_not_depend_on_the_order(self, rng):
        # orders below the block length divide the truncated, banded den
        den = _dense_denominators(rng, 1000)[1]
        num = _binomial_series(-0.44, 1000)
        longest = series_divide(num, den, 1000)
        for order in (3, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK - 1, 2 * _BLOCK, 300, 777):
            np.testing.assert_array_equal(series_divide(num, den, order), longest[: order + 1])

    @pytest.mark.parametrize("degree", [1, 4, 10, _BLOCK - 1])
    def test_banded_is_the_scalar_recurrence_bit_for_bit(self, rng, degree):
        for trial in range(4):
            radii = rng.uniform(0.97, 3.0, degree)
            roots = radii * np.exp(1j * rng.uniform(0, 2 * np.pi, degree))
            if trial % 2:  # conjugate pairs and a real root: real coefficients
                half = roots[: degree // 2]
                roots = np.concatenate([half, half.conj(), radii[: degree % 2]])
            den = Polynomial.from_roots(roots).coeffs * rng.uniform(0.5, 2.0)
            num = rng.normal(size=int(rng.integers(1, degree + 4)))
            for order in (0, 5, degree, 700):
                np.testing.assert_array_equal(series_divide(num, den, order),
                                              _scalar_recurrence(num, den, order))

    def test_overflow_is_named_where_the_recurrence_names_it(self):
        """Past the float64 range the blocks leave inf and nan, quietly, and
        no coefficient before the first one out of range turns nan."""
        # at (1.5, 0.25+0.25j) the real part of coefficient 1482 is 1.62e308,
        # just inside the range
        for alpha, lam, order in [(1.5, 0.9, 1999), (1.5, 0.8, 599), (0.6, 0.99, 1500),
                                  (1.5, 0.25 + 0.25j, 1499)]:
            den = _binomial_series(alpha, order).astype(complex)
            den[0] -= lam
            got = series_divide([1.0], den, order)
            want = _scalar_recurrence([1.0], den, order)
            first = int(np.argmax(~np.isfinite(got)))
            assert 0 < first == int(np.argmax(~np.isfinite(want)))
            np.testing.assert_allclose(got[:first], want[:first], rtol=1e-12)

    def test_a_later_infinite_numerator_leaves_earlier_coefficients_finite(self, rng):
        """Block k's right side holds n_j for every j of the block; an inf there
        must reach coefficient j and the ones after it only (0 * inf in an
        earlier row would be nan)."""
        den = _dense_denominators(rng, 400)[0]
        num = rng.normal(size=401)
        num[150] = np.inf
        got = series_divide(num, den, 400)
        assert np.all(np.isfinite(got[:150]))
        assert not np.isfinite(got[150])
        np.testing.assert_array_equal(got[:150], series_divide(num[:150], den, 149))

    def test_unit_numerator_runs_one_recurrence(self, rng, monkeypatch):
        """Over a numerator of 1 the first block is h: one 64-step recurrence
        gives both, and the result is the two-recurrence one bit for bit."""
        calls = []
        recurrence = polynomial._recurrence

        def counted(nc, dc, count):
            calls.append(count)
            return recurrence(nc, dc, count)

        monkeypatch.setattr(polynomial, "_recurrence", counted)
        for den in _dense_denominators(rng, 300):
            calls.clear()
            got = series_divide([1.0], den, 300)
            assert calls == [_BLOCK]
            # a numerator [1, 0] is not literally 1: it takes both recurrences
            np.testing.assert_array_equal(got, series_divide([1.0, 0.0], den, 300))
            assert len(calls) == 3


def _factors(rng):
    """Linear and quadratic q with roots at 0.9 to 3 from 0, real and complex:
    their quotients stay inside float64 over 1500 coefficients."""
    out = []
    for trial in range(16):
        radii = rng.uniform(0.9, 3.0, 2)
        z = radii[0] * np.exp(1j * rng.uniform(0, 2 * np.pi))
        roots = [[z], [z, z.conjugate()], [radii[0] * rng.choice([-1.0, 1.0])],
                 [z, radii[1] * np.exp(1j * rng.uniform(0, 2 * np.pi))]][trial % 4]
        q = Polynomial.from_roots(roots).coeffs * rng.uniform(0.5, 2.0)
        out.append(q if q.imag.any() else q.real)
    return out


class TestFactorDivide:
    """The series quotient by one linear or quadratic factor, in blocks past
    _LOOP_MAX coefficients."""

    @pytest.mark.parametrize("n", [1, 100, _LOOP_MAX, _LOOP_MAX + 1, 1500])
    def test_matches_long_division(self, rng, n):
        for i, q in enumerate(_factors(rng)):
            c = rng.normal(size=n)
            if i % 3 == 0:
                c = c + 1j * rng.normal(size=n)
            got = factor_divide(c, q)
            want = _long_division(c, q, n - 1)
            assert got.shape == (n,)
            assert got.dtype == (complex if np.iscomplexobj(c) or np.iscomplexobj(q) else float)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_blocks_match_the_recurrence(self, rng):
        for q in _factors(rng):
            c = rng.normal(size=3000)
            want = np.array(polynomial._filter(c.tolist(), *(q.tolist() + [0.0])[:3]))
            got = factor_divide(c, q)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [200, 10_000])
    @pytest.mark.parametrize("scale, first", [(1.0, 51), (1e-200, 84)])
    def test_root_near_zero_overflows_where_the_recurrence_does(self, n, scale, first):
        """1/(1e-6 - x) grows by 1e6 a step: a block of 64 would hold h up
        to 1e378, which overflows before a small series does, so its blocks
        are cut shorter, and the values leave float64 where they should."""
        q = np.array([1e-6, -1.0])
        c = np.zeros(n)
        c[0] = scale
        got = factor_divide(factor_divide(c, np.array([1.5, -1.0])), q)
        want = np.array(polynomial._filter(polynomial._filter(c.tolist(), 1.5, -1.0, 0.0),
                                           1e-6, -1.0, 0.0))
        assert first == int(np.argmax(~np.isfinite(got))) == int(np.argmax(~np.isfinite(want)))
        np.testing.assert_allclose(got[:first], want[:first], rtol=1e-13)

    def test_a_non_finite_coefficient_leaves_earlier_ones_finite(self, rng):
        """The block product multiplies the zeros of the Toeplitz matrix by
        later coefficients too; past an inf in c every value is nan, and no
        value before it."""
        q = np.array([1.2, -0.3, 0.5])
        c = rng.normal(size=2000)
        c[1000] = np.inf
        got = factor_divide(c, q)
        np.testing.assert_array_equal(got[:1000], factor_divide(c[:1000], q))
        assert np.all(np.isfinite(got[:1000])) and np.all(np.isnan(got[1000:]))
