"""RationalFunction: evaluation, poles with cancellation, series at s=1, ROC."""

import math

import numpy as np
import pytest

from nablainv import (
    PoleAtOneError,
    RootCluster,
    PoleEvaluationError,
    Polynomial,
    RationalFunction,
    TransformPair,
    classify,
    describe_roc,
    parse_expression,
)
from conftest import example1, mpmath_factored_values, rational_from_factors


class TestEvaluate:
    def test_example_value_at_one(self):
        # 9/((1+1)^2 (1-2)) = -9/4
        assert example1().evaluate(1.0) == pytest.approx(-2.25)

    def test_reciprocal(self):
        rf = RationalFunction(Polynomial([1.0]), Polynomial([0.0, 1.0]))
        assert rf.evaluate(0.5) == pytest.approx(2.0)

    def test_pole_evaluation_error_carries_pole(self):
        with pytest.raises(PoleEvaluationError) as err:
            example1().evaluate(-1.0)
        assert err.value.pole == pytest.approx(-1.0)

    def test_near_pole_rejected(self):
        with pytest.raises(PoleEvaluationError):
            example1().evaluate(2.0 + 1e-14)


class TestNormalization:
    def test_denominator_made_monic(self):
        rf = RationalFunction(Polynomial([4.0]), Polynomial([2.0, 2.0]))
        assert rf.denominator.coeffs[-1] == 1.0
        assert rf.numerator.coeffs[0] == 2.0

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(Polynomial([1.0]), Polynomial([0.0]))


class TestPoles:
    def test_example_pole_structure(self):
        got = sorted((round(p.value.real, 9), p.multiplicity) for p in example1().poles)
        assert got == [(-1.0, 2), (2.0, 1)]

    def test_single_pole(self):
        rf = RationalFunction(Polynomial([1.0]), Polynomial([-0.3, 1.0]))
        (p,) = rf.poles
        assert p.value == pytest.approx(0.3)
        assert p.multiplicity == 1

    def test_cancellation(self):
        # (s-2)/((s-2)(s+1)) keeps only the pole at -1
        rf = rational_from_factors([-2.0, 1.0], [(2.0, 1), (-1.0, 1)])
        (p,) = rf.poles
        assert p.value == pytest.approx(-1.0)
        assert p.multiplicity == 1

    def test_partial_cancellation_reduces_multiplicity(self):
        # (s-2)/((s-2)^2 (s+1)) -> simple pole at 2, simple pole at -1
        rf = rational_from_factors([-2.0, 1.0], [(2.0, 2), (-1.0, 1)])
        got = sorted((round(p.value.real, 9), p.multiplicity) for p in rf.poles)
        assert got == [(-1.0, 1), (2.0, 1)]


class TestSeriesAtOne:
    def test_example_leading_coefficients(self):
        # frozen from an independent long-division oracle for
        # -9/((2-w)^2 (1+w)); these equal the closed form at steps 1..3
        got = example1().series_at_one(2)
        np.testing.assert_allclose(got.real, [-2.25, 0.0, -1.6875], atol=1e-12)

    def test_geometric(self):
        rf = RationalFunction(Polynomial([1.0]), Polynomial([0.0, 1.0]))
        np.testing.assert_allclose(rf.series_at_one(3).real, np.ones(4))

    def test_constant_is_impulse_weight(self):
        rf = RationalFunction(Polynomial([1.0]), Polynomial([1.0]))
        np.testing.assert_allclose(rf.series_at_one(2).real, [1.0, 0.0, 0.0])

    def test_pole_at_one_rejected(self):
        rf = RationalFunction(Polynomial([1.0]), Polynomial([-1.0, 1.0]))
        with pytest.raises(PoleAtOneError):
            rf.series_at_one(3)
        with pytest.raises(PoleAtOneError):
            rf.inferred_roc()

    def test_series_reproduces_evaluation(self, rng):
        """Partial sums of F(1-w) match direct evaluation inside half the pole gap."""
        for _ in range(40):
            roots = []
            for _r in range(int(rng.integers(1, 5))):
                z = complex(rng.uniform(-1.5, 2.5), rng.uniform(-1.5, 1.5))
                if abs(z - 1.0) < 0.3:
                    z += 0.6
                roots.append(z)
            num = rng.uniform(-3, 3, int(rng.integers(1, len(roots) + 1)))
            rf = RationalFunction(Polynomial(num), Polynomial.from_roots(roots))
            gap = rf.distance_of_poles_to_one()
            order = 60
            c = rf.series_at_one(order)
            for _p in range(5):
                w = rng.uniform(0.1, 0.5) * gap * np.exp(2j * np.pi * rng.random())
                series = sum(c[j] * w**j for j in range(order + 1))
                direct = rf.evaluate(1.0 - w)
                assert abs(series - direct) <= 1e-8 * (1.0 + abs(direct))


# Close real poles: the expanded denominator's recurrence put the series
# 5.2e-8, 2.3e-7 and 1.8e-9 of max |f| off at K = 600.
CLOSE_POLES = [
    "0.9*(s+0.44)/((s-0.045)*(s-0.055)*(s+0.31)^3*(s^2+0.578*s+0.479162)^2)",
    "0.9*(s+0.44)/((s-0.045)*(s-0.04501)*(s+0.31)^3*(s^2+0.578*s+0.479162)^2)",
    "0.9*(s+0.44)/((s+0.045)*(s+0.055)*(s+0.31)^3*(s^2+0.578*s+0.479162)^2)",
]


class TestSeriesChain:
    """F(1-w) divided by one shifted denominator factor at a time."""

    @pytest.mark.parametrize("text", CLOSE_POLES)
    def test_close_poles_match_a_60_digit_division(self, text):
        rf = _rational(text)
        want = mpmath_factored_values(rf.constant, [(q.coeffs, e) for q, e in rf.factors],
                                      600, digits=60)
        got = rf.series_at_one(599)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_dense_factor_keeps_the_dense_division(self):
        """A factor of degree 3 (typed out expanded) is divided by
        series_divide, in the same chain as the linear factors."""
        rf = _rational("(s+0.2)/((s^3+1.5*s^2+1.2*s+0.4)*(s-2.5)^2)")
        want = mpmath_factored_values(rf.constant, [(q.coeffs, e) for q, e in rf.factors],
                                      1000)
        got = rf.series_at_one(999)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestRoc:
    def test_validation(self):
        # a pair's region of convergence must be a nonempty disk
        for radius in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                TransformPair(2, "unit step", (), None, None, radius, "u(k-a-1)", "1/s")

    def test_describe(self):
        assert describe_roc(2.0) == "|1-s| < 2"
        assert describe_roc(0.7071067811865476) == "|1-s| < 0.707107"
        assert describe_roc(math.inf) == "all s in C"

    def test_inferred_roc(self):
        assert example1().inferred_roc() == pytest.approx(1.0)
        assert example1().radius == example1().inferred_roc()
        const = RationalFunction(Polynomial([3.0]), Polynomial([1.0]))
        assert const.radius == math.inf

    def test_pole_order(self):
        assert example1().pole_order == 2  # double pole at -1
        assert RationalFunction(Polynomial([3.0]), Polynomial([1.0])).pole_order == 1
        # (s-0.5)^2 / (s-0.5)^3 keeps one simple pole
        rf = RationalFunction(Polynomial.from_roots([0.5, 0.5]),
                              Polynomial.from_roots([0.5, 0.5, 0.5]))
        assert rf.pole_order == 1
        assert rf.radius == pytest.approx(0.5)


def _rational(text):
    return classify(parse_expression(text)).rational


class TestFactoredForm:
    def test_repeated_factor_has_an_exact_multiplicity(self):
        # one 12-fold pole, not a ring of 12 eigenvalues eps^(1/12) ~ 5% wide
        assert _rational("1/(s-0.5)^12").poles == [RootCluster(0.5 + 0j, 12)]

    def test_coincident_roots_of_two_factors_pool(self):
        rf = _rational("1/((s-0.5)*(s^2-s+0.25))")
        assert rf.poles == [RootCluster(0.5 + 0j, 3)]
        assert rf.pole_order == 3

    def test_identical_factors_cancel_to_a_constant(self):
        rf = _rational("(s-2)/(s-2)")
        assert rf.constant == 1 and rf.factors == ()
        assert rf.poles == [] and describe_roc(rf.radius) == "all s in C"
        np.testing.assert_array_equal(rf.series_at_one(2), [1, 0, 0])

    def test_factors_are_kept_as_written(self):
        rf = _rational("2*(s-1.5)^2/((s+3)*(s^2+1))")
        assert rf.constant == 2
        assert dict(rf.factors) == {Polynomial([-1.5, 1.0]): 2, Polynomial([3.0, 1.0]): -1,
                                    Polynomial([1.0, 0.0, 1.0]): -1}
        np.testing.assert_allclose(rf.numerator.coeffs, [4.5, -6.0, 2.0])
        np.testing.assert_allclose(rf.denominator.coeffs, [3.0, 1.0, 3.0, 1.0])

    def test_pair_constructor_is_the_one_factor_case(self):
        rf = RationalFunction(Polynomial([4.0, 2.0]), Polynomial([2.0, 2.0, 2.0]))
        assert rf.constant == 1
        assert dict(rf.factors) == {Polynomial([2.0, 1.0]): 1, Polynomial([1.0, 1.0, 1.0]): -1}
        same = RationalFunction.from_factors(1.0, dict(rf.factors))
        assert same.poles == rf.poles

    def test_from_factors_validates(self):
        with pytest.raises(ValueError):
            RationalFunction.from_factors(1.0, {Polynomial([1.0, 2.0]): -1})  # not monic
        with pytest.raises(ValueError):
            RationalFunction.from_factors(1.0, {Polynomial([1.0, 1.0]): 0.5})

    def test_near_cancellation_deflates_only_its_factor(self):
        # (s - 3 - 1e-11) cancels one copy of the root 3 of (s^2 - 5 s + 6)^2;
        # the other factor keeps its coefficients
        rf = RationalFunction.from_factors(1.0, {
            Polynomial([-3.0 - 1e-11, 1.0]): 1,
            Polynomial([6.0, -5.0, 1.0]): -2,
            Polynomial([1.0, 0.0, 1.0]): -1,
        })
        assert [(round(p.value.real, 9), round(p.value.imag, 9), p.multiplicity)
                for p in rf.poles] == [(0.0, -1.0, 1), (0.0, 1.0, 1), (2.0, 0.0, 2),
                                       (3.0, 0.0, 1)]
        red = rf._reduced
        assert red.numerator == () and red.zeros == []
        assert (Polynomial([6.0, -5.0, 1.0]), 1) in red.denominator
        assert (Polynomial([1.0, 0.0, 1.0]), 1) in red.denominator
        want = RationalFunction(Polynomial([1.0]),
                                Polynomial.from_roots([2.0, 2.0, 3.0, 1j, -1j]))
        np.testing.assert_allclose(rf.series_at_one(30), want.series_at_one(30), rtol=1e-9)

    def test_evaluates_factor_by_factor_on_arrays(self):
        rf = _rational("1/((s-2)*(s-2.001))")
        s = np.array([0.5, 1.0 + 0.5j, 2.0005])
        np.testing.assert_allclose(rf.evaluate(s), 1.0 / ((s - 2) * (s - 2.001)), rtol=1e-15)
        assert rf.evaluate(0.5) == pytest.approx(1.0 / (1.5 * 1.501), rel=1e-15)
