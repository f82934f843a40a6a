"""RationalFunction: evaluation, poles with cancellation, series at s=1, ROC."""

import math

import numpy as np
import pytest

from nablainv import (
    PoleAtOneError,
    PoleEvaluationError,
    Polynomial,
    RationalFunction,
    TransformPair,
    describe_roc,
)
from conftest import example1, rational_from_factors


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
