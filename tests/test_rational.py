"""RationalFunction: evaluation, poles with cancellation, series at s=1, ROC."""

import itertools
import math
from pathlib import Path

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
    expand,
    initial_value,
    invert_inside,
    parse_expression,
    sample_points,
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
            gap = rf.radius
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


# a real F written with a conjugate pair of terms
CONJUGATE_TERMS = ("-2.68/(s+1.55) + (2.82-0.97j)/(s-(-0.65-1.45j))"
                   " + (2.82+0.97j)/(s-(-0.65+1.45j))")


class TestSeriesChain:
    """F(1-w) divided by one shifted denominator factor at a time."""

    @pytest.mark.parametrize("text", CLOSE_POLES)
    def test_close_poles_match_a_60_digit_division(self, text):
        rf = _rational(text)
        want = mpmath_factored_values(rf.constant, [(q.coeffs, e) for q, e in rf.factors],
                                      600, digits=60)
        got = rf.series_at_one(599)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_conjugate_pair_divides_once_in_float64(self):
        """s - p and s - p-bar, as the rational-long benchmark writes them, are
        one real quadratic in w, and the series is float64, to within 1e-13
        of the largest value of a 60-digit division of the same factors."""
        rf = _rational(CONJUGATE_TERMS)
        assert rf.is_real
        den_w = rf._at_one[1]
        assert sorted(q.degree for q, _e in den_w) == [1, 2]
        assert not any(q.coeffs.imag.any() for q, _e in den_w)
        want = mpmath_factored_values(rf.constant, [(q.coeffs, e) for q, e in rf.factors],
                                      2000, digits=60)
        got = rf.series_at_one(1999)
        assert got.dtype == np.float64
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_dense_factor_keeps_the_dense_division(self):
        """A factor of degree 3 (typed out expanded) is divided by
        series_divide, in the same chain as the linear factors."""
        rf = _rational("(s+0.2)/((s^3+1.5*s^2+1.2*s+0.4)*(s-2.5)^2)")
        want = mpmath_factored_values(rf.constant, [(q.coeffs, e) for q, e in rf.factors],
                                      1000)
        got = rf.series_at_one(999)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestPoleAtOne:
    """``inferred_roc`` is the one test of a pole at s = 1 (within
    POLE_AT_ONE_TOL = 1e-9), and every reader of a rational F refuses it
    there: the radius, the series, the expansion, the inside route and the
    initial value."""

    READERS = {
        "radius": lambda rf: rf.radius,
        "series_at_one": lambda rf: rf.series_at_one(3),
        "expand": expand,
        "invert_inside": lambda rf: invert_inside(rf, 3),
        "initial_value": initial_value,
    }

    @pytest.mark.parametrize("read", list(READERS.values()), ids=list(READERS))
    @pytest.mark.parametrize("side", [1, -1])
    def test_a_pole_within_the_tolerance_is_refused_and_one_past_it_is_not(self, read, side):
        near = RationalFunction(Polynomial([1.0]), Polynomial([-(1 + side * 5e-10), 1.0]))
        with pytest.raises(PoleAtOneError):
            read(near)
        read(RationalFunction(Polynomial([1.0]), Polynomial([-(1 + side * 2e-9), 1.0])))


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


def _old_is_real(rf):
    """The definition ``is_real`` had as a plain property: one np.any per factor."""
    return rf.constant.imag == 0 and not any(np.any(q.coeffs.imag) for q, _e in rf.factors)


class TestIsReal:
    @pytest.mark.parametrize("constant, factors, real", [
        (2.0, {Polynomial([0.5, 1.0]): -1, Polynomial([1.0, 0.0, 1.0]): 2}, True),
        (2j, {Polynomial([0.5, 1.0]): -1}, False),
        (2.0, {Polynomial([0.5, 1.0]): -1, Polynomial([0.5j, 1.0]): -1}, False),
        # -0.0 is no imaginary part, in the constant or in a factor
        (complex(2.0, -0.0), {Polynomial([complex(0.5, -0.0), complex(1.0, -0.0)]): -1}, True),
    ], ids=["real", "complex-constant", "complex-factor", "negative-zero-imag"])
    def test_agrees_with_the_old_definition(self, constant, factors, real):
        rf = RationalFunction.from_factors(constant, factors)
        assert rf.is_real is real
        assert rf.is_real == _old_is_real(rf)

    def test_conjugate_factors_are_real(self):
        """s - p pairs with s - p-bar at the same exponent, on either side;
        an unequal exponent, a complex constant or a partner off by one bit
        leaves F complex."""
        p = -0.65 + 1.45j

        def real(constant, *factors):
            return RationalFunction.from_factors(
                constant, {Polynomial([-z, 1.0]): e for z, e in factors}).is_real

        assert real(2.0, (p, -1), (p.conjugate(), -1), (0.3, 1))
        assert real(2.0, (p, 2), (p.conjugate(), 2), (3.0, -5))
        assert not real(2.0, (p, -1), (p.conjugate(), -2))
        assert not real(2j, (p, -1), (p.conjugate(), -1))
        assert not real(2.0, (p, -1), (complex(p.real, np.nextafter(-p.imag, 0)), -1))

    def test_a_pair_that_pooling_cancels_on_one_side_stays_complex(self):
        """Poles 2e-7 apart are pooled into one double pole, and one unit of
        it cancels against a numerator root: the reduced F keeps s - p
        without s - p-bar, so it is divided in complex128 though every
        factor as written has its conjugate."""
        rf = _rational("(1+2e-7j)/(s-(0.5+1e-7j)) + (1-2e-7j)/(s-(0.5-1e-7j)) + 1/(s+2)")
        keys = [(tuple(q.coeffs.tolist()), e) for q, e in rf.factors]
        assert sorted(keys, key=str) == sorted(
            ((tuple(x.conjugate() for x in q), e) for q, e in keys), key=str)
        assert rf.is_real is False
        assert rf.series_at_one(3).dtype == complex

    def test_a_real_factor_that_loses_a_conjugate_pair_stays_real(self):
        """s^4 + s^3 + 2s^2 + s + 1 = (s^2 + 1)(s^2 + s + 1) loses the roots
        +-i to the numerator: deflation leaves imaginary rounding in the
        quadratic that remains, which has no exact partner, yet every factor
        as written is real, so F reads real and divides in float64."""
        rf = _rational("(s^2+1)/(s^4+s^3+2*s^2+s+1)")
        (q, _e), = rf._reduced.denominator
        assert np.any(q.coeffs.imag)
        assert rf.is_real is True
        assert rf.series_at_one(3).dtype == np.float64

    def test_the_benchmark_conjugate_terms_read_real(self, monkeypatch):
        """The F of the first 100 seed-1 rational-long requests that write a
        real F with conjugate terms, 39 of them: each reads real, and its
        series is float64."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        from workloads import requests

        texts = [arg.removeprefix("--expr=")
                 for req in itertools.islice(requests("rational-long", 1), 100)
                 for arg in req["argv"] if arg.startswith("--expr=") and "j" in arg]
        assert len(texts) == 39
        for text in texts:
            rf = _rational(text)
            assert rf.is_real is True, text
            assert rf.series_at_one(5).dtype == np.float64

    def test_reads_the_coefficients_once(self):
        reads = []

        class Counted(Polynomial):
            """A Polynomial that records each read of its coefficients."""

            __slots__ = ()

            @property
            def coeffs(self):
                reads.append(self)
                return Polynomial.coeffs.__get__(self)

            @coeffs.setter
            def coeffs(self, value):
                Polynomial.coeffs.__set__(self, value)

        rf = RationalFunction.from_factors(
            2.0, {Counted([0.5, 1.0]): -1, Counted([1.0, 0.0, 1.0]): 2})
        reads.clear()
        assert rf.is_real and rf.is_real
        assert len(reads) == 2  # one read per factor, on the first access only


# F written by hand for the scalar path: complex coefficients, F = 0, a
# constant F, exponents 2 to 4, a cancelled factor and the close-pole case
SCALAR_CASES = [
    "(0.3+0.2j)*(s-(0.5-1j))/((s+(0.4+0.3j))^2*(s-2.5))",
    "0*s/(s-3)",
    "2.5",
    "(s-2)/(s-2)",
    "(s+0.2)^3/((s-2.5)^4*(s^2+0.4*s+1.3)^2)",
    "(s-2.32)*4.59/((s-2.32)*(s^2-2.18*s+1.2365))",
    CLOSE_POLES[1],
]


def _scalar_against_array(rf):
    """max |scalar - array| / |array| of rf at sample_points(R, 8) and s = 1,
    the scalar path called with each point as a Python complex."""
    points = np.append(sample_points(rf.radius, count=8), 1.0)
    array = rf.evaluate(points)
    scalar = np.array([rf.evaluate(complex(s)) for s in points])
    zero = array == 0
    assert np.all(scalar[zero] == 0)
    return float(np.max(np.abs(scalar - array)[~zero] / np.abs(array[~zero]), initial=0.0))


class TestScalarEvaluation:
    """``evaluate`` at a Python or numpy scalar, in Python complex arithmetic."""

    def test_matches_the_array_path_on_the_stress_sweep(self, rng):
        from test_stress import CASES, _draw
        worst = max(_scalar_against_array(_rational(_draw(rng))) for _ in range(CASES))
        assert worst <= 1e-14

    @pytest.mark.parametrize("text", SCALAR_CASES)
    def test_matches_the_array_path_on_hand_cases(self, text):
        assert _scalar_against_array(_rational(text)) <= 1e-14

    @pytest.mark.parametrize("kind", [float, complex, np.float64, np.complex128])
    def test_pole_raises(self, kind):
        with pytest.raises(PoleEvaluationError) as err:
            example1().evaluate(kind(2.0))
        assert err.value.pole == pytest.approx(2.0)
        with pytest.raises(PoleEvaluationError):
            example1().evaluate(kind(-1.0 + 1e-13))

    def test_zero_denominator_raises_on_both_paths(self):
        # 1e-11 from the pole is outside the near-pole test, but its 30th
        # power underflows to an exactly zero denominator
        rf = RationalFunction.from_factors(1.0, {Polynomial([-0.5, 1.0]): -30})
        s = 0.5 + 1e-11
        for arg in (s, np.array([s])):
            with pytest.raises(PoleEvaluationError) as err:
                rf.evaluate(arg)
            assert err.value.pole == s

    @pytest.mark.parametrize("s", [3, 0.3, 0.3 + 0.1j, np.float64(0.3), np.complex128(0.3 + 0.1j)])
    def test_scalar_gives_a_python_complex(self, s):
        rf = _rational("(s+0.2)/((s-2.5)*(s^2+0.4*s+1.3))")
        got = rf.evaluate(s)
        assert type(got) is complex
        assert got == pytest.approx(complex(rf.evaluate(np.array([complex(s)]))[0]), rel=1e-15)

    def test_arrays_keep_the_array_path(self):
        rf = _rational("(s+0.2)/((s-2.5)*(s^2+0.4*s+1.3))")
        assert isinstance(rf.evaluate(np.array([0.3])), np.ndarray)
        # a 0-d array is evaluated in numpy and read out as a Python complex
        assert type(rf.evaluate(np.array(0.3))) is complex

    def test_scalar_call_evaluates_no_polynomial(self, monkeypatch):
        rf = _rational("(s+0.2)/((s-2.5)*(s^2+0.4*s+1.3))")
        want = rf.evaluate(0.3)

        def refuse(self, s):
            raise AssertionError("numpy Horner on a scalar")

        monkeypatch.setattr(Polynomial, "__call__", refuse)
        assert rf.evaluate(0.3) == want

    @pytest.mark.parametrize("text", ["(s+0.2)/((s-2.5)*(s^2+0.4*s+1.3))", "0*s/(s-3)",
                                      "(s-0.3)^2", "2.5"])
    @pytest.mark.parametrize("shape", [(2, 3), (0,), (0, 3)])
    def test_arrays_keep_their_shape(self, text, shape):
        # a constant F too: its numerator's product starts as an array of that shape
        rf = _rational(text)
        z = np.linspace(0.1, 0.9, math.prod(shape)).reshape(shape) + 0.2j
        got = rf.evaluate(z)
        assert type(got) is np.ndarray and got.shape == shape and got.dtype == complex
        np.testing.assert_array_equal(got.ravel(), rf.evaluate(z.ravel()))
        for s in (0.3, np.array(0.3)):
            assert type(rf.evaluate(s)) is complex

    @pytest.mark.parametrize("points", [np.array([0.3, 0.5j]), np.array([[0.3], [0.5j]]),
                                        np.array(0.3)])
    def test_arrays_evaluate_no_polynomial(self, monkeypatch, points):
        rf = _rational("(s+0.2)/((s-2.5)*(s^2+0.4*s+1.3))")
        want = rf.evaluate(points)

        def refuse(self, s):
            raise AssertionError("Polynomial.__call__ on an array")

        monkeypatch.setattr(Polynomial, "__call__", refuse)
        np.testing.assert_array_equal(rf.evaluate(points), want)

    def test_powers_are_repeated_multiplications(self, rng):
        # numpy's q**4 squares twice, which rounds otherwise than ((q q) q) q
        # at some points; Horner's rule gives q = (0 z + 1) z + 0.5 = z + 0.5
        rf = _rational("1/((s+0.5)^4*(s-0.2)^3)")
        z = 1.0 - 0.5 * np.exp(2j * np.pi * rng.random(4000))
        q, p = z + 0.5, z - 0.2
        want = 1 / ((((q * q) * q) * q) * ((p * p) * p))
        np.testing.assert_array_equal(rf.evaluate(z), want)

    @pytest.mark.parametrize("text, s", [
        ("(s+0.5)^2", 1e200),
        ("1/(s+0.5)^2", 1e200),
        ("(s-0.3)^3/(s+2)", 1e200j),
        ("1/((s+0.5)^2*(s-0.3))", -1e200),
    ])
    def test_overflow_reads_as_the_array_path_does(self, text, s):
        # Python's complex ** raises OverflowError where numpy's power gives inf
        rf = _rational(text)
        got = rf.evaluate(s)
        with np.errstate(all="ignore"):
            want = rf.evaluate(np.array([s]))
        assert not np.isfinite(got)
        np.testing.assert_array_equal(np.array([got]), want)

    @pytest.mark.parametrize("text, s", [
        ("(s+0.5)^2", 1e200),
        ("1/(s+0.5)^2", 1e200),
        ("(s-0.3)^3/(s+2)", 1e200j),
        ("1/((s+0.5)^2*(s-0.3))", -1e200),
        ("(s+0.2)/((s-2.5)*(s^2+0.4*s+1.3))", 0.3),
    ])
    def test_zero_dimensional_array_reads_as_a_one_point_array(self, text, s):
        # numpy Horner gives a Python complex at a 0-d array, and its ** would
        # raise OverflowError where a one-point array reads nan
        rf = _rational(text)
        with np.errstate(all="ignore"):
            got = rf.evaluate(np.array(s))
            want = rf.evaluate(np.array([s]))
        assert type(got) is complex
        np.testing.assert_array_equal(np.array([got]), want)
