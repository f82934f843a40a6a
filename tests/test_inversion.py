"""The three inversion strategies and the closed-form sequence algebra."""

import numpy as np
import pytest

from nablainv import (
    ClosedFormSequence,
    FractionalAtom,
    FractionalSumForm,
    GeometricTerm,
    ImpulseTerm,
    MittagLefflerParams,
    MittagLefflerTerm,
    ParameterDomainError,
    PoleAtOneError,
    PolyGeometricTerm,
    Polynomial,
    RationalFunction,
    RealnessError,
    classify,
    invert_fractional,
    invert_inside,
    invert_outside,
    invert_partial_fractions,
    numeric_inverse,
    parse_expression,
)
from conftest import (
    example1,
    example1_closed_form,
    random_real_rational_from_factors,
    rational_from_factors,
)


class TestInvertInside:
    def test_example_first_values(self):
        got = invert_inside(example1(), 3)
        np.testing.assert_allclose(got.real, [-2.25, 0.0, -1.6875], atol=1e-12)

    def test_constant_is_impulse(self):
        rf = RationalFunction(Polynomial([1.0]), Polynomial([1.0]))
        got = invert_inside(rf, 6)
        np.testing.assert_allclose(got.real, [1, 0, 0, 0, 0, 0], atol=1e-15)

    def test_unit_step(self):
        rf = RationalFunction(Polynomial([1.0]), Polynomial([0.0, 1.0]))
        np.testing.assert_allclose(invert_inside(rf, 4).real, np.ones(4))

    def test_pole_at_one(self):
        rf = RationalFunction(Polynomial([1.0]), Polynomial([-1.0, 1.0]))
        with pytest.raises(PoleAtOneError):
            invert_inside(rf, 3)


class TestInvertOutside:
    def test_example_terms_and_closed_form(self):
        cf = invert_outside(example1())
        kinds = sorted(type(t).__name__ for t in cf.terms)
        assert kinds == ["GeometricTerm", "PolyGeometricTerm", "PolyGeometricTerm"]
        for m in range(1, 31):
            assert cf.evaluate(m) == pytest.approx(example1_closed_form(m), abs=1e-9)

    def test_single_simple_pole_geometric(self):
        rf = RationalFunction(Polynomial([1.0]), Polynomial([-0.3, 1.0]))
        cf = invert_outside(rf)
        (term,) = cf.terms
        assert isinstance(term, GeometricTerm)
        assert term.pole == pytest.approx(0.3)
        for m in (1, 2, 5, 9):
            assert cf.evaluate(m) == pytest.approx(0.7 ** (-m), rel=1e-12)

    def test_double_pole_rising_factor(self):
        # 1/(s-2)^2 -> rising(k-a,1)/(1! * (-1)^(k-a+1))
        rf = rational_from_factors([1.0], [(2.0, 2)])
        cf = invert_outside(rf)
        orders = sorted(t.order for t in cf.terms if isinstance(t, PolyGeometricTerm))
        assert orders == [1, 2]
        for m in (1, 2, 3, 6):
            expected = m / ((-1.0) ** (m + 1))
            assert cf.evaluate(m) == pytest.approx(expected, rel=1e-10)


class TestInvertPartialFractions:
    def test_example_matches_outside(self):
        a = invert_outside(example1())
        b = invert_partial_fractions(example1())
        for m in range(1, 25):
            assert a.evaluate(m) == pytest.approx(b.evaluate(m), abs=1e-12)

    def test_double_pole_at_zero_is_ramp(self):
        rf = RationalFunction(Polynomial([1.0]), Polynomial([0.0, 0.0, 1.0]))
        cf = invert_partial_fractions(rf)
        for m in range(1, 12):
            assert cf.evaluate(m) == pytest.approx(float(m), rel=1e-12)

    def test_linearity_on_two_geometric_atoms(self):
        rf = rational_from_factors([0.0, 3.0], [(2.0, 1), (-1.0, 1)])  # 3s/((s-2)(s+1))
        cf = invert_partial_fractions(rf)
        for m in range(1, 15):
            expected = 2.0 * (-1.0) ** m + 1.0 * 2.0 ** (-m)
            assert cf.evaluate(m) == pytest.approx(expected, rel=1e-10)

    def test_sum_of_two_row_atoms(self):
        # (1/(s-2)) - (1/(s+1)) recombines to two geometric terms
        from nablainv import classify, parse_expression

        rf = classify(parse_expression("(1/(s-2))-(1/(s+1))")).rational
        cf = invert_partial_fractions(rf)
        poles = sorted(t.pole.real for t in cf.terms if isinstance(t, GeometricTerm))
        assert poles == pytest.approx([-1.0, 2.0])
        coeffs = {round(t.pole.real): t.coefficient for t in cf.terms}
        assert coeffs[2] == pytest.approx(1.0)
        assert coeffs[-1] == pytest.approx(-1.0)


class TestInvertFractional:
    def test_two_atom_form(self):
        form = FractionalSumForm((
            FractionalAtom(1.0, 0.5, 0.5, 0.2),
            FractionalAtom(-1.0, 0.7, 0.5, 0.3),
        ))
        cf = invert_fractional(form)
        assert all(isinstance(t, MittagLefflerTerm) for t in cf.terms)
        assert [t.coefficient for t in cf.terms] == [(1 + 0j), (-1 + 0j)]
        assert cf.evaluate(1) == pytest.approx(1 / 0.8 - 1 / 0.7, abs=1e-12)

    def test_order_one_atom_is_geometric(self):
        form = FractionalSumForm((FractionalAtom(1.0, 1.0, 1.0, 0.2),))
        cf = invert_fractional(form)
        for m in range(1, 12):
            assert cf.evaluate(m) == pytest.approx(0.8 ** (-m), rel=1e-12)

    def test_empty_form_is_zero(self):
        cf = invert_fractional(FractionalSumForm(()))
        assert cf.evaluate(5) == 0.0
        assert cf.describe() == "0"

    def test_domain_errors(self):
        with pytest.raises(ParameterDomainError):
            FractionalAtom(1.0, 0.5, 0.5, 1.2)
        with pytest.raises(ValueError):
            FractionalAtom(1.0, -0.5, 0.5, 0.2)
        with pytest.raises(ValueError):
            FractionalAtom(1.0, 0.5, -0.1, 0.2)

    def test_form_roc(self):
        form = FractionalSumForm((
            FractionalAtom(1.0, 0.5, 0.5, 0.2),
            FractionalAtom(-1.0, 0.7, 0.5, 0.3),
        ))
        roc = form.roc()
        assert not roc.contains(0.1)  # 0.1 < 0.3^(10/7)
        assert roc.contains(0.5)


class TestEvaluateClosedForm:
    def test_example_vanishes_at_step_two(self):
        # 1 - 1/4 - 3*2/8 = 0
        cf = invert_partial_fractions(example1())
        assert cf.evaluate(2) == pytest.approx(0.0, abs=1e-12)

    def test_fractional_pair_first_value(self):
        form = FractionalSumForm((
            FractionalAtom(1.0, 0.5, 0.5, 0.2),
            FractionalAtom(-1.0, 0.7, 0.5, 0.3),
        ))
        cf = invert_fractional(form)
        assert cf.evaluate(1) == pytest.approx(-0.17857142857, abs=1e-10)

    def test_outside_index_set_rejected(self):
        cf = invert_partial_fractions(example1())
        with pytest.raises(ValueError):
            cf.evaluate(0)
        with pytest.raises(ValueError):
            cf.evaluate(1.5)

    def test_realness_violation_detected(self):
        bad = ClosedFormSequence(0.0, (GeometricTerm(1.0, 0.5j),))
        with pytest.raises(RealnessError):
            bad.evaluate(3)
        assert bad.evaluate_complex(3) != 0

    def test_terms_reject_pole_at_one(self):
        with pytest.raises(PoleAtOneError):
            GeometricTerm(1.0, 1.0)
        with pytest.raises(PoleAtOneError):
            PolyGeometricTerm(1.0, 1.0 + 1e-12, 2)


class TestBasePoint:
    def test_values_depend_only_on_step(self):
        cf0 = invert_partial_fractions(example1(), a=0.0)
        cf5 = invert_partial_fractions(example1(), a=2.5)
        for m in range(1, 10):
            assert cf5.evaluate(2.5 + m) == pytest.approx(cf0.evaluate(m), rel=1e-12)

    def test_impulse_shifts(self):
        cf = ClosedFormSequence(1.0, (ImpulseTerm(3.0, 2),))
        assert cf.evaluate(4) == pytest.approx(3.0)  # k - a - 1 - 2 = 0 at k = 4
        assert cf.evaluate(3) == 0.0


class TestStrategyEquivalence:
    def test_three_routes_and_quadrature_agree(self, rng):
        """Factor-built rationals with repeated poles: all routes coincide."""
        for _ in range(40):
            rf, _roots = random_real_rational_from_factors(rng)
            k_max = 20
            inside = invert_inside(rf, k_max).real
            outside = invert_outside(rf)
            table = invert_partial_fractions(rf)
            out_vals = np.array([outside.evaluate(m) for m in range(1, k_max + 1)])
            tab_vals = np.array([table.evaluate(m) for m in range(1, k_max + 1)])
            scale = max(1.0, float(np.max(np.abs(inside))))
            assert np.max(np.abs(inside - out_vals)) <= 1e-9 * scale
            assert np.max(np.abs(inside - tab_vals)) <= 1e-9 * scale
            # default contour radius: close to the nearest pole, which keeps
            # the kernel amplification rho^-(k-a-1) small
            for m in (1, 3, 7, 15, 20):
                q = numeric_inverse(rf, m)
                assert abs(q.real - inside[m - 1]) <= 1e-8 * scale

    def test_initial_value_matches(self, rng):
        for _ in range(25):
            rf, _roots = random_real_rational_from_factors(rng)
            cf = invert_partial_fractions(rf)
            assert cf.evaluate(1) == pytest.approx(
                rf.evaluate(1.0).real, abs=1e-9 * (1 + abs(rf.evaluate(1.0)))
            )

    def test_realness_of_real_inputs(self, rng):
        """Conjugate terms cancel: evaluate() accepts every step."""
        for _ in range(25):
            rf, _roots = random_real_rational_from_factors(rng)
            cf = invert_outside(rf)
            values = cf.sample(range(1, 21))
            assert np.all(np.isfinite(values))

    def test_realness_with_large_conjugate_residues(self):
        # residues at a close conjugate pair reach ~1e4 while the sequence
        # stays O(1); cancellation is judged against the summand scale
        rf = rational_from_factors(
            [1.0, 0.5], [(2.1204, 1), (2.1407 + 0.4434j, 1), (2.1407 - 0.4434j, 1)]
        )
        cf = invert_outside(rf)
        inside = invert_inside(rf, 20).real
        for m in range(1, 21):
            assert cf.evaluate(m) == pytest.approx(inside[m - 1], abs=1e-9 * (1 + abs(inside[m - 1])))

    def test_pointwise_linearity(self, rng):
        f = rational_from_factors([1.0, 1.0], [(2.0, 1), (-0.6, 1)])
        g = rational_from_factors([2.0], [(0.3, 1)])
        c1, c2 = 1.7, -0.4
        combined = RationalFunction(
            c1 * (f.numerator * g.denominator) + c2 * (g.numerator * f.denominator),
            f.denominator * g.denominator,
        )
        cf_f = invert_partial_fractions(f)
        cf_g = invert_partial_fractions(g)
        cf_c = invert_partial_fractions(combined)
        for m in range(1, 20):
            expected = c1 * cf_f.evaluate(m) + c2 * cf_g.evaluate(m)
            assert cf_c.evaluate(m) == pytest.approx(expected, abs=1e-9 * (1 + abs(expected)))


class TestImproperClosedForm:
    def test_quotient_becomes_impulses(self):
        # s/(s-2) = 1 + 2/(s-2): impulse at the first step plus geometric
        rf = RationalFunction(Polynomial([0.0, 1.0]), Polynomial([-2.0, 1.0]))
        cf = invert_partial_fractions(rf)
        series = invert_inside(rf, 6).real
        for m in range(1, 7):
            assert cf.evaluate(m) == pytest.approx(series[m - 1], abs=1e-12)
        assert any(isinstance(t, ImpulseTerm) for t in cf.terms)


def _pointwise(cf, ks):
    return np.array([cf.evaluate(k) for k in ks])


def _first_realness_failure(call, ks):
    """The k named by the RealnessError that ``call`` raises."""
    with pytest.raises(RealnessError) as info:
        call(ks)
    return str(info.value).split(" at k = ")[1].split(";")[0]


class TestSampleGrid:
    """``sample`` on a whole grid against ``evaluate`` step by step."""

    def assert_matches(self, cf, ks):
        grid = cf.sample(ks)
        point = _pointwise(cf, ks)
        assert grid.shape == (len(ks),)
        np.testing.assert_allclose(grid, point, rtol=1e-12,
                                   atol=1e-12 * max(1.0, float(np.max(np.abs(point)))))

    def test_impulses(self):
        cf = ClosedFormSequence(0.0, (ImpulseTerm(2.0, 0), ImpulseTerm(-1.5, 3)))
        self.assert_matches(cf, range(1, 9))
        np.testing.assert_array_equal(cf.sample(range(1, 6)), [2.0, 0.0, 0.0, -1.5, 0.0])

    def test_geometric_with_impulses(self):
        rf = RationalFunction(Polynomial([1.0, 0.0, 0.5, 1.0]), Polynomial([0.2, 1.0]))
        self.assert_matches(invert_partial_fractions(rf), range(1, 60))

    def test_poly_geometric_and_conjugate_pairs(self):
        rf = rational_from_factors(
            [1.0, -0.3, 0.2],
            [(2.5, 3), (-0.4 + 1.3j, 2), (-0.4 - 1.3j, 2), (1.8 + 0.5j, 1), (1.8 - 0.5j, 1)],
        )
        cf = invert_partial_fractions(rf)
        kinds = {type(t) for t in cf.terms}
        assert PolyGeometricTerm in kinds
        self.assert_matches(cf, range(1, 200))

    def test_random_rationals(self, rng):
        for _ in range(20):
            rf, _roots = random_real_rational_from_factors(rng)
            self.assert_matches(invert_partial_fractions(rf, a=1.5), [1.5 + m for m in range(1, 80)])

    def test_mittag_leffler(self):
        form = FractionalSumForm((
            FractionalAtom(1.0, 0.5, 0.5, 0.2),
            FractionalAtom(-1.0, 0.7, 0.5, 0.3),
            FractionalAtom(0.5, 1.0, 1.0, -0.4),
        ))
        self.assert_matches(invert_fractional(form), range(1, 25))

    def test_offsets_validated(self):
        cf = invert_partial_fractions(example1(), a=0.5)
        with pytest.raises(ValueError, match="k = 1 is not in the causal index set"):
            cf.sample([1.5, 1, 2.5])
        with pytest.raises(ValueError):
            cf.sample([0.5])

    def test_realness_failure_at_same_step(self):
        # nearly conjugate poles inside the unit disk around 1: the imaginary
        # residue grows relative to the summands until it fails near m = 50
        delta = 1e-11
        cf = ClosedFormSequence(0.0, (
            GeometricTerm(1j, 0.5),
            GeometricTerm(-1j, 0.5 + delta),
        ))
        ks = list(range(1, 120))
        grid_k = _first_realness_failure(cf.sample, ks)
        point_k = _first_realness_failure(lambda ks: _pointwise(cf, ks), ks)
        assert grid_k == point_k
        assert 10 < int(grid_k) < 119

    def test_realness_failure_at_same_step_mittag_leffler(self):
        # ML(1, 1, 0.3) = 0.7^-m; an imaginary 1e-12 * 2^m overtakes the
        # realness tolerance near m = 21
        cf = ClosedFormSequence(0.0, (
            MittagLefflerTerm(1.0, MittagLefflerParams(1.0, 1.0, 0.3)),
            GeometricTerm(1e-12j, 0.5),
        ))
        ks = list(range(1, 40))
        grid_k = _first_realness_failure(cf.sample, ks)
        assert grid_k == _first_realness_failure(lambda ks: _pointwise(cf, ks), ks)
        assert 10 < int(grid_k) < 39

    def test_decaying_values_underflow_to_zero(self):
        # the closed form of 9/((s+1)^2 (s-2)) at K = 2000: 2^-2000 underflows
        cf = invert_partial_fractions(example1())
        ks = np.arange(1, 2001, dtype=float)
        got = cf.sample(ks)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got[-3:], [example1_closed_form(m) for m in (1998, 1999, 2000)],
                                   atol=1e-12)

    def test_growing_values_leave_float64(self):
        cf = ClosedFormSequence(0.0, (GeometricTerm(-1.36, 0.63),))
        got = cf.sample(range(1, 1502))
        assert np.isfinite(got[712]) and not np.isfinite(got[713])


class TestCancelledPoleInside:
    def test_cancelled_factor_does_not_reach_the_series(self):
        # (s - 0.77) cancels; left in the denominator it is a mode 0.23^-j
        # of the series recurrence that rounding excites
        rf = classify(parse_expression("1.79*(s-0.77)/((s-0.77)*(s+1.61))")).rational
        got = invert_inside(rf, 33).real
        want = 1.79 / 2.61 ** np.arange(1, 34)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
