"""The three inversion strategies and the closed-form sequence algebra."""

import cmath
import dataclasses
import itertools
import math
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest

from nablainv import (
    ClosedFormSequence,
    FractionalAtom,
    FractionalSumForm,
    ImpulseTerm,
    ParameterDomainError,
    PoleAtOneError,
    PolyGeometricTerm,
    Polynomial,
    RationalFunction,
    classify,
    expand,
    forward_transform,
    invert_fractional,
    invert_inside,
    invert_outside,
    invert_partial_fractions,
    numeric_inverse,
    parse_expression,
)
from nablainv import cli
from nablainv.cli import main
from nablainv.expansion import POWER_BLOCK
from nablainv.inversion import CUT_MIN_STEPS, OVERFLOW_LOG
from nablainv.special import mittag_leffler_series
from nablainv.pairs import sample_points
from conftest import (
    REFUSED,
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
        kinds = sorted((type(t).__name__, t.order) for t in cf.terms)
        assert kinds == [("PolyGeometricTerm", 1), ("PolyGeometricTerm", 1),
                         ("PolyGeometricTerm", 2)]
        for m in range(1, 31):
            assert cf.evaluate(m) == pytest.approx(example1_closed_form(m), abs=1e-9)

    def test_single_simple_pole_geometric(self):
        rf = RationalFunction(Polynomial([1.0]), Polynomial([-0.3, 1.0]))
        cf = invert_outside(rf)
        (term,) = cf.terms
        assert isinstance(term, PolyGeometricTerm) and term.order == 1
        assert term.pole == pytest.approx(0.3)
        for m in (1, 2, 5, 9):
            assert cf.evaluate(m) == pytest.approx(0.7 ** (-m), rel=1e-12)

    def test_double_pole_rising_factor(self):
        # 1/(s-2)^2 -> rising(k-a,1)/(1! * (-1)^(k-a+1))
        rf = rational_from_factors([1.0], [(2.0, 2)])
        # the order-1 coefficient is exactly 0, and the expansion leaves that
        # term out
        cf = invert_outside(rf)
        (term,) = cf.terms
        assert isinstance(term, PolyGeometricTerm) and term.order == 2
        for m in (1, 2, 3, 6):
            expected = m / ((-1.0) ** (m + 1))
            assert cf.evaluate(m) == pytest.approx(expected, rel=1e-10)


class TestInvertPartialFractions:
    def test_example_matches_outside(self):
        a = invert_outside(example1())
        b = invert_partial_fractions(example1())
        for m in range(1, 25):
            assert a.evaluate(m) == pytest.approx(b.evaluate(m), abs=1e-12)

    @pytest.mark.parametrize("text", [
        "(s^3+1)/((s-2)*(s+0.55)^2)",  # an impulse, a simple and a double pole
        "4.05/((s+0.55)^2)+1/(s-2)",  # a vanishing order-1 coefficient
    ])
    def test_terms_are_the_expansion(self, text):
        rf = classify(parse_expression(text)).rational
        assert invert_partial_fractions(rf).terms == expand(rf)

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
        poles = sorted(t.pole.real for t in cf.terms if t.order == 1)
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
        assert cf.terms == form.atoms
        assert [t.coefficient for t in cf.terms] == [(1 + 0j), (-1 + 0j)]
        assert cf.evaluate(1) == pytest.approx(1 / 0.8 - 1 / 0.7, abs=1e-12)

    def test_terms_are_the_series_of_each_atom_bit_for_bit(self):
        atoms = (
            FractionalAtom(1.0, 0.5, 0.5, 0.2),
            FractionalAtom(-1.5 + 0.25j, 0.7, 0.5, 0.3 - 0.4j),
            FractionalAtom(2.0, 0.5, 0.5, 0j),
            FractionalAtom(0.5, 1.3, 2.1, -0.6),
        )
        cf = invert_fractional(FractionalSumForm(atoms), a=2.0)
        m = np.arange(1, 301)
        want = [a.coefficient * mittag_leffler_series(a.alpha, a.beta, a.lam, 299)
                for a in atoms]
        for term, w in zip(cf.terms, want):
            assert term.value(m).tobytes() == w.tobytes()
        assert cf.values(m).tobytes() == sum(want, np.zeros(m.size, dtype=complex)).tobytes()

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
        # the root 0.3^(10/7) = 0.179 of s^0.7 = 0.3 bounds the disk
        assert form.radius == pytest.approx(1.0 - 0.3 ** (10.0 / 7.0), rel=1e-14)
        assert abs(1.0 - 0.5) < form.radius < abs(1.0 - 0.1)
        assert form.pole_order == 1

    def test_roc_reaches_nearest_principal_root(self):
        # s^1.16 = 0.58 at s = 0.58^(1/1.16) = 0.6253, closer to 1 than the origin
        form = FractionalSumForm((FractionalAtom(-2.48, 1.16, 1.57, 0.58),))
        assert form.radius == pytest.approx(1.0 - 0.58 ** (1.0 / 1.16), rel=1e-14)

    @pytest.mark.parametrize("alpha", [0.3, 0.9, 1.5, 2.7, 5.5])
    def test_roc_is_nearest_of_all_principal_branch_roots(self, alpha):
        # every root r e^{j(arg lam + 2 pi n)/alpha} with |arg lam + 2 pi n| < alpha pi
        for mod in (0.3, 0.8):
            for arg in (0.0, 0.4, -1.3, 2.5, math.pi):
                lam = mod * cmath.exp(1j * arg)
                roots = [mod ** (1 / alpha) * cmath.exp(1j * (arg + 2 * math.pi * n) / alpha)
                         for n in range(-3, 4) if abs(arg + 2 * math.pi * n) < alpha * math.pi]
                for root in roots:
                    assert abs(np.complex128(root) ** alpha - lam) < 1e-14
                want = min([1.0] + [abs(1 - r) for r in roots])
                form = FractionalSumForm((FractionalAtom(1.0, alpha, 1.0, lam),))
                assert form.radius == pytest.approx(want, rel=1e-14), (mod, arg)

    def test_roc_without_roots_is_the_unit_disk(self):
        # s^0.5 = -0.9 has no principal-branch root; the branch point binds
        form = FractionalSumForm((FractionalAtom(1.0, 0.5, 0.5, -0.9),))
        assert form.radius == 1.0

    def test_atoms_evaluate_on_arrays(self):
        form = FractionalSumForm((FractionalAtom(1.0, 0.5, 0.5, 0.2),
                                  FractionalAtom(-1.0, 0.7, 0.5, 0.3)))
        s = np.array([0.5, 1.2 + 0.3j, 0.9 - 0.1j])
        np.testing.assert_array_equal(form(s), [form(x) for x in s])

    @pytest.mark.parametrize("shape", [(2, 3), (0,), (0, 3)])
    def test_arrays_keep_their_shape(self, shape):
        form = FractionalSumForm((FractionalAtom(1.0, 0.5, 0.5, 0.2),
                                  FractionalAtom(-1.0, 0.7, 0.5, 0.3)))
        s = np.linspace(0.1, 0.9, math.prod(shape)).reshape(shape) + 0.2j
        got = form(s)
        assert type(got) is np.ndarray and got.shape == shape and got.dtype == complex
        np.testing.assert_array_equal(got.ravel(), form(s.ravel()))
        for x in (0.3, np.float64(0.3), np.array(0.3), np.array(0.3 + 0.1j)):
            assert type(form(x)) is complex

    @pytest.mark.parametrize("s", [0.7 + 0.1j, np.array([0.7, 0.5j]), np.ones((2, 2))])
    def test_one_pass_with_no_zero_exponent(self, monkeypatch, s):
        """One power call for every point and atom; the exponent alpha - beta
        = 0 of the first atom is not among its exponents."""
        from nablainv import inversion
        seen = []

        def power(log_abs, theta, g, out):
            seen.append(g.ravel().tolist())
            return original(log_abs, theta, g, out)

        original = inversion._power
        form = FractionalSumForm((FractionalAtom(1.0, 0.5, 0.5, 0.2),
                                  FractionalAtom(-1.0, 0.7, 0.5, 0.3),
                                  FractionalAtom(0.5, 0.9, 0.8, 0.4)))
        want = form(s)
        monkeypatch.setattr(inversion, "_power", power)
        np.testing.assert_array_equal(form(s), want)
        assert len(seen) == 1
        assert sorted(seen[0]) == pytest.approx(sorted([0.2, 0.1, 0.5, 0.7, 0.9]), abs=1e-15)

    def test_scalar_is_a_one_point_array_on_the_verify_atom_sums(self, monkeypatch):
        """A scalar is evaluated as one array over the atoms, by the same numpy
        operations as a one-point array: the same bits, at the points where
        verify evaluates F (its round trip's sample points and s = 1)."""
        bench = Path(__file__).resolve().parents[1] / "bench"
        monkeypatch.syspath_prepend(str(bench))
        from workloads import requests

        count = 0
        for seed in range(3):
            for req in itertools.islice(requests("verify", seed), 120):
                if req["ref"]["type"] != "atoms":
                    continue
                text = req["argv"][1].removeprefix("--expr=")
                form = classify(parse_expression(text)).fractional
                assert len(form.atoms) == len(req["ref"]["atoms"])
                for s in sample_points(form.radius, count=5) + [1, 1.0]:
                    got = form(s)
                    assert type(got) is complex
                    assert got == form(np.array([s]))[0]
                    count += 1
        assert count == 7 * 180

    @pytest.mark.parametrize("s", [0, 0.0, 1e-200, 1e200, -0.7, 0.5j, complex(1e308, 1e308)])
    def test_scalar_edges_read_as_a_one_point_array(self, s):
        """s = 0 gives 0^g = 0 (and 1 for g = 0) and no error from ln 0, and a
        value past the float64 range reads inf or nan, on both paths."""
        form = FractionalSumForm((FractionalAtom(1.0, 0.5, 0.5, 0.2),
                                  FractionalAtom(-1.0, 0.7, 0.5, 0.3),
                                  FractionalAtom(0.5 + 1j, 1.5, 0.3, -0.4j)))
        with np.errstate(all="ignore"):
            got = form(s)
            want = form(np.array([s], dtype=complex))
        assert type(got) is complex
        np.testing.assert_array_equal(np.array([got]), want)
        assert FractionalSumForm((FractionalAtom(1.0, 0.5, 0.3, 0.2),)).evaluate(0) == 0


class TestOrderOneTerm:
    """PolyGeometricTerm at its default order 1 is the simple-pole term."""

    def test_values_are_the_anchored_power_bit_for_bit(self):
        rng = np.random.default_rng(22)
        new_err, old_err = [], []
        for i in range(200):
            # a real pole with a real coefficient, float64 throughout, every
            # fourth draw
            if i % 4:
                c = complex(*rng.normal(size=2)) * 10 ** rng.uniform(-3, 3)
                p = 1 - rng.uniform(0.5, 3) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            else:
                c = rng.normal() * 10 ** rng.uniform(-3, 3)
                p = 1 - rng.uniform(0.5, 3) * rng.choice([-1.0, 1.0])
            m = rng.integers(1, 5001, size=40)
            term = PolyGeometricTerm(c, p)
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                got = term.value(m)
                assert got.tobytes() == (c * 1.0 * _anchored_power(p, m)).tobytes()
                old = c * (1 - p) ** (-m)
            _errors(new_err, old_err, got, old, [mpmath.mpc(c) * (1 - mpmath.mpc(p)) ** -k
                                                 for k in m[:4].tolist()])
            # an int step is a one-step grid, as a Python complex
            finite = np.isfinite(got)
            for k, want in zip(m[finite][:3].tolist(), got[finite][:3]):
                value = term.value(k)
                assert type(value) is complex
                assert np.array([value]).tobytes() == np.array([want], dtype=complex).tobytes()
        assert max(new_err) <= max(old_err)

    def test_text_and_dict(self):
        term = PolyGeometricTerm(2 - 1j, 0.25)
        assert term.order == 1
        assert term.describe() == "(2-1j)*0.75^-(k-a)"
        assert term.as_dict() == {
            "type": "geometric", "coefficient": [2.0, -1.0], "pole": [0.25, 0.0]}


def _rising_factorial_term(c, p, n, m):
    """The order-n pole term as it was formed before its binomial: a float
    rising factorial over a float (n-1)!."""
    rising = 1.0
    for i in range(n - 1):
        rising = rising * (m + i)
    return c / math.factorial(n - 1) * rising * (1.0 - p) ** ((1 - n) - m)


def _anchored_power(p, e):
    """(1-p)^-e at every int of the ndarray e, as the terms form it,
    written out.  A real base by pow of its modulus, as the product of two
    normal powers where |1-p|^-e is no normal float, and odd powers of a
    negative base negated.  A complex one, below 64, by numpy's
    power (repeated squaring), no part -0.0; from 64 on, that entry for
    e mod 64 times the anchor for the multiple A of 64 below e, e^-s (1 - t)
    from the long-double logarithm hi + lo, s + t = A H + A (hi - H) + A lo,
    H = hi to 26 bits; or that power for e itself where the anchor is a
    subnormal.  (Here 2^-16 <= |1-p| <= 2^16.)"""
    b = 1 - complex(p)
    if b.imag == 0:
        size = abs(b.real)
        normal = int(1022 * math.log(2) / math.log(size)) - 1 if size > 1 else math.inf
        if e.max() <= normal:
            power = np.power(size, -e)
        else:
            power = np.power(size, -np.minimum(e, normal))
            deep = e > normal
            power[deep] *= np.power(size, normal - e[deep])
        return np.where((e % 2 == 1) & (b.real < 0), -power, power)
    log = np.log(np.clongdouble(b))
    hi = complex(log)
    c = 134217729.0 * hi
    big = c - (c - hi)
    lo = complex(log - hi)

    def entries(x):
        power = b ** -x
        power += 0.0
        return power

    def powers(x):
        a, c = x * big, x * (hi - big)
        s = a + c
        return np.exp(-s) * (1 - ((a - s) + c + x * lo))
    if e.max() < 64:
        return entries(e)
    anchors = powers(e // 64 * 64.0)
    anchors[e < 64] = 1
    power = entries(e % 64) * anchors
    lost = (np.abs(anchors) < np.finfo(float).tiny) & (anchors != 0)
    power[lost] = powers(e[lost] * 1.0)
    return power


def _errors(new_err, old_err, new, old, exact):
    """Append the relative errors of new and old against the 40-digit exact
    values, at the steps where the exact value is a normal float."""
    with mpmath.workdps(40):
        for g, o, x in zip(new, old, exact):
            if 1e-300 < abs(x) < 1e300:
                new_err.append(float(abs(g - x) / abs(x)))
                old_err.append(float(abs(o - x) / abs(x)))


class TestPoleTermBinomial:
    """PolyGeometricTerm forms C(m+n-2, n-1) as a running product of ratios."""

    @staticmethod
    def _terms(rng, orders, count):
        for _ in range(count):
            n = int(rng.choice(orders))
            c = complex(*rng.normal(size=2)) * 10 ** rng.uniform(-3, 3)
            p = 1 - rng.uniform(0.5, 3) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            yield c, p, n, rng.integers(1, 501, size=40)

    def test_orders_one_to_three_are_the_anchored_power_bit_for_bit(self):
        new_err, old_err = [], []
        for c, p, n, m in self._terms(np.random.default_rng(23), [1, 2, 3], 150):
            binomial = 1.0
            for i in range(n - 1):
                binomial = binomial * (m + i) / (i + 1)
            got = PolyGeometricTerm(c, p, n).value(m)
            assert got.tobytes() == (c * binomial * _anchored_power(p, m + n - 1)).tobytes()
            with mpmath.workdps(40):
                exact = [mpmath.mpc(c) * mpmath.binomial(k + n - 2, n - 1)
                         * (1 - mpmath.mpc(p)) ** -(k + n - 1) for k in m[:5].tolist()]
            _errors(new_err, old_err, got, _rising_factorial_term(c, p, n, m), exact)
        assert max(new_err) <= max(old_err)

    def test_orders_four_to_eight_no_worse_against_mpmath(self):
        """Each value is within the binomial's own rounding (about n ulps) of
        the old formula's error against a 40-digit reference."""
        for c, p, n, m in self._terms(np.random.default_rng(24), range(4, 9), 40):
            got = PolyGeometricTerm(c, p, n).value(m)
            old = _rising_factorial_term(c, p, n, m)
            with mpmath.workdps(40):
                for k, g, o in zip(m.tolist(), got, old):
                    exact = (mpmath.mpc(c) * mpmath.binomial(k + n - 2, n - 1)
                             * (1 - mpmath.mpc(p)) ** -(k + n - 1))
                    err_new = float(abs(g - exact) / abs(exact))
                    err_old = float(abs(o - exact) / abs(exact))
                    assert err_new <= err_old + 4 * n * np.finfo(float).eps

    @pytest.mark.parametrize("expr, want", [
        ("1/(s-2)^170", [1.0, -170.0, 14535.0]),
        # a double root to the power 86: an order-172 pole that no written
        # power shows
        ("1/(s^2-4*s+4)^86", [1.0, -172.0, 14878.0]),
    ])
    def test_orders_past_the_float_factorials(self, expr, want):
        rf = classify(parse_expression(expr)).rational
        cf = invert_partial_fractions(rf)
        assert cf.values(np.arange(1, 4)).real.tolist() == invert_inside(rf, 3).real.tolist() \
            == want


def _old_value(c, p, n, m):
    """The order-n pole term as it was formed before the anchored power: the
    binomial's running product of ratios times numpy's complex power."""
    binomial = 1.0
    for i in range(n - 1):
        binomial = binomial * (m + i) / (i + 1)
    return c * binomial * (1.0 - p) ** ((1 - n) - m)


def _random_term(rng, growing=False):
    """(c, p, n): orders 1-8, |c| from 1e-300 to 1e300, |1-p| in (1, 3]
    (some at 1 + 1e-12), or in (0.5, 1) when growing; a real pole and
    coefficient half the time."""
    n = int(rng.integers(1, 9))
    r = rng.uniform(0.5, 1) if growing else 1 + 1e-12 if rng.random() < 0.15 \
        else rng.uniform(1, 3)
    c = 10.0 ** rng.uniform(-300, 300) * rng.choice([-1, 1])
    if rng.random() < 0.5:
        return c, 1 - r * rng.choice([-1, 1]), n
    return c * cmath.exp(1j * rng.uniform(-3, 3)), 1 - r * cmath.exp(1j * rng.uniform(0.1, 3)), n


def _same_bits(got, want):
    """Equal bits where finite, and non-finite at the same steps."""
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), finite)
    assert got[finite].tobytes() == want[finite].tobytes()


class TestStepOnlyBits:
    """A term's value at a step depends on that step alone: a grid, its
    pieces split at arbitrary steps, a scattered pick of its steps and each
    int step all give the same bits, each from a term of its own (so a
    table built only as long as a short piece asks for)."""

    def test_pieces_picks_and_int_steps(self, rng):
        m = np.arange(1, 3001)
        for i in range(60):
            c, p, n = _random_term(rng, growing=i % 4 == 0)
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                whole = PolyGeometricTerm(c, p, n).value(m)
                cuts = np.sort(rng.choice(np.arange(1, m.size), size=6, replace=False))
                pieces = [PolyGeometricTerm(c, p, n).value(piece) for piece in np.split(m, cuts)]
                _same_bits(np.concatenate(pieces), whole)
                picks = rng.choice(m, size=20)
                _same_bits(PolyGeometricTerm(c, p, n).value(picks), whole[picks - 1])
                ints = rng.choice(m[np.isfinite(whole)], size=5)
                term = PolyGeometricTerm(c, p, n)
                got = np.array([term.value(int(k)) for k in ints])
                assert got.tobytes() == whole[ints - 1].astype(complex).tobytes()

    def test_grid_past_numpys_in_place_threshold(self):
        """numpy's * writes into a temporary of 256 KiB or more (16 384
        complex values) in place, where a complex product rounds apart from
        the out-of-place one: a 40 000-step grid and its 1000-step pieces
        give the same bits, complex and real poles, orders 1-3."""
        m = np.arange(1, 40001)
        for c, p in [(0.8 + 1.2j, 0.0005 - 0.04j), (0.3 - 0.7j, 1 - 1.001 * cmath.exp(0.4j)),
                     (1.5 + 0.5j, -0.2), (-2.0, 2.0001)]:
            for n in (1, 2, 3):
                with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                    whole = PolyGeometricTerm(c, p, n).value(m)
                    pieces = [PolyGeometricTerm(c, p, n).value(x) for x in np.split(m, 40)]
                _same_bits(np.concatenate(pieces), whole)

    def test_far_grid(self):
        """A grid some 4096 blocks out (step 262144) makes the anchors of
        its own blocks only: its pieces and int steps, each from a term of
        its own, give the same bits."""
        def term():
            return PolyGeometricTerm(0.3 - 0.2j, 1 - (1 + 1e-6) * cmath.exp(0.3j))
        m = np.arange(262100, 262300)
        whole = term().value(m)
        assert np.isfinite(whole).all() and np.abs(whole).min() > 0
        _same_bits(np.concatenate([term().value(piece) for piece in np.split(m, [37, 44, 150])]),
                   whole)
        assert np.array([term().value(int(k)) for k in m[::40]]).tobytes() == whole[::40].tobytes()

    def test_far_grid_costs_its_own_blocks(self):
        """A 6-step grid at m = 10^7 makes the anchor of its one block, not
        those of the 156 250 blocks below it: its peak of traced memory
        stays under 64 KB, and its values are the steps' own."""
        term = PolyGeometricTerm(0.3 - 0.2j, 1 - (1 + 1e-9) * cmath.exp(0.3j))
        m = np.arange(10**7, 10**7 + 6)
        tracemalloc.start()
        try:
            whole = term.value(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 1024
        assert np.isfinite(whole).all() and np.abs(whole).min() > 0
        assert np.array([term.value(int(k)) for k in m]).tobytes() == whole.tobytes()

    def test_cut_grid_and_evaluate(self, rng):
        # the zero cut and ``evaluate`` read the grid's own bits
        for _ in range(10):
            cf = _random_closed_form(rng)
            ks = np.arange(1, 2500)
            grid = cf.values(ks)
            for k in rng.choice(ks, size=5).tolist():
                assert np.array([cf.evaluate_complex(k)]).tobytes() == grid[k - 1:k].tobytes()
                assert np.array([cf.evaluate(k)]).tobytes() == grid[k - 1:k].real.tobytes()


class TestPowerAccuracy:
    """Against 50-digit mpmath, to m = 4e4: a real pole within 1e-15; a
    complex pole no worse, in the largest and the median error, than numpy's
    complex power on the same draws.  The steps are those where (1-p)^-m is a
    normal float and |c binomial| < 2^1020, so that the exact value is the
    product of two in-range factors (ROADMAP item 3 keeps the others)."""

    def test_sweep_to_m_4e4(self):
        rng = np.random.default_rng(31)
        real, new, old = [], [], []
        for _ in range(400):
            c, p, n = _random_term(rng)
            r = abs(1 - p)
            m = rng.integers(1, min(40000, int(700 / math.log(r))) + 1, size=4)
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                got, was = PolyGeometricTerm(c, p, n).value(m), _old_value(c, p, n, m)
            with mpmath.workdps(50):
                for k, g, o in zip(m.tolist(), got, was):
                    binomial = mpmath.binomial(k + n - 2, n - 1)
                    exact = mpmath.mpc(c) * binomial * (1 - mpmath.mpc(p)) ** -(k + n - 1)
                    if abs(c) * binomial >= 2 ** 1020 or not 1e-300 < abs(exact) < 1e300:
                        continue
                    err = float(abs(g - exact) / abs(exact))
                    if complex(p).imag == 0:
                        real.append(err)
                    else:
                        new.append(err)
                        old.append(float(abs(o - exact) / abs(exact)))
        assert len(real) > 400 and len(new) > 400
        assert max(real) <= 1e-15
        assert max(new) <= max(old) and np.median(new) <= np.median(old)


class TestTermDicts:
    def test_each_term_type(self):
        assert ImpulseTerm(2.0, 1).as_dict() == {
            "type": "impulse", "coefficient": [2.0, 0.0], "shift": 1}
        assert PolyGeometricTerm(1 - 2j, 0.5).as_dict() == {
            "type": "geometric", "coefficient": [1.0, -2.0], "pole": [0.5, 0.0]}
        assert PolyGeometricTerm(1.0, 0.3j, 2).as_dict() == {
            "type": "poly-geometric", "coefficient": [1.0, 0.0], "pole": [0.0, 0.3],
            "order": 2}
        term = FractionalAtom(-1.0, 0.5, 0.7, 0.2)
        assert term.as_dict() == {
            "type": "mittag-leffler", "coefficient": [-1.0, 0.0], "alpha": 0.5,
            "beta": 0.7, "lambda": [0.2, 0.0]}


class TestZeroCoefficientTerms:
    """A repeated pole whose lower-order partial-fraction coefficients vanish
    exactly, written or merged from two close poles, gives a closed form
    without those terms, and with the values of the whole expansion."""

    @pytest.mark.parametrize("text, shown", [
        ("4.05/((s+0.55)^2)", "4.05*binomial(k-a,1)*1.55^-(k-a+1)"),
        ("-2.51/((s+1.87)^3)", "(-2.51)*binomial(k-a+1,2)*2.87^-(k-a+2)"),
        ("1/((s-0.3)*(s-0.300000001))", "1*binomial(k-a,1)*0.7^-(k-a+1)"),
    ])
    def test_zero_terms_are_left_out(self, text, shown):
        rf = classify(parse_expression(text)).rational
        cf = invert_partial_fractions(rf)
        assert cf.describe() == shown
        (term,) = cf.terms
        # the whole expansion: the pole at orders 1..N, the lower ones 0
        every = ClosedFormSequence(0.0, tuple(
            PolyGeometricTerm(term.coefficient if n == term.order else 0j, term.pole, n)
            for n in range(1, term.order + 1)))
        assert term.order > 1 and every.terms[-1] == term
        # leaving out an exact zero changes no value, not even a zero's sign
        m = np.arange(1, 201)
        assert cf.values(m).tobytes() == every.values(m).tobytes()


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

    def test_terms_reject_pole_at_one(self):
        with pytest.raises(PoleAtOneError):
            PolyGeometricTerm(1.0, 1.0)
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
            values = cf.values(np.arange(1, 21))
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
    return np.array([cf.evaluate_complex(k) for k in ks])


class TestValuesGrid:
    """``values`` on a whole grid of step offsets against ``evaluate_complex``
    step by step."""

    def assert_matches(self, cf, m):
        grid = cf.values(m)
        point = _pointwise(cf, cf.base_point + m)
        assert grid.shape == m.shape
        np.testing.assert_allclose(grid, point, rtol=1e-12,
                                   atol=1e-12 * max(1.0, float(np.max(np.abs(point)))))

    def test_impulses(self):
        cf = ClosedFormSequence(0.0, (ImpulseTerm(2.0, 0), ImpulseTerm(-1.5, 3)))
        self.assert_matches(cf, np.arange(1, 9))
        np.testing.assert_array_equal(cf.values(np.arange(1, 6)), [2.0, 0.0, 0.0, -1.5, 0.0])

    def test_geometric_with_impulses(self):
        rf = RationalFunction(Polynomial([1.0, 0.0, 0.5, 1.0]), Polynomial([0.2, 1.0]))
        self.assert_matches(invert_partial_fractions(rf), np.arange(1, 60))

    def test_poly_geometric_and_conjugate_pairs(self):
        rf = rational_from_factors(
            [1.0, -0.3, 0.2],
            [(2.5, 3), (-0.4 + 1.3j, 2), (-0.4 - 1.3j, 2), (1.8 + 0.5j, 1), (1.8 - 0.5j, 1)],
        )
        cf = invert_partial_fractions(rf)
        kinds = {type(t) for t in cf.terms}
        assert PolyGeometricTerm in kinds
        self.assert_matches(cf, np.arange(1, 200))

    def test_random_rationals(self, rng):
        for _ in range(20):
            rf, _roots = random_real_rational_from_factors(rng)
            self.assert_matches(invert_partial_fractions(rf, a=1.5), np.arange(1, 80))

    def test_mittag_leffler(self):
        form = FractionalSumForm((
            FractionalAtom(1.0, 0.5, 0.5, 0.2),
            FractionalAtom(-1.0, 0.7, 0.5, 0.3),
            FractionalAtom(0.5, 1.0, 1.0, -0.4),
        ))
        self.assert_matches(invert_fractional(form), np.arange(1, 25))

    @pytest.mark.parametrize("terms", [
        (PolyGeometricTerm(1.0, 0.5j),),
        # nearly conjugate poles inside the unit disk around 1, whose
        # imaginary part grows relative to the summands
        (PolyGeometricTerm(1j, 0.5), PolyGeometricTerm(-1j, 0.5 + 1e-11)),
        # ML(1, 1, 0.3) = 0.7^-m beside an imaginary 1e-12 * 2^m
        (FractionalAtom(1.0, 1.0, 1.0, 0.3), PolyGeometricTerm(1e-12j, 0.5)),
    ])
    def test_complex_terms_grid_is_each_steps_own(self, terms):
        """A grid's complex values are bit for bit the steps' own, and
        ``evaluate`` is their real part, with no test (realness is decided
        from F, before any value)."""
        cf = ClosedFormSequence(0.0, terms)
        m = np.arange(1, 120)
        grid = cf.values(m)
        assert grid.tobytes() == _pointwise(cf, m).tobytes()
        assert np.array([cf.evaluate(k) for k in m]).tobytes() == grid.real.tobytes()

    def test_decaying_values_underflow_to_zero(self):
        # the closed form of 9/((s+1)^2 (s-2)) at K = 2000: 2^-2000 underflows
        cf = invert_partial_fractions(example1())
        got = cf.values(np.arange(1, 2001))
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got[-3:], [example1_closed_form(m) for m in (1998, 1999, 2000)],
                                   atol=1e-12)

    def test_growing_values_leave_float64(self):
        cf = ClosedFormSequence(0.0, (PolyGeometricTerm(-1.36, 0.63),))
        got = cf.values(np.arange(1, 1502))
        assert np.isfinite(got[712]) and not np.isfinite(got[713])


def _full_values(cf, m):
    """The reference for ``values``: every term evaluated on every step, then
    summed."""
    with np.errstate(all="ignore"):
        parts = np.zeros((len(cf.terms), m.size), dtype=complex)
        for row, t in zip(parts, cf.terms):
            row[:] = t.value(m)
        return parts.sum(axis=0)


def _random_closed_form(rng):
    """Decaying terms: |c| in 1e-300..1e300, orders 1-4, |1-p| in (1, 3] with
    some at 1 + 1e-12, complex poles in conjugate pairs; impulses and zero
    coefficients among them."""
    terms = []
    for _ in range(int(rng.integers(1, 5))):
        c = 10.0 ** rng.uniform(-300, 300) * rng.choice([-1, 1])
        r = 1 + 1e-12 if rng.random() < 0.15 else rng.uniform(1, 3)
        order = int(rng.integers(1, 5))
        if rng.random() < 0.5:
            terms.append(PolyGeometricTerm(c, 1 - r * rng.choice([-1, 1]), order))
            continue
        c = c * cmath.exp(1j * rng.uniform(-3, 3))
        base = r * cmath.exp(1j * rng.uniform(0.1, 3))
        terms += [PolyGeometricTerm(c, 1 - base, order),
                  PolyGeometricTerm(c.conjugate(), 1 - base.conjugate(), order)]
    if rng.random() < 0.3:
        terms.append(ImpulseTerm(float(rng.normal()), int(rng.integers(0, 200))))
    if rng.random() < 0.3:
        terms.append(PolyGeometricTerm(0.0, -1.0))
    return ClosedFormSequence(0.0, tuple(terms))


class TestZeroCut:
    """A decaying term stops being evaluated at its ``zero_from``; the grid's
    complex values stay bit for bit the full evaluation's, sign of zero
    included."""

    def assert_full(self, cf, m):
        assert len(m) >= CUT_MIN_STEPS
        assert cf.values(m).tobytes() == _full_values(cf, m).tobytes()

    def test_random_closed_forms(self, rng):
        cut = 0
        for _ in range(150):
            cf = _random_closed_form(rng)
            self.assert_full(cf, np.arange(1, 2500))
            for t in cf.terms:
                if t.zero_from is not None:
                    cut += 1
                    lo = max(1, t.zero_from - CUT_MIN_STEPS // 2)
                    self.assert_full(cf, np.arange(lo, lo + CUT_MIN_STEPS))
        assert cut > 100

    def test_forward_sum_gives_the_uncut_bits(self):
        """At s = 0 the sum of a conjugate pair with |1-p| = 1.01 reads about
        2800 terms, in blocks of 1024 and 2048 steps past CUT_MIN_STEPS where
        the 3^-m term, from its zero_from = 695 on, is not evaluated: the sum
        has the bits of the same rule uncut."""
        base = 1.01 * cmath.exp(0.4j)
        cf = ClosedFormSequence(0.0, (PolyGeometricTerm(2.0, -2.0),
                                      PolyGeometricTerm(0.5 - 0.2j, 1 - base),
                                      PolyGeometricTerm(0.5 + 0.2j, 1 - base.conjugate())))
        blocks = []

        def rule(m):
            blocks.append((int(m[0]), m.size))
            return cf.values(m)

        got = forward_transform(rule, 0.0)
        assert any(start > 695 and size >= CUT_MIN_STEPS for start, size in blocks)
        want = forward_transform(lambda m: _full_values(cf, m), 0.0)
        assert np.array([got]).tobytes() == np.array([want]).tobytes()

    def test_zero_from_is_where_the_bound_falls_below_2_to_the_minus_1100(self):
        # 3^-m < 2^-1100 from m = 695 on; 2.1 m 2.1^-(m+1) from m = 1038 on
        assert PolyGeometricTerm(1.0, -2.0).zero_from == 695
        assert PolyGeometricTerm(2.1, -1.1, 2).zero_from == 1038

    @pytest.mark.parametrize("term", [
        ImpulseTerm(1.0, 3),
        FractionalAtom(1.0, 0.5, 0.5, 0.2),
        PolyGeometricTerm(1.0, 0.5),  # |1-p| < 1 grows
        PolyGeometricTerm(1.0, 1.0 + 1j),  # |1-p| = 1
        PolyGeometricTerm(0.0, -2.0),
        PolyGeometricTerm(1.0, -1e-12),  # past 2^40 steps
        PolyGeometricTerm(1e300, -2.0, 4),  # c rising(m, 3) / 6 passes 2^1023
    ])
    def test_no_cut(self, term):
        assert term.zero_from is None

    def test_powers_of_a_large_complex_base_are_finite(self):
        """(1e5+1e5j)^-m underflows from m = 61 on, where numpy's complex
        power, by repeated squaring below m = 100, overflowed to nan; the
        anchored power is 0 there, and the cut, from m = 65, keeps the full
        grid's bits."""
        base = 1e5 + 1e5j
        cf = ClosedFormSequence(0.0, (PolyGeometricTerm(1.0, 1 - base),
                                      PolyGeometricTerm(1.0, 1 - base.conjugate())))
        m = np.arange(1, 1200)
        full = _full_values(cf, m)
        assert np.isfinite(full).all() and full[150] == 0
        assert cf.terms[0].zero_from == 65
        self.assert_full(cf, m)
        self.assert_full(cf, np.arange(70, 1200))

    def test_growing_term_overflows_at_the_same_step(self):
        # -1.36 * 0.37^-m passes 1.8e308 at m = 714, past the 3^-m cut at 695
        cf = ClosedFormSequence(0.0, (PolyGeometricTerm(2.0, -2.0),
                                      PolyGeometricTerm(-1.36, 0.63),
                                      PolyGeometricTerm(1.0, 4.0, 3)))
        m = np.arange(1, 1502)
        got, full = cf.values(m), _full_values(cf, m)
        assert np.argmax(~np.isfinite(got)) == np.argmax(~np.isfinite(full)) == 713
        self.assert_full(cf, m)

    def test_unpaired_imaginary_term_past_the_cut(self):
        # an unpaired growing imaginary term beside a decaying real one cut
        # at 695: the values are the full grid's, with no realness test
        cf = ClosedFormSequence(0.0, (PolyGeometricTerm(1.0, -2.0),
                                      PolyGeometricTerm(1e-13j, 0.01)))
        assert cf.terms[0].zero_from == 695
        self.assert_full(cf, np.arange(1, 1200))

    def test_unsorted_grid_is_evaluated_in_full(self):
        # a search for the cut at 695 in this grid would land before 150
        cf = ClosedFormSequence(0.0, (PolyGeometricTerm(-1.0, -2.0),))
        self.assert_full(cf, np.append(np.arange(1, 1200), 150))


class TestCancelledPoleInside:
    def test_cancelled_factor_does_not_reach_the_series(self):
        # (s - 0.77) cancels; left in the denominator it is a mode 0.23^-j
        # of the series recurrence that rounding excites
        rf = classify(parse_expression("1.79*(s-0.77)/((s-0.77)*(s+1.61))")).rational
        got = invert_inside(rf, 33).real
        want = 1.79 / 2.61 ** np.arange(1, 34)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


# F whose values leave float64: a pole with |1 - p| < 1 (0.38, 0.7, 0.45)
GROWING = [
    ("1.7/(s-0.62) + 0.9/(s+1.3)^2 + (0.8-1.2j)/(s-(-1.5+0.5j)) + (0.8+1.2j)/(s-(-1.5-0.5j))",
     0.38, ["--k", "1..20000"]),
    ("0.7/(s-0.3)^2 - 1.1/(s+0.8)", 0.7, ["--a", "0.5", "--k", "3.5..15000.5"]),
    ("-2.6*(s+0.3)/((s-0.55)*(s^2+0.4*s+1.2))", 0.45, ["--k", "1..9000", "--format", "csv"]),
]


class TestFirstOutOfRange:
    """Every route (pfe, outside, inside, fractional and table) evaluates a
    growing grid first up to where R^-m, for the transform's radius R, has
    grown by 2^1100, and stops there at a value out of range: the exit code
    and stderr are the whole grid's."""

    @staticmethod
    def record(monkeypatch):
        """The lengths each route is asked for: the closed form's grid (also
        the fractional route's), the series' coefficient count, or the table
        pair's grid."""
        asked = []
        values, series = ClosedFormSequence.values, RationalFunction.series_at_one
        lookup = cli.lookup
        monkeypatch.setattr(ClosedFormSequence, "values",
                            lambda self, m: asked.append(len(m)) or values(self, m))
        monkeypatch.setattr(RationalFunction, "series_at_one",
                            lambda self, order: asked.append(order + 1) or series(self, order))

        def recorded(classified):
            hit = lookup(classified)
            return hit and dataclasses.replace(
                hit, sequence=lambda m: asked.append(np.size(m)) or hit.sequence(m))

        monkeypatch.setattr(cli, "lookup", recorded)
        return asked

    @staticmethod
    def whole_grid(monkeypatch):
        monkeypatch.setattr(cli, "first_out_of_range", lambda radius, ms, rule: rule(ms))

    @pytest.mark.parametrize("strategy", ["pfe", "outside", "inside"])
    @pytest.mark.parametrize("expr, rho, grid", GROWING)
    def test_growing_grid_stops_at_the_prefix(self, capsys, monkeypatch, strategy, expr, rho,
                                              grid):
        argv = ["invert", "--strategy", strategy, f"--expr={expr}", *grid]
        asked = self.record(monkeypatch)
        got = main(argv), capsys.readouterr()
        assert asked and max(asked) <= OVERFLOW_LOG / -math.log(rho) + POWER_BLOCK
        self.whole_grid(monkeypatch)
        want = main(argv), capsys.readouterr()
        assert got == want
        assert got[0] == 1 and got[1].out == ""
        assert got[1].err.startswith("error: f(k) at k = ")

    @pytest.mark.parametrize("strategy, k", [("pfe", 1024), ("inside", 2021)])
    def test_tiny_residue_names_the_same_step(self, capsys, monkeypatch, strategy, k):
        """1e-300 * 2^m: pfe's power 2^m leaves float64 at m = 1024, inside
        the prefix (to m = 1164); the series itself at m = 2021, past it, so
        the whole grid is evaluated after the prefix."""
        argv = ["invert", "--strategy", strategy, "--expr=1e-300/(s-0.5)", "--k", "1..3000"]
        asked = self.record(monkeypatch)
        got = main(argv), capsys.readouterr()
        assert got[1].err == f"error: f(k) at k = {k} is outside the float64 range; narrow --k\n"
        assert asked == ([1164] if strategy == "pfe" else [1164, 3000])
        self.whole_grid(monkeypatch)
        assert (main(argv), capsys.readouterr()) == got

    @pytest.mark.parametrize("strategy", ["pfe", "inside"])
    @pytest.mark.parametrize("expr", ["1e-300j/(s-0.5)", "(1+1e-300j)/(s-0.5)",
                                      "(1+1e-3j)/(s-0.5)"])
    def test_complex_f_asks_no_route(self, capsys, monkeypatch, strategy, expr):
        """A complex F with a growing pole is refused before its prefix or
        its grid is asked for, with one line that names no step."""
        argv = ["invert", "--strategy", strategy, f"--expr={expr}", "--k", "1..3000"]
        asked = self.record(monkeypatch)
        got = main(argv), capsys.readouterr()
        assert asked == []
        assert (got[0], got[1].out, got[1].err) == (1, "", REFUSED)

    @pytest.mark.parametrize("strategy", ["pfe", "outside", "inside"])
    def test_far_grid_probes_the_overflow_step(self, capsys, monkeypatch, strategy):
        """A 3-step grid at k = 10^7 of 1/(s-0.3), whose mode 0.7^-m leaves
        float64 by m = 2201: the route is asked for that step alone, and the
        grid's first k is named as before.  The series divided 10^7
        coefficients there (0.77 s and 353 MB); now its peak of traced
        memory stays under 1 MB."""
        argv = ["invert", "--strategy", strategy, "--expr=1/(s-0.3)",
                "--k", "10000000..10000002"]
        asked = self.record(monkeypatch)
        tracemalloc.start()
        try:
            got = main(argv), capsys.readouterr()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (got[0], got[1].out, got[1].err) == (
            1, "", "error: f(k) at k = 10000000 is outside the float64 range; narrow --k\n")
        assert peak <= 1 << 20
        assert asked == ([2201] if strategy == "inside" else [1])

    def test_far_grid_past_a_tiny_residue_is_evaluated(self, capsys, monkeypatch):
        """1e-300 * 2^m is finite at the probe's step, m = 1164, and the
        series leaves float64 at m = 2021: the grid at 2100..2102 is
        evaluated, as before."""
        argv = ["invert", "--strategy", "inside", "--expr=1e-300/(s-0.5)", "--k", "2100..2102"]
        asked = self.record(monkeypatch)
        got = main(argv), capsys.readouterr()
        assert asked == [1164, 2102]
        assert got[1].err == "error: f(k) at k = 2100 is outside the float64 range; narrow --k\n"
        self.whole_grid(monkeypatch)
        assert (main(argv), capsys.readouterr()) == got

    def test_fractional_grid_stops_at_the_prefix(self, capsys, monkeypatch):
        """1/(s^0.5-0.3), whose root s = 0.09 gives R = 0.91: its
        Mittag-Leffler values leave float64 at k = 7532, inside the prefix."""
        argv = ["invert", "--expr=1/(s^0.5-0.3)", "--k", "1..20000"]
        asked = self.record(monkeypatch)
        got = main(argv), capsys.readouterr()
        assert (got[0], got[1].out, got[1].err) == (
            1, "", "error: f(k) at k = 7532 is outside the float64 range; narrow --k\n")
        assert asked and max(asked) <= OVERFLOW_LOG / -math.log(0.91) + POWER_BLOCK
        self.whole_grid(monkeypatch)
        assert (main(argv), capsys.readouterr()) == got

    @pytest.mark.parametrize("expr, k", [("1/(s^0.5-0.3)", 1000000),
                                         ("1/(2*s-1)^1.5", 10000000)])
    def test_far_fractional_and_table_grids_probe_one_step(self, capsys, monkeypatch, expr, k):
        """The atom (R = 0.91) and pair row 6 with gamma = 2 (R = 0.5) on a
        3-step grid far past their overflow steps: the route is asked for
        that step alone, and the grid's first k is named.  The atom's series
        ran past 35 s there, and the pair's cumprod took 261 MB."""
        argv = ["invert", f"--expr={expr}", "--k", f"{k}..{k + 2}"]
        asked = self.record(monkeypatch)
        tracemalloc.start()
        try:
            got = main(argv), capsys.readouterr()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (got[0], got[1].out, got[1].err) == (
            1, "", f"error: f(k) at k = {k} is outside the float64 range; narrow --k\n")
        assert peak <= 1 << 20
        assert asked == [1]

    @pytest.mark.parametrize("expr", ["1/(s+0.5)", "1/(s^0.5+0.3)"])
    def test_no_singularity_inside_the_unit_disk_is_one_pass(self, capsys, monkeypatch, expr):
        """R >= 1: a pole at |1 - p| = 1.5, and an atom whose roots are off
        the principal branch, with the branch point s = 0 at distance 1."""
        asked = self.record(monkeypatch)
        assert main(["invert", f"--expr={expr}", "--k", "1..5000", "--format", "csv"]) == 0
        capsys.readouterr()
        assert asked == [5000]
