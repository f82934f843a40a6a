"""Numerical oracles: forward sums, contour quadrature, value and index checks."""

import linecache
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from nablainv import (
    ConvergenceError,
    FractionalAtom,
    FractionalSumForm,
    PoleAtOneError,
    Polynomial,
    RationalFunction,
    TruncationWarning,
    forward_transform,
    initial_value,
    invert_fractional,
    invert_partial_fractions,
    numeric_inverse,
    orientation_check,
    pair,
    round_trip_error,
    sample_points,
)
from nablainv import verify
from nablainv.verify import MAX_NODES, default_rho, quadrature_grid, shared_blocks
from conftest import example1, random_real_rational_from_factors


def step_sequence(m):
    return np.ones(np.shape(m))


def forward_sum_per_step(f, s, tol=1e-12, n_max=100_000):
    """Reference: the forward series summed one step at a time, calling the
    rule once per step with an int, under the same small-increment stop.
    Returns the sum and the number of terms."""
    w = 1.0 - complex(s)
    total, wp, small = 0j, 1.0 + 0j, 0
    for m in range(1, n_max + 1):
        inc = wp * complex(f(m))
        total += inc
        wp *= w
        if abs(inc) < tol * (1.0 + abs(total)):
            small += 1
            if small >= 5:
                return total, m
        else:
            small = 0
    return total, n_max


class CountingRule:
    """Wraps a rule and records the offsets of every call."""

    def __init__(self, rule):
        self.rule = rule
        self.calls = []

    def __call__(self, m):
        self.calls.append(np.array(m, copy=True))
        return self.rule(m)


_ML_FORM = FractionalSumForm((FractionalAtom(1.0, 0.5, 0.5, 0.2),
                              FractionalAtom(-1.0, 0.7, 0.5, 0.3)))


class TestForwardTransform:
    def test_unit_step(self):
        assert forward_transform(step_sequence, 0.5) == pytest.approx(2.0, rel=1e-10)

    def test_rule_with_one_value_for_every_offset(self):
        # a rule may answer a scalar for a block of offsets: it is broadcast
        assert forward_transform(lambda m: 1.0, 0.5) == pytest.approx(2.0, rel=1e-10)

    def test_impulse(self):
        total = forward_transform(lambda m: np.where(m == 1, 1.0, 0.0), 0.3 + 0.4j)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_geometric_row_value(self):
        # f(k) = 0.7^-(k-a): the sum telescopes to 1/(s - 0.3) = 2 at s = 0.8
        assert forward_transform(lambda m: 0.7 ** (-m), 0.8) == pytest.approx(2.0, rel=1e-10)

    def test_divergence_outside_roc(self):
        with pytest.raises(ConvergenceError):
            forward_transform(step_sequence, 2.5)

    def test_truncation_warning(self):
        # |1-s| = 0.99 decays too slowly to meet tol within 50 terms
        rule = CountingRule(step_sequence)
        with pytest.warns(TruncationWarning):
            total = forward_transform(rule, 0.01, tol=1e-14, n_max=50)
        # the 50-term partial sum, read without asking for a step past n_max
        assert total == pytest.approx((1.0 - 0.99**50) / 0.01, rel=1e-13)
        assert max(int(c.max()) for c in rule.calls) == 50

    def test_invalid_tolerance(self):
        with pytest.raises(ValueError):
            forward_transform(step_sequence, 0.5, tol=0.0)

    def test_sum_that_leaves_float64_raises(self):
        # 2^m leaves float64 at m = 1024 while the increments 2 * 0.98^(m-1)
        # are still above tol, so the sum would turn inf * w^m = nan
        with pytest.raises(OverflowError, match=r"s = 0\.51 .* at term 1024;"):
            forward_transform(lambda m: 2.0**m, 0.51)
        # inside |1-s| < 0.5 by a margin the same rule sums to 1/(s - 0.5)
        assert forward_transform(lambda m: 2.0**m, 0.9) == pytest.approx(2.5, rel=1e-10)

    CASES = {
        "step": (step_sequence, [0.5, 0.9 + 0.3j]),
        "impulse": (pair(1).sequence, [0.3 + 0.4j, 1.5]),
        "geometric": (pair(7, lam=0.3).sequence, [0.8, 1.2 - 0.3j]),
        "mittag-leffler": (invert_fractional(_ML_FORM).values, [0.7, 1.1 + 0.2j]),
        "table-row-6": (pair(6, gamma=0.5, alpha=0.5).sequence, [0.4, 1.0 + 0.8j]),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_matches_per_step_sum(self, name):
        # same increments and stop; a value may differ from the per-step call
        # in its last ulps (numpy's power on an array against Python's)
        rule, points = self.CASES[name]
        for s in points:
            want, _terms = forward_sum_per_step(rule, s)
            got = forward_transform(rule, s)
            assert abs(got - want) <= 1e-13 * (1.0 + abs(want)), s

    def test_rule_is_called_once_per_doubling_block(self):
        # |1-s| = 0.99: about 2300 terms before five fall below tol
        _, terms = forward_sum_per_step(step_sequence, 0.01)
        rule = CountingRule(step_sequence)
        forward_transform(rule, 0.01)
        steps = np.concatenate(rule.calls)
        n = len(steps)
        np.testing.assert_array_equal(steps, np.arange(1, n + 1))
        assert terms <= n < 2 * terms
        assert len(rule.calls) <= math.log2(terms) + 1


class TestNumericInverse:
    def test_impulse_pair(self):
        got = numeric_inverse(lambda s: 1.0, 1, rho=0.5, nodes=64)
        assert got == pytest.approx(1.0, abs=1e-13)

    def test_example_third_step(self):
        got = numeric_inverse(example1(), 3, rho=0.5, nodes=256)
        assert got.real == pytest.approx(-1.6875, abs=1e-9)
        assert abs(got.imag) < 1e-12

    def test_fractional_atom_first_step(self):
        form = FractionalSumForm((FractionalAtom(1.0, 0.5, 0.5, 0.2),))
        got = numeric_inverse(form, 1, rho=0.5, nodes=512)
        assert got.real == pytest.approx(1.25, abs=1e-6)

    def test_node_floor(self):
        with pytest.raises(ValueError):
            numeric_inverse(example1(), 10, nodes=32)

    def test_rho_must_fit_roc(self):
        rf = RationalFunction(Polynomial([1.0]), Polynomial([-0.6, 1.0]))  # 1/(s-0.6)
        with pytest.raises(ValueError, match=r"rho = 0.5 .*\(\|1-s\| < 0.4\)"):
            numeric_inverse(rf, 2, rho=0.5)
        with pytest.raises(ValueError):
            numeric_inverse(rf, 2, rho=0.4)
        assert numeric_inverse(rf, 2, rho=0.2).real == pytest.approx(0.4 ** -2)

    def test_circle_must_stay_inside_constraints(self):
        # the radius of a fractional sum and of a table pair bounds rho as well
        form = FractionalSumForm((FractionalAtom(1.0, 0.5, 0.5, 0.6),))  # radius 0.64
        with pytest.raises(ValueError):
            numeric_inverse(form, 2, rho=0.7)
        with pytest.raises(ValueError):
            numeric_inverse(pair(4, gamma=2.0), 2, rho=0.5)  # radius 0.5

    def test_node_doubling_stability(self):
        base = numeric_inverse(example1(), 5, rho=0.5, nodes=256)
        double = numeric_inverse(example1(), 5, rho=0.5, nodes=512)
        assert abs(base - double) < 1e-10

    def test_invalid_step(self):
        with pytest.raises(ValueError):
            numeric_inverse(example1(), 0)


def trapezoid_coefficient(F, m, rho, nodes):
    """The trapezoid sum for f(a+m) written out for one step, without an FFT."""
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    values = np.array([complex(F(1.0 - rho * np.exp(1j * t))) for t in theta])
    return complex(np.mean(values * rho ** (-(m - 1)) * np.exp(-1j * (m - 1) * theta)))


class TestQuadratureGrid:
    FORM = FractionalSumForm((FractionalAtom(1.0, 0.5, 0.5, 0.2),
                              FractionalAtom(-1.0, 0.7, 0.5, 0.3)))

    @pytest.mark.parametrize("F", [example1(), FORM], ids=["rational", "fractional"])
    def test_grid_matches_per_step_inverse(self, F):
        rho, nodes = 0.45, 512
        grid = quadrature_grid(F, 40, rho=rho, nodes=nodes)
        assert grid.shape == (40,)
        for m in (1, 2, 7, 23, 40):
            assert grid[m - 1] == numeric_inverse(F, m, rho=rho, nodes=nodes)
        self._assert_trapezoid_sums(F, grid, rho, nodes)

    PAIR = FractionalSumForm((FractionalAtom(0.5 + 0.2j, 0.6, 0.8, 0.3 + 0.2j),
                              FractionalAtom(0.5 - 0.2j, 0.6, 0.8, 0.3 - 0.2j),
                              FractionalAtom(-1.0, 0.7, 0.5, 0.3)))

    @staticmethod
    def _grid_and_sample_counts(F, nodes, monkeypatch, rho=0.45):
        """quadrature_grid(F, 40) and the number of points of each call of F,
        counted through F's class."""
        sizes = []
        call = type(F).__call__
        monkeypatch.setattr(type(F), "__call__",
                            lambda self, s: sizes.append(np.size(s)) or call(self, s))
        grid = quadrature_grid(F, 40, rho=rho, nodes=nodes)
        monkeypatch.undo()
        return grid, sizes

    @staticmethod
    def _assert_trapezoid_sums(F, grid, rho, nodes):
        # both sums round at eps * max|F| on the circle, times rho^-(m-1)
        fmax = max(abs(complex(F(1.0 - rho * np.exp(1j * t)))) for t in np.linspace(0, 7, 300))
        for m in (1, 2, 7, 23, 40):
            direct = trapezoid_coefficient(F, m, rho, nodes)
            assert abs(grid[m - 1] - direct) <= 1e-13 * fmax * rho ** -(m - 1)

    @pytest.mark.parametrize("nodes", [512, 513, 160, 161])
    @pytest.mark.parametrize("F", [example1(), PAIR], ids=["rational", "conjugate-pair"])
    def test_real_F_is_sampled_on_half_the_circle(self, F, nodes, monkeypatch):
        assert F.is_real is True
        grid, sizes = self._grid_and_sample_counts(F, nodes, monkeypatch)
        assert sizes == [nodes // 2 + 1]
        assert grid.shape == (40,) and grid.dtype == complex
        assert not grid.imag.any()
        self._assert_trapezoid_sums(F, grid, 0.45, nodes)

    @pytest.mark.parametrize("nodes", [512, 161])
    @pytest.mark.parametrize("F", [
        FractionalSumForm((FractionalAtom(1.0, 0.5, 0.5, 0.2 + 0.3j),)),
        RationalFunction(Polynomial([1.0]), Polynomial([-(0.3 + 0.2j), 1.0])),
    ], ids=["unpaired-lambda", "complex-rational"])
    def test_complex_F_keeps_the_full_circle(self, F, nodes, monkeypatch):
        assert F.is_real is False
        grid, sizes = self._grid_and_sample_counts(F, nodes, monkeypatch)
        assert sizes == [nodes]
        assert np.max(np.abs(grid.imag)) > 1e-2 * np.max(np.abs(grid))
        self._assert_trapezoid_sums(F, grid, 0.45, nodes)

    @pytest.mark.parametrize("lam, samples", [(0.3, 257), (0.3 + 0.2j, 512)])
    def test_pairs_by_their_parameters_and_callables_keep_the_full_circle(
            self, lam, samples, monkeypatch):
        """A table pair is real when its parameters are; a plain function
        states no realness."""
        F = pair(7, lam=lam)
        grid, sizes = self._grid_and_sample_counts(F, 512, monkeypatch, rho=0.4)
        assert sizes == [samples]
        self._assert_trapezoid_sums(F, grid, 0.4, 512)

        def f(s):
            sizes.append(np.size(s))
            return 1.0 / (s + 0.5)

        sizes.clear()
        grid = quadrature_grid(f, 40, rho=0.4, nodes=512)
        assert sizes == [512]
        self._assert_trapezoid_sums(f, grid, 0.4, 512)

    def test_default_radius(self):
        # poles -1 (double, distance 2) and 2 (simple, distance 1): R = 1, p = 2
        assert default_rho(example1(), 8) == pytest.approx(0.8)
        assert default_rho(self.FORM, 3) == pytest.approx(
            (1.0 - 0.3 ** (1.0 / 0.7)) * 3.0 / 4.0)
        assert default_rho(lambda s: 1.0, 3) == 0.5
        # row 8 with N = 3: a triple pole at distance 0.7; pole-free F uses R = 1
        assert default_rho(pair(8, lam=0.3, N=3), 6) == pytest.approx(0.7 * 6 / 9)
        assert default_rho(RationalFunction(Polynomial([2.0]), Polynomial([1.0])), 3) == 0.75

    def test_long_grid_is_accurate_at_default_radius(self):
        """At rho = 0.5 the kernel rho^-(k-a-1) magnified rounding to 1e44 at
        k = 200; near the singularity distance it stays at the sequence's size."""
        cf = invert_partial_fractions(example1())
        want = cf.values(np.arange(1, 201)).real
        got = quadrature_grid(example1(), 200)
        assert np.max(np.abs(got.real - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_node_floor(self):
        with pytest.raises(ValueError):
            quadrature_grid(example1(), 10, nodes=39)
        assert quadrature_grid(example1(), 10, nodes=40).shape == (10,)


class TestFractionalIsReal:
    """A sum of atoms is real when its atoms are closed under exact
    conjugation; then, and only then here, F(conj s) = conj F(s)."""

    @pytest.mark.parametrize("atoms, real", [
        ([(1.0, 0.5, 0.5, 0.2), (-2.0, 0.7, 0.5, -0.3)], True),
        ([(0.5 + 0.2j, 0.6, 0.8, 0.3 + 0.2j), (0.5 - 0.2j, 0.6, 0.8, 0.3 - 0.2j)], True),
        ([(1.0, 0.5, 0.5, 0.2 + 0.3j)], False),
        ([(0.5 + 0.2j, 0.6, 0.8, 0.3 + 0.2j), (0.5 + 0.2j, 0.6, 0.8, 0.3 - 0.2j)], False),
        ([(0.5 + 0.2j, 0.6, 0.8, 0.3 + 0.2j), (0.5 - 0.2j, 0.7, 0.8, 0.3 - 0.2j)], False),
    ], ids=["real-lambda", "conjugate-pair", "unpaired-lambda", "non-conjugate-coefficients",
            "conjugates-of-another-alpha"])
    def test_is_real(self, atoms, real):
        form = FractionalSumForm(tuple(FractionalAtom(*a) for a in atoms))
        assert form.is_real is real
        s = np.array([0.4 + 0.3j, 1.2 - 0.5j, 0.9 + 0.05j])
        symmetric = np.allclose(form(s.conj()), form(s).conj(), rtol=1e-14, atol=0)
        assert symmetric is real


class TestOracleClosure:
    def test_quadrature_matches_closed_forms(self, rng):
        """rho = half the pole gap (capped 0.9), nodes = max(256, 8(k-a))."""
        for _ in range(25):
            rf, _roots = random_real_rational_from_factors(rng, min_dist_from_one=0.3)
            cf = invert_partial_fractions(rf)
            rho = min(0.9, rf.radius / 2.0)
            values = cf.values(np.arange(1, 21)).real
            scale = max(1.0, float(np.max(np.abs(values))))
            for m in (1, 2, 5, 11, 20):
                q = numeric_inverse(rf, m, rho=rho, nodes=max(256, 8 * m))
                assert abs(q.real - values[m - 1]) <= 1e-8 * scale

    def test_forward_of_quadrature_values_returns_transform(self, rng):
        for _ in range(8):
            rf, _roots = random_real_rational_from_factors(rng, min_dist_from_one=0.4)

            def seq(m):
                return quadrature_grid(rf, int(np.max(m)))[m - 1]

            radius = min(1.0, rf.radius) * 0.35
            for angle in (0.4, 2.1, 4.0):
                s = 1.0 - radius * np.exp(1j * angle)
                direct = rf.evaluate(s)
                total = forward_transform(seq, s, tol=1e-10)
                assert abs(total - direct) <= 1e-6 * (1.0 + abs(direct))


class TestInitialValue:
    def test_example(self):
        assert initial_value(example1()).real == pytest.approx(-2.25)

    def test_fractional_pair(self):
        # (0.2 - 0.3)/(1 - 0.2 - 0.3 + 0.06) = -0.1/0.56
        def combined(s):
            return (0.2 * s**0.2 - 0.3) / (s**1.2 - 0.2 * s**0.7 - 0.3 * s**0.5 + 0.06)

        assert initial_value(combined).real == pytest.approx(-0.17857142857142855, abs=1e-12)
        form = FractionalSumForm((
            FractionalAtom(1.0, 0.5, 0.5, 0.2),
            FractionalAtom(-1.0, 0.7, 0.5, 0.3),
        ))
        assert initial_value(form).real == pytest.approx(-0.17857142857142855, abs=1e-12)

    def test_reciprocal(self):
        rf = RationalFunction(Polynomial([1.0]), Polynomial([0.0, 1.0]))
        assert initial_value(rf) == pytest.approx(1.0)

    def test_pole_at_one(self):
        rf = RationalFunction(Polynomial([1.0]), Polynomial([-1.0, 1.0]))
        with pytest.raises(PoleAtOneError):
            initial_value(rf)

    def test_matches_first_sequence_value(self, rng):
        for _ in range(15):
            rf, _roots = random_real_rational_from_factors(rng)
            cf = invert_partial_fractions(rf)
            iv = initial_value(rf)
            assert cf.evaluate(1) == pytest.approx(iv.real, abs=1e-9 * (1 + abs(iv)))


class TestZCorrespondence:
    """The forward series of a pair's sequence against the z-transform
    G(z) = sum_{k>=0} g(k) z^-k of g(k) = f(k+1), a = 0, written out: with
    z^-1 = 1 - s the nabla sum is the z-sum, so the series is G(1/(1-s))."""

    @staticmethod
    def mismatch(seq, G, s):
        return abs(forward_transform(seq, s) - G(1.0 / (1.0 - s)))

    def test_unit_step(self):
        assert self.mismatch(step_sequence, lambda z: z / (z - 1.0), 0.5) <= 1e-12

    def test_divergence_detected(self):
        # |1 - s| = 1.5 lies outside the step's disk: the series diverges
        with pytest.raises(ConvergenceError):
            forward_transform(step_sequence, 2.5)

    @pytest.mark.parametrize("s", [0.55, 0.7, 0.9, 1.2 + 0.2j, 1.0 - 0.4j])
    def test_geometric_row(self, s):
        r = 1.0 / (1.0 - 0.3)
        assert self.mismatch(pair(7, lam=0.3).sequence, lambda z: r * z / (z - r), s) <= 1e-10

    @pytest.mark.parametrize("s", [0.6, 0.8, 1.1, 1.0 + 0.3j, 0.9 - 0.2j])
    def test_sine_row(self, s):
        w = math.pi / 6
        G = lambda z: z * math.sin(w) / (z * z - 2.0 * z * math.cos(w) + 1.0)
        assert self.mismatch(pair(13, omega=w).sequence, G, s) <= 1e-10


class TestRoundTripError:
    def test_matching_pair_is_near_zero(self):
        tp = pair(7, lam=0.3)
        points = sample_points(tp.radius, count=5)
        assert round_trip_error(tp.sequence, tp.transform, points) < 1e-12

    def test_reports_the_worst_relative_gap(self):
        # the unit step's series is 1/s; measured against 2/s the gap is
        # |1/s| / max(1, |2/s|), largest at the point nearest s = 0
        points = [0.6, 0.9, 1.2]
        got = round_trip_error(step_sequence, lambda s: 2.0 / s, points)
        assert got == pytest.approx(max(abs(1 / s) / max(1.0, abs(2 / s)) for s in points),
                                    rel=1e-10)


class TestSharedBlocks:
    # |1-s| from 0.1 to 0.5: the step's sums need two or three blocks
    POINTS = [0.9, 0.7, 0.5, 0.6, 0.8]

    @staticmethod
    def per_point(rule, F, points):
        """The round-trip measure with a fresh, unshared rule at each point."""
        worst = 0.0
        for s in points:
            total = forward_transform(rule, s)
            direct = complex(F(s))
            worst = max(worst, abs(total - direct) / max(1.0, abs(direct)))
        return worst

    def test_each_block_is_read_once(self):
        reach = []
        for s in self.POINTS:
            rule = CountingRule(step_sequence)
            forward_transform(rule, s)
            reach.append([(int(c[0]), c.size) for c in rule.calls])
        farthest = max(reach, key=len)
        assert len(farthest) == 3 and sum(map(len, reach)) == 12
        rule = CountingRule(step_sequence)
        round_trip_error(rule, lambda s: 1.0 / s, self.POINTS)
        assert [(int(c[0]), c.size) for c in rule.calls] == farthest

    @pytest.mark.parametrize("case", ["step", "mittag-leffler", "rational", "row-6"])
    def test_matches_unshared_sums_bit_for_bit(self, case):
        if case == "step":
            rule, F, points = step_sequence, lambda s: 2.0 / s, self.POINTS
        elif case == "mittag-leffler":
            rule, F = invert_fractional(_ML_FORM).values, _ML_FORM
            points = sample_points(_ML_FORM.radius, count=5)
        elif case == "rational":
            F = example1()
            rule = invert_partial_fractions(F).values
            points = sample_points(F.radius, count=5)
        else:
            tp = pair(6, gamma=0.5, alpha=0.5)
            rule, F, points = tp.sequence, tp.transform, sample_points(tp.radius, count=5)
        assert round_trip_error(rule, F, points) == self.per_point(rule, F, points)

    def test_forward_transform_is_called_once_per_point(self, monkeypatch):
        calls = []
        original = verify.forward_transform

        def counting(seq, s, **kwargs):
            calls.append(s)
            return original(seq, s, **kwargs)

        monkeypatch.setattr(verify, "forward_transform", counting)
        round_trip_error(step_sequence, lambda s: 1.0 / s, self.POINTS)
        assert calls == self.POINTS

    def test_failing_block_raises_at_the_same_point(self):
        def rule(m):
            if m[0] >= 34:
                raise ValueError(f"no values from step {m[0]}")
            return step_sequence(m)

        def run(measure):
            seen = []

            def F(s):
                seen.append(s)
                return 1.0 / s

            with pytest.raises(ValueError) as info:
                measure(rule, F, [0.9, 0.7, 0.5, 0.6])
            return str(info.value), seen

        # 0.9 and 0.7 end within two blocks; 0.5 is the first to need a third
        assert run(round_trip_error) == run(self.per_point) == (
            "no values from step 34", [0.9, 0.7])

    def test_truncation_warning_points_at_the_caller(self):
        rule = shared_blocks(step_sequence)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            forward_transform(rule, 0.01, tol=1e-14, n_max=50)
            forward_transform(rule, 0.02, tol=1e-14, n_max=50)
        assert [w.category for w in caught] == [TruncationWarning] * 2
        lines = [linecache.getline(w.filename, w.lineno).strip() for w in caught]
        assert [w.filename for w in caught] == [__file__] * 2
        assert lines == ["forward_transform(rule, 0.01, tol=1e-14, n_max=50)",
                         "forward_transform(rule, 0.02, tol=1e-14, n_max=50)"]


def _least_smooth(n):
    """The least 2^a 3^b 5^c at or above n, found by trial division."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _never_sampled(s):
    raise AssertionError("F must not be sampled")


class TestNodeCeiling:
    def test_nodes_above_the_ceiling_fail_before_any_allocation(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="--nodes.*--k"):
                quadrature_grid(_never_sampled, 3, nodes=MAX_NODES + 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_a_default_count_is_refused_only_where_the_unrounded_one_would_be(self):
        """MAX_NODES = 2^24 is itself 5-smooth: an unrounded count 32 (m_max + 1)
        just below it rounds up to it, and the first one past it, at m_max =
        2^19, is refused with its rounded count."""
        assert _least_smooth(32 * 524287) == MAX_NODES == 32 * 524288
        with pytest.raises(ValueError, match=f"^nodes = {_least_smooth(32 * 524289)} is above"):
            quadrature_grid(_never_sampled, 524288)


class TestDefaultNodes:
    """The default node count is the least 2^a 3^b 5^c at or above
    max(256, 32 (m_max + 1)), a length whose FFT has no large prime factor;
    a count that is given is used as given."""

    @staticmethod
    def _nodes(m_max, nodes=None):
        """The node count of quadrature_grid(f, m_max), read from the one call
        of a plain function f, which is sampled on the whole circle."""
        sizes = []
        quadrature_grid(lambda s: sizes.append(np.size(s)) or 1.0 / (s + 0.5), m_max,
                        nodes=nodes)
        return sizes[0]

    @pytest.mark.parametrize("m_max", [1, 7, 10, 96, 200, 1000])
    def test_default_is_the_least_smooth_count_at_or_above_the_old_one(self, m_max):
        old = max(256, 32 * (m_max + 1))
        assert old <= self._nodes(m_max) == _least_smooth(old)

    def test_rounding_takes_k_1e5_to_a_smooth_length(self):
        # 32 (1e5 + 1) = 3 200 032 has the prime factor 9091
        assert verify._smooth(3_200_032) == _least_smooth(3_200_032) == 3_240_000

    @pytest.mark.parametrize("nodes", [161, 3104])
    def test_given_count_is_kept(self, nodes):
        assert _least_smooth(nodes) != nodes
        assert self._nodes(40, nodes=nodes) == nodes


class TestOrientation:
    def test_self_test_passes(self):
        orientation_check()
