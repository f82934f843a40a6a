"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Tolerances that compare sequence values are scaled by the largest magnitude
over the step grid (sequences here legitimately reach 1e16, where raw
absolute thresholds are finer than float64 spacing); O(1) reference values
keep their absolute tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from nablainv import (
    FractionalAtom,
    Kind,
    MittagLefflerParams,
    classify,
    discrete_mittag_leffler,
    expand,
    forward_transform,
    initial_value,
    invert_fractional,
    invert_inside,
    invert_outside,
    invert_partial_fractions,
    numeric_inverse,
    parse_expression,
    reference_pairs,
    sample_points,
    pair,
)
from nablainv.cli import main as cli_main
from conftest import example1, example1_closed_form, random_coefficient_rational

EX2_TEXT = "1/(s^0.5-0.2) - s^0.2/(s^0.7-0.3)"


@contextmanager
def criterion(number, label, budget_seconds=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {label}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget_seconds is not None and elapsed >= budget_seconds:
        print(f"ACCEPTANCE {number} {label}: FAIL (runtime {elapsed:.2f}s)")
        raise AssertionError(f"runtime {elapsed:.2f}s exceeds {budget_seconds}s")
    timing = f" ({elapsed:.2f}s)" if budget_seconds is not None else ""
    print(f"ACCEPTANCE {number} {label}: PASS{timing}")


def test_criterion_1_example_one_golden():
    """Expansion coefficients and all three strategies on 9/((s+1)^2(s-2))."""
    with criterion(1, "rational golden example", budget_seconds=1.0):
        rf = example1()
        simple, *repeated = expand(rf)
        assert simple.order == 1
        assert abs(simple.pole - 2.0) <= 1e-10 and abs(simple.coefficient - 1.0) <= 1e-10
        q = {t.order: t.coefficient for t in repeated}
        assert abs(q[1] - (-1.0)) <= 1e-10
        assert abs(q[2] - (-3.0)) <= 1e-10
        assert all(abs(t.pole - (-1.0)) <= 1e-10 for t in repeated)

        inside = invert_inside(rf, 30).real
        outside = invert_outside(rf)
        table = invert_partial_fractions(rf)
        for m in range(1, 31):
            reference = example1_closed_form(m)
            a = inside[m - 1]
            b = outside.evaluate(m)
            c = table.evaluate(m)
            assert abs(a - b) <= 1e-9
            assert abs(a - c) <= 1e-9
            assert abs(b - c) <= 1e-9
            assert abs(a - reference) <= 1e-9


def test_criterion_2_example_two_golden():
    """Fractional-sum inversion produces the Mittag-Leffler pair exactly."""
    with criterion(2, "fractional golden example", budget_seconds=5.0):
        cls = classify(parse_expression(EX2_TEXT))
        assert cls.kind is Kind.FRACTIONAL_SUM
        form = cls.fractional
        cf = invert_fractional(form)
        assert len(cf.terms) == 2
        first, second = cf.terms
        assert isinstance(first, FractionalAtom)
        assert first.coefficient == 1 and second.coefficient == -1
        assert (first.alpha, first.beta) == (0.5, 0.5)
        assert first.lam == pytest.approx(0.2, abs=1e-12)
        assert (second.alpha, second.beta) == pytest.approx((0.7, 0.5))
        assert second.lam == pytest.approx(0.3, abs=1e-12)

        expected_first = 1 / 0.8 - 1 / 0.7
        assert cf.evaluate(1) == pytest.approx(expected_first, abs=1e-12)
        iv = initial_value(form)
        assert abs(cf.evaluate(1) - iv.real) <= 1e-9
        for m in range(1, 11):
            quad = numeric_inverse(form, m)
            assert abs(quad.real - cf.evaluate(m)) <= 1e-6


def test_criterion_3_pair_table_round_trip():
    """Forward transform of each tabulated sequence matches its F(s)."""
    with criterion(3, "pair table round trip", budget_seconds=10.0):
        pairs = reference_pairs()
        assert sorted({tp.row for tp in pairs}) == list(range(1, 17))
        for tp in pairs:
            for s in sample_points(tp.radius, count=8):
                total = forward_transform(tp.sequence, s)
                direct = complex(tp.transform(s))
                assert abs(total - direct) <= 1e-6 * max(1.0, abs(direct)), tp.describe()


def test_criterion_4_strategy_equivalence_suite():
    """200 random strictly proper rationals: all routes and the oracle agree."""
    with criterion(4, "strategy equivalence suite", budget_seconds=30.0):
        rng = np.random.default_rng(424242)
        for _case in range(200):
            rf = random_coefficient_rational(rng, max_degree=6,
                                             min_dist_from_one=0.15, bound=5.0)
            inside = invert_inside(rf, 20).real
            outside = invert_outside(rf)
            table = invert_partial_fractions(rf)
            out_vals = np.array([outside.evaluate(m) for m in range(1, 21)])
            tab_vals = np.array([table.evaluate(m) for m in range(1, 21)])
            scale = max(1.0, float(np.max(np.abs(inside))))
            assert np.max(np.abs(inside - out_vals)) <= 1e-8 * scale
            assert np.max(np.abs(inside - tab_vals)) <= 1e-8 * scale
            assert np.max(np.abs(out_vals - tab_vals)) <= 1e-8 * scale
            for m in range(1, 21):
                quad = numeric_inverse(rf, m)
                assert abs(quad.real - inside[m - 1]) <= 1e-8 * scale
            iv = initial_value(rf)
            assert abs(out_vals[0] - iv.real) <= 1e-8 * max(1.0, abs(iv))


def test_criterion_5_mittag_leffler_identities():
    """Order reductions and special slices of the discrete series."""
    with criterion(5, "Mittag-Leffler identities"):
        for lam in (0.2, -0.5, 0.5j):
            p = MittagLefflerParams(1.0, 1.0, lam)
            for m in range(1, 21):
                expected = (1.0 - lam) ** (-m)
                got = discrete_mittag_leffler(p, m)
                assert abs(got - expected) <= 1e-10 * abs(expected)

        lam = 0.37
        for alpha in (0.3, 0.5, 0.7, 1.2):
            for beta in (0.3, 0.5, 0.7, 1.2):
                got = discrete_mittag_leffler(MittagLefflerParams(alpha, beta, lam), 1)
                expected = 1.0 / (1.0 - lam)
                assert abs(got - expected) <= 1e-10 * abs(expected)

        import mpmath

        # lambda = 0 leaves the rising power m^(rising beta-1)/Gamma(beta):
        # bit for bit pair-table row 5's rule, and within 1e-15 of 40 digits
        with mpmath.workdps(40):
            for alpha, beta in ((0.5, 0.5), (0.7, 1.3), (1.2, 0.4), (0.4, 2.0)):
                p = MittagLefflerParams(alpha, beta, 0.0)
                for m in (1, 2, 5, 9):
                    got = discrete_mittag_leffler(p, m)
                    assert got == pair(5, alpha=beta - 1).sequence(m)
                    want = mpmath.rf(m, mpmath.mpf(beta) - 1) / mpmath.gamma(beta)
                    assert abs(got - complex(want)) <= 1e-15 * abs(complex(want))


def _z_transforms():
    """(pair, G) for rows 2, 7 (lambda = 0.3, -0.5) and 13: G(z) is the
    z-transform sum_{k>=0} g(k) z^-k of g(k) = f(k+1), a = 0, from the
    z-transform table, not from the pair."""
    import math

    w = math.pi / 6

    def geometric(lam):
        r = 1.0 / (1.0 - lam)  # g(k) = r^(k+1)
        return lambda z: r * z / (z - r)

    return [(pair(2), lambda z: z / (z - 1.0)),
            (pair(7, lam=0.3), geometric(0.3)),
            (pair(7, lam=-0.5), geometric(-0.5)),
            (pair(13, omega=w),
             lambda z: z * math.sin(w) / (z * z - 2.0 * z * math.cos(w) + 1.0))]


def _z_mismatch(F, G, radius):
    """max |F(s) - G(1/(1-s))| / max(1, |G|) over the pair's sample points:
    with z^-1 = 1 - s the nabla sum of f is the z-sum of g."""
    out = 0.0
    for s in sample_points(radius, count=5):
        g = G(1.0 / (1.0 - s))
        out = max(out, abs(F(s) - g) / max(1.0, abs(g)))
    return out


def test_criterion_6_z_correspondence():
    """F(s) of rows 2, 7 and 13 against the z-transform of f(k+1) at z = 1/(1-s)."""
    with criterion(6, "z-transform correspondence"):
        for tp, G in _z_transforms():
            assert _z_mismatch(tp.transform, G, tp.radius) <= 1e-12, tp.describe()


def test_criterion_6_fails_a_perturbed_transform():
    """A transform off by a relative 1e-3 fails criterion 6's check."""
    for tp, G in _z_transforms():
        off = lambda s, F=tp.transform: F(s) * (1.0 + 1e-3)
        assert _z_mismatch(off, G, tp.radius) > 1e-12, tp.describe()


def test_criterion_7_rejection_behavior(capsys):
    """Pole-at-1 and irrational inputs fail with diagnostics and exit code 1."""
    with criterion(7, "rejection diagnostics"):
        from nablainv import PoleAtOneError, UnsupportedExpressionError

        rf_bad = classify(parse_expression("1/(s-1)")).rational
        with pytest.raises(PoleAtOneError):
            invert_partial_fractions(rf_bad)
        with pytest.raises(PoleAtOneError):
            invert_inside(rf_bad, 5)
        with pytest.raises(UnsupportedExpressionError):
            parse_expression("1/(exp(s)-0.5)")

        for args, needle in (
            (["invert", "--expr", "1/(s-1)", "--k", "1..5"], "pole"),
            (["invert", "--expr", "1/(exp(s)-0.5)", "--k", "1..5"], "essential"),
            (["verify", "--expr", "1/(s-1)", "--k", "1..5"], "pole"),
        ):
            code = cli_main(args)
            captured = capsys.readouterr()
            assert code == 1, args
            assert captured.out == "", "values must not be emitted"
            assert needle in captured.err
