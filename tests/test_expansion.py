"""Partial fraction expansion: golden coefficients, reconstruction, linearity."""

import pytest

from nablainv import (
    PoleAtOneError,
    Polynomial,
    RationalFunction,
    classify,
    expand,
    parse_expression,
)
from conftest import example1, random_real_rational_from_factors, rational_from_factors


def _simple_as_dict(pfe):
    return {complex(round(p.real, 8), round(p.imag, 8)): r for p, r in pfe.simple_terms}


class TestGoldenExample:
    def test_decomposition_coefficients(self):
        # 9/((s+1)^2 (s-2)) = 1/(s-2) - 1/(s+1) - 3/(s+1)^2
        pfe = expand(example1())
        assert pfe.impulse_part == ()
        ((pole, r),) = pfe.simple_terms
        assert pole == pytest.approx(2.0, abs=1e-10)
        assert r == pytest.approx(1.0, abs=1e-10)
        multi = {order: q for _pole, order, q in pfe.multiple_terms}
        assert multi[1] == pytest.approx(-1.0, abs=1e-10)
        assert multi[2] == pytest.approx(-3.0, abs=1e-10)
        assert all(abs(p - (-1.0)) < 1e-10 for p, _o, _q in pfe.multiple_terms)


class TestSimpleCases:
    def test_already_partial_fraction(self):
        rf = RationalFunction(Polynomial([1.0]), Polynomial([-0.3, 1.0]))
        pfe = expand(rf)
        assert pfe.multiple_terms == () and pfe.impulse_part == ()
        ((pole, r),) = pfe.simple_terms
        assert pole == pytest.approx(0.3) and r == pytest.approx(1.0)

    def test_two_simple_poles_residues(self):
        # (2s-1)/((s-2)(s-3)): residues n(s_i)/d'(s_i) = -3 and 5
        rf = rational_from_factors([-1.0, 2.0], [(2.0, 1), (3.0, 1)])
        got = _simple_as_dict(expand(rf))
        assert got[(2 + 0j)] == pytest.approx(-3.0, rel=1e-12)
        assert got[(3 + 0j)] == pytest.approx(5.0, rel=1e-12)

    def test_pole_at_one_rejected(self):
        rf = RationalFunction(Polynomial([1.0]), Polynomial([-1.0, 1.0]))
        with pytest.raises(PoleAtOneError):
            expand(rf)


class TestImproperInputs:
    def test_constant_becomes_impulse(self):
        rf = RationalFunction(Polynomial([4.0]), Polynomial([1.0]))
        pfe = expand(rf)
        assert pfe.simple_terms == () and pfe.multiple_terms == ()
        assert pfe.impulse_part == ((0, (4 + 0j)),)

    def test_polynomial_quotient_in_one_minus_s(self):
        # s/(s-2) = 1 + 2/(s-2); the quotient 1 is one impulse weight
        rf = RationalFunction(Polynomial([0.0, 1.0]), Polynomial([-2.0, 1.0]))
        pfe = expand(rf)
        assert pfe.impulse_part == ((0, (1 + 0j)),)
        ((pole, r),) = pfe.simple_terms
        assert pole == pytest.approx(2.0) and r == pytest.approx(2.0)

    def test_improper_reconstruction(self, rng):
        for _ in range(20):
            den_roots = [complex(rng.uniform(1.5, 3.0), 0)]
            num = rng.uniform(-2, 2, int(rng.integers(2, 5)))
            num[-1] = 1.0
            rf = RationalFunction(Polynomial(num), Polynomial.from_roots(den_roots))
            pfe = expand(rf)
            for _p in range(10):
                s = complex(rng.uniform(-2, 1.2), rng.uniform(-2, 2))
                direct = rf.evaluate(s)
                assert abs(pfe.evaluate(s) - direct) <= 1e-8 * (1.0 + abs(direct))


class TestReconstruction:
    def test_random_rationals_reconstruct(self, rng):
        """Summing all expansion terms reproduces F at 20 random points."""
        for _ in range(60):
            rf, roots = random_real_rational_from_factors(rng, max_degree=8)
            pfe = expand(rf)
            checked = 0
            while checked < 20:
                s = complex(rng.uniform(-2.5, 3.5), rng.uniform(-2.5, 2.5))
                # repeated-pole terms amplify error like 1/d^mult near a pole,
                # so sample only where F is well conditioned
                if min(abs(s - r) for r in roots) < 0.25:
                    continue
                direct = rf.evaluate(s)
                assert abs(pfe.evaluate(s) - direct) <= 1e-8 * (1.0 + abs(direct))
                checked += 1

    def test_nearby_multiple_poles_reconstruct(self):
        """Triple and double real poles 0.32 apart, order-1 terms near +-1310.

        The residues are ~3e5 times |F|, so a deflated denominator that keeps
        a perturbed copy of the other pole shows up in the reconstruction.
        """
        rf = rational_from_factors(
            [-2.8630794477529053, -0.8930906034101538],
            [(1.7469892794483584 + 0j, 3), (2.06760960433547 + 0j, 2)],
        )
        pfe = expand(rf)
        for s in (-1.34 + 0.58j, 0.51 + 0.54j, 2.86 + 1.39j):
            direct = rf.evaluate(s)
            assert abs(pfe.evaluate(s) - direct) <= 1e-8 * (1.0 + abs(direct))
        # numerator degree <= denominator degree - 2: s F(s) -> 0, so the
        # order-1 coefficients of all poles sum to zero
        q1 = [q for _pole, order, q in pfe.multiple_terms if order == 1]
        assert len(q1) == 2
        assert abs(sum(q1)) <= 1e-12 * max(abs(q) for q in q1)

    def test_triple_conjugate_pair_reconstructs(self):
        """Triple conjugate pair beside two simple real poles, terms near 7e4.

        Recentering the expanded product of the other factors at each pole
        loses enough to break the bound here; shifting each factor first
        does not.
        """
        z = 1.6930638236116151 + 0.3692657886863366j
        rf = rational_from_factors(
            [2.8991747608855434, -4.459062421290348, -1.307136939055801,
             -4.15105227834532, -3.064724185344856, -2.8613300930785277,
             3.5864193216590436, -3.732450202816946],
            [(2.28431870913172 + 0j, 1), (z, 3), (z.conjugate(), 3),
             (1.7481308551550843 + 0j, 1)],
        )
        pfe = expand(rf)
        for s in (-0.14 - 0.76j, 0.5 + 1.5j, -2.0 + 0j):
            direct = rf.evaluate(s)
            assert abs(pfe.evaluate(s) - direct) <= 1e-8 * (1.0 + abs(direct))

    def test_orders_complete_for_multiple_poles(self, rng):
        rf = rational_from_factors([1.0], [(0.5j, 3), (-0.5j, 3), (2.0, 1)])
        pfe = expand(rf)
        by_pole = {}
        for pole, order, _q in pfe.multiple_terms:
            by_pole.setdefault(round(pole.imag, 6), set()).add(order)
        assert by_pole[0.5] == {1, 2, 3}
        assert by_pole[-0.5] == {1, 2, 3}


class TestSimplePoleResidueFormula:
    def test_residue_equals_num_over_denominator_derivative(self, rng):
        """For simple poles the two independent residue formulas agree."""
        for _ in range(40):
            roots = []
            while len(roots) < 4:
                z = complex(rng.uniform(-2, 3), rng.uniform(-2, 2))
                if abs(z - 1) > 0.2 and all(abs(z - r) > 0.35 for r in roots):
                    roots.append(z)
            num = rng.uniform(-3, 3, 3)
            rf = RationalFunction(Polynomial(num), Polynomial.from_roots(roots))
            dprime = rf.denominator.derivative()
            for pole, r in expand(rf).simple_terms:
                alt = rf.numerator(pole) / dprime(pole)
                assert abs(r - alt) <= 1e-9 * (1.0 + abs(alt))


class TestLinearity:
    def test_disjoint_pole_sets_merge(self, rng):
        for _ in range(20):
            f = rational_from_factors(rng.uniform(-2, 2, 2), [(2.2, 1), (-0.7, 1)])
            g = rational_from_factors(rng.uniform(-2, 2, 1), [(0.4 + 0.8j, 1), (0.4 - 0.8j, 1)])
            total = RationalFunction(
                f.numerator * g.denominator + g.numerator * f.denominator,
                f.denominator * g.denominator,
            )
            merged = {**_simple_as_dict(expand(f)), **_simple_as_dict(expand(g))}
            got = _simple_as_dict(expand(total))
            assert set(got) == set(merged)
            for pole, r in merged.items():
                assert abs(got[pole] - r) <= 1e-9 * (1.0 + abs(r))


class TestRealInput:
    def test_real_f_has_conjugate_residues_by_construction(self):
        rf = classify(parse_expression(
            "(s^4-1)/((s^2-3.28*s+2.768)^2*(s^2-3.2*s+5.6225)*(s-1.93)*(s+0.5))")).rational
        pfe = expand(rf)
        simple = dict(pfe.simple_terms)
        for pole, r in simple.items():
            if pole.imag == 0:
                assert r.imag == 0
            else:
                assert simple[pole.conjugate()] == r.conjugate()
        multiple = {(p, n): q for p, n, q in pfe.multiple_terms}
        assert len(multiple) == 4
        for (pole, n), q in multiple.items():
            assert multiple[(pole.conjugate(), n)] == q.conjugate()
        for s in (0.3 + 0.2j, -1.5, 2.5 - 1j):
            direct = rf.evaluate(s)
            assert abs(pfe.evaluate(s) - direct) <= 1e-8 * (1.0 + abs(direct))
