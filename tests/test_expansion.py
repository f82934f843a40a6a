"""Partial fraction expansion: golden coefficients, reconstruction, linearity."""

import pytest

from nablainv import (
    ImpulseTerm,
    PoleAtOneError,
    PolyGeometricTerm,
    Polynomial,
    RationalFunction,
    classify,
    expand,
    expansion,
    parse_expression,
)
from conftest import example1, random_real_rational_from_factors, rational_from_factors


def _reconstruct(terms, s):
    """F(s) summed from the expansion's terms: c (1-s)^n for an impulse of
    shift n, c / (s-p)^n for a pole term of order n."""
    s = complex(s)
    total = 0j
    for t in terms:
        if isinstance(t, ImpulseTerm):
            total += t.coefficient * (1.0 - s) ** t.shift
        else:
            total += t.coefficient / (s - t.pole) ** t.order
    return total


def _residues(terms):
    """{pole rounded to 8 places: residue} of an F whose poles are all simple."""
    assert all(t.order == 1 for t in terms)
    return {complex(round(t.pole.real, 8), round(t.pole.imag, 8)): t.coefficient
            for t in terms}


class TestGoldenExample:
    def test_decomposition_coefficients(self):
        # 9/((s+1)^2 (s-2)) = 1/(s-2) - 1/(s+1) - 3/(s+1)^2
        simple, *repeated = expand(example1())
        assert simple.order == 1
        assert simple.pole == pytest.approx(2.0, abs=1e-10)
        assert simple.coefficient == pytest.approx(1.0, abs=1e-10)
        multi = {t.order: t.coefficient for t in repeated}
        assert multi[1] == pytest.approx(-1.0, abs=1e-10)
        assert multi[2] == pytest.approx(-3.0, abs=1e-10)
        assert all(abs(t.pole - (-1.0)) < 1e-10 for t in repeated)


class TestTermOrder:
    def test_impulses_then_simple_poles_then_repeated_poles(self):
        """The impulses by shift, then each simple pole, then each repeated
        pole at orders 1..N, the poles in the order of ``rf.poles``."""
        rf = classify(parse_expression("(s^5+1)/((s+0.5)^2*(s-2)*(s-3))")).rational
        terms = expand(rf)
        assert [type(t).__name__ for t in terms] == [
            "ImpulseTerm", "ImpulseTerm", "PolyGeometricTerm", "PolyGeometricTerm",
            "PolyGeometricTerm", "PolyGeometricTerm"]
        assert [t.shift for t in terms[:2]] == [0, 1]
        assert [t.order for t in terms[2:]] == [1, 1, 1, 2]
        simple = [p.value for p in rf.poles if p.multiplicity == 1]
        (double,) = [p.value for p in rf.poles if p.multiplicity == 2]
        assert [t.pole for t in terms[2:]] == simple + [double, double]
        for s in (0.3 + 0.2j, -1.5, 2.5 - 1j):
            direct = rf.evaluate(s)
            assert abs(_reconstruct(terms, s) - direct) <= 1e-8 * (1.0 + abs(direct))

    def test_vanishing_coefficients_are_left_out(self):
        # 1/(s-2)^2 has the order-1 coefficient 0, and 0*s/(s-3) no term at all
        rf = rational_from_factors([1.0], [(2.0, 2)])
        (term,) = expand(rf)
        assert (term.order, term.coefficient) == (2, 1)
        assert expand(classify(parse_expression("0*s/(s-3)")).rational) == ()


class TestSimpleCases:
    def test_already_partial_fraction(self):
        rf = RationalFunction(Polynomial([1.0]), Polynomial([-0.3, 1.0]))
        (term,) = expand(rf)
        assert isinstance(term, PolyGeometricTerm) and term.order == 1
        assert term.pole == pytest.approx(0.3) and term.coefficient == pytest.approx(1.0)

    def test_two_simple_poles_residues(self):
        # (2s-1)/((s-2)(s-3)): residues n(s_i)/d'(s_i) = -3 and 5
        rf = rational_from_factors([-1.0, 2.0], [(2.0, 1), (3.0, 1)])
        got = _residues(expand(rf))
        assert got[(2 + 0j)] == pytest.approx(-3.0, rel=1e-12)
        assert got[(3 + 0j)] == pytest.approx(5.0, rel=1e-12)

    def test_pole_at_one_rejected(self):
        rf = RationalFunction(Polynomial([1.0]), Polynomial([-1.0, 1.0]))
        with pytest.raises(PoleAtOneError):
            expand(rf)


class TestImproperInputs:
    def test_constant_becomes_impulse(self):
        rf = RationalFunction(Polynomial([4.0]), Polynomial([1.0]))
        assert expand(rf) == (ImpulseTerm(4 + 0j, 0),)

    def test_polynomial_quotient_in_one_minus_s(self):
        # s/(s-2) = 1 + 2/(s-2); the quotient 1 is one impulse weight
        rf = RationalFunction(Polynomial([0.0, 1.0]), Polynomial([-2.0, 1.0]))
        impulse, term = expand(rf)
        assert impulse == ImpulseTerm(1 + 0j, 0)
        assert term.order == 1
        assert term.pole == pytest.approx(2.0) and term.coefficient == pytest.approx(2.0)

    def test_improper_reconstruction(self, rng):
        for _ in range(20):
            den_roots = [complex(rng.uniform(1.5, 3.0), 0)]
            num = rng.uniform(-2, 2, int(rng.integers(2, 5)))
            num[-1] = 1.0
            rf = RationalFunction(Polynomial(num), Polynomial.from_roots(den_roots))
            terms = expand(rf)
            for _p in range(10):
                s = complex(rng.uniform(-2, 1.2), rng.uniform(-2, 2))
                direct = rf.evaluate(s)
                assert abs(_reconstruct(terms, s) - direct) <= 1e-8 * (1.0 + abs(direct))


class TestReconstruction:
    def test_random_rationals_reconstruct(self, rng):
        """Summing all expansion terms reproduces F at 20 random points."""
        for _ in range(60):
            rf, roots = random_real_rational_from_factors(rng, max_degree=8)
            terms = expand(rf)
            checked = 0
            while checked < 20:
                s = complex(rng.uniform(-2.5, 3.5), rng.uniform(-2.5, 2.5))
                # repeated-pole terms amplify error like 1/d^mult near a pole,
                # so sample only where F is well conditioned
                if min(abs(s - r) for r in roots) < 0.25:
                    continue
                direct = rf.evaluate(s)
                assert abs(_reconstruct(terms, s) - direct) <= 1e-8 * (1.0 + abs(direct))
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
        terms = expand(rf)
        for s in (-1.34 + 0.58j, 0.51 + 0.54j, 2.86 + 1.39j):
            direct = rf.evaluate(s)
            assert abs(_reconstruct(terms, s) - direct) <= 1e-8 * (1.0 + abs(direct))
        # numerator degree <= denominator degree - 2: s F(s) -> 0, so the
        # order-1 coefficients of all poles sum to zero
        q1 = [t.coefficient for t in terms if t.order == 1]
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
        terms = expand(rf)
        for s in (-0.14 - 0.76j, 0.5 + 1.5j, -2.0 + 0j):
            direct = rf.evaluate(s)
            assert abs(_reconstruct(terms, s) - direct) <= 1e-8 * (1.0 + abs(direct))

    def test_orders_complete_for_multiple_poles(self, rng):
        rf = rational_from_factors([1.0], [(0.5j, 3), (-0.5j, 3), (2.0, 1)])
        terms = expand(rf)
        by_pole = {}
        for t in terms:
            by_pole.setdefault(round(t.pole.imag, 6), set()).add(t.order)
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
            for t in expand(rf):
                assert t.order == 1
                alt = rf.numerator(t.pole) / dprime(t.pole)
                assert abs(t.coefficient - alt) <= 1e-9 * (1.0 + abs(alt))


class TestLinearity:
    def test_disjoint_pole_sets_merge(self, rng):
        for _ in range(20):
            f = rational_from_factors(rng.uniform(-2, 2, 2), [(2.2, 1), (-0.7, 1)])
            g = rational_from_factors(rng.uniform(-2, 2, 1), [(0.4 + 0.8j, 1), (0.4 - 0.8j, 1)])
            total = RationalFunction(
                f.numerator * g.denominator + g.numerator * f.denominator,
                f.denominator * g.denominator,
            )
            merged = {**_residues(expand(f)), **_residues(expand(g))}
            got = _residues(expand(total))
            assert set(got) == set(merged)
            for pole, r in merged.items():
                assert abs(got[pole] - r) <= 1e-9 * (1.0 + abs(r))


class TestRealInput:
    def test_real_f_has_conjugate_residues_by_construction(self):
        rf = classify(parse_expression(
            "(s^4-1)/((s^2-3.28*s+2.768)^2*(s^2-3.2*s+5.6225)*(s-1.93)*(s+0.5))")).rational
        terms = expand(rf)
        repeated = {t.pole for t in terms if t.order > 1}
        simple = {t.pole: t.coefficient for t in terms if t.pole not in repeated}
        for pole, r in simple.items():
            if pole.imag == 0:
                assert r.imag == 0
            else:
                assert simple[pole.conjugate()] == r.conjugate()
        multiple = {(t.pole, t.order): t.coefficient for t in terms if t.pole in repeated}
        assert len(multiple) == 4
        for (pole, n), q in multiple.items():
            assert multiple[(pole.conjugate(), n)] == q.conjugate()
        for s in (0.3 + 0.2j, -1.5, 2.5 - 1j):
            direct = rf.evaluate(s)
            assert abs(_reconstruct(terms, s) - direct) <= 1e-8 * (1.0 + abs(direct))

    def test_lower_members_of_pairs_of_orders_one_to_three_are_conjugated(self, monkeypatch):
        """A real F's conjugate pole pairs of orders 1, 2 and 3: only the upper
        member of each is computed, and the lower one's coefficients are its
        conjugates, bit for bit; a non-real F computes both members."""
        computed = []
        principal_part = expansion._principal_part

        def spy(c, zeros, poles, i):
            computed.append(poles[i].value)
            return principal_part(c, zeros, poles, i)

        monkeypatch.setattr(expansion, "_principal_part", spy)
        text = "(s+0.5)/((s^2-0.6*s+0.25)*(s^2+0.4*s+0.53)^2*(s^2-3*s+2.5)^3*(s-2))"
        rf = classify(parse_expression(text)).rational
        assert rf.is_real
        terms = {(t.pole, t.order): t.coefficient for t in expand(rf)}
        lower = {rc.value: rc.multiplicity for rc in rf.poles if rc.value.imag < 0}
        assert sorted(lower.values()) == [1, 2, 3]
        assert set(computed) == {p for p in (rc.value for rc in rf.poles) if p not in lower}
        assert len(computed) == 4
        for (pole, n), q in terms.items():
            if pole in lower:
                upper = terms[(pole.conjugate(), n)]
                assert (q.real.hex(), q.imag.hex()) == (upper.real.hex(), (-upper.imag).hex())

        computed.clear()
        rf = classify(parse_expression(f"(1+1j)*({text})")).rational
        assert not rf.is_real
        expand(rf)
        assert len(computed) == 7 and set(computed) == {rc.value for rc in rf.poles}
