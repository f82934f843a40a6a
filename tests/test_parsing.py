"""Expression grammar, classification, and pretty-print canonicity."""

import math

import numpy as np
import pytest

from nablainv import (
    ExpressionSyntaxError,
    Kind,
    UnsupportedExpressionError,
    classify,
    invert_fractional,
    parse_expression,
    pretty,
    reference_pairs,
)
from nablainv import Polynomial, parsing
from nablainv.parsing import BinOp, Neg, Num, Pow, Var, _read
from conftest import REFUSED


class TestParseExamples:
    def test_rational_input(self):
        cls = classify(parse_expression("9/((s+1)^2*(s-2))"))
        assert cls.kind is Kind.RATIONAL
        assert cls.rational.denominator.degree == 3
        assert cls.rational.evaluate(1.0) == pytest.approx(-2.25)

    def test_fractional_input(self):
        cls = classify(parse_expression("1/(s^0.5-0.2) - s^0.2/(s^0.7-0.3)"))
        assert cls.kind is Kind.FRACTIONAL_SUM
        atoms = cls.fractional.atoms
        assert len(atoms) == 2
        assert (atoms[0].coefficient, atoms[0].alpha, atoms[0].beta) == (1, 0.5, 0.5)
        assert atoms[0].lam == pytest.approx(0.2)
        assert atoms[1].coefficient == -1
        assert atoms[1].alpha == pytest.approx(0.7)
        assert atoms[1].beta == pytest.approx(0.5)
        assert atoms[1].lam == pytest.approx(0.3)

    def test_irrational_rejected(self):
        with pytest.raises(UnsupportedExpressionError):
            parse_expression("1/(e^s-0.5)")
        with pytest.raises(UnsupportedExpressionError):
            parse_expression("1/(exp(s)-0.5)")
        with pytest.raises(UnsupportedExpressionError):
            parse_expression("sin(s)")


class TestGrammar:
    def test_power_binds_tighter_than_unary_minus(self):
        node = parse_expression("-s^2")
        assert isinstance(node, Neg) and isinstance(node.operand, Pow)

    def test_negative_exponent(self):
        node = parse_expression("s^-0.5")
        assert isinstance(node, Pow) and node.exponent == -0.5

    def test_constant_folding(self):
        assert parse_expression("2^-3") == Num(0.125)
        assert parse_expression("sin(0)") == Num(0.0)
        assert parse_expression("10/7").value.real == pytest.approx(10 / 7)

    def test_rational_exponent(self):
        node = parse_expression("s^(10/7)")
        assert isinstance(node, Pow)
        assert node.exponent == pytest.approx(10 / 7)

    def test_imaginary_literals(self):
        assert parse_expression("0.5j") == Num(0.5j)
        assert parse_expression("2*j").value == 2j
        assert parse_expression("pi").value.real == pytest.approx(math.pi)

    def test_scientific_notation(self):
        assert parse_expression("2e3") == Num(2000.0)

    def test_trivial_powers_normalize(self):
        assert parse_expression("s^1") == Var()
        assert parse_expression("s^0") == Num(1.0)

    def test_no_implicit_multiplication(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("2 s")


class TestSyntaxErrors:
    def test_position_and_expectation(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_expression("9/((s+1)^2*(s-2")
        assert err.value.line == 1
        assert err.value.column == 16
        assert "')'" in err.value.expected

    def test_empty(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("   ")

    def test_unknown_identifier(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_expression("1/(x-2)")
        assert "s" in err.value.expected

    def test_unexpected_character(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_expression("s + @")
        assert err.value.column == 5

    def test_division_by_constant_zero(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("1/(2-2)")


class TestTokenPositions:
    """Line and column of tokens and errors past the first line, and the
    number forms the lexer reads."""

    def test_tokens_of_a_multiline_input(self):
        tokens = parsing._tokenize("1.e5*s\r\n\t+ .5/(s-3j)\n")
        assert [tuple(tok) for tok in tokens] == [
            ("number", "1.e5", 1e5 + 0j, 1, 1),
            ("op", "*", 0j, 1, 5),
            ("ident", "s", 0j, 1, 6),
            ("op", "+", 0j, 2, 2),
            ("number", ".5", 0.5 + 0j, 2, 4),
            ("op", "/", 0j, 2, 6),
            ("lparen", "(", 0j, 2, 7),
            ("ident", "s", 0j, 2, 8),
            ("op", "-", 0j, 2, 9),
            ("number", "3j", 3j, 2, 10),
            ("rparen", ")", 0j, 2, 12),
            ("end", "", 0j, 3, 1),
        ]

    @pytest.mark.parametrize("text, line, column", [
        ("s +\n @", 2, 2),  # after a newline
        ("1/(s-2)\r\n+ x", 2, 3),  # '\r' is a column, '\n' ends the line
        ("s\t@", 1, 3),  # a tab is one column
        ("s\n\n\t\t+ @", 3, 5),
    ])
    def test_error_positions(self, text, line, column):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_expression(text)
        assert (err.value.line, err.value.column) == (line, column)

    @pytest.mark.parametrize("text, line, column", [
        ("s +", 1, 4),
        ("s *\n  ", 2, 3),
        ("(s\r\n", 2, 1),
    ])
    def test_end_of_input_position(self, text, line, column):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_expression(text)
        assert str(err.value).startswith("unexpected end of input")
        assert (err.value.line, err.value.column) == (line, column)

    @pytest.mark.parametrize("text, value", [
        ("1.e5", 1e5), (".5", 0.5), ("3j", 3j), ("1e-3j", 1e-3j), ("2.5E+2", 250.0),
        ("7.", 7.0),
    ])
    def test_number_forms(self, text, value):
        assert parse_expression(text) == Num(complex(value))

    def test_exponent_without_digits_ends_the_number(self):
        # 2e is the number 2 and then an identifier e, which no operator joins
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_expression("2e")
        assert str(err.value).startswith("unexpected 'e'")
        assert (err.value.line, err.value.column) == (1, 2)


class TestClassification:
    def test_pure_fractional_power_is_atom(self):
        cls = classify(parse_expression("1/s^1.5"))
        assert cls.kind is Kind.FRACTIONAL_SUM
        (atom,) = cls.fractional.atoms
        assert atom.lam == 0 and atom.beta == pytest.approx(1.5)

    def test_positive_fractional_power_is_candidate(self):
        assert classify(parse_expression("s^0.5")).kind is Kind.TABLE_CANDIDATE

    def test_squared_atom_is_candidate(self):
        cls = classify(parse_expression("1/(s^0.5-0.2)^2"))
        assert cls.kind is Kind.TABLE_CANDIDATE

    def test_linear_base_power_is_candidate(self):
        cls = classify(parse_expression("1/(1-0.5+0.5*s)^1.5"))
        assert cls.kind is Kind.TABLE_CANDIDATE

    def test_nonlinear_base_unsupported(self):
        cls = classify(parse_expression("(s^2+1)^0.5"))
        assert cls.kind is Kind.UNSUPPORTED
        assert "non-linear base" in cls.reason

    def test_every_reference_transform_is_classified(self):
        for tp in reference_pairs():
            cls = classify(parse_expression(tp.transform_text))
            assert cls.kind is not Kind.UNSUPPORTED, tp.transform_text

    def test_mixed_atom_and_rational_term(self):
        cls = classify(parse_expression("1/(s^0.5-0.2) + 1/(s-0.3)"))
        assert cls.kind is Kind.FRACTIONAL_SUM
        alphas = sorted(a.alpha for a in cls.fractional.atoms)
        assert alphas == [0.5, 1.0]

    def test_linear_denominator_is_an_alpha_one_atom(self):
        # c0 + c1*s is c1*(s - lam), lam = -c0/c1; the atom takes c/c1
        (atom,) = classify(parse_expression("s^0.5/(2*s-0.6)")).fractional.atoms
        (want,) = classify(parse_expression("0.5*s^0.5/(s-0.3)")).fractional.atoms
        assert atom == want
        assert math.copysign(1.0, atom.lam.imag) == 1.0  # +0.0, as the literal's
        (atom,) = classify(parse_expression("-3*s^-0.2/(0.5-2*s)")).fractional.atoms
        assert (atom.coefficient, atom.alpha, atom.beta, atom.lam) == (1.5, 1.0, 1.2, 0.25)
        # a linear factor beside a pole, squared or in the numerator stays no atom
        for text in ("s^0.5/((2*s-0.6)*(s^0.5-0.2))", "s^0.5/(2*s-0.6)^2",
                     "s^-0.5*(2*s-0.6)"):
            assert classify(parse_expression(text)).kind is Kind.TABLE_CANDIDATE, text

    def test_lambda_outside_unit_disk_raises(self):
        from nablainv import ParameterDomainError

        with pytest.raises(ParameterDomainError):
            classify(parse_expression("1/(s^0.5-2)"))


class TestPinnedClassifications:
    """Classes and atoms, bit for bit, of shapes whose reading has its own
    branch: the kind, then each atom as (coefficient, alpha, beta, lambda)."""

    ATOMS = [
        ("1/(-0.2+s^0.5)", [((1.0, 0.0), 0.5, 0.5, (0.2, 0.0))]),
        ("(s^0.5-0.2)^-1", [((1.0, 0.0), 0.5, 0.5, (0.2, 0.0))]),
        ("-(1/(s^0.5-0.2))", [((-1.0, 0.0), 0.5, 0.5, (0.2, 0.0))]),
        ("1/(s^0.5-0.2)^1", [((1.0, 0.0), 0.5, 0.5, (0.2, 0.0))]),
        ("s^0.25^2/(s^0.5-0.1)", [((1.0, 0.0), 0.5, 0.4375, (0.1, 0.0))]),
        ("1/(s^0.5)^2", [((1.0, 0.0), 1.0, 1.0, (0.0, 0.0))]),
        ("0/(s^0.5-0.2)", [((0.0, 0.0), 0.5, 0.5, (0.2, 0.0))]),
        ("1/(s^0.5-0.2)-1/(s^0.5-0.2)", [((1.0, 0.0), 0.5, 0.5, (0.2, 0.0)),
                                         ((-1.0, 0.0), 0.5, 0.5, (0.2, 0.0))]),
        ("1/(0.3-s^0.5)", [((-1.0, 0.0), 0.5, 0.5, (0.3, 0.0))]),
        ("1/(s^0.5+0.2)", [((1.0, 0.0), 0.5, 0.5, (-0.2, -0.0))]),
        ("s^0.5/(2*s-0.6)", [((0.5, 0.0), 1.0, 0.5, (0.3, 0.0))]),
        ("-(s^0.5)/(-(s^0.7-0.3))", [((1.0, 0.0), 0.7, 0.19999999999999996, (0.3, 0.0))]),
        ("1/(s^0.5-(0.2+0.1j))", [((1.0, 0.0), 0.5, 0.5, (0.2, 0.1))]),
    ]

    @pytest.mark.parametrize("text, atoms", ATOMS, ids=[case[0] for case in ATOMS])
    def test_atoms_bit_for_bit(self, text, atoms):
        cls = classify(parse_expression(text))
        assert cls.kind is Kind.FRACTIONAL_SUM
        got = [(_bits([a.coefficient]), a.alpha.hex(), a.beta.hex(), _bits([a.lam]))
               for a in cls.fractional.atoms]
        assert got == [(_bits([complex(*c)]), float(alpha).hex(), float(beta).hex(),
                        _bits([complex(*lam)])) for c, alpha, beta, lam in atoms]

    @pytest.mark.parametrize("text, kind", [
        ("1/(s^1.0-0.3)", Kind.RATIONAL),  # s^1.0 is s
        ("1/(s^0.5-0.2)^-1", Kind.TABLE_CANDIDATE),  # the atom base in the numerator
        ("1/s^-0.5", Kind.TABLE_CANDIDATE),  # a positive power of s
        ("(0.3+0.7*s)^-1.5", Kind.TABLE_CANDIDATE),
        ("(s+1)^-0.5/(s-2)", Kind.TABLE_CANDIDATE),
        ("1/(s^2-0.25)^0.5", Kind.UNSUPPORTED),
    ])
    def test_kinds(self, text, kind):
        assert classify(parse_expression(text)).kind is kind

    @pytest.mark.parametrize("text", ["1/(s^0.5-0.2)^-1", "1/s^-0.5", "(s+1)^-0.5/(s-2)"])
    def test_no_strategy(self, text, capsys):
        from nablainv.cli import main

        assert main(["invert", f"--expr={text}"]) == 1
        assert capsys.readouterr().err.startswith("error: no inversion strategy applies")

    def test_complex_lambda_is_no_real_sequence(self, capsys):
        from nablainv.cli import main

        assert main(["invert", "--expr=1/(s^0.5-(0.2+0.1j))"]) == 1
        assert capsys.readouterr().err == REFUSED

    def test_nonlinear_base_reason(self):
        cls = classify(parse_expression("1/(s^2-0.25)^0.5"))
        assert cls.reason.startswith("fractional power of a non-linear base: ")


class TestShapesTheOneReaderInverts:
    """Atom sums written so that no reader before the one form inverted them:
    an atom base c1*s^alpha + c0 with c1 != 1 or with its power negated, a
    power of a product, and a constant times a sum of atoms or of poles.
    Each reads as its written-out atom sum."""

    CASES = [
        ("1/(2*s^0.5-0.4)", "0.5/(s^0.5-0.2)"),
        ("1/(0.2-2*s^0.5)", "-0.5/(s^0.5-0.1)"),
        ("-2/(-s^0.5+0.2)", "2/(s^0.5-0.2)"),
        ("-2/(-(2*s^0.5)+0.4)", "1/(s^0.5-0.2)"),
        ("1/(-2*s^0.5+0.4)", "-0.5/(s^0.5-0.2)"),
        ("s^0.5/(2*s^1.5+0.6)", "0.5*s^0.5/(s^1.5+0.3)"),
        ("(2*(s^0.5-0.2))^-1", "0.5/(s^0.5-0.2)"),
        ("(0.5*s^0.5)^-3", "8*s^-1.5"),
        ("2*(1/(s^0.5-0.2)+1/(s^0.7-0.3))", "2/(s^0.5-0.2)+2/(s^0.7-0.3)"),
        ("(1/(s^0.5-0.2)-s^-0.5)/4", "0.25/(s^0.5-0.2)-0.25*s^-0.5"),
        ("2*(1/(s-0.3)+1/(s+0.4))+1/(s^0.5-0.2)", "2/(s-0.3)+2/(s+0.4)+1/(s^0.5-0.2)"),
    ]

    @pytest.mark.parametrize("text, written", CASES, ids=[case[0] for case in CASES])
    def test_reads_as_the_written_atom_sum(self, text, written):
        got, want = (classify(parse_expression(t)) for t in (text, written))
        assert got.kind is want.kind is Kind.FRACTIONAL_SUM
        assert len(got.fractional.atoms) == len(want.fractional.atoms)
        for a, b in zip(got.fractional.atoms, want.fractional.atoms):
            assert (a.alpha, a.beta) == pytest.approx((b.alpha, b.beta), rel=1e-15)
            assert complex(a.coefficient) == pytest.approx(complex(b.coefficient), rel=1e-15)
            assert complex(a.lam) == pytest.approx(complex(b.lam), rel=1e-15)
        ks = np.arange(1, 41)
        assert invert_fractional(got.fractional).values(ks).real \
            == pytest.approx(invert_fractional(want.fractional).values(ks).real, rel=1e-13,
                             abs=1e-15)


class TestPretty:
    CORPUS = [
        "9/((s+1)^2*(s-2))",
        "1/(s^0.5-0.2) - s^0.2/(s^0.7-0.3)",
        "-s^2+3*s-1/(2*s)",
        "(1-s)/(1-2*0.5*(1-s)+(1-s)^2)",
        "s^-1.5",
        "1/(s--0.5)",
    ] + [tp.transform_text for tp in reference_pairs()]

    @pytest.mark.parametrize("text", CORPUS)
    def test_roundtrip_idempotent(self, text):
        once = pretty(parse_expression(text))
        twice = pretty(parse_expression(once))
        assert once == twice

    @pytest.mark.parametrize("text", CORPUS)
    def test_roundtrip_preserves_ast(self, text):
        first = parse_expression(text)
        again = parse_expression(pretty(first))
        assert first == again

    def test_rendering(self):
        assert pretty(parse_expression("1/(s-0.3)")) == "1/(s-0.3)"
        assert pretty(parse_expression("(s+1)^2")) == "(s+1)^2"


def _factors(text):
    return _read(parse_expression(text))[0]


def _summands(text):
    """The summands of the one reading as (sign, c, {base: exponent}), s as
    "s", an atom or degree-one base as (alpha, lam, flip, [c0, c1] or None)
    and any other base as "other"."""
    out = []
    for sign, c, factors in parsing._terms(_read(parse_expression(text))):
        named = {}
        for base, e in factors.items():
            if base == parsing._S:
                base = "s"
            elif isinstance(base, parsing._Base):
                base = (base.alpha, base.lam, base.flip,
                        None if base.q is None else tuple(base.scale * np.array(base.q)))
            else:
                base = "other"
            named[base] = e
        out.append((sign, c, named))
    return out


class TestFactoredRational:
    def test_products_combine_exponents_only(self):
        c, f = _factors("-2*(s-1)^2/(s+3)*(s-1)/s")
        assert c == -2
        assert f == {(-1, 1): 3, (3, 1): -1, (0, 1): -1}

    def test_identical_factors_cancel(self):
        assert _factors("(s-1.77)/(s-1.77)") == (1, {})
        assert _factors("(s-1.77)^2/(s-1.77)^3*(s-1.77)") == (1, {})

    def test_sum_over_the_common_denominator(self):
        # 1/(s-1) + 1/(s-1)^2 = s/(s-1)^2: the denominator at the larger
        # exponent, the numerator multiplied out into one factor
        assert _factors("1/(s-1) + 1/(s-1)^2") == (1, {(0, 1): 1, (-1, 1): -2})
        c, f = _factors("3/(s-2) - 1/(s+1)")  # (2s + 5)/((s-2)(s+1))
        assert c == 2 and f == {(2.5, 1): 1, (-2, 1): -1, (1, 1): -1}

    def test_sum_numerators_drop_or_vanish(self):
        assert _factors("s/(s+1) - (s-1)/(s+1)") == (1, {(1, 1): -1})
        assert _factors("1/(s-0.5) - 1/(s-0.5)") == (0, {})
        assert _factors("(s-2)/(s-3) - 1/(s-3)") == (1, {})

    def test_identically_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            _read(parse_expression("1/(s-s)"))
        with pytest.raises(ZeroDivisionError):
            _read(parse_expression("(1/(s-2) - 1/(s-2))^-2"))

    def test_degree_one_bases(self):
        # a non-integer power of c0 + c1*s keeps the written coefficients
        ((_, c, f),) = _summands("(1-0.5+0.5*s)^-1.5")
        assert c == 1 and f == {(None, None, None, (0.5, 0.5)): -1.5}
        ((_, c, f),) = _summands("(2*(3-s))^0.5")
        assert c == 1 and f == {(None, None, None, (6, -2)): 0.5}
        # a power of a power of s is one power of s
        assert _summands("(s^2)^0.5") == [(1.0, 1, {"s": 1.0})]
        assert _summands("(s^0.5)^0.5") == [(1.0, 1, {"s": 0.25})]
        assert _read(parse_expression("(s^2)^0.5"))[2]
        assert not _read(parse_expression("(2*(3-s))^0.5"))[2]
        assert not _read(parse_expression("s^0.5"))[2]

    def test_summand_form(self):
        pole = lambda alpha, lam, flip=1.0: (alpha, lam, flip, None)
        assert _summands("2*s^0.5/(s^0.7-0.3)") == [(1.0, 2, {"s": 0.5, pole(0.7, 0.3): -1})]
        # 1 - s is the alpha = 1 base -(s - 1), with its coefficients
        assert _summands("0.5*s^-0.5*(1-s)/(0.3-s^0.5)^2") == [
            (1.0, 0.5, {"s": -0.5, (1.0, 1, -1.0, (1, -1)): 1, pole(0.5, 0.3, -1.0): -2})]
        assert _summands("1/(s^1.5+0.2)") == [(1.0, 1, {pole(1.5, -0.2): -1})]
        assert _summands("(s^0.5)^3/s") == [(1.0, 1, {"s": 0.5})]
        assert _summands("1/(2-s)^1.5") == [(1.0, 1, {(1.0, 2, -1.0, (2, -1)): -1.5})]
        assert _summands("(s^2+1)^0.5") == [(1.0, 1, {pole(2.0, -1): 0.5})]
        assert _read(parse_expression("(s^2+1)^0.5"))[2]
        assert _summands("1/((s^0.5-0.2)*(s^0.7-0.3))") \
            == [(1.0, 1, {pole(0.5, 0.2): -1, pole(0.7, 0.3): -1})]
        assert _summands("(s^0.5-0.2)/s") == [(1.0, 1, {pole(0.5, 0.2): 1, "s": -1})]
        # a sum that is no atom base is a base of its own, each time anew
        ((_, _, f),) = parsing._terms(_read(parse_expression("(s^0.5+s^0.7)/(s^0.5+s^0.7)")))
        assert list(f.values()) == [1, -1]

    def test_summand_form_of_nested_quotients_and_negations(self):
        # a factor under two '/' is a numerator factor
        assert _summands("1/(1/(s^0.5-0.2))") == [(1.0, 1, {(0.5, 0.2, 1.0, None): 1})]
        assert _summands("2/(s^0.5*(s^0.7-0.3))") \
            == [(1.0, 2, {"s": -0.5, (0.7, 0.3, 1.0, None): -1})]
        # the two negations cancel in the constant
        assert _summands("-(s^0.5)/(-(s^0.7-0.3))") \
            == [(1.0, 1, {"s": 0.5, (0.7, 0.3, 1.0, None): -1})]
        # negations and differences of a sum go into the summands' signs
        assert [(sign, c) for sign, c, _ in _summands("-(1/(s^0.5-0.2)-s^-0.5)")] \
            == [(-1.0, 1), (1.0, 1)]

    def test_constants_spread_over_sums_that_are_no_base(self):
        assert [c for _, c, _ in _summands("2*(1/(s^0.5-0.2)+1/(s^0.7-0.3))")] == [2, 2]
        assert [c for _, c, _ in _summands("(1/(s^0.5-0.2)+s^-0.5)/4")] == [0.25, 0.25]
        # a sum that is one base stays one factor, and only a constant spreads
        assert _summands("2*(s^0.5-0.2)") == [(1.0, 2, {(0.5, 0.2, 1.0, None): 1})]
        assert _summands("2*(s-0.3)") == [(1.0, 2, {(1.0, 0.3, 1.0, (-0.3, 1)): 1})]
        assert len(_summands("s^0.5*(1/(s-1)+1/(s-2))")) == 1

    def test_atom_base_normalizes_its_power_coefficient(self):
        # c1*s^alpha + c0 = c1 * (s^alpha - lam)
        assert _summands("2*s^0.5-0.4") == [(1.0, 2, {"s": 0.5}), (-1.0, 0.4, {})]
        assert _summands("1/(2*s^0.5-0.4)") == [(1.0, 0.5, {(0.5, 0.2, 1.0, None): -1})]

    def test_monic_factors_key_by_value(self):
        assert Polynomial([-0.0, 1.0]) in {Polynomial([0.0, 1.0]): 1}


def _bits(values):
    """Each complex value as the hex of its parts: equal when bit for bit
    equal, signed zeros included."""
    return [(float(z.real).hex(), float(z.imag).hex()) for z in values]


class TestSumShapes:
    """The rational reading of written sums, pinned bit for bit: the constant and
    each factor's coefficients, in order, as (real, imag) pairs, as the
    numerator used to be multiplied out by ``Polynomial.product``."""

    PINNED = [
        ("s-s", (0.0, 0.0), []),
        ("s^2-s^2+1", (1.0, 0.0), []),
        ("(s-1)*(s+2)+3", (1.0, 0.0), [
            ([(1.0, 0.0), (1.0, 0.0), (1.0, 0.0)], 1),
        ]),
        ("1/(2*s^2-0.6*s+0.04)", (0.5, 0.0), [
            ([(0.02, 0.0), (-0.3, 0.0), (1.0, 0.0)], -1),
        ]),
        ("1/(0*s+s-0.5)", (1.0, 0.0), [
            ([(-0.5, 0.0), (1.0, 0.0)], -1),
        ]),
        ("1/(s-0.5)+1/(0.5-s)", (0.0, 0.0), []),
        ("(s-(0.5+1j))*(s-(0.5-1j))+1", (1.0, 0.0), [
            ([(2.25, 0.0), (-1.0, 0.0), (1.0, 0.0)], 1),
        ]),
        ("s^2-2.14*s+1.3474", (1.0, 0.0), [
            ([(1.3474, 0.0), (-2.14, 0.0), (1.0, 0.0)], 1),
        ]),
        # partial-fraction sums as the rational-long benchmark writes them;
        # the conjugate pair is added first, and the numerator is real
        ("-2.68/(s-1.55) + (2.82-0.97j)/(s-(-0.65-1.45j))"
         " + (2.82+0.97j)/(s-(-0.65+1.45j))", (2.9599999999999995, 0.0), [
            ([(-2.7328209459459463, 0.0), (-3.84222972972973, 0.0), (1.0, 0.0)], 1),
            ([(-1.55, 0.0), (1.0, 0.0)], -1),
            ([(0.65, 1.45), (1.0, 0.0)], -1),
            ([(0.65, -1.45), (1.0, 0.0)], -1),
        ]),
        ("1.74/(s-3.99) - 1.90/(s-2.27) - 0.71/(s-2.79) - 0.97/(s+1.01)",
         (-1.8399999999999999, 0.0), [
            ([(-4.2306645, -0.0), (18.305069565217394, -0.0),
              (-8.925000000000004, -0.0), (1.0, 0.0)], 1),
            ([(-3.99, 0.0), (1.0, 0.0)], -1),
            ([(-2.27, 0.0), (1.0, 0.0)], -1),
            ([(-2.79, 0.0), (1.0, 0.0)], -1),
            ([(1.01, 0.0), (1.0, 0.0)], -1),
        ]),
        # signed zeros: a negated constant keeps -0.0, the monic division
        # gives it, and a sum of zeros is +0.0
        ("1/(-s^2-1)", (-1.0, -0.0), [
            ([(1.0, -0.0), (-0.0, -0.0), (1.0, 0.0)], -1),
        ]),
        ("1/(s^2+1) - 1/(s^2-1)", (-2.0, 0.0), [
            ([(1.0, 0.0), (0.0, 0.0), (1.0, 0.0)], -1),
            ([(-1.0, 0.0), (0.0, 0.0), (1.0, 0.0)], -1),
        ]),
        ("-s*(s-2)+s^3", (1.0, 0.0), [
            ([(0.0, 0.0), (2.0, 0.0), (-1.0, 0.0), (1.0, 0.0)], 1),
        ]),
    ]

    @pytest.mark.parametrize("text, constant, factors", PINNED,
                             ids=[case[0] for case in PINNED])
    def test_pinned_bit_for_bit(self, text, constant, factors):
        c, got = _read(parse_expression(text))[0]
        assert _bits([c]) == _bits([complex(*constant)])
        assert [(_bits(q), e) for q, e in got.items()] \
            == [(_bits(complex(*z) for z in coeffs), e) for coeffs, e in factors]

    def test_sides_multiply_as_the_polynomial_product(self):
        # the reference: Polynomial.product, one np.convolve per factor power
        rng = np.random.default_rng(15)
        parts = [0.0, -0.0, 1.0, -1.0, 0.5, -2.25]

        def number():
            pick = lambda: (float(rng.choice(parts)) if rng.random() < 0.4
                            else float(rng.uniform(-3, 3)))
            return complex(pick(), pick())

        for _ in range(300):
            factors = [(parsing._S, int(rng.integers(0, 3)))]
            for _ in range(int(rng.integers(0, 3))):
                coeffs = [number() for _ in range(int(rng.integers(1, 3)))] + [1.0]
                factors.append((tuple(coeffs), int(rng.integers(0, 3))))
            order = rng.permutation(len(factors))
            factors = [factors[i] for i in order]
            c = number()
            if c == 0:
                continue
            want = Polynomial.product(((Polynomial(q), e) for q, e in factors), c)
            assert _bits(parsing._multiplied(c, factors)) == _bits(want.coeffs.tolist())


class TestLinearFactor:
    """s + c and s - c, c a nonzero constant, are read straight into the
    factor that the common-denominator sum ``_sum`` gives them."""

    def test_reads_as_the_sum_bit_for_bit(self):
        """The constant and the factor's key agree with ``_sum``'s, signed
        zeros, subnormals, parts near the float64 limit, inf and nan
        included, and so do the parts ``_terms`` reads."""
        rng = np.random.default_rng(4040)
        specials = [0.0, -0.0, 5e-324, -1e-320, 1.7976931348623157e308, -1e308,
                    math.inf, -math.inf, math.nan]

        def part():
            if rng.random() < 0.3:
                return float(rng.choice(specials))
            return float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-320, 308.2))

        cases = [complex(a, b) for a in specials for b in specials]
        cases += [complex(part(), part() if rng.random() < 0.6 else 0.0) for _ in range(4000)]
        var = _read(Var())
        # the reference divides inf and nan by 1 + 0j, which numpy flags
        with np.errstate(invalid="ignore"):
            for c in cases:
                if c == 0:
                    continue
                for op, sign in (("+", 1.0), ("-", -1.0)):
                    node = BinOp(op, Var(), Num(c))
                    (got_c, got), parts, odd = _read(node)
                    want_c, want = parsing._sum((1 + 0j, {parsing._S: 1}), (c, {}), sign)
                    assert _bits([got_c]) == _bits([want_c]), (op, c)
                    assert [(_bits(q), e) for q, e in got.items()] \
                        == [(_bits(q), e) for q, e in want.items()], (op, c)
                    assert (parts, odd) == ((node, var, _read(Num(c))), False)


class TestSumsWithoutConvolution:
    """A written sum multiplies its sides out in Python: the first factor by
    the constant, s by a shift; only a further factor reaches np.convolve."""

    @pytest.mark.parametrize("text, calls", [
        ("s^2-2.14*s+1.3474", 0),
        ("1/(s-0.5)+1/(s+0.3)", 0),
        # the third term's side is (s-0.5)(s+0.3) over the common denominator
        ("1/(s-0.5)+1/(s+0.3)+1/(s-0.7)", 2),
    ])
    def test_convolve_calls(self, monkeypatch, text, calls):
        ast = parse_expression(text)
        original = np.convolve
        seen = []

        def counting(*args, **kwargs):
            seen.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(np, "convolve", counting)
        assert classify(ast).kind is Kind.RATIONAL
        assert len(seen) == calls


def _real_reading(text):
    """True when the rational reading's constant and factors have no
    imaginary part, or the factors are exact conjugate pairs."""
    c, factors = _read(parse_expression(text))[0]
    keys = {(q, e) for q, e in factors.items() if any(x.imag for x in q)}
    return c.imag == 0 and keys == {(tuple(x.conjugate() for x in q), e) for q, e in keys}


class TestConjugateTerms:
    """A written sum adds each summand to its exact conjugate partner first,
    and a product multiplies an exact conjugate pair of factors as one real
    quadratic first, so that a real F written with conjugate terms reads
    exactly real."""

    @staticmethod
    def pole(rng):
        return complex(*np.round(rng.uniform(-3, 3, 2), 2))

    def test_pairs_read_real(self):
        rng = np.random.default_rng(34)
        for _ in range(200):
            p, q, r = self.pole(rng), self.pole(rng), self.pole(rng)
            pair = [f"({r})/(s-({p}))", f"({r.conjugate()})/(s-({p.conjugate()}))"]
            real = f"{q.real}/(s-{q.real})"
            for text in (" + ".join(pair), " + ".join([pair[0], real, pair[1]]),
                         " + ".join([real, *pair[::-1]])):
                assert _real_reading(text), text
            # the pair as a product, in a sum and raised to a power
            product = f"(s-({p}))*(s-({p.conjugate()}))"
            assert _real_reading(f"1/({product}) + {real}")
            assert _real_reading(f"{real} - 2/({product})^2")

    def test_interleaved_pairs_read_real(self):
        """Two pairs nested and crossed around a real summand: each pair's
        sum takes its first member's place."""
        rng = np.random.default_rng(3434)
        for _ in range(50):
            (p, q), (r, t) = [self.pole(rng) for _ in range(2)], [self.pole(rng) for _ in range(2)]
            a = [f"({r})/(s-({p}))", f"({r.conjugate()})/(s-({p.conjugate()}))"]
            b = [f"({t})/(s-({q}))^2", f"({t.conjugate()})/(s-({q.conjugate()}))^2"]
            for order in ((a[0], b[0], "2/(s+1)", b[1], a[1]),
                          (a[0], b[0], a[1], "2/(s+1)", b[1])):
                assert _real_reading(" + ".join(order)), order

    def test_a_negated_partner_pairs(self):
        c, factors = _read(parse_expression(
            "-(0.5+1j)/(s-(0.3+2j)) - (0.5-1j)/(s-(0.3-2j)) + 1/(s+1)"))[0]
        numerator = [q for q, e in factors.items() if e > 0]
        assert c.imag == 0 and not any(x.imag for q in numerator for x in q)

    def test_sum_without_a_pair_keeps_its_order(self, monkeypatch):
        """Summands that are not exact conjugates are added left to right,
        as before: a partner off by one bit is no partner."""
        calls = []
        original = parsing._sum
        # the summands added, leaving out the constants of s - p
        monkeypatch.setattr(parsing, "_sum", lambda l, r, sign: (
            r[1] and calls.append(r[0])) or original(l, r, sign))
        _read(parse_expression("(1+1j)/(s-(2+1j)) + 3/(s+1) + (1-1j)/(s-(2-1j))"))
        paired = calls[:]
        calls.clear()
        _read(parse_expression(
            "(1+1j)/(s-(2+1j)) + 3/(s+1) + (1-1.0000000000000002j)/(s-(2-1j))"))
        assert paired[0] == 1 - 1j and calls[0] == 3
