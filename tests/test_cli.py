"""Command surface: outputs, exit codes, environment and config handling."""

import argparse
import contextlib
import io
import json
import math
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from nablainv import ClosedFormSequence, RealnessError, cli, expand, inversion, pair
from nablainv.cli import main
from nablainv.verify import quadrature_grid
from conftest import (
    REFUSED,
    mpmath_atom_values,
    mpmath_factored_values,
    mpmath_row10_values,
)

EX1 = "9/((s+1)^2*(s-2))"
EX2 = "1/(s^0.5-0.2) - s^0.2/(s^0.7-0.3)"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInvert:
    def test_csv_golden_values(self, capsys):
        code, out, _ = run(capsys, "invert", "--expr", EX1, "--a", "0",
                           "--k", "1..5", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,f(k)"
        assert lines[1] == "1,-2.25"
        assert lines[2] == "2,0"
        assert lines[3] == "3,-1.6875"

    def test_text_output_mentions_strategy(self, capsys):
        code, out, _ = run(capsys, "invert", "--expr", EX1, "--k", "1..3")
        assert code == 0
        assert "strategy       : pfe" in out
        assert "closed form" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "invert", "--expr", EX2, "--k", "1..4",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["classification"] == "fractional-sum"
        assert doc["strategy"] == "fractional"
        assert len(doc["closed_form"]) == 2
        assert doc["values"][0]["f"] == pytest.approx(-0.17857142857142855)

    def test_order_one_terms_are_geometric_in_json(self, capsys):
        # the simple pole at 2, then the double pole at -1 at orders 1 and 2
        code, out, _ = run(capsys, "invert", "--expr", EX1, "--k", "1", "--format", "json")
        assert code == 0
        terms = json.loads(out)["closed_form"]
        assert [(t["type"], t.get("order")) for t in terms] \
            == [("geometric", None), ("geometric", None), ("poly-geometric", 2)]

    def test_zero_terms_are_not_printed(self, capsys):
        # the double pole's order-1 coefficient is exactly 0
        expr = "4.05/((s+0.55)^2)"
        code, out, _ = run(capsys, "invert", "--expr", expr, "--k", "1..3")
        assert code == 0
        assert "closed form    : f(k) = 4.05*binomial(k-a,1)*1.55^-(k-a+1)\n" in out
        code, out, _ = run(capsys, "invert", "--expr", expr, "--k", "1..3",
                           "--format", "json")
        assert json.loads(out)["closed_form"] == [{
            "type": "poly-geometric", "coefficient": [4.05, 0.0], "pole": [-0.55, 0.0],
            "order": 2}]

    def test_outputs_are_bit_stable(self, capsys):
        _, first, _ = run(capsys, "invert", "--expr", EX1, "--k", "1..9",
                          "--format", "csv")
        _, second, _ = run(capsys, "invert", "--expr", EX1, "--k", "1..9",
                           "--format", "csv")
        assert first == second

    def test_inside_strategy_numeric_only(self, capsys):
        code, out, _ = run(capsys, "invert", "--expr", EX1, "--k", "1..3",
                           "--strategy", "inside", "--format", "csv")
        assert code == 0
        assert out.splitlines()[1] == "1,-2.25"

    def test_strategy_mismatch_is_domain_error(self, capsys):
        code, _, err = run(capsys, "invert", "--expr", EX2, "--k", "1..3",
                           "--strategy", "inside")
        assert code == 1
        assert "rational" in err

    def test_fractional_strategy_on_a_table_shape_is_domain_error(self, capsys):
        assert run(capsys, "invert", "--expr", "1/(1-0.5+0.5*s)^1.5", "--k", "1..3",
                   "--strategy", "fractional") \
            == (1, "", "error: strategy 'fractional' needs a fractional sum of atoms\n")

    def test_table_strategy(self, capsys):
        code, out, _ = run(capsys, "invert", "--expr", "1/(1-0.5+0.5*s)^1.5",
                           "--k", "1..4", "--format", "csv")
        assert code == 0
        assert out.splitlines()[1] == "1,1"

    @pytest.mark.parametrize("krange, a, steps", [
        ("1..2.5", 0.0, ["1", "2"]),
        ("1..2.6", 0.0, ["1", "2"]),
        ("1..3", 0.0, ["1", "2", "3"]),
        ("1..2.9999999999", 0.0, ["1", "2", "3"]),
        ("1.5..4", 0.5, ["1.5", "2.5", "3.5"]),
    ])
    def test_grid_ends_at_the_last_whole_step(self, capsys, krange, a, steps):
        code, out, _ = run(capsys, "invert", "--expr", EX1, f"--a={a}", f"--k={krange}",
                           "--format", "csv")
        assert code == 0
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == steps

    @pytest.mark.parametrize("fmt", ["csv", "text"])
    def test_steps_past_1e6_are_written_as_integers(self, capsys, fmt):
        code, out, _ = run(capsys, "invert", "--expr", "1/(s+0.5)", "--k", "999998..1000001",
                           "--format", fmt)
        assert code == 0
        rows = out.splitlines()[-4:]
        assert [row.replace(",", " ").split()[0] for row in rows] == [
            "999998", "999999", "1000000", "1000001"]


class TestExitCodes:
    def test_pole_at_one(self, capsys):
        code, out, err = run(capsys, "invert", "--expr", "1/(s-1)", "--k", "1..3")
        assert code == 1
        assert out == ""  # no values may be emitted
        assert "pole" in err

    NO_STRATEGY = ("no inversion strategy applies: the expression is neither rational, "
                   "nor a sum of fractional-power atoms, nor a tabulated pair shape")
    HINT = ("only rational functions of s, fractional-power atoms "
            "r*s^(alpha-beta)/(s^alpha-lambda), and tabulated pair shapes are invertible; "
            "constructs with essential singularities or infinitely many poles "
            "(exponentials, logarithms, gamma ratios, ... of s) are not")

    @pytest.mark.parametrize("expr,message", [
        ("1/(exp(s)-0.5)", "exp() applied to a non-constant argument: " + HINT),
        # shapes that neither the atom reader nor a table row covers
        ("(s+1)^-0.5/(s-2)", NO_STRATEGY),
        ("1/(s^0.5+0.2)^2", NO_STRATEGY),
        ("1/(s^2-0.25)^0.5",
         "unsupported expression: fractional power of a non-linear base: " + HINT),
        ("s^0.5/(s-2)", "|lambda| = 2 >= 1 is outside the invertible range"),
        # 1/(0.5*s+1) = 2/(s+2): the alpha = 1 atom of lambda = -2, as above
        ("1/(s^0.5-0.2) + 1/(0.5*s+1)", "|lambda| = 2 >= 1 is outside the invertible range"),
        ("s^0.5", NO_STRATEGY),
        # an atom with |lambda| >= 1 beside a summand that is no atom, in
        # either order: the sum's shape decides before any atom is checked
        ("1/(s^0.5-2) + s^0.5", NO_STRATEGY),
        ("s^0.5 + 1/(s^0.5-2)", NO_STRATEGY),
    ])
    def test_unsupported_expression(self, capsys, expr, message):
        code, out, err = run(capsys, "invert", f"--expr={expr}", "--k", "1..3")
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("expr, code, message", [
        ("1+²", 2, "unknown identifier '²' at line 1, column 3 "
                   "(expected: s, pi, e, j, cos, cosh, exp, sin, sinh)"),
        ("10^400*s", 1, "10^400 overflows the float64 range at line 1, column 3"),
        ("(-10)^400*s", 1, "(-10)^400 overflows the float64 range at line 1, column 6"),
        ("10^200*10^200*s", 1,
         "1e+200*1e+200 overflows the float64 range at line 1, column 7"),
        ("exp(1000)*s", 1, "exp(1000) overflows the float64 range at line 1, column 1"),
        ("sin(1e400)", 2, "sin(inf) is undefined at line 1, column 1"),
        ("0^-1+s", 2, "0^-1 is undefined at line 1, column 2"),
        ("s^1e400", 1, "the exponent inf overflows the float64 range at line 1, column 2"),
        ("s^(1e400-1e400)", 2, "the exponent nan is undefined at line 1, column 2"),
    ])
    def test_constant_folds_name_the_operation(self, capsys, expr, code, message):
        # an overflow exits 1, a fold outside its domain 2, each on one line
        # naming the operator or function and where it is written
        assert run(capsys, "invert", f"--expr={expr}", "--k", "1..3") \
            == (code, "", f"error: {message}\n")

    def test_overflowing_power_of_a_constant_factor(self, capsys):
        # the constant is folded out of the factor, where it has no position
        assert run(capsys, "invert", "--expr=(1e200*(s+1))^2", "--k", "1..3") \
            == (1, "", "error: the constant factor 1e+200^2 overflows the float64 range\n")

    @pytest.mark.parametrize("expr, power", [
        ("s^1e300", "s^1e+300 at line 1, column 2"),
        ("1/(s-2)^1e300", "(s-2)^1e+300 at line 1, column 8"),
        ("1/(s-2)^172", "(s-2)^172 at line 1, column 8"),
        ("s^20000", "s^20000 at line 1, column 2"),
        ("(s+1)^200/(s+2)", "(s+1)^200 at line 1, column 6"),
        # exponents merged by a product or a power of a power have no position
        ("1/((s-2)^100*(s-2)^100)", "(s-2)^200"),
        ("1/(s^2+2*s-3)^100/(s^2+2*s-3)^100", "(s^2+2*s-3)^-200"),
        ("((s-2)^100)^2", "(s-2)^200"),
    ])
    def test_power_above_order_171_exits_1(self, capsys, expr, power):
        assert run(capsys, "invert", f"--expr={expr}", "--k", "1..3") == (
            1, "", f"error: the power {power} is above 171, the largest order of a "
                   "factor power\n")

    def test_power_of_order_171_inverts(self, capsys):
        # f(1) = rising(1, 170) / (170! (-1)^171), both 170! in floats
        code, out, _ = run(capsys, "invert", "--expr=1/(s-2)^171", "--k", "1",
                           "--format", "csv")
        assert code == 0
        assert float(out.splitlines()[1].split(",")[1]) == pytest.approx(-1.0, rel=1e-14)

    def test_syntax_error(self, capsys):
        code, _, err = run(capsys, "invert", "--expr", "9/((s+1", "--k", "1..3")
        assert code == 2
        assert "line 1" in err

    def test_bad_step_range(self, capsys):
        code, _, err = run(capsys, "invert", "--expr", EX1, "--k", "0..3")
        assert code == 2

    def test_infinite_step_range(self, capsys):
        code, out, err = run(capsys, "invert", "--expr", EX1, "--k", "1..inf")
        assert code == 2
        assert out == ""
        assert "not finite" in err

    @pytest.mark.parametrize("k, config", [
        ("abc", False), ("1..", False), ("..5", False), ("abc", True)])
    def test_step_range_that_is_not_a_number(self, capsys, tmp_path, k, config):
        if config:
            path = tmp_path / "k.cfg"
            path.write_text(f"k = {k}\n")
            argv = ["--config", str(path)]
        else:
            argv = ["--k", k]
        code, out, err = run(capsys, "invert", "--expr", EX1, *argv)
        assert (code, out) == (2, "")
        source = f"{path}: k" if config else "argument --k"
        assert err == f"error: {source}: step range {k!r} is not a number or a range lo..hi\n"

    @pytest.mark.parametrize("k, config, code, message", [
        ("abc", True, 2, "step range 'abc' is not a number or a range lo..hi"),
        ("0.5", True, 2, "k = 0.5 is not in {a+1, a+2, ...} for a = 0.0; adjust the range or a"),
        ("0.5", False, 2, "k = 0.5 is not in {a+1, a+2, ...} for a = 0.0; adjust the range or a"),
        ("5..1", True, 2, "empty step range '5..1'"),
        ("1..inf", True, 2, "step range '1..inf' is not finite"),
        # 8e18 bytes: no address space holds them, so nothing is allocated
        ("1..1e18", False, 1, "step range '1..1e18' is too long for an array; narrow --k"),
        ("1..1e30", False, 1, "step range '1..1e30' is too long for an array; narrow --k"),
        ("1..1e30", True, 1, "step range '1..1e30' is too long for an array; narrow --k"),
    ])
    def test_step_range_errors_name_their_source(self, capsys, tmp_path, k, config, code,
                                                 message):
        path = tmp_path / "k.cfg"
        path.write_text(f"k = {k}\n")
        argv = ["--config", str(path)] if config else ["--k", k]
        source = f"{path}: k" if config else "argument --k"
        assert run(capsys, "invert", "--expr", "1/(s-0.3)", *argv) \
            == (code, "", f"error: {source}: {message}\n")

    def test_step_off_the_grid_names_k_and_a_as_typed(self, capsys):
        """k and a are written with repr, not rounded to 6 digits by %g."""
        assert run(capsys, "invert", "--expr=1/(s+0.5)", "--a", "0.123456789",
                   "--k", "1.12345..3") == (
            2, "", "error: argument --k: k = 1.12345 is not in {a+1, a+2, ...} for "
                   "a = 0.123456789; adjust the range or a\n")

    @pytest.mark.parametrize("expr, strategy", [
        ("1/(s+2)", "pfe"), ("1/(s+2)", "inside"), ("1/(s^0.5-0.3)", "fractional"),
        ("(0.3+0.7*s)^-1.5", "table")])
    @pytest.mark.parametrize("k", ["9007199254740993..9007199254740996", "1e19..1e19"])
    def test_steps_past_2_53_are_rejected_on_every_route(self, capsys, tmp_path, expr,
                                                         strategy, k):
        # past 2^53 floats skip steps: the grid would repeat and drop steps
        message = (f"step range {k!r} reaches 2^53 in k or k - a, past which steps are "
                   "not exact floats; narrow --k")
        path = tmp_path / "k.cfg"
        path.write_text(f"k = {k}\n")
        route = [] if strategy == "table" else ["--strategy", strategy]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(capsys, "invert", "--expr", expr, *route, "--k", k, "--format", "csv") \
                == (2, "", f"error: argument --k: {message}\n")
            assert run(capsys, "invert", "--expr", expr, *route, "--config", str(path)) \
                == (2, "", f"error: {path}: k: {message}\n")

    def test_steps_past_2_53_from_the_base_point(self, capsys):
        # k - a is the step offset: a far below 0 puts it past 2^53 too
        code, out, err = run(capsys, "invert", "--expr", "1/(s+2)", "--a", "-9007199254740992",
                             "--k", "1..3")
        assert (code, out) == (2, "") and "reaches 2^53" in err
        # a decaying conjugate pair as well, whose anchors are those of the
        # grid's own blocks
        for expr in ("1/(s+2)", "1/(s-(1+2j))+1/(s-(1-2j))"):
            assert run(capsys, "invert", "--expr", expr, "--k",
                       "9007199254740990..9007199254740991", "--format", "csv") \
                == (0, "k,f(k)\n9007199254740990,0\n9007199254740991,0\n", "")

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_missing_required_flag(self, capsys):
        assert run(capsys, "invert")[0] == 2

    def test_roc_flag_is_gone(self, capsys):
        # the radius comes from F; a region given by hand has nothing to add
        assert run(capsys, "invert", "--expr", EX1, "--roc", "disk1:0.5")[0] == 2

    @pytest.mark.parametrize("argv", [
        ["forward", "--expr", EX1, "--format", "json"],  # forward prints one table
        ["forward", "--expr", EX1, "--k", "1..5"],  # and sums the whole series
        ["verify", "--expr", EX1, "--format", "csv"],  # verify prints text or json
        ["table", "--match", EX1, "--format", "csv"],  # and so does table
    ])
    def test_flags_a_command_does_not_read_are_usage_errors(self, capsys, argv):
        assert run(capsys, *argv)[0] == 2

    def test_out_of_memory_exits_1(self, capsys, monkeypatch):
        def no_memory(text, a, source):
            raise MemoryError

        monkeypatch.setattr(cli, "_parse_krange", no_memory)
        code, out, err = run(capsys, "invert", "--expr", "1/(s-0.3)", "--k", "1..1e11")
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: ") and "narrow --k" in err


class TestFloatRange:
    """A grid whose values leave float64 is a domain failure, not output."""

    @pytest.mark.parametrize("strategy", ["auto", "pfe", "outside", "inside"])
    def test_overflowing_grid_exits_1(self, capsys, strategy):
        # -1.36 * 0.37^-(k-a) passes 1.8e308 at k = 714
        code, out, err = run(capsys, "invert", "--expr=-1.36/(s-0.63)",
                             "--k", "1..1501", "--strategy", strategy)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert "k = 714" in err

    def test_overflowing_table_shape_exits_1(self, capsys):
        # 2^(k-a-1) rising(k-a, 0.5)/Gamma(1.5) passes 1.8e308 at k = 1020
        code, out, err = run(capsys, "invert", "--expr", "(-1+2*s)^-1.5", "--k", "1..2000")
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert "k = 1020" in err

    @pytest.mark.parametrize("strategy", ["auto", "inside"])
    def test_underflowing_grid_is_finite(self, capsys, strategy):
        code, out, _ = run(capsys, "invert", "--expr", EX1, "--k", "1..2000",
                           "--strategy", strategy, "--format", "csv")
        assert code == 0
        values = np.array([float(line.split(",")[1]) for line in out.splitlines()[1:]])
        assert values.shape == (2000,)
        assert np.all(np.isfinite(values))
        # (-1)^m - 2^-m - 3m 2^-(m+1): only the alternating unit survives
        np.testing.assert_allclose(values[-2:], [-1.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("expr, krange, k", [
        ("1/(s^1.5-0.9)", "1..2000", 264),
        ("1/(s^1.5-0.8)", "1..600", 359),
    ])
    def test_overflowing_mittag_leffler_grid_exits_1(self, capsys, expr, krange, k):
        """The blocked series division leaves inf and nan past the float64
        range, never before it: the first step named is the first to leave."""
        code, out, err = run(capsys, "invert", "--expr", expr, "--k", krange)
        assert code == 1
        assert out == ""
        assert err == f"error: f(k) at k = {k} is outside the float64 range; narrow --k\n"

    @pytest.mark.parametrize("a, krange, k", [
        (0.5, "999998.5..1000001.5", "999998.5"),  # was named 999998
        (0.0, "1000001..1000003", "1000001"),  # was named 1e+06
    ])
    def test_overflow_names_the_step_exactly(self, capsys, a, krange, k):
        """1.43^(k-a) is past 1.8e308 from k - a = 1987 on."""
        code, out, err = run(capsys, "invert", "--expr=1/(s-0.3)", f"--a={a}", "--k", krange)
        assert (code, out) == (1, "")
        assert err == f"error: f(k) at k = {k} is outside the float64 range; narrow --k\n"

    @pytest.mark.parametrize("krange", ["1..200", "1..10000"])
    @pytest.mark.parametrize("strategy", ["inside", "pfe"])
    def test_pole_next_to_one_overflows_at_k_52(self, capsys, strategy, krange):
        """(1 - 0.999999)^-(k-a) grows by 1e6 a step; the series leaves
        float64 on the recurrence, before its blocks start, so it names the
        same first step as pfe."""
        code, out, err = run(capsys, "invert", "--expr=1/((s-0.999999)*(s+0.5))",
                             "--k", krange, "--strategy", strategy)
        assert code == 1
        assert out == ""
        assert err == "error: f(k) at k = 52 is outside the float64 range; narrow --k\n"

    @pytest.mark.parametrize("strategy", ["inside", "pfe"])
    def test_series_overflows_where_f_does(self, capsys, strategy):
        """f(k) ~ 1.34 * 0.67^-k passes 1.8e308 at k = 1772.  Dividing by the
        growing factor first put the series' partial quotient past it at
        k = 1767 (the expanded denominator at k = 1769)."""
        code, out, err = run(capsys, "invert", "--strategy", strategy, "--expr=1.34/(s-0.33)"
                             " + (-2.46+0.46j)/(s-(1.25-2.38j)) + (-2.46-0.46j)/(s-(1.25+2.38j))",
                             "--k", "1..2000")
        assert code == 1
        assert err == "error: f(k) at k = 1772 is outside the float64 range; narrow --k\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["invert", "verify"])
    def test_pfe_overflow_leaks_no_warning(self, capsys, command):
        """(1e-6)^-52 overflows, which numpy flags."""
        code, out, err = run(capsys, command, "--expr=1/(s-0.999999)", "--k", "1..60")
        assert code == 1
        assert err == "error: f(k) at k = 52 is outside the float64 range; narrow --k\n"

    def test_overflow_in_verify_exits_1(self, capsys):
        code, _, err = run(capsys, "verify", "--expr=-1.36/(s-0.63)", "--k", "700..800")
        assert code == 1
        assert "k = 714" in err


# a zero of order 261 at s = 1: the series starts at w^261, times 1e-250,
# and grows by 1e5 a step
LATE_START = "--expr=1e-250*(s-1)^171*(s^2-1)^90/(s-0.99999)"


class TestLateStartingSeries:
    def test_inside_matches_the_exact_value(self, capsys):
        """At s = 1 - w, F = -1e-250 w^261 (w-2)^90 / (d - w), d = 1 - 0.99999,
        so f(330) = -1e-250 sum_i C(90, i) (-2)^(90-i) / d^(69-i) over
        i = 0..68, in exact arithmetic on the written floats."""
        code, out, err = run(capsys, "invert", LATE_START, "--strategy", "inside",
                             "--k", "1..330")
        assert (code, err) == (0, "")
        k, value = out.splitlines()[-1].split()
        d = 1 - Fraction(0.99999)
        exact = -Fraction(1e-250) * sum(math.comb(90, i) * Fraction(-2) ** (90 - i) / d ** (69 - i)
                                        for i in range(69))
        assert k == "330"
        assert abs(Fraction(value) / exact - 1) <= 1e-14

    @pytest.mark.parametrize("command,krange", [("invert", "330"), ("verify", "1..330")])
    def test_pfe_refuses_the_pole_whose_residue_underflows(self, capsys, command, krange):
        """On the pfe route the pole's residue, about 1e-1528, underflows to
        0; dropping its term printed f(330) = -3.56e-224 against -1.24e122.
        invert and verify (which inverts with auto first) exit 1 instead, on
        one line that names the pole and the inside strategy."""
        code, out, err = run(capsys, command, LATE_START, "--k", krange)
        assert (code, out) == (1, "")
        assert err == ("error: pole s = 0.99999: its partial-fraction coefficient leaves the "
                       "float64 range (computed |g_0| = 0); try --strategy inside\n")

    def test_quadrature_leaves_float64_without_a_warning(self):
        """The quadrature's rho^-j leaves float64 before k = 330, and inf * 0
        is nan: a measure verify's check reports as FAIL, with no numpy
        warning (tier-1 turns a RuntimeWarning into an error)."""
        F = cli._Problem(LATE_START.removeprefix("--expr="), 0.0).F
        grid = quadrature_grid(F, 330)
        assert np.isnan(grid[-1]) and np.isfinite(grid[0])


def _print_rows(fmt, problem, used, cf, rows):
    """Reference: a row-by-row print formatter; csv and text write an
    integral k as an integer and another as repr does."""
    def k_text(k, spec):
        return f"{int(k):{spec}d}" if float(k).is_integer() else f"{k!r:>{spec or 0}}"

    if fmt == "csv":
        print("k,f(k)")
        for k, v in rows:
            print(f"{k_text(k, '')},{v:.17g}")
        return
    if fmt == "json":
        doc = {
            "expression": problem.text,
            "canonical": cli.pretty(problem.ast),
            "classification": problem.classified.kind.value,
            "strategy": used,
            "a": problem.a,
            "roc": cli.describe_roc(problem.radius),
            "closed_form": [t.as_dict() for t in cf.terms] if cf else None,
            "values": [{"k": k, "f": v} for k, v in rows],
        }
        print(json.dumps(doc, indent=2))
        return
    print(f"expression     : {cli.pretty(problem.ast)}")
    print(f"classification : {problem.classified.kind.value}")
    print(f"strategy       : {used}")
    print(f"ROC            : {cli.describe_roc(problem.radius)}")
    if problem.table_hit is not None:
        print(f"table          : {problem.table_hit.describe()}")
    if cf is not None:
        print(f"closed form    : f(k) = {cf.describe()}")
    print(f"{'k':>8}  {'f(k)':>24}")
    for k, v in rows:
        print(f"{k_text(k, '8')}  {v:24.17g}")


LONG_EXPR = ("1.5/(s+0.8) + 2.1/(s+1.1)^2 + (1.2-0.5j)/(s-(-0.5-1.5j))"
             " + (1.2+0.5j)/(s-(-0.5+1.5j))")


class TestSingleWriteOutput:
    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    @pytest.mark.parametrize("expr,strategy,krange,a", [
        ("(s^3+2)/((s-3)*(s+2)) - 0.25/(s+1)^2", "pfe", "2.5..40.5", 1.5),
        (EX1, "inside", "1..25", 0.0),
        ("1/(1-0.5+0.5*s)^1.5", "auto", "1..6", 0.0),
        # a long grid whose tail underflows to 0
        (EX1, "inside", "1..2000", 0.0),
        # %g and repr switch to exponent form: 20^m passes 1e16, 10^-m drops below 1e-4
        ("1/(s-0.95)", "auto", "1..20", 0.0),
        ("1/(s+9)", "pfe", "1..20", 0.0),
        ("1/(s+9)", "auto", "3..3", 0.0),
        # steps such as 3.1 and 8.1 whose repr is longer than their %g
        (EX1, "pfe", "1.1..40.1", 0.1),
        # steps that %g wrote to 6 digits: 1.12346, and 1e+06 for 999999.5
        ("1/(s+0.5)", "auto", "1.123456789..3.123456789", 0.123456789),
        ("1/(s+0.5)", "auto", "999998.5..1000000.5", 0.5),
        # a closed form whose tail past every term's zero_from is 0
        (LONG_EXPR, "pfe", "1..3000", 0.0),
        # zeros at k = 1, 2 before nonzero values, and a last value that is not 0
        ("(1-s)^2/(s+0.5)", "inside", "1..6", 0.0),
        # negative steps, and a zero tail
        ("1/(s+9)", "pfe", "-4..400", -5.0),
        # steps past 1e6, written as integers in csv and text
        ("1/(s+9)", "auto", "999998..1000001", 0.0),
        # the last steps below 2^53, past which k is not exact
        ("1/(s+9)", "auto", "9007199254740987..9007199254740991", 0.0),
        # Mittag-Leffler terms, which have no cut
        (EX2, "auto", "1..30", 0.0),
    ])
    def test_bytes_match_row_printer(self, capsys, fmt, expr, strategy, krange, a):
        problem = cli._Problem(expr, a)
        ks, ms = cli._parse_krange(krange, a)
        (used, cf, _), values = problem.invert(strategy, ks, ms)
        _print_rows(fmt, problem, used, cf, list(zip(ks.tolist(), values.tolist())))
        want = capsys.readouterr().out
        code, out, _ = run(capsys, "invert", "--expr", expr, f"--a={a}", f"--k={krange}",
                           "--strategy", strategy, "--format", fmt)
        assert code == 0
        assert out == want

    @pytest.mark.parametrize("values", [
        [1.0, -0.0, 0.0, 0.0],
        [0.0, 2.5, 0.0, -0.0, -0.0],
        [-0.0],
        [0.0, 0.0],
    ])
    def test_zero_tail_keeps_the_sign_of_zero(self, capsys, values):
        ks = np.arange(1.0, len(values) + 1)
        _print_rows("csv", None, "pfe", None, list(zip(ks.tolist(), values)))
        want = capsys.readouterr().out
        cli._emit_values(argparse.Namespace(format="csv"), None, "pfe", None, ks,
                         np.array(values))
        assert capsys.readouterr().out == want


class TestLongGrid:
    EXPR = LONG_EXPR

    def test_strategies_agree_at_k_1e5(self, capsys):
        """Linear cost in K: the O(K^2) series division took about 14 s at this K
        on a 2-core VM, the division by one factor at a time well under 1 s."""
        grids = {}
        for strategy in ("inside", "pfe"):
            start = time.perf_counter()
            code, out, _ = run(capsys, "invert", "--expr", self.EXPR, "--k", "1..100000",
                               "--strategy", strategy, "--format", "json")
            assert time.perf_counter() - start < 5.0
            assert code == 0
            grids[strategy] = np.array([row["f"] for row in json.loads(out)["values"]])
        assert grids["inside"].shape == (100000,)
        scale = float(np.max(np.abs(grids["pfe"])))
        assert float(np.max(np.abs(grids["inside"] - grids["pfe"]))) <= 1e-12 * scale

    def test_inside_prints_no_subnormals(self, capsys):
        """The series recurrence stalled at subnormal magnitudes instead of
        decaying: 84,690 nonzero values below the smallest normal float."""
        code, out, _ = run(capsys, "invert", "--expr", self.EXPR, "--k", "1..100000",
                           "--strategy", "inside", "--format", "csv")
        assert code == 0
        values = csv_values(out)
        assert not np.any((values != 0) & (np.abs(values) < np.finfo(float).tiny))


def csv_values(out):
    return np.array([float(line.split(",")[1]) for line in out.strip().splitlines()[1:]])


class TestFractionalValues:
    def test_rational_as_atoms_matches_pfe(self, capsys):
        """Each pole of 1/(s^2+0.9) becomes an order-1 atom; summing exact
        rationals for them ran past 280 s at this K."""
        grids = {}
        for strategy in ("fractional", "pfe"):
            start = time.perf_counter()
            code, out, _ = run(capsys, "invert", "--strategy", strategy, "--expr",
                               "1/(s^2+0.9)", "--k", "1..40", "--format", "csv")
            assert time.perf_counter() - start < 1.0
            assert code == 0
            grids[strategy] = csv_values(out)
        scale = float(np.max(np.abs(grids["pfe"])))
        np.testing.assert_allclose(grids["fractional"], grids["pfe"], rtol=0, atol=1e-12 * scale)

    def test_lambda_zero_atom_at_k_1e5(self, capsys):
        """s^-0.5 reads the binomial series of (1-w)^-0.5, row 5's rule, in
        O(K); the dense series division took 5.6 s at K = 1e4 on a 2-core VM."""
        start = time.perf_counter()
        code, out, _ = run(capsys, "invert", "--expr", "s^-0.5", "--k", "1..100000",
                           "--format", "csv")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        want = pair(5, alpha=-0.5).sequence(np.arange(1, 100001))
        np.testing.assert_array_equal(csv_values(out), want)

    @pytest.mark.parametrize("fmt, head", [("text", 1), ("csv", 0), ("json", 3)])
    def test_linear_denominator_is_an_atom(self, capsys, fmt, head):
        """s^0.5/(2*s-0.6) is 0.5*s^0.5/(s-0.3); it exited 1 with "no
        inversion strategy applies".  Past the lines that echo the input, the
        outputs agree byte for byte: 0.6/2 and 1/2 are exact."""
        outs = []
        for expr in ("s^0.5/(2*s-0.6)", "0.5*s^0.5/(s-0.3)"):
            code, out, err = run(capsys, "invert", f"--expr={expr}", "--k", "1..60",
                                 "--format", fmt)
            assert code == 0, err
            outs.append(out.splitlines(keepends=True)[head:])
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("expr, K, want", [
        # three atoms with negative lambda: exited 1 with an imaginary residue
        ("-1.27*s^-0.52/(s^0.92+0.39) - 2.34*s^0.07/(s^1.92+0.91)"
         " - 0.56*s^-1.37/(s^0.28-0.06)", 48,
         lambda K: mpmath_atom_values([(-1.27, 0.92, 1.44, -0.39), (-2.34, 1.92, 1.85, -0.91),
                                       (-0.56, 0.28, 1.65, 0.06)], K)),
        # the row-10 shape: printed values off by 4e41 x max|ref|
        ("1.14*s^0.14*(1-s)/(s^1.14+0.95)^2", 40, lambda K: mpmath_row10_values(1.14, -0.95, K)),
    ])
    def test_negative_lambda_values(self, capsys, expr, K, want):
        code, out, err = run(capsys, "invert", f"--expr={expr}", "--k", f"1..{K}",
                             "--format", "csv")
        assert code == 0, err
        ref = want(K).real
        np.testing.assert_allclose(csv_values(out), ref, rtol=0,
                                   atol=1e-12 * float(np.max(np.abs(ref))))


class TestOneClassification:
    """A request classifies its expression once; the table lookup reuses it."""

    ROW10 = "0.5*s^-0.5*(1-s)/(s^0.5-0.3)^2"

    @pytest.mark.parametrize("argv", [
        ["invert", "--expr", ROW10, "--k", "1..5"],
        ["verify", "--expr", ROW10, "--k", "1..5"],
        ["forward", "--expr", ROW10],
    ])
    def test_classify_runs_once(self, capsys, monkeypatch, argv):
        from nablainv import parsing

        original = parsing.classify
        calls = []

        def counting(ast):
            calls.append(ast)
            return original(ast)

        # every module namespace that bound the function
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("nablainv") \
                    and vars(mod).get("classify") is original:
                monkeypatch.setattr(mod, "classify", counting)
        code, out, _ = run(capsys, *argv)
        assert code == 0, out
        assert len(calls) == 1


class TestSharedParser:
    """``main`` parses with the one parser ``build_parser`` builds per process."""

    def test_build_parser_returns_the_parser_main_uses(self, capsys, monkeypatch):
        parser = cli.build_parser()
        assert cli.build_parser() is parser
        seen = []
        original = parser.parse_args

        def spying(argv):
            seen.append(argv)
            return original(argv)

        monkeypatch.setattr(parser, "parse_args", spying)
        assert run(capsys, "table", "--match", "1/(s-0.3)")[0] == 0
        assert seen == [["table", "--match", "1/(s-0.3)"]]

    def test_later_calls_build_no_parser(self, capsys, monkeypatch):
        run(capsys, "invert", "--expr", EX1, "--k", "1..2")
        built = []
        original = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        for argv in (["invert", "--expr", EX1, "--k", "1..2", "--format", "json"],
                     ["verify", "--expr", "1/(s-0.3)", "--k", "1..3"],
                     ["table", "--match", "1/(s-0.3)"],
                     ["invert", "--expr", EX1, "--format", "xml"],
                     ["frobnicate"]):
            run(capsys, *argv)
        assert built == []

    def test_calls_in_sequence_match_a_fresh_parser(self, capsys, monkeypatch, tmp_path):
        """No call's options leak into the next: each call prints what it
        prints on a parser built for it alone."""
        cfg = tmp_path / "nabla.cfg"
        cfg.write_text("format = csv\nk = 1..3\n")
        sequence = [
            ["invert", "--expr", EX1, "--k", "1..3", "--format", "json"],
            ["invert", "--expr", EX1, "--k", "1..3"],
            ["invert", "--expr", EX1, "--config", str(cfg)],
            ["invert", "--expr", EX1],
            ["invert", "--expr", EX1, "--k", "1..3", "--format", "xml"],
            ["verify", "--expr", "1/(s-0.3)", "--k", "1..3"],
        ]
        shared = [run(capsys, *argv) for argv in sequence]
        assert [code for code, _, _ in shared] == [0, 0, 0, 0, 2, 0]
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        assert [run(capsys, *argv) for argv in sequence] == shared

    def test_usage_error_and_help_reach_this_tests_streams(self, capsys):
        # the first call runs while other streams are installed, as in an
        # earlier test or an earlier caller
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(["invert", "--expr", EX1, "--k", "1..2"]) == 0
        code, out, err = run(capsys, "invert", "--expr", EX1, "--format", "xml")
        assert (code, out) == (2, "")
        assert err.startswith("usage: nablainv invert")
        assert "argument --format: invalid choice: 'xml'" in err
        code, out, err = run(capsys, "invert", "--help")
        assert (code, err) == (0, "")
        assert out.startswith("usage: nablainv invert") and "--strategy" in out


class TestVerifyCommand:
    @pytest.mark.parametrize("expr", [
        EX1,
        "1/(s^1.5+0.5)",
        # the quadrature at rho = 0.5 magnified rounding past the tolerance
        "(3.90-0.24j)*s^-1.63/(s^0.36-(0.03+0.41j))"
        " + (3.90+0.24j)*s^-1.63/(s^0.36-(0.03-0.41j))",
        # a root of s^1.16 = 0.58 at |1-s| = 0.3747, inside the old ROC
        "-2.48*s^-0.41/(s^1.16-0.58)",
    ])
    def test_all_pass_at_k_200(self, capsys, expr):
        code, out, _ = run(capsys, "verify", f"--expr={expr}", "--k", "1..200")
        assert code == 0, out
        assert "FAIL" not in out

    @pytest.mark.parametrize("K", [20, 200])
    @pytest.mark.parametrize("expr", [
        # row 6: quadrature at the unstructured rho = 0.5 failed at K = 200
        "(0.5+0.5*s)^-1.5",
        # row 10: the same, scaled diff 3.4e41
        "0.7*s^-0.3*(1-s)/(s^0.7+0.4)^2",
        # row 10 with a root of s^1.4 = 0.9 at |1-s| = 0.0725: the forward
        # series diverged at points sampled out to |1-s| = 0.45
        "1.4*s^0.4*(1-s)/(s^1.4-0.9)^2",
    ])
    def test_table_shapes_pass(self, capsys, expr, K):
        code, out, _ = run(capsys, "verify", f"--expr={expr}", "--k", f"1..{K}")
        assert code == 0, out
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines), out

    @pytest.mark.parametrize("expr", [
        # the expanded denominator's series put the strategy agreement
        # 7.3e-9 and 2.1e-8 off, a false FAIL
        "0.9*(s+0.44)/((s-0.045)*(s-0.055)*(s+0.31)^3*(s^2+0.578*s+0.479162)^2)",
        "0.9*(s+0.44)/((s-0.045)*(s-0.04501)*(s+0.31)^3*(s^2+0.578*s+0.479162)^2)",
    ])
    def test_close_poles_pass(self, capsys, expr):
        code, out, _ = run(capsys, "verify", f"--expr={expr}", "--k", "1..200")
        assert code == 0, out
        lines = out.strip().splitlines()
        assert len(lines) == 4 and all(line.startswith("PASS") for line in lines), out

    def test_simple_pole_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--expr", "1/(s-0.3)", "--a", "0",
                           "--k", "1..10")
        assert code == 0
        assert out.count("PASS") == 4
        assert "FAIL" not in out

    def test_fractional_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--expr", EX2, "--k", "1..6")
        assert code == 0
        assert "FAIL" not in out

    def test_rho_outside_roc_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "--expr", "1/(s-0.3)", "--k", "1..5",
                             "--rho", "0.9")
        assert code == 2
        assert out == ""
        assert "rho = 0.9 does not fit inside the region of convergence (|1-s| < 0.7)" in err

    def test_nodes_above_the_ceiling_are_a_usage_error(self, capsys):
        # rejected before the circle is allocated, not killed for its memory
        code, out, err = run(capsys, "verify", "--expr", "1/(s-0.5)", "--k", "1..3",
                             "--nodes", "100000000")
        assert code == 2
        assert out == ""
        assert err == ("error: nodes = 100000000 is above the ceiling 16777216; "
                       "lower --nodes or narrow --k\n")

    def test_impossible_tolerance_fails(self, capsys, monkeypatch):
        monkeypatch.setenv("NABLA_TOL", "1e-30")
        code, out, _ = run(capsys, "verify", "--expr", EX1, "--k", "1..8")
        assert code == 1
        assert "FAIL" in out

    @pytest.mark.parametrize("tol, want_code", [(None, 0), ("1e-30", 1)])
    def test_json_lists_each_check(self, capsys, monkeypatch, tol, want_code):
        if tol:
            monkeypatch.setenv("NABLA_TOL", tol)
        code, text, _ = run(capsys, "verify", "--expr", EX1, "--k", "1..8")
        json_code, out, _ = run(capsys, "verify", "--expr", EX1, "--k", "1..8",
                                "--format", "json")
        assert code == json_code == want_code
        checks = json.loads(out)
        assert [("PASS  " if c["ok"] else "FAIL  ") + c["label"] for c in checks] \
            == text.splitlines()
        for c in checks:
            assert set(c) == {"label", "ok", "measure", "bound"}
            assert c["ok"] == (c["measure"] <= c["bound"])
        assert checks[0]["bound"] == float(tol or 1e-9)


class TestImport:
    def test_runs_without_scipy(self):
        """numpy is the only runtime dependency: with scipy unimportable the
        package imports, the lambda = 0 series reads, and a lambda = 0 atom, a
        row-6 shape, verify and roundtrip all exit 0."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        code = ("import sys; sys.modules['scipy'] = None; sys.path.insert(0, sys.argv[1]); "
                "import nablainv; import nablainv.cli as cli; "
                "p = nablainv.MittagLefflerParams(0.5, 0.5, 0.0); "
                "assert nablainv.discrete_mittag_leffler(p, 2) == 0.5; "
                "assert cli.main(['invert', '--expr', 's^-0.5', '--k', '1..5']) == 0; "
                "assert cli.main(['invert', '--expr', '1/(1-0.5+0.5*s)^1.5', '--k', '1..5']) == 0; "
                "assert cli.main(['verify', '--expr', 's^-0.5 + 1/(s^0.5-0.2)', "
                "'--k', '1..50']) == 0; "
                "assert cli.main(['roundtrip']) == 0")
        proc = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "row 6" in proc.stdout
        assert "all rows pass" in proc.stdout


class TestTableCommand:
    def test_hit(self, capsys):
        code, out, _ = run(capsys, "table", "--match", "1/(1-0.5+0.5*s)")
        assert code == 0
        assert "row 4" in out and "0.5^(k-a-1)" in out and "|1-s| < 2" in out

    def test_no_match(self, capsys):
        code, out, _ = run(capsys, "table", "--match", "s^3+2")
        assert code == 0
        assert out.strip() == "no match"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "table", "--match", "1/(s-0.3)",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["row"] == 7
        assert doc["params"]["lam"][0] == pytest.approx(0.3)
        assert doc["params"]["lam"][1] == 0.0


class TestForwardCommand:
    def test_round_trip_report(self, capsys):
        code, out, _ = run(capsys, "forward", "--expr", EX1)
        assert code == 0
        assert "max |diff|" in out

    def test_explicit_points(self, capsys):
        code, out, _ = run(capsys, "forward", "--expr", "1/(s-0.3)",
                           "--s", "0.8,0.9")
        assert code == 0
        assert "0.8" in out

    def test_failing_point_leaves_no_partial_table(self, capsys):
        # 0.9 sums; 5 lies outside |1-s| < 0.5, so its series diverges
        code, out, err = run(capsys, "forward", "--expr", "1/(s-0.5)", "--s", "0.9,5")
        assert code == 1
        assert out == ""
        assert err == "error: forward series diverges at s = (5+0j) (|1-s| = 4)\n"

    def test_sum_leaving_float64_exits_1(self, capsys):
        # |1-s| = 0.49 < R = 0.5, but f(k) = 2^k overflows before the
        # increments fall below tol: an overflow, not a nan sum and a zero
        # max; 2^1024 is past float64
        code, out, err = run(capsys, "forward", "--expr", "1/(s-0.5)", "--s", "0.51")
        assert code == 1
        assert out == ""
        assert err == ("error: forward series at s = (0.51+0j) leaves the float64 "
                       "range at term 1024; choose s closer to 1\n")

    def test_truncation_is_one_warning_line_on_every_call(self, capsys):
        # f(k) of s^-0.5 decays like k^-0.5, so at |1-s| = 0.9999 the sum
        # stops at its 100000-term cap; a second call in the same process
        # reports it again, with no source path or code line
        argv = ("forward", "--expr=s^-0.5", "--s", "0.0001")
        first = run(capsys, *argv)
        assert first[0] == 0
        assert first[2] == ("warning: forward series truncated at 100000 terms "
                            "before meeting tol = 1e-12\n")
        assert "max |diff|" in first[1]
        assert run(capsys, *argv) == first

    def test_table_bytes(self, capsys):
        # the table as printed row by row before the points were all summed first
        code, out, _ = run(capsys, "forward", "--expr", "1/(s-0.5)", "--s", "0.9,0.8")
        assert code == 0
        assert out == (
            "forward series of the inverted sequence vs direct F(s)  [pfe]\n"
            "                           s                        series"
            "                        direct        |diff|\n"
            "                      0.9+0j                        2.5+0j"
            "                        2.5+0j     8.882e-16\n"
            "                      0.8+0j              3.33333333333+0j"
            "              3.33333333333+0j     3.819e-14\n"
            "max |diff| = 3.819e-14\n"
        )


class TestOneRoutePerRequest:
    """A request builds its route once and reads its one rule for every
    value: verify, whose checks read the sequence four times, forward, and
    the fractional route on a rational, checked first, each expand F once."""

    @pytest.mark.parametrize("argv", [
        ["verify", f"--expr={EX1}", "--k", "1..40"],
        ["verify", "--expr=1/(s-(1+2j))+1/(s-(1-2j))", "--k", "1..40"],
        ["forward", f"--expr={EX1}"],
        ["forward", "--expr=1/(s-(1+2j))+1/(s-(1-2j))"],
        ["invert", "--strategy", "fractional", "--expr=1/(s-(0.3+0.2j))+1/(s-(0.3-0.2j))"],
    ])
    def test_expand_runs_once(self, capsys, monkeypatch, argv):
        calls = []
        monkeypatch.setattr(inversion, "expand", lambda rf: calls.append(rf) or expand(rf))
        assert run(capsys, *argv)[0] == 0
        assert len(calls) == 1


class TestConfigAndEnvironment:
    def test_config_file_sets_format(self, capsys, tmp_path):
        cfg = tmp_path / "nabla.cfg"
        cfg.write_text("# defaults\nformat = csv\nk = 1..3\n")
        code, out, _ = run(capsys, "invert", "--expr", EX1, "--config", str(cfg))
        assert code == 0
        assert out.splitlines()[0] == "k,f(k)"
        assert len(out.strip().splitlines()) == 4

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "nabla.cfg"
        cfg.write_text("format = csv\n")
        code, out, _ = run(capsys, "invert", "--expr", EX1, "--k", "1..2",
                           "--format", "json", "--config", str(cfg))
        assert code == 0
        json.loads(out)

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "nabla.cfg"
        cfg.write_text("colour = blue\n")
        code, _, err = run(capsys, "invert", "--expr", EX1, "--config", str(cfg))
        assert code == 2
        assert "colour" in err

    def test_config_line_without_equals(self, capsys, tmp_path):
        cfg = tmp_path / "nabla.cfg"
        cfg.write_text("# a comment\n\nformat csv\n")
        assert run(capsys, "invert", "--expr", EX1, "--config", str(cfg)) \
            == (2, "", "error: bad config line (need key=value): 'format csv'\n")

    @pytest.mark.parametrize("command, line", [
        # invert read no tol, and printed its values
        (("invert", "--expr", EX1), "tol = 5"),
        (("invert", "--expr", EX1), "nodes = 64"),
        (("forward", "--expr", EX1), "k = 1..3"),
        (("verify", "--expr", EX1), "strategy = pfe"),
        (("table", "--match", EX1), "a = 1"),
        (("roundtrip",), "format = json"),
    ])
    def test_config_key_of_a_flag_the_command_lacks(self, capsys, tmp_path, command, line):
        cfg = tmp_path / "nabla.cfg"
        cfg.write_text(line + "\n")
        key = line.split("=")[0].strip()
        assert run(capsys, *command, "--config", str(cfg)) \
            == (2, "", f"error: {cfg}: {key}: {command[0]} takes no --{key}\n")

    def test_missing_config_file(self, capsys):
        code, _, _ = run(capsys, "invert", "--expr", EX1, "--config", "/does/not/exist")
        assert code == 2

    @pytest.mark.parametrize("command, line, choices", [
        # verify prints text or json; csv from a file printed the text lines
        (("verify", "--expr", "1/(s-0.3)", "--k", "1..3"), "format = csv",
         "'text', 'json'"),
        # xml from a file printed the text table
        (("invert", "--expr", "1/(s-0.3)", "--k", "1..3"), "format = xml",
         "'text', 'csv', 'json'"),
        (("invert", "--expr", "1/(s-0.3)", "--k", "1..3"), "strategy = newton",
         "'pfe', 'inside', 'outside', 'fractional', 'auto'"),
    ])
    def test_config_value_outside_the_flag_choices(self, capsys, tmp_path, command, line,
                                                   choices):
        cfg = tmp_path / "nabla.cfg"
        cfg.write_text(line + "\n")
        code, out, err = run(capsys, *command, "--config", str(cfg))
        assert code == 2
        assert out == ""
        key, value = (part.strip() for part in line.split("="))
        assert f"argument --{key}: invalid choice: {value!r} (choose from {choices})" in err


class TestNumericFlags:
    """A numeric flag, variable or config value out of its range exits 2 with
    one line naming it.  F = 1/(s-1) has a pole at s = 1 (exit 1), so exit 2
    shows that the check runs before the mathematics."""

    @pytest.mark.parametrize("argv, message", [
        (["invert", "--a", "nan"], "argument --a: must be finite, got nan"),
        (["invert", "--a", "inf"], "argument --a: must be finite, got inf"),
        (["verify", "--tol", "-1"], "argument --tol: must be finite and above 0, got -1.0"),
        (["verify", "--tol", "nan"], "argument --tol: must be finite and above 0, got nan"),
        (["verify", "--tol", "inf"], "argument --tol: must be finite and above 0, got inf"),
        (["verify", "--tol", "0"], "argument --tol: must be finite and above 0, got 0.0"),
        (["forward", "--tol=-1e-9"],
         "argument --tol: must be finite and above 0, got -1e-09"),
        (["forward", "--s", "0.5,nan"], "argument --s: 'nan' is not a finite complex number"),
        (["forward", "--s", "inf"], "argument --s: 'inf' is not a finite complex number"),
        (["forward", "--s", "0.5,x"], "argument --s: 'x' is not a finite complex number"),
        # a list of no points, which summed nothing and passed
        (["forward", "--s", ","], "argument --s: ',' lists no points"),
        (["forward", "--s", " "], "argument --s: ' ' lists no points"),
        (["forward", "--s", ""], "argument --s: '' lists no points"),
    ])
    def test_flag_out_of_range(self, capsys, argv, message):
        assert run(capsys, *argv, "--expr=1/(s-1)") == (2, "", f"error: {message}\n")

    def test_roundtrip_tol_nan(self, capsys):
        # every row compared against nan failed
        assert run(capsys, "roundtrip", "--tol", "nan") \
            == (2, "", "error: argument --tol: must be finite and above 0, got nan\n")

    @pytest.mark.parametrize("value, message", [
        ("abc", "NABLA_TOL: invalid float value: 'abc'"),
        ("-inf", "NABLA_TOL: must be finite and above 0, got -inf"),
    ])
    def test_environment_tolerance(self, capsys, monkeypatch, value, message):
        monkeypatch.setenv("NABLA_TOL", value)
        assert run(capsys, "verify", "--expr=1/(s-1)") == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("line, message", [
        ("a = nan", "a: must be finite, got nan"),
        ("tol = 0", "tol: must be finite and above 0, got 0.0"),
        ("tol = abc", "tol: invalid float value: 'abc'"),
        ("nodes = 1.5", "nodes: invalid int value: '1.5'"),
    ])
    def test_config_value_out_of_range(self, capsys, tmp_path, line, message):
        cfg = tmp_path / "nabla.cfg"
        cfg.write_text(line + "\n")
        assert run(capsys, "verify", "--expr=1/(s-1)", "--config", str(cfg)) \
            == (2, "", f"error: {cfg}: {message}\n")

    @pytest.mark.parametrize("spaced, joined", [
        (["--a", "-3", "--k", "-2..2"], ["--a=-3", "--k=-2..2"]),
        (["--expr", "-1/(s+0.5)", "--format", "csv"], ["--expr=-1/(s+0.5)", "--format=csv"]),
        (["--k", "-2..2", "--expr", "-1/(s+0.5)", "--a", "-3.0"],
         ["--k=-2..2", "--expr=-1/(s+0.5)", "--a=-3.0"]),
    ])
    def test_value_starting_with_a_dash(self, capsys, spaced, joined):
        """A value after its flag that starts with "-" and is no plain
        number, which argparse took for an option (exit 2, 'expected one
        argument'), reads as after "="."""
        argv = ["invert", "--expr=1/(s+0.5)", *spaced]
        got = run(capsys, *argv)
        assert got == run(capsys, "invert", "--expr=1/(s+0.5)", *joined)
        assert got[0] == 0 and got[2] == ""

    def test_invert_takes_no_tol(self, capsys):
        # invert computes no tolerance-bound check; the flag was read by nothing
        code, out, err = run(capsys, "invert", "--expr", EX1, "--tol", "5")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --tol 5" in err


class TestRoundtripCommand:
    def test_all_rows_pass(self, capsys):
        code, out, _ = run(capsys, "roundtrip")
        assert code == 0
        assert out.count("PASS") == len(out.strip().splitlines()) - 1
        assert "all rows pass" in out


# four close conjugate pairs after a cancelled factor; the expanded
# denominator limited the roots to ~1e-10, and `outside` exited 1 with an
# imaginary residue at k = 8
CLOSE_PAIRS = ("2.24*(s-1.77)/((s-1.77)*(s-1.93)*(s^2-3.28*s+2.768)*(s^2-3.2*s+5.6225)"
               "*(s^2-3.56*s+5.1284)*(s^2-2.9*s+2.2961))")
CLOSE_PAIRS_DEN = [([-1.93, 1.0], -1), ([2.768, -3.28, 1.0], -1), ([5.6225, -3.2, 1.0], -1),
                   ([5.1284, -3.56, 1.0], -1), ([2.2961, -2.9, 1.0], -1)]


class TestFactoredPoles:
    @pytest.mark.parametrize("strategy", ["pfe", "outside", "inside"])
    def test_close_conjugate_pairs_match_a_50_digit_series(self, capsys, strategy):
        code, out, _ = run(capsys, "invert", f"--expr={CLOSE_PAIRS}", "--k", "1..29",
                           "--strategy", strategy, "--format", "csv")
        assert code == 0
        got = np.array([float(line.split(",")[1]) for line in out.splitlines()[1:]])
        want = mpmath_factored_values(2.24, CLOSE_PAIRS_DEN, 29).real
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_cancelled_factors_leave_a_constant(self, capsys):
        code, out, _ = run(capsys, "invert", "--expr=(s-2)/(s-2)", "--k", "1..3",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["roc"] == "all s in C"
        assert [v["f"] for v in doc["values"]] == [1.0, 0.0, 0.0]
        assert doc["closed_form"] == [{"type": "impulse", "coefficient": [1.0, 0.0],
                                       "shift": 0}]

    def test_identically_zero_divisor_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "invert", "--expr=1/(s-s)", "--k", "1..3")
        assert code == 2
        assert err == "error: denominator is identically zero\n"


def _two_decimals(x):
    text = f"{x:.2f}"
    return "0.00" if text == "-0.00" else text


def _literal(z):
    """A real or complex two-decimal literal, parenthesised when complex."""
    if z.imag == 0:
        return _two_decimals(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"({_two_decimals(z.real)}{sign}{_two_decimals(abs(z.imag))}j)"


def _conjugate_sweep(seed, count):
    """``count`` real F written as partial fractions r/(s-p)^n, as (text,
    terms): 2-3 exact conjugate pole pairs and 0-2 real poles, orders 1-2,
    poles at least 0.15 apart and |1 - p| >= 1, so that every grid is
    bounded; two-decimal literals, each pair's members side by side."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        poles, terms = [], []

        def fresh(draw):
            while True:
                p = draw()
                if abs(1 - p) >= 1 and all(abs(p - q) >= 0.15 for q in poles):
                    poles.append(p)
                    return p

        def pair_pole():
            w = rng.uniform(1, 3) * np.exp(1j * rng.uniform(0.2, 2.9))
            return complex(round(1 - w.real, 2), round(-w.imag, 2))

        for _ in range(int(rng.integers(2, 4))):
            p = fresh(pair_pole)
            poles.append(p.conjugate())
            r = complex(round(rng.uniform(-3, 3), 2), round(rng.uniform(-2, 2), 2) or 0.5)
            n = int(rng.integers(1, 3))
            terms += [(r, p, n), (r.conjugate(), p.conjugate(), n)]
        for _ in range(int(rng.integers(0, 3))):
            p = fresh(lambda: complex(round(1 - rng.uniform(1, 3) * rng.choice((-1, 1)), 2)))
            r = complex(round(rng.uniform(-3, 3), 2) or 1.0)
            terms.append((r, p, int(rng.integers(1, 3))))
        text = " + ".join(
            f"{_literal(r)}/" + (f"(s+{_literal(-p)})" if p.imag == 0 and p.real < 0
                                 else f"(s-{_literal(p)})") + (f"^{n}" if n > 1 else "")
            for r, p, n in terms).replace("+ -", "- ")
        out.append((text, terms))
    return out


def _exact_values(terms, ks):
    """f(k) = sum r C(k+n-2, n-1) (1-p)^-(k+n-1) over the written terms, each
    literal read as its decimal, summed in Fractions and rounded once."""
    def gaussian(z):  # 100 z as a Gaussian integer
        return round(z.real * 100), round(z.imag * 100)

    def times(a, b):
        return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]

    out = []
    for k in ks:
        total = Fraction(0)
        for r, p, n in terms:
            (ur, ui), power, e = gaussian(1 - p), (1, 0), k + n - 1
            base = ur, -ui  # 1/u = conj(u) / |u|^2
            while e:
                if e & 1:
                    power = times(power, base)
                base, e = times(base, base), e >> 1
            rr, ri = gaussian(r)
            re = rr * power[0] - ri * power[1]  # Re(100 r * conj(100 u)^N)
            total += Fraction(math.comb(k + n - 2, n - 1) * re * 100 ** (k + n - 1),
                              100 * (ur * ur + ui * ui) ** (k + n - 1))
        out.append(float(total))
    return np.array(out)


# close conjugate terms: a pair 2e-7 apart that pooling merges, and two pairs
# within 5e-4 of each other beside a growing real pole
CLOSE = "(1+2e-7j)/(s-(0.5+1e-7j)) + (1-2e-7j)/(s-(0.5-1e-7j)) + 1/(s+2)"
NEAR = ("(-0.53-0.22j)/(s-(-1.12075+0.00047j)) + (-0.53+0.22j)/(s-(-1.12075-0.00047j))"
        " + (0.6-0.5j)/(s-(-1.12071-0.0005j)) + (0.6+0.5j)/(s-(-1.12071+0.0005j))"
        " + 600/(s-1.2)")
# a conjugate pair of order 40
HIGH = "(1+1j)/(s-(2+1j))^40 + (1-1j)/(s-(2-1j))^40"
# a real F written with real quadratics, two conjugate pairs within 5e-4 of
# each other beside a growing real pole
NEAR_QUADRATICS = ("(-1.06*s-1.1877882)/(s^2+2.2415*s+1.2560807834)"
                   " + (1.2*s+1.344352)/(s^2+2.24142*s+1.2559911541) + 600/(s-1.2)")


class TestConjugateWrittenF:
    """A real F written with conjugate terms, r/(s-p) + r-bar/(s-p-bar), reads
    real: its series is divided in float64 and its closed form computes the
    upper member of each pair, and every route agrees with the written terms
    summed exactly."""

    STEPS = [1, 2, 3, 4, 5, 10, 99, 500, 1000, 1999, 2000]

    @pytest.mark.parametrize("text, terms", _conjugate_sweep(2034, 30))
    def test_every_route_prints_the_exact_sum(self, capsys, text, terms):
        from nablainv import classify, parse_expression

        rf = classify(parse_expression(text)).rational
        assert rf.is_real is True
        assert rf.series_at_one(4).dtype == np.float64
        for grid in ("1..5", "1..2000"):
            ks = self.STEPS[:5] if grid == "1..5" else self.STEPS
            want = _exact_values(terms, ks)
            # the largest term's size at k: rounding is in proportion to it;
            # the worst step of the sweep is 2.9e-11 of it (5.4e-11 before
            # pairing), where double poles 0.19 apart meet in the written sum
            scale = np.max([[abs(r) * math.comb(k + n - 2, n - 1) * abs(1 - p) ** -(k + n - 1)
                             for k in ks] for r, p, n in terms], axis=0)
            for strategy in ("auto", "pfe", "outside", "inside"):
                code, out, err = run(capsys, "invert", f"--expr={text}", "--k", grid,
                                     "--strategy", strategy, "--format", "csv")
                assert (code, err) == (0, ""), strategy
                rows = out.splitlines()[1:]
                got = np.array([float(rows[k - 1].split(",")[1]) for k in ks])
                assert np.all(np.abs(got - want) <= 1e-10 * scale + 1e-300), strategy

    @pytest.mark.parametrize("text", [
        # the pair apart, with a real term between its members
        "(0.50+1.20j)/(s-(-0.70+1.10j)) + 2.00/(s+1.50) + (0.50-1.20j)/(s-(-0.70-1.10j))",
        # the pair as a product, alone and beside a real term
        "(2.00*s+1.00)/((s-(-0.70+1.10j))*(s-(-0.70-1.10j)))",
        "1.00/((s-(-0.70+1.10j))*(s-(-0.70-1.10j))) + 2.00/(s+1.50)",
    ])
    def test_split_and_product_pairs_read_real(self, capsys, text):
        from nablainv import classify, parse_expression

        rf = classify(parse_expression(text)).rational
        assert rf.is_real is True
        assert rf.series_at_one(2000).dtype == np.float64
        outputs = []
        for strategy in ("pfe", "inside"):
            code, out, _ = run(capsys, "invert", f"--expr={text}", "--k", "1..2000",
                               "--strategy", strategy, "--format", "csv")
            assert code == 0
            outputs.append(np.array([float(r.split(",")[1]) for r in out.splitlines()[1:]]))
        assert np.max(np.abs(outputs[0] - outputs[1])) <= 1e-13 * np.max(np.abs(outputs[0]))

    @pytest.mark.parametrize("strategy, expr, k, code, out, err", [
        # the pooled pair cancels one unit against a numerator root: the
        # reduced F is complex, and every route refuses it at once
        *((s, CLOSE, "1..5", 1, "", REFUSED) for s in ("auto", "pfe", "outside", "inside")),
        # the closed form of the paired F is real by construction, and its
        # residues, off by about 1e-4 at the four close poles, miss F(1) =
        # -2999.934040147391... by 1.07e-9 of it, past the realness tolerance
        *((s, NEAR, "1..3", 1, "", "error: the partial-fraction terms give f(a+1) = "
           "-2999.9340433582465 where F(1) = -2999.93404014739: its residues have lost "
           "their accuracy; try --strategy inside\n") for s in ("auto", "pfe", "outside")),
        ("inside", NEAR, "1..3", 0, "k,f(k)\n1,-2999.9340401473905\n2,15000.031076417605\n"
         "3,-74999.985358625461\n", ""),
        # the same close pairs written as real quadratics: the closed form of
        # every real F with a complex pole is checked, and this one misses
        # F(1) by 2.4e-7 of it
        *((s, NEAR_QUADRATICS, "1..3", 1, "", "error: the partial-fraction terms give "
           "f(a+1) = -2999.9347638078143 where F(1) = -2999.93404014739: its residues have "
           "lost their accuracy; try --strategy inside\n") for s in ("auto", "pfe", "outside")),
        ("inside", NEAR_QUADRATICS, "1..3", 0, "k,f(k)\n1,-2999.9340401473905\n"
         "2,15000.031076417605\n3,-74999.985358625461\n", ""),
        # a pair of order 40: the residues come from the roots of a degree-40
        # numerator, and the closed form misses F(1) by thirteen orders
        ("pfe", HIGH, "1..3", 1, "", "error: the partial-fraction terms give f(a+1) = "
         "84594363.6049611 where F(1) = 1.9045201042899862e-06: its residues have lost "
         "their accuracy; try --strategy inside\n"),
        ("inside", HIGH, "1..3", 0, "k,f(k)\n1,1.9045201042899862e-06\n"
         "2,-7.6178417657501996e-05\n3,0.00077986901305848733\n", ""),
    ])
    def test_close_conjugate_terms(self, capsys, strategy, expr, k, code, out, err):
        assert run(capsys, "invert", f"--expr={expr}", "--k", k, "--strategy", strategy,
                   "--format", "csv") == (code, out, err)

    @pytest.mark.parametrize("expr, f1, worst", [
        (NEAR, "-2999.9340433582465", "4.887e-06"),
        (NEAR_QUADRATICS, "-2999.9347638078143", "1.101e-03"),
    ])
    def test_forward_sums_what_the_printing_routes_refuse(self, capsys, expr, f1, worst):
        """The first-step check belongs to the routes that print a closed
        form's values: pfe, outside, fractional and verify refuse these close
        pairs with one line, while forward, the oracle, sums the same terms
        and shows how far they miss F."""
        refused = {run(capsys, "invert", f"--expr={expr}", "--k", "1..3", "--strategy", s)
                   for s in ("auto", "pfe", "outside", "fractional")}
        refused.add(run(capsys, "verify", f"--expr={expr}", "--k", "1..3"))
        assert refused == {(1, "", f"error: the partial-fraction terms give f(a+1) = {f1} "
                            "where F(1) = -2999.93404014739: its residues have lost their "
                            "accuracy; try --strategy inside\n")}
        code, out, err = run(capsys, "forward", f"--expr={expr}")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[0] == "forward series of the inverted sequence vs direct F(s)  [pfe]"
        assert len(lines) == 8 and lines[-1] == f"max |diff| = {worst}"


class TestNonRealF:
    """Realness is decided once, from F (``is_real``): a non-real F is
    refused before any route computes a value, with one line that names no
    step, on every route and on verify; forward, which prints no sequence,
    still sums it."""

    NON_REAL = [
        ["--expr=1/(s-2j)"],  # f = 0.2+0.4j, -0.12+0.16j, ...
        ["--expr=1e-12j/(s+0.5)"],  # an imaginary part below 1e-9 of |f|
        ["--expr=1e-300j/(s-0.5)", "--k", "1..3000"],  # i 1e-300 2^k
        ["--expr=(0.5-0.5j+(0.5+0.5j)*s)^-1.5"],  # pair row 6 with a complex gamma
        ["--expr=1/(s^0.5-0.2j)"],  # an atom with a complex lambda
        ["--expr=1/(s^0.5-(0.2+0.1j))"],
        [f"--expr={CLOSE}"],  # a conjugate pair that pooling merges
    ]

    @staticmethod
    def no_route(monkeypatch):
        def unreachable(*args):
            raise AssertionError("a route computed a value of a non-real F")

        monkeypatch.setattr(ClosedFormSequence, "values", unreachable)
        monkeypatch.setattr(cli, "invert_inside", unreachable)

    @pytest.mark.parametrize("argv", NON_REAL)
    def test_no_route_is_reached(self, capsys, monkeypatch, argv):
        self.no_route(monkeypatch)
        for strategy in ("auto", "pfe", "outside", "inside", "fractional"):
            assert run(capsys, "invert", *argv, "--strategy", strategy) == (1, "", REFUSED)
        assert run(capsys, "verify", *argv) == (1, "", REFUSED)

    def test_forward_still_sums_a_complex_f(self, capsys):
        code, out, err = run(capsys, "forward", "--expr=1/(s-2j)")
        assert (code, err) == (0, "")
        assert out.startswith("forward series of the inverted sequence vs direct F(s)  [pfe]")

    def test_refusal_is_a_realness_error(self):
        problem = cli._Problem("1/(s-2j)", 0.0)
        with pytest.raises(RealnessError, match="^F\\(s\\) is not real"):
            problem.invert("auto", np.arange(1.0, 4.0), np.arange(1, 4))

    def test_real_input_with_complex_dust_passes(self, capsys):
        # deflating by the complex roots of the cancelled quadratic leaves a
        # factor with imaginary rounding; F is real as written, and reads real
        expr = "(s^2-0.4*s+0.5)/((s^2-0.4*s+0.5)*(s^2+0.3*s+0.2)*(s+2))"
        code, out, _ = run(capsys, "invert", f"--expr={expr}", "--k", "1..2000",
                           "--strategy", "inside", "--format", "csv")
        assert code == 0
        assert len(out.splitlines()) == 2001


