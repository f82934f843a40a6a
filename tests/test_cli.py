"""Command surface: outputs, exit codes, environment and config handling."""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from nablainv import cli, pair
from nablainv.cli import main
from conftest import mpmath_atom_values, mpmath_factored_values, mpmath_row10_values

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

    def test_table_strategy(self, capsys):
        code, out, _ = run(capsys, "invert", "--expr", "1/(1-0.5+0.5*s)^1.5",
                           "--k", "1..4", "--format", "csv")
        assert code == 0
        assert out.splitlines()[1] == "1,1"


class TestExitCodes:
    def test_pole_at_one(self, capsys):
        code, out, err = run(capsys, "invert", "--expr", "1/(s-1)", "--k", "1..3")
        assert code == 1
        assert out == ""  # no values may be emitted
        assert "pole" in err

    def test_unsupported_expression(self, capsys):
        code, out, err = run(capsys, "invert", "--expr", "1/(exp(s)-0.5)",
                             "--k", "1..3")
        assert code == 1
        assert out == ""
        assert "essential singularities" in err

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
        def no_memory(text, a):
            raise MemoryError

        monkeypatch.setattr(cli, "_parse_krange", no_memory)
        code, out, err = run(capsys, "invert", "--expr", "1/(s-0.3)", "--k", "1..1e11")
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: ") and "narrow --k" in err


class TestComplexSequence:
    """Every route rejects an F whose sequence is not real, naming the step."""

    @pytest.mark.parametrize("expr, strategy, k", [
        ("1/(s-2j)", "inside", 1),  # f = 0.2+0.4j, -0.12+0.16j, ...
        ("(0.5-0.5j+(0.5+0.5j)*s)^-1.5", "auto", 2),  # row 6: 1, 0.75+0.75j, 0.9375j
    ])
    def test_exits_1(self, capsys, expr, strategy, k):
        code, out, err = run(capsys, "invert", f"--expr={expr}", "--k", "1..3",
                             "--strategy", strategy)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert "imaginary residue" in err and f"at k = {k}.0" in err

    @pytest.mark.parametrize("expr, strategy, k", [
        ("1/(s-2j)", "inside", 1),
        ("(0.5-0.5j+(0.5+0.5j)*s)^-1.5", "auto", 2),
        ("1/(s^0.5-0.2j)", "auto", 1),  # fractional: f(1) = 1/(1-0.2j)
    ])
    def test_series_and_table_routes_name_the_complex_input(self, capsys, expr, strategy, k):
        # the series and table routes compute F's own series, and the atoms
        # of a real F come in exact conjugate pairs: the cause is F itself
        code, _, err = run(capsys, "invert", f"--expr={expr}", "--k", "1..3",
                           "--strategy", strategy)
        assert code == 1
        assert err == (f"error: imaginary residue {err.split()[3]} at k = {k}.0; "
                       "F(s) has complex coefficients\n")

    @pytest.mark.parametrize("strategy", ["auto", "pfe", "outside"])
    def test_closed_form_routes_name_the_complex_input(self, capsys, strategy):
        # a real F has a real closed form by construction: the cause is F
        code, out, err = run(capsys, "invert", "--expr=1/(s-2j)", "--k", "1..3",
                             "--strategy", strategy)
        assert code == 1
        assert out == ""
        assert err == ("error: imaginary residue 4.000e-01 at k = 1.0; "
                       "F(s) has complex coefficients\n")

    def test_real_input_with_complex_dust_passes(self, capsys):
        # deflating by the complex roots of the cancelled quadratic leaves
        # imaginary dust of up to 8.6e-13 of |f(k)| per k, 1.1e-16 of max |f|
        expr = "(s^2-0.4*s+0.5)/((s^2-0.4*s+0.5)*(s^2+0.3*s+0.2)*(s+2))"
        code, out, _ = run(capsys, "invert", f"--expr={expr}", "--k", "1..2000",
                           "--strategy", "inside", "--format", "csv")
        assert code == 0
        assert len(out.splitlines()) == 2001


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

    @pytest.mark.parametrize("krange", ["1..200", "1..10000"])
    @pytest.mark.parametrize("strategy", ["inside", "pfe"])
    def test_pole_next_to_one_overflows_at_k_52(self, capsys, strategy, krange):
        """(1 - 0.999999)^-(k-a) grows by 1e6 a step; the series' blocks for
        that factor are cut short, so it names the same first step as pfe."""
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
        """numpy's complex power flags (1e-6)^-52 as a division by zero."""
        code, out, err = run(capsys, command, "--expr=1/(s-0.999999)", "--k", "1..60")
        assert code == 1
        assert err == "error: f(k) at k = 52 is outside the float64 range; narrow --k\n"

    def test_overflow_in_verify_exits_1(self, capsys):
        code, _, err = run(capsys, "verify", "--expr=-1.36/(s-0.63)", "--k", "700..800")
        assert code == 1
        assert "k = 714" in err


def _print_rows(fmt, problem, used, cf, rows):
    """Reference: the row-by-row print formatter of the previous CLI."""
    if fmt == "csv":
        print("k,f(k)")
        for k, v in rows:
            print(f"{k:g},{v:.17g}")
        return
    if fmt == "json":
        doc = {
            "expression": problem.text,
            "canonical": cli.pretty(problem.ast),
            "classification": problem.classified.kind.value,
            "strategy": used,
            "a": problem.a,
            "roc": cli.describe_roc(problem.radius),
            "closed_form": [cli._term_json(t) for t in cf.terms] if cf else None,
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
        print(f"{k:8g}  {v:24.17g}")


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
    ])
    def test_bytes_match_row_printer(self, capsys, fmt, expr, strategy, krange, a):
        problem = cli._Problem(expr, a)
        ks = cli._parse_krange(krange, a)
        used, cf, values = problem.invert(strategy, ks)
        _print_rows(fmt, problem, used, cf, list(zip(ks.tolist(), values.tolist())))
        want = capsys.readouterr().out
        code, out, _ = run(capsys, "invert", "--expr", expr, "--a", str(a), "--k", krange,
                           "--strategy", strategy, "--format", fmt)
        assert code == 0
        assert out == want


class TestLongGrid:
    EXPR = ("1.5/(s+0.8) + 2.1/(s+1.1)^2 + (1.2-0.5j)/(s-(-0.5-1.5j))"
            " + (1.2+0.5j)/(s-(-0.5+1.5j))")

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
        assert len(lines) == 5 and all(line.startswith("PASS") for line in lines), out

    def test_simple_pole_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--expr", "1/(s-0.3)", "--a", "0",
                           "--k", "1..10")
        assert code == 0
        assert out.count("PASS") == 5
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
        assert checks[1]["bound"] == float(tol or 1e-9)


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
