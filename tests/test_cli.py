"""Command surface: outputs, exit codes, environment and config handling."""

import json
import time

import numpy as np
import pytest

from nablainv import cli
from nablainv.cli import main

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
            "roc": problem.roc.describe(),
            "closed_form": [cli._term_json(t) for t in cf.terms] if cf else None,
            "values": [{"k": k, "f": v} for k, v in rows],
        }
        print(json.dumps(doc, indent=2))
        return
    print(f"expression     : {cli.pretty(problem.ast)}")
    print(f"classification : {problem.classified.kind.value}")
    print(f"strategy       : {used}")
    print(f"ROC            : {problem.roc.describe()}")
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
        on a 2-core VM, the recurrence takes well under 1 s."""
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


class TestVerifyCommand:
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

    def test_impossible_tolerance_fails(self, capsys, monkeypatch):
        monkeypatch.setenv("NABLA_TOL", "1e-30")
        code, out, _ = run(capsys, "verify", "--expr", EX1, "--k", "1..8")
        assert code == 1
        assert "FAIL" in out


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


class TestRoundtripCommand:
    def test_all_rows_pass(self, capsys):
        code, out, _ = run(capsys, "roundtrip")
        assert code == 0
        assert out.count("PASS") == len(out.strip().splitlines()) - 1
        assert "all rows pass" in out
