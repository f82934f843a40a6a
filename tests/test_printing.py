"""printing.texts against Python's own float formatting, byte for byte, and
the CLI's long grids against rows formatted one by one with %."""

import argparse
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from nablainv import cli, printing
from nablainv.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def assert_python_bytes(values):
    """texts(values) is '%.17g' % v and repr(v) for each v, and as a %24s
    field it is '%24.17g' % v."""
    values = np.asarray(values, dtype=np.float64)
    floats = values.tolist()
    g17 = printing.texts(values, shortest=False)
    assert g17 == ["%.17g" % v for v in floats]
    assert ["%24s" % t for t in g17] == ["%24.17g" % v for v in floats]
    assert printing.texts(values, shortest=True) == [repr(v) for v in floats]


def test_random_bit_patterns():
    bits = np.random.default_rng(27).integers(0, 2**64, 600_000, dtype=np.uint64)
    values = bits.view(np.float64)
    assert_python_bytes(values[np.isfinite(values)])


def test_random_magnitudes_over_the_whole_range():
    rng = np.random.default_rng(7)
    mantissas = rng.random(150_000) + 0.5
    assert_python_bytes(np.ldexp(mantissas * rng.choice((-1, 1), mantissas.size),
                                 rng.integers(-1074, 1024, mantissas.size)))


def neighbours(values, steps=1):
    """Each value and the ``steps`` floats on either side of it."""
    values = np.asarray(values, dtype=np.float64)
    out = [values]
    up = down = values
    for _ in range(steps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    both = np.concatenate(out)
    return both[np.isfinite(both)]


def test_powers_of_two_and_ten_with_their_neighbours():
    """Powers of two are repr's fallback (their round-trip interval is not
    symmetric); near a power of ten log10 may be one off and the 17 digits
    may round up to 10^17."""
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    values = neighbours(np.concatenate([twos, tens]), steps=3)
    values = values[values > 0]
    assert_python_bytes(np.concatenate([values, -values]))
    # among them the floats just below 10^k whose 17 digits round up to 10^17
    up = [v for k in range(-323, 309) for v in values[np.abs(np.log10(values) - k) < 1e-15]
          if "%.17g" % v == "1e%+03d" % k and Fraction(v) < 10 ** Fraction(k)]
    assert len(up) >= 10


def test_subnormals_zeros_and_non_finite_values():
    tiny = np.ldexp(1.0, -1074)
    steps = np.concatenate([np.arange(1, 5000), np.random.default_rng(3).integers(
        1, 2**52, 50_000)])
    subnormals = steps * tiny
    assert subnormals.min() == 5e-324 and subnormals.max() < np.finfo(float).tiny
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                np.finfo(float).tiny, np.finfo(float).max, -np.finfo(float).max]
    assert_python_bytes(np.concatenate([subnormals, -subnormals, specials]))


def test_integers_around_2_53_and_up_to_1e17():
    near = 2.0**53 + np.arange(-3000, 3000)
    rng = np.random.default_rng(11)
    ints = rng.integers(0, 10**17, 100_000).astype(np.float64)
    powers = np.concatenate([10.0 ** np.arange(18), 2.0 ** np.arange(64)])
    assert_python_bytes(np.concatenate([near, ints, neighbours(powers, 2)]))


def test_exact_digit_ties():
    """18 significant digits ending in 5: the 17 digits round half to even."""
    rng = np.random.default_rng(5)
    ties = np.concatenate([
        rng.integers(10**14, 10**15, 20_000) + rng.choice((0.125, 0.375, 0.625, 0.875), 20_000),
        rng.integers(10**15, 2 * 10**15, 20_000) + rng.choice((0.25, 0.75), 20_000),
        rng.integers(10**13, 10**14, 20_000) + 0.0625,
    ])
    values = np.concatenate([ties, [276281441161728.375]])
    # the tie is at the 17th digit: it is kept, rounded to even
    assert sum(len(("%.17g" % v).replace(".", "")) == 17 for v in values.tolist()) > 50_000
    assert_python_bytes(values)


def test_values_a_decaying_grid_prints():
    ks = np.arange(1, 3000)
    assert_python_bytes(np.concatenate([0.7**ks, -(1.5 ** -ks), 3.3 * 0.99**ks,
                                        1e-300 * 1.01**ks]))


def test_cli_import_leaves_the_printer_unloaded():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import nablainv.cli; "
            "print('nablainv.printing' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def percent_rows(fmt, ks, values):
    """The grid's rows, each formatted by itself with %."""
    integral = float(ks[0]).is_integer()
    if fmt == "csv":
        return ["%d,%.17g\n" % (k, v) if integral else "%r,%.17g\n" % (k, v)
                for k, v in zip(ks.tolist(), values.tolist())]
    if fmt == "text":
        return ["%8d  %24.17g\n" % (k, v) if integral else "%8r  %24.17g\n" % (k, v)
                for k, v in zip(ks.tolist(), values.tolist())]
    return [{"k": k, "f": v} for k, v in zip(ks.tolist(), values.tolist())]


def assert_percent_bytes(capsys, fmt, expr, krange, a):
    """invert prints the grid's rows as percent_rows formats them."""
    problem = cli._Problem(expr, a)
    ks, ms = cli._parse_krange(krange, a)
    _, values = problem.invert("auto", ks, ms)
    code, out, _ = run(capsys, "invert", f"--expr={expr}", f"--a={a}", f"--k={krange}",
                       "--format", fmt)
    assert code == 0
    rows = percent_rows(fmt, ks, values)
    if fmt == "json":
        assert out == json.dumps(json.loads(out) | {"values": rows}, indent=2) + "\n"
        assert json.loads(out)["values"] == rows
    else:
        assert out.endswith("".join(rows))
    return values


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("expr,krange,a", [
    # a decay through the subnormals into the zero tail
    ("1/(s+0.5)", "1..2000", 0.0),
    # powers of two past 2^53, repr's fallback, and +/-1
    ("1/(s-0.5)", "1..1000", 0.0),
    ("1/(s-2)", "1..500", 0.0),
    # non-integral steps, written with repr
    ("0.3/(s+0.5)+0.7/(s-0.2)^2", "1.123456789..400.123456789", 0.123456789),
])
def test_long_grids_print_the_bytes_of_percent_rows(capsys, fmt, expr, krange, a):
    values = assert_percent_bytes(capsys, fmt, expr, krange, a)
    assert printing._live_rows(values) >= cli._PRINTER_MIN_ROWS


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("expr,krange,a,live", [
    # negative k, live through every negative and positive digit count
    ("1/(s+0.2)", "-2999..300", -3000.0, 3300),
    # negative k into a zero tail that starts in the 4-digit run and crosses 0
    ("1/(s+0.5)", "-2999..300", -3000.0, 1837),
    # non-integral negative k, shorter and longer than %8r's field
    ("1/(s+0.5)", "-299.5..100.5", -300.5, 401),
    # k from 4 to 5 digits, and from 5 to 6 digits in the zero tail
    ("1/(s+0.01)", "9001..12000", 0.0, 3000),
    ("1/(s+0.01)", "99001..101000", 0.0, 0),
    # k wider than %8d: 9 digits, from 9 to 10 digits, and 8 digits after '-'
    ("1/(s+0.01)", "123456790..123457289", 123456789.0, 500),
    ("1/(s+0.01)", "999999501..1000000500", 999999000.0, 1000),
    ("1/(s+0.01)", "-12345677..-12345000", -12345678.0, 678),
    # a grid that is all zero tail
    ("1/(s+0.5)", "3001..3400", 0.0, 0),
    # a zero tail from k = 74886, in the middle of the 5-digit run and of a block
    ("1/(s+0.01)", "70001..80000", 0.0, 4885),
])
def test_grids_print_the_bytes_of_percent_rows_across_k_widths(capsys, fmt, expr, krange, a,
                                                              live):
    values = assert_percent_bytes(capsys, fmt, expr, krange, a)
    assert printing._live_rows(values) == live


@pytest.mark.parametrize("values", [[-0.0] * 300, [1.0, -0.0, 0.0] + [-0.0] * 300,
                                    [-0.0, 0.0] * 150])
def test_a_long_zero_tail_keeps_the_sign_of_zero(capsys, values):
    ks = np.arange(1.0, len(values) + 1)
    values = np.array(values)
    cli._emit_values(argparse.Namespace(format="csv"), None, "pfe", None, ks, values)
    assert capsys.readouterr().out == "k,f(k)\n" + "".join(percent_rows("csv", ks, values))


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("expr,first", [("1/(s-0.9)", 1), ("1/(s+0.5)", 1800)])
@pytest.mark.parametrize("rows", [cli._PRINTER_MIN_ROWS - 1, cli._PRINTER_MIN_ROWS])
def test_the_printer_takes_grids_from_the_threshold(monkeypatch, capsys, fmt, expr, first,
                                                    rows):
    """Counted in rows: a grid of 1/(s+0.5) from k = 1800 on is a few dozen
    values and then its zero tail."""
    calls = []
    printer = printing.rows
    monkeypatch.setattr(printing, "rows", lambda *args, **kw: calls.append(1) or printer(
        *args, **kw))
    values = assert_percent_bytes(capsys, fmt, expr, f"{first}..{first + rows - 1}", 0.0)
    assert len(calls) == (rows >= cli._PRINTER_MIN_ROWS)
    assert (printing._live_rows(values) < 100) == (first > 1)
