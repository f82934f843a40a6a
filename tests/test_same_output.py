"""The output comparison over the benchmark's requests."""

import hashlib
import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

from nablainv import PoleAtOneError
from nablainv.cli import main
from nablainv.pairs import reference_pairs
from conftest import REFUSED

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture(scope="module")
def same_output():
    sys.path.insert(0, str(TOOLS))  # same_output imports bench_pairs beside it
    try:
        spec = importlib.util.spec_from_file_location("same_output", TOOLS / "same_output.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(TOOLS))
    return module


def test_commands_are_the_requests_with_each_verify_confirmed(same_output):
    assert len(same_output.commands("rational-short", 1)) == 408  # whole blocks past 400
    cmds = same_output.commands("verify", 1)
    verifies = [i for i, argv in enumerate(cmds) if argv[0] == "verify"]
    assert len(verifies) == 100 and len(cmds) == 200
    for i in verifies:
        assert cmds[i - 1] == ["invert", *cmds[i][1:], "--format", "json"]


def test_child_hashes_exit_code_stdout_and_stderr(same_output, tmp_path, capsys):
    cmds = [["invert", "--expr=1/(s-0.3)", "--k", "1..3"],
            ["invert", "--expr=1/(s-", "--k", "1..3"],
            ["invert", "--expr=1/(s-0.3)", "--k", "1..3"]]
    argv_file = tmp_path / "commands.json"
    argv_file.write_text(json.dumps(cmds))
    (got,) = same_output.digests([same_output.start(same_output.ROOT, str(argv_file))])
    want = []
    for argv in cmds:
        code = main(argv)
        out, err = capsys.readouterr()
        want.append(hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest())
    assert got == want and got[0] == got[2] != got[1]


def test_fixed_commands_reach_what_no_request_does(same_output, capsys):
    """roundtrip, table --match on every reference transform and the MATCHED
    shapes, each format of the fractional shapes, the two high-order poles,
    the term order of the TERMS rationals, the fractional route on a
    rational, each format of the PRINTED grids, the DIVIDED series, the
    POWERED closed forms, the CONJUGATE terms of real F, forward and verify
    where F is read as no request reads it, and the REJECTED commands; each
    but the rejected exits 0 here."""
    cmds = same_output.fixed_commands()
    assert cmds[0] == ["roundtrip"]
    tables = [argv for argv in cmds if argv[0] == "table"]
    assert tables == [["table", f"--match={tp.transform_text}"] for tp in reference_pairs()] \
        + [["table", f"--match={expr}"] for expr in same_output.MATCHED]
    rejected = same_output.REJECTED
    assert cmds[-len(rejected):] == rejected
    # the series that starts at w^261: its inside grid, and verify, whose pfe
    # route refuses it
    late = same_output.LATE_START
    assert same_output.DIVIDED[-1] == ["--strategy", "inside", late, "--k", "1..330"]
    assert ["verify", late, "--k", "1..330"] in rejected
    inverts = [argv[1:] for argv in cmds[:-len(rejected)] if argv[0] == "invert"]
    assert inverts == [[f"--expr={expr}", "--format", fmt] for expr in same_output.FRACTIONAL
                       for fmt in ("text", "csv", "json")] \
        + [[f"--expr={expr}", "--k", "1..3"] for expr in same_output.HIGH_ORDER] \
        + [["--expr=(s^3+1)/((s-2)*(s+0.55)^2)", "--format", "text"],
           ["--expr=(s^3+1)/((s-2)*(s+0.55)^2)", "--format", "json"],
           ["--expr=4.05/((s+0.55)^2)+1/(s-2)", "--format", "text"],
           ["--expr=4.05/((s+0.55)^2)+1/(s-2)", "--format", "json"],
           ["--strategy", "fractional", "--expr=1/(s-0.3)+2/(s+0.4)", "--format", "json"]] \
        + [[*argv, "--format", fmt] for argv in same_output.PRINTED
           for fmt in ("text", "csv", "json")] \
        + same_output.DIVIDED + same_output.POWERED + same_output.CONJUGATE
    evaluating = [argv for argv in cmds[:-len(rejected)] if argv[0] in ("forward", "verify")]
    assert evaluating == [
        ["forward", "--expr=9/((s+1)^2*(s-2))"],
        ["forward", "--expr=1/(s^0.5-0.2)-s^0.2/(s^0.7-0.3)"],
        ["forward", "--expr=1/(s-2j)"],
        ["forward", same_output.NEAR_PAIRS],
        ["forward", same_output.NEAR_QUADRATICS],
        ["verify", "--expr=1/((s+0.5)^4*(s-0.2))", "--k", "1..40"],
        ["verify", "--expr=0*s/(s-3)", "--k", "1..5"],
        ["verify", same_output.PAIR_TERMS, "--k", "1..100"],
        ["verify", same_output.PAIR_TERMS, "--k", "1..100", "--format", "json"],
        ["verify", "--expr=1/(0.5*s+0.5)^1.5"],
        ["verify", "--expr=1/((s+0.5)*(s+0.2))", "--k", "1..1000"]]
    assert len(cmds) == 1 + len(tables) + len(inverts) + len(evaluating) + len(rejected)
    for argv in cmds[:-len(rejected)]:
        assert main(argv) == 0, argv
    # the double pole does not convert to atoms (exit 1), "abc" and 0.5 are
    # no grid (exit 2), 1..1e30 has too many steps for an array (exit 1), ","
    # lists no point (exit 2), the pole at s = 1 exits 1 on every command
    # with the one PoleAtOneError line, and the complex lambda, the shapes with no
    # strategy, the unsupported power, the atom beside a non-atom, the
    # overflowing series, the close conjugate pairs on each closed-form route
    # and the underflowing residue exit 1, and so do the growing F and the
    # tiny residues, at the first step out of range, and the far grids, at
    # their first step, and the growing atom at its first step out of range;
    # the complex F exit 1 on every route and grid, with one line that names
    # no step
    at_one = rejected.index(same_output.POLE_AT_ONE[0])
    assert rejected[at_one:at_one + 5] == same_output.POLE_AT_ONE
    assert [main(argv) for argv in rejected[:at_one]] == [1, 2, 2, 1, 2]
    capsys.readouterr()
    assert [main(argv) for argv in same_output.POLE_AT_ONE] == [1] * 5
    assert capsys.readouterr().err == f"error: {PoleAtOneError()}\n" * 5
    assert [main(argv) for argv in rejected[at_one + 5:]] == [1] * 31
    err = capsys.readouterr().err.splitlines()[-19:]
    assert [line.split(" at k = ")[1].split(" ")[0] for line in err[:8]] == [
        "734", "734", "1024", "2021", "10000000", "7532", "100000", "1000000"]
    assert [line + "\n" for line in err[8:]] == [REFUSED] * 11


def test_no_request_reaches_the_evaluating_commands(same_output):
    """No benchmark request runs forward or has a denominator power of 4 or
    more, so only the fixed commands read F there."""
    requests = [argv for workload in same_output.bench.workloads.BLOCKS
                for seed in (1, 7) for argv in same_output.commands(workload, seed)]
    assert not [argv for argv in requests if argv[0] == "forward"]
    exprs = [arg.removeprefix("--expr=") for argv in requests for arg in argv
             if arg.startswith("--expr=")]
    assert exprs and not [e for e in exprs if re.search(r"\)\^([4-9]|\d\d)", e)]
