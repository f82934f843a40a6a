"""Whether this working tree prints what a parent revision prints for every
benchmark request.

    python3 tools/same_output.py --parent HEAD~1 --seeds 1 7

Takes the requests ``bench/run.py`` sends at its default --seconds, for each
workload and seed, and for each ``verify`` request the ``invert --format
json`` of the same input that the benchmark sends first to confirm the
inversion; then a fixed list of commands that reach what no request does
(``fixed_commands``).  One child process per tree (the parent's files
extracted with ``git archive``) passes each command to ``nablainv.cli.main``
and hashes its exit code, stdout and stderr with sha256.  Prints every command whose hash
differs between the trees and exits 1 if any does, 0 when none does.
"""

import argparse
import json
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, extract

sys.path.insert(0, str(ROOT / "bench"))
import run as bench  # noqa: E402

sys.path.insert(0, str(ROOT / "src"))
from nablainv.pairs import reference_pairs  # noqa: E402

SECONDS = 10  # bench/run.py's default --seconds
# inputs that no request writes, each reaching its own branch of the reader:
# a lambda = 0 atom, the form lambda - s^alpha, nested negations and
# quotients, pair row 10's shape, an atom base written constant first or
# raised to -1 or 1, a negated atom, a power of a power of s, a zero or a
# cancelling sum of atoms, s^1.0 (which is s), pair row 6's shape, and a
# lone linear denominator
FRACTIONAL = ["2*s^-0.5", "1/(0.3-s^0.5)", "-(s^0.5)/(-(s^0.7-0.3))",
              "0.5*s^-0.5*(1-s)/(0.3-s^0.5)^2", "1/(-0.2+s^0.5)", "(s^0.5-0.2)^-1",
              "-(1/(s^0.5-0.2))", "1/(s^0.5-0.2)^1", "s^0.25^2/(s^0.5-0.1)", "1/(s^0.5)^2",
              "0/(s^0.5-0.2)", "1/(s^0.5-0.2)-1/(s^0.5-0.2)", "1/(s^1.0-0.3)",
              "(0.3+0.7*s)^-1.5", "s^0.5/(2*s-0.6)"]
# pair rows 6 and 10 written otherwise than their transform texts: the s
# term first, and the squared base as lambda - s^alpha
MATCHED = ["1/(0.5*s+0.5)^1.5", "0.5*s^-0.5*(1-s)/(0.3-s^0.5)^2"]
# poles of order 170 and 172, whose float factorials overflowed
HIGH_ORDER = ["1/(s-2)^170", "1/(s^2-4*s+4)^86"]
# rationals whose closed form shows the order of the terms: an impulse, a
# simple and a double pole; and a double pole whose order-1 coefficient is 0
TERMS = ["(s^3+1)/((s-2)*(s+0.55)^2)", "4.05/((s+0.55)^2)+1/(s-2)"]
# real F written with conjugate terms, which read real: the rational-long
# shape, which requests send to auto and inside only, on pfe and outside in
# each format (and on verify, below); the pair as a product, and apart with
# a real term between its members, on pfe and inside; and two close
# conjugate pairs within 5e-4 of each other beside a growing pole, written
# as conjugate terms and as real quadratics (on inside; the closed-form
# routes refuse them, below)
PAIR_TERMS = ("--expr=-2.68/(s+1.55) + (2.82-0.97j)/(s-(-0.65-1.45j))"
              " + (2.82+0.97j)/(s-(-0.65+1.45j))")
PAIRED = ["--expr=(2.00*s+1.00)/((s-(-0.70+1.10j))*(s-(-0.70-1.10j)))",
          "--expr=(0.50+1.20j)/(s-(-0.70+1.10j)) + 2.00/(s+1.50)"
          " + (0.50-1.20j)/(s-(-0.70-1.10j))"]
CLOSE_PAIR = "--expr=(1+2e-7j)/(s-(0.5+1e-7j)) + (1-2e-7j)/(s-(0.5-1e-7j)) + 1/(s+2)"
NEAR_PAIRS = ("--expr=(-0.53-0.22j)/(s-(-1.12075+0.00047j))"
              " + (-0.53+0.22j)/(s-(-1.12075-0.00047j)) + (0.6-0.5j)/(s-(-1.12071-0.0005j))"
              " + (0.6+0.5j)/(s-(-1.12071+0.0005j)) + 600/(s-1.2)")
NEAR_QUADRATICS = ("--expr=(-1.06*s-1.1877882)/(s^2+2.2415*s+1.2560807834)"
                   " + (1.2*s+1.344352)/(s^2+2.24142*s+1.2559911541) + 600/(s-1.2)")
CONJUGATE = ([["--strategy", strategy, PAIR_TERMS, "--k", "1..2000", "--format", fmt]
              for strategy in ("pfe", "outside") for fmt in ("text", "csv", "json")]
             + [["--strategy", strategy, expr, "--k", "1..2000"]
                for expr in PAIRED for strategy in ("pfe", "inside")]
             + [["--strategy", "inside", expr, "--k", "1..3"]
                for expr in (NEAR_PAIRS, NEAR_QUADRATICS)])
# commands that read F where no request does: forward sums at the default
# points (no request runs forward), also of a complex F and of the close
# conjugate pairs whose closed form the printing routes refuse (forward sums
# its terms), a denominator power of 4 (no request has one above 3), a
# constant F, conjugate terms, each verify format, and pair row 6's shape,
# whose real parameters send its quadrature to the half circle, and a
# verify whose default node count is rounded up (32 032 to 32 400)
EVALUATING = [["forward", "--expr=9/((s+1)^2*(s-2))"],
              ["forward", "--expr=1/(s^0.5-0.2)-s^0.2/(s^0.7-0.3)"],
              ["forward", "--expr=1/(s-2j)"],
              ["forward", NEAR_PAIRS],
              ["forward", NEAR_QUADRATICS],
              ["verify", "--expr=1/((s+0.5)^4*(s-0.2))", "--k", "1..40"],
              ["verify", "--expr=0*s/(s-3)", "--k", "1..5"],
              ["verify", PAIR_TERMS, "--k", "1..100"],
              ["verify", PAIR_TERMS, "--k", "1..100", "--format", "json"],
              ["verify", "--expr=1/(0.5*s+0.5)^1.5"],
              ["verify", "--expr=1/((s+0.5)*(s+0.2))", "--k", "1..1000"]]
# grids that reach the edges of ``printing.rows``, which no request does: a
# decay through the subnormals into the zero tail, powers of two past 2^53
# (repr's fallback), +/-1, and steps that are not integers; negative k, live
# and in the zero tail, integral and not; k crossing from 4 to 5 and from 5 to
# 6 digits; k wider than %8d, from 9 to 10 digits and negative with 8; a grid
# that is all zero tail; a tail from the middle of a block and of the 5-digit
# run; and grids one row below and at the printer's threshold
PRINTED = [["--expr=1/(s+0.5)", "--k", "1..2000"], ["--expr=1/(s-0.5)", "--k", "1..1000"],
           ["--expr=1/(s-2)", "--k", "1..500"],
           ["--expr=1/(s+0.5)", "--a", "0.123456789", "--k", "1.123456789..300.123456789"],
           ["--expr=1/(s+0.2)", "--a=-3000", "--k=-2999..300"],
           ["--expr=1/(s+0.5)", "--a=-3000", "--k=-2999..300"],
           ["--expr=1/(s+0.5)", "--a=-300.5", "--k=-299.5..100.5"],
           ["--expr=1/(s+0.01)", "--k", "9001..12000"],
           ["--expr=1/(s+0.01)", "--k", "99001..101000"],
           ["--expr=1/(s+0.01)", "--a", "123456789", "--k", "123456790..123457289"],
           ["--expr=1/(s+0.01)", "--a", "999999000", "--k", "999999501..1000000500"],
           ["--expr=1/(s+0.01)", "--a=-12345678", "--k=-12345677..-12345000"],
           ["--expr=1/(s+0.5)", "--k", "3001..3400"],
           ["--expr=1/(s+0.01)", "--k", "70001..80000"],
           ["--expr=1/(s+0.5)", "--k", "1800..2054"], ["--expr=1/(s+0.5)", "--k", "1800..2055"]]
# a series zero through w^260, which grows by 1e5 a step from w^261 on
LATE_START = "--expr=1e-250*(s-1)^171*(s^2-1)^90/(s-0.99999)"
# series divisions in blocks which no request makes: by a banded denominator
# of degree 3 or more (a cubic factor on the inside route, and an
# integer-order atom (s^2 + 0.5) beside a fractional one), and of a series
# that starts past the recurrence's usual head
DIVIDED = [["--strategy", "inside", "--expr=1/(s^3+0.5*s^2+0.6*s+2)", "--k", "1..2000"],
           ["--expr=1/(s^0.5-0.2) + 1/(s^2+0.5)", "--k", "1..2000"],
           ["--strategy", "inside", LATE_START, "--k", "1..330"]]
# closed-form powers: a real pole's float64 pow on a whole 1e5-step grid, a
# conjugate pair of |1 - p| = 1.0003 whose anchored tables are live on all
# its 40 000 steps, a pair of |1 - p| = 1.4e5 whose powers leave the
# squaring range (numpy's squaring gave nan from k = 61, ROADMAP item 3),
# and a decaying pair on short grids far out, at k = 1e7 and at k = 2^53
PAIR = "--expr=1/(s-(1+2j))+1/(s-(1-2j))"
POWERED = [["--expr=1/(s+0.01)", "--k", "1..100000"],
           ["--expr=(0.8-1.2j)/(s-(0.0005+0.04j)) + (0.8+1.2j)/(s-(0.0005-0.04j))",
            "--k", "1..40000"],
           ["--expr=1/((s-(-99999-100000j))*(s-(-99999+100000j)))", "--k", "1..70"],
           [PAIR, "--k", "10000000..10000005"],
           [PAIR, "--k", "9007199254740987..9007199254740991"]]
# F that leaves float64 (a pole at |1 - p| = 0.38), and a tiny residue whose
# series leaves it at k = 2021, past the steps evaluated first, also as an
# imaginary one (complex F)
GROWING = "--expr=1.7/(s-0.62) + 0.9/(s+1.3)^2"
TINY = "--expr=1e-300/(s-0.5)"
TINY_IMAGINARY = "--expr=1e-300j/(s-0.5)"
# a pole at s = 1, which the transform's radius refuses: on pfe and inside,
# on verify and forward, and a pole 5e-10 from 1
AT_ONE = "--expr=1/((s-1)*(s+0.5))"
POLE_AT_ONE = [["invert", "--strategy", "pfe", AT_ONE], ["invert", "--strategy", "inside", AT_ONE],
               ["verify", AT_ONE], ["forward", AT_ONE], ["invert", "--expr=1/(s-1.0000000005)"]]
# commands that exit nonzero: a rational with a double pole on the fractional
# route, step ranges that are not a grid or too long for an array, an empty
# point list, the POLE_AT_ONE commands, an atom with a complex lambda,
# shapes no strategy inverts (an atom base in the numerator, a positive power
# of s, a linear base to a non-integer power beside a pole), a non-integer
# power of a quadratic, an atom with |lambda| >= 1 before a summand that is
# no atom, a series that grows by 1e6 a step, out of the float64 range at k = 52, the close
# conjugate pairs on the closed-form routes, written as conjugate terms and
# on pfe as real quadratics, whose first value misses F(1) by more than the
# realness tolerance, and the checks of
# the late-starting series, whose pole's residue underflows on the pfe route;
# the growing F on the outside and inside routes, the tiny residue on both
# routes; a short grid far past a growing mode, which the series route
# probes at that mode's overflow step; a fractional grid that leaves
# float64 inside its prefix, and short grids far past the overflow steps of
# an atom and of pair row 6, which those routes probe too; and the complex F
# that no route inverts: the imaginary tiny residue on every route, on
# inside also at a grid that ends before the series leaves float64, an
# imaginary part below 1e-9 of |f| on two routes, and the merged close pair
# on every route
REJECTED = [["invert", "--strategy", "fractional", "--expr=1/(s-0.3)^2"],
            ["invert", "--expr=1/(s-0.3)", "--k", "abc"],
            ["invert", "--expr=1/(s-0.3)", "--k", "0.5"],
            ["invert", "--expr=1/(s-0.3)", "--k", "1..1e30"],
            ["forward", "--expr=1/(s-0.3)", "--s", ","],
            *POLE_AT_ONE,
            ["invert", "--expr=1/(s^0.5-(0.2+0.1j))"],
            ["invert", "--expr=1/(s^0.5-0.2)^-1"],
            ["invert", "--expr=1/s^-0.5"],
            ["invert", "--expr=(s+1)^-0.5/(s-2)"],
            ["invert", "--expr=1/(s^2-0.25)^0.5"],
            ["invert", "--expr=1/(s^0.5-2) + s^0.5"],
            ["invert", "--strategy", "inside", "--expr=1/((s-0.999999)*(s+0.5))",
             "--k", "1..10000"],
            *(["invert", "--strategy", strategy, NEAR_PAIRS, "--k", "1..3"]
              for strategy in ("auto", "pfe", "outside")),
            ["invert", "--strategy", "pfe", NEAR_QUADRATICS, "--k", "1..3"],
            ["verify", LATE_START, "--k", "1..330"],
            ["invert", "--strategy", "outside", GROWING, "--k", "1..20000"],
            ["invert", "--strategy", "inside", GROWING, "--k", "1..20000"],
            ["invert", TINY, "--k", "1..3000"],
            ["invert", "--strategy", "inside", TINY, "--k", "1..3000"],
            ["invert", "--strategy", "inside", "--expr=1/(s-0.3)", "--k", "10000000..10000002"],
            ["invert", "--expr=1/(s^0.5-0.3)", "--k", "1..20000"],
            ["invert", "--expr=1/(s^0.7-0.9)", "--k", "100000..100002"],
            ["invert", "--expr=1/(2*s-1)^1.5", "--k", "1000000..1000002"],
            *(["invert", "--strategy", strategy, TINY_IMAGINARY, "--k", "1..3000"]
              for strategy in ("inside", "pfe", "outside", "fractional")),
            ["invert", "--strategy", "inside", TINY_IMAGINARY, "--k", "1..1200"],
            *(["invert", "--strategy", strategy, "--expr=1e-12j/(s+0.5)", "--k", "1..3",
               "--format", "csv"] for strategy in ("pfe", "inside")),
            *(["invert", "--strategy", strategy, CLOSE_PAIR, "--k", "1..5"]
              for strategy in ("auto", "pfe", "outside", "inside"))]

# The child: argv[1] is a tree's src directory and argv[2] a JSON file of
# argument lists; prints a JSON list with one sha256 hex digest per command.
CHILD = r"""
import contextlib, hashlib, io, json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import nablainv.cli as cli
if not Path(cli.__file__).resolve().is_relative_to(Path(sys.argv[1]).resolve()):
    sys.exit(f"imported nablainv from {cli.__file__}, not from {sys.argv[1]}")
digests = []
for argv in json.loads(Path(sys.argv[2]).read_text()):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception as exc:
            rc = f"{type(exc).__name__}: {exc}"
    record = json.dumps([rc, out.getvalue(), err.getvalue()])
    digests.append(hashlib.sha256(record.encode()).hexdigest())
print(json.dumps(digests))
"""


def commands(workload, seed):
    """The argument lists the benchmark sends for (workload, seed), in order,
    each ``verify`` after its confirming ``invert --format json``."""
    count = max(bench.MIN_REQUESTS, round(bench.REQUESTS_PER_S.get(workload, 0) * SECONDS))
    out = []
    for req in bench.Client(None, workload, seed).take(count):
        if req["argv"][0] == "verify":
            out.append(["invert", *req["argv"][1:], "--format", "json"])
        out.append(req["argv"])
    return out


def fixed_commands():
    """The argument lists hashed after the benchmark's: ``roundtrip``, ``table
    --match`` on each reference pair's transform and on the MATCHED inputs,
    ``invert`` in each format on the FRACTIONAL inputs, ``invert`` on the
    HIGH_ORDER poles, ``invert`` in text and json on the TERMS inputs, the
    fractional route in json on two simple poles, ``invert`` in each format on
    the PRINTED grids, ``invert`` on the DIVIDED, the POWERED and the
    CONJUGATE inputs, the EVALUATING commands and the REJECTED ones."""
    out = [["roundtrip"]]
    out += [["table", f"--match={tp.transform_text}"] for tp in reference_pairs()]
    out += [["table", f"--match={expr}"] for expr in MATCHED]
    out += [["invert", f"--expr={expr}", "--format", fmt]
            for expr in FRACTIONAL for fmt in ("text", "csv", "json")]
    out += [["invert", f"--expr={expr}", "--k", "1..3"] for expr in HIGH_ORDER]
    out += [["invert", f"--expr={expr}", "--format", fmt]
            for expr in TERMS for fmt in ("text", "json")]
    out += [["invert", "--strategy", "fractional", "--expr=1/(s-0.3)+2/(s+0.4)",
             "--format", "json"]]
    out += [["invert", *argv, "--format", fmt] for argv in PRINTED
            for fmt in ("text", "csv", "json")]
    out += [["invert", *argv] for argv in DIVIDED]
    out += [["invert", *argv] for argv in POWERED]
    out += [["invert", *argv] for argv in CONJUGATE]
    return out + EVALUATING + REJECTED


def start(tree, argv_file):
    """The child process that hashes the outputs of the commands in
    ``argv_file`` on the source in ``tree``."""
    return subprocess.Popen([sys.executable, "-c", CHILD, str(Path(tree) / "src"), argv_file],
                            cwd=tree, stdout=subprocess.PIPE, text=True)


def digests(procs):
    """Each child's list of digests, in the order of ``procs``."""
    out = []
    for proc in procs:
        stdout, _ = proc.communicate()
        if proc.returncode:
            sys.exit(f"same_output: a child exited {proc.returncode}")
        out.append(json.loads(stdout))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 7])
    args = ap.parse_args(argv)
    labelled = [(f"{workload} seed {seed}", cmd)
                for workload in bench.workloads.BLOCKS
                for seed in args.seeds for cmd in commands(workload, seed)]
    labelled += [("fixed", cmd) for cmd in fixed_commands()]
    with tempfile.TemporaryDirectory() as tmp:
        parent_tree = Path(tmp) / "parent"
        parent_tree.mkdir()
        extract(args.parent, parent_tree)
        argv_file = str(Path(tmp) / "commands.json")
        Path(argv_file).write_text(json.dumps([cmd for _, cmd in labelled]))
        parent, change = digests([start(parent_tree, argv_file), start(ROOT, argv_file)])
    differ = [(label, cmd) for (label, cmd), a, b in zip(labelled, parent, change) if a != b]
    for label, cmd in differ:
        print(f"differs ({label}): nablainv {shlex.join(cmd)}")
    print(f"{len(differ)} of {len(labelled)} commands differ from {args.parent}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
