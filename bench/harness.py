"""Send one request to ``nablainv.cli.main`` in-process and judge the answer.

A request runs under a per-request deadline (SIGALRM on the main thread).
Its outcome is judged against the reference grid; a failure gets one kind:

    deadline           the request passed DEADLINE_S and was abandoned
    exception:<Type>   an exception escaped ``main`` (a raw traceback for a user)
    exit_code          the exit code differs from the expected one
    wrong_value        a value is off the reference by more than RTOL * max|f|
    false_verdict      ``verify`` said FAIL on an inversion the reference
                       confirms, or PASS on one it refutes
"""

import io
import json
import signal
import sys
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

# The ROADMAP's target: no valid request with K <= 1e5 takes more than about a second.
DEADLINE_S = 1.0
# Tolerance on |value - reference| relative to max |reference| on the grid.
RTOL = 1e-8
# Above this the true grid may or may not be representable in the output
# (17 significant digits); both a clean exit 1 and the exact values are correct.
FLOAT_LIMIT = 1e300


class Deadline(BaseException):
    """Raised by the SIGALRM handler; BaseException so no handler in main eats it."""


@dataclass
class Outcome:
    rc: object  # exit code, or None when no code came back
    stdout: str
    stderr: str
    elapsed: float
    exception: str = None  # type name of an exception that escaped main
    deadline: bool = False


def send(main, argv, on_deadline=None, deadline=DEADLINE_S):
    """Run main(argv) with captured output under the deadline; time only the call."""
    def alarm(_signum, _frame):
        if on_deadline is not None:
            on_deadline()
        raise Deadline

    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    previous = signal.signal(signal.SIGALRM, alarm)
    rc = exception = None
    expired = False
    sys.stdout, sys.stderr = out, err
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            rc = main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline:
        expired = True
    except Exception as exc:  # any escaping exception is the program's failure
        exception = type(exc).__name__
    finally:
        elapsed = time.perf_counter() - t0
        sys.stdout, sys.stderr = saved
        signal.signal(signal.SIGALRM, previous)
    return Outcome(rc, out.getvalue(), err.getvalue(), elapsed, exception, expired)


def parse_values(argv, stdout):
    """(ks, values) from invert output in the format the argv asked for."""
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
    if fmt == "json":
        rows = json.loads(stdout)["values"]
        return [r["k"] for r in rows], [r["f"] for r in rows]
    lines = stdout.splitlines()
    if fmt == "csv":
        if lines[0] != "k,f(k)":
            raise ValueError("missing csv header")
        pairs = [line.split(",") for line in lines[1:]]
    else:
        head = next(i for i, line in enumerate(lines) if line.split() == ["k", "f(k)"])
        pairs = [line.split() for line in lines[head + 1:]]
    return [float(k) for k, _ in pairs], [float(v) for _, v in pairs]


def values_verdict(argv, stdout, expected):
    """None when the printed grid matches the reference, else a short reason."""
    try:
        ks, got = parse_values(argv, stdout)
    except (ValueError, KeyError, IndexError, TypeError, StopIteration) as exc:
        return f"unparseable output ({type(exc).__name__})"
    K = len(expected)
    if ks != [float(k) for k in range(1, K + 1)]:
        return f"wrong k grid ({len(ks)} rows for K = {K})"
    got = np.asarray(got, dtype=float)
    scale = float(np.max(np.abs(expected)))
    if not np.all(np.isfinite(got)):
        return "non-finite value printed"
    err = float(np.max(np.abs(got - expected)))
    if err > RTOL * scale:
        return f"max |f - ref| = {err:.3e} = {err / scale:.2e} * max|ref|"
    return None


def expected_exit(expected):
    """Exit codes a correct program may give for this reference grid."""
    if not np.all(np.isfinite(expected)):
        return {1}
    if float(np.max(np.abs(expected))) > FLOAT_LIMIT:
        return {0, 1}
    return {0}


def judge_invert(argv, outcome, expected):
    """(failure kind or None, detail) for an ``invert`` request."""
    if outcome.deadline:
        return "deadline", f"abandoned after {outcome.elapsed:.2f} s"
    if outcome.exception:
        return f"exception:{outcome.exception}", "escaped main"
    allowed = expected_exit(expected)
    if outcome.rc not in allowed:
        first = (outcome.stderr.strip().splitlines() or [""])[0]
        return "exit_code", f"exit {outcome.rc}, expected {sorted(allowed)}: {first[:120]}"
    if outcome.rc == 0:
        reason = values_verdict(argv, outcome.stdout, expected)
        if reason:
            return "wrong_value", reason
    return None, ""


def inversion_confirmed(main, argv, expected):
    """Whether the program's own inversion of a ``verify`` request's input
    (an untimed ``invert --format json``) matches the reference."""
    inverted = ["invert", *argv[1:], "--format", "json"]
    return judge_invert(inverted, send(main, inverted), expected)[0] is None


def judge_verify(outcome, confirmed):
    """(failure kind or None, detail) for a ``verify`` request.

    ``confirmed`` says whether the program's own inversion of the input
    matched the reference: a correct oracle then reports all PASS, and
    otherwise reports a FAIL.
    """
    if outcome.deadline:
        return "deadline", f"abandoned after {outcome.elapsed:.2f} s"
    if outcome.exception:
        return f"exception:{outcome.exception}", "escaped main"
    lines = outcome.stdout.splitlines()
    fails = [line for line in lines if line.startswith("FAIL")]
    all_pass = outcome.rc == 0 and lines and all(line.startswith("PASS") for line in lines)
    if confirmed and all_pass:
        return None, ""
    if not confirmed and outcome.rc == 1 and fails:
        return None, ""
    if confirmed and fails:
        return "false_verdict", "FAIL on a confirmed inversion: " + fails[0][6:90]
    if not confirmed and all_pass:
        return "false_verdict", "all PASS on an inversion the reference refutes"
    first = (outcome.stderr.strip().splitlines() or [""])[0]
    return "exit_code", f"exit {outcome.rc}: {first[:120]}"


def judge(argv, outcome, expected, confirmed=None):
    """(failure kind or None, detail) for an ``invert`` or ``verify`` request."""
    if argv[0] == "verify":
        return judge_verify(outcome, confirmed)
    return judge_invert(argv, outcome, expected)


class Census:
    """Failures per kind, with the first few failing argv for reproduction."""

    EXAMPLES = 3

    def __init__(self):
        self.kinds = Counter()
        self.examples = {}

    def add(self, kind, req, detail):
        self.kinds[kind] += 1
        shown = self.examples.setdefault(kind, [])
        if len(shown) < self.EXAMPLES:
            shown.append((req["argv"], req["shape"], detail))

    def lines(self):
        out = []
        for kind, n in self.kinds.most_common():
            out.append(f"  {kind}: {n}")
            for argv, shape, detail in self.examples[kind]:
                quoted = " ".join(a if a.replace(".", "").isalnum() else repr(a) for a in argv)
                out.append(f"    [{shape}] {detail}")
                out.append(f"      PYTHONPATH=src python3 -m nablainv {quoted}")
        return out
