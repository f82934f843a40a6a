"""Command-line interface: invert, forward, verify, table, roundtrip.

Exit codes: 0 on success, 1 on mathematical/domain failures (pole at s = 1,
unsupported expression classes, parameter domain violations, divergence,
values outside the float64 range), 2 on usage or syntax errors.
"""

import argparse
import cmath
import functools
import json
import math
import os
import sys
import warnings

import numpy as np

from .errors import ExpressionSyntaxError, NablaError, RealnessError, TruncationWarning
from .expansion import ImpulseTerm, check_first_step, complex_pair
from .inversion import (
    FractionalAtom,
    FractionalSumForm,
    first_out_of_range,
    invert_fractional,
    invert_inside,
    invert_partial_fractions,
)
from .pairs import lookup, reference_pairs, sample_points
from .parsing import Kind, classify, parse_expression, pretty
from .rational import describe_roc
from .verify import (FORWARD_TOL, forward_rows, initial_value, quadrature_grid,
                     round_trip_error)

_DEFAULTS = {"a": 0.0, "k": "1..10", "format": "text", "strategy": "auto",
             "tol": None, "rho": None, "nodes": None}
_CONFIG_KEYS = {"a": float, "k": str, "format": str, "strategy": str,
                "tol": float, "rho": float, "nodes": int}
# the fewest rows that ``printing.rows`` writes: about where the two cost the
# same (below it %-formatting each row is mostly faster, from 512 rows the
# printer always was, on a 2-core VM)
_PRINTER_MIN_ROWS = 256
# the default tolerance of each command that takes --tol
_TOL = {"forward": FORWARD_TOL, "verify": 1e-9, "roundtrip": 1e-6}
# the allowed values of each subcommand's choice flags, for a flag and for
# the same key in a config file alike
_CHOICES = {
    "invert": {"format": ("text", "csv", "json"),
               "strategy": ("pfe", "inside", "outside", "fractional", "auto")},
    "verify": {"format": ("text", "json")},
    "table": {"format": ("text", "json")},
}


@functools.cache
def build_parser():
    """The nablainv argument parser, built on the first call and shared after.

    ``parse_args`` leaves a parser unchanged, and argparse looks up
    ``sys.stdout``/``sys.stderr`` when it prints, so every ``main`` call can
    reuse the one parser; its construction is most of a short request's time.
    """
    top = argparse.ArgumentParser(
        prog="nablainv",
        description="Analytic inversion of nabla Laplace transforms "
        "F(s) = sum_{k>=1} (1-s)^(k-1) f(k+a), with numerical verification.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, formats=None):
        p.add_argument("--expr", required=True, help="expression for F(s)")
        p.add_argument("--a", type=float, default=None, help="base point a (default 0)")
        if formats:
            p.add_argument("--k", default=None, help="step range, e.g. 1..20")
            p.add_argument("--format", choices=formats, default=None)
        p.add_argument("--config", default=None, help="key=value configuration file")

    p_inv = sub.add_parser("invert", help="compute f(k) from F(s)")
    common(p_inv, _CHOICES["invert"]["format"])
    p_inv.add_argument("--strategy", default=None, choices=_CHOICES["invert"]["strategy"])

    p_fwd = sub.add_parser("forward", help="sum the forward series of the inverted "
                           "sequence and compare against F(s)")
    common(p_fwd)
    p_fwd.add_argument("--tol", type=float, default=None, help="tolerance override")
    p_fwd.add_argument("--s", default=None,
                       help="comma-separated evaluation points (complex literals)")

    p_ver = sub.add_parser("verify", help="run all oracles against the inversion")
    common(p_ver, _CHOICES["verify"]["format"])
    p_ver.add_argument("--tol", type=float, default=None, help="tolerance override")
    p_ver.add_argument("--rho", type=float, default=None, help="contour radius")
    p_ver.add_argument("--nodes", type=int, default=None, help="quadrature nodes")

    p_tab = sub.add_parser("table", help="match an expression against the pair table")
    p_tab.add_argument("--match", required=True, help="expression to match")
    p_tab.add_argument("--format", choices=_CHOICES["table"]["format"], default=None)
    p_tab.add_argument("--config", default=None)

    p_rt = sub.add_parser("roundtrip", help="forward-transform every tabulated "
                          "sequence and compare with its F(s)")
    p_rt.add_argument("--tol", type=float, default=None)
    p_rt.add_argument("--config", default=None)
    return top


@functools.cache
def _value_flags():
    """The flags of every subcommand that take one value."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return frozenset(flag for parser in sub.choices.values() for action in parser._actions
                     if action.nargs is None for flag in action.option_strings)


def _joined(argv):
    """argv with each flag that takes a value written as one "--flag=value"
    argument when its value starts with a single "-" (a step range such as
    -2..2, an expression such as -1/(s+0.5)): argparse takes such a value for
    an option, unless it reads as a plain negative number, and the flag is
    then left without its value."""
    out, flags = list(argv), _value_flags()
    for i in reversed(range(len(out) - 1)):
        value = out[i + 1]
        if out[i] in flags and value.startswith("-") and not value.startswith("--"):
            out[i:i + 2] = [f"{out[i]}={value}"]
    return out


def _load_config(args):
    """The values of the file ``args.config``, each under a key that names a
    flag of ``args.command``: ValueError otherwise, as for an unknown flag."""
    path, out = args.config, {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line (need key=value): {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_KEYS or not hasattr(args, key):
                raise ValueError(f"{path}: {key}: {args.command} takes no --{key}")
            out[key] = _number(f"{path}: {key}", _CONFIG_KEYS[key], value)
    return out


def _number(source, kind, text):
    """kind(text), or ValueError naming ``source`` (a flag, a variable or a
    config key) when the text is not a value of that kind."""
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{source}: invalid {kind.__name__} value: {text!r}") from None


def _resolve(args):
    """Fill unset options from NABLA_TOL, then the config file, then defaults.

    A config key must name a flag of the command, and its value, for a choice
    flag, one of the flag's choices, as on the command line: ValueError (exit
    2) otherwise.  So must be a finite ``a`` and a finite ``tol`` above 0,
    naming the flag, the variable or the config key that set them;
    ``args.sources`` maps each key to that name.
    """
    cfg = _load_config(args) if getattr(args, "config", None) else {}
    args.sources = {}
    for key, choices in _CHOICES.get(args.command, {}).items():
        if key in cfg and cfg[key] not in choices:
            raise ValueError(
                f"{args.config}: argument --{key}: invalid choice: {cfg[key]!r} "
                f"(choose from {', '.join(map(repr, choices))})"
            )
    for key, default in _DEFAULTS.items():
        if not hasattr(args, key):
            continue
        value, source = getattr(args, key), f"argument --{key}"
        if value is None:
            if key == "tol" and os.environ.get("NABLA_TOL"):
                source = "NABLA_TOL"
                value = _number(source, float, os.environ["NABLA_TOL"])
            elif key in cfg:
                value, source = cfg[key], f"{args.config}: {key}"
            else:
                value = _TOL[args.command] if key == "tol" else default
        if key == "a" and not math.isfinite(value):
            raise ValueError(f"{source}: must be finite, got {value!r}")
        if key == "tol" and not 0 < value < math.inf:
            raise ValueError(f"{source}: must be finite and above 0, got {value!r}")
        setattr(args, key, value)
        args.sources[key] = source
    return args


def _parse_krange(text, a, source="argument --k"):
    """(ks, ms): the steps lo, lo+1, ... up to hi as a float ndarray, and
    their int step offsets k - a; the last step is lo + floor(hi - lo), to
    within 1e-9 of a whole step.

    Every step shares lo's offset from a, so checking lo checks the grid.  A
    bad range raises ValueError, one too long for an array OverflowError,
    naming ``source``: the flag or the config key that gave the range.  So
    does a range with a step k where |k| or |k - a| is 2^53 or more: from
    there on floats are 2 or more apart, and neither k nor k - a is exact.
    """
    try:
        lo, hi = map(float, text.split("..", 1) if ".." in text else (text, text))
    except ValueError:
        raise ValueError(
            f"{source}: step range {text!r} is not a number or a range lo..hi") from None
    if not np.isfinite(hi - lo):
        raise ValueError(f"{source}: step range {text!r} is not finite")
    if hi < lo:
        raise ValueError(f"{source}: empty step range {text!r}")
    m = lo - a
    if abs(m - round(m)) > 1e-9 or round(m) < 1:
        raise ValueError(
            f"{source}: k = {lo!r} is not in {{a+1, a+2, ...}} for a = {a!r}; "
            "adjust the range or a"
        )
    try:
        steps = np.arange(math.floor(hi - lo + 1e-9) + 1)
    except (MemoryError, ValueError):  # numpy's ValueError: past 2^63 bytes
        raise OverflowError(
            f"{source}: step range {text!r} is too long for an array; narrow --k") from None
    last = lo + float(steps[-1])
    if max(abs(lo), abs(last), abs(m), abs(last - a)) >= 2.0**53:
        raise ValueError(f"{source}: step range {text!r} reaches 2^53 in k or k - a, "
                         "past which steps are not exact floats; narrow --k")
    ks = lo + steps
    return ks, np.rint(ks - a).astype(np.int64)


class _Problem:
    """Parsed expression plus the pieces every subcommand needs."""

    def __init__(self, text, a):
        self.text = text
        self.a = a
        self.ast = parse_expression(text)
        self.classified = classify(self.ast)
        if self.classified.kind is Kind.UNSUPPORTED:
            raise NablaError(f"unsupported expression: {self.classified.reason}")
        self.table_hit = None
        if self.classified.kind is Kind.TABLE_CANDIDATE:
            self.table_hit = lookup(self.classified)
            if self.table_hit is None:
                raise NablaError(
                    "no inversion strategy applies: the expression is neither "
                    "rational, nor a sum of fractional-power atoms, nor a "
                    "tabulated pair shape"
                )
        # the transform: a RationalFunction, a FractionalSumForm or a
        # TransformPair, each with the radius of its region of convergence
        self.F = {
            Kind.RATIONAL: self.classified.rational,
            Kind.FRACTIONAL_SUM: self.classified.fractional,
            Kind.TABLE_CANDIDATE: self.table_hit,
        }[self.classified.kind]
        self.radius = self.F.radius  # PoleAtOneError for a pole at s = 1

    @functools.cached_property
    def _partial_fractions(self):
        """The closed form of a rational F from its partial fractions, built
        once: the pfe and outside routes, the first-step check and the
        fractional route on a rational all read it."""
        return invert_partial_fractions(self.classified.rational, self.a)

    def route(self, strategy):
        """(strategy used, closed form or None, rule): the rule is the route's
        sequence m -> f(a+m) on int step offsets, a closed form's ``values``,
        the table pair's ``sequence``, or, for inside, the series at s = 1 up
        to the last step of an ascending grid; the closed form is None for
        the table and inside."""
        if strategy == "auto":
            strategy = {
                Kind.RATIONAL: "pfe",
                Kind.FRACTIONAL_SUM: "fractional",
                Kind.TABLE_CANDIDATE: "table",
            }[self.classified.kind]
        if strategy == "table":
            return "table", None, self.table_hit.sequence
        if strategy == "inside":
            rf = self._require_rational("inside")
            return "inside", None, lambda ms: invert_inside(rf, int(ms[-1]))[ms - 1]
        if strategy == "fractional":
            cf = invert_fractional(self._as_fractional(), self.a)
        else:
            self._require_rational(strategy)
            cf = self._partial_fractions
        return strategy, cf, cf.values

    def invert(self, strategy, ks, ms):
        """(the route, as ``route`` gives it; the real values on the grid ks,
        whose int step offsets are ms).

        Raises RealnessError, before any route computes a value, when F is
        not real (``is_real``): its sequence is not real, and its real part
        alone is not the answer.  Every route then takes the real part of
        its values with no test.  A rational F's closed form is checked at
        its first step first (``check_first_step``).  Raises OverflowError
        naming the first step whose value is not finite in float64: every
        route stops at its first value out of range, read with the
        transform's radius (``first_out_of_range``).
        """
        if not self.F.is_real:
            raise RealnessError("F(s) is not real: its complex coefficients do not come "
                                "in conjugate pairs, so f(k) is not real")
        if self.classified.kind is Kind.RATIONAL and strategy != "inside":
            check_first_step(self.classified.rational, self._partial_fractions.terms)
        route = self.route(strategy)
        _, _, rule = route
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            values = first_out_of_range(self.radius, ms, rule)
        # contiguous: the printer reads a strided real part more slowly
        # (rational-long values_per_s 6 % lower at seed 1, in 10 of 10 pairs)
        values = np.ascontiguousarray(np.real(values))
        bad = ~np.isfinite(values)
        if bad.any():
            k = float(ks[int(np.argmax(bad))])
            raise OverflowError(
                f"f(k) at k = {(int(k) if k.is_integer() else k)!r} is outside the "
                "float64 range; narrow --k"
            )
        return route, values

    def _require_rational(self, strategy):
        if self.classified.kind is not Kind.RATIONAL:
            raise NablaError(
                f"strategy {strategy!r} applies to rational F(s) only; "
                f"this input classified as {self.classified.kind.value}"
            )
        return self.classified.rational

    def _as_fractional(self):
        if self.classified.kind is Kind.FRACTIONAL_SUM:
            return self.classified.fractional
        if self.classified.kind is Kind.RATIONAL:
            terms = self._partial_fractions.terms
            if any(isinstance(t, ImpulseTerm) or t.order > 1 for t in terms):
                raise NablaError(
                    "only strictly proper rationals with simple poles convert "
                    "to fractional atoms (each pole p becomes 1/(s-p))"
                )
            return FractionalSumForm(tuple(
                FractionalAtom(t.coefficient, 1.0, 1.0, t.pole) for t in terms
            ))
        raise NablaError("strategy 'fractional' needs a fractional sum of atoms")


def _emit_values(args, problem, used, cf, ks, values):
    """Write the head, the grid's rows and the tail in the requested format.

    A row is (before, k width, between, f width, after): before, k, between,
    f(k), after, with k and f right-aligned in fields of the given widths.  k
    is written with %d when the grid is integral (lo + arange, integral when
    lo is), as an integer in csv and text and as repr writes it in json (|k|
    < 2^53, which ``_parse_krange`` checks); otherwise with %r, which is
    exact.  f(k) is written with %.17g, or in json with %r, which is how the
    encoder writes a finite float.

    A grid of fewer than ``_PRINTER_MIN_ROWS`` rows is one %-format over the
    flat (k, f(k)) tuple, written at once with the head and the tail.  A
    longer one is written in blocks by ``printing.rows``, whose bytes are
    those of the same format: it takes k's digits and the f texts from numpy
    tables, and writes the grid's trailing run of zeros from one row per
    width of k.
    """
    integral = float(ks[0]).is_integer()
    if args.format == "csv":
        head, row, shortest, sep, tail = "k,f(k)\n", ("", 0, ",", 0, ""), False, "\n", "\n"
    elif args.format == "json":
        doc = {
            "expression": problem.text,
            "canonical": pretty(problem.ast),
            "classification": problem.classified.kind.value,
            "strategy": used,
            "a": problem.a,
            "roc": describe_roc(problem.radius),
            "closed_form": [t.as_dict() for t in cf.terms] if cf else None,
        }
        # json.dumps(doc | {"values": [{"k": k, "f": v}, ...]}, indent=2) byte
        # for byte: "values" is the last key, and the encoder writes finite
        # floats with float.__repr__
        head = json.dumps(doc, indent=2)[: -len("\n}")] + ',\n  "values": [\n'
        row = ('    {\n      "k": ', 0, (".0" if integral else "") + ',\n      "f": ', 0,
               "\n    }")
        shortest, sep, tail = True, ",\n", "\n  ]\n}\n"
    else:
        lines = [
            f"expression     : {pretty(problem.ast)}",
            f"classification : {problem.classified.kind.value}",
            f"strategy       : {used}",
            f"ROC            : {describe_roc(problem.radius)}",
        ]
        if problem.table_hit is not None:
            lines.append(f"table          : {problem.table_hit.describe()}")
        if cf is not None:
            lines.append(f"closed form    : f(k) = {cf.describe()}")
        lines.append(f"{'k':>8}  {'f(k)':>24}\n")
        head, row, shortest, sep, tail = "\n".join(lines), ("", 8, "  ", 24, ""), False, "\n", "\n"
    n = len(ks)
    if n >= _PRINTER_MIN_ROWS:
        from . import printing

        sys.stdout.write(head)
        sys.stdout.writelines(printing.rows(ks, values, row, shortest, sep))
        sys.stdout.write(tail)
        return
    before, k_width, between, f_width, after = row
    k_spec = f"{before}%{k_width or ''}{'d' if integral else 'r'}{between}"
    f_spec = f"%{f_width or ''}{'r' if shortest else '.17g'}{after}"
    flat = [None] * (2 * n)
    # %d of an int converts faster than of a float
    flat[0::2] = ks.astype(np.int64).tolist() if integral else ks.tolist()
    flat[1::2] = values.tolist()
    # the head joins the template, its "%" escaped, so that the grid's text
    # is built once and not copied again to prepend the head
    template = head.replace("%", "%%") + sep.join([k_spec + f_spec] * n) + tail
    sys.stdout.write(template % tuple(flat))


def _cmd_invert(args):
    problem = _Problem(args.expr, args.a)
    ks, ms = _parse_krange(args.k, args.a, args.sources["k"])
    (used, cf, _), values = problem.invert(args.strategy, ks, ms)
    _emit_values(args, problem, used, cf, ks, values)
    return 0


def _truncation_to_stderr(command):
    """``command`` printing each TruncationWarning as one ``warning: <message>``
    line on stderr, on every call; other warnings go on as before.

    Python's default filter shows a warning once per code location, with its
    source path and line, so a second ``main`` call in one process would
    print nothing.  For the commands that sum forward series.
    """
    @functools.wraps(command)
    def run(args):
        with warnings.catch_warnings():
            warnings.simplefilter("always", TruncationWarning)
            show = warnings.showwarning

            def report(message, category, *rest, **kwargs):
                if issubclass(category, TruncationWarning):
                    print(f"warning: {message}", file=sys.stderr)
                else:
                    show(message, category, *rest, **kwargs)

            warnings.showwarning = report
            return command(args)

    return run


def _parse_points(text):
    """The comma-separated complex points of --s; ValueError naming the flag
    for one that is not a finite complex number, and for a list of none."""
    points = []
    for part in filter(None, map(str.strip, text.split(","))):
        try:
            s = complex(part)
        except ValueError:
            s = math.nan
        if not cmath.isfinite(s):
            raise ValueError(f"argument --s: {part!r} is not a finite complex number")
        points.append(s)
    if not points:
        raise ValueError(f"argument --s: {text!r} lists no points")
    return points


@_truncation_to_stderr
def _cmd_forward(args):
    points = _parse_points(args.s) if args.s is not None else None
    problem = _Problem(args.expr, args.a)
    used, _, rule = problem.route("auto")
    if points is None:
        points = sample_points(problem.radius, count=5)
    # every point is summed before anything is printed, so a point that
    # fails leaves no partial table on stdout
    rows = forward_rows(rule, problem.F, points, tol=args.tol)
    print(f"forward series of the inverted sequence vs direct F(s)  [{used}]")
    print(f"{'s':>28}  {'series':>28}  {'direct':>28}  {'|diff|':>12}")
    for s, total, direct in rows:
        print(f"{s:>28.12g}  {total:>28.12g}  {direct:>28.12g}  {abs(total - direct):12.3e}")
    print(f"max |diff| = {max([0.0] + [abs(total - direct) for _s, total, direct in rows]):.3e}")
    return 0


@_truncation_to_stderr
def _cmd_verify(args):
    problem = _Problem(args.expr, args.a)
    ks, ms = _parse_krange(args.k, args.a, args.sources["k"])
    tol = args.tol
    F = problem.F
    (used, _, rule), sequence_values = problem.invert("auto", ks, ms)
    scale = max(1.0, float(np.max(np.abs(sequence_values))))

    # (label, measure, bound): a check passes when its measure is within bound
    checks = []
    if problem.classified.kind is Kind.RATIONAL:
        _, inside_vals = problem.invert("inside", ks, ms)
        diff = float(np.max(np.abs(inside_vals - sequence_values))) / scale
        checks.append((f"strategy agreement series-at-1 vs {used} "
                       f"(max scaled diff {diff:.2e})", diff, tol))

    quad = quadrature_grid(F, int(ms[-1]), rho=args.rho, nodes=args.nodes)[ms - 1]
    worst = float(np.max(np.abs(quad.real - sequence_values))) / scale
    checks.append((f"contour quadrature vs {used} over k grid "
                   f"(max scaled diff {worst:.2e})", worst, tol))

    iv = initial_value(F)
    first = complex(rule(1))
    ivd = abs(iv - first)
    checks.append((f"initial value f(a+1) = lim F(s) (|diff| {ivd:.2e})",
                   ivd, tol * max(1.0, abs(iv))))

    worst_rt = round_trip_error(rule, F, sample_points(problem.radius, count=5))
    checks.append((f"forward series round trip inside ROC "
                   f"(max rel diff {worst_rt:.2e})", worst_rt, _TOL["roundtrip"]))

    report = [{"label": label, "ok": measure <= bound, "measure": measure, "bound": bound}
              for label, measure, bound in checks]
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        for check in report:
            print(("PASS  " if check["ok"] else "FAIL  ") + check["label"])
    return 0 if all(check["ok"] for check in report) else 1


def _cmd_table(args):
    hit = lookup(args.match)
    if hit is None:
        print("no match")
        return 0
    if args.format == "json":
        doc = {
            "row": hit.row,
            "name": hit.name,
            "params": {k: complex_pair(v) for k, v in hit.params},
            "sequence": hit.sequence_text,
            "transform": hit.transform_text,
            "roc": describe_roc(hit.radius),
        }
        print(json.dumps(doc, indent=2))
    else:
        print(hit.describe())
    return 0


@_truncation_to_stderr
def _cmd_roundtrip(args):
    failed = 0
    for tp in reference_pairs():
        worst = round_trip_error(tp.sequence, tp.transform,
                                 sample_points(tp.radius, count=8))
        ok = worst <= args.tol
        failed += 0 if ok else 1
        ps = ", ".join(f"{k}={v}" for k, v in tp.params)
        print(f"{'PASS' if ok else 'FAIL'}  row {tp.row:2d} ({tp.name}"
              + (f"; {ps}" if ps else "") + f")  max rel err {worst:.2e}")
    print("all rows pass" if failed == 0 else f"{failed} rows fail")
    return 0 if failed == 0 else 1


_COMMANDS = {
    "invert": _cmd_invert,
    "forward": _cmd_forward,
    "verify": _cmd_verify,
    "table": _cmd_table,
    "roundtrip": _cmd_roundtrip,
}


def main(argv=None):
    try:
        args = build_parser().parse_args(_joined(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        args = _resolve(args)
        return _COMMANDS[args.command](args)
    except ExpressionSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NablaError, OverflowError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory for the step grid; narrow --k", file=sys.stderr)
        return 1
    except (ValueError, OSError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry():
    sys.exit(main())
