"""Command-line interface: invert, forward, verify, table, roundtrip.

Exit codes: 0 on success, 1 on mathematical/domain failures (pole at s = 1,
unsupported expression classes, parameter domain violations, divergence,
values outside the float64 range), 2 on usage or syntax errors.
"""

import argparse
import json
import os
import sys

import numpy as np

from .errors import ExpressionSyntaxError, NablaError
from .expansion import expand
from .inversion import (
    COMPLEX_F,
    FractionalAtom,
    FractionalSumForm,
    invert_fractional,
    invert_inside,
    invert_partial_fractions,
    real_values,
)
from .pairs import lookup, reference_pairs, sample_points
from .parsing import Kind, classify, parse_expression, pretty
from .rational import describe_roc
from .verify import (
    ORIENTATION_TOL,
    forward_transform,
    initial_value,
    orientation_check,
    quadrature_grid,
)

_DEFAULTS = {"a": 0.0, "k": "1..10", "format": "text", "strategy": "auto",
             "tol": None, "rho": None, "nodes": None}
_CONFIG_KEYS = {"a": float, "k": str, "format": str, "strategy": str,
                "tol": float, "rho": float, "nodes": int}
# the allowed values of each subcommand's choice flags, for a flag and for
# the same key in a config file alike
_CHOICES = {
    "invert": {"format": ("text", "csv", "json"),
               "strategy": ("pfe", "inside", "outside", "fractional", "auto")},
    "verify": {"format": ("text", "json")},
    "table": {"format": ("text", "json")},
}


def build_parser():
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
        p.add_argument("--tol", type=float, default=None, help="tolerance override")
        p.add_argument("--config", default=None, help="key=value configuration file")

    p_inv = sub.add_parser("invert", help="compute f(k) from F(s)")
    common(p_inv, _CHOICES["invert"]["format"])
    p_inv.add_argument("--strategy", default=None, choices=_CHOICES["invert"]["strategy"])

    p_fwd = sub.add_parser("forward", help="sum the forward series of the inverted "
                           "sequence and compare against F(s)")
    common(p_fwd)
    p_fwd.add_argument("--s", default=None,
                       help="comma-separated evaluation points (complex literals)")

    p_ver = sub.add_parser("verify", help="run all oracles against the inversion")
    common(p_ver, _CHOICES["verify"]["format"])
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


def _load_config(path):
    out = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line (need key=value): {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            out[key] = _CONFIG_KEYS[key](value)
    return out


def _resolve(args):
    """Fill unset options from NABLA_TOL, then the config file, then defaults.

    A config value of a choice flag must be one of the flag's choices, as on
    the command line: ValueError (exit 2) in argparse's words otherwise.
    """
    cfg = _load_config(args.config) if getattr(args, "config", None) else {}
    for key, choices in _CHOICES.get(args.command, {}).items():
        if key in cfg and cfg[key] not in choices:
            raise ValueError(
                f"{args.config}: argument --{key}: invalid choice: {cfg[key]!r} "
                f"(choose from {', '.join(map(repr, choices))})"
            )
    for key, default in _DEFAULTS.items():
        if getattr(args, key, None) is None and hasattr(args, key):
            value = cfg.get(key, default)
            if key == "tol" and os.environ.get("NABLA_TOL"):
                value = float(os.environ["NABLA_TOL"])
            setattr(args, key, value)
    return args


def _parse_krange(text, a):
    """The steps lo, lo+1, ..., hi as a float ndarray.

    Every step shares lo's offset from a, so checking lo checks the grid.
    """
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = float(lo_text), float(hi_text)
    else:
        lo = hi = float(text)
    if not np.isfinite(hi - lo):
        raise ValueError(f"step range {text!r} is not finite")
    if hi < lo:
        raise ValueError(f"empty step range {text!r}")
    m = lo - a
    if abs(m - round(m)) > 1e-9 or round(m) < 1:
        raise ValueError(
            f"k = {lo:g} is not in {{a+1, a+2, ...}} for a = {a:g}; "
            "adjust --k or --a"
        )
    return lo + np.arange(int(round(hi - lo)) + 1)


def _cpair(z):
    z = complex(z)
    return [z.real, z.imag]


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
            self.table_hit = lookup(self.ast)
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

    def closed_form(self, strategy):
        """(strategy used, closed form or None); None for the table and inside."""
        if strategy == "auto":
            strategy = {
                Kind.RATIONAL: "pfe",
                Kind.FRACTIONAL_SUM: "fractional",
                Kind.TABLE_CANDIDATE: "table",
            }[self.classified.kind]
        if strategy == "table":
            return "table", None
        if strategy == "inside":
            self._require_rational("inside")
            return "inside", None
        if strategy in ("pfe", "outside"):
            rf = self._require_rational(strategy)
            return strategy, invert_partial_fractions(rf, self.a)
        if strategy == "fractional":
            return "fractional", invert_fractional(self._as_fractional(), self.a)
        raise ValueError(f"unknown strategy {strategy!r}")

    def invert(self, strategy, ks):
        """(strategy used, closed form or None, float values on the grid ks).

        Raises RealnessError naming the first step whose value is not real
        (the inside and table routes scale the test by the grid's max |f|),
        and OverflowError naming the first step whose value is not finite in
        float64.
        """
        used, cf = self.closed_form(strategy)
        ms = np.rint(ks - self.a).astype(np.int64)
        if cf is not None:
            values = cf.sample(ks)
        else:
            if used == "inside":
                v = invert_inside(self.classified.rational, int(ms[-1]), self.a)[ms - 1]
            else:
                with np.errstate(over="ignore", invalid="ignore"):
                    v = np.asarray(self.table_hit.sequence(ms), dtype=complex)
            # these routes compute the series of F itself, whose
            # coefficients are real for real F, so the cause is F
            values = real_values(v, ks, np.max(np.abs(v)), COMPLEX_F)
        bad = ~np.isfinite(values)
        if bad.any():
            raise OverflowError(
                f"f(k) at k = {ks[int(np.argmax(bad))]:g} is outside the float64 "
                "range; narrow --k"
            )
        return used, cf, values

    def sequence(self, cf):
        """The auto strategy's sequence as a rule m -> f(a+m) with no last step,
        for the forward-series oracles; cf is from ``closed_form("auto")``."""
        return cf.values if cf is not None else self.table_hit.sequence

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
            pfe = expand(self.classified.rational)
            if pfe.impulse_part or pfe.multiple_terms:
                raise NablaError(
                    "only strictly proper rationals with simple poles convert "
                    "to fractional atoms (each pole p becomes 1/(s-p))"
                )
            return FractionalSumForm(tuple(
                FractionalAtom(r, 1.0, 1.0, pole) for pole, r in pfe.simple_terms
            ))
        raise NablaError("strategy 'fractional' needs a fractional sum of atoms")


def _emit_values(args, problem, used, cf, ks, values):
    """Write the grid in the requested format with one write to stdout.

    The rows come from one %-format over the flat (k, f(k)) tuple: %g, %8g,
    %.17g, %24.17g and %r format a float as the f-string specs g, 8g, .17g,
    24.17g and !r do, so the bytes are those of a row-by-row format.
    """
    if args.format == "csv":
        head, row, sep, tail = "k,f(k)\n", "%g,%.17g", "\n", "\n"
    elif args.format == "json":
        doc = {
            "expression": problem.text,
            "canonical": pretty(problem.ast),
            "classification": problem.classified.kind.value,
            "strategy": used,
            "a": problem.a,
            "roc": describe_roc(problem.radius),
            "closed_form": [_term_json(t) for t in cf.terms] if cf else None,
        }
        # json.dumps(doc | {"values": [{"k": k, "f": v}, ...]}, indent=2) byte
        # for byte: "values" is the last key, and the encoder writes finite
        # floats with float.__repr__
        head = json.dumps(doc, indent=2)[: -len("\n}")] + ',\n  "values": [\n'
        row, sep = '    {\n      "k": %r,\n      "f": %r\n    }', ",\n"
        tail = "\n  ]\n}\n"
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
        head, row, sep, tail = "\n".join(lines), "%8g  %24.17g", "\n", "\n"
    # the head joins the template, its "%" escaped, so that the grid's text
    # is built once and not copied again to prepend the head
    template = head.replace("%", "%%") + (row + sep) * (len(ks) - 1) + row + tail
    sys.stdout.write(template % tuple(np.column_stack((ks, values)).ravel().tolist()))


def _term_json(term):
    from .inversion import (
        GeometricTerm,
        ImpulseTerm,
        MittagLefflerTerm,
        PolyGeometricTerm,
    )

    if isinstance(term, ImpulseTerm):
        return {"type": "impulse", "coefficient": _cpair(term.coefficient),
                "shift": term.shift}
    if isinstance(term, GeometricTerm):
        return {"type": "geometric", "coefficient": _cpair(term.coefficient),
                "pole": _cpair(term.pole)}
    if isinstance(term, PolyGeometricTerm):
        return {"type": "poly-geometric", "coefficient": _cpair(term.coefficient),
                "pole": _cpair(term.pole), "order": term.order}
    if isinstance(term, MittagLefflerTerm):
        return {"type": "mittag-leffler", "coefficient": _cpair(term.coefficient),
                "alpha": term.params.alpha, "beta": term.params.beta,
                "lambda": _cpair(term.params.lam)}
    return {"type": "unknown"}


def _cmd_invert(args):
    problem = _Problem(args.expr, args.a)
    ks = _parse_krange(args.k, args.a)
    used, cf, values = problem.invert(args.strategy, ks)
    _emit_values(args, problem, used, cf, ks, values)
    return 0


def _cmd_forward(args):
    problem = _Problem(args.expr, args.a)
    used, cf = problem.closed_form("auto")
    seq = problem.sequence(cf)
    if args.s:
        points = [complex(part.strip()) for part in args.s.split(",") if part.strip()]
    else:
        points = sample_points(problem.radius, count=5)
    F = problem.F
    tol = args.tol or 1e-12
    print(f"forward series of the inverted sequence vs direct F(s)  [{used}]")
    print(f"{'s':>28}  {'series':>28}  {'direct':>28}  {'|diff|':>12}")
    worst = 0.0
    for s in points:
        total = forward_transform(seq, s, tol=tol)
        direct = complex(F(s))
        diff = abs(total - direct)
        worst = max(worst, diff)
        print(f"{s:>28.12g}  {total:>28.12g}  {direct:>28.12g}  {diff:12.3e}")
    print(f"max |diff| = {worst:.3e}")
    return 0


def _cmd_verify(args):
    problem = _Problem(args.expr, args.a)
    ks = _parse_krange(args.k, args.a)
    tol = args.tol or 1e-9
    F = problem.F
    # (label, measure, bound): a check passes when its measure is within bound
    checks = [("contour orientation self-test (impulse pair)", orientation_check(),
               ORIENTATION_TOL)]

    used, cf, sequence_values = problem.invert("auto", ks)
    scale = max(1.0, float(np.max(np.abs(sequence_values))))

    if problem.classified.kind is Kind.RATIONAL:
        _, _, inside_vals = problem.invert("inside", ks)
        diff = float(np.max(np.abs(inside_vals - sequence_values))) / scale
        checks.append((f"strategy agreement series-at-1 vs {used} "
                       f"(max scaled diff {diff:.2e})", diff, tol))

    ms = np.rint(ks - args.a).astype(np.int64)
    quad = quadrature_grid(F, int(ms[-1]), rho=args.rho, nodes=args.nodes)[ms - 1]
    worst = float(np.max(np.abs(quad.real - sequence_values))) / scale
    checks.append((f"contour quadrature vs {used} over k grid "
                   f"(max scaled diff {worst:.2e})", worst, tol))

    seq = problem.sequence(cf)
    iv = initial_value(F)
    first = complex(seq(1))
    ivd = abs(iv - first)
    checks.append((f"initial value f(a+1) = lim F(s) (|diff| {ivd:.2e})",
                   ivd, tol * max(1.0, abs(iv))))

    worst_rt = 0.0
    for s in sample_points(problem.radius, count=5):
        total = forward_transform(seq, s)
        direct = complex(F(s))
        worst_rt = max(worst_rt, abs(total - direct) / max(1.0, abs(direct)))
    checks.append((f"forward series round trip inside ROC "
                   f"(max rel diff {worst_rt:.2e})", worst_rt, 1e-6))

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
            "params": {k: _cpair(v) for k, v in hit.params},
            "sequence": hit.sequence_text,
            "transform": hit.transform_text,
            "roc": describe_roc(hit.radius),
        }
        print(json.dumps(doc, indent=2))
    else:
        print(hit.describe())
    return 0


def _cmd_roundtrip(args):
    tol = args.tol or 1e-6
    failed = 0
    for tp in reference_pairs():
        worst = 0.0
        for s in sample_points(tp.radius, count=8):
            total = forward_transform(tp.sequence, s)
            direct = complex(tp.transform(s))
            worst = max(worst, abs(total - direct) / max(1.0, abs(direct)))
        ok = worst <= tol
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
