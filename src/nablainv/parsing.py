"""Expression language for F(s): parsing, classification, pretty-printing.

Grammar (no implicit multiplication, '^' binds tighter than unary minus):

    expr   := term  (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | 's' | 'pi' | 'e' | 'j' | FUNC '(' expr ')' | '(' expr ')'

FUNC is one of sin, cos, sinh, cosh, exp and must be applied to a constant;
constant subexpressions are folded at parse time.  Exponents must fold to a
finite real constant.  Number literals may carry a 'j' suffix for imaginary
parts, and rationals like 10/7 inside exponents work because '/' folds on
constants.  A fold of finite constants (+, -, *, /, ^ or a function) that
overflows raises OverflowError, and one outside its function's domain
(sin(inf), 0^-1) raises ExpressionSyntaxError; both name the operation and
the line and column of its operator or function name.  An integer power of a
non-constant base is at most MAX_ORDER in magnitude, where it is written
and where a product merges the exponents of one factor.

The lexer is one regular expression, ``_TOKEN``, with a named group per
token kind.  The tree has five node types: ``Num``, ``Var`` (s), ``Neg``,
``BinOp`` (op one of '+', '-', '*', '/') and ``Pow`` (a real exponent).
Nodes carry no positions: errors take theirs from the tokens.
"""

import cmath
import enum
import math
import operator
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ExpressionSyntaxError, UnsupportedExpressionError
from .inversion import FractionalAtom, FractionalSumForm
from .polynomial import Polynomial
from .rational import RationalFunction

__all__ = [
    "parse_expression",
    "classify",
    "pretty",
    "power_form",
    "Kind",
    "Classified",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Pow",
]

_FUNCTIONS = {
    "sin": cmath.sin,
    "cos": cmath.cos,
    "sinh": cmath.sinh,
    "cosh": cmath.cosh,
    "exp": cmath.exp,
}
_CONSTANTS = {"pi": complex(math.pi), "e": complex(math.e), "j": 1j}
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
# The highest order of a factor power: it bounds how far a written power is
# multiplied out.
MAX_ORDER = 171

_UNSUPPORTED_HINT = (
    "only rational functions of s, fractional-power atoms "
    "r*s^(alpha-beta)/(s^alpha-lambda), and tabulated pair shapes are "
    "invertible; constructs with essential singularities or infinitely many "
    "poles (exponentials, logarithms, gamma ratios, ... of s) are not"
)


# --- AST ------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: complex


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-', '*' or '/'
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: float


# --- Lexer ----------------------------------------------------------------


# a tuple, not a frozen dataclass: an expression makes one per character or
# so, and a tuple is built in less than half the time
class _Token(NamedTuple):
    kind: str  # number ident op lparen rparen end
    text: str
    value: complex
    line: int
    column: int


# One named group per token kind, tried in order.  A number: decimal digits
# with an optional fraction, or a fraction alone, then an exponent (only when
# digits follow the e) and 'j'.  An identifier starts with any other word
# character ('_', a letter, '²').  \s is str.isspace: '\r' or a tab is a column.
_TOKEN = re.compile(r"""
    (?P<number>  (?:\d+(?:\.\d*)?|\.\d+) (?:[eE][+-]?\d+)? j? )
  | (?P<ident>   [^\W\d]\w* )
  | (?P<op>      [-+*/^] )
  | (?P<lparen>  \( )
  | (?P<rparen>  \) )
  | (?P<newline> \n )
  | (?P<space>   \s )
  | (?P<other>   . )
""", re.VERBOSE)


def _tokenize(text):
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "space":
            continue
        if kind == "newline":
            line, line_start = line + 1, m.end()
            continue
        lit = m.group()
        column = m.start() - line_start + 1
        if kind == "other":
            raise ExpressionSyntaxError(
                f"unexpected character {lit!r}", line, column,
                ("number", "identifier", "operator", "parenthesis"),
            )
        value = 0j
        if kind == "number":
            value = complex(float(lit[:-1])) * 1j if lit[-1] == "j" else complex(float(lit))
        tokens.append(_Token(kind, lit, value, line, column))
    tokens.append(_Token("end", "", 0j, line, len(text) - line_start + 1))
    return tokens


# --- Parser ----------------------------------------------------------------


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def unexpected(self, expected):
        """The syntax error at the next token."""
        tok = self.peek()
        return ExpressionSyntaxError(
            f"unexpected {tok.text!r}" if tok.text else "unexpected end of input",
            tok.line, tok.column, expected,
        )

    def expect(self, kind, expected):
        if self.peek().kind != kind:
            raise self.unexpected(expected)
        return self.advance()

    def parse(self):
        node = self.expr()
        if self.peek().kind != "end":
            raise self.unexpected(("operator", "end of input"))
        return node

    def expr(self):
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance()
            node = _fold_binary(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance()
            node = _fold_binary(op, node, self.unary())
        return node

    def unary(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            operand = self.unary()
            if isinstance(operand, Num):
                return Num(-operand.value)
            return Neg(operand)
        return self.power()

    def power(self):
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            return _fold_power(tok, base, self.unary())
        return base

    def atom(self):
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Num(tok.value)
        if tok.kind == "lparen":
            self.advance()
            node = self.expr()
            self.expect("rparen", ("')'",))
            return node
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            if name == "s":
                return Var()
            if name in _CONSTANTS:
                return Num(_CONSTANTS[name])
            if name in _FUNCTIONS:
                self.expect("lparen", ("'('",))
                arg = self.expr()
                self.expect("rparen", ("')'",))
                if not isinstance(arg, Num):
                    raise UnsupportedExpressionError(
                        f"{name}() applied to a non-constant argument: " + _UNSUPPORTED_HINT)
                return _constant(tok, lambda: f"{name}({_render(arg, 0)})",
                                 _FUNCTIONS[name], arg.value)
            raise ExpressionSyntaxError(
                f"unknown identifier {name!r}", tok.line, tok.column,
                ("s", "pi", "e", "j", *sorted(_FUNCTIONS)),
            )
        raise self.unexpected(("number", "'s'", "'('", "'-'"))


def _fold_error(tok, what, overflow):
    """The error of a constant fold at token ``tok``: an OverflowError (exit 1)
    when ``what`` leaves the float64 range, else ExpressionSyntaxError (exit 2)."""
    if overflow:
        return OverflowError(
            f"{what} overflows the float64 range at line {tok.line}, column {tok.column}")
    return ExpressionSyntaxError(f"{what} is undefined", tok.line, tok.column)


def _constant(tok, describe, fn, *args):
    """Num(fn(*args)) for a fold of constants at token ``tok``; ``describe()``
    is the operation's text for the error when the fold fails or overflows."""
    try:
        value = fn(*args)
    except (OverflowError, ValueError, ZeroDivisionError) as exc:
        raise _fold_error(tok, describe(), isinstance(exc, OverflowError)) from None
    # complex + and * return inf or nan instead of raising
    if not cmath.isfinite(value) and all(map(cmath.isfinite, args)):
        raise _fold_error(tok, describe(), True)
    return Num(value)


def _fold_binary(tok, left, right):
    if not (isinstance(left, Num) and isinstance(right, Num)):
        return BinOp(tok.text, left, right)
    if tok.text == "/" and right.value == 0:
        raise ExpressionSyntaxError("division by the constant zero", tok.line, tok.column)
    return _constant(tok, lambda: _render(BinOp(tok.text, left, right), 0),
                     _ARITHMETIC[tok.text], left.value, right.value)


def _fold_power(tok, base, exponent):
    if not isinstance(exponent, Num):
        raise UnsupportedExpressionError("non-constant exponent: " + _UNSUPPORTED_HINT)
    e = exponent.value
    if e.imag != 0:
        raise UnsupportedExpressionError(
            "complex exponents are not supported; " + _UNSUPPORTED_HINT)
    e = float(e.real)
    if not math.isfinite(e):
        raise _fold_error(tok, f"the exponent {e!r}", math.isinf(e))
    if isinstance(base, Num):
        return _constant(tok, lambda: _render(Pow(base, e), 0), pow, base.value, e)
    if e.is_integer() and abs(e) > MAX_ORDER:
        raise _order_error(Pow(base, e), f" at line {tok.line}, column {tok.column}")
    if e == 0:
        return Num(1.0 + 0j)
    if e == 1:
        return base
    return Pow(base, e)


def parse_expression(text):
    """Parse an F(s) expression into a constant-folded AST."""
    if not text or not text.strip():
        raise ExpressionSyntaxError("empty expression", 1, 1, ("expression",))
    return _Parser(text).parse()


# --- Classification ---------------------------------------------------------


class Kind(enum.Enum):
    RATIONAL = "rational"
    FRACTIONAL_SUM = "fractional-sum"
    TABLE_CANDIDATE = "table-candidate"
    UNSUPPORTED = "unsupported"


@dataclass(frozen=True)
class Classified:
    kind: Kind
    ast: object
    rational: object = None
    fractional: object = None
    reason: str = None


_S = Polynomial([0.0, 1.0])


def _to_rational(node):
    """(constant, {monic Polynomial: nonzero int exponent}), or None if not rational.

    The factors are the ones the expression writes: products, quotients,
    integer powers and negation only combine constants and exponents, and
    identical factors cancel by exponent arithmetic.  A sum or difference
    goes over the common denominator (each denominator factor at the larger
    of its two exponents), and only its numerator is multiplied out, into one
    dense factor.  F = 0 is (0, {}).  Raises ZeroDivisionError for a division
    by an expression that is identically zero.
    """
    if isinstance(node, Num):
        return node.value, {}
    if isinstance(node, Var):
        return 1.0 + 0j, {_S: 1}
    if isinstance(node, Neg):
        r = _to_rational(node.operand)
        return None if r is None else (-r[0], r[1])
    if isinstance(node, BinOp):
        l = _to_rational(node.left)
        r = _to_rational(node.right)
        if l is None or r is None:
            return None
        if node.op in "+-":
            return _sum(l, r, 1.0 if node.op == "+" else -1.0)
        if node.op == "*":
            return _scaled(l[0] * r[0], l[1], r[1], 1)
        if r[0] == 0:
            raise ZeroDivisionError("denominator is identically zero")
        return _scaled(l[0] / r[0], l[1], r[1], -1)
    if not node.exponent.is_integer():  # node is a Pow
        return None
    r = _to_rational(node.base)
    if r is None:
        return None
    e = int(round(node.exponent))
    c, factors = r
    if c == 0 and e < 0:
        raise ZeroDivisionError("denominator is identically zero")
    try:
        c = c**e
    except OverflowError:
        raise OverflowError(f"the constant factor {_render(Pow(Num(c), e), 0)} "
                            "overflows the float64 range") from None
    return _scaled(c, {}, factors, e)


def _order_error(power, where=""):
    return UnsupportedExpressionError(
        f"the power {_render(power, 0)}{where} is above {MAX_ORDER}, the largest "
        "order of a factor power")


def _scaled(c, left, right, sign):
    """(c, left * right^sign), exponents added and zero exponents dropped;
    raises for an exponent above MAX_ORDER in magnitude."""
    if c == 0:
        return 0j, {}
    out = dict(left)
    for q, e in right.items():
        n = out.get(q, 0) + sign * e
        if abs(n) > MAX_ORDER:
            raise _order_error(Pow(_polynomial(q), float(n)))
        if n:
            out[q] = n
        else:
            del out[q]
    return c, out


def _polynomial(q):
    """The Polynomial q(s) as a tree, its highest power first."""
    node = None
    for i in range(q.degree, -1, -1):
        c = complex(q.coeffs[i])
        if c == 0:
            continue
        op = "+"
        if node is not None and c.imag == 0 and c.real < 0:
            op, c = "-", -c
        term = Num(c) if i == 0 else Var() if i == 1 else Pow(Var(), float(i))
        if i and c != 1:
            term = BinOp("*", Num(c), term)
        node = term if node is None else BinOp(op, node, term)
    return node


def _sum(l, r, sign):
    """l + sign * r over the common denominator, the numerator multiplied out."""
    if r[0] == 0:
        return l
    if l[0] == 0:
        return sign * r[0], r[1]
    den = {}
    for q in {**l[1], **r[1]}:
        d = max(0, -l[1].get(q, 0), -r[1].get(q, 0))
        if d:
            den[q] = d
    # each side over den: c * prod q^(e + d) over its factors and den's
    left, right = (
        _multiplied(c, ((q, f.get(q, 0) + den.get(q, 0)) for q in {**f, **den}))
        for c, f in (l, (sign * r[0], r[1]))
    )
    if len(left) < len(right):
        left, right = right, left
    num = [a + b for a, b in zip(left, right)] + left[len(right):]
    while num and num[-1] == 0:
        num.pop()
    if not num:
        return 0j, {}
    top = {}
    if len(num) > 1:
        # the monic numerator, divided in numpy as Polynomial.monic divides it
        monic = np.array(num)
        monic /= monic[-1]
        monic[-1] = 1.0
        top = {Polynomial(monic): 1}
    return _scaled(num[-1], top, den, -1)


def _multiplied(c, factors):
    """c * prod q^e over (Polynomial q, int e >= 0) pairs as a list of Python
    complex, bit for bit the coefficients ``Polynomial.product`` gives (before
    it trims trailing zeros).

    np.convolve([c], q) is c * q_i added to a zero accumulator, and a
    convolution with s is a shift of the coefficients a convolution made
    (their zeros are already +0.0), so only the later factors other than s
    reach np.convolve.
    """
    acc = None
    for q, e in factors:
        if not e:
            continue
        if acc is None:
            # 0j + turns -0.0 into 0.0, as the accumulator does
            acc = [0j + c * x for x in q.coeffs.tolist()]
            e -= 1
        if q is _S:
            acc = [0j] * e + acc
        else:
            for _ in range(e):
                acc = np.convolve(acc, q.coeffs).tolist()
    return [c] if acc is None else acc


def linear_coefficients(node):
    """[c0, c1] when the node is c0 + c1*s with c1 != 0, [c0] when it is a
    constant; None otherwise (not rational, or of higher degree)."""
    r = _to_rational(node)
    if r is None:
        return None
    c, factors = r
    if not factors:
        return np.array([c])
    if len(factors) == 1:
        ((q, e),) = factors.items()
        if e == 1 and q.degree == 1:
            return c * q.coeffs
    return None


def _power_of_s(x):
    if isinstance(x, Var):
        return 1.0
    if isinstance(x, Pow) and isinstance(x.base, Var):
        return x.exponent
    return None


def _binomial_pole(node):
    """Recognize s^alpha - lam shapes; returns (alpha, lam, flip) or None.

    flip is -1 when the node is lam - s^alpha = -(s^alpha - lam).
    """
    if not (isinstance(node, BinOp) and node.op in "+-"):
        return None
    a = _power_of_s(node.left)
    if a is not None and isinstance(node.right, Num):
        c = node.right.value  # s^a - lam, or s^a + c = s^a - (-c)
        return a, (c if node.op == "-" else -c), 1.0
    a = _power_of_s(node.right)
    if a is not None and isinstance(node.left, Num):
        c = node.left.value  # lam - s^a, or c + s^a
        return (a, c, -1.0) if node.op == "-" else (a, -c, 1.0)
    return None


def power_form(node):
    """Read a product as c * s^e * (s^alpha - lam)^-n * prod (c0 + c1*s)^p.

    Returns (c, e, pole, linear), or None when a factor is none of these or
    a divisor is 0.  ``pole`` is (alpha, lam, flip, n) for the one denominator
    factor written s^alpha -/+ lam or lam -/+ s^alpha with an integer power n,
    flip = -1 for the form lam - s^alpha; None when there is no such factor.
    ``linear`` lists ([c0, c1], p) for every other factor, p < 0 in the
    denominator.  One walk through the products, quotients and negations
    reads it; the base of a power, or any other node, is one factor.
    """
    e, pole, linear = 0.0, None, []

    def constant(node, sign):
        # node's constant, after reading its other factors to sign times
        # their power (-1 under a '/'); None when one cannot be read
        nonlocal e, pole
        if isinstance(node, Num):
            return node.value
        if isinstance(node, Neg):
            c = constant(node.operand, sign)
            return None if c is None else -c
        if isinstance(node, BinOp) and node.op in "*/":
            l = constant(node.left, sign)
            r = constant(node.right, sign if node.op == "*" else -sign)
            if l is None or r is None or (node.op == "/" and r == 0):
                return None
            return l * r if node.op == "*" else l / r
        base, p = (node.base, sign * node.exponent) if isinstance(node, Pow) else (node, sign)
        a = _power_of_s(base)
        b = _binomial_pole(base) if p < 0 and p.is_integer() else None
        if a is not None:
            e += a * p
        elif b is not None:
            if pole is not None:
                return None  # a second pole
            pole = (*b, -p)
        else:
            lin = linear_coefficients(base)
            if lin is None or len(lin) != 2:
                return None
            linear.append((lin, p))
        return 1.0 + 0j

    c = constant(node, 1.0)
    return None if c is None else (c, e, pole, linear)


def _match_atom(node, sign):
    """Match one summand against r * s^(alpha-beta)/(s^alpha - lam)."""
    form = power_form(node)
    if form is None:
        return None
    c, e, pole, linear = form
    if pole is None and len(linear) == 1 and linear[0][1] == -1:
        # a lone linear denominator c0 + c1*s is c1 (s - lam), an alpha = 1
        # pole; 0.0 - x, unlike -x, leaves a zero imaginary part +0.0, as the
        # literal lam of s - lam has it
        (c0, c1), _ = linear[0]
        c, pole, linear = c / c1, (1.0, 0.0 - c0 / c1, 1.0, 1), []
    if linear:
        return None
    if pole is not None:
        alpha, lam, flip, n = pole
        beta = alpha - e
        if n != 1 or alpha <= 0 or beta <= 0:
            return None
        return FractionalAtom(c * sign * flip, alpha, beta, lam)
    if e < 0:
        return FractionalAtom(c * sign, -e, -e, 0j)
    return None


def _flatten_sum(node, sign=1.0):
    if isinstance(node, BinOp) and node.op in "+-":
        right = sign if node.op == "+" else -sign
        return _flatten_sum(node.left, sign) + _flatten_sum(node.right, right)
    if isinstance(node, Neg):
        return _flatten_sum(node.operand, -sign)
    return [(sign, node)]


def _to_fractional(node):
    atoms = []
    for sign, term in _flatten_sum(node):
        atom = _match_atom(term, sign)
        if atom is None:
            return None
        atoms.append(atom)
    return FractionalSumForm(tuple(atoms)) if atoms else None


def _scan_unsupported(node):
    """Reason string when the tree uses constructs outside the table shapes."""
    if isinstance(node, (Num, Var)):
        return None
    if isinstance(node, Neg):
        return _scan_unsupported(node.operand)
    if isinstance(node, BinOp):
        return _scan_unsupported(node.left) or _scan_unsupported(node.right)
    inner = _scan_unsupported(node.base)  # node is a Pow
    # an integer power, or a fractional power of s or of a linear base
    # (tabulated shapes), is supported
    if inner or node.exponent.is_integer() or isinstance(node.base, Var) \
            or linear_coefficients(node.base) is not None:
        return inner
    return "fractional power of a non-linear base: " + _UNSUPPORTED_HINT


def classify(ast):
    """Total classification of a parsed expression.

    Precedence: Rational (integer powers only), then FractionalSum (a sum of
    pole atoms, the fractional-order shape), then TableCandidate (fractional
    powers of s or of linear bases arranged some other way -- possibly one of
    the tabulated pairs), otherwise Unsupported with a reason.
    """
    r = _to_rational(ast)
    if r is not None:
        return Classified(Kind.RATIONAL, ast, rational=RationalFunction.from_factors(*r))
    f = _to_fractional(ast)
    if f is not None:
        return Classified(Kind.FRACTIONAL_SUM, ast, fractional=f)
    reason = _scan_unsupported(ast)
    if reason is None:
        return Classified(Kind.TABLE_CANDIDATE, ast)
    return Classified(Kind.UNSUPPORTED, ast, reason=reason)


# --- Pretty printing --------------------------------------------------------


def _fmt_real(x):
    if abs(x) < 1e15 and x == int(x):
        return str(int(x))
    return repr(x)


def _fmt_num(v):
    if v.imag == 0:
        return _fmt_real(v.real)
    if v.real == 0:
        return _fmt_real(v.imag) + "j"
    sign = "+" if v.imag >= 0 else "-"
    return f"({_fmt_real(v.real)}{sign}{_fmt_real(abs(v.imag))}j)"


# a BinOp's precedence is its operator's, any other node's its type's
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, Neg: 3, Pow: 4, Num: 5, Var: 5}


def pretty(node):
    """Canonical text form; parsing it back yields an equal AST."""
    return _render(node, 0)


def _render(node, parent):
    prec = _PREC[node.op if isinstance(node, BinOp) else type(node)]
    if isinstance(node, Num):
        text = _fmt_num(node.value)
        if (node.value.real < 0 and node.value.imag == 0) and parent > 0:
            text = f"({text})"
        return text
    elif isinstance(node, Var):
        text = "s"
    elif isinstance(node, Neg):
        text = "-" + _render(node.operand, prec)
    elif isinstance(node, BinOp):
        text = f"{_render(node.left, prec)}{node.op}{_render(node.right, prec + 1)}"
    else:  # Pow
        exp = _fmt_real(node.exponent)
        text = f"{_render(node.base, prec + 1)}^{exp}"
    if prec < parent:
        return f"({text})"
    return text
