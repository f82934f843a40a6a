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

One walk of the folded tree reads F for every class: as summands c * prod b^e,
e real and b one of s, an atom base s^alpha - lam (c1*s^alpha + c0 is
c1 * (s^alpha - lam)), c0 + c1*s or another sum; and, with integer powers
only, as c * prod q^e over the monic polynomials q written.  RATIONAL F has
the second reading; in FRACTIONAL_SUM F every summand is an atom: c * s^e * b^-1
for an atom base or a lone c0 + c1*s (alpha = 1), or c * s^e, e < 0 (lam = 0).
UNSUPPORTED F takes a non-integer power of a base other than s and c0 + c1*s.
TABLE_CANDIDATE is the rest, matched against pair rows 6 and 10.
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
from .polynomial import Polynomial, conjugate_pairs, conjugate_product
from .rational import RationalFunction

__all__ = [
    "parse_expression",
    "classify",
    "pretty",
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


# --- Reading F: one walk for every class -------------------------------------


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
    terms: list = None  # a table candidate's summands, for pairs.lookup


# s: a monic polynomial's coefficients, lowest degree first, as a factor of
# the rational reading, and the base s of a summand
_S = (0j, 1 + 0j)


class _Base(NamedTuple):
    """A sum as one base: flip * (s^alpha - lam) when written c1*s^alpha + c0
    (lam None otherwise), and scale * q(s) when of degree 1 (q None otherwise)."""

    alpha: float
    lam: complex
    flip: float
    scale: complex
    q: tuple


def _read(node):
    """The form (rational, parts, odd) of a folded tree, in one walk.

    ``rational`` is (c, {monic coefficient tuple: int}) for a rational F, else
    None; ``_scaled`` and ``_sum`` combine it in tree order, and
    ``_read_chain`` the summands of a longer sum.  ``parts`` is, for ``_terms``,
    None (a leaf), summands, or the node and operands' forms.
    ``odd`` marks a non-integer power of a base other than s and c0 + c1*s.
    Raises ZeroDivisionError for a divisor that is identically zero.
    """
    if type(node) is Num:
        return (node.value, {}), None, False
    if type(node) is Var:
        return (1.0 + 0j, {_S: 1}), None, False
    if type(node) is Neg:
        r, _, odd = form = _read(node.operand)
        return r and (-r[0], r[1]), (node, form), odd
    if type(node) is BinOp:
        if node.op in "+-" and type(node.left) is BinOp and node.left.op in "+-":
            return _read_chain(node)
        l, r = _read(node.left), _read(node.right)
        lr, rr, rational = l[0], r[0], None
        if lr is not None and rr is not None:
            if node.op in "+-":  # two summands: no pair to reorder (``_read_chain``)
                rational = _sum(lr, rr, 1.0 if node.op == "+" else -1.0)
            elif node.op == "*":
                rational = _scaled(lr[0] * rr[0], lr[1], rr[1], 1)
            elif rr[0] == 0:
                raise ZeroDivisionError("denominator is identically zero")
            else:
                rational = _scaled(lr[0] / rr[0], lr[1], rr[1], -1)
        return rational, (node, l, r), l[2] or r[2]
    p = node.exponent  # node is a Pow
    if type(node.base) is Var and not p.is_integer():
        return None, [(1.0, 1.0 + 0j, {_S: p})], False  # s^p, as _power reads it
    r, _, odd = base = _read(node.base)
    if not p.is_integer():  # odd unless the base is a constant or of degree one
        return None, (node, base), odd or not (r and (not r[1] or _degree_one(r)))
    n, rational = int(p), None
    if r is not None:
        c, factors = r
        if c == 0 and n < 0:
            raise ZeroDivisionError("denominator is identically zero")
        try:
            c = c**n
        except OverflowError:
            raise OverflowError(f"the constant factor {_render(Pow(Num(c), n), 0)} "
                                "overflows the float64 range") from None
        rational = _scaled(c, {}, factors, n)
    return rational, (node, base), odd


def _read_chain(node):
    """The form of a chain of three or more summands joined by + and -, as
    ``_read`` gives it.  Its operands are read left to right, and its
    rational reading is their sum over a common denominator in the same
    order (``_sum``), except that a summand with an exact conjugate partner
    later in the chain, c over q^e and c-bar over q-bar^e with the factors
    in the same order, is added to it first, and the pair's sum, whose
    numerator is then exactly real, takes the summand's place.  The chain's
    inner nodes get no rational reading: only the chain's own is ever read.

    ``_read`` adds two summands itself, in order, the same sum this would
    give: each s - p of a factored F is such a sum, and reading it here
    made the median rational-short request about 3 % slower."""
    chain = []
    while type(node) is BinOp and node.op in "+-":
        chain.append(node)
        node = node.left
    form = _read(node)
    readings, signs, odd = [form[0]], [1.0], form[2]
    for inner in reversed(chain):
        right = _read(inner.right)
        readings.append(right[0])
        signs.append(1.0 if inner.op == "+" else -1.0)
        odd = odd or right[2]
        form = None, (inner, form, right), odd
    if None in readings:
        return form
    # a real multiple of a power of s (no factor but s) has no partner
    if any(c.imag or len(f) > (_S in f) for c, f in readings):
        # a summand's key: its signed constant and its factors' coefficients,
        # with the factors' lengths and exponents as the tag
        keys = [((sign * c, *(x for q in f for x in q)), tuple((len(q), e) for q, e in f.items()))
                for sign, (c, f) in zip(signs, readings)]
        for i, j in reversed(conjugate_pairs(keys)):  # from the last partner back
            r = readings[i] if i == 0 else (signs[i] * readings[i][0], readings[i][1])
            readings[i], signs[i] = _sum(r, readings[j], signs[j]), 1.0
            del readings[j], signs[j]
    total = readings[0]
    for i in range(1, len(readings)):
        total = _sum(total, readings[i], signs[i])
    return total, form[1], odd


def _terms(form):
    """F as summands (sign, c, {base: real exponent}) from a form's parts.

    A base is s (``_S``), a ``_Base``, or a new ``object()`` for another sum.
    A product folds the signs into its constant, adds exponents in tree order,
    and spreads a constant over a sum that is not one base.
    """
    parts = form[1]
    if parts is None:  # a leaf, whose one summand is its rational reading
        return [(1.0, *form[0])]
    if type(parts) is list:
        return parts
    node, left = parts[0], parts[1]
    if type(node) is Neg:
        return [(-s, c, f) for s, c, f in _terms(left)]
    if type(node) is Pow:
        p = node.exponent
        return [_power(left[0], _terms(left), int(p) if p.is_integer() else p)]
    right, op = parts[2], node.op
    l, r = _terms(left), _terms(right)
    if op in "+-":
        return l + (r if op == "+" else [(-s, c, f) for s, c, f in r])
    sign = 1 if op == "*" else -1
    a = l[0] if len(l) == 1 else _factor(left[0], l)
    b = r[0] if len(r) == 1 else _factor(right[0], r)
    if not b[2] and len(l) > 1 and not isinstance(next(iter(a[2])), _Base):
        return [_times(t, b, sign) for t in l]
    if sign > 0 and not a[2] and len(r) > 1 and not isinstance(next(iter(b[2])), _Base):
        return [_times(a, t, 1) for t in r]
    return [_times(a, b, sign)]


def _times(a, b, sign):
    """The summand a * b^sign (sign 1 or -1), signs folded into constants; one
    divided by a zero constant gets a base of its own."""
    (sa, ca, fa), (sb, cb, fb) = a, b
    ca, cb = (ca if sa > 0 else -ca), (cb if sb > 0 else -cb)
    if sign < 0 and cb == 0:
        return 1.0, ca, {**fa, object(): 1}
    f = dict(fa) if fb else fa  # no dict is changed once built
    for base, e in fb.items():
        f[base] = f.get(base, 0) + sign * e
    return 1.0, ca * cb if sign > 0 else ca / cb, f


def _power(rational, terms, p):
    """The summand form^p: a non-integer power takes only a power of s as it
    is, and anything else as one ``_factor``; a constant 1 stays 1 + 0j."""
    one = terms[0] if len(terms) == 1 else None
    if one is None or type(p) is not int and not (
            one[0] > 0 and one[1] == 1 and one[2].keys() == {_S}):
        one = _factor(rational, terms)
    s, c, f = one
    c = c if s > 0 else -c
    try:
        c = 1.0 + 0j if c == 1 else c**p
    except (OverflowError, ZeroDivisionError):
        return 1.0, c, {**f, object(): 1}
    return 1.0, c, {base: e * p for base, e in f.items()}


def _degree_one(rational):
    """(scale, q) when the rational reading is scale * q(s), q monic of degree 1."""
    c, factors = rational
    if len(factors) == 1:
        ((q, e),) = factors.items()
        if e == 1 and len(q) == 2:
            return c, q
    return None


def _factor(rational, terms):
    """The summand const * b^1 of a form read as one base b (``_Base``).

    A sum of c1*s^alpha and c0 is const * flip * (s^alpha - lam), flip the
    sign of c1*s^alpha.  With c1 = 1, lam is c0 or -c0 as the signs say and
    const is 1 + 0j, or -(1 + 0j) when the first summand is negated and the
    sum is not of degree 1 (the sum's negation, for a product to fold in);
    otherwise lam is +/-c0/c1 and const takes c1 too.
    """
    scale, q = rational and _degree_one(rational) or (None, None)
    alpha = lam = flip = None
    const = 1.0 + 0j
    if len(terms) == 2:
        power, constant = terms if terms[0][2] else terms[::-1]
        (sp, c1, fp), (sn, c0, fc) = power, constant
        if not fc and fp.keys() == {_S} and (c1 == 1 or (q is None and c1 != 0)):
            if terms[0][0] < 0 and q is None:
                sp, sn, const = -sp, -sn, -const
            r = c0 if c1 == 1 else c0 / c1
            alpha, lam, flip = float(fp[_S]), (r if sn != sp else -r), sp
            if c1 != 1:
                const *= c1
    if lam is None and q is None:
        return 1.0, const, {object(): 1}
    return 1.0, const, {_Base(alpha, lam, flip, scale, q): 1}


def _atom(term):
    """The parameters (coefficient, alpha, beta, lam) of the FractionalAtom a
    summand is, or None: c * s^e * b^-1 for a base b with lam, or b = c0 +
    c1*s, which is c1 (s - lam) with lam = -c0/c1, or c * s^e with e < 0, the
    lam = 0 atom."""
    sign, c, factors = term
    e, pole = 0.0, None
    for base, p in factors.items():
        if base == _S:
            e = float(p)
        elif p == -1 and pole is None and isinstance(base, _Base):
            pole = base
        else:
            return None
    if pole is None:
        return (c * sign, -e, -e, 0j) if e < 0 else None
    alpha, lam, flip = pole.alpha, pole.lam, pole.flip
    if lam is None:
        # 0.0 - x, unlike -x, gives lam a zero imaginary part +0.0, as s - lam has
        c0, c1 = pole.scale * np.array(pole.q)
        c, alpha, lam, flip = c / c1, 1.0, 0.0 - c0 / c1, 1.0
    beta = alpha - e
    if alpha <= 0 or beta <= 0:
        return None
    return c * sign * flip, alpha, beta, lam


def classify(ast):
    """Total classification of a parsed expression from its ``_read`` form, by
    the rules of the module docstring, in the order Rational, FractionalSum,
    Unsupported, TableCandidate."""
    form = rational, _, odd = _read(ast)
    if rational is not None:
        c, factors = rational
        return Classified(Kind.RATIONAL, ast, rational=RationalFunction.from_factors(
            c, {Polynomial(q): e for q, e in factors.items()}))
    terms = _terms(form)
    # the class follows from every summand's shape before any atom checks
    # its parameters, so that the summands' order cannot change the error
    atoms = [_atom(term) for term in terms]
    if None not in atoms:
        return Classified(Kind.FRACTIONAL_SUM, ast, fractional=FractionalSumForm(
            tuple(FractionalAtom(*params) for params in atoms)))
    if odd:
        return Classified(Kind.UNSUPPORTED, ast,
                          reason="fractional power of a non-linear base: " + _UNSUPPORTED_HINT)
    return Classified(Kind.TABLE_CANDIDATE, ast, terms=terms)


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
    """The polynomial with coefficients q as a tree, highest power first."""
    node = None
    for i, c in reversed(list(enumerate(q))):
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
    den, keys = {}, {**l[1], **r[1]}
    for q in keys:
        d = max(0, -l[1].get(q, 0), -r[1].get(q, 0))
        if d:
            den[q] = d
    pairs = ()
    if len(keys) > 1:  # the exactly conjugate pairs of complex factors
        qs = list(keys)
        pairs = [(qs[i], qs[j]) for i, j in conjugate_pairs([(q, None) for q in qs])]
    # each side over den: c * prod q^(e + d) over its factors and den's
    left, right = (
        _multiplied(c, ((q, f.get(q, 0) + den.get(q, 0)) for q in {**f, **den}), pairs)
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
        top = {tuple(monic.tolist()): 1}
    return _scaled(num[-1], top, den, -1)


def _multiplied(c, factors, pairs=()):
    """c * prod q^e over (coefficient tuple q, int e >= 0) pairs as a list of
    Python complex, bit for bit ``Polynomial.product``'s coefficients (before
    it trims trailing zeros): np.convolve([c], q) is c * q_i added to a zero
    accumulator, and a convolution with s is a shift of coefficients a
    convolution made (their zeros are +0.0), so only the later factors other
    than s reach np.convolve.

    ``pairs`` holds (q, q-bar) pairs of exactly conjugate factors
    (``conjugate_pairs``).  Where both have a positive exponent here, the
    lesser exponent's copies of the pair are multiplied first, each as the
    real ``conjugate_product``, and then c and the other factors in order,
    so that the product of a real F's factors is exactly real."""
    acc = None
    if pairs:
        factors = dict(factors)
        for q, qbar in pairs:
            n = min(factors.get(q, 0), factors.get(qbar, 0))
            if n:
                real = conjugate_product(q)
                for _ in range(n):
                    acc = np.convolve(acc or [1.0], real).tolist()
                factors[q] -= n
                factors[qbar] -= n
        if acc is not None:
            acc = [0j + c * x for x in acc]
        factors = factors.items()
    for q, e in factors:
        if not e:
            continue
        if acc is None:
            # 0j + turns -0.0 into 0.0, as the accumulator does
            acc = [0j + c * x for x in q]
            e -= 1
        if q is _S:
            acc = [0j] * e + acc
        else:
            for _ in range(e):
                acc = np.convolve(acc, q).tolist()
    return [c] if acc is None else acc


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
