"""Expression language for F(s): parsing, classification, pretty-printing.

Grammar (no implicit multiplication, '^' binds tighter than unary minus):

    expr   := term  (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | 's' | 'pi' | 'e' | 'j' | FUNC '(' expr ')' | '(' expr ')'

FUNC is one of sin, cos, sinh, cosh, exp and must be applied to a constant;
constant subexpressions are folded at parse time.  Exponents must fold to a
real constant.  Number literals may carry a 'j' suffix for imaginary parts,
and rationals like 10/7 inside exponents work because '/' folds on constants.
"""

import cmath
import enum
import math
from dataclasses import dataclass, field
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
    "Add",
    "Sub",
    "Mul",
    "Div",
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
    pos: tuple = field(default=None, compare=False)


@dataclass(frozen=True)
class Var:
    pos: tuple = field(default=None, compare=False)


@dataclass(frozen=True)
class Neg:
    operand: object
    pos: tuple = field(default=None, compare=False)


@dataclass(frozen=True)
class Add:
    left: object
    right: object
    pos: tuple = field(default=None, compare=False)


@dataclass(frozen=True)
class Sub:
    left: object
    right: object
    pos: tuple = field(default=None, compare=False)


@dataclass(frozen=True)
class Mul:
    left: object
    right: object
    pos: tuple = field(default=None, compare=False)


@dataclass(frozen=True)
class Div:
    left: object
    right: object
    pos: tuple = field(default=None, compare=False)


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: float
    pos: tuple = field(default=None, compare=False)


# --- Lexer ----------------------------------------------------------------


# a tuple, not a frozen dataclass: an expression makes one per character or
# so, and a tuple is built in less than half the time
class _Token(NamedTuple):
    kind: str  # number ident op lparen rparen end
    text: str
    value: complex
    line: int
    column: int


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        start_col = col
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lit = text[i:j]
            value = complex(float(lit))
            if j < n and text[j] == "j":
                value *= 1j
                j += 1
                lit = text[i:j]
            tokens.append(_Token("number", lit, value, line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], 0j, line, start_col))
            col += j - i
            i = j
            continue
        if ch in "+-*/^":
            tokens.append(_Token("op", ch, 0j, line, start_col))
        elif ch == "(":
            tokens.append(_Token("lparen", ch, 0j, line, start_col))
        elif ch == ")":
            tokens.append(_Token("rparen", ch, 0j, line, start_col))
        else:
            raise ExpressionSyntaxError(
                f"unexpected character {ch!r}", line, start_col,
                ("number", "identifier", "operator", "parenthesis"),
            )
        i += 1
        col += 1
    tokens.append(_Token("end", "", 0j, line, col))
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

    def expect(self, kind, text=None, expected=()):
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            raise ExpressionSyntaxError(
                f"unexpected {tok.text!r}" if tok.text else "unexpected end of input",
                tok.line, tok.column, expected,
            )
        return self.advance()

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionSyntaxError(
                f"unexpected {tok.text!r}", tok.line, tok.column,
                ("operator", "end of input"),
            )
        return node

    def expr(self):
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance()
            right = self.term()
            node = _fold_binary(op.text, node, right, (op.line, op.column))
        return node

    def term(self):
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance()
            right = self.unary()
            node = _fold_binary(op.text, node, right, (op.line, op.column))
        return node

    def unary(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            operand = self.unary()
            if isinstance(operand, Num):
                return Num(-operand.value, (tok.line, tok.column))
            return Neg(operand, (tok.line, tok.column))
        return self.power()

    def power(self):
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            exponent = self.unary()
            return _fold_power(base, exponent, (tok.line, tok.column))
        return base

    def atom(self):
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Num(tok.value, (tok.line, tok.column))
        if tok.kind == "lparen":
            self.advance()
            node = self.expr()
            self.expect("rparen", expected=("')'",))
            return node
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            pos = (tok.line, tok.column)
            if name == "s":
                return Var(pos)
            if name in _CONSTANTS:
                return Num(_CONSTANTS[name], pos)
            if name in _FUNCTIONS:
                self.expect("lparen", expected=("'('",))
                arg = self.expr()
                self.expect("rparen", expected=("')'",))
                if not isinstance(arg, Num):
                    raise UnsupportedExpressionError(
                        f"{name}() applied to a non-constant argument: "
                        + _UNSUPPORTED_HINT
                    )
                return Num(_FUNCTIONS[name](arg.value), pos)
            raise ExpressionSyntaxError(
                f"unknown identifier {name!r}", tok.line, tok.column,
                ("s", "pi", "e", "j", *sorted(_FUNCTIONS)),
            )
        raise ExpressionSyntaxError(
            f"unexpected {tok.text!r}" if tok.text else "unexpected end of input",
            tok.line, tok.column,
            ("number", "'s'", "'('", "'-'"),
        )


def _fold_binary(op, left, right, pos):
    if isinstance(left, Num) and isinstance(right, Num):
        a, b = left.value, right.value
        if op == "+":
            return Num(a + b, pos)
        if op == "-":
            return Num(a - b, pos)
        if op == "*":
            return Num(a * b, pos)
        if b == 0:
            raise ExpressionSyntaxError("division by the constant zero", *pos)
        return Num(a / b, pos)
    cls = {"+": Add, "-": Sub, "*": Mul, "/": Div}[op]
    return cls(left, right, pos)


def _fold_power(base, exponent, pos):
    if not isinstance(exponent, Num):
        raise UnsupportedExpressionError(
            "non-constant exponent: " + _UNSUPPORTED_HINT
        )
    e = exponent.value
    if e.imag != 0:
        raise UnsupportedExpressionError(
            "complex exponents are not supported; " + _UNSUPPORTED_HINT
        )
    e = float(e.real)
    if isinstance(base, Num):
        return Num(base.value**e, pos)
    if e == 0:
        return Num(1.0 + 0j, pos)
    if e == 1:
        return base
    return Pow(base, e, pos)


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


def _is_integer(e, tol=0.0):
    return abs(e - round(e)) <= tol


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
    if isinstance(node, (Add, Sub, Mul, Div)):
        l = _to_rational(node.left)
        r = _to_rational(node.right)
        if l is None or r is None:
            return None
        if isinstance(node, (Add, Sub)):
            return _sum(l, r, 1.0 if isinstance(node, Add) else -1.0)
        if isinstance(node, Mul):
            return _scaled(l[0] * r[0], l[1], r[1], 1)
        if r[0] == 0:
            raise ZeroDivisionError("denominator is identically zero")
        return _scaled(l[0] / r[0], l[1], r[1], -1)
    if isinstance(node, Pow):
        if not _is_integer(node.exponent):
            return None
        r = _to_rational(node.base)
        if r is None:
            return None
        e = int(round(node.exponent))
        c, factors = r
        if c == 0 and e < 0:
            raise ZeroDivisionError("denominator is identically zero")
        return _scaled(c**e, {}, factors, e)
    return None


def _scaled(c, left, right, sign):
    """(c, left * right^sign), exponents added and zero exponents dropped."""
    if c == 0:
        return 0j, {}
    out = dict(left)
    for q, e in right.items():
        n = out.get(q, 0) + sign * e
        if n:
            out[q] = n
        else:
            del out[q]
    return c, out


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


def fraction_factors(node):
    """Flatten a product/quotient into (coefficient, numerator factors, denominator factors).

    Factors are (base_node, positive float exponent) pairs; non-product nodes
    (sums, binomials) stay as atomic factor bases.  Returns None when the
    structure cannot be flattened (zero constant divisor).
    """
    if isinstance(node, Num):
        return node.value, [], []
    if isinstance(node, Neg):
        r = fraction_factors(node.operand)
        return None if r is None else (-r[0], r[1], r[2])
    if isinstance(node, Mul):
        l = fraction_factors(node.left)
        r = fraction_factors(node.right)
        if l is None or r is None:
            return None
        return l[0] * r[0], l[1] + r[1], l[2] + r[2]
    if isinstance(node, Div):
        l = fraction_factors(node.left)
        r = fraction_factors(node.right)
        if l is None or r is None or r[0] == 0:
            return None
        return l[0] / r[0], l[1] + r[2], l[2] + r[1]
    if isinstance(node, Pow):
        e = node.exponent
        if e == 0:
            return 1.0 + 0j, [], []
        if e > 0:
            return 1.0 + 0j, [(node.base, e)], []
        return 1.0 + 0j, [], [(node.base, -e)]
    return 1.0 + 0j, [(node, 1.0)], []


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
    if isinstance(node, Sub):
        a = _power_of_s(node.left)
        if a is not None and isinstance(node.right, Num):
            return a, node.right.value, 1.0  # s^a - lam
        a = _power_of_s(node.right)
        if a is not None and isinstance(node.left, Num):
            return a, node.left.value, -1.0  # lam - s^a
    elif isinstance(node, Add):
        a = _power_of_s(node.left)
        if a is not None and isinstance(node.right, Num):
            return a, -node.right.value, 1.0  # s^a + c = s^a - (-c)
        a = _power_of_s(node.right)
        if a is not None and isinstance(node.left, Num):
            return a, -node.left.value, 1.0
    return None


def power_form(node):
    """Read a product as c * s^e * (s^alpha - lam)^-n * prod (c0 + c1*s)^p.

    Returns (c, e, pole, linear), or None when a factor is none of these.
    ``pole`` is (alpha, lam, flip, n) for the one denominator factor written
    s^alpha -/+ lam or lam -/+ s^alpha with an integer power n, flip = -1 for
    the form lam - s^alpha; None when there is no such factor.  ``linear``
    lists ([c0, c1], p) for every other factor, p < 0 in the denominator.
    """
    fac = fraction_factors(node)
    if fac is None:
        return None
    c, num_f, den_f = fac
    e, pole, linear = 0.0, None, []
    for base, p in num_f + [(base, -p) for base, p in den_f]:
        a = _power_of_s(base)
        if a is not None:
            e += a * p
            continue
        b = _binomial_pole(base) if p < 0 and _is_integer(p) else None
        if b is not None:
            if pole is not None:
                return None
            pole = (*b, -p)
            continue
        lin = linear_coefficients(base)
        if lin is None or len(lin) != 2:
            return None
        linear.append((lin, p))
    return c, e, pole, linear


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
    if isinstance(node, Add):
        return _flatten_sum(node.left, sign) + _flatten_sum(node.right, sign)
    if isinstance(node, Sub):
        return _flatten_sum(node.left, sign) + _flatten_sum(node.right, -sign)
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
    if isinstance(node, (Add, Sub, Mul, Div)):
        return _scan_unsupported(node.left) or _scan_unsupported(node.right)
    if isinstance(node, Pow):
        inner = _scan_unsupported(node.base)
        if inner:
            return inner
        if _is_integer(node.exponent):
            return None
        if isinstance(node.base, Var):
            return None
        if linear_coefficients(node.base) is not None:
            return None  # fractional power of a linear base (tabulated shape)
        return "fractional power of a non-linear base: " + _UNSUPPORTED_HINT
    return f"unsupported node {type(node).__name__}"


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
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _fmt_num(v):
    if v.imag == 0:
        return _fmt_real(v.real)
    if v.real == 0:
        return _fmt_real(v.imag) + "j"
    sign = "+" if v.imag >= 0 else "-"
    return f"({_fmt_real(v.real)}{sign}{_fmt_real(abs(v.imag))}j)"


_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 3, Pow: 4, Num: 5, Var: 5}


def pretty(node):
    """Canonical text form; parsing it back yields an equal AST."""
    return _render(node, 0)


def _render(node, parent):
    prec = _PREC[type(node)]
    if isinstance(node, Num):
        text = _fmt_num(node.value)
        if (node.value.real < 0 and node.value.imag == 0) and parent > 0:
            text = f"({text})"
        return text
    elif isinstance(node, Var):
        text = "s"
    elif isinstance(node, Neg):
        text = "-" + _render(node.operand, prec)
    elif isinstance(node, Add):
        text = f"{_render(node.left, prec)}+{_render(node.right, prec + 1)}"
    elif isinstance(node, Sub):
        text = f"{_render(node.left, prec)}-{_render(node.right, prec + 1)}"
    elif isinstance(node, Mul):
        text = f"{_render(node.left, prec)}*{_render(node.right, prec + 1)}"
    elif isinstance(node, Div):
        text = f"{_render(node.left, prec)}/{_render(node.right, prec + 1)}"
    else:  # Pow
        exp = _fmt_real(node.exponent)
        text = f"{_render(node.base, prec + 1)}^{exp}"
    if prec < parent:
        return f"({text})"
    return text
