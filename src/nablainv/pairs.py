"""The sixteen tabulated sequence/transform pairs and the shape matcher.

Each registry row fixes concrete parameters and exposes the sequence (as a
rule m -> f(a+m) on an int or an int ndarray of step offsets m = k - a >= 1),
the transform F(s), the radius R of its region of convergence |1-s| < R, and
display text.  ``lookup`` recognizes parsed expressions that have one of the
tabulated shapes; the exponential and trigonometric rows reduce to rational
shapes in w = 1 - s and are matched by coefficient patterns, so inputs like the
damped-exponential row resolve to the geometric row that generates the same
sequence.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .inversion import FractionalAtom, FractionalSumForm, PolyGeometricTerm
from .polynomial import Polynomial
from .rational import describe_roc
from .special import MittagLefflerParams, MittagLefflerSeries, _binomial_series

__all__ = ["TransformPair", "pair", "reference_pairs", "lookup", "sample_points"]


@dataclass(frozen=True)
class TransformPair:
    row: int
    name: str
    params: tuple  # ((name, value), ...) in display order
    sequence: object  # rule m -> f(a+m) on an int or int ndarray, m >= 1
    transform: object  # callable s -> complex
    radius: float  # of the region of convergence |1-s| < radius; inf for all of C
    sequence_text: str
    transform_text: str
    pole_order: float = 1.0  # highest order of the singularities at the disk's edge

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("disk radius must be positive")

    def __call__(self, s):
        return self.transform(s)

    def describe(self):
        ps = ", ".join(f"{k}={_g(v)}" for k, v in self.params)
        head = f"row {self.row} ({self.name})" + (f" with {ps}" if ps else "")
        return (
            f"{head}: f(k) = {self.sequence_text}, F(s) = {self.transform_text}, "
            f"ROC {describe_roc(self.radius)}"
        )


def _g(v):
    # full-precision text so the display form reparses to the same pair
    v = complex(v)
    if v.imag == 0:
        r = v.real
        return str(int(r)) if r == int(r) and abs(r) < 1e15 else repr(r)
    # parenthesized, so the text stays one operand inside the display forms
    re, im = repr(v.real), repr(abs(v.imag))
    return f"({re}+{im}j)" if v.imag >= 0 else f"({re}-{im}j)"


def pair(row, **params):
    """Build registry row ``row`` with concrete parameters.

    Parameter names: gamma (rows 4, 6, 12), alpha (5, 6, 9, 10),
    beta (9), lam (7, 8, 9, 10, 11, 12), N (8), omega (13..16).
    """
    p = dict(params)

    def take(*names):
        missing = [n for n in names if n not in p]
        if missing or set(p) != set(names):
            raise ValueError(
                f"row {row} takes parameters {sorted(names)}, got {sorted(p)}"
            )
        return [p[n] for n in names]

    if row == 1:
        take()
        return TransformPair(
            1, "unit impulse", (),
            lambda m: np.where(m == 1, 1.0 + 0j, 0j),
            lambda s: 1.0 + 0j,
            math.inf,
            "delta(k-a-1)", "1",
        )
    if row == 2:
        take()
        return TransformPair(
            2, "unit step", (),
            lambda m: np.ones_like(m, dtype=complex),
            lambda s: 1.0 / s,
            1.0,
            "u(k-a-1)", "1/s",
        )
    if row == 3:
        take()
        return TransformPair(
            3, "ramp", (),
            lambda m: m + 0j,
            lambda s: 1.0 / s**2,
            1.0,
            "k-a", "1/s^2",
            pole_order=2,
        )
    if row == 4:
        (gamma,) = take("gamma")
        if gamma == 0:
            raise ValueError("row 4 needs gamma != 0")
        return TransformPair(
            4, "geometric", (("gamma", gamma),),
            lambda m: complex(gamma) ** (m - 1),
            lambda s: 1.0 / (1.0 - gamma + gamma * s),
            1.0 / abs(gamma),
            f"{_g(gamma)}^(k-a-1)", f"1/(1-{_g(gamma)}+{_g(gamma)}*s)",
        )
    if row == 5:
        (alpha,) = take("alpha")
        if alpha == int(alpha) and alpha < 0:
            raise ValueError("row 5 needs alpha outside the negative integers")
        return TransformPair(
            5, "rising power", (("alpha", alpha),),
            lambda m: _rising_power(alpha, m),
            lambda s: s ** -(alpha + 1.0),
            1.0,
            f"rising(k-a,{_g(alpha)})/gamma({_g(alpha + 1)})",
            f"1/s^{_g(alpha + 1)}",
            pole_order=max(1.0, alpha + 1.0),
        )
    if row == 6:
        gamma, alpha = take("gamma", "alpha")
        if gamma == 0:
            raise ValueError("row 6 needs gamma != 0")
        if alpha == int(alpha) and alpha < 0:
            raise ValueError("row 6 needs alpha outside the negative integers")
        return TransformPair(
            6, "geometric rising power", (("gamma", gamma), ("alpha", alpha)),
            lambda m: complex(gamma) ** (m - 1) * _rising_power(alpha, m),
            lambda s: (1.0 - gamma + gamma * s) ** -(alpha + 1.0),
            1.0 / abs(gamma),
            f"{_g(gamma)}^(k-a-1)*rising(k-a,{_g(alpha)})/gamma({_g(alpha + 1)})",
            f"1/(1-{_g(gamma)}+{_g(gamma)}*s)^{_g(alpha + 1)}",
            pole_order=max(1.0, alpha + 1.0),
        )
    if row == 7:
        (lam,) = take("lam")
        return TransformPair(
            7, "simple pole", (("lam", lam),),
            lambda m: (1.0 - lam) ** (-m),
            lambda s: 1.0 / (s - lam),
            abs(1.0 - lam),
            f"{_g(1 - lam)}^-(k-a)", f"1/(s-{_g(lam)})",
        )
    if row == 8:
        lam, N = take("lam", "N")
        if not (isinstance(N, int) and N >= 1):
            raise ValueError("row 8 needs integer N >= 1")
        return TransformPair(
            8, "repeated pole", (("lam", lam), ("N", N)),
            PolyGeometricTerm(1.0, lam, N).value,
            lambda s: (s - lam) ** (-N),
            min(abs(1.0 - lam), 1.0),
            f"rising(k-a,{N - 1})/({math.factorial(N - 1)}*{_g(1 - lam)}^(k-a+{N - 1}))",
            f"1/(s-{_g(lam)})^{N}",
            pole_order=N,
        )
    if row == 9:
        alpha, beta, lam = take("alpha", "beta", "lam")
        return TransformPair(
            9, "Mittag-Leffler", (("alpha", alpha), ("beta", beta), ("lam", lam)),
            MittagLefflerSeries(MittagLefflerParams(alpha, beta, lam)),
            lambda s: s ** (alpha - beta) / (s**alpha - lam),
            FractionalSumForm((FractionalAtom(1.0, alpha, beta, lam),)).radius,
            f"ML(alpha={_g(alpha)},beta={_g(beta)},lambda={_g(lam)};k,a)",
            f"s^{_g(alpha - beta)}/(s^{_g(alpha)}-{_g(lam)})",
        )
    if row == 10:
        alpha, lam = take("alpha", "lam")
        ml = MittagLefflerSeries(MittagLefflerParams(alpha, alpha, lam))
        return TransformPair(
            10, "weighted Mittag-Leffler", (("alpha", alpha), ("lam", lam)),
            lambda m: (m - 1) * ml(m),
            lambda s: alpha * s ** (alpha - 1.0) * (1.0 - s) / (s**alpha - lam) ** 2,
            FractionalSumForm((FractionalAtom(1.0, alpha, alpha, lam),)).radius,
            f"(k-a-1)*ML(alpha={_g(alpha)},beta={_g(alpha)},lambda={_g(lam)};k,a)",
            f"{_g(alpha)}*s^{_g(alpha - 1)}*(1-s)/(s^{_g(alpha)}-{_g(lam)})^2",
            pole_order=2,
        )
    if row == 11:
        (lam,) = take("lam")
        c = cmath.exp(-complex(lam))
        return TransformPair(
            11, "exponential", (("lam", lam),),
            lambda m: np.exp(-complex(lam) * (m - 1)),
            lambda s: 1.0 / (1.0 - c * (1.0 - s)),
            math.exp(lam),
            f"exp(-{_g(lam)}*(k-a-1))", f"1/(1-exp(-{_g(lam)})*(1-s))",
        )
    if row == 12:
        gamma, lam = take("gamma", "lam")
        if gamma == 0:
            raise ValueError("row 12 needs gamma != 0")
        c = gamma * cmath.exp(-complex(lam))
        return TransformPair(
            12, "damped exponential", (("gamma", gamma), ("lam", lam)),
            lambda m: complex(gamma) ** (m - 1) * np.exp(-complex(lam) * (m - 1)),
            lambda s: 1.0 / (1.0 - c * (1.0 - s)),
            math.exp(lam) / abs(gamma),
            f"{_g(gamma)}^(k-a-1)*exp(-{_g(lam)}*(k-a-1))",
            f"1/(1-{_g(gamma)}*exp(-{_g(lam)})*(1-s))",
        )
    if row in (13, 14, 15, 16):
        (omega,) = take("omega")
        if row in (13, 14):
            fn, cfn, name = np.sin, np.cos, ("sine", "cosine")
            disk = 1.0
        else:
            fn, cfn, name = np.sinh, np.cosh, ("hyperbolic sine", "hyperbolic cosine")
            disk = min(math.exp(omega), math.exp(-omega))
        A, B = float(fn(omega)), float(cfn(omega))

        def denom(s):
            w = 1.0 - s
            return 1.0 - 2.0 * B * w + w * w

        if row in (13, 15):
            return TransformPair(
                row, name[0], (("omega", omega),),
                lambda m: fn(omega * (m - 1)) + 0j,
                lambda s: A * (1.0 - s) / denom(s),
                disk,
                f"{'sin' if row == 13 else 'sinh'}({_g(omega)}*(k-a-1))",
                f"{'sin' if row == 13 else 'sinh'}({_g(omega)})*(1-s)"
                f"/(1-2*{'cos' if row == 13 else 'cosh'}({_g(omega)})*(1-s)+(1-s)^2)",
            )
        return TransformPair(
            row, name[1], (("omega", omega),),
            lambda m: cfn(omega * (m - 1)) + 0j,
            lambda s: (1.0 - B * (1.0 - s)) / denom(s),
            disk,
            f"{'cos' if row == 14 else 'cosh'}({_g(omega)}*(k-a-1))",
            f"(1-{'cos' if row == 14 else 'cosh'}({_g(omega)})*(1-s))"
            f"/(1-2*{'cos' if row == 14 else 'cosh'}({_g(omega)})*(1-s)+(1-s)^2)",
        )
    raise ValueError(f"no registry row {row}")


def _rising_power(alpha, m):
    """Gamma(m+alpha) / (Gamma(m) Gamma(alpha+1)) at the offsets m: the w^(m-1)
    coefficient of (1-w)^-(alpha+1), from its binomial recurrence."""
    return _binomial_series(-(alpha + 1.0), int(np.max(m)) - 1)[np.asarray(m) - 1]


def reference_pairs():
    """All sixteen rows at the standard desk-check parameters.

    Rows 7, 8 and 9 appear twice, once per lambda in {0.3, -0.5}.
    """
    omega = math.pi / 6
    out = [
        pair(1), pair(2), pair(3),
        pair(4, gamma=0.5),
        pair(5, alpha=0.5),
        pair(6, gamma=0.5, alpha=0.5),
        pair(7, lam=0.3), pair(7, lam=-0.5),
        pair(8, lam=0.3, N=2), pair(8, lam=-0.5, N=2),
        pair(9, alpha=0.5, beta=0.5, lam=0.3),
        pair(9, alpha=0.5, beta=0.5, lam=-0.5),
        pair(10, alpha=0.5, lam=0.3),
        pair(11, lam=0.3),
        pair(12, gamma=0.5, lam=0.3),
        pair(13, omega=omega), pair(14, omega=omega),
        pair(15, omega=omega), pair(16, omega=omega),
    ]
    return out


def sample_points(radius, count=8, fill=0.45):
    """``count`` points strictly inside the disk |1-s| < radius, biased toward
    s = 1 for fast decay.

    They sit on circles |1 - s| = r for r up to ``fill`` times the radius (1
    when the radius is inf), ten points per circle.
    """
    disk = 1.0 if radius == math.inf else radius
    points = []
    for frac in (1.0, 0.62, 0.3):
        r = fill * disk * frac
        for t in range(10):
            angle = 2.0 * math.pi * (t + 0.25) / 10
            points.append(1.0 - r * cmath.exp(1j * angle))
    if len(points) < count:
        raise ValueError(f"could not place {count} points inside {describe_roc(radius)}")
    return points[:count]


# --- Shape matching ---------------------------------------------------------


def lookup(expression):
    """Match an expression against the tabulated pair shapes.

    Accepts expression text or a parsed tree; returns a TransformPair with the
    recognized parameters, or None (no match is a valid empty result).  When
    several rows generate the same transform shape the lowest-numbered row is
    returned (the geometric row subsumes the exponential rows numerically).
    """
    from . import parsing

    ast = parsing.parse_expression(expression) if isinstance(expression, str) else expression
    cls = parsing.classify(ast)
    if cls.kind is parsing.Kind.RATIONAL:
        return _match_rational(cls.rational)
    if cls.kind is parsing.Kind.FRACTIONAL_SUM:
        return _match_fractional(cls.fractional)
    if cls.kind is parsing.Kind.TABLE_CANDIDATE:
        return _match_structural(ast)
    return None


def _close(a, b, tol):
    return abs(a - b) <= tol


def _match_rational(rf):
    num_w, den_factors = rf._at_one
    den_w = Polynomial.product(den_factors)
    d0 = den_w.coeffs[0]
    if d0 == 0:
        return None
    n = num_w.coeffs / d0
    d = den_w.coeffs / d0
    tol = 1e-9 * max(1.0, np.max(np.abs(n)), np.max(np.abs(d)))
    deg_n, deg_d = len(n) - 1, len(d) - 1

    if deg_n == 0 and deg_d == 0:
        return pair(1) if _close(n[0], 1.0, tol) else None
    if deg_n == 0 and deg_d == 1:
        if _close(n[0], 1.0, tol) and _close(d[1], -1.0, tol):
            return pair(2)
        if _close(n[0], 1.0, tol) and abs(d[1]) > tol:
            return pair(4, gamma=_clean(-d[1]))
        if _close(n[0], -d[1], tol) and abs(n[0]) > tol:
            return pair(7, lam=_clean(1.0 - 1.0 / n[0]))
        return None
    if deg_n == 0 and deg_d == 2 and _close(d[1], -2.0, tol) and _close(d[2], 1.0, tol):
        if _close(n[0], 1.0, tol):
            return pair(3)
    if deg_n == 0 and deg_d >= 2:
        N = deg_d
        b = d[1] / N
        if abs(b) > tol and all(
            _close(d[j], math.comb(N, j) * b**j, tol) for j in range(2, N + 1)
        ) and _close(n[0], (-b) ** N, tol):
            return pair(8, lam=_clean(1.0 + 1.0 / b), N=N)
    if deg_d == 2 and _close(d[2], 1.0, tol) and deg_n == 1:
        B = -d[1] / 2.0
        if abs(B.imag) > tol:
            return None
        B = B.real
        if _close(n[0], 0.0, tol):
            A = n[1]
            if abs(A.imag) <= tol:
                A = A.real
                if _close(A * A + B * B, 1.0, tol) and abs(B) <= 1.0 + tol:
                    return pair(13, omega=math.atan2(A, B))
                if _close(B * B - A * A, 1.0, tol) and B >= 1.0:
                    return pair(15, omega=math.asinh(A))
        if _close(n[0], 1.0, tol) and _close(n[1], -B, tol):
            if abs(B) <= 1.0:
                return pair(14, omega=math.acos(B))
            if B >= 1.0:
                return pair(16, omega=math.acosh(B))
    return None


def _snap(x):
    r = round(x, 12)
    return r if abs(x - r) <= 1e-12 * (1.0 + abs(x)) else x


def _clean(z):
    # matched parameters carry a few ulps of arithmetic dust; snap to the
    # nearest short decimal when it is indistinguishable at matcher tolerance
    z = complex(_snap(z.real if isinstance(z, complex) else float(z)),
                _snap(z.imag) if isinstance(z, complex) else 0.0)
    return z.real if z.imag == 0 else z


def _match_fractional(form):
    if len(form.atoms) != 1:
        return None
    atom = form.atoms[0]
    if abs(atom.coefficient - 1.0) > 1e-9:
        return None
    if atom.lam == 0:
        return pair(5, alpha=atom.beta - 1.0)
    return pair(9, alpha=atom.alpha, beta=atom.beta, lam=_clean(atom.lam))


def _match_structural(ast):
    from . import parsing

    fac = parsing.fraction_factors(ast)
    if fac is None:
        return None
    coef, num_f, den_f = fac

    # row 6: 1 / (linear in s with value 1 at s=1) ^ (alpha + 1), alpha + 1 > 0
    if not num_f and len(den_f) == 1:
        base, p = den_f[0]
        c = parsing.linear_coefficients(base)
        if c is not None and len(c) == 2 and p > 0:
            if abs(c[0] + c[1] - 1.0) <= 1e-9 and abs(coef - 1.0) <= 1e-9:
                return pair(6, gamma=_clean(c[1]), alpha=p - 1.0)

    # row 10: alpha * s^(alpha-1) * (1-s) / (s^alpha - lam)^2
    e_net = 0.0
    linear = []
    pole = None
    for base, p in num_f:
        a = parsing._power_of_s(base)
        if a is not None:
            e_net += a * p
            continue
        lin = parsing.linear_coefficients(base)
        if lin is not None and len(lin) == 2 and p == 1.0:
            linear.append(lin)
            continue
        return None
    for base, p in den_f:
        a = parsing._power_of_s(base)
        if a is not None:
            e_net -= a * p
            continue
        b = parsing._binomial_pole(base)
        if b is not None and p == 2.0 and pole is None:
            pole = b
            continue
        return None
    if pole is None or len(linear) != 1:
        return None
    alpha, lam, flip = pole
    c = linear[0]
    if not (abs(c[0] - 1.0) <= 1e-9 and abs(c[1] + 1.0) <= 1e-9):
        return None  # the linear factor must be 1 - s
    if abs(coef * flip - alpha) > 1e-9 or abs(e_net - (alpha - 1.0)) > 1e-9:
        return None
    if abs(lam) >= 1.0:
        return None
    return pair(10, alpha=alpha, lam=_clean(lam))
