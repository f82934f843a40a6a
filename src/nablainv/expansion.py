"""Partial fraction expansion of rational F(s) over its complex poles, as the
closed-form terms its summands map onto: ImpulseTerm and PolyGeometricTerm."""

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NablaError, PoleAtOneError
from .polynomial import Polynomial, series_divide
from .rational import POLE_AT_ONE_TOL

__all__ = ["ImpulseTerm", "PolyGeometricTerm", "expand"]

# A decaying term whose exact magnitude is below 2^-1100, 2^25 under half the
# smallest subnormal, computes to exactly 0: numpy's power, the binomial and
# the products are each within a few hundred ulps of exact.
ZERO_LOG = -1100 * math.log(2)
# numpy raises a complex number to an integer power below 100 in magnitude by
# repeated squaring, which overflows to inf or nan where the exact reciprocal
# underflows; from 100 on it takes the C library's cpow, which gives 0.
SQUARING_POWERS = 100
# No grid gains from a cut past 2^40 steps, and below it the float log-bound
# is exact to far less than the 2^25 margin.
CUT_CAP = 2**40


def complex_pair(z):
    """[real, imag] of z, the JSON form of a complex number."""
    z = complex(z)
    return [z.real, z.imag]


def _num(x):
    x = complex(x)
    if x.imag == 0:
        return f"{x.real:g}" if x.real >= 0 else f"({x.real:g})"
    return f"({x.real:g}{x.imag:+g}j)"


def _zero_from(coefficient, base, order):
    """The first step offset m >= SQUARING_POWERS from which the term
    coefficient * rising(m, order-1) / ((order-1)! base^(m+order-1)) computes
    to exactly 0, its exact magnitude staying below 2^-1100; None when there
    is no such step below CUT_CAP.

    Every term has a ``zero_from``: None for an impulse and a fractional
    atom, and here for a growing term (|base| <= 1), a zero or non-finite
    coefficient, and one whose coefficient times binomial may overflow at
    some int64 step, since inf times the underflowed power is nan.
    """
    c, r, n = abs(coefficient), abs(base), order - 1
    if not (0 < c < math.inf and r > 1):
        return None
    log_c = math.log(c) - math.lgamma(order)
    if log_c + 63 * n * math.log(2) >= 1020 * math.log(2):
        return None
    log_r = math.log(r)

    def log_rising(m):
        return sum(math.log(m + i) for i in range(n))

    # The log-bound log_c + log_rising(m) - (m + n) log_r is concave in m and
    # falls from m = n / log_r on, where sum_i 1/(m+i) <= n/m = log_r.  From
    # there, m -> the step at which the linear part alone reaches ZERO_LOG
    # climbs to the first step below it.
    m = max(SQUARING_POWERS, math.ceil(n / log_r))
    while m <= CUT_CAP and log_c + log_rising(m) - (m + n) * log_r >= ZERO_LOG:
        m = max(m + 1, math.ceil((log_c + log_rising(m) - ZERO_LOG) / log_r) - n)
    return m if m <= CUT_CAP else None


@dataclass(frozen=True)
class ImpulseTerm:
    """coefficient * delta(k - a - 1 - shift)."""

    coefficient: complex
    shift: int

    zero_from = None

    def value(self, m):
        return np.where(m == self.shift + 1, self.coefficient, 0j)

    def describe(self):
        off = f"-{self.shift + 1}" if self.shift + 1 else ""
        return f"{_num(self.coefficient)}*delta(k-a{off})"

    def as_dict(self):
        return {"type": "impulse", "coefficient": complex_pair(self.coefficient),
                "shift": self.shift}


def _pole_text(base, order):
    """The sequence of an order-n pole p less its coefficient, base = 1 - p as
    text: base^-(k-a), or binomial(k-a+n-2,n-1)*base^-(k-a+n-1) from n = 2."""
    if order == 1:
        return f"{base}^-(k-a)"
    top = f"k-a+{order - 2}" if order > 2 else "k-a"
    return f"binomial({top},{order - 1})*{base}^-(k-a+{order - 1})"


@dataclass(frozen=True)
class PolyGeometricTerm:
    """coefficient * binomial(k-a+order-2, order-1) (1-pole)^-(k-a+order-1);
    at order 1, a simple pole's, coefficient * (1-pole)^-(k-a) ("geometric")."""

    coefficient: complex
    pole: complex
    order: int = 1

    def __post_init__(self):
        if abs(1.0 - self.pole) <= POLE_AT_ONE_TOL:
            raise PoleAtOneError()
        if self.order < 1:
            raise ValueError("order must be >= 1")

    @cached_property
    def zero_from(self):
        return _zero_from(self.coefficient, 1.0 - self.pole, self.order)

    def value(self, m):
        # rising(m, n-1)/(n-1)! = C(m+n-2, n-1) as a float running product of
        # ratios, which overflows only where the binomial does (a rising
        # factorial or (n-1)! overflows from n = 171 on); the negative power
        # underflows to 0 where the sequence decays instead of overflowing in
        # a denominator.  The exponent is one array operation, as -m at order 1.
        n = self.order
        binomial = 1.0
        for i in range(n - 1):
            binomial = binomial * (m + i) / (i + 1)
        return self.coefficient * binomial * (1.0 - self.pole) ** ((1 - n) - m)

    def describe(self):
        return f"{_num(self.coefficient)}*{_pole_text(_num(1 - self.pole), self.order)}"

    def as_dict(self):
        out = {"type": "geometric", "coefficient": complex_pair(self.coefficient),
               "pole": complex_pair(self.pole)}
        if self.order > 1:
            out.update(type="poly-geometric", order=self.order)
        return out


def expand(rf):
    """The partial fraction expansion of a rational function as its terms: the
    impulses, each simple pole, then each repeated pole at orders 1..N (poles
    in ``rf.poles`` order), less those whose coefficient is exactly 0.

    Everything comes from the roots of the reduced F = c * prod (s - z)^m(z)
    / prod (s - mu)^m(mu), each factor's roots taken on its own (see
    ``RationalFunction``).  A simple pole lam has the residue

        c * prod (lam - z)^m(z) / prod_{mu != lam} (lam - mu)^m(mu),

    a product of scalars.  For a pole of order N > 1, the coefficients q_i
    are the Taylor coefficients of the cancelled quotient (s - lam)^N F(s)
    around the pole (q_i is the coefficient of (s - lam)^(N-i)): the two root
    products are formed at t = s - lam, as prod (t + lam - z)^m, and divided
    as power series -- the same numbers as the repeated-differentiation limit
    formula, without numerical differentiation.

    The factors are shifted to t = s - lam before they are multiplied: an
    expanded product recentered at the pole, or an expanded denominator
    divided N times by (s - lam), keeps the rounding of the expansion, and
    the cancellation among large residues of nearby multiple poles magnifies
    it.

    For a real F the poles come in exact conjugate pairs (see
    ``factor_roots`` and ``roots_with_multiplicities``), and only the upper
    member of each pair is computed: the lower one takes the conjugate
    coefficients, and a real pole real ones, so the closed form of a real F
    is real by construction.

    An improper rational is first divided once; the polynomial quotient is
    rewritten in powers of (1 - s), each power an impulse, since (1-s)^n is
    the transform of a delta at step n+1.  The residues use the
    full numerator: the quotient has no poles, so the remainder's residues
    are the same numbers.

    A pole whose leading coefficient g_0 computes to 0 or to a non-finite
    number while F is not 0 (the exact g_0 is then nonzero: F's zeros and
    poles are distinct) raises NablaError: dropping the term, or printing
    inf or nan from it, would make every value on the grid wrong.
    """
    if rf.has_pole_at_one():
        raise PoleAtOneError()

    red = rf._reduced
    c, zeros, poles = red.constant, red.zeros, red.poles
    impulse = ()
    if c != 0 and sum(z.multiplicity for z in zeros) >= sum(p.multiplicity for p in poles):
        num, den = red.expanded()
        quotient, _ = num.divmod(den)
        in_w = quotient.in_one_minus_w()
        impulse = tuple(
            ImpulseTerm(complex(v), n) for n, v in enumerate(in_w.coeffs) if v != 0
        )

    # a real F has real residues at real poles and conjugate ones at
    # conjugate poles: compute the upper member of each pair only (it sorts
    # after the lower one, so the reversed pass meets it first)
    real = rf.is_real
    index = {rc.value: i for i, rc in enumerate(poles)}
    parts = {}
    for i in reversed(range(len(poles))):
        rc = poles[i]
        j = index.get(rc.value.conjugate()) if real and rc.value.imag < 0 else None
        if j is not None and poles[j].multiplicity == rc.multiplicity:
            parts[i] = np.conj(parts[j])
            continue
        g = _principal_part(c, zeros, poles, i)
        g0 = complex(g[0])
        if (g0 == 0 or not cmath.isfinite(g0)) and c != 0:
            raise NablaError(
                f"pole s = {_num(rc.value)}: its partial-fraction coefficient leaves the "
                f"float64 range (computed |g_0| = {abs(g0):g}); try --strategy inside")
        # + 0.0 turns a -0.0 part into 0.0, which prints as "0"
        parts[i] = (g.real if real and rc.value.imag == 0 else g) + 0.0

    # the simple poles, then the repeated ones, each group in pole order (a
    # stable sort); the order-n coefficient of an order-N pole is g_(N-n)
    terms = [PolyGeometricTerm(complex(parts[i][rc.multiplicity - n]), rc.value, n)
             for i, rc in sorted(enumerate(poles), key=lambda p: p[1].multiplicity > 1)
             for n in range(1, rc.multiplicity + 1)]
    return impulse + tuple(t for t in terms if t.coefficient != 0)


def _principal_part(c, zeros, poles, i):
    """Taylor coefficients g_0..g_(N-1) of (s - lam)^N F(s) at its order-N
    pole lam = poles[i], from the roots of F = c prod (s - z)^m / prod (s - mu)^m."""
    lam, mult = poles[i].value, poles[i].multiplicity
    others = [o for j, o in enumerate(poles) if j != i]
    if mult == 1:
        r = c * math.prod((lam - z.value) ** z.multiplicity for z in zeros)
        r /= math.prod((lam - o.value) ** o.multiplicity for o in others)
        return np.array([r])
    # the two root products at s = lam + t, divided as power series
    num_t = c * Polynomial.from_roots(
        [z.value - lam for z in zeros for _ in range(z.multiplicity)])
    den_t = Polynomial.from_roots(
        [o.value - lam for o in others for _ in range(o.multiplicity)])
    return series_divide(num_t, den_t, mult - 1)
