"""Partial fraction expansion of rational F(s) over its complex poles, as the
closed-form terms its summands map onto: ImpulseTerm and PolyGeometricTerm."""

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NablaError, PoleAtOneError
from .polynomial import Polynomial, conjugate_pairs, series_divide
from .rational import POLE_AT_ONE_TOL

__all__ = ["ImpulseTerm", "PolyGeometricTerm", "check_first_step", "expand"]

# The closed form of a real F with a complex pole may miss F(1) by up to
# REALNESS_TOL times the largest of 1, |F(1)| and its terms' sizes at the
# first step (``check_first_step``).
REALNESS_TOL = 1e-9
# A decaying term whose exact magnitude is below 2^-1100, 2^25 under half the
# smallest subnormal, computes to exactly 0: the power (pow, or a complex
# pole's anchored power, whose partial powers are no smaller than the power
# itself), the binomial and the products are each within a few hundred ulps
# of exact.
ZERO_LOG = -1100 * math.log(2)
# No grid gains from a cut past 2^40 steps, and below it the float log-bound
# is exact to far less than the 2^25 margin.
CUT_CAP = 2**40
# A complex pole's power (1-p)^-e is the anchor (1-p)^-A, A the multiple of
# POWER_BLOCK at or below e, times the entry (1-p)^-(e-A) of a table cached
# on the term: one complex exponential a block of steps, not one a step.  A
# power of two, so that A and e - A are a shift and a mask.
POWER_BLOCK = 64
_BLOCK_BITS = POWER_BLOCK.bit_length() - 1
_TINY = np.finfo(float).tiny
# the exponents of the table entries, and the sign (-1)^x of a negative
# base's power by the parity of x
_ENTRY_EXPONENTS = -np.arange(POWER_BLOCK)
_PARITY_SIGNS = np.array([1.0, -1.0])
_ENTRY_EXPONENTS.flags.writeable = False
_PARITY_SIGNS.flags.writeable = False
# a complex base of modulus in [_SQUARED, 1/_SQUARED] has its table entries
# from numpy's power by squaring: no square of it leaves float64
_SQUARED = 2.0**-16


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
    """The first step offset m >= 1 from which the term
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
    m = max(1, math.ceil(n / log_r))
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


def _log_parts(z):
    """ln z, for a complex z != 0, as (head, rest, lo): head + rest is ln z
    rounded to double, each part of head and of rest with at most 26
    significant bits (Veltkamp's split), so that an integer of at most 26
    significant bits times either is exact (any below 2^26, and any multiple
    of POWER_BLOCK below 2^32); lo is the rest of ln z in the platform's long
    double (about 2^-64 relative where that has 64 bits, as on x86-64; 0
    where it is a double)."""
    log = np.log(np.clongdouble(z))
    hi = complex(log)
    c = 134217729.0 * hi  # 2^27 + 1
    head = c - (c - hi)
    return head, hi - head, complex(log - hi)


def _subnormal(x):
    """Where the entries of the ndarray x are nonzero subnormal floats (or
    complex numbers of such a modulus)."""
    size = np.abs(x)
    return (size < _TINY) & (size > 0)


def _real_power(base, normal, x):
    """base^x, for a real base, at every int x <= -1 of the ndarray x, where
    |base|^x is a normal float down to x = -normal: numpy's pow, within an
    ulp.

    numpy's vectorised pow takes a slow path, some 20 to 30 times the cost of
    a step, for a negative base and where its result is subnormal or 0.  So
    it raises |base| and negates the odd powers of a negative base, which is
    what pow gives; and an x below -normal it takes as
    |base|^-normal |base|^(x+normal), two normal powers whose product
    rounds once.
    """
    size = abs(base)
    deep = x < -normal if normal < math.inf else None
    if deep is not None and np.count_nonzero(deep):
        power = np.power(size, np.maximum(x, -normal))
        power[deep] *= np.power(size, x[deep] + normal)
    else:
        power = np.power(size, x)
    if base < 0:
        power *= _PARITY_SIGNS[x & 1]  # (-1)^x
    return power


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
        c, base = self.coefficient, 1.0 - self.pole
        if abs(base) <= POLE_AT_ONE_TOL:
            raise PoleAtOneError()
        if self.order < 1:
            raise ValueError("order must be >= 1")
        # (coefficient, base 1 - pole, normal): None for a complex pole; for
        # a real one the largest e at which |base|^-e is a normal float (inf
        # for |base| <= 1), with a step to spare for the logarithm's rounding,
        # and the base and a real coefficient as floats, so that the term is
        # float64 throughout
        normal = None
        if base.imag == 0:
            c, base = (c.real if c.imag == 0 else c), base.real
            size = abs(base)
            normal = math.inf if size <= 1 else int(1022 * math.log(2) / math.log(size)) - 1
        object.__setattr__(self, "_base", (c, base, normal))

    @cached_property
    def zero_from(self):
        return _zero_from(self.coefficient, 1.0 - self.pole, self.order)

    def value(self, m):
        """The term at an int step offset m >= 1 (a Python complex) or at
        every step of an int ndarray m, each value from its own step alone.

        rising(m, n-1)/(n-1)! = C(m+n-2, n-1) is a float running product of
        ratios, which overflows only where the binomial does (a rising
        factorial or (n-1)! overflows from n = 171 on); the power underflows
        to 0 where the sequence decays.  A real pole's power is ``_real_power``
        at every step, in float64; a complex pole's is ``_power``.
        """
        if not isinstance(m, np.ndarray):
            return complex(self.value(np.array([m]))[0])
        n = self.order
        binomial = 1.0
        for i in range(n - 1):
            binomial = binomial * (m + i) / (i + 1)
        coefficient, base, normal = self._base
        # the power's exponent is -(m + n - 1)
        if normal is None:
            power = self._power(m + (n - 1) if n > 1 else m)
        else:
            power = _real_power(base, normal, (1 - n) - m)
        # np.multiply, not *: numpy's * writes into a temporary array of 256
        # KiB or more in place, where a complex product rounds apart from
        # the out-of-place one (no fused multiply-add), so a value's bits
        # would hang on its grid's size
        return np.multiply(coefficient * binomial, power)

    def _entries(self, exponent):
        """(1-p)^x at every int -POWER_BLOCK < x <= 0 of the ndarray
        ``exponent``, for a complex pole.

        numpy's power, by repeated squaring below 100, within about
        2 log2(-x) ulps, where |1-p|^+-(POWER_BLOCK-1) stays inside float64;
        elsewhere a squaring could overflow where the power underflows, and
        ``_powers``.  No part of an entry is -0.0, so that the entry times
        the anchor 1 (+0j) is the entry itself.
        """
        base = self._base[1]
        if _SQUARED <= abs(base) <= 1 / _SQUARED:
            power = base**exponent
        else:
            power = self._powers(exponent * -1.0)
        power += 0.0
        return power

    @cached_property
    def _logs(self):
        """``_log_parts`` of 1 - p, for a complex pole."""
        return _log_parts(self._base[1])

    def _powers(self, x):
        """(1-p)^-x, for a complex pole, at every whole number x >= 0 of the
        float ndarray x: an anchor, or a power that an anchor below the
        normal floats cannot give.

        e^(-x ln(1-p)), with x ln(1-p) = x head + x rest + x lo (see
        ``_log_parts``) formed as s + t, s the rounded sum of the exact
        products x head and x rest and t its rounding error (Fast2Sum) plus
        x lo, as e^-s (1 - t).  What grows with x is then x times the error
        of the long-double logarithm, not x ulps.  The complex exponential
        forms |1-p|^-x and the unit factor apart, so no partial power leaves
        float64 where the power stays inside it.
        """
        head, rest, lo = self._logs
        a, b = x * head, x * rest
        s = a + b
        t = (a - s) + b + x * lo
        return np.multiply(np.exp(-s), 1 - t)  # not *: see ``value``

    @cached_property
    def _table(self):
        """The entries (1-p)^-j, j < POWER_BLOCK."""
        return self._entries(_ENTRY_EXPONENTS)

    def _power(self, e):
        """(1-p)^-e, for a complex pole, at every int e >= 1 of the ndarray e.

        Below POWER_BLOCK, the table entry (1-p)^-e.  From there, the entry
        (1-p)^-j for e = A + j times the anchor (1-p)^-A, A the multiple of
        POWER_BLOCK at or below e, exactly 1 at A = 0.  The anchors are made
        on each call, for the blocks from the grid's smallest step to its
        largest only, so a grid costs what its length and span cost, not
        what its k does.  An anchor lies between 1 and the power in
        magnitude, and an entry between 1 and (1-p)^-(POWER_BLOCK-1), so the
        product rounds once where the power is a normal float.  Below that
        an anchor is a subnormal that has lost bits, and a block whose
        anchor is one takes its powers directly from ``_powers``; an anchor
        past a growing term's float64 range is inf or nan, as its powers
        are.  Each anchor comes from its block alone, so a value has the
        same bits on any grid.
        """
        table = self._table
        try:
            return table[e]  # every e below POWER_BLOCK
        except IndexError:
            pass
        block = e >> _BLOCK_BITS
        first, last = int(block.min()), int(block.max())
        block -= first
        with np.errstate(over="ignore", invalid="ignore"):
            anchors = self._powers(np.arange(first, last + 1) * float(POWER_BLOCK))
        if first == 0:
            anchors[0] = 1
        power = np.multiply(table[e & (POWER_BLOCK - 1)], anchors[block])  # see ``value``
        # |anchor| falls (or rises) with the block: the end anchors say
        # whether any is subnormal
        if np.abs(anchors[[0, -1]]).min() < _TINY:
            redo = np.flatnonzero(_subnormal(anchors)[block])
            power[redo] = self._powers(e[redo] * 1.0)
        return power

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
    ``factor_roots``; ``conjugate_pairs`` finds those of one multiplicity),
    and only the upper member of each pair is computed: the lower one takes
    the conjugate coefficients, and a real pole real ones, so the closed form
    of a real F is real by construction; with a complex pole, a route that
    prints its values first checks them against F(1) (``check_first_step``).

    An improper rational is first divided once; the polynomial quotient is
    rewritten in powers of (1 - s), each power an impulse, since (1-s)^n is
    the transform of a delta at step n+1.  The residues use the
    full numerator: the quotient has no poles, so the remainder's residues
    are the same numbers.

    A pole whose leading coefficient g_0 computes to 0 or to a non-finite
    number while F is not 0 (the exact g_0 is then nonzero: F's zeros and
    poles are distinct) raises NablaError: dropping the term, or printing
    inf or nan from it, would make every value on the grid wrong; a pole at
    s = 1 raises PoleAtOneError (``RationalFunction.inferred_roc``).
    """
    rf.inferred_roc()  # PoleAtOneError for a pole at s = 1

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
    # conjugate poles of one multiplicity: compute the upper member of each
    # pair only, and conjugate it into the lower one
    real = rf.is_real
    pairs = conjugate_pairs([((rc.value,), rc.multiplicity) for rc in poles]) if real else ()
    # the index of each pair's lower member -> that of its upper one
    upper_of = dict(sorted(pair, key=lambda i: poles[i].value.imag) for pair in pairs)
    parts = {}
    for i, rc in enumerate(poles):
        if i in upper_of:
            continue
        g = _principal_part(c, zeros, poles, i)
        g0 = complex(g[0])
        if (g0 == 0 or not cmath.isfinite(g0)) and c != 0:
            raise NablaError(
                f"pole s = {_num(rc.value)}: its partial-fraction coefficient leaves the "
                f"float64 range (computed |g_0| = {abs(g0):g}); try --strategy inside")
        # + 0.0 turns a -0.0 part into 0.0, which prints as "0"
        parts[i] = (g.real if real and rc.value.imag == 0 else g) + 0.0
    for lower, upper in upper_of.items():
        parts[lower] = np.conj(parts[upper])

    # the simple poles, then the repeated ones, each group in pole order (a
    # stable sort); the order-n coefficient of an order-N pole is g_(N-n)
    terms = [PolyGeometricTerm(complex(parts[i][rc.multiplicity - n]), rc.value, n)
             for i, rc in sorted(enumerate(poles), key=lambda p: p[1].multiplicity > 1)
             for n in range(1, rc.multiplicity + 1)]
    return impulse + tuple(t for t in terms if t.coefficient != 0)


def check_first_step(rf, terms):
    """Raise NablaError when ``terms``, the expansion of a real F with a
    complex pole, miss F(1), the sequence's first value f(a+1), by more than
    REALNESS_TOL times the largest of 1, |F(1)| and their sizes at that
    step; a real F with real poles only passes unread.

    The routes that print a rational F's closed-form values ask this first.
    Taking each lower conjugate pole's coefficients as the conjugates of the
    upper one's makes the closed form real by construction, and the routes
    print the real part of their values with no further test, so an error
    in the residues shows nowhere else; yet close or high-order poles
    amplify the rounding of F's coefficients into their residues.  This
    reads the error at the first step, against F(1) from the factors'
    coefficients (``RationalFunction.evaluate``).  A term past the float64
    range there leaves the verdict to the range checks.  The forward sums
    take the terms unchecked: they show such an error themselves.
    """
    if not any(rc.value.imag for rc in rf._reduced.poles):
        return
    try:
        first = [t.coefficient / (1.0 - t.pole) ** t.order if isinstance(t, PolyGeometricTerm)
                 else t.coefficient * (t.shift == 0) for t in terms]
    except (OverflowError, ZeroDivisionError):
        return
    value, f1 = sum(first), rf.evaluate(1.0)
    if abs(value - f1) > REALNESS_TOL * max(1.0, abs(f1), *map(abs, first)):
        raise NablaError(
            f"the partial-fraction terms give f(a+1) = {value.real!r} where F(1) = "
            f"{f1.real!r}: its residues have lost their accuracy; try --strategy inside")


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
