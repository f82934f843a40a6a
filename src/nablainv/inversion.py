"""Inversion strategies: values from the series at s=1, closed forms from poles.

Two routes recover the causal sequence of a rational F(s):

* ``invert_inside`` sums the residue at the order-(k-a) pole the kernel
  (1-s)^(a-k) places at s = 1.  That residue is, up to the orientation sign,
  the coefficient of w^(k-a-1) in F(1-w), so the whole k-grid drops out of one
  power-series division -- no repeated differentiation.
* ``invert_partial_fractions`` is the table route: the terms of ``expand``,
  each the pair-table image of a partial fraction.  Summing residues at the
  finite poles of F gives, for a rational F, exactly these geometric and
  rising-factorial-times-geometric sequences, so ``invert_outside`` is the
  same function under its residue-calculus name.

Both wrap the expansion's terms in a symbolic ClosedFormSequence whose
``values`` is the sequence as a rule m -> f(a+m) on int step offsets, at one
step or on a whole grid at once; fractional-power sums go through
``invert_fractional`` instead, whose atoms are their own discrete
Mittag-Leffler terms.  ``first_out_of_range`` takes any route's rule, the
table's sequences included, with the transform's radius, and stops a
growing grid at its first value out of range.

Every term's value(m) takes the step offset m = k - a either as an int or as
an int ndarray, so one formula serves a single step and a whole grid.
"""

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .expansion import POWER_BLOCK, _num, complex_pair, expand
from .polynomial import conjugate_pairs
from .special import check_parameters, mittag_leffler_series, step_offset

# A cut's search costs 5-11 us a term (orders 1-3), about what evaluating
# the term on 500-1300 steps does (8-11 ns a step from float64 pow or the
# anchored tables, on a shared 2-core VM), and on a shorter grid most cuts lie
# past its end: a grid of fewer steps is evaluated in full.
CUT_MIN_STEPS = 1000
# a grid whose F has a radius R < 1 is evaluated first up to the step where
# R^-m, the growth of its w^m coefficients, has passed 2^1100
# (``first_out_of_range``)
OVERFLOW_LOG = 1100 * math.log(2)

__all__ = [
    "ClosedFormSequence",
    "FractionalAtom",
    "FractionalSumForm",
    "invert_inside",
    "invert_outside",
    "invert_partial_fractions",
    "invert_fractional",
    "first_out_of_range",
]


@dataclass(frozen=True)
class ClosedFormSequence:
    """A causal sequence written as a finite sum of symbolic terms.

    Defined on the index set {a+1, a+2, ...} where a is ``base_point``.
    ``values`` is the sequence as a rule m -> f(a+m), complex, on int step
    offsets; ``evaluate_complex`` is ``values`` at one step k, and
    ``evaluate`` its real part, taken with no test: whether F is real is
    decided once, from F (``is_real``), before any value is computed.  Values
    outside the float64 range come back as inf or nan, for the caller to
    reject.
    """

    base_point: float
    terms: tuple

    def values(self, m):
        """f(a+m), complex, at an int step offset m >= 1 or at every step of
        an int ndarray m of them; a step is a one-step grid.  Each term is
        evaluated once on the offsets and added in place, in order, to a sum
        that starts at +0.0 (which no addition turns into -0.0).

        On an ascending grid of at least CUT_MIN_STEPS steps a term is
        evaluated and added only on the steps before its ``zero_from``, where
        it would add a zero that leaves the sum as it is; the steps past every
        term's are +0.0.
        """
        if not isinstance(m, np.ndarray):
            return self.values(np.array([m]))[0]
        n = m.size
        live = [n] * len(self.terms)
        if n >= CUT_MIN_STEPS and (m[1:] >= m[:-1]).all():
            live = [n if t.zero_from is None else int(np.searchsorted(m, t.zero_from))
                    for t in self.terms]
        v = np.zeros(n, dtype=complex)
        # (1-p)^-m past the float64 range is inf; numpy flags that as an
        # overflow, or for a complex base as a division by zero
        with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
            for t, size in zip(self.terms, live):
                v[:size] += t.value(m[:size])
        return v

    def evaluate_complex(self, k):
        return complex(self.values(step_offset(k, self.base_point)))

    def evaluate(self, k):
        return self.evaluate_complex(k).real

    def describe(self):
        if not self.terms:
            return "0"
        return " + ".join(t.describe() for t in self.terms)

    def __str__(self):
        return f"f(k) = {self.describe()}  on k in {{a+1, a+2, ...}}, a = {self.base_point:g}"


def invert_inside(rf, k_max):
    """Values f(a+1)..f(a+k_max) via the residue at the contour's inner pole.

    The kernel (1-s)^(a-k) has an order-(k-a) pole at s = 1; the (negated)
    residue there equals the coefficient of w^(k-a-1) in F(1-w), so the values
    are exactly the leading series coefficients of F at s = 1, for any a
    (``RationalFunction.series_at_one``: the numerator's series divided by one
    shifted denominator factor at a time), float64 for a real F and complex
    otherwise.  Values below the smallest normal
    float are set to 0: the divisions cannot resolve them, and a decaying
    sequence stalls there instead of reaching 0.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    values = rf.series_at_one(k_max - 1)
    values[np.abs(values) < np.finfo(float).tiny] = 0
    return values


def first_out_of_range(radius, ms, rule):
    """``rule(ms)``, a route's values at the ascending int step offsets
    ``ms``; or its values on a prefix of the grid that already holds a value
    whose real part is outside the float64 range; or, when the grid starts
    past such a value, the one value inf, which stands for its first step.

    Every route's f(a+1+j) is the w^j coefficient of F(1 - w), which grows
    like R^-j for the transform's ``radius`` R (Cauchy-Hadamard).  Where
    R < 1, R^-m passes 2^1100, past float64 by 2^76, at m = 1100 ln 2 / -ln R.
    The steps up to there and one POWER_BLOCK more are evaluated first; if
    one of their values is not finite, those values are returned, else the
    whole grid's.  A grid of fewer than CUT_MIN_STEPS steps is evaluated
    whole, unless it starts past that step: then the rule is asked for that
    step alone first, and when its value is not finite neither is any later
    one (a binomial and a growing power only grow, and a series division or
    a cumprod carries an inf or a nan on), so the grid's first value is out
    of range.  A route whose cost is set by its last step (the series at
    s = 1, a Mittag-Leffler atom, a pair's cumprod) pays for that step.
    Every route's values are prefix-stable (a series coefficient does not
    depend on the division's order, and closed forms and pairs are evaluated
    step by step), so the first value out of range, at the same step, is the
    whole grid's.  A growth that starts late (a tiny residue) costs the
    prefix once more.  Overflow is flagged unless the caller's ``np.errstate``
    ignores it.
    """
    if len(ms) < CUT_MIN_STEPS and ms[0] <= POWER_BLOCK:  # before every overflow step
        return rule(ms)
    if radius < 1:
        top = OVERFLOW_LOG / -math.log(radius) + POWER_BLOCK
        if ms[0] > top and not np.isfinite(rule(np.array([int(top)])).real).all():
            return np.full(1, np.inf)
        n = int(np.searchsorted(ms, top, "right")) if len(ms) >= CUT_MIN_STEPS else 0
        if 0 < n < len(ms):
            head = rule(ms[:n])
            if not np.isfinite(head.real).all():
                return head
    return rule(ms)


def invert_partial_fractions(rf, a=0.0):
    """Closed form via partial fraction expansion and the pair table.

    This is also the closed form from the residues at the finite poles of F:
    a simple pole s_n with residue r_n contributes r_n/(1-s_n)^(k-a), and an
    order-N pole contributes its partial-fraction coefficients q_1..q_N mapped
    onto rising-factorial-times-geometric terms, the same decomposition the
    residue derivative formula produces.  Any polynomial (improper) part
    becomes impulses, which the finite-pole residues cannot see.
    """
    return ClosedFormSequence(float(a), expand(rf))


invert_outside = invert_partial_fractions


@dataclass(frozen=True)
class FractionalAtom:
    """coefficient * s^(alpha-beta) / (s^alpha - lam), alpha, beta > 0, |lam| < 1;
    as a term, coefficient * F_{alpha,beta}(lambda, k, a) (discrete Mittag-Leffler)."""

    coefficient: complex
    alpha: float
    beta: float
    lam: complex

    zero_from = None

    def __post_init__(self):
        check_parameters(self.alpha, self.beta, self.lam)

    def value(self, m):
        # the series is kept on the atom, read once (a concurrent regrowth
        # cannot shrink it) and regrown by doubling: a forward sum asks for one
        # block of steps at a time, which costs a small constant factor over
        # one call at the last step, not a division per block
        series, top = self.__dict__.get("_series", ()), int(np.max(m))
        if top > len(series):
            series = mittag_leffler_series(self.alpha, self.beta, self.lam,
                                           max(top, 2 * len(series)) - 1)
            object.__setattr__(self, "_series", series)
        return self.coefficient * series[np.asarray(m) - 1]

    def describe(self):
        return (
            f"{_num(self.coefficient)}*ML(alpha={self.alpha:g},beta={self.beta:g},"
            f"lambda={_num(self.lam)};k-a)"
        )

    def as_dict(self):
        return {"type": "mittag-leffler", "coefficient": complex_pair(self.coefficient),
                "alpha": self.alpha, "beta": self.beta, "lambda": complex_pair(self.lam)}

    def pole_distance(self):
        """|1 - s_0| for the root s_0 = |lam|^(1/alpha) e^{j arg(lam)/alpha} of
        s^alpha = lam; inf when s_0 is off the principal branch.

        The other roots, at angles (arg lam + 2 pi n)/alpha, n != 0, are on the
        principal branch when that angle is below pi, but it is never below
        |arg lam|/alpha, and at one modulus a larger angle lies farther from 1.
        """
        phi = cmath.phase(self.lam)
        if self.lam == 0 or abs(phi) >= self.alpha * math.pi:
            return math.inf
        return abs(1.0 - abs(self.lam) ** (1.0 / self.alpha) * cmath.exp(1j * phi / self.alpha))


def _power(log_abs, theta, g, out):
    """Write s^g = e^(g ln|s|) (cos g theta + j sin g theta) into ``out``, of
    g's shape, whose last axes, of length 1, stand for those of s.  r, the one
    temporary, keeps numpy's exp on contiguous memory; g theta goes in out: a
    second temporary made malloc fault 244 pages a call (3 atoms, 6432 points)."""
    re, im = out.real, out.imag
    r = g * log_abs
    np.exp(r, out=r)
    np.multiply(g, theta, out=re)
    np.sin(re, out=im)
    im *= r
    np.cos(re, out=re)
    re *= r


@dataclass(frozen=True)
class FractionalSumForm:
    """F(s) as a finite sum of fractional-power atoms."""

    atoms: tuple

    def evaluate(self, s):
        """F at a point s or at every point of an ndarray s.

        Every power comes from one ln|s| and one arg s, shared by all the
        atoms: s^g = e^(g ln|s|) (cos g theta + j sin g theta), the principal
        branch that ``s**g`` takes, at the cost of real exp, cos and sin
        instead of numpy's complex power.  One (exponents x points) pass
        computes every power but s^0 = 1 (alpha = beta), also at s = 0, where
        0^g = 0 for g > 0.  A scalar is that pass on a 0-d array, so it has
        the bits of a one-point ndarray; it and a 0-d ndarray give a Python
        complex, any other ndarray one of its shape.
        """
        ones, g, coefficients, lams, rows = self._arrays
        z = np.asarray(s, dtype=complex)
        size = np.abs(z)
        if np.count_nonzero(z) < z.size:  # ln 0 = -inf, without numpy's warning
            log_abs = np.log(size, out=np.full(z.shape, -np.inf), where=size > 0)
        else:
            log_abs = np.log(size)
        n = len(rows)
        p = np.empty((2 * n,) + z.shape, dtype=complex)
        if ones:
            p[:ones].fill(1)
        _power(log_abs, np.arctan2(z.imag, z.real), g[(...,) + (None,) * z.ndim], p[ones:])
        # with the atoms on the last axis, their coefficients and lambdas
        # broadcast; c * p, not p * c, which numpy may round otherwise
        num, den = p[:n].T, p[n:].T
        np.multiply(coefficients, num, out=num)
        den -= lams
        num /= den
        total = sum([p[i] for i in rows], 0j)
        return complex(total) if z.ndim == 0 else total

    @cached_property
    def _arrays(self):
        """(count of atoms with alpha = beta, exponents, coefficients, lambdas,
        rows): the atoms with alpha = beta first, the exponents those of the
        powers computed (each nonzero alpha - beta, then each alpha), and the
        row of each atom in that order, in the atoms' own order."""
        atoms = self.atoms
        order = sorted(range(len(atoms)), key=lambda i: atoms[i].alpha != atoms[i].beta)
        stored = [atoms[i] for i in order]
        ones = sum(a.alpha == a.beta for a in atoms)
        g = [a.alpha - a.beta for a in stored[ones:]] + [a.alpha for a in stored]
        return (ones, np.array(g, dtype=float),
                np.array([a.coefficient for a in stored], dtype=complex),
                np.array([a.lam for a in stored], dtype=complex),
                np.argsort(order).tolist())

    def __call__(self, s):
        return self.evaluate(s)

    pole_order = 1  # the roots of s^alpha = lam are simple

    @cached_property
    def is_real(self):
        """True when the atoms are closed under exact conjugation: each atom
        has a partner, itself when its coefficient and lam are real, with the
        same alpha and beta and the conjugate coefficient and lam
        (``conjugate_pairs``, with (alpha, beta) as the tag).  Then
        F(conj s) = conj F(s)."""
        keys = [((complex(a.coefficient), complex(a.lam)), (a.alpha, a.beta)) for a in self.atoms]
        keys = [(q, tag) for q, tag in keys if any(x.imag for x in q)]
        return len(keys) == 2 * len(conjugate_pairs(keys))

    @property
    def radius(self):
        """Radius of the disk around 1 out to the nearest singularity of F(1 - w).

        That is the nearest principal-branch root of some s^alpha = lam, or the
        branch point s = 0 at distance 1.
        """
        return min([1.0] + [a.pole_distance() for a in self.atoms])


def invert_fractional(form, a=0.0):
    """The closed form of a fractional sum: its atoms, each a term."""
    return ClosedFormSequence(float(a), form.atoms)
