"""Inversion strategies: values from the series at s=1, closed forms from poles.

Three routes recover the causal sequence of a rational F(s):

* ``invert_inside`` sums the residue at the order-(k-a) pole the kernel
  (1-s)^(a-k) places at s = 1.  That residue is, up to the orientation sign,
  the coefficient of w^(k-a-1) in F(1-w), so the whole k-grid drops out of one
  power-series division -- no repeated differentiation.
* ``invert_partial_fractions`` is the table route: expand, then map each
  atom.  Summing residues at the finite poles of F gives, for a rational F,
  exactly this expansion mapped term by term onto geometric and
  rising-factorial-times-geometric sequences, so ``invert_outside`` is the
  same function under its residue-calculus name.

The closed-form routes produce a symbolic ClosedFormSequence, evaluable at
any causal step or on a whole step grid at once (``sample``); fractional-power
sums go through ``invert_fractional`` instead, whose atoms map onto discrete
Mittag-Leffler terms.

Every term's value(m) takes the step offset m = k - a either as an int or as
an int ndarray, so one formula serves a single step and a whole grid.
"""

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterDomainError, PoleAtOneError, RealnessError
from .expansion import expand
from .special import MittagLefflerParams, MittagLefflerSeries, step_offset

REALNESS_TOL = 1e-9
# the causes a failing realness test names
CONJUGATE_TERMS = "term set is not conjugate-consistent"
COMPLEX_F = "F(s) has complex coefficients"
POLE_ONE_GUARD = 1e-9

__all__ = [
    "ImpulseTerm",
    "GeometricTerm",
    "PolyGeometricTerm",
    "MittagLefflerTerm",
    "ClosedFormSequence",
    "FractionalAtom",
    "FractionalSumForm",
    "invert_inside",
    "invert_outside",
    "invert_partial_fractions",
    "invert_fractional",
]


def _num(x):
    x = complex(x)
    if x.imag == 0:
        return f"{x.real:g}" if x.real >= 0 else f"({x.real:g})"
    return f"({x.real:g}{x.imag:+g}j)"


@dataclass(frozen=True)
class ImpulseTerm:
    """coefficient * delta(k - a - 1 - shift)."""

    coefficient: complex
    shift: int

    def value(self, m):
        return np.where(m == self.shift + 1, self.coefficient, 0j)

    def describe(self):
        off = f"-{self.shift + 1}" if self.shift + 1 else ""
        return f"{_num(self.coefficient)}*delta(k-a{off})"


@dataclass(frozen=True)
class GeometricTerm:
    """coefficient * (1 - pole)^-(k-a); requires pole != 1."""

    coefficient: complex
    pole: complex

    def __post_init__(self):
        if abs(1.0 - self.pole) <= POLE_ONE_GUARD:
            raise PoleAtOneError()

    def value(self, m):
        return self.coefficient * (1.0 - self.pole) ** (-m)

    def describe(self):
        return f"{_num(self.coefficient)}*{_num(1 - self.pole)}^-(k-a)"


@dataclass(frozen=True)
class PolyGeometricTerm:
    """coefficient * rising(k-a, order-1) / ((order-1)! (1-pole)^(k-a+order-1))."""

    coefficient: complex
    pole: complex
    order: int

    def __post_init__(self):
        if abs(1.0 - self.pole) <= POLE_ONE_GUARD:
            raise PoleAtOneError()
        if self.order < 1:
            raise ValueError("order must be >= 1")

    def value(self, m):
        # the rising factorial m(m+1)...(m+n-2) in floats (an int64 product
        # would wrap); the negative power underflows to 0 where the sequence
        # decays instead of overflowing in a denominator
        n = self.order
        rising = 1.0
        for i in range(n - 1):
            rising = rising * (m + i)
        return (
            self.coefficient / math.factorial(n - 1)
            * rising
            * (1.0 - self.pole) ** -(m + n - 1)
        )

    def describe(self):
        n = self.order
        if n == 1:
            return f"{_num(self.coefficient)}*{_num(1 - self.pole)}^-(k-a)"
        return (
            f"{_num(self.coefficient)}*rising(k-a,{n - 1})"
            f"/({math.factorial(n - 1)}*{_num(1 - self.pole)}^(k-a+{n - 1}))"
        )


@dataclass(frozen=True)
class MittagLefflerTerm:
    """coefficient * F_{alpha,beta}(lambda, k, a) (discrete Mittag-Leffler)."""

    coefficient: complex
    params: MittagLefflerParams

    @cached_property
    def _series(self):
        # kept per term: a forward sum asks for one block of steps at a time
        return MittagLefflerSeries(self.params)

    def value(self, m):
        return self.coefficient * self._series(m)

    def describe(self):
        p = self.params
        return (
            f"{_num(self.coefficient)}*ML(alpha={p.alpha:g},beta={p.beta:g},"
            f"lambda={_num(p.lam)};k-a)"
        )


@dataclass(frozen=True)
class ClosedFormSequence:
    """A causal sequence written as a finite sum of symbolic terms.

    Defined on the index set {a+1, a+2, ...} where a is ``base_point``.
    ``values`` is the sequence as a rule m -> f(a+m), complex, on step
    offsets.  ``sample`` returns the real values on a grid of steps k and
    rejects a significant imaginary residue (conjugate terms of a real problem
    must cancel), naming ``cause``; ``evaluate`` is ``sample`` at one step,
    and ``evaluate_complex`` is ``values`` at one step.  Values outside the
    float64 range come back as inf or nan, for the caller to reject.
    """

    base_point: float
    terms: tuple
    cause: str = CONJUGATE_TERMS

    def values(self, m):
        """f(a+m), complex, at an int step offset m >= 1 or an int ndarray of them."""
        return sum((t.value(m) for t in self.terms), np.zeros(np.shape(m), dtype=complex))

    def evaluate_complex(self, k):
        return complex(self.values(step_offset(k, self.base_point)))

    def evaluate(self, k):
        return float(self.sample([k])[0])

    def sample(self, ks):
        """Real values at every step of ``ks``, each term evaluated once on the
        whole array of step offsets."""
        ks = ks if isinstance(ks, np.ndarray) else list(ks)
        offsets = np.asarray(ks, dtype=float) - self.base_point
        m = np.rint(offsets)
        bad = (np.abs(offsets - m) > 1e-9) | (m < 1)
        if bad.any():
            step_offset(ks[int(np.argmax(bad))], self.base_point)  # raises
        m = m.astype(np.int64)
        parts = np.empty((len(self.terms), m.size), dtype=complex)
        # (1-p)^-m past the float64 range is inf; numpy flags that as an
        # overflow, or for a complex base as a division by zero
        with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
            for row, t in zip(parts, self.terms):
                row[:] = t.value(m)
            v = parts.sum(axis=0)
            # conjugate terms cancel to rounding of the summands, which may
            # dwarf the sum itself (large residues at close conjugate poles)
            scale = np.maximum(np.abs(v.real), np.abs(parts).max(axis=0, initial=1.0))
            return real_values(v, ks, scale, self.cause)

    def describe(self):
        if not self.terms:
            return "0"
        return " + ".join(t.describe() for t in self.terms)

    def __str__(self):
        return f"f(k) = {self.describe()}  on k in {{a+1, a+2, ...}}, a = {self.base_point:g}"


def real_values(v, ks, scale, cause):
    """The real parts of the values v at the steps ks, after checking that no
    imaginary part exceeds REALNESS_TOL times ``scale`` (an array, one entry
    per step, or one number for the whole grid).

    Raises RealnessError naming the first step that fails, and ``cause``: a
    real sequence cannot come from this transform, and its real part alone is
    not the answer.
    """
    bad = np.abs(v.imag) > REALNESS_TOL * scale
    if bad.any():
        i = int(np.argmax(bad))
        raise RealnessError(f"imaginary residue {v.imag[i]:.3e} at k = {ks[i]}; {cause}")
    return v.real


def invert_inside(rf, k_max, a=0.0):
    """Values f(a+1)..f(a+k_max) via the residue at the contour's inner pole.

    The kernel (1-s)^(a-k) has an order-(k-a) pole at s = 1; the (negated)
    residue there equals the coefficient of w^(k-a-1) in F(1-w), so the values
    are exactly the leading series coefficients of F at s = 1
    (``RationalFunction.series_at_one``: the numerator's series divided by one
    shifted denominator factor at a time).  Values below the smallest normal
    float are set to 0: the divisions cannot resolve them, and a decaying
    sequence stalls there instead of reaching 0.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    values = rf.series_at_one(k_max - 1)
    values[np.abs(values) < np.finfo(float).tiny] = 0
    return values


def invert_partial_fractions(rf, a=0.0):
    """Closed form via partial fraction expansion and the pair table.

    This is also the closed form from the residues at the finite poles of F:
    a simple pole s_n with residue r_n contributes r_n/(1-s_n)^(k-a), and an
    order-N pole contributes its partial-fraction coefficients q_1..q_N mapped
    onto rising-factorial-times-geometric terms, the same decomposition the
    residue derivative formula produces.  Any polynomial (improper) part
    becomes impulses, which the finite-pole residues cannot see.
    """
    # a real F has a real closed form by construction, so the realness test
    # of ``sample`` can only fail for a complex one
    cause = CONJUGATE_TERMS if rf.is_real else COMPLEX_F
    return _sequence_from_expansion(expand(rf), a, cause)


invert_outside = invert_partial_fractions


def _sequence_from_expansion(pfe, a, cause):
    terms = []
    for n, c in pfe.impulse_part:
        terms.append(ImpulseTerm(c, n))
    for pole, r in pfe.simple_terms:
        terms.append(GeometricTerm(r, pole))
    for pole, order, q in pfe.multiple_terms:
        terms.append(PolyGeometricTerm(q, pole, order))
    return ClosedFormSequence(float(a), tuple(terms), cause)


@dataclass(frozen=True)
class FractionalAtom:
    """coefficient * s^(alpha-beta) / (s^alpha - lam), alpha, beta > 0, |lam| < 1."""

    coefficient: complex
    alpha: float
    beta: float
    lam: complex

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError("alpha and beta must be positive")
        if abs(self.lam) >= 1:
            raise ParameterDomainError(
                f"|lambda| = {abs(self.lam):g} >= 1 is outside the invertible range"
            )

    def evaluate(self, s):
        """The atom at a point s or at every point of an ndarray s.

        Both powers come from one ln|s| and one arg s: s^g = e^(g ln|s|)
        (cos g theta + j sin g theta), the principal branch that ``s**g``
        takes, at the cost of real exp, cos and sin instead of numpy's complex
        power.
        """
        s = np.asarray(s, dtype=complex)
        with np.errstate(divide="ignore"):  # s = 0: 0^g = 0 for g > 0
            log_abs = np.log(np.abs(s))
        theta = np.angle(s)
        return (self.coefficient * _power(log_abs, theta, self.alpha - self.beta)
                / (_power(log_abs, theta, self.alpha) - self.lam))

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


def _power(log_abs, theta, g):
    """s^g from ln|s| and arg s; exactly 1 for g = 0, as s**0 is."""
    if g == 0:
        return 1.0
    r = np.exp(g * log_abs)
    return r * np.cos(g * theta) + 1j * (r * np.sin(g * theta))


@dataclass(frozen=True)
class FractionalSumForm:
    """F(s) as a finite sum of fractional-power atoms."""

    atoms: tuple

    def evaluate(self, s):
        return sum((atom.evaluate(s) for atom in self.atoms), start=0j)

    def __call__(self, s):
        return self.evaluate(s)

    pole_order = 1  # the roots of s^alpha = lam are simple

    @property
    def radius(self):
        """Radius of the disk around 1 out to the nearest singularity of F(1 - w).

        That is the nearest principal-branch root of some s^alpha = lam, or the
        branch point s = 0 at distance 1.
        """
        return min([1.0] + [a.pole_distance() for a in self.atoms])


def invert_fractional(form, a=0.0):
    """One discrete Mittag-Leffler term per fractional atom."""
    terms = tuple(
        MittagLefflerTerm(
            atom.coefficient,
            MittagLefflerParams(atom.alpha, atom.beta, atom.lam, float(a)),
        )
        for atom in form.atoms
    )
    # the atoms of a real F come in exact conjugate pairs, whose series are
    # exact conjugates, so the realness test of ``sample`` can only fail for
    # a complex F
    return ClosedFormSequence(float(a), terms, COMPLEX_F)
