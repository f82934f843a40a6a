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

The value(m) of an impulse, geometric or poly-geometric term takes the step
offset m = k - a either as an int or as an int ndarray, so one formula serves
a single step and a whole grid.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError, PoleAtOneError, RealnessError
from .expansion import expand
from .rational import DiskAroundOne, OriginExclusion, Roc
from .special import (
    MittagLefflerParams,
    discrete_mittag_leffler,
    step_offset,
)

REALNESS_TOL = 1e-9
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

    def value(self, m):
        # one step offset at a time: the series is summed per step
        p = self.params
        return self.coefficient * discrete_mittag_leffler(
            MittagLefflerParams(p.alpha, p.beta, p.lam, 0.0), m
        )

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
    ``evaluate`` returns the real value at one step and ``sample`` the real
    values on a grid of steps; both reject a significant imaginary residue
    (conjugate terms of a real problem must cancel).  ``evaluate_complex``
    skips that check for genuinely complex data.  On a grid, values outside
    the float64 range come back as inf or nan, for the caller to reject.
    """

    base_point: float
    terms: tuple

    def evaluate_complex(self, k):
        m = step_offset(k, self.base_point)
        return complex(sum((t.value(m) for t in self.terms), start=0j))

    def evaluate(self, k):
        m = step_offset(k, self.base_point)
        parts = [complex(t.value(m)) for t in self.terms]
        v = sum(parts, start=0j)
        # conjugate terms cancel to rounding of the summands, which may dwarf
        # the sum itself (large residues at close conjugate poles)
        scale = max(1.0, abs(v.real), max((abs(p) for p in parts), default=0.0))
        if abs(v.imag) > REALNESS_TOL * scale:
            raise _not_real(v.imag, k)
        return v.real

    def sample(self, ks):
        """Real values at every step of ``ks``: ``evaluate`` over a grid, with
        each term evaluated once on the whole array of step offsets.

        A sum with Mittag-Leffler terms goes step by step instead: their
        series are summed per step anyway, and a realness failure then stops
        the grid at its step rather than after the last one.
        """
        ks = ks if isinstance(ks, np.ndarray) else list(ks)
        if any(isinstance(t, MittagLefflerTerm) for t in self.terms):
            return np.array([self.evaluate(k) for k in ks], dtype=float)
        offsets = np.asarray(ks, dtype=float) - self.base_point
        m = np.rint(offsets)
        bad = (np.abs(offsets - m) > 1e-9) | (m < 1)
        if bad.any():
            step_offset(ks[int(np.argmax(bad))], self.base_point)  # raises
        m = m.astype(np.int64)
        parts = np.empty((len(self.terms), m.size), dtype=complex)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            for row, t in zip(parts, self.terms):
                row[:] = t.value(m)
            v = parts.sum(axis=0)
            scale = np.maximum(np.abs(v.real), np.abs(parts).max(axis=0, initial=1.0))
            bad = np.abs(v.imag) > REALNESS_TOL * scale
        if bad.any():
            i = int(np.argmax(bad))
            raise _not_real(v.imag[i], ks[i])
        return v.real

    def describe(self):
        if not self.terms:
            return "0"
        return " + ".join(t.describe() for t in self.terms)

    def __str__(self):
        return f"f(k) = {self.describe()}  on k in {{a+1, a+2, ...}}, a = {self.base_point:g}"


def _not_real(imag, k):
    return RealnessError(
        f"imaginary residue {imag:.3e} at k = {k}; term set is not "
        "conjugate-consistent"
    )


def invert_inside(rf, k_max, a=0.0):
    """Values f(a+1)..f(a+k_max) via the residue at the contour's inner pole.

    The kernel (1-s)^(a-k) has an order-(k-a) pole at s = 1; the (negated)
    residue there equals the coefficient of w^(k-a-1) in F(1-w), so the values
    are exactly the leading series coefficients of F at s = 1.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    return rf.series_at_one(k_max - 1)


def invert_partial_fractions(rf, a=0.0):
    """Closed form via partial fraction expansion and the pair table.

    This is also the closed form from the residues at the finite poles of F:
    a simple pole s_n with residue r_n contributes r_n/(1-s_n)^(k-a), and an
    order-N pole contributes its partial-fraction coefficients q_1..q_N mapped
    onto rising-factorial-times-geometric terms, the same decomposition the
    residue derivative formula produces.  Any polynomial (improper) part
    becomes impulses, which the finite-pole residues cannot see.
    """
    return _sequence_from_expansion(expand(rf), a)


invert_outside = invert_partial_fractions


def _sequence_from_expansion(pfe, a):
    terms = []
    for n, c in pfe.impulse_part:
        terms.append(ImpulseTerm(c, n))
    for pole, r in pfe.simple_terms:
        terms.append(GeometricTerm(r, pole))
    for pole, order, q in pfe.multiple_terms:
        terms.append(PolyGeometricTerm(q, pole, order))
    return ClosedFormSequence(float(a), tuple(terms))


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
        s = complex(s)
        return self.coefficient * s ** (self.alpha - self.beta) / (s**self.alpha - self.lam)


@dataclass(frozen=True)
class FractionalSumForm:
    """F(s) as a finite sum of fractional-power atoms."""

    atoms: tuple

    def evaluate(self, s):
        return sum((atom.evaluate(s) for atom in self.atoms), start=0j)

    def __call__(self, s):
        return self.evaluate(s)

    def roc(self):
        """Unit disk around 1, punctured at the origin up to each pole radius.

        The principal-branch pole of s^alpha - lam sits at |s| = |lam|^(1/alpha),
        so |s| must exceed every such radius.
        """
        constraints = [DiskAroundOne(1.0)]
        for atom in self.atoms:
            if atom.lam != 0:
                constraints.append(OriginExclusion(abs(atom.lam) ** (1.0 / atom.alpha)))
        return Roc(tuple(constraints))


def invert_fractional(form, a=0.0):
    """One discrete Mittag-Leffler term per fractional atom."""
    terms = tuple(
        MittagLefflerTerm(
            atom.coefficient,
            MittagLefflerParams(atom.alpha, atom.beta, atom.lam, float(a)),
        )
        for atom in form.atoms
    )
    return ClosedFormSequence(float(a), terms)
