"""Rational F(s) in factored form: poles, evaluation, series at s = 1, and its ROC radius."""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import PoleAtOneError, PoleEvaluationError
from .polynomial import (
    DEFAULT_CLUSTER_SCALE,
    Polynomial,
    RootCluster,
    factor_divide,
    factor_roots,
    pool_roots,
    series_divide,
)

POLE_AT_ONE_TOL = 1e-9
NEAR_POLE_TOL = 1e-12

__all__ = ["RationalFunction", "describe_roc", "POLE_AT_ONE_TOL"]


def describe_roc(radius):
    """The region of convergence |1-s| < radius as text; all of C when radius is inf.

    Every transform here is a power series in w = 1 - s, so its region of
    convergence is a disk around s = 1 out to the nearest singularity.
    """
    return "all s in C" if radius == math.inf else f"|1-s| < {radius:g}"


@dataclass(frozen=True)
class _Reduced:
    """F after cancelling common numerator and denominator roots.

    F = constant * prod q^e over ``numerator`` / prod q^e over ``denominator``
    ((monic Polynomial, positive exponent) pairs), and ``zeros`` and ``poles``
    are the roots of those two products as pooled RootCluster lists.
    """

    constant: complex
    numerator: tuple
    denominator: tuple
    zeros: list
    poles: list

    def expanded(self):
        """(numerator, monic denominator), each product multiplied out."""
        return (Polynomial.product(self.numerator, self.constant),
                Polynomial.product(self.denominator))


class RationalFunction:
    """F(s) = constant * prod q(s)^e over monic factors q with signed integer
    exponents e (negative in the denominator).

    The factors are kept as written, so each one's roots come from its own
    coefficients: in closed form up to degree 2, by the eigen-solve of
    ``roots_with_multiplicities`` above.  ``numerator`` and ``denominator``
    (the latter monic) are the expanded products, built on first use; the
    program itself evaluates, expands and recenters F factor by factor.
    Values are immutable; ``poles`` and the series machinery are cached on
    first use.
    """

    __slots__ = ("constant", "factors", "cluster_scale", "__dict__")

    def __init__(self, numerator, denominator, cluster_scale=DEFAULT_CLUSTER_SCALE):
        num = numerator if isinstance(numerator, Polynomial) else Polynomial(numerator)
        den = (
            denominator
            if isinstance(denominator, Polynomial)
            else Polynomial(denominator)
        )
        if den.is_zero():
            raise ZeroDivisionError("denominator is identically zero")
        factors = {}
        if not num.is_zero():
            for poly, sign in ((num, 1), (den, -1)):
                if poly.degree > 0:
                    q = poly.monic()
                    factors[q] = factors.get(q, 0) + sign
        self._init(num.coeffs[-1] / den.coeffs[-1], factors, cluster_scale)

    @classmethod
    def from_factors(cls, constant, factors, cluster_scale=DEFAULT_CLUSTER_SCALE):
        """constant * prod q^e over a mapping {monic Polynomial q: integer e}.

        Factors of degree 0 and zero exponents are not allowed; a zero
        constant makes F identically 0, whatever the factors.
        """
        for q, e in factors.items():
            if q.degree < 1 or q.coeffs[-1] != 1 or not isinstance(e, int) or e == 0:
                raise ValueError("factors must be monic, of degree >= 1, with "
                                 "nonzero integer exponents")
        rf = cls.__new__(cls)
        rf._init(constant, factors, cluster_scale)
        return rf

    def _init(self, constant, factors, cluster_scale):
        constant = complex(constant)
        pairs = tuple((q, e) for q, e in factors.items() if e) if constant else ()
        object.__setattr__(self, "constant", constant)
        object.__setattr__(self, "factors", pairs)
        object.__setattr__(self, "cluster_scale", cluster_scale)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @cached_property
    def numerator(self):
        return Polynomial.product(((q, e) for q, e in self.factors if e > 0), self.constant)

    @cached_property
    def denominator(self):
        return Polynomial.product((q, -e) for q, e in self.factors if e < 0)

    @property
    def is_real(self):
        """True when the constant and every factor have real coefficients."""
        return self.constant.imag == 0 and not any(
            np.any(q.coeffs.imag) for q, _e in self.factors)

    @cached_property
    def _pooled(self):
        """(zeros, poles) before cancellation: each side's factor roots,
        multiplicities times the exponent, pooled by ``pool_roots``.  Returns
        the factors of each side too, as (q, exponent, roots of one copy)."""
        sides = []
        for sign in (1, -1):
            side = [(q, sign * e, factor_roots(q, self.cluster_scale))
                    for q, e in self.factors if sign * e > 0]
            groups = [[RootCluster(rc.value, rc.multiplicity * e) for rc in roots]
                      for _q, e, roots in side]
            sides.append((side, pool_roots(groups, self.cluster_scale)))
        return sides

    @cached_property
    def _reduced(self):
        """F with common numerator and denominator roots cancelled (a _Reduced).

        Numerator and denominator roots matching within the clustering
        tolerance are treated as exact cancellations.  Only the factors that
        carry them are deflated, each by its own root, so no phantom poles
        survive and every other factor keeps the coefficients it was given.
        """
        (num_side, zeros), (den_side, poles) = self._pooled
        num_cut = [dict() for _ in num_side]  # per factor: root value -> units cancelled
        den_cut = [dict() for _ in den_side]
        remaining = [rc.multiplicity for rc, _members in zeros]
        kept_poles = []
        for d, d_members in poles:
            mult = d.multiplicity
            for i, (n, n_members) in enumerate(zeros):
                if remaining[i] <= 0:
                    continue
                if abs(n.value - d.value) <= self.cluster_scale * (1.0 + abs(d.value)):
                    cancel = min(mult, remaining[i])
                    _take(den_cut, d_members, d.multiplicity - mult, cancel)
                    _take(num_cut, n_members, n.multiplicity - remaining[i], cancel)
                    mult -= cancel
                    remaining[i] -= cancel
                    if mult == 0:
                        break
            if mult > 0:
                kept_poles.append(RootCluster(d.value, mult))
        kept_zeros = [RootCluster(n.value, r) for (n, _m), r in zip(zeros, remaining) if r > 0]
        return _Reduced(
            self.constant,
            _deflated(num_side, num_cut),
            _deflated(den_side, den_cut),
            kept_zeros,
            kept_poles,
        )

    @cached_property
    def poles(self):
        """Denominator roots minus numerator cancellations, as RootCluster list."""
        return self._reduced.poles

    def evaluate(self, s):
        """F at a point s, or at every point of an ndarray s; raises near a pole.

        The reduced factors are evaluated one by one, c * prod q(s)^e: near
        close poles that keeps the accuracy the expanded numerator and
        denominator lose.  "Near" a pole means within NEAR_POLE_TOL * (1 +
        |pole|), matching the clustering accuracy of the root finder.
        """
        red = self._reduced
        z = np.asarray(s, dtype=complex)
        for rc in red.poles:
            if np.any(np.abs(z - rc.value) <= NEAR_POLE_TOL * (1.0 + abs(rc.value))):
                raise PoleEvaluationError(rc.value)
        num = np.full(z.shape, red.constant)
        den = np.ones(z.shape, dtype=complex)
        for q, e in red.numerator:
            num = num * q(z) ** e
        for q, e in red.denominator:
            den = den * q(z) ** e
        if np.any(den == 0):
            raise PoleEvaluationError(z.flat[int(np.argmax(den.ravel() == 0))])
        v = num / den
        return complex(v) if v.ndim == 0 else v

    def __call__(self, s):
        return self.evaluate(s)

    def has_pole_at_one(self):
        return any(abs(p.value - 1.0) <= POLE_AT_ONE_TOL for p in self.poles)

    def distance_of_poles_to_one(self):
        """min |1 - pole|, or inf when there are no poles."""
        if not self.poles:
            return float("inf")
        return min(abs(1.0 - p.value) for p in self.poles)

    @cached_property
    def _at_one(self):
        """The reduced F(1 - w) as (numerator, denominator factors): the
        numerator a polynomial in w, and the denominator as (polynomial in w,
        exponent) pairs, one per reduced factor, the factor whose poles lie
        farthest from s = 1 first.

        Each kept factor is recentered at s = 1 on its own (an exact binomial
        shift of its coefficients), and the numerator's shifted factors are
        multiplied: rebuilding a factor from its roots, or recentering an
        expanded product, would carry the roots' error into every coefficient.
        Dividing by the far factors first lets the series shrink before the
        near ones make it grow, so a partial quotient does not overflow steps
        before F's own series does.
        """
        red = self._reduced
        num = Polynomial([red.constant])
        for q, e in red.numerator:
            num = num * q.in_one_minus_w() ** e
        far_first = sorted(red.denominator, key=lambda f: -min(
            abs(1.0 - rc.value) for rc in factor_roots(f[0], self.cluster_scale)))
        return num, tuple((q.in_one_minus_w(), e) for q, e in far_first)

    def series_at_one(self, order):
        """Coefficients c_0..c_order of F(1 - w) = sum c_j w^j.

        The factors are recentered at s = 1 - w one by one (see ``_at_one``).
        The numerator's series is then divided by one shifted denominator
        factor at a time, once per unit of its exponent: ``factor_divide`` for
        a factor of degree 1 or 2, ``series_divide`` above.  Each division
        carries its rounding along the impulse response of that factor alone;
        dividing by the expanded denominator would carry it along the response
        of 1/D, which grows with the closeness of D's poles.  This is stable
        where repeated differentiation is not, and the coefficients satisfy
        c_j = f(a + 1 + j) for the causal sequence of F.

        The division runs on the reduced factors: a cancelled pole-zero factor
        left in the denominator would feed the division a mode that the
        numerator only cancels in exact arithmetic, and rounding lets it grow.
        """
        if order < 0:
            raise ValueError("order must be >= 0")
        if self.has_pole_at_one():
            raise PoleAtOneError()
        num_w, den_w = self._at_one
        if any(q.coeffs[0] == 0 for q, _e in den_w):
            raise PoleAtOneError()
        real = self.is_real
        c = np.zeros(order + 1, dtype=float if real else complex)
        top = num_w.coeffs[: order + 1]
        c[: len(top)] = top.real if real else top
        for q, e in den_w:
            for _ in range(e):
                if q.degree > 2:
                    c = series_divide(c, q, order)
                else:
                    c = factor_divide(c, q.coeffs.real if real else q.coeffs)
        return c.astype(complex)

    def inferred_roc(self):
        """Radius of the largest disk around s = 1 free of poles (inf when
        pole-free)."""
        if self.has_pole_at_one():
            raise PoleAtOneError()
        return self.distance_of_poles_to_one()

    @property
    def radius(self):
        return self.inferred_roc()

    @property
    def pole_order(self):
        """The highest pole multiplicity, 1 when there are no poles."""
        return max((c.multiplicity for c in self.poles), default=1)

    def __repr__(self):
        return (
            f"RationalFunction({list(self.numerator.coeffs)}, "
            f"{list(self.denominator.coeffs)})"
        )


def _take(cuts, members, used, count):
    """Record ``count`` more cancelled units of a pooled cluster against the
    factors it came from, skipping the first ``used`` units already taken."""
    for i, rc in members:
        skip = min(used, rc.multiplicity)
        used -= skip
        n = min(count, rc.multiplicity - skip)
        if n:
            cuts[i][rc.value] = cuts[i].get(rc.value, 0) + n
            count -= n
        if not count:
            return


def _deflated(side, cuts):
    """The (q, e) factors of one side with the cancelled roots divided out.

    A factor q^e that loses roots keeps its untouched copies as q^(e-j) and
    contributes each of the j copies it had to open, deflated by the roots
    taken from that copy; a copy deflated to a constant disappears (it is
    monic, so the constant is 1).
    """
    out = []
    for (q, e, roots), cut in zip(side, cuts):
        left = dict(cut)
        opened = []
        while any(left.values()):
            copy = q
            for rc in roots:
                for _ in range(min(rc.multiplicity, left.get(rc.value, 0))):
                    copy = copy.deflate(rc.value)
                    left[rc.value] -= 1
            opened.append(copy)
        if e > len(opened):
            out.append((q, e - len(opened)))
        out.extend((copy, 1) for copy in opened if copy.degree > 0)
    return tuple(out)
