"""Rational F(s) in factored form: poles, evaluation, series at s = 1, and its ROC radius."""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import PoleAtOneError, PoleEvaluationError
from .polynomial import (
    CLUSTER_SCALE,
    Polynomial,
    RootCluster,
    conjugate_pairs,
    conjugate_product,
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

    __slots__ = ("constant", "factors", "__dict__")

    def __init__(self, numerator, denominator):
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
        self._init(num.coeffs[-1] / den.coeffs[-1], factors)

    @classmethod
    def from_factors(cls, constant, factors):
        """constant * prod q^e over a mapping {monic Polynomial q: integer e}.

        Factors of degree 0 and zero exponents are not allowed; a zero
        constant makes F identically 0, whatever the factors.
        """
        for q, e in factors.items():
            if q.degree < 1 or q.coeffs[-1] != 1 or not isinstance(e, int) or e == 0:
                raise ValueError("factors must be monic, of degree >= 1, with "
                                 "nonzero integer exponents")
        rf = cls.__new__(cls)
        rf._init(constant, factors)
        return rf

    def _init(self, constant, factors):
        constant = complex(constant)
        pairs = tuple((q, e) for q, e in factors.items() if e) if constant else ()
        object.__setattr__(self, "constant", constant)
        object.__setattr__(self, "factors", pairs)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @cached_property
    def numerator(self):
        return Polynomial.product(((q, e) for q, e in self.factors if e > 0), self.constant)

    @cached_property
    def denominator(self):
        return Polynomial.product((q, -e) for q, e in self.factors if e < 0)

    @cached_property
    def is_real(self):
        """True when the constant and every factor have real coefficients,
        or when the constant is real and the reduced factors, each with its
        signed exponent, are closed under exact conjugation: s - p pairs with
        s - p-bar, and a real factor is its own partner.  Then F(conj s) =
        conj F(s), and its sequence is real.  The second test reads
        ``_reduced``, so that a pair which pooling merges, or cancels on one
        side only, leaves F complex.  The one realness decision: the CLI
        refuses to invert an F for which it is False."""
        if self.constant.imag == 0 and not any(
                x.imag for q, _e in self.factors for x in q.coeffs.tolist()):
            return True
        red = self._reduced
        if red.constant.imag:
            return False
        keys = [(q, sign * e) for side, sign in ((red.numerator, 1), (red.denominator, -1))
                for q, e in ((tuple(q.coeffs.tolist()), e) for q, e in side)
                if any(x.imag for x in q)]
        return len(keys) == 2 * len(conjugate_pairs(keys))

    @cached_property
    def _pooled(self):
        """(zeros, poles) before cancellation: each side's factor roots,
        multiplicities times the exponent, pooled by ``pool_roots``.  Returns
        the factors of each side too, as (q, exponent, roots of one copy)."""
        sides = []
        for sign in (1, -1):
            side = [(q, sign * e, factor_roots(q))
                    for q, e in self.factors if sign * e > 0]
            groups = [[RootCluster(rc.value, rc.multiplicity * e) for rc in roots]
                      for _q, e, roots in side]
            sides.append((side, pool_roots(groups)))
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
                if abs(n.value - d.value) <= CLUSTER_SCALE * (1.0 + abs(d.value)):
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
        |pole|), matching the clustering accuracy of the root finder; an
        exactly zero denominator raises PoleEvaluationError too.

        One body serves a point and an array: Horner's rule on coefficient
        lists built on the first call, and q^e as e - 1 multiplications, on
        Python complex numbers for a Python or numpy scalar and on ndarrays
        for an ndarray, whose shape the value keeps.  A scalar or a 0-d
        ndarray (read as one point of a 1-d one) gives a Python complex.  The
        two arithmetics round apart by at most 6e-15 relative on the stress
        sweep, and past the float64 range both read inf or nan.
        """
        constant, poles, num_factors, den_factors = self._horner
        scalar = isinstance(s, (int, float, complex))
        z = complex(s) if scalar else np.asarray(s, dtype=complex)
        if not scalar and z.ndim == 0:
            return complex(self.evaluate(z.reshape(1))[0])
        # np.any on a Python bool costs about what the whole scalar call does
        for p, radius in poles:
            near = abs(z - p) <= radius
            if near if scalar else np.any(near):
                raise PoleEvaluationError(p)
        # a constant F keeps an array's shape through its numerator
        num = _times_factors(constant if scalar else np.full(z.shape, constant), num_factors, z)
        den = _times_factors(1 + 0j, den_factors, z)
        zero = den == 0
        if zero if scalar else np.any(zero):
            raise PoleEvaluationError(np.ravel(z)[np.argmax(zero)])
        return num / den

    @cached_property
    def _horner(self):
        """The reduced F as Python numbers, for ``evaluate``: (constant,
        [(pole, near-pole radius)], numerator factors, denominator factors),
        each factor q^e as (its coefficients from the top down, range(e - 1))."""
        red = self._reduced
        poles = [(complex(rc.value), NEAR_POLE_TOL * (1.0 + abs(rc.value)))
                 for rc in red.poles]
        num, den = ([(q.coeffs[::-1].tolist(), range(e - 1)) for q, e in side]
                    for side in (red.numerator, red.denominator))
        return red.constant, poles, num, den

    def __call__(self, s):
        return self.evaluate(s)

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
        before F's own series does.  For a real F each exactly conjugate pair
        of denominator factors is one real factor in w.
        """
        red = self._reduced
        num = Polynomial([red.constant])
        for q, e in red.numerator:
            num = num * q.in_one_minus_w() ** e
        den = [(q.in_one_minus_w(), e, q) for q, e in red.denominator]
        if self.is_real:
            # each pair of conjugate factors as one real factor in w, in the
            # place of its first member (a real factor has no pair)
            keys = [(tuple(q.coeffs.tolist()), e) for q, e in red.denominator]
            for i, j in conjugate_pairs(keys):
                qw, e, q = den[i]
                den[i], den[j] = (Polynomial(conjugate_product(qw.coeffs.tolist())), e, q), None
            den = [f for f in den if f is not None]
        far_first = sorted(den, key=lambda f: -min(
            abs(1.0 - rc.value) for rc in factor_roots(f[2])))
        return num, tuple((q, e) for q, e, _ in far_first)

    def series_at_one(self, order):
        """Coefficients c_0..c_order of F(1 - w) = sum c_j w^j, which are
        f(a + 1 + j) for the causal sequence of F.

        The reduced factors are recentered at s = 1 - w one by one (see
        ``_at_one``), and the numerator's series is divided by one shifted
        denominator factor at a time, once per unit of its exponent, by
        ``series_divide``: in float64 for a real F (``is_real``), whose
        conjugate pairs of factors are one real quadratic each, and the
        coefficients are then float64; in complex128 otherwise.  Each
        division carries its rounding along the impulse response of that
        factor alone, where the expanded denominator would carry it along
        that of 1/D, which grows with the closeness of D's poles; and a
        cancelled pole-zero factor left in the denominator would feed the
        division a mode that the numerator only cancels in exact arithmetic,
        and rounding lets it grow.  A pole at s = 1 (``inferred_roc``), or a
        shifted factor with a constant term of exactly 0, raises PoleAtOneError.
        """
        if order < 0:
            raise ValueError("order must be >= 0")
        self.inferred_roc()  # PoleAtOneError for a pole at s = 1
        num_w, den_w = self._at_one
        if any(q.coeffs[0] == 0 for q, _e in den_w):
            raise PoleAtOneError()
        real, top = self.is_real, num_w.coeffs[: order + 1]
        c = np.concatenate((top.real if real else top, np.zeros(order + 1 - len(top))))
        for q, e in den_w:
            for _ in range(e):
                c = series_divide(c, q.coeffs.real if real else q.coeffs, order)
        return c

    def inferred_roc(self):
        """Radius of the largest disk around s = 1 free of poles (inf when
        pole-free).  The one test of a pole at s = 1, within POLE_AT_ONE_TOL:
        it raises PoleAtOneError, and ``series_at_one``, ``expansion.expand``
        and ``verify.initial_value`` ask it for that."""
        radius = min((abs(1.0 - p.value) for p in self.poles), default=math.inf)
        if radius <= POLE_AT_ONE_TOL:
            raise PoleAtOneError()
        return radius

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


def _times_factors(acc, factors, z):
    """acc * prod q(z)^e over (coefficients of q from the top down,
    range(e - 1)), for z a Python complex or an ndarray: Horner's rule for
    q(z), then e - 1 multiplications; an ndarray acc is multiplied in place."""
    for coeffs, more in factors:
        q = 0j
        for c in coeffs:
            q = q * z + c
        power = q
        for _ in more:
            power = power * q  # not *=, which would change q itself
        acc *= power
    return acc


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
