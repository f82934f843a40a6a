"""Rational F(s): normalization, poles, evaluation, series at s = 1, and the ROC model."""

from dataclasses import dataclass
from functools import cached_property

from .errors import PoleAtOneError, PoleEvaluationError
from .polynomial import (
    DEFAULT_CLUSTER_SCALE,
    Polynomial,
    RootCluster,
    roots_with_multiplicities,
    series_divide,
)

POLE_AT_ONE_TOL = 1e-9
NEAR_POLE_TOL = 1e-12

__all__ = [
    "RationalFunction",
    "Roc",
    "DiskAroundOne",
    "OriginExclusion",
    "FractionalDominance",
    "POLE_AT_ONE_TOL",
]


class RationalFunction:
    """A ratio of complex polynomials in s, stored with a monic denominator.

    Construction rescales numerator and denominator by the denominator's
    leading coefficient.  Values are immutable; ``poles`` and the series
    machinery are cached on first use.
    """

    __slots__ = ("numerator", "denominator", "cluster_scale", "__dict__")

    def __init__(self, numerator, denominator, cluster_scale=DEFAULT_CLUSTER_SCALE):
        num = numerator if isinstance(numerator, Polynomial) else Polynomial(numerator)
        den = (
            denominator
            if isinstance(denominator, Polynomial)
            else Polynomial(denominator)
        )
        if den.is_zero():
            raise ZeroDivisionError("denominator is identically zero")
        lead = den.coeffs[-1]
        object.__setattr__(self, "numerator", Polynomial(num.coeffs / lead))
        object.__setattr__(self, "denominator", Polynomial(den.coeffs / lead))
        object.__setattr__(self, "cluster_scale", cluster_scale)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def from_coeffs(cls, numerator, denominator):
        return cls(Polynomial(numerator), Polynomial(denominator))

    @cached_property
    def _denominator_roots(self):
        if self.denominator.degree < 1:
            return []
        return roots_with_multiplicities(self.denominator, self.cluster_scale)

    @cached_property
    def _reduced(self):
        """(numerator, denominator, poles) with common root factors deflated.

        Numerator and denominator roots matching within the clustering
        tolerance are treated as exact cancellations, each polynomial being
        deflated by its own polished root so no phantom poles survive.
        """
        num, den = self.numerator, self.denominator
        dens = self._denominator_roots
        if not dens or num.is_zero():
            return num, den, ([] if num.is_zero() else list(dens))
        nums = (
            roots_with_multiplicities(num, self.cluster_scale)
            if num.degree >= 1
            else []
        )
        remaining = [rc.multiplicity for rc in nums]
        poles = []
        for d in dens:
            mult = d.multiplicity
            for i, n in enumerate(nums):
                if remaining[i] <= 0:
                    continue
                if abs(n.value - d.value) <= self.cluster_scale * (1.0 + abs(d.value)):
                    cancel = min(mult, remaining[i])
                    for _ in range(cancel):
                        den = den.deflate(d.value)
                        num = num.deflate(n.value)
                    mult -= cancel
                    remaining[i] -= cancel
                    if mult == 0:
                        break
            if mult > 0:
                poles.append(RootCluster(d.value, mult))
        return num, den, poles

    @cached_property
    def poles(self):
        """Denominator roots minus numerator cancellations, as RootCluster list."""
        return self._reduced[2]

    def evaluate(self, s):
        """numerator(s)/denominator(s); raises near a denominator root.

        "Near" means within NEAR_POLE_TOL * (1 + |root|), matching the
        clustering accuracy of the root finder.
        """
        s = complex(s)
        for rc in self._denominator_roots:
            if abs(s - rc.value) <= NEAR_POLE_TOL * (1.0 + abs(rc.value)):
                raise PoleEvaluationError(rc.value)
        dv = self.denominator(s)
        if dv == 0:
            raise PoleEvaluationError(s)
        return self.numerator(s) / dv

    def __call__(self, s):
        return self.evaluate(s)

    def has_pole_at_one(self):
        return any(abs(p.value - 1.0) <= POLE_AT_ONE_TOL for p in self.poles)

    def distance_of_poles_to_one(self):
        """min |1 - pole|, or inf when there are no poles."""
        if not self.poles:
            return float("inf")
        return min(abs(1.0 - p.value) for p in self.poles)

    def series_at_one(self, order):
        """Coefficients c_0..c_order of F(1 - w) = sum c_j w^j.

        Both polynomials are recentered exactly at s = 1 - w (binomial
        expansion via polynomial composition) and then long-divided as power
        series, which is stable where repeated differentiation is not.  The
        coefficients satisfy c_j = f(a + 1 + j) for the causal sequence of F.

        The division runs on the reduced pair: a cancelled pole-zero factor
        left in the denominator would feed the recurrence a mode that the
        numerator only cancels in exact arithmetic, and rounding lets it grow.
        """
        if order < 0:
            raise ValueError("order must be >= 0")
        if self.has_pole_at_one():
            raise PoleAtOneError()
        num, den, _ = self._reduced
        num_w = num.in_one_minus_w()
        den_w = den.in_one_minus_w()
        if den_w.coeffs[0] == 0:
            raise PoleAtOneError()
        return series_divide(num_w, den_w, order)

    def inferred_roc(self):
        """Largest disk around s = 1 free of poles (all of C when pole-free)."""
        if self.has_pole_at_one():
            raise PoleAtOneError()
        dist = self.distance_of_poles_to_one()
        if dist == float("inf"):
            return Roc(())
        return Roc((DiskAroundOne(dist),))

    def __repr__(self):
        return (
            f"RationalFunction({list(self.numerator.coeffs)}, "
            f"{list(self.denominator.coeffs)})"
        )


def _fmt(x):
    if isinstance(x, complex) and x.imag == 0:
        x = x.real
    return f"{x:g}"


@dataclass(frozen=True)
class DiskAroundOne:
    """|1 - s| < radius."""

    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("disk radius must be positive")

    def contains(self, s):
        return abs(1.0 - s) < self.radius

    def describe(self):
        return f"|1-s| < {_fmt(self.radius)}"


@dataclass(frozen=True)
class OriginExclusion:
    """|s| > radius."""

    radius: float

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("exclusion radius must be nonnegative")

    def contains(self, s):
        return abs(s) > self.radius

    def describe(self):
        return f"|s| > {_fmt(self.radius)}"


@dataclass(frozen=True)
class FractionalDominance:
    """|lambda| < |s|^alpha."""

    alpha: float
    lam: complex

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")

    def contains(self, s):
        return abs(self.lam) < abs(s) ** self.alpha

    def describe(self):
        return f"{_fmt(abs(self.lam))} < |s|^{_fmt(self.alpha)}"


@dataclass(frozen=True)
class Roc:
    """Conjunction of primitive convergence constraints; empty means all of C."""

    constraints: tuple

    def contains(self, s):
        s = complex(s)
        return all(c.contains(s) for c in self.constraints)

    def disk_radius(self):
        """Radius of the binding disk-around-one constraint, or None."""
        radii = [c.radius for c in self.constraints if isinstance(c, DiskAroundOne)]
        return min(radii) if radii else None

    def describe(self):
        if not self.constraints:
            return "all s in C"
        return " and ".join(c.describe() for c in self.constraints)
