"""Partial fraction expansion of rational F(s) over its complex poles."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import PoleAtOneError
from .polynomial import Polynomial, series_divide

__all__ = ["PartialFractionExpansion", "expand"]


@dataclass(frozen=True)
class PartialFractionExpansion:
    """F(s) split into (1-s)-power, simple-pole, and repeated-pole parts.

    impulse_part    : tuple of (shift n, coefficient c) meaning c * (1-s)^n
    simple_terms    : tuple of (pole s_i, residue r_i) meaning r_i / (s - s_i)
    multiple_terms  : tuple of (pole lam, order i, q_i) meaning q_i / (s - lam)^i;
                      for each repeated pole all orders 1..N are present
                      (zero coefficients included).
    """

    impulse_part: tuple
    simple_terms: tuple
    multiple_terms: tuple

    def evaluate(self, s):
        """Reconstruct F(s) from the expansion terms."""
        s = complex(s)
        total = 0j
        for n, c in self.impulse_part:
            total += c * (1.0 - s) ** n
        for pole, r in self.simple_terms:
            total += r / (s - pole)
        for pole, order, q in self.multiple_terms:
            total += q / (s - pole) ** order
        return total


def expand(rf):
    """Partial fraction expansion of a rational function.

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
    rewritten in powers of (1 - s) and returned as the impulse part, since
    (1-s)^n is the transform of a delta at step n+1.  The residues use the
    full numerator: the quotient has no poles, so the remainder's residues
    are the same numbers.
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
            (n, complex(v)) for n, v in enumerate(in_w.coeffs) if v != 0
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
        # + 0.0 turns a -0.0 part into 0.0, which prints as "0"
        parts[i] = (g.real if real and rc.value.imag == 0 else g) + 0.0

    simple = []
    multiple = []
    for i, rc in enumerate(poles):
        lam, mult, g = rc.value, rc.multiplicity, parts[i]
        if mult == 1:
            simple.append((lam, complex(g[0])))
        else:
            for order in range(1, mult + 1):
                multiple.append((lam, order, complex(g[mult - order])))

    return PartialFractionExpansion(impulse, tuple(simple), tuple(multiple))


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
