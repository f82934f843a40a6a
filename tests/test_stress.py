"""Fixed-seed stress sweep: factored rationals with close, repeated and
conjugate poles, inverted by three independent routes.

Partial fractions (roots and residues), the series at s = 1 (per-factor
shifts and one division per denominator factor, no roots) and contour
quadrature (values of F only)
share no code past the parser.  Where residues are large against the
sequence, rounding in them does not cancel, so every bound is scaled by the
cancellation factor max|residue| / max|f| (at least 1).
"""

import numpy as np

from nablainv import (
    classify,
    expand,
    invert_inside,
    invert_partial_fractions,
    parse_expression,
)
from nablainv.verify import quadrature_grid

K = 40
CASES = 120
# times max|f| and the cancellation factor.  The series divides by one
# denominator factor at a time, so each rounding error travels along the
# impulse response of that factor alone: on this sweep it stays within
# 1.3e-13.  Dividing by the expanded denominator carried it along the
# response of 1/D, which grows with the closeness of D's poles, and reached
# 8e-11.  An expanded evaluation of F put quadrature 9e-11 off on the first
# case.
TOL_QUADRATURE = 1e-12
TOL_SERIES = 1e-12


def _lit(x):
    return f"({x!r})" if x < 0 else repr(x)


def _quadratic(a, b):
    """(s - a - bj)(s - a + bj) as text."""
    return f"(s^2-{_lit(2 * a)}*s+{_lit(a * a + b * b)})"


def _draw(rng):
    """Text of c * prod (s - z) / prod of 2-4 pole groups: a simple, repeated
    or close pair of real poles, or a simple, squared or close pair of
    conjugate pairs, every pole at least 0.4 from s = 1."""
    poles, den = [], []

    def admissible(z):
        return abs(1 - z) >= 0.4 and all(abs(z - p) >= 0.05 for p in poles)

    for _ in range(int(rng.integers(2, 5))):
        kind = rng.choice(["real", "repeated", "close", "pair", "pair2", "closepair"])
        conj = kind in ("pair", "pair2", "closepair")
        while True:
            a = float(np.round(rng.uniform(-2.5, 3.0), 3))
            b = float(np.round(rng.uniform(0.1, 1.5), 3)) if conj else 0.0
            if admissible(complex(a, b)):
                break
        gap = float(rng.choice([1e-2, 3e-3, 1e-3]))
        poles.append(complex(a, b))
        if kind == "real":
            den.append(f"(s-{_lit(a)})")
        elif kind == "repeated":
            den.append(f"(s-{_lit(a)})^{int(rng.integers(2, 4))}")
        elif kind == "close":
            den += [f"(s-{_lit(a)})", f"(s-{_lit(a + gap)})"]
        elif kind == "pair":
            den.append(_quadratic(a, b))
        elif kind == "pair2":
            den.append(_quadratic(a, b) + "^2")
        else:
            den += [_quadratic(a, b), _quadratic(a, b + gap)]
    zeros = "".join(f"*(s-{_lit(float(np.round(rng.uniform(-2, 2), 2)))})"
                    for _ in range(int(rng.integers(0, 3))))
    c = float(np.round(rng.uniform(0.5, 3.0), 2))
    return f"{c}{zeros}/({'*'.join(den)})"


def test_routes_agree_within_cancellation(rng):
    ks = np.arange(1, K + 1)
    for _ in range(CASES):
        text = _draw(rng)
        rf = classify(parse_expression(text)).rational
        pfe = expand(rf)
        residues = [abs(r) for _p, r in pfe.simple_terms]
        residues += [abs(q) for _p, _n, q in pfe.multiple_terms]
        f = invert_partial_fractions(rf).sample(ks)
        scale = np.max(np.abs(f))
        bound = scale * max(1.0, max(residues) / scale)
        quad = quadrature_grid(rf, K)
        assert np.max(np.abs(quad - f)) <= TOL_QUADRATURE * bound, text
        inside = invert_inside(rf, K)
        assert np.max(np.abs(inside - f)) <= TOL_SERIES * bound, text
