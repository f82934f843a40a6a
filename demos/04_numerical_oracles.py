"""The independent oracles: contour quadrature, forward sums, index identity.

None of these know anything about residues or partial fractions; they only
evaluate F(s) or f(k) directly, which is what makes them useful as checks on
the analytic machinery.
"""

import numpy as np

from nablainv import (
    classify,
    forward_transform,
    invert_partial_fractions,
    numeric_inverse,
    orientation_check,
    parse_expression,
    z_correspondence,
)

# the impulse pair fixes the contour orientation; a flipped sign would fail
orientation_check()
print("orientation self-test: the impulse pair returns f(a+1) = 1")
print()

rf = classify(parse_expression("(2*s-1)/((s-2)*(s-3))")).rational
cf = invert_partial_fractions(rf)
print(f"F(s) = (2s-1)/((s-2)(s-3)),  f(k) = {cf.describe()}")
print()

# quadrature of the coefficient-extraction integral; the trapezoid rule on a
# periodic analytic integrand converges geometrically in the node count
print(f"{'nodes':>6} {'f(a+4) by quadrature':>24} {'error vs closed form':>22}")
exact = cf.evaluate(4)
for nodes in (16, 32, 64, 128, 256):
    q = numeric_inverse(rf, 4, rho=0.4, nodes=nodes).real
    print(f"{nodes:6d} {q:24.15f} {abs(q - exact):22.2e}")
print()

# forward sums: pushing the recovered sequence back through the series; the
# sum reads the closed form's values m -> f(a+m) in blocks of growing length
seq = cf.values
print(f"{'s':>12} {'series':>16} {'direct':>16} {'|diff|':>10}")
for s in (0.7, 0.9, 1.2, 1.0 + 0.3j):
    total = forward_transform(seq, s)
    direct = rf.evaluate(s)
    print(f"{s!s:>12} {total.real:16.10f} {direct.real:16.10f} {abs(total - direct):10.2e}")
print()

# the z-style sum over k >= 0 of (1-s)^k f(k+1+a) is the same series reindexed
residuals = [z_correspondence(seq, s) for s in (0.6, 0.8, 1.1)]
print(f"reindexing-identity residuals: {np.max(residuals):.2e} (identically zero up to rounding)")
