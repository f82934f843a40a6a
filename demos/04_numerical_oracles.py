"""The independent oracles: contour quadrature and forward sums, and the z-transform.

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

# with z^-1 = 1 - s the forward series is the z-transform G of g(k) = f(k+1):
# f(k) = 3 (-1)^(k-1) - 2.5 (-1/2)^(k-1) here, and the z-transform table gives
# G(z) = 3 z/(z+1) - 2.5 z/(z+1/2), so the series must match G(1/(1-s))
def G(z):
    return 3 * z / (z + 1) - 2.5 * z / (z + 0.5)


residuals = [abs(forward_transform(seq, s) - G(1 / (1 - s))) for s in (0.6, 0.8, 1.1)]
print(f"forward series vs z-transform of f(k+1): {np.max(residuals):.2e}")
