"""Fractional-order transforms and the discrete Mittag-Leffler function.

F(s) = (0.2 s^0.2 - 0.3)/(s^1.2 - 0.2 s^0.7 - 0.3 s^0.5 + 0.06) has an
infinite family of poles on the principal branch, so residue summation at the
outer poles is hopeless.  Rewritten as a sum of fractional-power atoms,

    F(s) = 1/(s^0.5 - 0.2) - s^0.2/(s^0.7 - 0.3),

each atom maps onto a discrete Mittag-Leffler term, and the contour
quadrature oracle confirms the values.
"""

from nablainv import (
    MittagLefflerParams,
    classify,
    describe_roc,
    discrete_mittag_leffler,
    initial_value,
    invert_fractional,
    numeric_inverse,
    parse_expression,
)

decomposed = "1/(s^0.5-0.2) - s^0.2/(s^0.7-0.3)"
form = classify(parse_expression(decomposed)).fractional

print(f"F(s) = {decomposed}")
for atom in form.atoms:
    print(f"  atom: coeff {atom.coefficient:.3g}, alpha {atom.alpha:.3g}, "
          f"beta {atom.beta:.3g}, lambda {atom.lam:.3g}")
print(f"ROC: {describe_roc(form.radius)}")
print()

cf = invert_fractional(form)
print(f"f(k) = {cf.describe()}")
print()

# Cross-check against the single-expression form of the same function.
def combined(s):
    return (0.2 * s**0.2 - 0.3) / (s**1.2 - 0.2 * s**0.7 - 0.3 * s**0.5 + 0.06)

print(f"initial value from atoms    : {initial_value(form).real:.12f}")
print(f"initial value from combined : {initial_value(combined).real:.12f}")
print(f"first value of the sequence : {cf.evaluate(1):.12f}   (= 1/0.8 - 1/0.7)")
print()

print(f"{'k':>3} {'Mittag-Leffler form':>20} {'contour quadrature':>20} {'|diff|':>10}")
for m in range(1, 11):
    exact = cf.evaluate(m)
    quad = numeric_inverse(combined, m, rho=0.5, nodes=512).real
    print(f"{m:3d} {exact:20.12f} {quad:20.12f} {abs(exact - quad):10.2e}")

print()
print("the first atom alone, at increasing steps:")
p = MittagLefflerParams(0.5, 0.5, 0.2)
for m in (1, 2, 5, 10, 20):
    print(f"  ML(0.5, 0.5, 0.2; m={m:2d}) = {discrete_mittag_leffler(p, m).real:.10f}")
