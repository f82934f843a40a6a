"""Inverting a rational transform three ways.

F(s) = 9/((s+1)^2 (s-2)) with region of convergence |1-s| < 1 has a simple
pole at 2 and a double pole at -1.  The kernel (1-s)^(a-k) adds an
order-(k-a) pole at s = 1 inside the contour; summing the residue there is
the same thing as reading power-series coefficients of F at s = 1, while the
residues at the two outer poles give a closed form.  Both must agree with the
partial-fraction route through the pair table.
"""

import numpy as np

from nablainv import (
    expand,
    initial_value,
    invert_inside,
    invert_outside,
    invert_partial_fractions,
    numeric_inverse,
    parse_expression,
    classify,
    describe_roc,
)

expression = "9/((s+1)^2*(s-2))"
rf = classify(parse_expression(expression)).rational

print(f"F(s) = {expression}")
print(f"poles: {[(p.value, p.multiplicity) for p in rf.poles]}")
print(f"inferred ROC: {describe_roc(rf.inferred_roc())}")
print()

# Partial fractions: F = 1/(s-2) - 1/(s+1) - 3/(s+1)^2
# expand returns the closed-form terms themselves, one per partial fraction
print("partial fractions")
for term in expand(rf):
    print(f"  coefficient {term.coefficient:.6g} for 1/(s-({term.pole:.6g}))^{term.order}"
          f"  ->  {term.describe()}")
print()

# Route 1: series coefficients at s = 1 (the inner-pole residue).
values_inside = invert_inside(rf, 12).real

# Routes 2 and 3: closed forms from the outer poles / the pair table.
cf_outside = invert_outside(rf)
cf_table = invert_partial_fractions(rf)
print(f"closed form: f(k) = {cf_outside.describe()}")
print()

print(f"{'k':>3} {'series@1':>14} {'outer residues':>16} {'pair table':>14} {'quadrature':>14}")
for m in range(1, 13):
    q = numeric_inverse(rf, m).real
    print(f"{m:3d} {values_inside[m-1]:14.8f} {cf_outside.evaluate(m):16.8f} "
          f"{cf_table.evaluate(m):14.8f} {q:14.8f}")

print()
print(f"initial value  lim_(s->1) F(s) = {initial_value(rf).real:.8f}"
      f"  =  f(a+1) = {cf_outside.evaluate(1):.8f}")

# The closed form evaluates anywhere in the causal index set.
far = cf_outside.evaluate(200)
print(f"f(a+200) from the closed form: {far:.6e}")
assert np.isclose(far, (-1.0) ** 200 - 2.0 ** -200.0 - 3 * 200 * 2.0 ** -201.0)
