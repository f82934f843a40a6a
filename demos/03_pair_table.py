"""The sixteen tabulated pairs: round trips and shape recognition.

Every registry row carries a sequence, its transform, and the region of
convergence.  The forward series summed numerically must land back on F(s)
inside the region, and rendering each transform as text and looking it up
recovers the row (the exponential rows come back as the geometric row, which
generates the same sequence).
"""

from nablainv import lookup, reference_pairs, round_trip_error, sample_points

print(f"{'row':>4} {'name':<26} {'max rel err':>12}  matched")
for tp in reference_pairs():
    worst = round_trip_error(tp.sequence, tp.transform, sample_points(tp.radius, count=8))
    hit = lookup(tp.transform_text)
    matched = f"row {hit.row}" if hit else "-"
    print(f"{tp.row:4d} {tp.name:<26} {worst:12.2e}  {matched}")

print()
print("a closer look at one row:")
tp = reference_pairs()[3]  # geometric, gamma = 0.5
print(" ", tp.describe())

print()
print("lookups on free-form input:")
for text in ("1/(1-0.5+0.5*s)", "1/(s-0.3)^2", "1/(s^0.5-0.2)", "s^3+2"):
    hit = lookup(text)
    print(f"  {text:<22} -> {hit.describe() if hit else 'no match'}")
