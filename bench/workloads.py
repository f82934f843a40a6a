"""Seeded request generators for the four benchmark workloads.

A request is a JSON-able dict:

    argv   the nablainv command line, the only thing the program sees
    K      grid length (values asked for, or k-points a verify checks)
    size   input size: denominator degree, or number of fractional atoms
    shape  input class within the workload (for the failure census)
    ref    how ``reference.values`` computes the expected grid

The expression goes in as ``--expr=TEXT`` because a leading minus sign would
otherwise read as an option.  Every number in an expression is a short
decimal, and the reference reads the same decimals, so it describes exactly
the printed input.

Requests come in blocks, and each block has a fixed *design*: the
properties that set a request's cost and its failure modes (K, strategy,
format, degree, input shape; in the workloads of about a hundred requests
also pole structure and placement, alpha, beta and |lambda|, from a
Latin-hypercube design) are the same for every seed, so that a run's mix
does not swing its latency percentiles.  The seed draws the remaining values
(residues and coefficients, pole positions where cost does not depend on
them; in ``verify`` one scale factor per request) and the order of requests
in each block.
"""

import itertools
import math
import random
from fractions import Fraction

from reference import poly_mul, poly_pow

# Poles closer than this to each other, or to s = 1, are not drawn: the
# benchmark measures well-posed inputs, not root-finding on near-collisions.
POLE_GAP = 0.15
ONE_GAP = 0.2
FORMATS = ("text", "csv", "json")
# Largest K per kind of request.  In the invert workloads every request at
# the seed finishes in well under half the 1 s deadline: one near the deadline
# meets it or not with the machine's phase, and then a seed's failure count
# would not repeat.  (In verify the requests near the deadline fail either way.)
LONG_K = {"auto": 40_000, "inside": 15_000}
FRACTIONAL_K = 50
EXACT_K = 30  # integer-order atoms and --strategy fractional: exact Fractions


def d2(x):
    """A float as a two-decimal literal."""
    text = f"{x:.2f}"
    return "0.00" if text == "-0.00" else text


def cd2(z):
    return f"({d2(z.real)}{'+' if z.imag >= 0 else '-'}{d2(abs(z.imag))}j)"


def draw(rng, lo, hi):
    return round(rng.uniform(lo, hi), 2)


def signed(rng, lo, hi):
    return draw(rng, lo, hi) * rng.choice((-1, 1))


def exact(fr):
    """Decimal text of a Fraction whose denominator divides a power of ten."""
    fr = Fraction(fr)
    digits = 0
    while (fr * 10**digits).denominator != 1:
        digits += 1
    n = int(fr * 10**digits)
    sign, n = ("-" if n < 0 else ""), abs(n)
    if digits == 0:
        return f"{sign}{n}"
    return f"{sign}{n // 10**digits}.{n % 10**digits:0{digits}d}"


def grid(rng, n, lo, hi, log=False):
    """Midpoints of n equal slices of [lo, hi] (log scale if ``log``), shuffled."""
    out = []
    for i in range(n):
        t = (i + 0.5) / n
        out.append(round(lo * (hi / lo) ** t) if log else round(lo + (hi - lo) * t))
    rng.shuffle(out)
    return out


def latin(rng, n, *ranges):
    """n tuples with one two-decimal value from each of n slices of every range."""
    cols = []
    for lo, hi in ranges:
        col = [round(lo + (hi - lo) * (i + rng.random()) / n, 2) for i in range(n)]
        rng.shuffle(col)
        cols.append(col)
    return list(zip(*cols))


def far(p, others):
    return abs(1 - p) >= ONE_GAP and all(abs(p - q) >= POLE_GAP for q in others)


def expr_term(coef, pole, order=1):
    """coef/(s-pole)^order with literal formatting for real or complex values."""
    c = cd2(coef) if isinstance(coef, complex) else d2(coef)
    if isinstance(pole, complex):
        den = f"(s-{cd2(pole)})"
    else:
        den = f"(s-{d2(pole)})" if pole >= 0 else f"(s+{d2(-pole)})"
    return f"{c}/{den}" + (f"^{order}" if order > 1 else "")


def pf_request(argv_head, terms, K, shape, fmt=None):
    """A request whose F is a sum of partial fractions coef/(s-pole)^order."""
    text = " + ".join(expr_term(c, p, n) for c, p, n in terms).replace("+ -", "- ")
    argv = [*argv_head, f"--expr={text}", "--k", f"1..{K}"]
    if fmt:
        argv += ["--format", fmt]
    ref = {"type": "partial-fractions",
           "terms": [[str(complex(c)), str(complex(p)), n] for c, p, n in terms]}
    return {"argv": argv, "K": K, "size": sum(n for _, _, n in terms),
            "shape": shape, "ref": ref}


# --- rational F in product form ---------------------------------------------


def product_rational(fix, rng, degree, one_gap=ONE_GAP, improper=False, cancel=False):
    """(text, num, den) for c * prod(s - z) / prod of pole factors.

    Pole groups: simple real, repeated real (order 2..3) and complex pairs,
    written as real quadratics.  ``cancel`` repeats one simple pole's factor
    in the numerator; ``improper`` makes deg num >= deg den (impulse part).
    Poles and zeros come from ``fix``, the constant c from ``rng``.
    """
    poles, groups, left = [], [], degree
    while left > 0:
        kind = fix.choice(("simple", "simple", "simple", "repeated", "pair", "pair"))
        if left < 2 or (cancel and not groups):
            kind = "simple"
        while True:
            if kind == "pair":
                p = complex(draw(fix, -2, 2), draw(fix, 0.2, 2))
            else:
                p = draw(fix, -3, 3)
            if far(p, poles) and abs(1 - p) >= one_gap:
                break
        order = min(left, fix.choice((2, 3))) if kind == "repeated" else 1
        poles += [p, p.conjugate()] if kind == "pair" else [p]
        groups.append((p, order, kind))
        left -= 2 if kind == "pair" else order

    den_text, den = [], [Fraction(1)]
    for p, order, kind in groups:
        if kind == "pair":
            a, b = Fraction(d2(p.real)), Fraction(d2(p.imag))
            den = poly_mul(den, [a * a + b * b, -2 * a, Fraction(1)])
            text = f"(s^2{'+' if a <= 0 else ''}{exact(-2 * a)}*s+{exact(a * a + b * b)})"
        else:
            pf = Fraction(d2(p))
            den = poly_mul(den, poly_pow([-pf, Fraction(1)], order))
            text = f"(s{'-' if pf >= 0 else '+'}{exact(abs(pf))})"
            text += f"^{order}" if order > 1 else ""
        den_text.append(text)

    n_zeros = degree + fix.randint(0, 2) if improper else fix.randint(0, degree - 1)
    zeros = [groups[0][0]] if cancel else []  # groups[0] is a simple real pole
    while len(zeros) < n_zeros:
        z = draw(fix, -3, 3)
        if all(abs(z - q) >= POLE_GAP for q in poles + zeros):
            zeros.append(z)
    c = Fraction(d2(signed(rng, 0.5, 5)))
    num, num_text = [c], [exact(c)]
    for z in zeros:
        zf = Fraction(d2(z))
        num = poly_mul(num, [-zf, Fraction(1)])
        num_text.append(f"(s{'-' if zf >= 0 else '+'}{exact(abs(zf))})")
    text = "*".join(num_text) + "/(" + "*".join(den_text) + ")"
    return text, [str(x) for x in num], [str(x) for x in den]


def rational_short(fix, rng, b):
    """Each block pairs the 12 strategy x format combinations with a design of
    degrees (1-10 and two more), K on 12 strata of 5..50 and shapes (2
    improper, 2 with a cancellation, 8 proper); the seed draws the poles,
    zeros and constant, and the order of the block."""
    del b
    combos = list(itertools.product(("auto", "pfe", "outside", "inside"), FORMATS))
    degrees = list(range(1, 11)) + fix.sample(range(1, 11), 2)
    shapes = ["improper"] * 2 + ["cancel"] * 2 + ["proper"] * 8
    fix.shuffle(degrees)
    fix.shuffle(shapes)
    block = []
    for (strategy, fmt), degree, shape, K in zip(combos, degrees, shapes, grid(fix, 12, 5, 50)):
        text, num, den = product_rational(
            rng, rng, degree, improper=shape == "improper", cancel=shape == "cancel")
        block.append({
            "argv": ["invert", f"--expr={text}", "--k", f"1..{K}",
                     "--strategy", strategy, "--format", fmt],
            "K": K, "size": degree, "shape": shape,
            "ref": {"type": "rational", "num": num, "den": den},
        })
    rng.shuffle(block)
    return block


# --- low-degree rationals on long grids --------------------------------------


def long_terms(fix, rng, K, degree, growing):
    """Partial-fraction terms of total degree ``degree``, bounded unless ``growing``.

    Bounded inputs keep every |1-p| >= 1.  A growing input has one real pole
    with |1-p|^-K > e^1418, twice past the float64 range, so the only correct
    answer is a clean overflow diagnostic (exit code 1).  The term structure
    comes from ``fix``; pole positions and residues from ``rng``.
    """
    terms, poles = [], []
    if growing:
        rho = math.floor(100 * rng.uniform(ONE_GAP, math.exp(-1418.0 / K))) / 100
        p = round(1 - rho * rng.choice((-1, 1)), 2)
        terms.append((signed(rng, 0.5, 3), p, 1))
        poles.append(p)
        degree -= 1
    while degree > 0:
        if degree >= 2 and fix.random() < 0.4:
            while True:
                t = rng.uniform(0.2, 2.9)
                w = rng.uniform(1, 3) * complex(math.cos(t), math.sin(t))
                p = complex(round(1 - w.real, 2), round(-w.imag, 2))
                if abs(1 - p) >= 1 and far(p, poles) and abs(p.imag) >= 0.1:
                    break
            r = complex(signed(rng, 0.5, 3), signed(rng, 0.1, 2))
            terms += [(r, p, 1), (r.conjugate(), p.conjugate(), 1)]
            poles += [p, p.conjugate()]
            degree -= 2
            continue
        order = 2 if degree >= 2 and fix.random() < 0.25 else 1
        while True:
            p = round(1 - draw(rng, 1, 3) * rng.choice((-1, 1)), 2)
            if far(p, poles):
                break
        terms.append((signed(rng, 0.5, 3), p, order))
        poles.append(p)
        degree -= order
    return terms


def rational_long(fix, rng, b):
    block = []
    for strategy in ("auto", "inside"):
        Ks = sorted(grid(fix, 10, 1_000, LONG_K[strategy], log=True))
        growing = {fix.randrange(5), 5 + fix.randrange(5)}
        degrees = [1, 2, 3, 4] * 2 + fix.sample([1, 2, 3, 4], 2)
        fix.shuffle(degrees)
        for i, K in enumerate(Ks):
            # formats rotate with the block, so the largest grid meets every format
            fmt = FORMATS[(i + b) % 3]
            req = pf_request(["invert", "--strategy", strategy],
                             long_terms(fix, rng, K, degrees[i], i in growing), K,
                             "growing" if i in growing else "bounded", fmt)
            block.append(req)
    rng.shuffle(block)
    return block


# --- fractional-power atoms and tabulated shapes -----------------------------


def atom_text(r, alpha, beta, lam):
    c = cd2(r) if isinstance(r, complex) else d2(r)
    num = "" if alpha == beta else f"*s^{d2(alpha - beta)}" if alpha > beta \
        else f"*s^-{d2(beta - alpha)}"
    base = "s" if alpha == 1 else f"s^{d2(alpha)}"
    if isinstance(lam, complex):
        return f"{c}{num}/({base}-{cd2(lam)})"
    return f"{c}{num}/({base}{'-' if lam >= 0 else '+'}{d2(abs(lam))})"


def atom_request(atoms, K, shape):
    text = " + ".join(atom_text(*a) for a in atoms).replace("+ -", "- ")
    ref = {"type": "atoms",
           "atoms": [[str(complex(r)), a, b, str(complex(lam))] for r, a, b, lam in atoms]}
    return {"argv": [f"--expr={text}", "--k", f"1..{K}"], "K": K,
            "size": len(atoms), "shape": shape, "ref": ref}


def noninteger(alpha, beta):
    """Nudge (alpha, beta) off the integer-order branch, which has its own shape."""
    return (alpha + 0.01, beta) if alpha.is_integer() and beta.is_integer() else (alpha, beta)


def atom_sums(fix, rng, n):
    """n sums of 1..3 real-lambda atoms; (alpha, beta, lambda) from the design."""
    sizes = [1 + i % 3 for i in range(n)]
    fix.shuffle(sizes)
    draws = iter(latin(fix, sum(sizes), (0.1, 2), (0.1, 2), (0, 0.95)))
    sums = []
    for size in sizes:
        sums.append([(signed(rng, 0.5, 3), *noninteger(alpha, beta),
                      lam * fix.choice((-1, 1)))
                     for alpha, beta, lam in itertools.islice(draws, size)])
    return sums


def conjugate_atom_sums(fix, rng, n):
    """n sums holding one conjugate pair of atoms (complex lambda, |lambda| <= 0.95)."""
    sums = []
    for alpha, beta, mod, arg in latin(fix, n, (0.1, 2), (0.1, 2), (0.2, 0.95),
                                       (0.2, math.pi - 0.2)):
        lam = complex(round(mod * math.cos(arg), 2), round(mod * math.sin(arg), 2))
        r = complex(signed(rng, 0.5, 3), signed(rng, 0.1, 2))
        alpha, beta = noninteger(alpha, beta)
        sums.append([(r, alpha, beta, lam), (r.conjugate(), alpha, beta, lam.conjugate())])
    return sums


def simple_pole_in_disk(fix, rng):
    """One simple real pole term with |p| <= 0.95, a fractional atom of order 1."""
    while True:
        p = draw(fix, -0.95, 0.95)
        if far(p, []):
            return [(signed(rng, 0.5, 3), p, 1)]


def fractional(fix, rng, b):
    block = []
    for atoms, K in zip(atom_sums(fix, rng, 10), grid(fix, 10, 10, FRACTIONAL_K)):
        block.append(atom_request(atoms, K, "atoms"))
    extra = atom_sums(fix, rng, 2)
    for i, (atoms, K) in enumerate(zip(conjugate_atom_sums(fix, rng, 2),
                                       grid(fix, 2, 10, FRACTIONAL_K))):
        block.append(atom_request(atoms + extra[i][:i], K, "conjugate-atoms"))
    orders = fix.sample([(1.0, 1.0), (1.0, 2.0), (2.0, 1.0), (2.0, 2.0)], 2)
    # The exact-Fraction branch: one atom each, since sums of two or three at
    # K >= 5 already take seconds at the seed (defects the selftest keeps).
    for i, ((lam,), K) in enumerate(zip(latin(fix, 2, (0, 0.95)), grid(fix, 2, 3, EXACT_K))):
        atoms = [(signed(rng, 0.5, 3), *orders[i], lam * fix.choice((-1, 1)))]
        block.append(atom_request(atoms, K, "integer-order-atom"))
    for (g, e), K in zip(latin(fix, 2, (0.1, 0.9), (0.1, 3)), grid(fix, 2, 10, FRACTIONAL_K)):
        e = e + 0.01 if e.is_integer() else e
        block.append({"argv": [f"--expr=({d2(1 - g)}+{d2(g)}*s)^-{d2(e)}", "--k", f"1..{K}"],
                      "K": K, "size": 1, "shape": "row6",
                      "ref": {"type": "row6", "a": round(1 - g, 2), "b": g, "e": e}})
    for (alpha, lam), K in zip(latin(fix, 2, (0.1, 2), (0, 0.95)), grid(fix, 2, 10, FRACTIONAL_K)):
        alpha = alpha + 0.01 if alpha.is_integer() else alpha
        lam *= fix.choice((-1, 1))
        power = f"s^{d2(alpha - 1)}" if alpha >= 1 else f"s^-{d2(1 - alpha)}"
        text = (f"{d2(alpha)}*{power}*(1-s)/(s^{d2(alpha)}"
                f"{'-' if lam >= 0 else '+'}{d2(abs(lam))})^2")
        block.append({"argv": [f"--expr={text}", "--k", f"1..{K}"], "K": K, "size": 1,
                      "shape": "row10", "ref": {"type": "row10", "alpha": alpha, "lam": lam}})
    for K in grid(fix, 2, 3, EXACT_K):
        block.append(pf_request(["--strategy", "fractional"], simple_pole_in_disk(fix, rng), K,
                                "strategy-fractional"))
    for i, req in enumerate(block):
        req["argv"] = ["invert", *req["argv"], "--format", FORMATS[(i + b) % 3]]
    rng.shuffle(block)
    return block


# --- verify --------------------------------------------------------------------


def scaled(rng, atom_sums):
    """Multiply each sum by one seeded factor: values scale, verdicts do not."""
    out = []
    for atoms in atom_sums:
        c = draw(rng, 0.5, 2) * rng.choice((-1, 1))
        out.append([(complex(round(c * r.real, 2), round(c * r.imag, 2))
                     if isinstance(r, complex) else round(c * r, 2), *rest)
                    for r, *rest in atoms])
    return out


def verify(fix, rng, b):
    """Verdicts at the seed hinge on fine details of each input (quadrature
    error against a 1e-9 tolerance), and few requests pass, so the whole
    input except one scale factor per request comes from the design."""
    del b
    block = []
    degrees = [1, 2, 3, 4, 5, 6] + fix.sample(range(1, 7), 4)
    for i, (degree, K) in enumerate(zip(degrees, grid(fix, 10, 10, 200))):
        text, num, den = product_rational(fix, rng, degree, one_gap=0.3, improper=i < 2)
        block.append({"argv": [f"--expr={text}", "--k", f"1..{K}"], "K": K, "size": degree,
                      "shape": "rational", "ref": {"type": "rational", "num": num, "den": den}})
    for atoms, K in zip(scaled(rng, atom_sums(fix, fix, 8)), grid(fix, 8, 10, 200)):
        block.append(atom_request(atoms, K, "atoms"))
    for atoms, K in zip(scaled(rng, conjugate_atom_sums(fix, fix, 2)), grid(fix, 2, 10, 200)):
        block.append(atom_request(atoms, K, "conjugate-atoms"))
    for req in block:
        req["argv"] = ["verify", *req["argv"]]
    rng.shuffle(block)
    return block


BLOCKS = {
    "rational-short": rational_short,
    "rational-long": rational_long,
    "fractional": fractional,
    "verify": verify,
}


def requests(workload, seed):
    """Endless deterministic request stream for (workload, seed), block by block."""
    rng = random.Random(f"{workload}/{seed}")
    make = BLOCKS[workload]
    for b in itertools.count():
        fix = random.Random(f"{workload}/design/{b}")
        block = make(fix, rng, b)
        for i, req in enumerate(block):
            req["block_end"] = i == len(block) - 1
            yield req
