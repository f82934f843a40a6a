"""The benchmark's own checks: references, failure classification, determinism.

    python3 bench/run.py --selftest

``reference_checks`` also runs at the start of every benchmark run.
"""

import json
import math

import numpy as np

import harness
import reference
import workloads

# 9/((s+1)^2*(s-2)): den = s^3 - 3s - 2; partial fractions 1/(s-2) - 1/(s+1) - 3/(s+1)^2
EXAMPLE_RATIONAL = {"type": "rational", "num": ["9"], "den": ["-2", "-3", "0", "1"]}
EXAMPLE_TERMS = [(1, 2, 1), (-1, -1, 1), (-3, -1, 2)]
# 1/(s^0.5-0.2) - s^0.2/(s^0.7-0.3)
EXAMPLE_ATOMS = [(1, 0.5, 0.5, 0.2), (-1, 0.7, 0.5, 0.3)]


def reference_checks():
    """Hand-known values (the README quickstart) and cross-checks between routes."""
    problems = []
    got = list(reference.values(EXAMPLE_RATIONAL, 3))
    if got != [-2.25, 0.0, -1.6875]:
        problems.append(f"rational example gave {got}")
    got = reference.atom_values(EXAMPLE_ATOMS, 1)[0]
    if abs(got - -0.17857142857142855) > 1e-15:
        problems.append(f"two-atom example gave f(1) = {got!r}")
    a = reference.values(EXAMPLE_RATIONAL, 80)
    b = reference.partial_fraction_values(EXAMPLE_TERMS, 80)
    if np.max(np.abs(a - b)) > 1e-12 * np.max(np.abs(a)):
        problems.append("exact division and partial fractions disagree")
    # 1/(s^2+0.9) = sum r/(s-p) over p = +-i sqrt(0.9), r = +-1/(2i sqrt(0.9))
    p = 1j * math.sqrt(0.9)
    a = reference.values({"type": "rational", "num": ["1"], "den": ["9/10", "0", "1"]}, 60)
    b = reference.partial_fraction_values([(1 / (2 * p), p, 1), (-1 / (2 * p), -p, 1)], 60)
    if np.max(np.abs(a - b)) > 1e-12 * np.max(np.abs(a)):
        problems.append("complex pair: exact division and partial fractions disagree")
    # an integer-order atom is a simple pole: 0.7/(s - 0.4) <-> 0.7 * 0.6^-m
    a = reference.atom_values([(0.7, 1.0, 1.0, 0.4)], 40)
    b = 0.7 * 0.6 ** -np.arange(1, 41)
    if np.max(np.abs(a - b)) > 1e-12 * np.max(np.abs(b)):
        problems.append("binomial division disagrees with the geometric pair")
    return problems


def _mittag_leffler(alpha, beta, lam, m):
    """sum_i lam^i Gamma(m + i alpha + beta - 1) / (Gamma(m) Gamma(i alpha + beta)), mpmath."""
    import mpmath

    with mpmath.workdps(40):
        alpha, beta, lam = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(lam)
        total, i = mpmath.mpf(0), 0
        while True:
            term = (lam ** i * mpmath.gamma(m + i * alpha + beta - 1)
                    / (mpmath.gamma(m) * mpmath.gamma(i * alpha + beta)))
            total += term
            if i > 10 and abs(term) < mpmath.mpf(10) ** -30 * (1 + abs(total)):
                return float(total)
            i += 1


def slow_reference_checks():
    """Binomial-series references against the defining series, summed in mpmath."""
    problems = []
    for alpha, beta, lam in ((0.5, 0.5, 0.3), (1.3, 0.8, -0.6), (1.9, 1.9, 0.5)):
        got = reference.atom_values([(1.0, alpha, beta, lam)], 12)
        want = np.array([_mittag_leffler(alpha, beta, lam, m) for m in range(1, 13)])
        if np.max(np.abs(got - want)) > 1e-12 * np.max(np.abs(want)):
            problems.append(f"atom ({alpha}, {beta}, {lam}) disagrees with mpmath")
    alpha, lam = 0.7, -0.4
    got = reference.row10_values(alpha, lam, 12)
    want = np.array([(m - 1) * _mittag_leffler(alpha, alpha, lam, m) for m in range(1, 13)])
    if np.max(np.abs(got - want)) > 1e-12 * np.max(np.abs(want)):
        problems.append("row 10 shape disagrees with (m-1) ML(alpha, alpha, lam)")
    a, b, e = 0.5, 0.5, 1.5  # (0.5+0.5 s)^-1.5: gamma^(m-1) rising(m, e-1)/Gamma(e)
    got = reference.row6_values(a, b, e, 12)
    want = np.array([b ** (m - 1) * math.exp(math.lgamma(m + e - 1) - math.lgamma(m)
                                             - math.lgamma(e)) for m in range(1, 13)])
    if np.max(np.abs(got - want)) > 1e-13 * np.max(np.abs(want)):
        problems.append("row 6 shape disagrees with the rising-power pair")
    return problems


# The defects observed in nablainv at the commit that introduced this
# benchmark, with the outcome recorded there and the kind it must be counted as.
SEED_DEFECTS = [
    ("invert --expr 9/((s+1)^2*(s-2)) --k 1..2000",
     ["invert", "--expr", "9/((s+1)^2*(s-2))", "--k", "1..2000"], EXAMPLE_RATIONAL, 2000,
     harness.Outcome(None, "", "", 0.017, exception="OverflowError"),
     None, "exception:OverflowError"),
    ("invert --strategy fractional on 1/(s^2+0.9), k 1..40",
     ["invert", "--strategy", "fractional", "--expr", "1/(s^2+0.9)", "--k", "1..40"],
     {"type": "rational", "num": ["1"], "den": ["9/10", "0", "1"]}, 40,
     harness.Outcome(None, "", "", 1.0, deadline=True), None, "deadline"),
    ("invert 1/(s^1.5+0.5), k 1..50 (RealnessError at k = 16)",
     ["invert", "--expr", "1/(s^1.5+0.5)", "--k", "1..50"],
     {"type": "atoms", "atoms": [["1", 1.5, 1.5, "-0.5"]]}, 50,
     harness.Outcome(1, "", "error: imaginary residue 1.071e-09 at k = 16.0; term set "
                     "is not conjugate-consistent\n", 0.0065), None, "exit_code"),
    ("verify 9/((s+1)^2*(s-2)), k 1..50 (false quadrature FAIL)",
     ["verify", "--expr", "9/((s+1)^2*(s-2))", "--k", "1..50"], EXAMPLE_RATIONAL, 50,
     harness.Outcome(1, "PASS  contour orientation self-test (impulse pair)\n"
                     "PASS  strategy agreement series-at-1 vs pfe (max scaled diff 0.00e+00)\n"
                     "FAIL  contour quadrature vs pfe over k grid (max scaled diff 1.27e-02)\n"
                     "PASS  initial value f(a+1) = lim F(s) (|diff| 0.00e+00)\n"
                     "PASS  forward series round trip inside ROC (max rel diff 1.09e-16)\n",
                     "", 0.0138), True, "false_verdict"),
]


def classification_checks(cli):
    """Recorded seed outcomes must classify as their kind; live ones are reported."""
    problems, notes = [], []
    for label, argv, spec, K, recorded, confirmed, kind in SEED_DEFECTS:
        expected = reference.values(spec, K)
        got = harness.judge(argv, recorded, expected, confirmed)[0]
        if got != kind:
            problems.append(f"{label}: recorded outcome classified {got}, not {kind}")
        if argv[0] == "verify":
            confirmed = harness.inversion_confirmed(cli.main, argv, expected)
        live = harness.judge(argv, harness.send(cli.main, argv), expected, confirmed)[0]
        notes.append(f"{label}: now {live or 'correct'}")
        if live not in (None, kind):
            problems.append(f"{label}: live outcome classified {live}, expected {kind} "
                            "while the defect persists")
    good = harness.send(cli.main, ["invert", "--expr", "9/((s+1)^2*(s-2))", "--k", "1..3",
                                   "--format", "csv"])
    if harness.judge_invert(["--format", "csv"], good, reference.values(EXAMPLE_RATIONAL, 3))[0]:
        problems.append("the README example itself was judged a failure")
    return problems, notes


def determinism_checks(count=60):
    problems = []
    for name in workloads.BLOCKS:
        def listing(seed):
            stream = workloads.requests(name, seed)
            return json.dumps([next(stream) for _ in range(count)], sort_keys=True).encode()

        if listing(1) != listing(1):
            problems.append(f"{name}: seed 1 gave two different request lists")
        if listing(1) == listing(2):
            problems.append(f"{name}: seeds 1 and 2 gave the same request list")
    return problems


def main(cli):
    problems = slow_reference_checks() + determinism_checks()
    found, notes = classification_checks(cli)
    problems += found
    for note in notes:
        print("  " + note)
    for problem in problems:
        print("FAIL  " + problem)
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0
