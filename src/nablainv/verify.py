"""Independent numerical oracles: forward series, contour quadrature, value checks.

Everything here deliberately avoids the analytic machinery it is used to
check: the forward transform is a plain truncated sum, the inverse is
trapezoidal quadrature of the contour integral, and the initial-value check
is a direct evaluation.
"""

import cmath
import math
import warnings

import numpy as np

from .errors import ConvergenceError, PoleAtOneError, TruncationWarning
from .rational import describe_roc
from .special import step_offset

FORWARD_TOL = 1e-12
FORWARD_NMAX = 100_000
# 2**24 nodes take 268 MB per complex128 array, and the grid holds several;
# past this a request is killed under memory overcommit before MemoryError
MAX_NODES = 2**24
ORIENTATION_TOL = 1e-12
_CONSECUTIVE_SMALL = 5
_CONSECUTIVE_GROWING = 50

__all__ = [
    "forward_transform",
    "forward_rows",
    "round_trip_error",
    "numeric_inverse",
    "quadrature_grid",
    "initial_value",
    "orientation_check",
    "default_rho",
]


def forward_transform(seq, s, tol=FORWARD_TOL, n_max=FORWARD_NMAX):
    """Truncated sum of (1-s)^(m-1) f(a+m) over m >= 1.

    ``seq`` is the sequence as a rule m -> f(a+m) on an int ndarray of step
    offsets m >= 1 (every sequence in the package has one: a pair's
    ``sequence``, a closed form's ``values``); through a ``shared_blocks``
    rule the values may come from blocks that another point's sum already
    read, bit for bit those the rule gives.  Stops once five consecutive
    increments fall below tol * (1 + |sum|); hitting n_max first emits
    TruncationWarning.  Fifty consecutive growing increments raise
    ConvergenceError (s is outside the ROC), and a running sum that stops
    being finite raises OverflowError: near the edge of the ROC the values
    can leave float64 while the weighted increments still count.
    """
    return _forward_sum(seq, s, tol, n_max)[0]


def forward_rows(seq, F, points, tol=FORWARD_TOL):
    """(s, series, F(s)) at each of the points s, in order: the forward sum of
    the rule ``seq`` to ``tol``, sharing its value blocks (``shared_blocks``),
    and F, the transform it should give.  A failing point raises before any
    later point is read."""
    seq = shared_blocks(seq)
    return [(s, forward_transform(seq, s, tol=tol), complex(F(s))) for s in points]


def round_trip_error(seq, F, points):
    """max |series - F(s)| / max(1, |F(s)|) over the ``forward_rows`` of the
    rule ``seq`` and its transform F at the points s; 0 with no points."""
    return max([0.0] + [abs(total - direct) / max(1.0, abs(direct))
                        for _s, total, direct in forward_rows(seq, F, points)])


def shared_blocks(seq):
    """The rule ``seq`` answering each block of offsets once.

    Forward sums with one n_max ask for the same blocks at every point s, so
    the first sum to reach a block calls ``seq`` on it and later sums get the
    same values back.  The blocks live as long as the returned rule, which
    its caller drops at the end of the request.
    """
    blocks = {}

    def read(ms):
        key = (int(ms[0]), ms.size)
        if key not in blocks:
            blocks[key] = seq(ms)
        return blocks[key]

    return read


def _forward_sum(seq, s, tol, n_max):
    """(sum, terms used) of the truncated forward series; see forward_transform.

    The values come from the rule in blocks that double in length from 16
    steps: [1..16], [17..33], [34..67], ...  A sum of n terms calls it
    O(log n) times and reads at most max(16, 2n) values, and every point asks
    for the same blocks, which ``shared_blocks`` reads once for all of them.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    w = 1.0 - complex(s)
    total = 0j
    wp = 1.0 + 0j
    small = growing = 0
    last_mag = math.inf  # the first increment does not count as growing
    m = 0  # terms summed
    while m < n_max:
        for value in _values(seq, np.arange(m + 1, min(n_max, max(16, 2 * m + 1)) + 1)):
            m += 1
            inc = wp * value
            total += inc
            wp *= w
            mag = abs(inc)
            size = abs(total)
            if not size < math.inf:  # inf or nan
                raise OverflowError(
                    f"forward series at s = {s} leaves the float64 range at "
                    f"term {m}; choose s closer to 1"
                )
            if mag < tol * (1.0 + size):
                small += 1
                if small >= _CONSECUTIVE_SMALL:
                    return total, m
            else:
                small = 0
            if mag > last_mag and mag > tol:
                growing += 1
                if growing >= _CONSECUTIVE_GROWING:
                    raise ConvergenceError(
                        f"forward series diverges at s = {s} (|1-s| = {abs(w):g})"
                    )
            else:
                growing = 0
            last_mag = mag
    warnings.warn(
        f"forward series truncated at {n_max} terms before meeting tol = {tol:g}",
        TruncationWarning,
        stacklevel=3,
    )
    return total, n_max


def _values(seq, ms):
    """The rule's values at the offsets ms as Python complex; those past the
    last step a sum needs may leave the float64 range."""
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.asarray(seq(ms), dtype=complex)
        if values.shape != ms.shape:  # a rule may answer one value for all
            values = np.broadcast_to(values, ms.shape)
        return values.tolist()


def default_rho(F, m):
    """R m / (m + p), the radius for coefficients up to w^(m-1) (Bornemann 2011).

    R is F's ``radius``, the distance from 1 to its nearest singularity (1 when
    it has none), and p its ``pole_order``, the highest order of the
    singularities at that distance.  The radius nears R as m grows, so
    rho^-(m-1) stays near the growth of the coefficients themselves instead of
    magnifying rounding.  Callables without a radius get 0.5.
    """
    R = getattr(F, "radius", None)
    if R is None:
        return 0.5
    R = 1.0 if R == math.inf else R
    return R * m / (m + F.pole_order)


def quadrature_grid(F, m_max, rho=None, nodes=None):
    """Contour-quadrature values f(a+1)..f(a+m_max) of F, from one FFT.

    Substituting w = 1 - s turns the clockwise contour around (1, 0j) into the
    standard anticlockwise coefficient-extraction circle |w| = rho, giving

        f(a+1+j) = (1/2 pi) * integral_0^{2 pi}
                   F(1 - rho e^{i t}) rho^{-j} e^{-i j t} dt,

    evaluated by the trapezoid rule on ``nodes`` equispaced points, which
    converges geometrically for periodic analytic integrands; the sums for
    every j are one FFT of the samples.  When F's ``is_real`` is True,
    F(conj s) = conj F(s) makes the samples Hermitian: F is sampled on the
    upper half of the circle only, the nodes // 2 + 1 points t = 2 pi n / nodes
    with n = 0..nodes // 2, and one real-output FFT (``np.fft.hfft``) of those
    gives the same sums, with a zero imaginary part.  ``nodes`` must be at
    least 4 m_max to keep aliasing below the leading coefficients, and at
    most MAX_NODES, checked before any array is made.  It defaults to the
    least 2^a 3^b 5^c at or above max(256, 32(m_max+1)), a length whose FFT
    has no large prime factor to slow it (``_smooth``); MAX_NODES is such a
    length, so a default count is refused only where the unrounded one would
    be.  A ``nodes`` that is given is used as given.  ``rho`` defaults to
    ``default_rho(F, m_max)`` and must stay below F's ``radius`` when it has
    one.  A callable F is called once, with the ndarray of points on the
    circle.  The values are complex.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    if rho is None:
        rho = default_rho(F, m_max)
    if not 0 < rho:
        raise ValueError("rho must be positive")
    if nodes is None:
        nodes = _smooth(max(256, 32 * (m_max + 1)))
    if nodes > MAX_NODES:
        raise ValueError(
            f"nodes = {nodes} is above the ceiling {MAX_NODES}; lower --nodes "
            "or narrow --k"
        )
    if nodes < 4 * m_max:
        raise ValueError(f"nodes = {nodes} is below the anti-aliasing bound {4 * m_max}")
    radius = getattr(F, "radius", math.inf)
    if rho >= radius:
        raise ValueError(
            f"rho = {rho:g} does not fit inside the region of convergence "
            f"({describe_roc(radius)})"
        )
    real = getattr(F, "is_real", False) is True
    w = rho * np.exp(2j * np.pi * np.arange(nodes // 2 + 1 if real else nodes) / nodes)
    s = 1.0 - w
    values = np.broadcast_to(np.asarray(F(s), dtype=complex), s.shape)
    sums = np.fft.hfft(values, nodes) if real else np.fft.fft(values)
    # rho^-j past the float64 range is inf, and inf * 0 is nan: values the
    # checks measure and report, not numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        return (sums[:m_max] / nodes * rho ** -np.arange(m_max)).astype(complex, copy=False)


def _smooth(n):
    """The least 2^a 3^b 5^c at or above the int n >= 1."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least p35 * 2^a at or above n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def numeric_inverse(F, k, a=0.0, rho=None, nodes=None):
    """Contour-quadrature inversion of F at step k: the entry for k of
    ``quadrature_grid(F, k - a)``, whose defaults and checks it shares."""
    m = step_offset(k, a)
    return complex(quadrature_grid(F, m, rho=rho, nodes=nodes)[m - 1])


def initial_value(F):
    """f(a+1) = lim_{s->1} F(s), evaluated directly when s = 1 is regular:
    a transform's ``radius`` raises PoleAtOneError for a pole there, and a
    value that is not finite raises it too."""
    getattr(F, "radius", None)  # PoleAtOneError for a pole at s = 1
    v = complex(F(1.0))
    if not (cmath.isfinite(v)):
        raise PoleAtOneError()
    return v


def orientation_check():
    """Contour-orientation self-test on the impulse pair (F = 1 -> f(a+1) = 1).

    The sign convention of the quadrature is fixed by the clockwise contour in
    s becoming anticlockwise in w = 1 - s; a flipped orientation would return
    the k = a+1 value as 0 instead of 1.  Returns |got - 1|; raises
    ConvergenceError when it exceeds ORIENTATION_TOL.
    """
    got = numeric_inverse(lambda s: 1.0 + 0j, 1, a=0.0, rho=0.5, nodes=64)
    deviation = abs(got - 1.0)
    if deviation > ORIENTATION_TOL:
        raise ConvergenceError(
            f"orientation self-test failed: impulse pair returned {got}"
        )
    return deviation
