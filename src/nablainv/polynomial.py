"""Complex polynomial arithmetic and root finding with multiplicity clustering."""

import cmath
import math
from dataclasses import dataclass
from operator import mul

import numpy as np
import numpy.polynomial.polynomial as npoly

DEFAULT_CLUSTER_SCALE = 1e-6
# Block length of the dense series division; a denominator of at most this
# many coefficients stays on the recurrence.
_BLOCK = 64
# ``factor_divide`` runs a series of up to _LOOP_MAX coefficients on its
# recurrence (below that the block set-up costs more than it saves), and a
# longer one in blocks of at most _BLOCK.  A factor whose 1/q grows past
# _GROWTH times 1/q(0) within a block gets shorter blocks, so the block
# products stay inside float64; a block shorter than _MIN_BLOCK leaves the
# factor on the recurrence.
_GROWTH = 1e150
_MIN_BLOCK = 8
_LOOP_MAX = 8 * _BLOCK

__all__ = [
    "DEFAULT_CLUSTER_SCALE",
    "Polynomial",
    "RootCluster",
    "factor_divide",
    "factor_roots",
    "pool_roots",
    "roots_with_multiplicities",
    "series_divide",
]


class Polynomial:
    """Dense polynomial over the complex numbers, coefficients in ascending degree.

    Trailing zero coefficients are trimmed at construction, so ``degree`` is
    always the index of the last nonzero coefficient; the zero polynomial is
    stored as a single zero coefficient.  Instances are immutable.
    """

    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs):
        c = np.array(coeffs, dtype=complex, ndmin=1).ravel()
        n = len(c)
        while n > 1 and c[n - 1] == 0:
            n -= 1
        c = c[:n] if n else np.zeros(1, dtype=complex)
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def from_roots(cls, roots):
        """Monic polynomial with the given roots (repeats allowed).

        When the roots are closed under conjugation (as a multiset, exactly),
        the coefficients are real: the product's imaginary parts are rounding.
        """
        roots = np.asarray(list(roots), dtype=complex)
        if not roots.size:
            return cls([1.0])
        coeffs = npoly.polyfromroots(roots)
        if np.array_equal(np.sort(roots), np.sort(roots.conj())):
            coeffs = coeffs.real
        return cls(coeffs)

    @classmethod
    def product(cls, factors, constant=1.0):
        """constant * prod q^e over (Polynomial q, int e >= 0) pairs."""
        acc = np.array([constant], dtype=complex)
        for q, e in factors:
            for _ in range(e):
                acc = np.convolve(acc, q.coeffs)
        return cls(acc)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return self.degree == 0 and self.coeffs[0] == 0

    def __call__(self, s):
        # Horner's scheme; accepts scalars or ndarrays.
        acc = np.zeros_like(np.asarray(s, dtype=complex))
        for c in self.coeffs[::-1]:
            acc = acc * s + c
        return complex(acc) if np.isscalar(s) or np.ndim(s) == 0 else acc

    def derivative(self):
        if self.degree == 0:
            return Polynomial([0.0])
        return Polynomial(npoly.polyder(self.coeffs))

    def monic(self):
        if self.is_zero():
            raise ValueError("zero polynomial has no monic form")
        c = self.coeffs / self.coeffs[-1]
        c[-1] = 1.0  # a complex x / x need not round to exactly 1
        return Polynomial(c)

    def compose(self, inner):
        """The polynomial self(inner(x)), computed exactly by Horner."""
        inner = _coeffs_of(inner)
        acc = self.coeffs[-1:].copy()
        for c in self.coeffs[-2::-1]:
            acc = np.convolve(acc, inner)
            acc[0] += c
        return Polynomial(acc)

    def shifted(self, center):
        """Coefficients of self(center + t) as a polynomial in t."""
        return self.compose(Polynomial([center, 1.0]))

    def in_one_minus_w(self):
        """Coefficients of self(1 - w) as a polynomial in w."""
        return self.compose(Polynomial([1.0, -1.0]))

    def __add__(self, other):
        a, b = self.coeffs, _coeffs_of(other)
        if len(a) < len(b):
            a, b = b, a
        out = a.copy()
        out[: len(b)] += b
        return Polynomial(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -_coeffs_of(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        return Polynomial(np.convolve(self.coeffs, _coeffs_of(other)))

    __rmul__ = __mul__

    def __neg__(self):
        return Polynomial(-self.coeffs)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        out = Polynomial([1.0])
        for _ in range(n):
            out = out * self
        return out

    def divmod(self, other):
        other = other if isinstance(other, Polynomial) else Polynomial(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q, r = npoly.polydiv(self.coeffs, other.coeffs)
        return Polynomial(q), _trim_small(Polynomial(r), self, other)

    def deflate(self, root):
        """Synthetic division by (x - root); the remainder is dropped."""
        if self.degree < 1:
            raise ValueError("cannot deflate a constant polynomial")
        out = np.empty(self.degree, dtype=complex)
        acc = self.coeffs[-1]
        for i in range(self.degree - 1, -1, -1):
            out[i] = acc
            acc = self.coeffs[i] + acc * root
        return Polynomial(out)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs.shape == other.coeffs.shape and bool(
            np.all(self.coeffs == other.coeffs)
        )

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            # + 0.0 turns -0.0 into 0.0, so that equal polynomials hash alike
            h = hash((self.coeffs + 0.0).tobytes())
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)})"


def _coeffs_of(other):
    if isinstance(other, Polynomial):
        return other.coeffs
    return np.atleast_1d(np.asarray(other, dtype=complex))


def _trim_small(remainder, a, b):
    # polydiv leaves float dust in remainders of exact divisions
    scale = max(np.max(np.abs(a.coeffs)), np.max(np.abs(b.coeffs)), 1.0)
    c = remainder.coeffs.copy()
    c[np.abs(c) <= 1e-13 * scale] = 0.0
    return Polynomial(c)


@dataclass(frozen=True)
class RootCluster:
    """A root location together with its multiplicity."""

    value: complex
    multiplicity: int


def roots_with_multiplicities(p, cluster_scale=DEFAULT_CLUSTER_SCALE):
    """All complex roots of ``p`` with multiplicities.

    Companion-matrix eigenvalues seed the estimates.  An m-fold root scatters
    its eigenvalues on a circle of radius ~eps^(1/m) around the true root, so
    raw eigenvalues are clustered (single linkage at ``cluster_scale`` times
    1 + |root|, escalating for wider scatter when a genuine multiple root is
    confirmed by the derivative test), and each cluster of size m is polished
    by Newton iteration on the (m-1)-th derivative, where the root is simple.

    When every coefficient is real, a cluster whose center lies within its
    linkage radius of the real axis is polished on the axis (its conjugate
    would lie within twice that radius, so it is its own conjugate), and each
    root below the axis is made the exact conjugate of its partner above.

    Raises ValueError for constant input.  The multiplicities always sum to
    ``p.degree``.
    """
    if p.degree < 1:
        raise ValueError("root finding needs degree >= 1")
    pm = p.monic()
    real = not np.any(pm.coeffs.imag)
    raw = np.sort_complex(npoly.polyroots(pm.coeffs))
    derivs = _derivative_chain(pm)

    clusters = [[raw[i] for i in g]
                for g in _link(raw, lambda z: cluster_scale * (1.0 + abs(z)))]
    clusters = _escalate(pm, derivs, clusters, cluster_scale)

    out = []
    for group in clusters:
        center = complex(np.mean(group))
        if real and abs(center.imag) <= cluster_scale * (1.0 + abs(center)):
            center = complex(center.real, 0.0)
        m = len(group)
        z = _polish(derivs, center, m)
        if abs(z.imag) <= 1e-12 * (1.0 + abs(z.real)):
            z = complex(z.real, 0.0)  # drop eigenvalue dust on real roots
        out.append(RootCluster(z, m))
    if real:
        _mirror_conjugates(out)
    out.sort(key=lambda rc: (rc.value.real, rc.value.imag))
    return out


def _mirror_conjugates(roots):
    """Replace each root below the real axis by the conjugate of its nearest
    partner above it, when their multiplicities agree."""
    lower = [i for i, rc in enumerate(roots) if rc.value.imag < 0]
    for rc in list(roots):
        if rc.value.imag <= 0 or not lower:
            continue
        mirror = rc.value.conjugate()
        j = min(lower, key=lambda i: abs(roots[i].value - mirror))
        if roots[j].multiplicity == rc.multiplicity:
            roots[j] = RootCluster(mirror, rc.multiplicity)
            lower.remove(j)


def factor_roots(p, cluster_scale=DEFAULT_CLUSTER_SCALE):
    """The roots of one factor with multiplicities, sorted like
    ``roots_with_multiplicities``.

    Degrees 1 and 2 have their roots in closed form: a linear root is exact,
    and a quadratic takes the stable formula, which computes the larger root
    without cancellation and the other as the product of the roots divided by
    it.  A real quadratic with a negative discriminant gives an exact
    conjugate pair, and a zero discriminant one double root.  Higher degrees
    go to ``roots_with_multiplicities``.
    """
    if p.degree > 2:
        return roots_with_multiplicities(p, cluster_scale)
    if p.degree < 1:
        raise ValueError("root finding needs degree >= 1")
    # + 0.0 turns -0.0 into 0.0: the root of s - 0.5 prints as 0.5+0j
    return [RootCluster(complex(rc.value.real + 0.0, rc.value.imag + 0.0), rc.multiplicity)
            for rc in _low_degree_roots(p.coeffs / p.coeffs[-1])]


def _low_degree_roots(c):
    """Roots of the monic linear or quadratic with coefficients c, ascending."""
    if len(c) == 2:
        return [RootCluster(complex(-c[0]), 1)]
    c0, b = complex(c[0]), complex(c[1])
    if c0.imag == 0 and b.imag == 0:
        c0, b = c0.real, b.real
        disc = b * b - 4.0 * c0
        if disc < 0:
            re, im = -0.5 * b, 0.5 * math.sqrt(-disc)
            return [RootCluster(complex(re, -im), 1), RootCluster(complex(re, im), 1)]
        big = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    else:
        disc = b * b - 4.0 * c0
        sq = cmath.sqrt(disc)
        if (b.conjugate() * sq).real < 0:
            sq = -sq
        big = -0.5 * (b + sq)
    if disc == 0:
        return [RootCluster(complex(-0.5 * b), 2)]
    roots = sorted((complex(big), complex(c0 / big)), key=lambda z: (z.real, z.imag))
    return [RootCluster(z, 1) for z in roots]


def pool_roots(groups, cluster_scale=DEFAULT_CLUSTER_SCALE):
    """Merge the roots of several factors into one sorted cluster list.

    ``groups`` holds one RootCluster list per factor.  Roots within the
    linkage radius ``cluster_scale * (1 + |root|)`` of each other, from one
    factor or from several, become one cluster at their multiplicity-weighted
    mean, carrying the summed multiplicity.  Returns (RootCluster, members)
    pairs, members being the (group index, RootCluster) pairs merged into it,
    sorted by the cluster's real, then imaginary part.
    """
    flat = [(i, rc) for i, group in enumerate(groups) for rc in group]
    values = [rc.value for _, rc in flat]
    out = []
    for idx in _link(values, lambda z: cluster_scale * (1.0 + abs(z))):
        members = [flat[j] for j in idx]
        m = sum(rc.multiplicity for _, rc in members)
        if len(members) == 1:
            value = members[0][1].value
        else:
            value = sum(rc.value * rc.multiplicity for _, rc in members) / m
        out.append((RootCluster(complex(value), m), members))
    out.sort(key=lambda pair: (pair[0].value.real, pair[0].value.imag))
    return out


def _derivative_chain(p):
    chain = [p]
    while chain[-1].degree > 0:
        chain.append(chain[-1].derivative())
    return chain


def _link(points, radius):
    """Single-linkage clustering of complex points, as lists of indices."""
    groups = []
    for i, z in enumerate(points):
        for group in groups:
            if any(abs(z - points[j]) <= radius(z) + radius(points[j]) for j in group):
                group.append(i)
                break
        else:
            groups.append([i])
    return groups


def _polish(derivs, z0, m):
    """Newton on the (m-1)-th derivative, where an m-fold root is simple."""
    q = derivs[m - 1]
    dq = derivs[m]
    z = z0
    for _ in range(60):
        dv = dq(z)
        if dv == 0:
            break
        step = q(z) / dv
        z -= step
        if abs(z - z0) > 0.5 * (1.0 + abs(z0)):
            return z0  # diverged; keep the centroid
        if abs(step) <= 1e-15 * (1.0 + abs(z)):
            break
    return z


def _coeff_scale(p, z):
    x = max(1.0, abs(z))
    return float(np.sum(np.abs(p.coeffs) * x ** np.arange(len(p.coeffs))))


def _is_multiple_root(derivs, z, m):
    """True when z annihilates p and its first m-1 derivatives to rounding level."""
    return all(abs(derivs[j](z)) <= 1e-8 * _coeff_scale(derivs[j], z) for j in range(m))


def _escalate(pm, derivs, clusters, cluster_scale):
    """Merge clusters whose scatter exceeds the base radius.

    The companion-matrix scatter of an m-fold root can be far wider than the
    base linkage radius (eps^(1/m)).  Candidate merges at coarser radii are
    accepted only when the polished center passes the derivative test for the
    merged multiplicity, so nearby distinct roots are left alone.
    """
    scale = cluster_scale * 10.0
    while scale <= 2e-3:
        centers = [complex(np.mean(g)) for g in clusters]
        candidates = _link(centers, lambda z: scale * (1.0 + abs(z)))
        if any(len(c) > 1 for c in candidates):
            regrouped = []
            changed = False
            for cand in candidates:
                groups = [clusters[i] for i in cand]
                merged = [z for g in groups for z in g]
                if len(cand) > 1:
                    m = len(merged)
                    polished = _polish(derivs, complex(np.mean(merged)), m)
                    if _is_multiple_root(derivs, polished, m):
                        regrouped.append(merged)
                        changed = True
                        continue
                regrouped.extend(groups)
            if changed:
                clusters = regrouped
        scale *= 10.0
    return clusters


def series_divide(num, den, order):
    """Leading power-series coefficients of num(x)/den(x) around x = 0.

    Requires den(0) != 0.  Returns an ndarray c of length order+1 with
    num/den = sum c_j x^j + O(x^(order+1)).  The long-division recurrence
    c_j = (n_j - sum_{i=1..min(j, D)} d_i c_{j-i}) / d_0 only reaches back
    D = deg den coefficients, so the cost is O(order * D), not O(order^2).

    A dense denominator (more than _BLOCK coefficients kept, such as the
    binomial series of (1-x)^alpha at a non-integer alpha) is divided in
    blocks of _BLOCK coefficients: the recurrence gives the first block, and
    each later block is two numpy convolutions, one over the coefficients
    found so far, so past the first block the O(order^2) multiply-adds run in
    numpy, not in Python.
    Coefficient j depends on n_0..n_j and d_0..d_j only, never on ``order``.
    """
    nc = _coeffs_of(num)[: order + 1]
    dc = _coeffs_of(den)[: order + 1]
    if dc[0] == 0:
        raise ZeroDivisionError("series division needs den(0) != 0")
    if len(dc) > _BLOCK:
        return _blocked_divide(nc, dc, order)
    return _recurrence(nc, dc, order + 1)


def _recurrence(nc, dc, count):
    """The first ``count`` coefficients of nc/dc by the long-division recurrence."""
    d0 = complex(dc[0])
    tail = dc[1:].tolist()  # d_1 .. d_D
    n = nc[:count].tolist() + [0j] * (count - len(nc))
    c = []
    for nj in n:
        # map stops at the shorter side: d_i pairs with c_{j-i}, i <= min(j, D)
        c.append((nj - sum(map(mul, tail, reversed(c)), start=0j)) / d0)
    return np.array(c, dtype=complex)


def _blocked_divide(nc, dc, order):
    """series_divide for more than _BLOCK denominator coefficients.

    Block [s, s+B) solves the lower-triangular Toeplitz system of d_0..d_{B-1}
    with right side n_j - sum_{t<s} d_{j-t} c_t (the history, one 'valid'
    convolution).  Its inverse is the Toeplitz matrix H of h, the first B
    coefficients of 1/den, applied as the causal convolution h * rhs: row i
    of H @ rhs without H's zero upper triangle, so an inf in a later row of
    the right side cannot make an earlier row nan (0 * inf).  The last block
    is padded to a whole B, so no coefficient depends on ``order``.
    """
    B = _BLOCK
    total = -(-(order + 1) // B) * B
    n = np.zeros(total, dtype=complex)
    n[: len(nc)] = nc
    d = np.zeros(total, dtype=complex)
    d[: len(dc)] = dc
    c = np.empty(total, dtype=complex)
    h = _recurrence(np.ones(1, dtype=complex), dc[:B], B)
    # over a numerator of 1 the first block is h itself, bit for bit
    c[:B] = h if len(nc) == 1 and nc[0] == 1 else _recurrence(nc, dc[:B], B)
    # values past the float64 range leave inf and nan for the caller to reject
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(B, total, B):
            rhs = n[s : s + B] - np.convolve(c[:s], d[1 : s + B], mode="valid")
            c[s : s + B] = np.convolve(h, rhs)[:B]
    return c[: order + 1]


def factor_divide(c, q):
    """c(x) / q(x) as a power series, to as many coefficients as c has.

    c and q are ndarrays, q the ascending coefficients of a polynomial of
    degree 1 or 2 with q(0) != 0.  Real c and q are divided in float64 and
    give a float array, anything else a complex one.  A series of up to
    _LOOP_MAX coefficients runs the recurrence
    y_j = (c_j - q_1 y_{j-1} - q_2 y_{j-2}) / q_0.  A longer one runs in
    blocks of B coefficients (B <= _BLOCK, see _GROWTH): h, the first B
    coefficients of 1/q, comes from the recurrence; each block's response to
    its own coefficients of c is its product with the Toeplitz matrix of h,
    one matmul for all blocks; and a scan over the blocks carries the last two
    values of each into the next, whose response to them is fixed by q and h.
    Past the first coefficient of c outside the float64 range the result is
    nan, where the recurrence leaves it non-finite too.
    """
    dtype = np.result_type(c.dtype, q.dtype)
    q0, q1, q2 = (q.tolist() + [0.0])[:3]
    if len(c) <= _LOOP_MAX:
        return np.array(_filter(c.tolist(), q0, q1, q2), dtype=dtype)
    h = np.array(_filter([1.0] + [0.0] * (_BLOCK - 1), q0, q1, q2), dtype=dtype)
    tame = np.abs(h) <= _GROWTH * abs(h[0])  # false on inf and nan too
    B = _BLOCK if tame.all() else int(np.argmin(tame))
    finite = np.isfinite(c)
    stop = len(c) if finite.all() else int(np.argmin(finite))
    out = np.full(len(c), np.nan, dtype=dtype)
    if stop <= _LOOP_MAX or B < _MIN_BLOCK:
        out[:stop] = _filter(c[:stop].tolist(), q0, q1, q2)
        return out
    h = h[:B]
    blocks = -(-stop // B)
    x = np.zeros(blocks * B, dtype=dtype)
    x[:stop] = c[:stop]
    lag = np.arange(B) - np.arange(B)[:, None]
    # values past the float64 range leave inf and nan for the caller to reject
    with np.errstate(over="ignore", invalid="ignore"):
        # each block from zero state: its x times T, T[i, j] = h[j - i] for j >= i
        y = x.reshape(blocks, B) @ np.where(lag >= 0, h[lag], 0.0)
        # a block's y_s, y_{s+1}, ... from the y_{s-1} and y_{s-2} before it
        response = np.stack([-(q1 * h + q2 * np.concatenate(([0.0], h[:-1]))), -q2 * h])
        (a2, a1), (b2, b1) = response[:, -2:].tolist()
        y1 = y2 = 0.0
        carried = [0.0, 0.0]
        for z1, z2 in zip(y[:-1, -1].tolist(), y[:-1, -2].tolist()):
            y1, y2 = z1 + a1 * y1 + b1 * y2, z2 + a2 * y1 + b2 * y2
            carried += (y1, y2)
        y += np.array(carried, dtype=dtype).reshape(blocks, 2) @ response
    out[:stop] = y.ravel()[:stop]
    return out


def _filter(x, q0, q1, q2):
    """y_j = (x_j - q1 y_{j-1} - q2 y_{j-2}) / q0 over the list x, from zero state."""
    y1 = y2 = 0.0
    out = []
    for xj in x:
        y1, y2 = (xj - q1 * y1 - q2 * y2) / q0, y1
        out.append(y1)
    return out
