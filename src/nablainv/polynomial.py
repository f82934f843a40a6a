"""Complex polynomial arithmetic and root finding with multiplicity clustering."""

import cmath
import math
from dataclasses import dataclass
from operator import mul

import numpy as np
import numpy.polynomial.polynomial as npoly
from numpy.lib.stride_tricks import as_strided

# Roots within CLUSTER_SCALE * (1 + |root|) of each other are one root: the
# linkage radius of the root clusters and of pole-zero cancellation.
CLUSTER_SCALE = 1e-6
# series_divide runs a banded division on the long-division recurrence for the
# _HEAD coefficients from the numerator's first nonzero one, where a series costs
# less (0.1-0.3 us a coefficient against 60-150 us to set up blocks), and in
# blocks of _BLOCK past them.
_BLOCK = 64
_HEAD = 4 * _BLOCK
_SEED = 8

__all__ = [
    "CLUSTER_SCALE",
    "Polynomial",
    "RootCluster",
    "conjugate_pairs",
    "conjugate_product",
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
        roots = np.sort(np.asarray(list(roots), dtype=complex))
        if not roots.size:
            return cls([1.0])
        # npoly.polyfromroots' products, bit for bit, without its per-call
        # series checks: the sorted roots' linear factors, the halves
        # multiplied pairwise, an odd one out folded into the first product
        p = [np.array([-r, 1]) for r in roots]
        while len(p) > 1:
            m = len(p) // 2
            tmp = [np.convolve(p[i], p[i + m]) for i in range(m)]
            if len(p) % 2:
                tmp[0] = np.convolve(tmp[0], p[-1])
            p = tmp
        coeffs = p[0]
        if np.array_equal(roots, np.sort(roots.conj())):
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

    def __mul__(self, other):
        return Polynomial(np.convolve(self.coeffs, _coeffs_of(other)))

    __rmul__ = __mul__

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


def conjugate_pairs(keys):
    """(i, j), i < j, in the order of j, for each pair of keys (tuple of
    numbers, tag) whose tuples are complex and exact conjugates of each
    other, with equal tags: key j pairs with the first unpaired such key
    before it.  A key is a factor's coefficients, or a summand's constant
    and factor coefficients (``parsing._read_chain``)."""
    pairs, unpaired = [], {}  # unpaired: the conjugate of a key -> its indices
    for j, (q, tag) in enumerate(keys):
        if not any(x.imag for x in q):
            continue
        if unpaired.get((q, tag)):
            pairs.append((unpaired[q, tag].pop(0), j))
        else:
            unpaired.setdefault((tuple(x.conjugate() for x in q), tag), []).append(j)
    return pairs


def conjugate_product(q):
    """The coefficients of q times its conjugate polynomial q-bar (q's
    coefficients conjugated), from q's as Python numbers, as Python floats.

    Each is a sum over i + j = k of Re(q_i conj q_j) = q_i.re q_j.re +
    q_i.im q_j.im, the same number for (i, j) and (j, i), so the product is
    exactly real: a complex np.convolve may fuse the multiply-adds of its dot
    kernel and leave an imaginary part of rounding.  For s - p it is s^2 -
    2 Re(p) s + |p|^2.
    """
    q = [complex(x) for x in q]
    n = len(q)
    return [sum(q[i].real * q[k - i].real + q[i].imag * q[k - i].imag
                for i in range(max(0, k - n + 1), min(k, n - 1) + 1))
            for k in range(2 * n - 1)]


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


def roots_with_multiplicities(p):
    """All complex roots of ``p`` with multiplicities.

    Companion-matrix eigenvalues seed the estimates.  An m-fold root scatters
    its eigenvalues on a circle of radius ~eps^(1/m) around the true root, so
    raw eigenvalues are clustered (single linkage at CLUSTER_SCALE times
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
                for g in _link(raw, lambda z: CLUSTER_SCALE * (1.0 + abs(z)))]
    clusters = _escalate(pm, derivs, clusters)

    out = []
    for group in clusters:
        center = complex(np.mean(group))
        if real and abs(center.imag) <= CLUSTER_SCALE * (1.0 + abs(center)):
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


def factor_roots(p):
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
        return roots_with_multiplicities(p)
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


def pool_roots(groups):
    """Merge the roots of several factors into one sorted cluster list.

    ``groups`` holds one RootCluster list per factor.  Roots within the
    linkage radius CLUSTER_SCALE * (1 + |root|) of each other, from one
    factor or from several, become one cluster at their multiplicity-weighted
    mean, carrying the summed multiplicity.  Returns (RootCluster, members)
    pairs, members being the (group index, RootCluster) pairs merged into it,
    sorted by the cluster's real, then imaginary part.
    """
    flat = [(i, rc) for i, group in enumerate(groups) for rc in group]
    values = [rc.value for _, rc in flat]
    out = []
    for idx in _link(values, lambda z: CLUSTER_SCALE * (1.0 + abs(z))):
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


def _escalate(pm, derivs, clusters):
    """Merge clusters whose scatter exceeds the base radius.

    The companion-matrix scatter of an m-fold root can be far wider than the
    base linkage radius (eps^(1/m)).  Candidate merges at coarser radii are
    accepted only when the polished center passes the derivative test for the
    merged multiplicity, so nearby distinct roots are left alone.
    """
    scale = CLUSTER_SCALE * 10.0
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
    num/den = sum c_j x^j + O(x^(order+1)): the long-division recurrence
    c_j = (n_j - sum_{i=1..min(j, D)} d_i c_{j-i}) / d_0 (D = deg den, summed
    from d_1 up) on its first _HEAD coefficients from the numerator's first
    nonzero one, or its first _SEED for a dense den of more than _BLOCK
    coefficients (the binomial series of (1-x)^alpha at a non-integer alpha),
    and the same sums in another order in numpy blocks past them:
    O(order * _BLOCK) for a banded den (_banded_divide), O(order^2) for a
    dense one (_blocked_divide).  The blocks depend on den and on where the
    numerator starts, never on ``order``, so within one dtype c_j depends on
    n_0..n_j and den only.  Past a numerator coefficient out of range the
    blocks give nan.  Real inputs are divided in float64 and give a float
    array, anything else a complex one (a ``Polynomial`` is complex).
    """
    nc = np.asarray(num.coeffs if isinstance(num, Polynomial) else num).ravel()
    dc = np.asarray(den.coeffs if isinstance(den, Polynomial) else den).ravel()
    dtype = np.result_type(nc.dtype, dc.dtype, np.float64)
    dense = len(dc) > _BLOCK
    nc = nc[: order + 1].astype(dtype, copy=False)
    dc = dc[: order + 1].astype(dtype, copy=False)
    if dc[0] == 0:
        raise ZeroDivisionError("series division needs den(0) != 0")
    return (_blocked_divide if dense else _banded_divide)(nc, dc, order)


def _recurrence(nc, dc, count):
    """The first ``count`` coefficients of nc/dc by the long-division recurrence,
    in the dtype of nc and dc (both float64 or both complex128); unrolled up to
    D = 2, where its terms past min(j, D) add zeros to a sum that is not -0,
    so each value before the first one out of range is the same."""
    d0, *tail = dc.tolist()  # tail: d_1 .. d_D
    zero = 0j if dc.dtype.kind == "c" else 0.0
    n = nc[:count].tolist() + [zero] * (count - len(nc))
    c = []
    if len(tail) > 2:
        for nj in n:
            # map stops at the shorter side: d_i pairs with c_{j-i}, i <= min(j, D)
            c.append((nj - sum(map(mul, tail, reversed(c)), start=zero)) / d0)
    elif len(tail) == 2:
        (d1, d2), y1, y2 = tail, zero, zero
        for nj in n:
            y1, y2 = (nj - (zero + d1 * y1 + d2 * y2)) / d0, y1
            c.append(y1)
    else:
        d1, y1 = (tail or [zero])[0], zero
        for nj in n:
            y1 = (nj - (zero + d1 * y1)) / d0
            c.append(y1)
    return np.array(c, dtype=dc.dtype)


def _blocked_divide(nc, dc, order):
    """series_divide for a dense denominator: block forward substitution.

    Block [s, s+m) solves the lower-triangular Toeplitz system of d_0..d_{m-1}
    with right side n_j - sum_{t<s} d_{j-t} c_t (one 'valid' convolution) as
    the causal convolution h * rhs, h the first m coefficients of 1/den, so an
    inf in a later row cannot make an earlier one nan (0 * inf).  The
    recurrence gives c and h to _SEED coefficients; the blocks start at m = s,
    so each needs only the h found so far, and h doubles by the same step with
    a right side of 0 (Brent and Kung's doubling of 1/den): blocks of _SEED,
    2 _SEED, ... up to _BLOCK, then _BLOCK each, the last padded, so no
    coefficient depends on ``order``.  Over a numerator of 1, c is h.
    """
    total = _SEED
    while total <= order:
        total += min(total, _BLOCK)
    n = np.zeros(total, dtype=dc.dtype)
    n[: len(nc)] = nc
    d = np.zeros(total, dtype=dc.dtype)
    d[: len(dc)] = dc
    c = np.empty(total, dtype=dc.dtype)
    unit = len(nc) == 1 and nc[0] == 1
    h = _recurrence(np.ones(1, dtype=dc.dtype), d[:_SEED], _SEED)
    c[:_SEED] = h if unit else _recurrence(nc, d[:_SEED], _SEED)
    # values past the float64 range leave inf and nan for the caller to reject
    with np.errstate(over="ignore", invalid="ignore"):
        s = _SEED
        while s < total:
            m = min(s, _BLOCK)
            if unit:
                h = c[:m]
            elif len(h) < m:
                h = np.concatenate((h, _block(0.0, h, d, h)))
            c[s : s + m] = _block(n[s : s + m], c[:s], d, h)
            s += m
    return c[: order + 1]


def _block(rhs, known, d, h):
    """The len(h) coefficients after ``known`` of the series over d whose
    next right-hand sides are ``rhs``, h the start of 1/d."""
    s, m = len(known), len(h)
    return np.convolve(h, rhs - np.convolve(known, d[1 : s + m], mode="valid"))[:m]


def _banded_divide(nc, dc, order):
    """series_divide for a banded denominator d_0..d_D: the recurrence for
    _HEAD coefficients from the numerator's first nonzero one (all of them for
    a zero numerator), then blocks of _BLOCK.  A 1/den that leaves float64
    within one block grows by about 7e4 a step or more, so with d_D = +-1 (a
    shifted monic factor) a nonzero series over it leaves float64 on the
    recurrence, within about 130 coefficients of its start.

    Block s on is y_(s+t) = (h * x)_t + sum_i R_i[t] y_(s-i), h the first
    _BLOCK coefficients of 1/den and R_i = -(h * (d_i, ..., d_D)): its response
    to its numerator values x (one product for all blocks) and to the D values
    before it, which a scan carries along.  Inverting a block's Toeplitz matrix
    by h loses digits where it is ill-conditioned (up to 40 times the
    recurrence's error at degree 63), so past degree 2 one step of iterative
    refinement adds the residual x - den * y divided in the same blocks.
    Products run on 16-block stacks."""
    start = 0 if nc[0] != 0 else int(next(iter(np.flatnonzero(nc)), order + 1))
    end = start + _HEAD
    if order < end:
        return _recurrence(nc, dc, order + 1)
    B, h = _BLOCK, _recurrence(np.ones(1, dtype=dc.dtype), dc, _BLOCK)
    head, rest = _recurrence(nc, dc, end), order + 1 - end
    blocks = -(-rest // (16 * B)) * 16  # whole stacks: one product shape at any order
    x, stop = _finite_part(nc[end:], blocks * B)
    d = np.concatenate((dc, np.zeros(max(3 - len(dc), 0), dtype=dc.dtype)))  # D >= 2
    D = len(d) - 1
    padded = np.concatenate((np.zeros(B - 1, dtype=h.dtype), h))  # T[i, j] = h[j - i]
    toeplitz = as_strided(padded[B - 1 :], (B, B), (-padded.itemsize, padded.itemsize)).copy()
    response = -np.array([np.convolve(h, d[i:])[:B] for i in range(1, D + 1)])
    rows = response[:, : -D - 1 : -1].T.tolist()  # a block's last D values, latest first

    def solve(x, state):  # past the head, from the y_(s-1), ..., y_(s-D) before it
        y = _product(x.reshape(-1, 16, B), toeplitz).reshape(blocks, B)
        carried = list(state)
        if D == 2:
            ((a1, b1), (a2, b2)), (y1, y2) = rows, state
            for z1, z2 in y[:-1, -1:-3:-1].tolist():
                y1, y2 = z1 + a1 * y1 + b1 * y2, z2 + a2 * y1 + b2 * y2
                carried += (y1, y2)
        else:
            for z in y[:-1, : -D - 1 : -1].tolist():
                state = [zi + sum(map(mul, row, state)) for zi, row in zip(z, rows)]
                carried += state
        y += _product(np.reshape(carried, (-1, 16, D)), response).reshape(blocks, B)
        return y.ravel()

    # values past the float64 range leave inf and nan for the caller to reject
    with np.errstate(over="ignore", invalid="ignore"):
        y = solve(x, head[::-1][:D].tolist())
        if len(dc) > 3:
            r = x[:rest] - np.convolve(np.concatenate((head, y[:rest])), dc)[end : order + 1]
            y += solve(_finite_part(r, blocks * B)[0], [0.0] * D)
    out = np.concatenate((head, y[:rest]))
    out[end + stop :] = np.nan
    return out


def _finite_part(v, size):
    """v padded to ``size`` and zero from its first value out of range on (which
    a block product would spread as 0 * inf), and that index, or ``size``."""
    finite = np.isfinite(v)
    stop = size if finite.all() else int(np.argmin(finite))
    out = np.zeros(size, dtype=v.dtype)
    out[: min(stop, len(v))] = v[:stop]
    return out, stop


def _product(a, b):
    """a @ b over a stack of 16-row matrices, each at most _BLOCK^3 real
    multiply-adds, which OpenBLAS runs on one thread; a complex one as a real
    one on [real, imaginary] pairs, as OpenBLAS threads small complex ones."""
    if a.dtype.kind != "c":
        return a @ b
    k, m = b.shape
    # (x + iy)(u + iv) = (xu - yv) + i(xv + yu): [x, y] times [[u, v], [-v, u]]
    pairs = np.stack((b, 1j * b), 1).view(float).reshape(2 * k, 2 * m)
    return (a.view(float) @ pairs).view(complex)
