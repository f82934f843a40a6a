"""Complex polynomial arithmetic and root finding with multiplicity clustering."""

from dataclasses import dataclass
from operator import mul

import numpy as np
import numpy.polynomial.polynomial as npoly

DEFAULT_CLUSTER_SCALE = 1e-6

__all__ = [
    "DEFAULT_CLUSTER_SCALE",
    "Polynomial",
    "RootCluster",
    "roots_with_multiplicities",
    "series_divide",
]


class Polynomial:
    """Dense polynomial over the complex numbers, coefficients in ascending degree.

    Trailing zero coefficients are trimmed at construction, so ``degree`` is
    always the index of the last nonzero coefficient; the zero polynomial is
    stored as a single zero coefficient.  Instances are immutable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.atleast_1d(np.asarray(coeffs, dtype=complex)).ravel()
        nz = np.flatnonzero(c != 0)
        c = c[: nz[-1] + 1].copy() if nz.size else np.zeros(1, dtype=complex)
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def from_roots(cls, roots):
        """Monic polynomial with the given roots (repeats allowed)."""
        roots = list(roots)
        if not roots:
            return cls([1.0])
        return cls(npoly.polyfromroots(roots))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return self.degree == 0 and self.coeffs[0] == 0

    def is_constant(self):
        return self.degree == 0

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
        return Polynomial(self.coeffs / self.coeffs[-1])

    def compose(self, inner):
        """The polynomial self(inner(x)), computed exactly by Horner."""
        acc = Polynomial([0.0])
        for c in self.coeffs[::-1]:
            acc = acc * inner + Polynomial([c])
        return acc

    def shifted(self, center):
        """Coefficients of self(center + t) as a polynomial in t."""
        return self.compose(Polynomial([center, 1.0]))

    def in_one_minus_w(self):
        """Coefficients of self(1 - w) as a polynomial in w."""
        return self.compose(Polynomial([1.0, -1.0]))

    def __add__(self, other):
        return Polynomial(npoly.polyadd(self.coeffs, _coeffs_of(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return Polynomial(npoly.polysub(self.coeffs, _coeffs_of(other)))

    def __rsub__(self, other):
        return Polynomial(npoly.polysub(_coeffs_of(other), self.coeffs))

    def __mul__(self, other):
        return Polynomial(npoly.polymul(self.coeffs, _coeffs_of(other)))

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
        return hash(self.coeffs.tobytes())

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

    Raises ValueError for constant input.  The multiplicities always sum to
    ``p.degree``.
    """
    if p.degree < 1:
        raise ValueError("root finding needs degree >= 1")
    pm = p.monic()
    raw = np.sort_complex(npoly.polyroots(pm.coeffs))
    derivs = _derivative_chain(pm)

    clusters = _link(list(raw), lambda z: cluster_scale * (1.0 + abs(z)))
    clusters = _escalate(pm, derivs, clusters, cluster_scale)

    out = []
    for group in clusters:
        center = complex(np.mean(group))
        m = len(group)
        z = _polish(derivs, center, m)
        if abs(z.imag) <= 1e-12 * (1.0 + abs(z.real)):
            z = complex(z.real, 0.0)  # drop eigenvalue dust on real roots
        out.append(RootCluster(z, m))
    out.sort(key=lambda rc: (rc.value.real, rc.value.imag))
    return out


def _derivative_chain(p):
    chain = [p]
    while chain[-1].degree > 0:
        chain.append(chain[-1].derivative())
    return chain


def _link(points, radius):
    """Single-linkage clustering of complex points."""
    clusters = []
    for z in points:
        placed = False
        for group in clusters:
            if any(abs(z - g) <= radius(z) + radius(g) for g in group):
                group.append(z)
                placed = True
                break
        if not placed:
            clusters.append([z])
    return clusters


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
                groups = [clusters[centers.index(c)] for c in cand]
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
    """
    nc = _coeffs_of(num)[: order + 1]
    dc = _coeffs_of(den)[: order + 1]
    if dc[0] == 0:
        raise ZeroDivisionError("series division needs den(0) != 0")
    d0 = complex(dc[0])
    tail = dc[1:].tolist()  # d_1 .. d_D
    n = nc.tolist() + [0j] * (order + 1 - len(nc))
    c = []
    for nj in n:
        # map stops at the shorter side: d_i pairs with c_{j-i}, i <= min(j, D)
        c.append((nj - sum(map(mul, tail, reversed(c)), start=0j)) / d0)
    return np.array(c, dtype=complex)
