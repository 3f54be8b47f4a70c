"""Sparse complex polynomials in n variables.

Coefficients are stored in a dict keyed by exponent tuples; zero
coefficients are never stored.  An exponent of 0 on an axis means that
axis contributes a factor 1.
"""

import cmath

import numpy as np

from . import multiindex as mi
from .errors import DimensionMismatch, RangeError


class Polynomial:
    """A finite map from exponent tuples to complex coefficients.

    Instances are treated as immutable: every operation returns a new
    polynomial and the coefficient dict is never mutated after
    construction.
    """

    __slots__ = ("dim", "coeffs")

    def __init__(self, dim, coeffs=None):
        self.dim = int(dim)
        if self.dim < 1:
            raise ValueError("dimension must be a positive integer")
        clean = {}
        for alpha, c in (coeffs or {}).items():
            alpha = mi.validate(alpha, self.dim)
            c = complex(c)
            if c != 0:
                clean[alpha] = clean.get(alpha, 0j) + c
        self.coeffs = clean

    @classmethod
    def _trusted(cls, dim, coeffs):
        """Wrap a coefficient dict that the package built itself.

        The keys must already be exponent tuples of length ``dim`` and the
        values Python complex numbers, so the per-entry validation of
        :meth:`__init__`, which guards outside input, is skipped; exact
        zeros are still removed.
        """
        self = object.__new__(cls)
        self.dim = dim
        self.coeffs = {a: c for a, c in coeffs.items() if c != 0}
        return self

    @classmethod
    def constant(cls, dim, value):
        return cls(dim, {mi.zero(dim): value})

    @classmethod
    def monomial(cls, dim, alpha, coeff=1.0):
        return cls(dim, {tuple(alpha): coeff})

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return f"Polynomial(dim={self.dim}, terms={len(self.coeffs)})"

    def degree(self):
        """Largest total degree present; 0 for the zero polynomial."""
        return max((mi.degree(a) for a in self.coeffs), default=0)

    def items_graded(self):
        """Coefficient items sorted in graded-lex order."""
        return sorted(self.coeffs.items(), key=lambda kv: mi.grlex_key(kv[0]))

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        if other.dim != self.dim:
            raise DimensionMismatch("polynomial dimensions differ")
        out = dict(self.coeffs)
        for alpha, c in other.coeffs.items():
            out[alpha] = out.get(alpha, 0j) + c
        return Polynomial._trusted(self.dim, out)

    def __neg__(self):
        return Polynomial._trusted(self.dim, {a: -c for a, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if other.dim != self.dim:
                raise DimensionMismatch("polynomial dimensions differ")
            out = {}
            get = out.get
            add = mi.add
            for a1, c1 in self.coeffs.items():
                for a2, c2 in other.coeffs.items():
                    key = add(a1, a2)
                    out[key] = get(key, 0j) + c1 * c2
            return Polynomial._trusted(self.dim, out)
        scalar = complex(other)
        return Polynomial._trusted(self.dim, {a: c * scalar for a, c in self.coeffs.items()})

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, power):
        if not isinstance(power, int) or power < 0:
            raise ValueError("polynomial power must be a nonnegative integer")
        result = Polynomial.constant(self.dim, 1.0)
        base = self
        while power:
            if power & 1:
                result = result * base
            base = base * base if power > 1 else base
            power >>= 1
        return result

    def conjugate(self):
        return Polynomial._trusted(self.dim, {a: c.conjugate() for a, c in self.coeffs.items()})

    def differentiate(self, axis):
        """Partial derivative along one axis."""
        out = {}
        for alpha, c in self.coeffs.items():
            k = alpha[axis]
            if k:
                beta = alpha[:axis] + (k - 1,) + alpha[axis + 1:]
                out[beta] = out.get(beta, 0j) + k * c
        return Polynomial._trusted(self.dim, out)

    def monomial_times(self, alpha):
        alpha = mi.validate(alpha, self.dim)
        return Polynomial._trusted(
            self.dim, {mi.add(a, alpha): c for a, c in self.coeffs.items()}
        )

    def substitute_affine(self, matrix=None, offset=None):
        """Expand p(M x + c) back into monomials.

        ``matrix`` is an n-by-n real or complex array (identity when None)
        and ``offset`` a length-n vector (zero when None).  Used for both
        linear changes of variables and translations.  Each monomial's
        image is its graded parent's image (one less on the first nonzero
        axis) times one degree-1 line, so every image costs one product.
        """
        n = self.dim
        matrix = np.eye(n) if matrix is None else np.asarray(matrix)
        if matrix.shape != (n, n):
            raise DimensionMismatch("substitution matrix has wrong shape")
        offset = np.zeros(n) if offset is None else np.asarray(offset)
        if offset.shape != (n,):
            raise DimensionMismatch("substitution offset has wrong length")

        # Degree-1 polynomial substituted for each variable.
        zero = mi.zero(n)
        lines = [
            Polynomial(n, {zero: offset[j], **{mi.unit(n, k): matrix[j, k] for k in range(n)}})
            for j in range(n)
        ]
        images = {zero: Polynomial._trusted(n, {zero: 1 + 0j})}

        def image(alpha):
            poly = images.get(alpha)
            if poly is None:
                axis = next(j for j, e in enumerate(alpha) if e)
                parent = alpha[:axis] + (alpha[axis] - 1,) + alpha[axis + 1:]
                poly = images[alpha] = image(parent) * lines[axis]
            return poly

        out = {}
        for alpha, c in self.coeffs.items():
            for beta, v in image(alpha).coeffs.items():
                out[beta] = out.get(beta, 0j) + c * v
        return Polynomial._trusted(n, out)

    def gaussian_smooth(self, sigma):
        """The Gaussian moment operator exp(1/2 grad . Sigma grad) applied to p.

        For Sigma symmetric positive definite this is x |-> E p(x + Z) with
        Z ~ N(0, Sigma) (Isserlis/Wick moments); the same series defines it
        for any real n-by-n ``sigma``, of which only the symmetric part
        acts.  Each step of the series lowers the degree by two, so it ends
        after floor(deg / 2) steps, and H_A H_B = H_(A+B).
        """
        n = self.dim
        sigma = np.asarray(sigma, dtype=float)
        if sigma.shape != (n, n):
            raise DimensionMismatch("smoothing matrix has wrong shape")
        # 1/2 grad.Sigma grad = sum_j Sigma_jj/2 d_j^2 + sum_{j<k} Sigma_jk d_j d_k.
        steps = []
        for j in range(n):
            for k in range(j, n):
                weight = sigma[j, j] / 2.0 if j == k else (sigma[j, k] + sigma[k, j]) / 2.0
                if weight != 0.0:
                    drop = [0] * n
                    drop[j] -= 1
                    drop[k] -= 1
                    steps.append((j, k, float(weight), tuple(drop)))
        out = dict(self.coeffs)
        layer = self.coeffs
        m = 0
        while layer and steps:
            m += 1
            nxt = {}
            for alpha, c in layer.items():
                for j, k, weight, drop in steps:
                    falling = alpha[j] * (alpha[k] - 1 if j == k else alpha[k])
                    if falling > 0:
                        beta = mi.add(alpha, drop)
                        nxt[beta] = nxt.get(beta, 0j) + c * (weight * falling / m)
            layer = nxt
            for beta, v in layer.items():
                out[beta] = out.get(beta, 0j) + v
        return Polynomial._trusted(n, out)

    def drop_small(self, rel_threshold):
        """Remove coefficients below rel_threshold times the largest one.

        Raises RangeError if a coefficient is not finite: the relative cut
        would silently drop it, or keep it and drop everything else.
        """
        if not self.coeffs:
            return self
        if not all(map(cmath.isfinite, self.coeffs.values())):
            raise RangeError("a polynomial coefficient is outside the floating-point range")
        biggest = max(abs(c) for c in self.coeffs.values())
        cut = rel_threshold * biggest
        kept = {a: c for a, c in self.coeffs.items() if abs(c) >= cut}
        return self if len(kept) == len(self.coeffs) else Polynomial._trusted(self.dim, kept)

    def evaluate(self, point):
        point = np.asarray(point)
        if point.shape != (self.dim,):
            raise DimensionMismatch("evaluation point has wrong length")
        total = 0j
        for alpha, c in self.coeffs.items():
            v = c
            for j, e in enumerate(alpha):
                if e:
                    v = v * point[j] ** e
            total += v
        return total

    def evaluate_many(self, points):
        """Vectorized evaluation at an (m, n) array of points."""
        pts = np.asarray(points, dtype=complex)
        out = np.zeros(pts.shape[0], dtype=complex)
        for alpha, c in self.coeffs.items():
            mono = np.full(pts.shape[0], c, dtype=complex)
            for j, e in enumerate(alpha):
                if e:
                    mono *= pts[:, j] ** e
            out += mono
        return out
