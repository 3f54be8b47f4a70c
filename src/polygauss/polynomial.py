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
        linear changes of variables and translations.
        """
        n = self.dim
        if matrix is not None:
            matrix = np.asarray(matrix)
            if matrix.shape != (n, n):
                raise DimensionMismatch("substitution matrix has wrong shape")
        if offset is not None:
            offset = np.asarray(offset)
            if offset.shape != (n,):
                raise DimensionMismatch("substitution offset has wrong length")

        # Degree-1 polynomial substituted for each variable.
        zero = mi.zero(n)
        lines = []
        for j in range(n):
            coeffs = {}
            if offset is not None and offset[j] != 0:
                coeffs[zero] = complex(offset[j])
            for k in range(n):
                entry = 1.0 if matrix is None and k == j else (0.0 if matrix is None else matrix[j, k])
                if entry != 0:
                    coeffs[mi.unit(n, k)] = complex(entry)
            lines.append(Polynomial._trusted(n, coeffs))

        one = Polynomial._trusted(n, {zero: 1 + 0j})
        powers = [[one] for _ in range(n)]
        out = {}
        for alpha, c in self.coeffs.items():
            term = Polynomial._trusted(n, {zero: c})
            for j, e in enumerate(alpha):
                while len(powers[j]) <= e:
                    powers[j].append(powers[j][-1] * lines[j])
                if e:
                    term = term * powers[j][e]
            for beta, v in term.coeffs.items():
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
