"""Dense real linear algebra: SPD quadratic forms and changes of variables.

Positive-definiteness is certified by a successful Cholesky factorization
with all pivots above a relative floor; the factor is cached and reused
for determinants and inverses.  The spectrum is computed once, on demand,
where only the eigenvalues will do: sizing quadrature boxes and guarding
the derivative-basis conversion against ill-conditioned forms.
"""

import numpy as np

from .errors import DimensionMismatch, SingularMap, SpdError

PIVOT_REL_TOL = 1e-12
SINGULAR_REL_TOL = 1e-12


def _freeze(a):
    a.setflags(write=False)
    return a


class SpdForm:
    """A symmetric positive-definite quadratic form on R^n.

    Parameters
    ----------
    entries : array_like
        n-by-n real matrix.  Must be symmetric to within 1e-12 relative;
        the stored copy is symmetrized exactly.

    Raises
    ------
    SpdError
        If the matrix is not square, not finite, not symmetric, or any
        Cholesky pivot falls below ``PIVOT_REL_TOL`` times the largest
        diagonal entry.
    """

    __slots__ = ("dim", "entries", "chol", "det", "_inverse", "_eigenvalues")

    def __init__(self, entries):
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise SpdError(f"quadratic form must be a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise SpdError("quadratic form has non-finite entries")
        scale = np.max(np.abs(a)) if a.size else 0.0
        if scale == 0.0:
            raise SpdError("quadratic form is identically zero")
        if np.max(np.abs(a - a.T)) > 1e-12 * scale:
            raise SpdError("quadratic form matrix is not symmetric")
        # exact symmetry, no negative zeros; halved first, so no entry overflows
        self._factor(a / 2.0 + a.T / 2.0 + 0.0)

    @classmethod
    def _certified(cls, a):
        """The form of a sum or inverse of certified forms, which is square,
        exactly symmetric and unshared by construction: it is kept uncopied
        and only checked for finite entries (an inverse can overflow) and
        factored with the pivot floor."""
        if not np.isfinite(a).all():
            raise SpdError("quadratic form has non-finite entries")
        self = object.__new__(cls)
        self._factor(a)
        return self

    def _factor(self, a):
        try:
            L = np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            raise SpdError("matrix is not positive definite") from None
        pivots = np.diag(L) ** 2
        if np.min(pivots) <= PIVOT_REL_TOL * np.max(np.diag(a)):
            raise SpdError("matrix is numerically semidefinite (pivot below tolerance)")
        self.dim = a.shape[0]
        self.entries = _freeze(a)
        self.chol = _freeze(L)
        self.det = float(np.prod(np.diag(L)) ** 2)
        self._inverse = None
        self._eigenvalues = None

    def __repr__(self):
        return f"SpdForm(dim={self.dim}, det={self.det:.6g})"

    def inverse(self):
        """The inverse form inv(L)^T inv(L), from the cached Cholesky factor A = L L^T.

        The inverse remembers this form as its own inverse, so inverting
        twice returns this object.
        """
        if self._inverse is None:
            li = np.linalg.inv(self.chol)
            a = li.T @ li
            self._inverse = SpdForm._certified(a / 2.0 + a.T / 2.0 + 0.0)
            self._inverse._inverse = self
        return self._inverse

    def eigenvalues(self):
        """The eigenvalues in ascending order, computed once."""
        if self._eigenvalues is None:
            self._eigenvalues = _freeze(np.linalg.eigvalsh(self.entries))
        return self._eigenvalues

    def apply(self, v):
        """Matrix-vector product; accepts complex vectors."""
        return self.entries @ np.asarray(v)

    def bilinear(self, x, y=None):
        """The bilinear value x . A y (no conjugation), defaulting y = x."""
        x = np.asarray(x)
        y = x if y is None else np.asarray(y)
        return complex(x @ self.entries @ y)

    def __add__(self, other):
        if not isinstance(other, SpdForm):
            return NotImplemented
        if other.dim != self.dim:
            raise DimensionMismatch("quadratic form dimensions differ")
        return SpdForm._certified(self.entries + other.entries)

    def scaled(self, factor):
        if factor <= 0:
            raise SpdError("scale factor must be positive")
        return SpdForm(factor * self.entries)

    @classmethod
    def identity(cls, dim):
        return cls(np.eye(dim))


class LinearMap:
    """A real linear map on R^n with cached determinant and companions."""

    __slots__ = ("dim", "entries", "det", "_inverse", "_transpose")

    def __init__(self, entries):
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise DimensionMismatch(f"linear map must be a square matrix, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise SingularMap("linear map has non-finite entries")
        self.dim = a.shape[0]
        self.entries = _freeze(a)
        self.det = float(np.linalg.det(a))
        self._inverse = None
        self._transpose = None

    def __repr__(self):
        return f"LinearMap(dim={self.dim}, det={self.det:.6g})"

    @classmethod
    def identity(cls, dim):
        return cls(np.eye(dim))

    def is_invertible(self):
        scale = float(np.max(np.abs(self.entries)))
        if scale == 0.0:
            return False
        return abs(self.det) >= SINGULAR_REL_TOL * scale ** self.dim

    def inverse(self):
        if not self.is_invertible():
            raise SingularMap("linear map is singular at working precision")
        if self._inverse is None:
            self._inverse = LinearMap(np.linalg.inv(self.entries))
        return self._inverse

    def transpose(self):
        if self._transpose is None:
            self._transpose = LinearMap(self.entries.T)
        return self._transpose

    def inverse_transpose(self):
        """The frequency-side companion map, inv(transpose)."""
        return self.inverse().transpose()

    def apply(self, v):
        return self.entries @ np.asarray(v)
