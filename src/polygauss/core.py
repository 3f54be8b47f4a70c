"""Finite sums of polynomial-times-Gaussian terms and their exact algebra.

A term denotes the function

    x  |->  p(x) * exp(-pi * (x . Q x) + b . x)

with p a complex polynomial, Q symmetric positive definite and b a complex
vector; the dot is the bilinear sum (no conjugation), so evaluating at a
complex argument gives the holomorphic extension directly.  Sums of such
terms are closed under addition, products, conjugation, translation,
modulation, differentiation, monomial multiplication and invertible linear
substitution, and every operation here returns a canonical form: terms
with matching (Q, b) keys merged, negligible coefficients dropped.

With this storage convention the standard Gaussian exp(-pi * x . x) has
Q = identity and b = 0, which keeps the Fourier-transform bookkeeping in
:mod:`polygauss.transform` free of stray pi factors.
"""

import cmath
import math

import numpy as np

from . import multiindex as mi
from .errors import DimensionMismatch, RangeError, SingularMap
from .linalg import LinearMap, SpdForm, as_vector
from .polynomial import Polynomial

# Two term keys are "the same" when every entry agrees to this mix of
# absolute and relative tolerance; coefficients below COEFF_DROP_REL of a
# term's largest are discarded after each operation.
MERGE_ABS_TOL = 1e-12
MERGE_REL_TOL = 1e-12
COEFF_DROP_REL = 1e-12
# Largest total order |alpha| that differentiate accepts.
DIFF_MAX_ORDER = 100


def _as_complex_vector(v, dim):
    arr = as_vector(v, dim, "vector")
    if not all(map(cmath.isfinite, arr.tolist())):  # cheaper than numpy for short vectors
        raise RangeError(f"vector has non-finite entries: {arr}")
    out = np.array(arr, dtype=complex)
    out.setflags(write=False)
    return out


def _entries_close(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    tol = MERGE_ABS_TOL + MERGE_REL_TOL * np.maximum(np.abs(a), np.abs(b))
    return bool(np.all(np.abs(a - b) <= tol))


def exp_in_range(exponent, scale=1.0):
    """The term constant scale * exp(exponent), or RangeError.

    A constant that overflows, or underflows to 0 from a finite exponent,
    cannot be stored as a complex double; returning inf or silently
    dropping the term would both give a wrong function.
    """
    try:
        value = scale * cmath.exp(exponent)
    except OverflowError:
        value = complex(math.inf)
    if value == 0 or not cmath.isfinite(value):
        raise RangeError(
            f"term constant exp({exponent:.6g}) is outside the floating-point range"
        )
    return value


def _key_clusters(terms):
    """Group terms whose (quad, shift) keys match, as lists of positions.

    Terms are visited in raw-key sort order (lexicographic in the entries
    of Q, then Re b, then Im b); each joins the earliest cluster whose
    representative, its first member, passes ``key_matches``, or else
    starts a new cluster.  Clusters come out in the sort order of their
    representatives.

    Candidates are found through buckets of a generic projection k.w of
    the stacked keys, with width W = 2 sum(w) (abs + rel max|key|): two
    keys within tolerance project less than W/2 apart, so they sit in the
    same or adjacent buckets, and the result equals a sweep against every
    earlier representative.
    """
    if len(terms) <= 1:
        return [[i] for i in range(len(terms))]
    quads = np.array([t.quad.entries for t in terms]).reshape(len(terms), -1)
    shifts = np.array([t.shift for t in terms])
    scale = max(float(np.max(np.abs(quads))), float(np.max(np.abs(shifts))))
    if not math.isfinite(scale):
        raise RangeError("a term key is not finite")
    keys = np.hstack((quads, shifts.real, shifts.imag))
    # Weyl-sequence weights in [0.5, 1.5): fixed, positive and generic, so
    # that keys on a lattice do not project onto one value (all ones would).
    weights = 0.5 + np.modf(np.arange(1, keys.shape[1] + 1) * 0.6180339887498949)[0]
    width = 2.0 * float(np.sum(weights)) * (MERGE_ABS_TOL + MERGE_REL_TOL * scale)
    buckets = np.floor(keys @ weights / width).tolist()
    table = {}
    clusters = []
    for i in np.lexsort(keys.T[::-1]).tolist():
        b = buckets[i]
        home = None
        for near in (b - 1.0, b, b + 1.0):
            for c in table.get(near, ()):
                if (home is None or c < home) and terms[clusters[c][0]].key_matches(terms[i]):
                    home = c
        if home is None:
            table.setdefault(b, []).append(len(clusters))
            clusters.append([i])
        else:
            clusters[home].append(i)
    return clusters


def exact_sum(values):
    """The exactly rounded sum of a sequence of complex numbers, whatever their order."""
    return complex(math.fsum(v.real for v in values), math.fsum(v.imag for v in values))


def _sum_polys(dim, polys):
    """Exactly rounded sum, so the result does not depend on the order of polys."""
    if len(polys) == 1:
        return polys[0]
    parts = {}
    for p in polys:
        for alpha, c in p.coeffs.items():
            parts.setdefault(alpha, []).append(c)
    return Polynomial._trusted(
        dim,
        {alpha: cs[0] if len(cs) == 1 else exact_sum(cs) for alpha, cs in parts.items()},
    )


def _exponent_gradient(quad, shift, axis):
    """d/dx_j of the exponent: the degree-1 polynomial b_j - 2 pi (Qx)_j."""
    dim = quad.dim
    coeffs = {mi.zero(dim): complex(shift[axis])}
    row = quad.entries[axis]
    for k in range(dim):
        if row[k] != 0.0:
            coeffs[mi.unit(dim, k)] = complex(-2.0 * math.pi * row[k])
    return Polynomial._trusted(dim, coeffs)


def product_terms(left, right):
    """The raw term list of a product: one term per pair, keys added."""
    # Equal forms give equal sums, so each distinct sum is certified once.
    right_keys = [b.quad.entries.tobytes() for b in right]
    sums = {}
    out = []
    for a in left:
        a_key = a.quad.entries.tobytes()
        for b, b_key in zip(right, right_keys):
            quad = sums.get((a_key, b_key))
            if quad is None:
                quad = sums[a_key, b_key] = a.quad + b.quad
            out.append(GaussTerm(a.poly * b.poly, quad, a.shift + b.shift))
    return out


def conjugate_terms(terms):
    """The raw term list of the complex conjugate (see ``GaussPoly.conjugate``)."""
    return [GaussTerm(t.poly.conjugate(), t.quad, np.conj(t.shift)) for t in terms]


class GaussTerm:
    """One canonical building block: polynomial, SPD form, complex shift."""

    __slots__ = ("poly", "quad", "shift")

    def __init__(self, poly, quad, shift):
        if not isinstance(poly, Polynomial):
            raise TypeError("poly must be a Polynomial")
        if not isinstance(quad, SpdForm):
            raise TypeError("quad must be an SpdForm")
        if poly.dim != quad.dim:
            raise DimensionMismatch("polynomial and quadratic form dimensions differ")
        self.poly = poly
        self.quad = quad
        self.shift = _as_complex_vector(shift, quad.dim)

    @property
    def dim(self):
        return self.quad.dim

    def __repr__(self):
        return f"GaussTerm(dim={self.dim}, poly_terms={len(self.poly.coeffs)})"

    def key_matches(self, other):
        """Whether (quad, shift) agree within the merge tolerance."""
        return _entries_close(self.quad.entries, other.quad.entries) and _entries_close(
            self.shift, other.shift
        )


class GaussPoly:
    """A finite sum of Gaussian terms on R^n; the empty sum is the zero function."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim, terms=()):
        self.dim = int(dim)
        if self.dim < 1:
            raise ValueError("dimension must be a positive integer")
        terms = tuple(terms)
        for t in terms:
            if not isinstance(t, GaussTerm):
                raise TypeError("terms must be GaussTerm instances")
            if t.dim != self.dim:
                raise DimensionMismatch("term dimension does not match function dimension")
        self.terms = terms

    # ----- constructors -------------------------------------------------

    @classmethod
    def from_term(cls, poly, quad, shift=None):
        quad = quad if isinstance(quad, SpdForm) else SpdForm(quad)
        shift = np.zeros(quad.dim, dtype=complex) if shift is None else shift
        poly = poly if isinstance(poly, Polynomial) else Polynomial.constant(quad.dim, poly)
        return cls(quad.dim, (GaussTerm(poly, quad, shift),)).canonical()

    @classmethod
    def gaussian(cls, quad, shift=None, coeff=1.0):
        """coeff * exp(-pi x.Qx + b.x) as a one-term function."""
        return cls.from_term(coeff, quad, shift)

    @classmethod
    def standard(cls, dim):
        """The self-dual unit exp(-pi x.x)."""
        return cls.gaussian(SpdForm.identity(dim))

    @classmethod
    def zero(cls, dim):
        return cls(dim, ())

    # ----- basics --------------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def __repr__(self):
        return f"GaussPoly(dim={self.dim}, terms={len(self.terms)})"

    def canonical(self):
        """Merge terms with matching (quad, shift) keys and drop dust.

        Dust (coefficients below ``COEFF_DROP_REL`` of a term's largest) is
        dropped per term, then keys are merged by a fixed-representative
        rule: in raw-key sort order, each term joins the earliest
        representative within the merge tolerance (1e-12 absolute plus
        1e-12 relative, entry by entry), or becomes a representative
        itself.  Merged polynomials are summed with exact rounding and the
        merged term keeps its representative's key.  Terms come out sorted
        by key, and the result depends only on the multiset of input
        terms, not their order; canonical forms are fixed points.

        Keys that chain wider than one tolerance (a near b near c, a far
        from c) can still split differently when the same terms are summed
        under another association, e.g. (a + b) + c against a + (b + c),
        because each partial result keeps only its representative's key; a
        partial sum that cancels to zero loses its key the same way.
        Evaluation is unchanged up to roundoff at the scale of the function.
        """
        live = []
        for t in self.terms:
            poly = t.poly.drop_small(COEFF_DROP_REL)
            if poly:
                live.append(t if poly is t.poly else GaussTerm(poly, t.quad, t.shift))
        if len(live) <= 1:
            return GaussPoly(self.dim, live)
        out = []
        for members in _key_clusters(live):
            rep = live[members[0]]
            if len(members) == 1:
                out.append(rep)
                continue
            poly = _sum_polys(self.dim, [live[i].poly for i in members]).drop_small(
                COEFF_DROP_REL
            )
            if poly:
                out.append(GaussTerm(poly, rep.quad, rep.shift))
        return GaussPoly(self.dim, out)

    # ----- evaluation ----------------------------------------------------

    def evaluate_many(self, points):
        """Evaluate at an (m, n) array of real or complex points."""
        pts = np.asarray(points, dtype=complex)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise DimensionMismatch(f"points must have shape (m, {self.dim})")
        out = np.zeros(pts.shape[0], dtype=complex)
        for t in self.terms:
            expo = -math.pi * np.einsum("ij,jk,ik->i", pts, t.quad.entries, pts) + pts @ t.shift
            out += t.poly.evaluate_many(pts) * np.exp(expo)
        return out

    def evaluate(self, point):
        """Value at one point; complex arguments give the holomorphic extension."""
        point = as_vector(point, self.dim, "point")
        return complex(self.evaluate_many(point[None, :])[0])

    # ----- linear structure ----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, GaussPoly):
            return NotImplemented
        if other.dim != self.dim:
            raise DimensionMismatch("function dimensions differ")
        return GaussPoly(self.dim, self.terms + other.terms).canonical()

    def __neg__(self):
        return GaussPoly(
            self.dim, tuple(GaussTerm(-t.poly, t.quad, t.shift) for t in self.terms)
        )

    def __sub__(self, other):
        if not isinstance(other, GaussPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, GaussPoly):
            if other.dim != self.dim:
                raise DimensionMismatch("function dimensions differ")
            return GaussPoly(self.dim, product_terms(self.terms, other.terms)).canonical()
        # Keys are unchanged and dust is relative, so there is nothing to
        # merge; only terms scaled to exactly zero go.
        scalar = complex(other)
        out = []
        for t in self.terms:
            poly = t.poly * scalar
            if poly:
                out.append(GaussTerm(poly, t.quad, t.shift))
        return GaussPoly(self.dim, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    # ----- the term calculus ----------------------------------------------

    def conjugate(self):
        """Complex conjugate as a function on R^n.

        Coefficients and shift are conjugated; the quadratic form is real
        and stays put.  The identity conj(f)(x) = conj(f(x)) holds for
        real x only.
        """
        return GaussPoly(self.dim, conjugate_terms(self.terms)).canonical()

    def translate(self, a):
        """The shifted function x |-> f(x - a); a may be complex.

        Completing the square moves the whole effect into the polynomial
        and the linear shift: quad is unchanged, shift gains 2*pi*Q*a, and
        the constant exp(-pi a.Qa - b.a) folds into the coefficients.
        """
        a = _as_complex_vector(a, self.dim)
        out = []
        for t in self.terms:
            qa = t.quad.entries @ a
            const = exp_in_range(-math.pi * complex(a @ qa) - complex(t.shift @ a))
            poly = t.poly.substitute_affine(None, -a) * const
            out.append(GaussTerm(poly, t.quad, t.shift + 2.0 * math.pi * qa))
        return GaussPoly(self.dim, out).canonical()

    def modulate(self, b):
        """Multiply by the character exp(-2 pi i x . b)."""
        b = _as_complex_vector(b, self.dim)
        delta = -2j * math.pi * b
        return GaussPoly(
            self.dim,
            tuple(GaussTerm(t.poly, t.quad, t.shift + delta) for t in self.terms),
        ).canonical()

    def _differentiate_once(self, axis):
        """One partial derivative, term by term; the result is not merged."""
        out = []
        for t in self.terms:
            grad = _exponent_gradient(t.quad, t.shift, axis)
            out.append(GaussTerm(t.poly.differentiate(axis) + t.poly * grad, t.quad, t.shift))
        return GaussPoly(self.dim, out)

    def differentiate(self, alpha):
        """Mixed partial derivative of multi-index order alpha, at most DIFF_MAX_ORDER."""
        alpha = mi.validate(alpha, self.dim)
        if sum(alpha) > DIFF_MAX_ORDER:
            raise RangeError(f"derivative order {sum(alpha)} above the cap of {DIFF_MAX_ORDER}")
        result = self
        for axis, reps in enumerate(alpha):
            for _ in range(reps):
                result = result._differentiate_once(axis)
        return result.canonical()

    def monomial_times(self, alpha):
        """Multiply by the monomial x^alpha."""
        alpha = mi.validate(alpha, self.dim)
        return GaussPoly(
            self.dim,
            tuple(GaussTerm(t.poly.monomial_times(alpha), t.quad, t.shift) for t in self.terms),
        ).canonical()

    def compose_linear(self, mapping):
        """The composition x |-> f(T x) for an invertible real map T."""
        if not isinstance(mapping, LinearMap):
            mapping = LinearMap(mapping)
        if mapping.dim != self.dim:
            raise DimensionMismatch("map dimension does not match function dimension")
        if not mapping.is_invertible():
            raise SingularMap("composition requires an invertible map")
        T = mapping.entries
        out = []
        for t in self.terms:
            poly = t.poly.substitute_affine(T, None)
            quad = SpdForm(T.T @ t.quad.entries @ T)
            out.append(GaussTerm(poly, quad, T.T @ t.shift))
        return GaussPoly(self.dim, out).canonical()


def coefficient_distance(f, g):
    """How far apart two functions are, coefficient by coefficient.

    Both inputs are put in canonical form and their terms grouped by the
    key rule of :meth:`GaussPoly.canonical`.  The distance is the largest
    absolute coefficient difference over groups holding terms of both
    functions plus the total coefficient mass of the other groups, so 0
    means identical canonical forms.
    """
    if f.dim != g.dim:
        raise DimensionMismatch("function dimensions differ")
    fc = f.canonical()
    gc = g.canonical()
    terms = fc.terms + gc.terms
    split = len(fc.terms)
    worst = 0.0
    unmatched = 0.0
    for members in _key_clusters(terms):
        mine = [terms[i].poly for i in members if i < split]
        theirs = [terms[i].poly for i in members if i >= split]
        if not (mine and theirs):
            unmatched += sum(sum(map(abs, terms[i].poly.coeffs.values())) for i in members)
            continue
        diff = _sum_polys(f.dim, mine) - _sum_polys(f.dim, theirs)
        worst = max(worst, max((abs(c) for c in diff.coeffs.values()), default=0.0))
    return worst + unmatched
