"""Sparse complex polynomials in n variables.

Coefficients are stored in a dict keyed by exponent tuples; zero
coefficients are never stored.  An exponent of 0 on an axis means that
axis contributes a factor 1.

Affine substitution p(M x + c) eliminates the input variables one axis at
a time in numpy passes: y_j^a becomes the multinomial expansion of the line
c_j + M_j . x over that line's nonzero entries, and equal monomials merge
before the next axis.  Steps that would need more than
``SUBSTITUTION_CELL_CAP`` index cells in all, or a step whose tables sized
by its largest exponent would alone, raise RangeError before allocating
them.
"""

import cmath
import math

import numpy as np

from . import multiindex as mi
from .errors import DimensionMismatch, RangeError
from .linalg import as_vector

# Index cells of the elimination steps of one substitution: a step that
# expands into T terms of P summands each needs T (P + 8) cells of 8 bytes.
SUBSTITUTION_CELL_CAP = 1 << 22


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
        # The result has at most C(n + k deg, n) monomials: refuse above the cap.
        bound = math.comb(self.dim + power * self.degree(), self.dim)
        if bound > SUBSTITUTION_CELL_CAP:
            raise RangeError(f"power {power} could hold {bound} monomials, above the cap")
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
        linear changes of variables and translations.  The input variables
        are eliminated one axis at a time: y_j^a becomes the multinomial
        expansion of (c_j + M_j . x)^a over the nonzero entries of that
        line, and equal monomials are merged before the next axis.  So each
        step is a few numpy passes over terms that can occur: a translation
        or a diagonal map expands every variable alone, and an axis that
        the support does not use costs nothing.  The index bookkeeping (the
        plan) depends only on the support and on which entries of M and c
        are zero; small plans are cached.  Raises RangeError when the steps
        would need more than ``SUBSTITUTION_CELL_CAP`` index cells, or when
        a multinomial coefficient is beyond the floating-point range.
        """
        n = self.dim
        matrix = np.eye(n) if matrix is None else np.asarray(matrix)
        if matrix.shape != (n, n):
            raise DimensionMismatch("substitution matrix has wrong shape")
        offset = np.zeros(n) if offset is None else as_vector(offset, n, "offset", None)
        # Row j of lines is the line c_j + M_j . x substituted for y_j.
        lines = np.concatenate(
            (offset[:, None], matrix), axis=1, dtype=np.result_type(offset, matrix, float)
        )
        steps, monomials = _plan(n, tuple(self.coeffs), (lines != 0).tobytes())
        if not steps:  # a constant is its own image
            return self
        # One public-constructor call per substitution, through which traced
        # runs see a substitution's index check.
        Polynomial.constant(n, 1.0)
        values = np.array(list(self.coeffs.values()))
        for axis, terms, exponents, picks, multinomials, rows, which, starts in steps:
            powers = lines[axis, terms][:, None] ** exponents
            weights = multinomials * powers.take(picks).prod(axis=1)
            values = np.add.reduceat(values[rows] * weights[which], starts)
        return Polynomial._trusted(n, dict(zip(monomials, values.tolist())))

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
        point = as_vector(point, self.dim, "point", None)
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


_PLANS = {}  # (n, support, zero pattern of the lines) -> plan, oldest first
# Only plans that expand into at most this many terms are kept, 64 at most,
# so the cache stays small; larger plans are rebuilt on every call.
_CACHED_PLAN_TERMS = 1 << 10


def _plan(n, support, pattern):
    key = (n, support, pattern)
    plan = _PLANS.get(key)
    if plan is None:
        try:
            with np.errstate(over="raise"):
                plan = _eliminate(n, support, np.frombuffer(pattern, bool).reshape(n, n + 1))
        except FloatingPointError:
            raise RangeError("a multinomial coefficient is outside the floating-point range") from None
        if plan[2] <= _CACHED_PLAN_TERMS:
            _PLANS[key] = plan
            if len(_PLANS) > 64:
                del _PLANS[next(iter(_PLANS))]
    return plan[:2]


def _eliminate(n, support, pattern):
    """The index bookkeeping of substitute_affine: its steps, the output
    monomials, and the number of terms the steps expand into.

    Rows of ``e`` are monomials in the input variables y (first n columns)
    and the output variables x (last n).  Step j replaces y_j^a by the terms
    of (c_j + M_j . x)^a, one per composition of a over the line's nonzero
    ``terms``; ``picks`` locates each composition's powers in the step's
    table of powers.  ``rows`` and ``which`` give each expanded term's source
    row and composition, sorted by the resulting monomial, whose groups begin
    at ``starts``.  Monomials are compared by their mixed-radix integer key
    ``e @ radix``, never expanded to full rows.
    """
    e = np.zeros((len(support), 2 * n), dtype=np.int64)
    e[:, :n] = np.reshape(support, (-1, n))
    steps, expanded, cells = [], 0, 0
    for j in range(n):
        a = e[:, j].copy()
        if not a.any():
            continue
        terms = np.flatnonzero(pattern[j])  # 0 is c_j, 1 + k is M_jk
        parts, top = len(terms), int(a.max())
        # This step's tables indexed by exponent, on their own: bincount, counts,
        # first, the exponents and, at run time, parts rows of complex powers.
        _check_cells((top + 1) * (2 * parts + 4))
        present = np.flatnonzero(np.bincount(a))
        sizes = [math.comb(t + parts - 1, t) if parts else int(t == 0) for t in present.tolist()]
        _check_cells(cells + max(sizes) * (parts + 8))
        counts, first = np.zeros((2, top + 1), dtype=np.int64)
        counts[present] = sizes
        first[present] = np.cumsum(sizes) - sizes
        counts = counts[a]
        total = int(counts.sum())
        cells = _check_cells(cells + total * (parts + 8))
        comps, multinomials = _compositions(present, parts)
        e[:, j] = 0
        x_terms = terms[terms > 0]
        x_parts = comps[:, terms > 0]
        # Each column's largest possible exponent, as the digit bases of keys.
        bases = e.max(axis=0) + 1
        bases[n - 1 + x_terms] += top
        radix = [1]
        for base in bases.tolist()[:-1]:
            radix.append(radix[-1] * base)
        radix = np.array(radix, dtype=np.int64 if radix[-1] * int(bases[-1]) < 1 << 63 else object)
        rows, rank = _spread(counts)
        which = first[a][rows] + rank
        key = (e @ radix)[rows] + (x_parts @ radix[n - 1 + x_terms])[which]
        order = np.argsort(key)
        key = key[order]
        fresh = np.ones(len(key), dtype=bool)
        fresh[1:] = key[1:] != key[:-1]
        starts = np.flatnonzero(fresh)
        heads = order[starts]
        e = e[rows[heads]]
        e[:, n - 1 + x_terms] += x_parts[which[heads]]
        steps.append((j, terms, np.arange(top + 1), comps + np.arange(parts) * (top + 1),
                      multinomials, rows[order], which[order], starts))
        expanded += total
    return steps, [tuple(m) for m in e[:, n:].tolist()], expanded


def _spread(counts):
    """The owner i of each of sum(counts) slots, and its rank among the
    counts[i] slots of i."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]


def _compositions(totals, parts):
    """Every way to write each t of ``totals`` as an ordered sum of ``parts``
    nonnegative integers: the summands (a row each, grouped by t in order)
    and their multinomial coefficients t! / prod(summands!)."""
    left = np.asarray(totals, dtype=np.int64)
    columns, multinomials = [], np.ones(len(totals))
    # Pascal's triangle, row r from r (r + 1) / 2 on, for C(left, part).
    rows = [np.ones(1)]
    for _ in range(int(left.max()) if parts > 1 else 0):
        rows.append(np.concatenate(([1.0], rows[-1][1:] + rows[-1][:-1], [1.0])))
    pascal = np.concatenate(rows)
    for _ in range(parts - 1):
        pick, part = _spread(left + 1)
        left = left[pick]
        multinomials = multinomials[pick] * pascal[left * (left + 1) // 2 + part]
        columns = [c[pick] for c in columns] + [part]
        left = left - part
    if not parts:  # only 0 is an empty sum
        multinomials = multinomials[left == 0]
        return np.zeros((len(multinomials), 0), dtype=np.int64), multinomials
    return np.stack(columns + [left], axis=1), multinomials


def _check_cells(cells):
    """``cells``, if the steps so far fit under SUBSTITUTION_CELL_CAP."""
    if cells > SUBSTITUTION_CELL_CAP:
        raise RangeError(f"substitution needs {cells} index cells, above the cap")
    return cells
