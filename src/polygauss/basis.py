"""Conversion between the two presentations of a Gaussian term.

A term can be written with monomial building blocks x^alpha * e or with
derivative building blocks d^beta e, where e = exp(-pi x.Qx + b.x).  In
the variable y = b - 2 pi Q x, the gradient of the exponent,

    d^beta e = e * (H_(-C) y^beta)(y),    C = 2 pi Q,

where H_S = exp(1/2 grad . S grad) is the moment operator of
:meth:`Polynomial.gaussian_smooth` (the generating function of both sides
is e(x + t) = e(x) exp(t.y - t.Ct/2)).  So the derivative-basis
coefficients of p are the monomial coefficients of H_(+C) applied to p
rewritten in y, and expanding applies H_(-C) and substitutes y back.
"""

import math
from dataclasses import dataclass

from .core import GaussPoly
from .errors import SolveFailure
from .linalg import SpdForm
from .polynomial import Polynomial

TOP_BLOCK_PIVOT_REL = 1e-10


@dataclass(frozen=True)
class DerivativeElement:
    """The building block d^order applied to exp(-pi x.Qx + b.x)."""

    order: tuple
    quad: SpdForm
    shift: object  # complex vector

    def expand(self):
        """Rewrite as a single monomial-type term by differentiating."""
        return DerivativeExpansion({tuple(self.order): 1.0}, self.quad, self.shift).expand()


def expand_derivative_element(element):
    return element.expand()


@dataclass(frozen=True)
class DerivativeExpansion:
    """Coefficients of a term in the derivative basis at one (quad, shift) key."""

    coeffs: dict
    quad: SpdForm
    shift: object

    @property
    def dim(self):
        return self.quad.dim

    def expand(self):
        """Reassemble the function sum_beta c_beta d^beta e that this expansion encodes."""
        c = 2.0 * math.pi * self.quad.entries
        in_y = Polynomial(self.dim, self.coeffs)
        poly = in_y.gaussian_smooth(-c).substitute_affine(-c, self.shift)
        return GaussPoly.from_term(poly, self.quad, self.shift)


def to_derivative_basis(term):
    """Coefficients c_beta with sum_beta c_beta d^beta e equal to the term.

    The polynomial is rewritten in y = b - 2 pi Q x and smoothed by
    H_(+2 pi Q).  The top-degree part of the change of basis is the
    degree-d power of -2 pi Q, so a form whose eigenvalue ratio
    lambda_min / lambda_max raised to the degree falls below
    ``TOP_BLOCK_PIVOT_REL`` is too ill-conditioned to convert reliably and
    raises SolveFailure; degree 0 never does.
    """
    eigs = term.quad.eigenvalues()
    if (eigs[0] / eigs[-1]) ** term.poly.degree() < TOP_BLOCK_PIVOT_REL:
        raise SolveFailure(
            "derivative-basis change is numerically singular; quadratic form is degenerate"
        )
    qinv = term.quad.inverse().entries / (2.0 * math.pi)
    in_y = term.poly.substitute_affine(-qinv, qinv @ term.shift)
    coeffs = in_y.gaussian_smooth(2.0 * math.pi * term.quad.entries).coeffs
    return DerivativeExpansion(coeffs, term.quad, term.shift)


def function_to_derivative_basis(f):
    """Expand each canonical term of f, one expansion per (quad, shift) key."""
    return [to_derivative_basis(t) for t in f.canonical().terms]
