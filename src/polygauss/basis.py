"""Conversion between the two presentations of a Gaussian term.

A term can be written with monomial building blocks x^alpha * e or with
derivative building blocks d^beta e, where e = exp(-pi x.Qx + b.x).  The
change of basis is graded-triangular: the top-degree part of d^beta e is
(-2 pi Q x)^beta times e, an invertible map on each degree block whenever
Q is, so converting a polynomial into derivative coordinates is one linear
solve over all multi-indices up to its degree.
"""

from dataclasses import dataclass, field

import numpy as np

from . import multiindex as mi
from .core import COEFF_DROP_REL, GaussPoly, GaussTerm, derivative_tower
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
        order = mi.validate(self.order, self.quad.dim)
        poly = _element_polys(self.quad, self.shift, [order])[order]
        return GaussPoly(self.quad.dim, (GaussTerm(poly, self.quad, self.shift),)).canonical()


def _element_polys(quad, shift, orders):
    """The polynomial p_beta of each element d^beta e = p_beta e, dust dropped.

    Conversion and re-expansion both read these, so a round trip sees the
    same entries on both sides.
    """
    tower = derivative_tower(Polynomial.constant(quad.dim, 1.0), quad, shift, orders)
    return {beta: tower[beta].drop_small(COEFF_DROP_REL) for beta in orders}


def expand_derivative_element(element):
    return element.expand()


@dataclass(frozen=True)
class DerivativeExpansion:
    """Coefficients of a term in the derivative basis at one (quad, shift) key."""

    coeffs: dict
    quad: SpdForm
    shift: object
    dim: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "dim", self.quad.dim)

    def expand(self):
        """Reassemble the monomial-type function this expansion encodes."""
        coeffs = sorted(
            ((mi.validate(beta, self.dim), complex(c)) for beta, c in self.coeffs.items()),
            key=lambda kv: mi.grlex_key(kv[0]),
        )
        elements = _element_polys(self.quad, self.shift, [beta for beta, _ in coeffs])
        out = {}
        for beta, c in coeffs:
            for alpha, v in elements[beta].coeffs.items():
                out[alpha] = out.get(alpha, 0j) + v * c
        poly = Polynomial._trusted(self.dim, out)
        return GaussPoly(self.dim, (GaussTerm(poly, self.quad, self.shift),)).canonical()


def to_derivative_basis(term):
    """Coefficients c_beta with sum_beta c_beta d^beta e equal to the term.

    Assembles the graded-lex system over all multi-indices up to the
    polynomial degree and solves it in one shot; the system is block
    triangular by degree with invertible diagonal blocks, so a failure
    signals a quadratic form that is numerically degenerate.
    """
    dim = term.dim
    top = term.poly.degree()
    index = list(mi.indices_up_to(dim, top))
    pos = {alpha: i for i, alpha in enumerate(index)}
    m = len(index)

    elements = _element_polys(term.quad, term.shift, index)
    system = np.zeros((m, m), dtype=complex)
    for j, beta in enumerate(index):
        for alpha, c in elements[beta].coeffs.items():
            system[pos[alpha], j] = c

    # Guard the top-degree block before trusting the solve.
    sel = [i for i, alpha in enumerate(index) if mi.degree(alpha) == top]
    block = system[np.ix_(sel, sel)]
    sv = np.linalg.svd(block, compute_uv=False)
    if sv[-1] < TOP_BLOCK_PIVOT_REL * sv[0]:
        raise SolveFailure(
            "derivative-basis system is numerically singular; quadratic form is degenerate"
        )

    rhs = np.zeros(m, dtype=complex)
    for alpha, c in term.poly.coeffs.items():
        rhs[pos[alpha]] = c
    try:
        solution = np.linalg.solve(system, rhs)
        # one step of iterative refinement; the re-expansion side reuses the
        # same matrix entries, so this pushes round-trip error to rounding
        solution += np.linalg.solve(system, rhs - system @ solution)
    except np.linalg.LinAlgError as exc:
        raise SolveFailure(f"derivative-basis solve failed: {exc}") from None

    # keep every nonzero coefficient: basis polynomials are large, so even
    # tiny expansion coefficients carry weight in the reassembled function
    coeffs = {index[i]: complex(solution[i]) for i in range(m) if solution[i] != 0}
    return DerivativeExpansion(coeffs, term.quad, term.shift)


def function_to_derivative_basis(f):
    """Expand each canonical term of f, one expansion per (quad, shift) key."""
    return [to_derivative_basis(t) for t in f.canonical().terms]
