"""Closed-form Fourier analysis on the polynomial-Gaussian class.

Convention:  F f (xi) = integral of f(x) exp(-2 pi i x . xi) dx.  With the
storage convention of :mod:`polygauss.core` the standard Gaussian
exp(-pi x . x) is its own transform, a bare exponential transforms to

    det(Q)^(-1/2) * exp(b . Q^(-1) b / (4 pi))
        * exp(-pi xi . Q^(-1) xi - i (Q^(-1) b) . xi),

and each monomial factor x^alpha becomes (-2 pi i)^(-|alpha|) times the
corresponding mixed partial of that transformed exponential.  Everything
downstream (inversion, convolution, integrals, inner products) reduces to
these term rules.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import multiindex as mi
from .core import (
    GaussPoly,
    GaussTerm,
    coefficient_distance,
    conjugate_terms,
    derivative_tower,
    exp_in_range,
    product_terms,
)
from .errors import DimensionMismatch, RangeError
from .linalg import LinearMap
from .polynomial import Polynomial


def _transform_term(term):
    """The transform of one term: one term at the transformed key.

    The bare exponential exp(-pi x.Qx + b.x) goes to const * e' with
    e' = exp(-pi xi.Q^(-1) xi - i (Q^(-1) b).xi); each monomial x^alpha
    of the polynomial contributes (i / 2 pi)^|alpha| d^alpha (const e').
    """
    dim = term.dim
    qinv = term.quad.inverse()
    shift = term.shift
    const = exp_in_range(
        complex(shift @ qinv.entries @ shift) / (4.0 * math.pi), term.quad.det ** -0.5
    )
    new_shift = -1j * (qinv.entries @ shift)
    tower = derivative_tower(Polynomial.constant(dim, const), qinv, new_shift, term.poly.coeffs)
    out = {}
    for alpha, c in term.poly.coeffs.items():
        scale = c * (1j / (2.0 * math.pi)) ** mi.degree(alpha)
        for beta, v in tower[alpha].coeffs.items():
            out[beta] = out.get(beta, 0j) + v * scale
    return GaussTerm(Polynomial._trusted(dim, out), qinv, new_shift)


def _reflect(term):
    """The term of x |-> f(-x): odd monomials and the shift change sign."""
    poly = {a: -c if mi.degree(a) % 2 else c for a, c in term.poly.coeffs.items()}
    return GaussTerm(Polynomial._trusted(term.dim, poly), term.quad, -term.shift)


def fourier_transform(f):
    """The transform of f, exact in closed form, in canonical shape."""
    return GaussPoly(f.dim, [_transform_term(t) for t in f.terms]).canonical()


def _inverse_terms(terms):
    return [_reflect(_transform_term(t)) for t in terms]


def inverse_transform(g):
    """The inverse transform, realized as argument negation of the forward one."""
    return GaussPoly(g.dim, _inverse_terms(g.terms)).canonical()


def _integral_of_terms(dim, terms):
    # Each transformed term evaluated at xi = 0 is its constant coefficient;
    # integration is linear, so the terms are neither merged nor ordered.
    zero = mi.zero(dim)
    values = [_transform_term(t).poly.coeffs.get(zero, 0j) for t in terms]
    if not all(map(cmath.isfinite, values)):
        raise RangeError("a term of the integral is outside the floating-point range")
    return complex(math.fsum(v.real for v in values), math.fsum(v.imag for v in values))


def integral(f):
    """integral of f over R^n, i.e. the transform evaluated at 0."""
    return _integral_of_terms(f.dim, f.terms)


def inner_product(f, g):
    """The L2 pairing: integral of f times conj(g)."""
    if f.dim != g.dim:
        raise DimensionMismatch("function dimensions differ")
    return _integral_of_terms(f.dim, product_terms(f.terms, conjugate_terms(g.terms)))


def convolve(f, g):
    """Convolution via the spectral product of the two transforms."""
    if f.dim != g.dim:
        raise DimensionMismatch("function dimensions differ")
    spectral = product_terms(
        [_transform_term(t) for t in f.terms], [_transform_term(t) for t in g.terms]
    )
    return GaussPoly(f.dim, _inverse_terms(spectral)).canonical()


@dataclass(frozen=True)
class RuleCheckReport:
    """Max canonical-coefficient discrepancy for each transform rule."""

    derivative: float
    translation: float
    modulation: float
    change_of_variables: float

    def max_residual(self):
        return max(
            self.derivative, self.translation, self.modulation, self.change_of_variables
        )

    def as_dict(self):
        return {
            "derivative": self.derivative,
            "translation": self.translation,
            "modulation": self.modulation,
            "change_of_variables": self.change_of_variables,
        }


def transform_rules_check(f, alpha, a, b, mapping):
    """Check the four interaction rules symbolically on a concrete instance.

    Each rule is evaluated on both sides and the canonical coefficient
    distance is reported:

      derivative:          F(d^alpha f)     vs (2 pi i)^|alpha| xi^alpha Ff
      translation:         F(f(. - a))      vs exp(-2 pi i xi.a) Ff
      modulation:          F(f exp(-2pi i x.b)) vs Ff(. + b)
      change of variables: F(f o T)         vs |det T|^(-1) Ff o inv(T^t)
    """
    if not isinstance(mapping, LinearMap):
        mapping = LinearMap(mapping)
    fhat = fourier_transform(f)

    lhs = fourier_transform(f.differentiate(alpha))
    rhs = ((2j * math.pi) ** mi.degree(tuple(alpha))) * fhat.monomial_times(alpha)
    d_res = coefficient_distance(lhs, rhs)

    t_res = coefficient_distance(fourier_transform(f.translate(a)), fhat.modulate(a))

    b_arr = np.asarray(b, dtype=complex)
    m_res = coefficient_distance(fourier_transform(f.modulate(b)), fhat.translate(-b_arr))

    lhs = fourier_transform(f.compose_linear(mapping))
    rhs = (1.0 / abs(mapping.det)) * fhat.compose_linear(mapping.inverse_transpose())
    c_res = coefficient_distance(lhs, rhs)

    return RuleCheckReport(d_res, t_res, m_res, c_res)
