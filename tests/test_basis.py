import math

import numpy as np
import pytest

from polygauss import (
    DerivativeElement,
    GaussPoly,
    GaussTerm,
    Polynomial,
    SolveFailure,
    SpdForm,
    coefficient_distance,
    expand_derivative_element,
    finite_difference,
    function_to_derivative_basis,
    to_derivative_basis,
)
from polygauss import multiindex as mi
from polygauss.testing import random_gauss_poly, random_shift, random_spd_form


def unit_element(order):
    return DerivativeElement(order, SpdForm([[1.0]]), np.zeros(1, dtype=complex))


# ---------------------------------------------------------------------------
# expand_derivative_element


def test_order_zero_is_the_bare_exponential():
    f = expand_derivative_element(unit_element((0,)))
    assert coefficient_distance(f, GaussPoly.standard(1)) == 0.0


def test_first_order():
    f = expand_derivative_element(unit_element((1,)))
    assert f.terms[0].poly.coeffs == {(1,): pytest.approx(-2.0 * math.pi)}


def test_second_order_by_hand_and_finite_differences():
    # d^2/dx^2 exp(-pi x^2) = (4 pi^2 x^2 - 2 pi) exp(-pi x^2)
    f = expand_derivative_element(unit_element((2,)))
    coeffs = f.terms[0].poly.coeffs
    assert coeffs[(2,)] == pytest.approx(4.0 * math.pi ** 2)
    assert coeffs[(0,)] == pytest.approx(-2.0 * math.pi)
    # cross-check the first derivative against finite differences of the base
    first = expand_derivative_element(unit_element((1,)))
    base = GaussPoly.standard(1)
    for x in (0.0, 0.5, -1.0):
        fd = finite_difference(base, 0, [x], 1e-5)
        assert abs(first.evaluate([x]) - fd) <= 1e-6 * (1.0 + abs(fd))


def test_expansion_degree_matches_order(rng):
    quad = random_spd_form(rng, 2)
    shift = random_shift(rng, 2)
    for beta in mi.indices_up_to(2, 3):
        f = expand_derivative_element(DerivativeElement(beta, quad, shift))
        assert len(f.terms) == 1
        assert f.terms[0].poly.degree() == mi.degree(beta)


# ---------------------------------------------------------------------------
# to_derivative_basis


def test_pure_gaussian_expansion():
    term = GaussPoly.standard(1).terms[0]
    expansion = to_derivative_basis(term)
    assert set(expansion.coeffs) == {(0,)}
    assert expansion.coeffs[(0,)] == pytest.approx(1.0)


def test_linear_monomial_expansion():
    # x e^{-pi x^2} = (-1 / 2 pi) d/dx e^{-pi x^2}
    term = GaussPoly.standard(1).monomial_times((1,)).terms[0]
    expansion = to_derivative_basis(term)
    assert set(expansion.coeffs) == {(1,)}
    assert expansion.coeffs[(1,)] == pytest.approx(-1.0 / (2.0 * math.pi))


def test_round_trip_random_terms(rng):
    for _ in range(10):
        f = random_gauss_poly(rng, 2, n_terms=1, max_degree=4)
        term = f.terms[0]
        expansion = to_derivative_basis(term)
        back = expansion.expand()
        assert coefficient_distance(GaussPoly(2, (term,)), back) <= 1e-9


def test_round_trip_three_dimensions_degree_five(rng):
    quad = random_spd_form(rng, 3, eig_range=(0.5, 1.8))
    shift = random_shift(rng, 3)
    poly = Polynomial(3, {(2, 2, 1): 1.0 - 0.5j, (0, 0, 5): 0.3, (1, 0, 0): 2.0})
    term = GaussTerm(poly, quad, shift)
    back = to_derivative_basis(term).expand()
    assert coefficient_distance(GaussPoly(3, (term,)), back) <= 1e-9


def test_round_trip_three_dimensions_degree_eight(rng):
    quad = random_spd_form(rng, 3, eig_range=(0.5, 1.8))
    shift = random_shift(rng, 3)
    poly = Polynomial(
        3, {a: complex(rng.normal(), rng.normal()) for a in mi.indices_up_to(3, 8)}
    )
    term = GaussTerm(poly, quad, shift)
    back = to_derivative_basis(term).expand()
    assert coefficient_distance(GaussPoly(3, (term,)), back) <= 1e-8


def test_reverse_round_trip(rng):
    quad = random_spd_form(rng, 2)
    shift = random_shift(rng, 2)
    for beta in mi.indices_up_to(2, 3):
        element = DerivativeElement(beta, quad, shift)
        expansion = to_derivative_basis(element.expand().terms[0])
        for key, value in expansion.coeffs.items():
            if key == beta:
                assert value == pytest.approx(1.0, abs=1e-9)
            else:
                assert abs(value) <= 1e-9


def test_degree_correspondence(rng):
    # a monomial source uses only orders up to its degree, with a nonzero
    # top-order coefficient
    quad = random_spd_form(rng, 2)
    term = GaussTerm(Polynomial.monomial(2, (2, 1)), quad, np.zeros(2, dtype=complex))
    expansion = to_derivative_basis(term)
    assert all(mi.degree(beta) <= 3 for beta in expansion.coeffs)
    assert any(
        mi.degree(beta) == 3 and abs(c) > 0 for beta, c in expansion.coeffs.items()
    )


def test_linearity_over_same_key(rng):
    quad = random_spd_form(rng, 1)
    shift = random_shift(rng, 1)
    p1 = Polynomial(1, {(2,): 1.0 + 0.5j})
    p2 = Polynomial(1, {(1,): -0.3j, (0,): 2.0})
    t1 = GaussTerm(p1, quad, shift)
    t2 = GaussTerm(p2, quad, shift)
    t12 = GaussTerm(p1 + p2, quad, shift)
    e1 = to_derivative_basis(t1)
    e2 = to_derivative_basis(t2)
    e12 = to_derivative_basis(t12)
    for beta in set(e1.coeffs) | set(e2.coeffs) | set(e12.coeffs):
        total = e1.coeffs.get(beta, 0j) + e2.coeffs.get(beta, 0j)
        assert abs(e12.coeffs.get(beta, 0j) - total) <= 1e-10


def test_solve_failure_on_degenerate_quad():
    # passes the SPD pivot gate but the top-degree block is hopeless
    quad = SpdForm([[1.0, 0.0], [0.0, 1e-11]])
    term = GaussTerm(Polynomial.monomial(2, (0, 1)), quad, np.zeros(2, dtype=complex))
    with pytest.raises(SolveFailure):
        to_derivative_basis(term)


# ---------------------------------------------------------------------------
# function_to_derivative_basis


def test_empty_function_gives_no_expansions():
    assert function_to_derivative_basis(GaussPoly.zero(2)) == []


def test_two_gaussians_give_two_trivial_expansions():
    f = GaussPoly.standard(1) + GaussPoly.gaussian(SpdForm([[2.0]]))
    expansions = function_to_derivative_basis(f)
    assert len(expansions) == 2
    for e in expansions:
        assert set(e.coeffs) == {(0,)}


def test_termwise_round_trip(rng):
    f = random_gauss_poly(rng, 2, n_terms=3, max_degree=3)
    expansions = function_to_derivative_basis(f)
    total = GaussPoly.zero(2)
    for e in expansions:
        total = total + e.expand()
    assert coefficient_distance(f, total) <= 1e-9
