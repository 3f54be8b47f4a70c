"""Properties of the canonical form and how often operations compute it.

The merge rule (see ``GaussPoly.canonical``): in raw-key sort order each
term joins the earliest representative within the 1e-12 abs + rel key
tolerance, or becomes a representative itself; merged coefficients are
summed with exact rounding.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polygauss import (
    GaussPoly,
    GaussTerm,
    Polynomial,
    SpdForm,
    coefficient_distance,
    convolve,
    fourier_transform,
    function_to_json,
    inner_product,
    integral,
    inverse_transform,
)
from polygauss import multiindex as mi
from polygauss.testing import random_gauss_poly, random_shift, random_spd_form

# Base keys far apart from one another; terms sit on perturbed copies.
BASE_QUADS = {
    1: [np.array([[1.0]]), np.array([[2.5]])],
    2: [np.array([[1.0, 0.25], [0.25, 2.0]]), np.array([[0.7, 0.0], [0.0, 1.3]])],
}
BASE_SHIFTS = {
    1: [np.array([0.0j]), np.array([0.5 - 0.25j])],
    2: [np.zeros(2, dtype=complex), np.array([0.5 - 0.25j, -1.0 + 0.75j])],
}


def exact(f):
    """Every stored bit of f, in storage order."""
    return [
        (
            [(a, c.real.hex(), c.imag.hex()) for a, c in t.poly.coeffs.items()],
            t.quad.entries.tobytes(),
            t.shift.tobytes(),
        )
        for t in f.terms
    ]


def terms(dim, step, coeff_range=1.0, positive_constant=False, max_terms=8):
    """Lists of terms on perturbed copies of the base keys of one dimension.

    A key is a base key scaled entry-wise by 1 + k * step with k in -4..4,
    so ``step`` sets how far perturbed copies of one base key spread.
    """
    coeff = st.floats(-coeff_range, coeff_range)
    constant_re = st.floats(coeff_range / 4, coeff_range) if positive_constant else coeff
    monomials = list(mi.indices_up_to(dim, 2))[1:]

    @st.composite
    def term(draw):
        base = draw(st.integers(0, 1))
        kq, kb = draw(st.integers(-4, 4)), draw(st.integers(-4, 4))
        quad = SpdForm(BASE_QUADS[dim][base] * (1.0 + kq * step))
        shift = BASE_SHIFTS[dim][base] * (1.0 + kb * step)
        coeffs = {mi.zero(dim): complex(draw(constant_re), draw(coeff))}
        for alpha in draw(st.lists(st.sampled_from(monomials), max_size=3)):
            coeffs[alpha] = complex(draw(coeff), draw(coeff))
        return GaussTerm(Polynomial(dim, coeffs), quad, shift)

    return st.lists(term(), min_size=1, max_size=max_terms)


def in_some_dimension(make):
    return st.integers(1, 2).flatmap(lambda dim: st.tuples(st.just(dim), make(dim)))


# Keys 0.75e-12 apart chain across several tolerances.
CHAINED = lambda dim: terms(dim, step=0.75e-12)  # noqa: E731


@settings(max_examples=100, deadline=None)
@given(in_some_dimension(lambda dim: CHAINED(dim).flatmap(
    lambda ts: st.tuples(st.just(ts), st.permutations(ts))
)))
def test_any_permutation_gives_identical_json(case):
    dim, (ts, shuffled) = case
    assert function_to_json(GaussPoly(dim, ts)) == function_to_json(GaussPoly(dim, shuffled))


@settings(max_examples=100, deadline=None)
@given(in_some_dimension(CHAINED))
def test_canonical_is_idempotent(case):
    dim, ts = case
    once = GaussPoly(dim, ts).canonical()
    twice = once.canonical()
    assert exact(twice) == exact(once)
    assert function_to_json(twice) == function_to_json(once)


@settings(max_examples=100, deadline=None)
@given(in_some_dimension(lambda dim: st.tuples(*[
    terms(dim, step=0.1e-12, coeff_range=0.035, positive_constant=True, max_terms=3)
    for _ in range(3)
])))
def test_reassociation_agrees_within_one_tolerance(case):
    # Every key is within 0.4e-12 relative of its base key, so within one
    # tolerance of its cluster's first key: both associations keep the same
    # representatives.  Constants with positive real part keep any partial
    # sum from cancelling away (and its key with it).  Up to nine terms of
    # |coefficient| < 0.05 meet in a cluster, so every sum stays below 0.45
    # and each dust cut below 0.45e-12: dust dropped from a partial sum in
    # one association and at the end in the other stays below 1e-12.
    dim, parts = case
    a, b, c = (GaussPoly(dim, ts).canonical() for ts in parts)
    left = (a + b) + c
    right = a + (b + c)
    assert [exact_key(t) for t in left.terms] == [exact_key(t) for t in right.terms]
    assert coefficient_distance(left, right) <= 1e-12


def exact_key(term):
    return term.quad.entries.tobytes(), term.shift.tobytes()


def test_chain_wider_than_one_tolerance():
    # q = 1, 1 + 1.5e-12, 1 + 3e-12: each neighbouring pair is within the
    # tolerance (about 2e-12 here), the outer pair is not.
    a, b, c = (
        GaussPoly.gaussian(SpdForm([[1.0 + d]]), coeff=1.0) for d in (0.0, 1.5e-12, 3e-12)
    )
    # One canonical pass: 1 + 1.5e-12 joins the representative 1, and
    # 1 + 3e-12, too far from 1, starts its own term; in any order.
    for order in ((a, b, c), (c, b, a), (b, c, a)):
        merged = GaussPoly(1, [t for f in order for t in f.terms]).canonical()
        assert [t.quad.entries[0, 0] for t in merged.terms] == [1.0, 1.0 + 3e-12]
        assert [t.poly.coeffs[(0,)] for t in merged.terms] == [2.0, 1.0]
    # Re-association can still split the chain differently: b + c merges
    # at b, which then joins a.
    assert len(((a + b) + c).terms) == 2
    assert len((a + (b + c)).terms) == 1
    assert [t.quad.entries[0, 0] for t in (a + (b + c)).terms] == [1.0]


# ---------------------------------------------------------------------------
# one canonicalization per public operation


def full_term(rng, dim, degree):
    coeffs = {
        alpha: complex(rng.normal(), rng.normal()) for alpha in mi.indices_up_to(dim, degree)
    }
    return GaussPoly(
        dim, (GaussTerm(Polynomial(dim, coeffs), random_spd_form(rng, dim), random_shift(rng, dim)),)
    )


OPERATIONS = {
    "fourier_transform": (fourier_transform, 1),
    "inverse_transform": (inverse_transform, 1),
    "convolve": (lambda f: convolve(f, f), 1),
    "inner_product": (lambda f: inner_product(f, f), 0),
    "integral": (integral, 0),
    "differentiate": (lambda f: f.differentiate((1, 1)), 1),
}


@pytest.mark.parametrize("name", sorted(OPERATIONS))
def test_canonical_calls_do_not_grow_with_input(name, rng, monkeypatch):
    operation, expected = OPERATIONS[name]
    one_term = full_term(rng, 2, 6)
    many_terms = random_gauss_poly(rng, 2, n_terms=16, max_degree=2)
    assert len(one_term.terms) == 1 and len(many_terms.terms) == 16

    calls = []
    original = GaussPoly.canonical

    def counting(self):
        calls.append(len(self.terms))
        return original(self)

    monkeypatch.setattr(GaussPoly, "canonical", counting)
    counts = []
    for f in (one_term, many_terms):
        calls.clear()
        operation(f)
        counts.append(len(calls))
    assert counts == [expected, expected]
