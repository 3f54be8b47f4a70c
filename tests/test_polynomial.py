import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polygauss import DimensionMismatch, Polynomial, RangeError
from polygauss import multiindex as mi


def test_zero_coefficients_are_not_stored():
    p = Polynomial(2, {(1, 0): 0.0, (0, 1): 2.0})
    assert list(p.coeffs) == [(0, 1)]


def test_degree_and_graded_order():
    p = Polynomial(2, {(2, 0): 1.0, (0, 1): 1.0, (1, 1): 1.0})
    assert p.degree() == 2
    assert [a for a, _ in p.items_graded()] == [(0, 1), (1, 1), (2, 0)]


def test_product_adds_exponents():
    p = Polynomial.monomial(2, (1, 0), 2.0)
    q = Polynomial.monomial(2, (1, 2), 3.0)
    assert (p * q).coeffs == {(2, 2): pytest.approx(6.0)}


def test_pow_matches_repeated_product():
    p = Polynomial(1, {(0,): 1.0, (1,): 1.0})
    assert (p ** 3).coeffs == (p * p * p).coeffs


def test_differentiate():
    p = Polynomial(1, {(3,): 2.0})
    assert p.differentiate(0).coeffs == {(2,): pytest.approx(6.0)}
    assert not Polynomial.constant(1, 5.0).differentiate(0)


def test_substitute_affine_translation(rng):
    # p(x - a) checked against direct evaluation
    p = Polynomial(2, {(2, 1): 1.5 - 0.5j, (0, 1): 2.0, (0, 0): -1.0})
    a = np.array([0.7, -0.3 + 0.2j])
    q = p.substitute_affine(None, -a)
    for _ in range(10):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        assert q.evaluate(z) == pytest.approx(p.evaluate(z - a), abs=1e-12)


def test_substitute_affine_linear_map(rng):
    p = Polynomial(2, {(2, 0): 1.0, (1, 1): -2.0j})
    m = np.array([[1.0, 2.0], [0.5, -1.0]])
    q = p.substitute_affine(m, None)
    for _ in range(10):
        z = rng.normal(size=2)
        assert q.evaluate(z) == pytest.approx(p.evaluate(m @ z), abs=1e-12)


def _substituted_by_products(p, matrix, offset):
    """Reference p(M x + c): the sum of c_alpha prod_j line_j^alpha_j, by public operations."""
    n = p.dim
    m = np.eye(n) if matrix is None else matrix
    c = np.zeros(n) if offset is None else offset
    lines = [
        Polynomial(n, {mi.zero(n): c[j], **{mi.unit(n, k): m[j, k] for k in range(n)}})
        for j in range(n)
    ]
    total = Polynomial(n)
    for alpha, coeff in p.coeffs.items():
        term = Polynomial.constant(n, coeff)
        for line, e in zip(lines, alpha):
            term = term * line ** e
        total = total + term
    return total


# Quarters in [-2, 2]: every product and sum of a degree <= 6 substitution is
# exact, so the two computations must give the same monomial set.
_QUARTERS = st.integers(-8, 8).map(lambda k: k / 4)
_COMPLEX = st.builds(complex, _QUARTERS, _QUARTERS)


@st.composite
def _substitutions(draw):
    n = draw(st.integers(1, 3))
    full = list(mi.indices_up_to(n, draw(st.integers(0, 6))))
    support = full if draw(st.booleans()) else draw(
        st.lists(st.sampled_from(full), min_size=1, max_size=8, unique=True)
    )
    p = Polynomial(n, {a: draw(_COMPLEX) for a in support})
    # Zeros are drawn often: the kernel expands only the nonzero entries.
    entry = _COMPLEX | st.just(0j)
    matrix = draw(st.none() | st.lists(entry, min_size=n * n, max_size=n * n))
    offset = draw(st.none() | st.lists(entry, min_size=n, max_size=n))
    return (
        p,
        None if matrix is None else np.array(matrix).reshape(n, n),
        None if offset is None else np.array(offset),
    )


@settings(max_examples=60, deadline=None)
@given(_substitutions())
def test_substitute_affine_matches_product_of_lines(case):
    p, matrix, offset = case
    q = p.substitute_affine(matrix, offset)
    assert set(q.coeffs) == set(_substituted_by_products(p, matrix, offset).coeffs)
    n = p.dim
    m = np.eye(n) if matrix is None else matrix
    c = np.zeros(n) if offset is None else offset
    rng = np.random.default_rng(1)
    for x in rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n)):
        bound = np.abs(c) + np.abs(m) @ np.abs(x)
        magnitude = sum(abs(v) * np.prod(bound ** np.array(a)) for a, v in p.coeffs.items())
        assert abs(q.evaluate(x) - p.evaluate(m @ x + c)) <= 1e-12 * magnitude


def test_substitute_affine_multiplies_no_polynomials(monkeypatch):
    products = []
    original = Polynomial.__mul__

    def counting(self, other):
        products.append(other)
        return original(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counting)
    p = Polynomial(2, {a: 1.0 + 0.5j for a in mi.indices_up_to(2, 4)})
    p.substitute_affine(np.array([[1.0, 2.0], [0.5, -1.0j]]), np.array([0.3, -0.2j]))
    assert products == []


def _assert_substitutes(p, matrix, offset, rng):
    q = p.substitute_affine(matrix, offset)
    m = np.eye(p.dim) if matrix is None else matrix
    c = np.zeros(p.dim) if offset is None else offset
    for x in rng.normal(size=(3, p.dim)) * 0.5:
        assert q.evaluate(x) == pytest.approx(p.evaluate(m @ x + c), rel=1e-10)
    return q


def test_sparse_high_monomial_in_three_dimensions(rng):
    # (m1 . x + c1)^30 reaches all 5,456 monomials of degree <= 30 in 3-D in
    # one step of that many terms; the other two lines are never expanded.
    p = Polynomial.monomial(3, (30, 0, 0), 2.0)
    m = np.array([[0.5, -0.25j, 0.125], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    q = _assert_substitutes(p, m, np.array([0.1 + 0.2j, 0.0, 0.0]), rng)
    assert len(q.coeffs) == 5456


def test_separable_maps_keep_high_dimensions_sparse(rng):
    # A translation, a diagonal map and a permutation expand each variable
    # alone: a full degree-8 polynomial in 6-D (3,003 monomials) and x1^12 in
    # 10-D stay as small as their supports.
    full = Polynomial(6, {a: complex(*rng.normal(size=2)) for a in mi.indices_up_to(6, 8)})
    q = _assert_substitutes(full, None, rng.normal(size=6) * 0.5, rng)
    assert len(q.coeffs) == 3003
    permutation = np.eye(6)[[2, 0, 1, 5, 3, 4]] * 1.5
    assert len(_assert_substitutes(full, permutation, None, rng).coeffs) == 3003
    p = Polynomial.monomial(10, (12,) + (0,) * 9, 1.0)
    q = _assert_substitutes(p, np.diag(rng.normal(size=10)), rng.normal(size=10), rng)
    assert sorted(q.coeffs) == [(k,) + (0,) * 9 for k in range(13)]


@pytest.mark.parametrize(
    "dim, degree, matrix",
    [
        # C(130, 3) = 357,760 terms of 4 summands at 12 index cells each: 2 %
        # above the cap (x1^126, with 349,504 terms, is just below it).
        (4, 127, np.triu(np.ones((4, 4)))),
        (60, 4, np.ones((60, 60))),  # C(63, 4) = 595,665 terms of 60 summands
    ],
    ids=["just-above", "high-dimension"],
)
def test_substitution_above_the_cap_raises_before_allocating(dim, degree, matrix):
    p = Polynomial.monomial(dim, (degree,) + (0,) * (dim - 1))
    tracemalloc.start()
    try:
        with pytest.raises(RangeError):
            p.substitute_affine(matrix, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200_000


def test_the_cap_bounds_all_steps_together(monkeypatch):
    from polygauss import polynomial

    # Under (x1 + x2, x1 + x2): step 1 expands into 5 terms of 2 summands
    # (50 cells) and step 2 into 8 (80 cells), 130 in all.  A cap of 129
    # refuses the substitution although each step alone would fit.
    p = Polynomial(2, {(3, 0): 1.0, (0, 3): 1.0})
    polynomial._PLANS.clear()
    monkeypatch.setattr(polynomial, "SUBSTITUTION_CELL_CAP", 130)
    p.substitute_affine(np.ones((2, 2)), None)
    polynomial._PLANS.clear()
    monkeypatch.setattr(polynomial, "SUBSTITUTION_CELL_CAP", 129)
    with pytest.raises(RangeError):
        p.substitute_affine(np.ones((2, 2)), None)


def test_large_plans_are_not_kept():
    from polygauss import polynomial

    polynomial._PLANS.clear()
    small = Polynomial(2, {(2, 0): 1.0, (0, 1): 2.0})
    small.substitute_affine(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1.0, 1.0]))
    Polynomial.monomial(3, (40, 0, 0)).substitute_affine(np.ones((3, 3)), None)  # 861 terms
    Polynomial.monomial(3, (60, 0, 0)).substitute_affine(np.ones((3, 3)), None)  # 1,891 terms
    kept = [support for _, support, _ in polynomial._PLANS]
    assert kept == [tuple(small.coeffs), ((40, 0, 0),)]


def test_multinomials_beyond_the_float_range_are_range_errors():
    # (1 + x)^1100 has binomial coefficients above 1.8e308.
    with pytest.raises(RangeError):
        Polynomial.monomial(1, (1100,)).substitute_affine(None, np.array([1.0]))


def test_drop_small_is_relative():
    p = Polynomial(1, {(0,): 1.0, (1,): 1e-15})
    assert list(p.drop_small(1e-12).coeffs) == [(0,)]
    tiny = Polynomial(1, {(0,): 1e-15, (1,): 2e-15})
    assert len(tiny.drop_small(1e-12).coeffs) == 2  # both survive, scale-aware


def test_dimension_checks():
    with pytest.raises(DimensionMismatch):
        Polynomial(2, {(1,): 1.0})
    with pytest.raises(DimensionMismatch):
        Polynomial(1, {(1,): 1.0}) + Polynomial(2, {(1, 0): 1.0})


def test_evaluate_many_matches_scalar(rng):
    p = Polynomial(3, {(1, 0, 2): 1.0 + 1j, (0, 0, 0): 0.5})
    pts = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
    many = p.evaluate_many(pts)
    for k in range(6):
        assert many[k] == pytest.approx(p.evaluate(pts[k]), rel=1e-14)


def test_multiindex_enumeration():
    up_to = list(mi.indices_up_to(2, 2))
    assert up_to == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert mi.degree((2, 3, 1)) == 6
    assert mi.add((1, 0), (0, 2)) == (1, 2)


# ---------------------------------------------------------------------------
# gaussian_smooth: H_S = exp(1/2 grad . S grad)


def _random_poly(rng, dim, deg):
    return Polynomial(
        dim,
        {a: complex(rng.normal(), rng.normal()) for a in mi.indices_up_to(dim, deg)},
    )


def _random_symmetric(rng, dim):
    a = rng.normal(size=(dim, dim))
    return (a + a.T) / 2.0


def _distance(p, q):
    """Largest coefficient difference relative to the largest coefficient of p."""
    diff = (p - q).coeffs.values()
    return max(map(abs, diff), default=0.0) / max(map(abs, p.coeffs.values()))


SMOOTH_CASES = st.tuples(st.integers(1, 3), st.integers(0, 6), st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None)
@given(SMOOTH_CASES)
def test_gaussian_smooth_is_a_semigroup(case):
    dim, deg, seed = case
    rng = np.random.default_rng(seed)
    p = _random_poly(rng, dim, deg)
    a = _random_symmetric(rng, dim)
    b = _random_symmetric(rng, dim)
    composed = p.gaussian_smooth(b).gaussian_smooth(a)
    assert _distance(p.gaussian_smooth(a + b), composed) <= 1e-12
    assert _distance(p, p.gaussian_smooth(a).gaussian_smooth(-a)) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(SMOOTH_CASES)
def test_gaussian_smooth_fixes_degree_one(case):
    dim, _, seed = case
    rng = np.random.default_rng(seed)
    p = _random_poly(rng, dim, 1)
    assert p.gaussian_smooth(_random_symmetric(rng, dim)).coeffs == p.coeffs


def test_gaussian_smooth_second_moments():
    # H_S (x_j x_k) = x_j x_k + S_jk, the covariance of the Gaussian
    s = np.array([[2.0, 0.3, -0.5], [0.3, 1.0, 0.7], [-0.5, 0.7, 3.0]])
    for j in range(3):
        for k in range(3):
            alpha = mi.add(mi.unit(3, j), mi.unit(3, k))
            smooth = Polynomial.monomial(3, alpha).gaussian_smooth(s)
            assert smooth.coeffs == {alpha: 1.0, mi.zero(3): pytest.approx(s[j, k], abs=1e-15)}
    with pytest.raises(DimensionMismatch):
        Polynomial.monomial(3, (2, 0, 0)).gaussian_smooth(np.eye(2))


def test_power_above_the_cap_is_refused_before_multiplying():
    p = Polynomial(2, {(0, 0): 1.0, (1, 0): 1.0, (0, 1): 1.0})
    assert len((p ** 4).coeffs) == 15  # C(2 + 4, 2)
    tracemalloc.start()
    try:
        # C(2 + 3000, 2) = 4,504,501 possible monomials, above 2^22
        with pytest.raises(RangeError, match="power 3000 could hold 4504501 monomials"):
            p ** 3000
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_the_cap_bounds_the_tables_sized_by_the_largest_exponent():
    # x1^(2^23) under one nonzero entry: a table of 2^23 + 1 powers, and four
    # index tables of that length, about 50 million cells.
    p = Polynomial.monomial(1, (1 << 23,))
    tracemalloc.start()
    try:
        with pytest.raises(RangeError, match="above the cap"):
            p.substitute_affine([[1.0001]], None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_negative_powers_and_wrong_shaped_maps_are_refused():
    p = Polynomial(2, {(1, 0): 1.0})
    with pytest.raises(ValueError, match="nonnegative integer"):
        p ** -1
    with pytest.raises(DimensionMismatch, match="substitution matrix has wrong shape"):
        p.substitute_affine(np.eye(3), None)


def test_evaluate_and_offset_read_vectors_of_the_right_length():
    p = Polynomial(1, {(2,): 1.0})
    assert p.evaluate(3.0) == p.evaluate([3.0]) == 9.0
    with pytest.raises(DimensionMismatch, match=r"point has shape \(2,\), expected \(1,\)"):
        p.evaluate([1.0, 2.0])
    with pytest.raises(DimensionMismatch, match="offset has shape"):
        p.substitute_affine(None, [1.0, 2.0])
