import math

import pytest

from polygauss import (
    DimensionMismatch,
    GaussPoly,
    ParseError,
    SpdError,
    coefficient_distance,
    evaluate_ast,
    format_function,
    lower,
    parse,
)
from polygauss.exprlang import parse_literal
from polygauss.testing import random_gauss_poly, random_points


def roundtrip(text, dim=None):
    return lower(parse(text), dim)


# ---------------------------------------------------------------------------
# parse + lower


def test_unit_gaussian():
    f = roundtrip("exp(-pi*[[1]][x,x])")
    assert coefficient_distance(f, GaussPoly.standard(1)) == 0.0


def test_full_term_example():
    f = roundtrip("(2+3i)*x1^2*exp(-pi*[[2,0],[0,1]][x,x] + [1i,0].x)")
    assert f.dim == 2
    assert len(f.terms) == 1
    term = f.terms[0]
    assert term.poly.coeffs == {(2, 0): pytest.approx(2 + 3j)}
    assert term.quad.entries[0, 0] == pytest.approx(2.0)
    assert term.shift[0] == pytest.approx(1j)
    assert term.shift[1] == pytest.approx(0.0)


def test_growing_exponent_rejected():
    with pytest.raises(SpdError):
        roundtrip("exp(pi*[[1]][x,x])")


def test_bare_polynomial_rejected():
    with pytest.raises(SpdError):
        roundtrip("x1^2", dim=1)


def test_lowering_matches_ast_interpreter(rng):
    texts = [
        "exp(-pi*[[1]][x,x])",
        "(1-1i)*x1*exp(-pi*[[1,0],[0,2]][x,x])",
        "2*exp(-pi*[[1]][x,x] + [0.5i].x) - x1^3*exp(-2*pi*[[1]][x,x])",
        "(x1 + 2*x2)*(x1 - x2)*exp(-pi*[[2,0.5],[0.5,1]][x,x] + [1,-1i].x)",
    ]
    for text in texts:
        ast = parse(text)
        f = lower(ast)
        for z in random_points(rng, 10, f.dim, scale=0.8, complex_parts=True):
            direct = evaluate_ast(ast, z)
            assert abs(f.evaluate(z) - direct) <= 1e-10 * (1.0 + abs(direct))


def test_sum_of_identical_terms_merges():
    f = roundtrip("exp(-pi*[[1]][x,x]) + exp(-pi*[[1]][x,x])")
    assert len(f.terms) == 1
    assert f.terms[0].poly.coeffs[(0,)] == pytest.approx(2.0)


def test_distributed_monomial_is_same_canonical_form():
    a = roundtrip("x1*(exp(-pi*[[1]][x,x]) + exp(-2*pi*[[1]][x,x]))")
    b = roundtrip("x1*exp(-pi*[[1]][x,x]) + x1*exp(-2*pi*[[1]][x,x])")
    assert coefficient_distance(a, b) == 0.0


def test_exponent_constant_folds_into_coefficient():
    f = roundtrip("exp(-pi*[[1]][x,x] + 1)")
    assert f.terms[0].poly.coeffs[(0,)] == pytest.approx(math.e)


def test_dimension_inference_and_checks():
    assert roundtrip("x1*exp(-pi*[[1,0],[0,1]][x,x])").dim == 2
    with pytest.raises(DimensionMismatch):
        roundtrip("x3*exp(-pi*[[1,0],[0,1]][x,x])")
    with pytest.raises(DimensionMismatch):
        roundtrip("exp(-pi*[[1]][x,x] + [1,0].x)")
    with pytest.raises(DimensionMismatch):
        parse_and_lower_with_wrong_dim()


def parse_and_lower_with_wrong_dim():
    lower(parse("exp(-pi*[[1]][x,x])"), dim=2)


def test_asymmetric_matrix_literal_rejected():
    with pytest.raises(SpdError):
        roundtrip("exp(-pi*[[1,1],[0,1]][x,x])")


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse("2*+x1")
    assert err.value.line == 1
    assert err.value.column == 3
    assert err.value.expected


def test_parse_error_on_unknown_name():
    with pytest.raises(ParseError):
        parse("foo(x1)")


def test_parse_error_unbalanced():
    with pytest.raises(ParseError):
        parse("exp(-pi*[[1]][x,x]")


def test_nonlinear_exponent_rejected():
    with pytest.raises(ParseError):
        roundtrip("exp(-pi*[[1]][x,x]*[[1]][x,x])")
    with pytest.raises(ParseError):
        roundtrip("exp(x1)")


def test_scientific_notation_numbers():
    f = roundtrip("1e-3*exp(-pi*[[1]][x,x])")
    assert f.terms[0].poly.coeffs[(0,)] == pytest.approx(1e-3)


# ---------------------------------------------------------------------------
# format_function round trips


CORPUS = [
    "exp(-pi*[[1]][x,x])",
    "-exp(-pi*[[1]][x,x])",
    "2i*exp(-pi*[[1]][x,x])",
    "(2+3i)*x1^2*exp(-pi*[[2,0],[0,1]][x,x] + [1i,0].x)",
    "x1*x2*exp(-pi*[[1,0.5],[0.5,2]][x,x])",
    "(x1^2 - 2*x1 + 1)*exp(-pi*[[1]][x,x] + [1-1i].x)",
    "exp(-pi*[[1]][x,x]) + exp(-2*pi*[[1]][x,x])",
    "0.5*exp(-pi*[[0.25,0],[0,4]][x,x] + [2i,-0.5].x)",
]


@pytest.mark.parametrize("text", CORPUS)
def test_print_parse_round_trip(text):
    f = roundtrip(text)
    printed = format_function(f)
    again = roundtrip(printed)
    assert coefficient_distance(f, again) <= 1e-12
    # and printing is a fixed point after one round
    assert format_function(again) == printed


def test_format_zero():
    g = GaussPoly.standard(1)
    assert format_function(g + (-1.0) * g) == "0"


def test_format_random_functions_reparse(rng):
    # random functions have non-representable decimals, so compare at the
    # printing precision rather than exactly
    f = random_gauss_poly(rng, 2, n_terms=2, max_degree=2)
    printed = format_function(f, digits=17)
    again = roundtrip(printed)
    assert coefficient_distance(f, again) <= 1e-12


def test_parse_literal_reads_option_values():
    assert parse_literal("1+2i, -i,0.5", "complex") == [1 + 2j, -1j, 0.5]
    assert parse_literal("1+0i", "complex", single=True) == 1
    assert parse_literal("-2.5e-1", "real", single=True) == -0.25
    assert parse_literal("2,0,1e1", "index") == [2, 0, 10]
    assert parse_literal("[[1,-2],[3,4]]", "matrix") == [[1, -2], [3, 4]]
    for text, kind in [("nan", "real"), ("1e400", "complex"), ("1,2", "real"),
                       ("2i", "real"), ("-1", "index"), ("1.5", "index"),
                       ("[[1,2]]", "matrix"), ("[[1]] x", "matrix"), ("", "complex")]:
        with pytest.raises(ParseError):
            parse_literal(text, kind, single=kind == "real")
