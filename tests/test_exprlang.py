import math

import numpy as np
import pytest

from polygauss import (
    DimensionMismatch,
    GaussPoly,
    GaussTerm,
    ParseError,
    Polynomial,
    SpdError,
    SpdForm,
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


# ---------------------------------------------------------------------------
# golden output: printed forms and parse errors, byte for byte


UNIT_EXP = "exp(-pi*[[1]][x,x])"


@pytest.mark.parametrize(
    "coeff, printed",
    [
        (1, ["", "x1*", "x1^3*"]),
        (-1, ["-", "-x1*", "-x1^3*"]),
        (1j, ["i*", "i*x1*", "i*x1^3*"]),
        (-1j, ["-i*", "-i*x1*", "-i*x1^3*"]),
        (2.5, ["2.5*", "2.5*x1*", "2.5*x1^3*"]),
        (-2.5, ["-2.5*", "-2.5*x1*", "-2.5*x1^3*"]),
        (1 + 2j, ["(1+2i)*", "(1+2i)*x1*", "(1+2i)*x1^3*"]),
        (-1 - 2j, ["(-1-2i)*", "(-1-2i)*x1*", "(-1-2i)*x1^3*"]),
    ],
)
def test_format_special_coefficients(coeff, printed):
    for power, prefix in zip((0, 1, 3), printed):
        term = GaussTerm(Polynomial(1, {(power,): coeff}), SpdForm([[1.0]]), np.zeros(1))
        assert format_function(GaussPoly(1, [term])) == prefix + UNIT_EXP


def test_format_signed_sums_inside_and_between_terms():
    poly = Polynomial(1, {(0,): 1j, (1,): -1, (3,): -2 - 0.5j, (2,): 1})
    f = GaussPoly(1, [GaussTerm(poly, SpdForm([[1.0]]), np.array([0.5 - 1j]))])
    assert format_function(f) == (
        "(i - x1 + x1^2 + (-2-0.5i)*x1^3)*exp(-pi*[[1]][x,x] + [0.5-i].x)"
    )
    g = GaussPoly(1, [
        GaussTerm(Polynomial(1, {(0,): -1j}), SpdForm([[1.0]]), np.zeros(1)),
        GaussTerm(Polynomial(1, {(0,): -1, (1,): 1}), SpdForm([[2.0]]), np.array([1j])),
    ])
    for digits in (6, 17):
        assert format_function(g, digits) == (
            "-i*exp(-pi*[[1]][x,x]) + (-1 + x1)*exp(-pi*[[2]][x,x] + [i].x)"
        )


ANY_FACTOR = "(expected number | 'pi' | 'i' | 'exp(' | 'x<k>' | '(')"


@pytest.mark.parametrize(
    "text, message, line, column",
    [
        ("", f"unexpected end of input at 1:1 {ANY_FACTOR}", 1, 1),
        ("2*+x1", f"unexpected '+' at 1:3 {ANY_FACTOR}", 1, 3),
        ("foo(x1)", "unknown name 'foo' at 1:1", 1, 1),
        ("exp(-pi*[[1]][x,x]", "unexpected end of input at 1:19 (expected ')')", 1, 19),
        ("x1^-1", "unexpected '-' at 1:4 (expected monomial exponent)", 1, 4),
        ("x1^1.5", "monomial exponent must be a nonnegative integer at 1:4", 1, 4),
        ("x0", "variable indices start at x1 at 1:1", 1, 1),
        ("exp(-pi*[1])", "unexpected ')' at 1:12 (expected '.x')", 1, 12),
        ("exp(-pi*[[1i]][x,x])", "number must be real at 1:11", 1, 11),
        ("exp([1+2].x)", "second part of a complex element must be imaginary at 1:9", 1, 9),
        ("3 4", "unexpected 4.0 at 1:3 (expected operator | end of input)", 1, 3),
        ("2i i", "unexpected 'i' at 1:4 (expected operator | end of input)", 1, 4),
        ("1e999*x1", "number 1e999 is out of range at 1:1", 1, 1),
        ("exp(-pi*[[1]]\n[x,x] + $)", "illegal character '$' at 2:9", 2, 9),
        ("exp(-pi*[[1,2]][x,x])",
         "matrix literal must be square, got rows of lengths [2] at 1:9", 1, 9),
        ("exp([1,].x)", "unexpected ']' at 1:8 (expected number)", 1, 8),
    ],
)
def test_parse_error_messages(text, message, line, column):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message
    assert (err.value.line, err.value.column) == (line, column)
