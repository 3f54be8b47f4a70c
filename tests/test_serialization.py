import json

import pytest

from polygauss import (
    GaussPoly,
    SchemaError,
    coefficient_distance,
    function_from_json,
    function_to_json,
    to_derivative_basis,
)
from polygauss.serialization import expansions_to_json, format_float, matrix_text
from polygauss.testing import random_gauss_poly


def test_schema_field_names():
    doc = json.loads(function_to_json(GaussPoly.standard(2)))
    assert set(doc) == {"dim", "terms"}
    term = doc["terms"][0]
    assert set(term) == {"poly", "quad", "shift"}
    assert set(term["poly"][0]) == {"alpha", "re", "im"}
    assert set(term["shift"][0]) == {"re", "im"}
    assert term["quad"] == [[1, 0], [0, 1]]


def test_seventeen_digit_round_trip():
    x = 0.1 + 0.2  # not exactly 0.3
    assert float(format_float(x)) == x
    assert format_float(1.0) == "1"
    assert format_float(-0.0) == "0"


def test_function_round_trip_is_exact(rng):
    for dim in (1, 2, 3):
        f = random_gauss_poly(rng, dim, n_terms=3, max_degree=3)
        text = function_to_json(f)
        back = function_from_json(text)
        assert coefficient_distance(f, back) == 0.0
        assert function_to_json(back) == text  # byte-stable


def test_output_is_single_line_lf():
    text = function_to_json(GaussPoly.standard(1))
    assert "\n" not in text
    assert '"dim":1' in text


def test_rejects_wrong_top_level():
    with pytest.raises(SchemaError):
        function_from_json("[]")
    with pytest.raises(SchemaError):
        function_from_json('{"dim": 1}')
    with pytest.raises(SchemaError):
        function_from_json("not json at all")


def test_rejects_bad_terms():
    with pytest.raises(SchemaError):
        function_from_json('{"dim":1,"terms":[{"poly":[],"quad":[[1]],"shift":[{"re":0,"im":0}]}]}')
    with pytest.raises(SchemaError):
        function_from_json(
            '{"dim":1,"terms":[{"poly":[{"alpha":[0],"re":1,"im":0}],'
            '"quad":[[-1]],"shift":[{"re":0,"im":0}]}]}'
        )
    with pytest.raises(SchemaError):
        function_from_json(
            '{"dim":2,"terms":[{"poly":[{"alpha":[0],"re":1,"im":0}],'
            '"quad":[[1,0],[0,1]],"shift":[{"re":0,"im":0},{"re":0,"im":0}]}]}'
        )


def test_parsed_function_is_canonical():
    # duplicate keys in the document merge on load
    text = (
        '{"dim":1,"terms":['
        '{"poly":[{"alpha":[0],"re":1,"im":0}],"quad":[[1]],"shift":[{"re":0,"im":0}]},'
        '{"poly":[{"alpha":[0],"re":2,"im":0}],"quad":[[1]],"shift":[{"re":0,"im":0}]}]}'
    )
    f = function_from_json(text)
    assert len(f.terms) == 1
    assert f.terms[0].poly.coeffs[(0,)] == pytest.approx(3.0)


def test_expansion_schema():
    term = GaussPoly.standard(1).monomial_times((1,)).terms[0]
    doc = json.loads(expansions_to_json([to_derivative_basis(term)]))
    assert set(doc[0]) == {"quad", "shift", "coeffs"}
    assert set(doc[0]["coeffs"][0]) == {"beta", "re", "im"}
    assert doc[0]["coeffs"][0]["beta"] == [1]


def test_non_finite_rejected():
    with pytest.raises(SchemaError):
        format_float(float("inf"))


def test_format_float_and_matrix_text_take_a_digit_count():
    assert format_float(1 / 3, 6) == "0.333333"
    assert format_float(-0.0, 6) == "0"
    assert matrix_text([[1.0, -0.0], [1 / 3, 2.5e-20]], 6) == "[[1,0],[0.333333,2.5e-20]]"
    assert matrix_text([[1 / 3]]) == "[[0.33333333333333331]]"


def test_an_integer_beyond_the_float_range_is_not_finite():
    doc = (
        '{"dim":1,"terms":[{"poly":[{"alpha":[0],"re":%s,"im":0}],'
        '"quad":[[1]],"shift":[{"re":0,"im":0}]}]}' % ("1" * 401)
    )
    with pytest.raises(SchemaError, match="re and im must be finite"):
        function_from_json(doc)
