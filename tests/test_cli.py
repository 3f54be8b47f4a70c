import argparse
import json
import math
import subprocess
import sys
import tracemalloc
import warnings

import pytest

from polygauss import (
    GaussPoly,
    coefficient_distance,
    function_from_json,
    function_to_json,
)
from polygauss.cli import DIFF_MAX_ORDER, SAMPLE_MAX_POINTS, main
from polygauss.testing import random_gauss_poly


def write_function(tmp_path, f, name="f.json"):
    path = tmp_path / name
    path.write_text(function_to_json(f) + "\n", encoding="utf-8")
    return str(path)


def test_ft_on_standard_gaussian_is_identity(tmp_path, capsys):
    g = GaussPoly.standard(1)
    path = write_function(tmp_path, g)
    assert main(["ft", path]) == 0
    out = capsys.readouterr().out
    assert out.strip() == function_to_json(g)


def test_ift_undoes_ft(tmp_path):
    f = GaussPoly.standard(2).monomial_times((1, 0))
    path = write_function(tmp_path, f)
    mid = str(tmp_path / "mid.json")
    assert main(["ft", path, "-o", mid]) == 0
    out = str(tmp_path / "out.json")
    assert main(["ift", mid, "-o", out]) == 0
    back = function_from_json((tmp_path / "out.json").read_text())
    assert coefficient_distance(f, back) <= 1e-10


def test_expression_inputs_and_mul(tmp_path, capsys):
    assert main(["mul", "exp(-pi*[[1]][x,x])", "exp(-pi*[[1]][x,x])"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["terms"][0]["quad"] == [[2]]


def test_conv_command(tmp_path, capsys):
    assert main(["conv", "exp(-pi*[[1]][x,x])", "exp(-pi*[[1]][x,x])"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["terms"][0]["quad"][0][0] == pytest.approx(0.5)
    assert doc["terms"][0]["poly"][0]["re"] == pytest.approx(2.0 ** -0.5)


def test_diff_translate_modulate_compose(tmp_path, capsys):
    expr = "exp(-pi*[[1]][x,x])"
    assert main(["diff", "--alpha", "1", expr]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["terms"][0]["poly"][0]["alpha"] == [1]

    assert main(["translate", "--a", "1", expr]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["terms"][0]["shift"][0]["re"] == pytest.approx(2 * math.pi)

    assert main(["modulate", "--b", "1", expr]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["terms"][0]["shift"][0]["im"] == pytest.approx(-2 * math.pi)

    assert main(["compose", "--matrix", "[[2.0]]", expr]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["terms"][0]["quad"] == [[4]]


def test_inner_and_integral(capsys):
    expr = "exp(-pi*[[1]][x,x])"
    assert main(["inner", expr, expr]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["re"] == pytest.approx(2.0 ** -0.5)

    assert main(["integral", expr]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["re"] == pytest.approx(1.0)


def test_to_deriv_basis_command(capsys):
    assert main(["to-deriv-basis", "x1*exp(-pi*[[1]][x,x])"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc[0]["coeffs"][0]["beta"] == [1]
    assert doc[0]["coeffs"][0]["re"] == pytest.approx(-1.0 / (2 * math.pi))


def test_sample_csv_values(tmp_path):
    out = tmp_path / "grid.csv"
    assert main(["sample", "--grid=-2:2:5", "exp(-pi*[[1]][x,x])", "-o", str(out)]) == 0
    raw = out.read_bytes().decode()
    assert "\r" not in raw
    lines = raw.strip().split("\n")
    assert lines[0] == "x1,re,im"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    expect = [math.exp(-4 * math.pi), math.exp(-math.pi), 1.0, math.exp(-math.pi), math.exp(-4 * math.pi)]
    assert values == pytest.approx(expect, rel=1e-12)


def test_sample_grid_2d_row_major(tmp_path):
    out = tmp_path / "grid.csv"
    assert main(
        ["sample", "--grid=0:1:2", "exp(-pi*[[1,0],[0,1]][x,x])", "-o", str(out)]
    ) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "x1,x2,re,im"
    coords = [tuple(line.split(",")[:2]) for line in lines[1:]]
    assert coords == [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]


def test_fmt_round_trip(capsys):
    text = "(2+3i)*x1^2*exp(-pi*[[2,0],[0,1]][x,x] + [1i,0].x)"
    assert main(["fmt", text]) == 0
    printed = capsys.readouterr().out.strip()
    assert main(["fmt", printed]) == 0
    assert capsys.readouterr().out.strip() == printed


def test_verify_plancherel_pass_and_corrupted(tmp_path, capsys, rng):
    f = random_gauss_poly(rng, 1, n_terms=2, max_degree=2)
    f_path = write_function(tmp_path, f)
    hat_path = str(tmp_path / "fhat.json")
    assert main(["ft", f_path, "-o", hat_path]) == 0
    assert main(["verify", "--rule", "plancherel", f_path, hat_path]) == 0
    out = capsys.readouterr().out
    assert "status=pass" in out
    residual = float(out.split("residual=")[1].split()[0])
    assert residual <= 1e-9

    doc = json.loads(open(hat_path).read())
    doc["terms"][0]["poly"][0]["re"] *= 1.01
    doc["terms"][0]["poly"][0]["im"] *= 1.01
    open(hat_path, "w").write(json.dumps(doc))
    assert main(["verify", "--rule", "plancherel", f_path, hat_path]) == 1
    assert "status=fail" in capsys.readouterr().out


def test_verify_ft_and_deriv_and_conv(tmp_path, capsys, rng):
    f = random_gauss_poly(rng, 1, n_terms=1, max_degree=2)
    f_path = write_function(tmp_path, f)
    assert main(["verify", "--rule", "ft", f_path]) == 0
    assert main(["verify", "--rule", "deriv", f_path]) == 0
    g = random_gauss_poly(rng, 1, n_terms=1, max_degree=1)
    g_path = write_function(tmp_path, g, "g.json")
    assert main(["verify", "--rule", "conv", f_path, g_path]) == 0
    capsys.readouterr()


def test_exit_codes_for_bad_input(tmp_path, capsys):
    assert main(["ft", "exp(("]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[parse]")

    assert main(["ft", "exp(pi*[[1]][x,x])"]) == 2
    assert capsys.readouterr().err.startswith("error[spd]")

    assert main(["ft", str(tmp_path / "missing.json")]) == 2
    assert capsys.readouterr().err.startswith("error[schema]")

    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 1}')
    assert main(["ft", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error[schema]")


def test_stdin_stdout_pipeline():
    g = GaussPoly.standard(1)
    proc = subprocess.run(
        [sys.executable, "-m", "polygauss", "ft", "-"],
        input=function_to_json(g) + "\n",
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == function_to_json(g)


def test_ft_twice_plus_negation_is_identity(tmp_path):
    f = GaussPoly.standard(1).monomial_times((1,))
    path = write_function(tmp_path, f)
    step = str(tmp_path / "step.json")
    assert main(["ft", path, "-o", step]) == 0
    assert main(["ft", step, "-o", step]) == 0
    assert main(["compose", "--matrix=-I", step, "-o", step]) == 0
    back = function_from_json((tmp_path / "step.json").read_text())
    assert coefficient_distance(f, back) <= 1e-12


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


def test_determinism_byte_identical(tmp_path):
    expr = "x1*exp(-pi*[[1,0],[0,2]][x,x] + [1i,0.5].x)"
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["ft", expr, "-o", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# every bad input ends in a typed error: exit 2 and error[code]


def one_term_doc(re=1, shift_re=0, quad=1):
    return (
        '{"dim":1,"terms":[{"poly":[{"alpha":[0],"re":%s,"im":0}],'
        '"quad":[[%s]],"shift":[{"re":%s,"im":0}]}]}' % (re, quad, shift_re)
    )


@pytest.mark.parametrize(
    "doc",
    [
        one_term_doc(re='"1"'),
        one_term_doc(re="NaN"),
        one_term_doc(re="1e999"),
        one_term_doc(shift_re="Infinity"),
        one_term_doc(quad="NaN"),
    ],
    ids=["string-coefficient", "nan-coefficient", "overflowing-coefficient",
         "infinite-shift", "nan-quad"],
)
def test_malformed_numbers_are_schema_errors(tmp_path, capsys, doc):
    path = tmp_path / "f.json"
    path.write_text(doc)
    assert main(["ft", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error[schema]")
    assert captured.out == ""


def test_non_finite_literal_is_a_parse_error(capsys):
    assert main(["ft", "exp(-pi*[[1]][x,x] + [1e400].x)"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error[parse]")
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["integral", "exp(-pi*[[1]][x,x] + [300].x)"],
        # the true f(x - 400) is 1 at x = 400; its stored constant
        # exp(-pi 400^2) underflows, which must not give the zero function
        ["translate", "--a=400", "exp(-pi*[[1]][x,x])"],
        ["ft", "1e300*1e300*exp(-pi*[[1]][x,x])"],
    ],
    ids=["transform-constant-overflows", "translate-constant-underflows",
         "coefficient-overflows"],
)
def test_out_of_range_values_are_range_errors(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error[range]")
    assert captured.out == ""


UNIT_3D = "exp(-pi*[[1,0,0],[0,1,0],[0,0,1]][x,x])"


@pytest.mark.parametrize(
    "code, argv",
    [
        ("dim", ["mul", "exp(-pi*[[1]][x,x])", "exp(-pi*[[1,0],[0,1]][x,x])"]),
        ("singular", ["compose", "--matrix=[[0]]", "exp(-pi*[[1]][x,x])"]),
        ("solve", ["to-deriv-basis", "x1^4*exp(-pi*[[1,0],[0,1e-4]][x,x])"]),
        ("quadrature", ["verify", "--rule", "conv", UNIT_3D, UNIT_3D]),
        ("io", ["ft", "exp(-pi*[[1]][x,x])", "-o", "{tmp}/no-such-dir/out.json"]),
    ],
)
def test_each_error_class_reports_its_code(tmp_path, capsys, code, argv):
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error[{code}]")
    assert captured.out == ""


def test_unexpected_exception_is_an_internal_error(capsys, monkeypatch):
    from polygauss import transform

    def broken(f):
        raise ZeroDivisionError("simulated defect")

    monkeypatch.setattr(transform, "fourier_transform", broken)
    assert main(["ft", "exp(-pi*[[1]][x,x])"]) == 2
    assert capsys.readouterr().err.startswith("error[internal]: ZeroDivisionError")


# ---------------------------------------------------------------------------
# option values are read by the expression language's literal grammar


UNIT = "exp(-pi*[[1]][x,x])"


@pytest.mark.parametrize(
    "argv",
    [
        ["translate", "--a=nan", UNIT],
        ["translate", "--a=1e400", UNIT],
        ["modulate", "--b=nan", UNIT],
        ["diff", "--alpha=-1", UNIT],
        ["diff", "--alpha=1.5", UNIT],
        ["compose", "--matrix=[[NaN]]", UNIT],
        ["compose", '--matrix=[["a"]]', UNIT],
        ["compose", "--matrix=[[1,2]]", UNIT],
        ["sample", "--grid=nan:1:3", UNIT],
        ["verify", "--rule=ft", "--tol=nan", UNIT],
        ["verify", "--rule=ft", "--tol=-1", UNIT],
    ],
    ids=["a-nan", "a-overflow", "b-nan", "alpha-negative", "alpha-fraction",
         "matrix-nan", "matrix-string", "matrix-not-square", "grid-nan",
         "tol-nan", "tol-negative"],
)
def test_malformed_option_values_are_parse_errors(capsys, argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error[parse]")
    assert captured.out == ""
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_option_values_use_literal_syntax(capsys):
    outputs = []
    for argv in (
        ["translate", "--a=1+0i", UNIT],
        ["translate", "--a", " 1 ", UNIT],
        ["compose", "--matrix=[[1e0]]", UNIT],
        ["compose", "--matrix=I", UNIT],
        ["ft", UNIT],
    ):
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[2] == outputs[3] == outputs[4]

    assert main(["modulate", "--b=-i,2.5e-1", "exp(-pi*[[1,0],[0,1]][x,x])"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["terms"][0]["shift"][0]["re"] == pytest.approx(-2 * math.pi)
    assert doc["terms"][0]["shift"][1]["im"] == pytest.approx(-0.5 * math.pi)

    assert main(["translate", "--a=1+2j", UNIT]) == 2
    assert capsys.readouterr().err.startswith("error[parse]")


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    built = []
    construct = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        construct(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["ft", UNIT]) == 0
    assert main(["integral", UNIT]) == 0
    capsys.readouterr()
    assert built == []


UNIT_2D = "exp(-pi*[[1,0],[0,1]][x,x])"


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", f"--grid=0:1:{SAMPLE_MAX_POINTS + 1}", UNIT],
        ["sample", f"--axis=1=0:1:{SAMPLE_MAX_POINTS + 1}", UNIT],
        ["sample", f"--grid=0:1:{math.isqrt(SAMPLE_MAX_POINTS) + 1}", UNIT_2D],
        ["diff", f"--alpha={DIFF_MAX_ORDER + 1}", UNIT],
        ["diff", f"--alpha={DIFF_MAX_ORDER // 2},{DIFF_MAX_ORDER - DIFF_MAX_ORDER // 2 + 1}",
         UNIT_2D],
        # x1^127 under a map whose first row has four entries: 357,760 terms.
        ["compose", "--matrix=[[1,1,1,1],[0,1,1,1],[0,0,1,1],[0,0,0,1]]",
         "x1^127*exp(-pi*[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]][x,x])"],
    ],
    ids=["grid-steps", "axis-steps", "grid-total-2d", "alpha-order", "alpha-order-2d",
         "substitution-terms"],
)
def test_sizes_above_the_caps_are_range_errors(capsys, argv):
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error[range]")
    assert captured.out == ""
    assert peak < 1_000_000  # refused before the grid, derivative or expansion is built
