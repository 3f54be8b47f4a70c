"""Each check accepts the engine's result and rejects a corrupted one."""

import json
import math

import numpy as np
import pytest

import checks
import polygauss
import polygauss.cli
import workloads as W
from polygauss import serialization, transform


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def _pair(rng, dim=2):
    return W.random_function(rng, dim, 2, 2), W.random_function(rng, dim, 2, 3)


def _engine(terms):
    return W.build(polygauss, terms)


def _conjugated(terms):
    return [({a: c.conjugate() for a, c in cs.items()}, q, np.conj(b)) for cs, q, b in terms]


def test_transform_rejects_conjugated_transform(rng):
    f, _ = _pair(rng)
    fhat = W.plain(transform.fourier_transform(_engine(f)))
    freqs = rng.normal(size=(2, 2))
    assert checks.transform_of(fhat, f, freqs)
    assert not checks.transform_of(_conjugated(fhat), f, freqs)


def test_inverse_transform_rejects_forward_transform(rng):
    f, _ = _pair(rng)
    points = rng.normal(size=(2, 2))
    assert checks.inverse_transform_of(W.plain(transform.inverse_transform(_engine(f))), f, points)
    assert not checks.inverse_transform_of(W.plain(transform.fourier_transform(_engine(f))), f, points)


def test_sum_and_product_reject_scaled_results(rng):
    f, g = _pair(rng)
    pts = W.check_points(rng, 2)
    prod = W.plain(_engine(f) * _engine(g))
    total = W.plain(_engine(f) + _engine(g))
    assert checks.product_of(prod, f, g, pts)
    assert checks.sum_of(total, f, g, pts)
    assert not checks.product_of(checks.scaled(prod, 1 + 1e-6), f, g, pts)
    assert not checks.sum_of(checks.scaled(total, 1 + 1e-6), f, g, pts)


def test_convolution_rejects_a_wrong_result(rng):
    f, g = _pair(rng)
    conv = W.plain(transform.convolve(_engine(f), _engine(g)))
    pts = rng.normal(size=(2, 2))
    assert checks.convolution_of(conv, f, g, pts)
    assert not checks.convolution_of(checks.scaled(conv, 1 + 1e-6), f, g, pts)
    assert not checks.convolution_of(W.plain(_engine(f) * _engine(g)), f, g, pts)


def test_numbers_reject_conjugates_and_nudges(rng):
    f, g = _pair(rng)
    value = transform.inner_product(_engine(f), _engine(g))
    assert checks.inner_of(value, f, g)
    assert not checks.inner_of(value.conjugate(), f, g)
    total = transform.integral(_engine(f))
    assert checks.integral_of(total, f)
    assert not checks.integral_of(total * (1 + 1e-7), f)


def test_calculus_checks_reject_wrong_signs(rng):
    f, _ = _pair(rng)
    pts = W.check_points(rng, 2)
    freqs = rng.normal(size=(2, 2))
    a = W.random_shift(rng, 2)
    b = rng.normal(size=2)
    matrix = np.array([[1.2, 0.3], [-0.4, 0.9]])

    diff = W.plain(_engine(f).differentiate((1, 1)))
    assert checks.derivative_of(diff, f, (1, 1), freqs)
    assert not checks.derivative_of(checks.scaled(diff, -1), f, (1, 1), freqs)

    assert checks.translate_of(W.plain(_engine(f).translate(a)), f, a, pts)
    assert not checks.translate_of(W.plain(_engine(f).translate(-a)), f, a, pts)

    assert checks.modulate_of(W.plain(_engine(f).modulate(b)), f, b, pts)
    assert not checks.modulate_of(W.plain(_engine(f).modulate(-b)), f, b, pts)

    assert checks.compose_of(W.plain(_engine(f).compose_linear(matrix)), f, matrix, pts)
    assert not checks.compose_of(W.plain(_engine(f).compose_linear(matrix.T)), f, matrix, pts)


def test_derivative_basis_rejects_conjugated_coefficients(rng):
    f, _ = _pair(rng)
    freqs = rng.normal(size=(2, 2))
    expansions = [
        (e.quad.entries, e.shift, e.coeffs)
        for e in polygauss.function_to_derivative_basis(_engine(f))
    ]
    assert checks.derivative_basis_of(expansions, f, freqs)
    bad = [(q, b, {k: c.conjugate() for k, c in cs.items()}) for q, b, cs in expansions]
    assert not checks.derivative_basis_of(bad, f, freqs)


def _cli(argv):
    code, out = W.run_cli(polygauss, argv)
    assert code == 0
    return out


def test_cli_text_outputs_are_read_independently(rng, tmp_path):
    f, _ = _pair(rng)
    path = tmp_path / "f.json"
    path.write_text(serialization.function_to_json(_engine(f)))
    pts = W.check_points(rng, 2)

    text = _cli(["fmt", str(path)])
    assert checks.expression_of(text, f, pts)
    assert not checks.expression_of(text.replace("exp(", "2*exp(", 1), f, pts)

    csv_text = _cli(["sample", "--grid=-1:1:5", str(path)])
    assert checks.samples_of(csv_text, f)
    lines = csv_text.splitlines()
    x1, x2, re, im = lines[3].split(",")
    lines[3] = ",".join([x1, x2, repr(float(re) * 1.001 + 1e-3), im])
    assert not checks.samples_of("\n".join(lines) + "\n", f)

    expr = W.expression(f)
    doc = json.loads(_cli(["ft", expr]))
    assert checks.transform_of(checks.terms_from_json(doc), f, rng.normal(size=(1, 2)))


def test_eval_expression_reads_every_literal_form():
    text = "-i*x1^2*exp(-pi*[[2,0.5],[0.5,1]][x,x] + [1e-05-0.3i,-2i].x) + (1-2i)*exp(-pi*[[3,0],[0,1]][x,x])"
    x = np.array([[0.3, -0.2]])
    q1 = np.array([[2, 0.5], [0.5, 1]])
    b1 = np.array([1e-05 - 0.3j, -2j])
    want = -1j * 0.09 * np.exp(-math.pi * x[0] @ q1 @ x[0] + x[0] @ b1)
    want += (1 - 2j) * np.exp(-math.pi * (3 * 0.09 + 0.04))
    assert abs(checks.eval_expression(text, x)[0] - want) < 1e-14


def test_oracle_verdicts(rng):
    f, g = _pair(rng, dim=1)
    fhat = W.plain(transform.fourier_transform(_engine(f)))
    assert W.transform_verdict(fhat, f)
    assert not W.transform_verdict(_conjugated(fhat), f)
    assert checks.plancherel_holds(f, fhat, 1e-9)
    assert not checks.plancherel_holds(f, checks.scaled(fhat, 1.01), 1e-9)
    conv = W.plain(transform.convolve(_engine(f), _engine(g)))
    assert W.convolution_verdict(conv, f, g)
    assert not W.convolution_verdict(checks.scaled(conv, 1.001), f, g)
    assert W.derivative_verdict(f)
    value = polygauss.quad_fourier(_engine(f), [0.25])
    want = W.ref.fourier(f, [0.25])
    assert checks.oracle_value_of(value, want)
    assert not checks.oracle_value_of(value + 1e-3, want)
