"""Checks of polygauss results against the reference evaluator.

Each check takes plain data (see :mod:`reference`) and returns True when the
result is right.  A value passes when it is within ``rtol`` of the reference
value, scaled by the magnitude of the sums that produced both, so that
cancellation inside a correct computation never reads as a fault.  The
engine agrees with the reference to 1e-15 to 1e-12 of that magnitude;
``RTOL`` leaves three orders of margin and still rejects a result off by
one part in a million.
"""

import csv
import io
import math
import re

import numpy as np

import reference as ref

RTOL = 1e-9
# `fmt` prints six significant digits, so its text matches to about 1e-6.
FMT_RTOL = 1e-4
# Quadrature results from the oracle are certified to its own 1e-6 tolerance.
ORACLE_TOL = 1e-6


def close(got, want, magnitude, rtol=RTOL):
    return bool(np.all(np.abs(np.asarray(got) - np.asarray(want)) <= rtol * np.asarray(magnitude)))


def terms_from_json(doc):
    """Plain terms from a function document of the JSON interchange format."""
    terms = []
    for t in doc["terms"]:
        coeffs = {tuple(m["alpha"]): complex(m["re"], m["im"]) for m in t["poly"]}
        q = np.array(t["quad"], dtype=float)
        b = np.array([complex(z["re"], z["im"]) for z in t["shift"]])
        terms.append((coeffs, q, b))
    return terms


def terms_to_json(dim, terms):
    """A function document for plain terms, written with the json module."""
    return {
        "dim": dim,
        "terms": [
            {
                "poly": [
                    {"alpha": list(a), "re": complex(c).real, "im": complex(c).imag}
                    for a, c in sorted(coeffs.items())
                ],
                "quad": np.asarray(q, dtype=float).tolist(),
                "shift": [{"re": complex(z).real, "im": complex(z).imag} for z in b],
            }
            for coeffs, q, b in terms
        ],
    }


def scaled(terms, factor):
    return [({a: c * factor for a, c in coeffs.items()}, q, b) for coeffs, q, b in terms]


def pointwise(result, want, want_mag, points, rtol=RTOL):
    """result(x) == want(x) at each point, within rtol of the magnitudes."""
    got = ref.evaluate(result, points)
    return close(got, want, want_mag + ref.evaluate_abs(result, points), rtol)


def sum_of(result, f, g, points):
    want = ref.evaluate(f, points) + ref.evaluate(g, points)
    mag = ref.evaluate_abs(f, points) + ref.evaluate_abs(g, points)
    return pointwise(result, want, mag, points)


def product_of(result, f, g, points):
    want = ref.evaluate(f, points) * ref.evaluate(g, points)
    mag = ref.evaluate_abs(f, points) * ref.evaluate_abs(g, points)
    return pointwise(result, want, mag, points)


def _matches(result_value_mag, want_value_mag, rtol=RTOL):
    (got, got_mag), (want, want_mag) = result_value_mag, want_value_mag
    return close(got, want, got_mag + want_mag, rtol)


def transform_of(result, f, freqs):
    """result = F f at the frequencies, ift(result) = f, and Plancherel."""
    for xi in freqs:
        got = ref.evaluate(result, xi[None, :])[0]
        mag = ref.evaluate_abs(result, xi[None, :])[0]
        if not _matches((got, mag), ref.fourier(f, xi)):
            return False
        back = ref.inverse_fourier(result, xi)
        at = (ref.evaluate(f, xi[None, :])[0], ref.evaluate_abs(f, xi[None, :])[0])
        if not _matches(back, at):
            return False
    return _matches(ref.inner(result, result), ref.inner(f, f))


def inverse_transform_of(result, f, points):
    for x in points:
        got = ref.evaluate(result, x[None, :])[0]
        mag = ref.evaluate_abs(result, x[None, :])[0]
        if not _matches((got, mag), ref.inverse_fourier(f, x)):
            return False
    return True


def derivative_of(result, f, alpha, freqs):
    """F(result)(xi) == (2 pi i xi)^alpha F(f)(xi)."""
    for xi in freqs:
        factor = complex(np.prod((2j * math.pi * xi) ** np.array(alpha)))
        want, want_mag = ref.fourier(f, xi)
        if not _matches(ref.fourier(result, xi), (factor * want, abs(factor) * want_mag)):
            return False
    return True


def translate_of(result, f, a, points):
    shifted = np.asarray(points, dtype=complex) - np.asarray(a)[None, :]
    return pointwise(result, ref.evaluate(f, shifted), ref.evaluate_abs(f, shifted), points)


def modulate_of(result, f, b, points):
    pts = np.asarray(points, dtype=complex)
    char = np.exp(-2j * math.pi * (pts @ np.asarray(b)))
    return pointwise(
        result, ref.evaluate(f, pts) * char, ref.evaluate_abs(f, pts) * np.abs(char), pts
    )


def compose_of(result, f, matrix, points):
    mapped = np.asarray(points, dtype=complex) @ np.asarray(matrix, dtype=float).T
    return pointwise(result, ref.evaluate(f, mapped), ref.evaluate_abs(f, mapped), points)


def convolution_of(result, f, g, points):
    """result = f * g at the points, and int(f * g) = int f * int g."""
    for x in points:
        got = ref.evaluate(result, x[None, :])[0]
        mag = ref.evaluate_abs(result, x[None, :])[0]
        if not _matches((got, mag), ref.convolve_at(f, g, x)):
            return False
    (int_f, mag_f), (int_g, mag_g) = ref.integral(f), ref.integral(g)
    return _matches(ref.integral(result), (int_f * int_g, mag_f * mag_g))


def inner_of(value, f, g):
    return _matches((value, 0.0), ref.inner(f, g))


def integral_of(value, f):
    return _matches((value, 0.0), ref.integral(f))


def derivative_basis_of(expansions, f, freqs):
    """sum_beta c_beta (2 pi i xi)^beta e^(xi) == F(f)(xi) over all expansions."""
    for xi in freqs:
        got = (0j, 0.0)
        for q, b, coeffs in expansions:
            v, m = ref.derivative_basis_fourier(q, b, coeffs, xi)
            got = (got[0] + v, got[1] + m)
        if not _matches(got, ref.fourier(f, xi)):
            return False
    return True


def expansions_from_json(doc):
    return [
        (
            np.array(e["quad"], dtype=float),
            np.array([complex(z["re"], z["im"]) for z in e["shift"]]),
            {tuple(c["beta"]): complex(c["re"], c["im"]) for c in e["coeffs"]},
        )
        for e in doc
    ]


def samples_of(csv_text, f):
    """CSV rows x1..xn,re,im hold f's values at the listed points."""
    rows = list(csv.reader(io.StringIO(csv_text)))
    n = len(rows[0]) - 2
    data = np.array(rows[1:], dtype=float)
    pts = data[:, :n]
    got = data[:, n] + 1j * data[:, n + 1]
    mag = ref.evaluate_abs(f, pts)
    return len(rows) > 1 and close(got, ref.evaluate(f, pts), mag + np.abs(got) + 1e-300)


_QUAD = re.compile(r"(\[\[[^\[\]]*\](?:,\[[^\[\]]*\])*\])\[x,x\]")
_LINEAR = re.compile(r"(\[[^\[\]]*\])\.x")
_IMAG_NUMBER = re.compile(r"(\d(?:[\d.]*)(?:e[+-]?\d+)?)i\b")
_IMAG_UNIT = re.compile(r"(?<![\w.])i\b")


def eval_expression(text, points):
    """Evaluate expression-language text at (m, n) points, without polygauss.

    The grammar's literals map one to one onto Python: ``M[x,x]`` is the
    quadratic form, ``v.x`` the linear form, ``x3`` the third coordinate,
    ``^`` a power and a trailing ``i`` the imaginary unit.
    """
    pts = np.asarray(points, dtype=complex)
    code = _QUAD.sub(r"QF(\1)", text)
    code = _LINEAR.sub(r"LF(\1)", code)
    code = re.sub(r"x(\d+)", r"X(\1)", code)
    code = code.replace("^", "**").replace("pi", "PI")
    code = _IMAG_NUMBER.sub(r"\1j", code)
    code = _IMAG_UNIT.sub("1j", code)
    names = {
        "__builtins__": {},
        "PI": math.pi,
        "exp": np.exp,
        "X": lambda k: pts[:, k - 1],
        "QF": lambda m: np.einsum("ij,jk,ik->i", pts, np.array(m, dtype=float), pts),
        "LF": lambda v: pts @ np.array(v, dtype=complex),
    }
    value = eval(code, names)  # the text is polygauss output, parsed by the rules above
    return np.broadcast_to(np.asarray(value, dtype=complex), (pts.shape[0],))


def expression_of(text, f, points):
    got = eval_expression(text, points)
    return close(got, ref.evaluate(f, points), ref.evaluate_abs(f, points), FMT_RTOL)


def oracle_value_of(value, want_value_mag):
    """A quadrature result agrees with the reference to the oracle tolerance."""
    want, mag = want_value_mag
    return abs(complex(value) - want) <= ORACLE_TOL * (1.0 + mag)


def plancherel_holds(f, claim, tol):
    """The verdict `verify --rule plancherel` should reach on (f, claim)."""
    lhs = ref.inner(f, f)[0]
    rhs = ref.inner(claim, claim)[0]
    return abs(lhs - rhs) / (1.0 + abs(lhs)) <= tol
