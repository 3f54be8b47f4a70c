"""The four workloads: seeded inputs, the operations timed on them, their checks.

Inputs are plain data (see :mod:`reference`) drawn from the workload seed.
Every operation rebuilds its polygauss input objects from that data just
before it is timed, so nothing cached on an object (such as the inverse a
``SpdForm`` keeps) carries over from one repetition to the next.  Outputs
are checked after the clock stops, against the reference evaluator or
against a property the result must have.
"""

import contextlib
import io
import itertools
import json
import math
import os
import pickle
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import checks
import reference as ref


@dataclass
class Op:
    """One timed operation.

    ``check(output)`` says whether the output is right.  For an oracle op
    (a quadrature value or a `verify` verdict) a wrong output counts as a
    failed operation; for any other op it makes the run incorrect.
    ``shape(output)`` gives (terms, stored coefficients) of a symbolic
    result, or None for a number or a verdict.  ``fingerprint(output)`` is
    equal for equal outputs; a repeat of an output that passed its check
    passes without running the check again.
    """

    kind: str
    size: float
    build: Callable[[], tuple]
    run: Callable
    check: Callable
    oracle: bool = False
    shape: Optional[Callable] = None
    fingerprint: Callable = None

    def __post_init__(self):
        if self.fingerprint is None:
            self.fingerprint = fingerprint


# ---------------------------------------------------------------------------
# generators and conversions


def indices_up_to(dim, deg):
    """All multi-indices of total degree <= deg, graded."""
    out = []
    for d in range(deg + 1):
        out.extend(a for a in itertools.product(range(d + 1), repeat=dim) if sum(a) == d)
    return out


def random_spd(rng, dim, lo=0.3, hi=3.0):
    """Symmetric positive-definite matrix, eigenvalues log-uniform in [lo, hi]."""
    eigs = np.exp(rng.uniform(math.log(lo), math.log(hi), size=dim))
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    v = q * np.sign(np.diag(r))
    m = v @ np.diag(eigs) @ v.T
    return (m + m.T) / 2.0


def random_shift(rng, dim, scale=1.0):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v * (scale * rng.uniform(0.2, 1.0) / np.linalg.norm(v))


def random_coeffs(rng, support):
    return {a: complex(rng.normal(), rng.normal()) for a in support}


def random_function(rng, dim, n_terms, max_degree):
    """n_terms terms; term k has every monomial up to degree min(k + 1, max_degree)."""
    return [
        (
            random_coeffs(rng, indices_up_to(dim, min(k + 1, max_degree))),
            random_spd(rng, dim),
            random_shift(rng, dim),
        )
        for k in range(n_terms)
    ]


def build(pg, terms):
    """Fresh polygauss objects for plain terms, in canonical form."""
    dim = terms[0][1].shape[0]
    return pg.core.GaussPoly(
        dim,
        [
            pg.core.GaussTerm(pg.polynomial.Polynomial(dim, c), pg.linalg.SpdForm(q), b)
            for c, q, b in terms
        ],
    ).canonical()


def plain(f):
    """Plain terms read from a GaussPoly's attributes."""
    return [(dict(t.poly.coeffs), np.array(t.quad.entries), np.array(t.shift)) for t in f.terms]


def fingerprint(output):
    """Exact, comparable contents of an output."""
    if hasattr(output, "terms"):
        return pickle.dumps(plain(output))
    if hasattr(output, "coeffs"):
        return pickle.dumps((output.coeffs, output.quad.entries, output.shift))
    if isinstance(output, np.ndarray):
        return output.tobytes()
    return output  # a number, or the (exit code, stdout) of a command


def function_shape(f):
    return len(f.terms), sum(len(t.poly.coeffs) for t in f.terms)


def doc_shape(doc):
    return len(doc["terms"]), sum(len(t["poly"]) for t in doc["terms"])


def check_points(rng, dim, count=3):
    """Real points plus one complex point, where results are compared."""
    pts = 0.7 * rng.normal(size=(count, dim))
    cplx = 0.4 * rng.normal(size=(1, dim)) + 0.2j * rng.normal(size=(1, dim))
    return np.vstack([pts.astype(complex), cplx])


# ---------------------------------------------------------------------------
# many_terms


MANY_TERMS_SIZES = (4, 8, 12, 16)
# Monomials of degree <= 2 in two variables; term k keeps the first 1, 3 or 6.
_SUPPORT_2D = indices_up_to(2, 2)


def _many_terms_poly(rng, k):
    return random_coeffs(rng, _SUPPORT_2D[: (1, 3, 6)[k % 3]])


def distinct_pair(rng, size):
    """Two functions whose keys are drawn independently: no product key merges."""
    return tuple(
        [(_many_terms_poly(rng, k), random_spd(rng, 2, 0.5, 2.0), random_shift(rng, 2, 0.8))
         for k in range(size)]
        for _ in range(2)
    )


def shared_pair(rng, size):
    """Two functions whose keys come from a pool of two forms and a shift lattice.

    Term k uses form k % 2 and lattice point m = k // 2 at (m % 4, m // 4),
    with a real spacing and an imaginary offset per form.  Keys are distinct
    within each function, but many sums of keys coincide, so products,
    inner products and convolutions merge terms.
    """
    pool = [random_spd(rng, 2, 0.5, 2.0) for _ in range(2)]
    spacing = rng.uniform(0.15, 0.3)
    offsets = [0.3 * rng.normal(size=2) for _ in range(2)]

    def shift(k):
        m = k // 2
        return spacing * np.array([m % 4, m // 4], dtype=float) + 1j * offsets[k % 2]

    return tuple(
        [(_many_terms_poly(rng, k), pool[k % 2], shift(k)) for k in range(size)]
        for _ in range(2)
    )


def many_terms(pg, rng, workdir):
    ops = []
    for size in MANY_TERMS_SIZES:
        for mode, pair in (("distinct", distinct_pair), ("shared", shared_pair)):
            f, g = pair(rng, size)
            pts = check_points(rng, 2)
            real_pts = pts[:2].real
            args = lambda f=f, g=g: (build(pg, f), build(pg, g))
            ops += [
                Op(f"mul/{mode}", size, args, lambda a, b: a * b,
                   lambda r, f=f, g=g, p=pts: checks.product_of(plain(r), f, g, p),
                   shape=function_shape),
                Op(f"add/{mode}", size, args, lambda a, b: a + b,
                   lambda r, f=f, g=g, p=pts: checks.sum_of(plain(r), f, g, p),
                   shape=function_shape),
                Op(f"inner/{mode}", size, args,
                   lambda a, b: pg.transform.inner_product(a, b),
                   lambda r, f=f, g=g: checks.inner_of(r, f, g)),
                Op(f"conv/{mode}", size, args,
                   lambda a, b: pg.transform.convolve(a, b),
                   lambda r, f=f, g=g, p=real_pts: checks.convolution_of(plain(r), f, g, p),
                   shape=function_shape),
            ]
    warmup = [op for op in ops if op.size == MANY_TERMS_SIZES[0]]
    return ops, warmup


# ---------------------------------------------------------------------------
# high_degree


HIGH_DEGREE_DEGREES = (2, 4, 6, 8)
# inner_product(f, f) squares the degree; past these caps one call takes seconds.
INNER_MAX_DEGREE = {1: 8, 2: 6, 3: 4}
DIFF_ORDER = {1: (2,), 2: (1, 1), 3: (1, 0, 1)}


def _expansion_shape(e):
    return 1, len(e.coeffs)


def high_degree(pg, rng, workdir):
    ops = []
    for dim in (1, 2, 3):
        for deg in HIGH_DEGREE_DEGREES:
            f = [(random_coeffs(rng, indices_up_to(dim, deg)), random_spd(rng, dim),
                  random_shift(rng, dim))]
            size = len(f[0][0])
            freqs = 0.6 * rng.normal(size=(2, dim))
            args = lambda f=f: (build(pg, f),)
            alpha = DIFF_ORDER[dim]
            ops += [
                Op(f"ft/n{dim}", size, args, lambda a: pg.transform.fourier_transform(a),
                   lambda r, f=f, p=freqs: checks.transform_of(plain(r), f, p),
                   shape=function_shape),
                Op(f"ift/n{dim}", size, args, lambda a: pg.transform.inverse_transform(a),
                   lambda r, f=f, p=freqs: checks.inverse_transform_of(plain(r), f, p),
                   shape=function_shape),
                Op(f"integral/n{dim}", size, args, lambda a: pg.transform.integral(a),
                   lambda r, f=f: checks.integral_of(r, f)),
                Op(f"deriv_basis/n{dim}", size, args,
                   lambda a: pg.basis.to_derivative_basis(a.terms[0]),
                   lambda r, f=f, p=freqs: checks.derivative_basis_of(
                       [(r.quad.entries, r.shift, r.coeffs)], f, p),
                   shape=_expansion_shape),
                Op(f"diff/n{dim}", size, args, lambda a, alpha=alpha: a.differentiate(alpha),
                   lambda r, f=f, alpha=alpha, p=freqs: checks.derivative_of(plain(r), f, alpha, p),
                   shape=function_shape),
            ]
            if deg <= INNER_MAX_DEGREE[dim]:
                ops.append(
                    Op(f"inner/n{dim}", size, args, lambda a: pg.transform.inner_product(a, a),
                       lambda r, f=f: checks.inner_of(r, f, f))
                )
    warmup = [op for op in ops if op.kind.endswith("/n1") and op.size == 3]
    return ops, warmup


# ---------------------------------------------------------------------------
# CLI plumbing shared by cli_pipeline and oracle_check


def run_cli(pg, argv):
    """polygauss.cli.main in process; returns (exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = pg.cli.main(argv)
        except SystemExit as exc:  # argparse rejects a malformed command line
            code = exc.code
    return code, out.getvalue()


def _write_json(path, dim, terms):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(checks.terms_to_json(dim, terms), fh)
    return path


def _num(x):
    return repr(float(x))


def _complex_text(z):
    z = complex(z)
    sign = "+" if z.imag >= 0 else "-"
    return f"{_num(z.real)}{sign}{_num(abs(z.imag))}i"


def expression(terms):
    """The expression-language text of plain terms, at full precision."""
    parts = []
    for coeffs, q, b in terms:
        monos = []
        for alpha, c in coeffs.items():
            factors = [f"({_complex_text(c)})"]
            factors += [f"x{j + 1}^{e}" for j, e in enumerate(alpha) if e]
            monos.append("*".join(factors))
        rows = ",".join("[" + ",".join(_num(v) for v in row) + "]" for row in q)
        vec = ",".join(_complex_text(z) for z in b)
        parts.append(f"({' + '.join(monos)})*exp(-pi*[{rows}][x,x] + [{vec}].x)")
    return " + ".join(parts)


def _parse_function(out):
    return checks.terms_from_json(json.loads(out))


def _parse_value(out):
    z = json.loads(out)
    return complex(z["re"], z["im"])


def _parse_expansions(out):
    return checks.expansions_from_json(json.loads(out))


def _text(out):
    return out


def _cli_shape(code_out):
    return doc_shape(json.loads(code_out[1]))


# ---------------------------------------------------------------------------
# cli_pipeline


def cli_pipeline(pg, rng, workdir):
    ops = []
    for dim, f_terms, g_terms in ((1, 2, 1), (2, 3, 2)):
        ops += _cli_ops(pg, rng, workdir, dim, f_terms, g_terms)
    warmup = [op for op in ops if op.kind.endswith("/n1")]
    return ops, warmup


def _cli_ops(pg, rng, workdir, dim, f_terms, g_terms):
    """The thirteen commands on one JSON-file input f and one inline input g."""
    f = random_function(rng, dim, f_terms, 3)
    g = random_function(rng, dim, g_terms, 3)
    f_path = _write_json(os.path.join(workdir, f"f{dim}.json"), dim, f)
    g_text = expression(g)
    pts = check_points(rng, dim)
    freqs = 0.6 * rng.normal(size=(2, dim))
    alpha = (2,) if dim == 1 else (1, 1)
    a = random_shift(rng, dim)
    b = 0.5 * rng.normal(size=dim)
    matrix = random_spd(rng, dim, 0.5, 2.0) @ np.linalg.qr(rng.normal(size=(dim, dim)))[0]
    size_f, size_g = ref.monomial_count(f), ref.monomial_count(g)
    size_fg = size_f + size_g
    ops = []

    def cmd(kind, size, argv, parse, predicate, shape=None):
        """One command; its output passes if it exits 0 and predicate(parse(stdout))."""
        ops.append(Op(f"{kind}/n{dim}", size, lambda: (list(argv),),
                      lambda argv: run_cli(pg, argv),
                      lambda co: co[0] == 0 and predicate(parse(co[1])), shape=shape))

    cmd("ft", size_f, ["ft", f_path], _parse_function,
        lambda r: checks.transform_of(r, f, freqs), _cli_shape)
    cmd("ift", size_g, ["ift", g_text], _parse_function,
        lambda r: checks.inverse_transform_of(r, g, freqs), _cli_shape)
    cmd("diff", size_f, ["diff", "--alpha", ",".join(map(str, alpha)), f_path], _parse_function,
        lambda r: checks.derivative_of(r, f, alpha, freqs), _cli_shape)
    cmd("translate", size_g, ["translate", "--a=" + ",".join(_complex_text(z) for z in a), g_text],
        _parse_function, lambda r: checks.translate_of(r, g, a, pts), _cli_shape)
    cmd("modulate", size_f, ["modulate", "--b=" + ",".join(_num(v) for v in b), f_path],
        _parse_function, lambda r: checks.modulate_of(r, f, b, pts), _cli_shape)
    cmd("compose", size_g, ["compose", "--matrix=" + json.dumps(matrix.tolist()), g_text],
        _parse_function, lambda r: checks.compose_of(r, g, matrix, pts), _cli_shape)
    cmd("mul", size_fg, ["mul", f_path, g_text], _parse_function,
        lambda r: checks.product_of(r, f, g, pts), _cli_shape)
    cmd("conv", size_fg, ["conv", f_path, g_text], _parse_function,
        lambda r: checks.convolution_of(r, f, g, pts[:2].real), _cli_shape)
    cmd("inner", size_fg, ["inner", f_path, g_text], _parse_value,
        lambda v: checks.inner_of(v, f, g))
    cmd("integral", size_g, ["integral", g_text], _parse_value, lambda v: checks.integral_of(v, g))
    cmd("to_deriv_basis", size_f, ["to-deriv-basis", f_path], _parse_expansions,
        lambda e: checks.derivative_basis_of(e, f, freqs))
    cmd("fmt", size_f, ["fmt", f_path], _text, lambda text: checks.expression_of(text, f, pts))
    cmd("sample", size_f, ["sample", "--grid=-1.5:1.5:21", f_path], _text,
        lambda text: checks.samples_of(text, f))
    return ops


# ---------------------------------------------------------------------------
# oracle_check


# Inputs for the quadrature rules whose verdict depends on the draw: the
# transform rules in n = 2, 3, where `default_spec` sizes the box from
# `SpdForm.eigen_lower_bound` (far too small for n = 3, now and then for
# n = 2), and the convolution rules, whose default box the tail check in
# `quad_convolve` itself sometimes rejects.  They use one fixed draw, not the
# workload seed, so that every run repeats the same verdicts and counts the
# same failures.
FIXED_ORACLE_SEED = 20040217
EVALUATE_POINTS = {1: 10_000, 2: 30_000, 3: 100_000}
VERIFY_TOL = {"ft": 1e-6, "conv": 1e-6, "plancherel": 1e-9, "deriv": 1e-6}


def verify_frequencies(dim):
    """The frequencies `verify --rule ft` samples (cli._sample_frequencies)."""
    pts = [np.zeros(dim)]
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = 0.5
        pts += [e, -e]
    pts.append(np.full(dim, 1.0 / math.sqrt(dim)))
    return pts


def transform_verdict(claim, f, tol=VERIFY_TOL["ft"]):
    """Whether `verify --rule ft` should pass: claim equals F f at its frequencies."""
    return all(
        abs(ref.evaluate(claim, xi[None, :])[0] - ref.fourier(f, xi)[0]) <= tol
        for xi in verify_frequencies(f[0][1].shape[0])
    )


def convolution_verdict(result, f, g, tol=VERIFY_TOL["conv"]):
    """Whether `verify --rule conv` should pass for the closed form `result`."""
    dim = f[0][1].shape[0]
    return all(
        abs(ref.evaluate(result, np.full((1, dim), v))[0] - ref.convolve_at(f, g, np.full(dim, v))[0])
        <= tol
        for v in (-1.0, -0.5, 0.0, 0.5, 1.0)
    )


def derivative_verdict(f, tol=VERIFY_TOL["deriv"], h=1e-5):
    """Whether `verify --rule deriv` should pass, from reference values."""
    dim = f[0][1].shape[0]
    for axis in range(dim):
        step = np.zeros(dim)
        step[axis] = h
        for v in (-0.75, 0.0, 0.5, 1.0):
            x = np.full((1, dim), v)
            exact = ref.partial(f, axis, x)[0]
            fd = (ref.evaluate(f, x + step)[0] - ref.evaluate(f, x - step)[0]) / (2 * h)
            if abs(exact - fd) / (1.0 + abs(exact)) > tol:
                return False
    return True


def _verdict(expected):
    """check(output) for a verify op: its exit code must match `expected()`."""

    def check(code_out):
        code, _ = code_out
        return code in (0, 1) and (code == 0) == expected()

    return check


def _read_doc(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_terms(path):
    return checks.terms_from_json(_read_doc(path))


def _cli_verify(pg, kind, size, argv, expected):
    return Op(kind, size, lambda: (list(argv),), lambda argv: run_cli(pg, argv),
              _verdict(expected), oracle=True)


def _quad(pg, kind, size, terms, call, want):
    return Op(kind, size, lambda: tuple(build(pg, t) for t in terms), call,
              lambda v: checks.oracle_value_of(v, want), oracle=True)


def oracle_check(pg, rng, workdir):
    ops = []
    for dim in (1, 2, 3):
        ops += _seeded_oracle_ops(pg, rng, workdir, dim)
    fixed = np.random.default_rng(FIXED_ORACLE_SEED)
    for dim in (1, 2, 3):
        ops += _fixed_oracle_ops(pg, fixed, workdir, dim)
    warmup = [op for op in ops if op.kind.endswith("/n1")]
    return ops, warmup


def _seeded_oracle_ops(pg, rng, workdir, dim):
    """ft to a claim file, then the oracle rules that do not size a box by
    `default_spec` (all of them for n = 1), and evaluate_many."""
    f = random_function(rng, dim, 2, 2)
    g = random_function(rng, dim, 2, 2)
    size = ref.monomial_count(f)
    f_path = _write_json(os.path.join(workdir, f"f{dim}.json"), dim, f)
    g_path = _write_json(os.path.join(workdir, f"g{dim}.json"), dim, g)
    claim = os.path.join(workdir, f"fhat{dim}.json")
    bad = checks.scaled(plain(pg.transform.fourier_transform(build(pg, f))), 1.01)
    bad_path = _write_json(os.path.join(workdir, f"bad{dim}.json"), dim, bad)
    points = rng.normal(size=(EVALUATE_POINTS[dim], dim))
    freqs = 0.6 * rng.normal(size=(2, dim))
    plancherel_tol = VERIFY_TOL["plancherel"]
    deriv_ok = derivative_verdict(f)

    ops = [
        Op(f"ft/n{dim}", size, lambda: (["ft", f_path, "-o", claim],),
           lambda argv: run_cli(pg, argv),
           lambda co: co[0] == 0 and checks.transform_of(_read_terms(claim), f, freqs),
           shape=lambda co: doc_shape(_read_doc(claim)),
           fingerprint=lambda co: (co, _read_doc(claim))),
        _cli_verify(pg, f"plancherel/n{dim}", size,
                    ["verify", "--rule", "plancherel", f_path, claim],
                    lambda: checks.plancherel_holds(f, _read_terms(claim), plancherel_tol)),
        _cli_verify(pg, f"plancherel_bad/n{dim}", size,
                    ["verify", "--rule", "plancherel", f_path, bad_path],
                    lambda: checks.plancherel_holds(f, bad, plancherel_tol)),
        _cli_verify(pg, f"deriv/n{dim}", size, ["verify", "--rule", "deriv", f_path],
                    lambda: deriv_ok),
        Op(f"evaluate_many/n{dim}", len(points), lambda: (build(pg, f), points.copy()),
           lambda a, p: a.evaluate_many(p),
           lambda v: checks.close(v, ref.evaluate(f, points), ref.evaluate_abs(f, points))),
    ]
    if dim == 1:
        xi = freqs[0]
        ops += [
            _cli_verify(pg, "verify_ft/n1", size, ["verify", "--rule", "ft", f_path, claim],
                        lambda: transform_verdict(_read_terms(claim), f)),
            _quad(pg, "quad_fourier/n1", size, (f,),
                  lambda a: pg.quadrature.quad_fourier(a, xi), ref.fourier(f, xi)),
        ]
    return ops


def _fixed_oracle_ops(pg, fixed, workdir, dim):
    """Quadrature rules whose verdict depends on the draw (see FIXED_ORACLE_SEED)."""
    f = random_function(fixed, dim, 2, 2)
    g = random_function(fixed, dim, 2, 2)
    size = ref.monomial_count(f)
    f_path = _write_json(os.path.join(workdir, f"fixed_f{dim}.json"), dim, f)
    ops = []
    if dim > 1:
        ft_ok = transform_verdict(plain(pg.transform.fourier_transform(build(pg, f))), f)
        xi = 0.3 * fixed.normal(size=dim)
        ops += [
            _cli_verify(pg, f"verify_ft_fixed/n{dim}", size, ["verify", "--rule", "ft", f_path],
                        lambda: ft_ok),
            _quad(pg, f"quad_fourier_fixed/n{dim}", size, (f,),
                  lambda a: pg.quadrature.quad_fourier(a, xi), ref.fourier(f, xi)),
        ]
    if dim < 3:
        g_path = _write_json(os.path.join(workdir, f"fixed_g{dim}.json"), dim, g)
        conv_ok = convolution_verdict(
            plain(pg.transform.convolve(build(pg, f), build(pg, g))), f, g)
        x = 0.3 * fixed.normal(size=dim)
        ops += [
            _cli_verify(pg, f"verify_conv_fixed/n{dim}", size,
                        ["verify", "--rule", "conv", f_path, g_path], lambda: conv_ok),
            _quad(pg, f"quad_convolve_fixed/n{dim}", size, (f, g),
                  lambda a, b: pg.quadrature.quad_convolve(a, b, x), ref.convolve_at(f, g, x)),
        ]
    return ops


WORKLOADS = {
    "many_terms": many_terms,
    "high_degree": high_degree,
    "cli_pipeline": cli_pipeline,
    "oracle_check": oracle_check,
}
