"""Per-layer tracing of polygauss from outside the package.

The tracer replaces public functions where callers look them up: class
attributes such as ``GaussPoly.canonical`` and ``Polynomial.__init__``, and
module globals such as ``transform.fourier_transform`` (plus the package's
re-export of the same object).  A span wrapper records name, parent span,
operation number, start and end; a count-only wrapper, used for the hottest
functions, only counts.  Recording is on only while an operation is timed.

Spans live in flat arrays until the run ends.  A span's self time is its
duration minus the durations of its child spans; the time of a count-only
function falls into the self time of the span that called it.
"""

import time
from array import array

import numpy as np

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names = []
        self.counts = {}
        self.active = False
        self.op = -1
        self._ids = {}
        self._stack = []
        self._restore = []
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("d")
        self.span_end = array("d")

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _add(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _install(self, owner, attr, wrapper, original, package):
        wrapper.__name__ = getattr(original, "__name__", attr)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))
        if package is not None and getattr(package, attr, None) is original:
            setattr(package, attr, wrapper)
            self._restore.append((package, attr, original))

    def span(self, owner, attr, name, extra=None, package=None):
        """Wrap owner.attr with a span named ``name``; also counts calls."""
        original = getattr(owner, attr)
        sid = self._name_id(name)
        calls = name + ".calls"
        stack = self._stack

        def wrapper(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            self._add(calls, 1)
            idx = len(self.span_start)
            self.span_name.append(sid)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_op.append(self.op)
            self.span_end.append(0.0)
            stack.append(idx)
            self.span_start.append(_clock())
            try:
                result = original(*args, **kwargs)
            finally:
                self.span_end[idx] = _clock()
                stack.pop()
            if extra is not None:
                extra(self._add, args, result)
            return result

        self._install(owner, attr, wrapper, original, package)

    def count(self, owner, attr, name, extra=None, package=None):
        """Wrap owner.attr with a call counter only."""
        original = getattr(owner, attr)
        calls = name + ".calls"
        counts = self.counts

        def wrapper(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            counts[calls] = counts.get(calls, 0) + 1
            result = original(*args, **kwargs)
            if extra is not None:
                extra(self._add, args, result)
            return result

        self._install(owner, attr, wrapper, original, package)

    def remove(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def self_ms(self, op_scales=None):
        """Total self time per span name, in milliseconds.

        ``op_scales[k]``, when given, multiplies the spans of operation k.
        """
        start = np.frombuffer(self.span_start, dtype=float)
        end = np.frombuffer(self.span_end, dtype=float)
        parent = np.frombuffer(self.span_parent, dtype=np.int64)
        names = np.frombuffer(self.span_name, dtype=np.int64)
        duration = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
        own = duration - child
        if op_scales is not None:
            own = own * np.asarray(op_scales)[np.frombuffer(self.span_op, dtype=np.int64)]
        own = np.bincount(names, weights=own, minlength=len(self.names))
        return {name: 1e3 * float(own[i]) for i, name in enumerate(self.names)}

    def save(self, path):
        """Write every span to an .npz file: names plus one array per field."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            op=np.frombuffer(self.span_op, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=float),
            end=np.frombuffer(self.span_end, dtype=float),
        )


def _canonical_terms(add, args, result):
    add("core.canonical.terms_in", len(args[0].terms))
    add("core.canonical.terms_out", len(result.terms))


def _evaluated_points(add, args, result):
    add("core.evaluate_many.points", len(args[1]))


def _grid_points(add, args, result):
    add("quadrature.grid.points", len(result[1]))


def _output_bytes(add, args, result):
    add("serialization.output_bytes", len(result))


def install(tracer, pg):
    """Wrap the public functions of each polygauss layer."""
    GaussPoly = pg.core.GaussPoly
    Polynomial = pg.polynomial.Polynomial
    SpdForm = pg.linalg.SpdForm

    tracer.span(GaussPoly, "canonical", "core.canonical", _canonical_terms)
    tracer.span(GaussPoly, "evaluate_many", "core.evaluate_many", _evaluated_points)
    tracer.span(GaussPoly, "__mul__", "core.mul")
    # Every public derivative and every step of the transform's derivative
    # tower goes through this single-axis step.
    tracer.span(GaussPoly, "_differentiate_once", "core.differentiate")
    tracer.span(GaussPoly, "translate", "core.translate")
    tracer.span(GaussPoly, "compose_linear", "core.compose_linear")

    tracer.count(Polynomial, "__init__", "polynomial.init")
    tracer.span(Polynomial, "__mul__", "polynomial.mul")
    tracer.span(Polynomial, "__add__", "polynomial.add")
    tracer.span(Polynomial, "substitute_affine", "polynomial.substitute_affine")
    tracer.count(Polynomial, "drop_small", "polynomial.drop_small")
    tracer.span(Polynomial, "evaluate_many", "polynomial.evaluate_many")

    tracer.count(pg.multiindex, "validate", "multiindex.validate")

    tracer.span(SpdForm, "__init__", "linalg.spd_form")
    tracer.count(SpdForm, "inverse", "linalg.spd_inverse")

    for fn in ("fourier_transform", "inverse_transform", "integral", "inner_product", "convolve"):
        tracer.span(pg.transform, fn, "transform." + fn, package=pg)
    tracer.span(pg.basis, "to_derivative_basis", "basis.to_derivative_basis", package=pg)

    tracer.span(pg.quadrature, "grid", "quadrature.grid", _grid_points)
    for fn in ("quad_fourier", "quad_convolve", "finite_difference"):
        tracer.span(pg.quadrature, fn, "quadrature." + fn, package=pg)

    for fn in ("parse", "lower", "format_function"):
        tracer.span(pg.exprlang, fn, "exprlang." + fn, package=pg)
    tracer.span(pg.serialization, "function_from_json", "serialization.function_from_json", package=pg)
    tracer.span(pg.serialization, "function_to_json", "serialization.function_to_json",
                _output_bytes, package=pg)
    for fn in ("expansions_to_json", "complex_to_json", "csv_grid"):
        tracer.count(pg.serialization, fn, "serialization." + fn, _output_bytes, package=pg)
    tracer.span(pg.cli, "main", "cli.main")
