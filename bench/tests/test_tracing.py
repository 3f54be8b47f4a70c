"""The tracer's self times, counts and patching."""

import time
import types

import numpy as np

import polygauss
import polygauss.cli
import tracing
import workloads as W


class _Thing:
    def outer(self):
        time.sleep(0.02)
        self.inner()
        return 1

    def inner(self):
        time.sleep(0.03)


def test_self_time_excludes_child_spans_and_counts_calls():
    original = _Thing.outer
    module = types.SimpleNamespace(helper=lambda x: x + 1)
    tracer = tracing.Tracer()
    tracer.span(_Thing, "outer", "thing.outer")
    tracer.span(_Thing, "inner", "thing.inner")
    tracer.count(module, "helper", "mod.helper")
    thing = _Thing()
    thing.outer()  # not recorded: no operation is being timed
    tracer.active = True
    tracer.op = 0
    assert thing.outer() == 1
    assert module.helper(1) == 2
    module.helper(2)
    tracer.active = False
    tracer.remove()

    own = tracer.self_ms()
    assert 19 <= own["thing.outer"] < 29
    assert 29 <= own["thing.inner"] < 39
    assert tracer.counts == {"thing.outer.calls": 1, "thing.inner.calls": 1, "mod.helper.calls": 2}
    assert list(tracer.span_parent) == [-1, 0]
    assert _Thing.outer is original


def test_install_is_transparent_and_removable():
    f = W.build(polygauss, W.random_function(np.random.default_rng(3), 2, 2, 2))
    before = W.fingerprint(polygauss.fourier_transform(f))
    originals = (polygauss.transform.fourier_transform, polygauss.core.GaussPoly.canonical,
                 polygauss.multiindex.validate, polygauss.cli.main)
    tracer = tracing.Tracer()
    tracing.install(tracer, polygauss)
    try:
        assert polygauss.fourier_transform is polygauss.transform.fourier_transform
        assert polygauss.fourier_transform is not originals[0]
        tracer.active = True
        traced = W.fingerprint(polygauss.transform.fourier_transform(f))
        tracer.active = False
    finally:
        tracer.remove()
    assert traced == before
    assert (polygauss.transform.fourier_transform, polygauss.core.GaussPoly.canonical,
            polygauss.multiindex.validate, polygauss.cli.main) == originals
    assert polygauss.fourier_transform is originals[0]
    assert tracer.counts["transform.fourier_transform.calls"] == 1
    assert tracer.counts["core.canonical.calls"] >= 1
    assert tracer.counts["multiindex.validate.calls"] > 0
    assert tracer.self_ms()["transform.fourier_transform"] > 0
