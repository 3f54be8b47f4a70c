import warnings

import numpy as np
import pytest

from polygauss import LinearMap, SingularMap, SpdError, SpdForm
from polygauss.testing import random_spd_form


def test_spd_rejects_asymmetric():
    with pytest.raises(SpdError):
        SpdForm([[1.0, 0.5], [0.0, 1.0]])


def test_spd_rejects_indefinite():
    with pytest.raises(SpdError):
        SpdForm([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(SpdError):
        SpdForm([[-1.0]])


def test_spd_rejects_semidefinite_pivot():
    with pytest.raises(SpdError):
        SpdForm([[1.0, 1.0], [1.0, 1.0]])


def test_det_matches_factor_diagonal(rng):
    for _ in range(20):
        q = random_spd_form(rng, 3, eig_range=(0.2, 20.0))
        ref = np.linalg.det(q.entries)
        assert q.det == pytest.approx(ref, rel=1e-12)
        assert q.det == pytest.approx(np.prod(np.diag(q.chol)) ** 2, rel=1e-12)


def test_inverse_from_factorization(rng):
    q = random_spd_form(rng, 3, eig_range=(0.5, 5.0))
    inv = q.inverse()
    assert np.allclose(q.entries @ inv.entries, np.eye(3), atol=1e-12)
    assert q.inverse() is inv  # cached


def test_inverse_remembers_its_inverse(rng):
    q = random_spd_form(rng, 3, eig_range=(0.5, 5.0))
    assert q.inverse().inverse() is q


def test_spd_addition():
    a = SpdForm([[2.0, 0.0], [0.0, 1.0]])
    b = SpdForm(np.eye(2))
    assert np.allclose((a + b).entries, [[3.0, 0.0], [0.0, 2.0]])


def test_bilinear_is_unconjugated():
    q = SpdForm([[1.0]])
    assert q.bilinear(np.array([1j])) == pytest.approx(-1.0)


def test_linear_map_transpose_identity(rng):
    # T(v).w == v.T^t(w) on random vectors
    t = LinearMap(rng.normal(size=(3, 3)))
    for _ in range(10):
        v = rng.normal(size=3)
        w = rng.normal(size=3)
        assert t.apply(v) @ w == pytest.approx(v @ t.transpose().apply(w), rel=1e-12, abs=1e-12)


def test_singular_map_detected():
    t = LinearMap([[1.0, 2.0], [2.0, 4.0]])
    assert not t.is_invertible()
    with pytest.raises(SingularMap):
        t.inverse()
    assert not LinearMap(np.zeros((2, 2))).is_invertible()


def test_inverse_transpose():
    t = LinearMap([[2.0, 1.0], [0.0, 1.0]])
    tilde = t.inverse_transpose()
    assert np.allclose(tilde.entries, np.linalg.inv(t.entries).T)


def test_sum_and_inverse_are_certified_without_revalidation(rng, monkeypatch):
    a = random_spd_form(rng, 3, eig_range=(0.5, 5.0))
    b = random_spd_form(rng, 3, eig_range=(0.5, 5.0))
    checked = SpdForm(a.entries + b.entries)
    li = np.linalg.inv(a.chol)
    checked_inverse = SpdForm(li.T @ li)
    constructions = []
    original = SpdForm.__init__

    def counting(self, entries):
        constructions.append(entries)
        original(self, entries)

    monkeypatch.setattr(SpdForm, "__init__", counting)
    total = a + b
    inverse = a.inverse()
    assert constructions == []
    for fast, slow in ((total, checked), (inverse, checked_inverse)):
        assert np.array_equal(fast.entries, slow.entries)
        assert np.array_equal(fast.chol, slow.chol)
        assert fast.det == slow.det
        assert not fast.entries.flags.writeable


def test_overflowing_inverse_is_rejected():
    tiny = SpdForm([[1e-310]])
    with pytest.raises(SpdError), np.errstate(over="ignore"):
        tiny.inverse()


def test_forms_near_the_float_limits_are_finite():
    # the symmetrization must not overflow for an entry above half the
    # float maximum, nor the inverse of a form whose inverse is finite
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        huge = SpdForm([[1e308]])
        inverse = SpdForm([[1e-308]]).inverse()
    for form in (huge, inverse):
        assert form.entries[0, 0] == pytest.approx(1e308, rel=1e-12)
        assert form.det == pytest.approx(1e308, rel=1e-12)
    assert huge.inverse().entries[0, 0] == pytest.approx(1e-308, rel=1e-12)
