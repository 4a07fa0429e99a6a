import numpy as np
import pytest

import planar_ppv as pp
from planar_ppv.errors import ConfigError, DomainError


def central_diff_jacobian(model, x, h=1e-6):
    J = np.zeros((2, 2))
    for k in range(2):
        dx = np.zeros(2)
        dx[k] = h
        J[:, k] = (model.field(x + dx) - model.field(x - dx)) / (2 * h)
    return J


def test_stuart_landau_field_on_cycle(sl_model):
    np.testing.assert_allclose(sl_model.field([1.0, 0.0]), [0.0, 1.0],
                               atol=1e-15)


def test_stuart_landau_origin_fixed_point(sl_model):
    np.testing.assert_allclose(sl_model.field([0.0, 0.0]), [0.0, 0.0])


def test_vanderpol_field(vdp_model):
    np.testing.assert_allclose(vdp_model.field([2.0, 0.0]), [0.0, -2.0],
                               atol=1e-15)


def test_vanderpol_jacobian(vdp_model):
    np.testing.assert_allclose(vdp_model.jacobian([2.0, 0.0]),
                               [[0.0, 1.0], [-1.0, -3.0]], atol=1e-15)


def test_stuart_landau_jacobian_hand_and_fd(sl_model):
    J = sl_model.jacobian([1.0, 0.0])
    np.testing.assert_allclose(J, [[-2.0, -1.0], [1.0, 0.0]], atol=1e-15)
    Jfd = central_diff_jacobian(sl_model, np.array([1.0, 0.0]))
    np.testing.assert_allclose(J, Jfd, atol=1e-8)


def test_stuart_landau_divergence_on_unit_circle(sl_model, rng):
    for _ in range(20):
        th = rng.uniform(0, 2 * np.pi)
        x = np.array([np.cos(th), np.sin(th)])
        assert sl_model.divergence(x) == pytest.approx(-2.0, abs=1e-12)


def test_vanderpol_divergence(vdp_model):
    assert vdp_model.divergence([0.0, 0.0]) == pytest.approx(1.0)
    assert vdp_model.divergence([2.0, 1.0]) == pytest.approx(-3.0)


def test_divergence_is_jacobian_trace(all_models, rng):
    for model in all_models:
        for _ in range(100):
            x = rng.uniform(-3, 3, size=2)
            assert abs(np.trace(model.jacobian(x)) - model.divergence(x)) \
                < 1e-12


def test_jacobian_matches_finite_differences(all_models, rng):
    for model in all_models:
        for _ in range(100):
            x = rng.uniform(-2, 2, size=2)
            J = model.jacobian(x)
            Jfd = central_diff_jacobian(model, x)
            scale = max(1.0, np.max(np.abs(J)))
            assert np.max(np.abs(J - Jfd)) / scale < 1e-6


def test_perp_examples():
    np.testing.assert_array_equal(pp.perp([0.0, 1.0]), [1.0, 0.0])
    v = np.array([3.0, 4.0])
    p = pp.perp(v)
    np.testing.assert_array_equal(p, [4.0, -3.0])
    assert p @ v == 0.0
    np.testing.assert_array_equal(pp.perp(pp.perp([1.0, 2.0])), [-1.0, -2.0])


def test_perp_properties(rng):
    for _ in range(200):
        v = rng.normal(size=2) * 10 ** rng.uniform(-3, 3)
        p = pp.perp(v)
        # written out: a BLAS dot product may fuse the multiply-adds and
        # leave a rounding residue
        assert p[0] * v[0] + p[1] * v[1] == 0.0
        assert np.linalg.norm(p) == pytest.approx(np.linalg.norm(v), rel=1e-15)


def test_field_is_deterministic(all_models):
    for model in all_models:
        x = np.array([0.7, -1.3])
        a = model.field(x)
        b = model.field(x)
        assert np.array_equal(a, b)


def test_unknown_model_rejected():
    with pytest.raises(ConfigError):
        pp.get_model("nonexistent")
    with pytest.raises(ConfigError):
        pp.get_model("vanderpol", gamma=2.0)


def test_nonfinite_point_rejected(sl_model):
    with pytest.raises(DomainError):
        sl_model.field([np.nan, 0.0])
    with pytest.raises(DomainError):
        sl_model.jacobian([np.inf, 0.0])
    with pytest.raises(DomainError):
        sl_model.divergence([0.0, -np.inf])


def test_eval_wrappers(sl_model):
    # the checked evaluation methods return what the raw callables return
    x = np.array([0.3, 0.4])
    np.testing.assert_array_equal(sl_model.field(x), sl_model._field(x))
    np.testing.assert_array_equal(sl_model.jacobian(x),
                                  sl_model._jacobian(x))
    assert sl_model.divergence(x) == sl_model._divergence(x)
    np.testing.assert_array_equal(sl_model.rhs(0.0, x), sl_model.field(x))
