import numpy as np
import pytest

import planar_ppv as pp
from planar_ppv import adjoint
from planar_ppv.diliberto import basis_to_csv
from planar_ppv.errors import (ArgumentError, DegenerateCycleError,
                               InternalInconsistencyError)
from planar_ppv.models import OscillatorModel, perp


def test_b_at_zero(sl_basis, vdp_basis):
    assert sl_basis.b(0.0) == 1.0
    assert vdp_basis.b(0.0) == 1.0


def test_a_at_zero(sl_basis, vdp_basis):
    assert sl_basis.a(0.0) == 0.0
    assert vdp_basis.a(0.0) == 0.0


def test_b_stuart_landau_period(sl_basis):
    b = sl_basis.b(2 * np.pi)
    assert b == pytest.approx(np.exp(-4 * np.pi), rel=1e-8)
    assert sl_basis.b_T == pytest.approx(np.exp(-4 * np.pi), rel=1e-8)


def test_b_positive_on_grid(sl_basis, vdp_basis):
    assert np.all(sl_basis.b_grid > 0)
    assert np.all(vdp_basis.b_grid > 0)


def test_b_vanderpol_liouville(vdp_cycle, vdp_basis):
    # Liouville: b(T) equals the determinant of the numeric monodromy
    bT = vdp_basis.b(vdp_cycle.T)
    assert bT == pytest.approx(vdp_basis.b_T, rel=1e-12)
    det = np.linalg.det(adjoint.numeric_monodromy(vdp_cycle))
    assert bT == pytest.approx(det, rel=1e-7)


def test_a_stuart_landau_vanishes(sl_basis):
    for t in (1.7, np.pi, 2 * np.pi, 9.0):
        assert abs(sl_basis.a(t)) < 1e-9


def test_a_vanderpol_vs_numeric_frame(vdp_cycle, vdp_basis):
    # express the numeric state-transition matrix in the Diliberto frame
    # X(0) = [F0, Fperp0/|F0|^2]; its (1,2) entry at T must be a(T)
    F0 = vdp_cycle.model.field(vdp_cycle.anchor)
    X0 = np.column_stack([F0, perp(F0) / (F0 @ F0)])
    Phi = adjoint.numeric_monodromy(vdp_cycle)
    M = np.linalg.solve(X0, Phi @ X0)
    assert vdp_basis.a_T != 0.0
    assert M[0, 1] == pytest.approx(vdp_basis.a_T, rel=1e-6)
    assert M[1, 1] == pytest.approx(vdp_basis.b_T, rel=1e-6)


def test_quasi_periodicity_relations(vdp_basis):
    T = vdp_basis.cycle.T
    ts = vdp_basis.ts[::64]
    a1, b1 = vdp_basis._ab(ts)
    a2, b2 = vdp_basis._ab(ts + T)
    np.testing.assert_allclose(b2, b1 * vdp_basis.b_T, rtol=1e-8)
    np.testing.assert_allclose(a2, a1 * vdp_basis.b_T + vdp_basis.a_T,
                               rtol=0, atol=1e-8 * max(1, abs(vdp_basis.a_T)))


def test_floquet_stuart_landau(sl_basis):
    assert sl_basis.mu2 == pytest.approx(-2.0, abs=1e-8)
    np.testing.assert_allclose(
        sl_basis.monodromy, [[1.0, 0.0], [0.0, np.exp(-4 * np.pi)]],
        atol=1e-9)
    assert sl_basis.monodromy[0, 0] == 1.0  # trivial multiplier


def test_floquet_multiplier_exponent_relation(sl_basis, vdp_basis):
    for basis in (sl_basis, vdp_basis):
        assert basis.monodromy[1, 1] == basis.b_T
        assert basis.b_T == pytest.approx(
            np.exp(basis.mu2 * basis.cycle.T), rel=1e-9)
        assert basis.b_T < 1.0  # asymptotically stable


def test_floquet_vanderpol_vs_numeric(vdp_cycle, vdp_basis):
    assert vdp_basis.mu2 < 0
    eigs = np.sort(np.abs(np.linalg.eigvals(
        adjoint.numeric_monodromy(vdp_cycle))))
    mu2_num = np.log(eigs[0]) / vdp_cycle.T
    assert abs(vdp_basis.mu2 - mu2_num) < 1e-6 * abs(vdp_basis.mu2)


def test_u1_is_field(sl_basis, vdp_basis):
    np.testing.assert_allclose(sl_basis.u1(0.0), [0.0, 1.0], atol=1e-9)
    for basis in (sl_basis, vdp_basis):
        t = 0.3 * basis.cycle.T
        np.testing.assert_array_equal(
            basis.u1(t),
            basis.cycle.model.field(basis.cycle.point(t)))
        np.testing.assert_allclose(basis.u1(basis.cycle.T), basis.u1(0.0),
                                   atol=1e-10)


def test_u2_stuart_landau_radial(sl_basis):
    np.testing.assert_allclose(sl_basis.u2(0.0), [1.0, 0.0], atol=1e-8)
    np.testing.assert_allclose(sl_basis.u2(np.pi / 2), [0.0, 1.0], atol=1e-8)


def test_u2_periodicity(sl_basis, vdp_basis):
    for basis in (sl_basis, vdp_basis):
        T = basis.cycle.T
        for t in (0.0, T / 3, T / 2):
            u = basis.u2(t)
            np.testing.assert_allclose(basis.u2(t + T), u,
                                       atol=1e-8 * np.linalg.norm(u))


def test_v1_stuart_landau_closed_form(sl_basis):
    ts = np.arange(256) * sl_basis.cycle.T / 256
    v1 = sl_basis.v1(ts)
    expected = np.stack([-np.sin(ts), np.cos(ts)])
    assert np.max(np.abs(v1 - expected)) < 1e-7
    np.testing.assert_allclose(sl_basis.v1(0.0), [0.0, 1.0], atol=1e-9)


def test_v1_normalization(sl_basis, vdp_basis, rng):
    for basis in (sl_basis, vdp_basis):
        for t in rng.uniform(0, 3 * basis.cycle.T, size=20):
            v = basis.v1(float(t))
            F = basis.cycle.model.field(basis.cycle.point(float(t)))
            assert v @ F == pytest.approx(1.0, abs=1e-9)


def test_v1_periodicity(sl_basis, vdp_basis):
    for basis in (sl_basis, vdp_basis):
        T = basis.cycle.T
        for t in (0.0, T / 3, T / 2):
            v = basis.v1(t)
            np.testing.assert_allclose(basis.v1(t + T), v,
                                       atol=1e-8 * np.linalg.norm(v))


def test_v2_closed_form(sl_basis):
    np.testing.assert_allclose(sl_basis.v2(0.0), [1.0, 0.0], atol=1e-9)


def test_biorthogonality(sl_basis, vdp_basis):
    for basis in (sl_basis, vdp_basis):
        u1, u2 = basis.u1_grid, basis.u2_grid
        v1, v2 = basis.v1_grid, basis.v2_grid
        assert np.max(np.abs(np.sum(v1 * u1, axis=1) - 1.0)) < 1e-9
        assert np.max(np.abs(np.sum(v1 * u2, axis=1))) < 1e-9
        assert np.max(np.abs(np.sum(v2 * u1, axis=1))) < 1e-9
        assert np.max(np.abs(np.sum(v2 * u2, axis=1) - 1.0)) < 1e-9


def test_adjoint_residual_of_closed_form(vdp_basis):
    # d v1/dt = -A^T v1; finite differences at h = T/4096
    basis = vdp_basis
    cyc = basis.cycle
    h = cyc.T / 4096
    ts = np.arange(128) * cyc.T / 128
    dv = (basis.v1(ts - 2 * h) - 8 * basis.v1(ts - h)
          + 8 * basis.v1(ts + h) - basis.v1(ts + 2 * h)) / (12 * h)
    worst, scale = 0.0, 0.0
    for j, t in enumerate(ts):
        rhs = cyc.model.jacobian(cyc.point(float(t))).T @ basis.v1(float(t))
        worst = max(worst, np.linalg.norm(dv[:, j] + rhs))
        scale = max(scale, np.linalg.norm(rhs))
    assert worst / scale < 1e-5


def test_mu2_source_consistency(sl_report, vdp_report):
    assert sl_report.metrics["monodromy_mismatch"] < 1e-6
    assert vdp_report.metrics["monodromy_mismatch"] < 1e-6


def test_orthogonality_defect(sl_basis, vdp_basis):
    assert pp.orthogonality_defect(sl_basis) < 1e-9
    assert pp.orthogonality_defect(vdp_basis) > 0.1


def test_lie_bracket_stuart_landau(sl_model):
    np.testing.assert_allclose(pp.lie_bracket(sl_model, [1.0, 0.0]),
                               [2.0, 0.0], atol=1e-12)


def test_lie_bracket_parallel_on_sl_cycle(sl_model, rng):
    for _ in range(100):
        th = rng.uniform(0, 2 * np.pi)
        x = np.array([np.cos(th), np.sin(th)])
        lb = pp.lie_bracket(sl_model, x)
        fp = pp.perp(sl_model.field(x))
        cross = lb[0] * fp[1] - lb[1] * fp[0]
        assert abs(cross) < 1e-9


def test_lie_bracket_vanderpol_not_parallel(vdp_model):
    x = np.array([2.0, 1.0])
    lb = pp.lie_bracket(vdp_model, x)
    fp = pp.perp(vdp_model.field(x))
    cross = abs(lb[0] * fp[1] - lb[1] * fp[0])
    assert cross / (np.linalg.norm(lb) * np.linalg.norm(fp)) > 1e-3


def test_defect_lie_bracket_equivalence(sl_basis, vdp_basis):
    # orthogonality defect ~ 0 iff [f, f_perp] stays parallel to f_perp
    for basis, orthogonal in ((sl_basis, True), (vdp_basis, False)):
        model = basis.cycle.model
        worst = 0.0
        for t in basis.ts[::16]:
            x = basis.cycle.point(float(t))
            lb = pp.lie_bracket(model, x)
            fp = pp.perp(model.field(x))
            c = (lb @ fp) / (fp @ fp)
            worst = max(worst, np.linalg.norm(lb - c * fp))
        defect = pp.orthogonality_defect(basis)
        if orthogonal:
            assert defect < 1e-9 and worst < 1e-8
        else:
            assert defect > 1e-9 and worst > 1e-8


def test_frame_independence(vdp_model, vdp_cycle, vdp_basis):
    from planar_ppv.isochron import _nearest_cycle_time

    other_cycle = pp.find_cycle(vdp_model, (0.5, 0.5), settle_time=150.0)
    other = pp.DilibertoBasis(other_cycle)
    shift, d = _nearest_cycle_time(vdp_cycle, other_cycle.anchor)
    assert d < 1e-8
    ts = np.arange(64) * vdp_cycle.T / 64
    v_ref = vdp_basis.v1(ts + shift)
    v_new = other.v1(ts)
    assert np.max(np.abs(v_ref - v_new)) < 1e-6


def rotation_cycle(div):
    """Unit-circle rotation whose model reports a constant divergence.

    The rotation itself is divergence-free; a fake nonzero value sets
    b(T) = exp(2 pi div) without changing the orbit.
    """
    def f(x):
        return np.stack([-x[1], x[0]])

    def jac(x):
        return np.array([[0.0, -1.0], [1.0, 0.0]])

    model = OscillatorModel(name="rotation", params={}, _field=f,
                            _jacobian=jac,
                            _divergence=lambda x: div + 0.0 * x[0])
    return pp.find_cycle(model, (1.0, 0.0), settle_time=0.0)


def test_degenerate_cycle_rejected():
    # pure rotation: divergence-free, b(T) = 1, closed forms must refuse
    with pytest.raises(DegenerateCycleError):
        pp.DilibertoBasis(rotation_cycle(0.0))


def test_underflowing_multiplier_rejected():
    # exp(2 pi * -200) underflows to 0: b(T) <= 0 is a quadrature blow-up
    with pytest.raises(InternalInconsistencyError):
        pp.DilibertoBasis(rotation_cycle(-200.0))


def test_unstable_cycle_warns():
    with pytest.warns(UserWarning, match="not asymptotically stable"):
        basis = pp.DilibertoBasis(rotation_cycle(0.1))
    assert basis.b_T == pytest.approx(np.exp(0.2 * np.pi), rel=1e-10)
    assert basis.mu2 == pytest.approx(0.1, rel=1e-10)


@pytest.mark.parametrize("n", [-5, 8, 15])
def test_coarse_grid_rejected(sl_cycle, n):
    with pytest.raises(ArgumentError):
        pp.DilibertoBasis(sl_cycle, n=n)


def test_basis_csv(tmp_path, sl_basis):
    path = tmp_path / "basis.csv"
    basis_to_csv(sl_basis, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ("t,a,b,alpha,beta,u1x,u1y,u2x,u2y,v1x,v1y,v2x,v2y")
    assert len(lines) == sl_basis.n + 1
    row0 = [float(v) for v in lines[1].split(",")]
    assert row0[0] == 0.0 and row0[2] == 1.0  # t = 0, b(0) = 1
