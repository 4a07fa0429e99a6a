import numpy as np
import pytest

import planar_ppv as pp
from planar_ppv import diliberto, ode
from planar_ppv.diliberto import basis_to_csv
from planar_ppv.errors import (ArgumentError, CycleNotFoundError,
                               DegenerateCycleError,
                               InternalInconsistencyError)
from planar_ppv.models import OscillatorModel, perp
from planar_ppv.stochastic import NoiseModel


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
    det = np.linalg.det(vdp_cycle.monodromy)
    assert bT == pytest.approx(det, rel=1e-7)


def test_a_stuart_landau_vanishes(sl_basis):
    for t in (1.7, np.pi, 2 * np.pi, 9.0):
        assert abs(sl_basis.a(t)) < 1e-9


def test_a_vanderpol_vs_numeric_frame(vdp_cycle, vdp_basis):
    # express the numeric state-transition matrix in the Diliberto frame
    # X(0) = [F0, Fperp0/|F0|^2]; its (1,2) entry at T must be a(T)
    F0 = vdp_cycle.model.field(vdp_cycle.anchor)
    X0 = np.column_stack([F0, perp(F0) / (F0 @ F0)])
    Phi = vdp_cycle.monodromy
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
    eigs = np.sort(np.abs(np.linalg.eigvals(vdp_cycle.monodromy)))
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_vectors_are_periodic_far_from_the_first_period(vdp_basis):
    # past [0, T) the b(T)^k extension of a and b breaks periodicity and
    # overflows, so the vectors are read at t mod T
    T = vdp_basis.cycle.T
    for method in (vdp_basis.u2, vdp_basis.v1, vdp_basis.v2):
        for t in (0.0, 1.0, T / 3, 0.9 * T):
            want = method(t)
            for k in (-1, 1, 50):
                np.testing.assert_allclose(method(t + k * T), want,
                                           rtol=0, atol=1e-9)
    assert np.isfinite(vdp_basis.v1(1e6)).all()


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


def test_methods_reproduce_grid_rows(sl_basis, vdp_basis):
    # one formula site: at a grid time _ab(t) reproduces the grid's
    # quadrature values exactly, so u2/v1/v2(t) equal the grid rows bit for
    # bit wherever the scalar x0(t) and f(x0) round like the vectorized
    # grid calls (the model's ``**`` on a point calls pow, which rounds the
    # last bit apart from the batch's square at a few points)
    for basis in (sl_basis, vdp_basis):
        same_frame = 0
        for i, t in enumerate(basis.ts):
            t = float(t)
            assert basis.a(t) == basis.a_grid[i]
            assert basis.b(t) == basis.b_grid[i]
            x = basis.cycle.point(t)
            if not (np.array_equal(x, basis.x0_grid[i]) and np.array_equal(
                    basis.cycle.model.field(x), basis.u1_grid[i])):
                continue
            same_frame += 1
            assert np.array_equal(basis.u2(t), basis.u2_grid[i])
            assert np.array_equal(basis.v1(t), basis.v1_grid[i])
            assert np.array_equal(basis.v2(t), basis.v2_grid[i])
        assert same_frame >= basis.n - 8


@pytest.mark.parametrize("name, params, guess", [
    ("vanderpol", {"mu": 1.0}, (2.0, 0.0)),
    ("vanderpol", {"mu": 3.0}, (2.0, 0.0)),
    ("stuart_landau", {}, (0.5, 0.0)),
    ("brusselator", {}, (1.5, 3.0))])
def test_grid_equals_scalar_quadrature_calls(name, params, guess):
    # the grid's one array call on the cycle's integrals gives each row the
    # bits of a scalar call at that time
    cycle = pp.find_cycle(pp.get_model(name, **params), guess,
                          settle_time=30.0)
    basis = pp.DilibertoBasis(cycle)
    I = np.array([cycle.integrals(float(t)) for t in basis.ts])
    np.testing.assert_array_equal(basis.a_grid, I[:, 1])
    np.testing.assert_array_equal(basis.b_grid, np.exp(I[:, 0]))


def test_basis_integrates_nothing(monkeypatch, vdp_cycle):
    # a(t), b(t), a(T) and b(T) are components of the cycle's own flow
    def no_integration(*args, **kwargs):
        raise AssertionError("the basis integrated")

    monkeypatch.setattr(ode, "integrate", no_integration)
    basis = pp.DilibertoBasis(vdp_cycle)
    basis.v1(np.linspace(-1.0, 20.0, 7))
    basis.a(3.0)
    basis.b(3.0)


@pytest.mark.parametrize("name, params, guess", [
    ("vanderpol", {"mu": 1.0}, (2.0, 0.0)),
    ("brusselator", {}, (1.5, 3.0))])
def test_quadratures_match_scipy_along_the_dense_cycle(name, params, guess):
    # an independent quadrature of (int div f, a) on SciPy's DOP853 along
    # the cycle's dense x0(t), on NumPy products of its own
    from scipy.integrate import solve_ivp

    cycle = pp.find_cycle(pp.get_model(name, **params), guess,
                          settle_time=30.0)
    model = cycle.model

    def rhs(t, q):
        x = cycle.point(t)
        F = model.field(x)
        A = model.jacobian(x)
        c = F @ (A + A.T) @ perp(F) / (F @ F) ** 2
        return [model.divergence(x), c * np.exp(q[0])]

    basis = pp.DilibertoBasis(cycle)
    ref = solve_ivp(rhs, (0.0, cycle.T), [0.0, 0.0], method="DOP853",
                    rtol=1e-12, atol=1e-14, dense_output=True)
    assert ref.success
    I_ref = ref.sol(basis.ts)
    b_ref = np.exp(I_ref[0])
    a_scale = max(1.0, np.max(np.abs(I_ref[1])))
    assert np.max(np.abs(basis.a_grid - I_ref[1])) <= 1e-10 * a_scale
    assert np.max(np.abs(basis.b_grid / b_ref - 1.0)) <= 1e-10
    assert abs(basis.a_T - ref.y[1, -1]) <= 1e-10 * a_scale
    assert abs(basis.b_T / np.exp(ref.y[0, -1]) - 1.0) <= 1e-10


def test_normalization_defect_at_rounding_level(sl_basis, vdp_basis):
    # v1^T f = 1 holds identically in a(t) and b(t)
    assert sl_basis.normalization_defect <= 1e-13
    assert vdp_basis.normalization_defect <= 1e-13


def test_broken_normalization_rejected(monkeypatch, vdp_cycle):
    # a frame "rotation" that is not orthogonal breaks v1^T f = 1; the
    # basis must refuse instead of rescaling v1
    def skewed(v):
        v = np.asarray(v, dtype=float)
        return np.stack([v[1] + 0.1 * v[0], -v[0]])

    monkeypatch.setattr(diliberto, "perp", skewed)
    with pytest.raises(InternalInconsistencyError, match="normalization"):
        pp.DilibertoBasis(vdp_cycle, n=64)


@pytest.mark.parametrize("G", [
    lambda x: np.array([0.3, 0.7]),
    NoiseModel.directional(0.05, [0.3, 0.7]).G,
    NoiseModel.isotropic(0.05).G,
], ids=["amp", "directional", "isotropic"])
def test_projection_is_written_out_product(vdp_basis, G):
    # no BLAS dot (FMA, gemv rounding): the node values are exactly the
    # scalar products v1x*g0 + v1y*g1
    proj = vdp_basis.projection(G).values(vdp_basis.ts)
    for i, (v, x) in enumerate(zip(vdp_basis.v1_grid, vdp_basis.x0_grid)):
        g = G(x)
        expected = float(v[0]) * g[0] + float(v[1]) * g[1]
        assert np.array_equal(proj[:, i], np.atleast_1d(expected))


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


def test_orthogonality_defect_matches_pointwise_loop(sl_basis, vdp_basis):
    # reference: one scalar cycle point, field and Jacobian per grid time
    for basis in (sl_basis, vdp_basis):
        cyc = basis.cycle
        worst = 0.0
        for t in basis.ts:
            x = cyc.point(float(t))
            F = cyc.model.field(x)
            A = cyc.model.jacobian(x)
            w = (A + A.T) @ perp(F)
            worst = max(worst, abs(F @ w)
                        / (np.linalg.norm(F) * np.linalg.norm(w)))
        assert abs(pp.orthogonality_defect(basis) - worst) <= 1e-14


def test_adjoint_residual_matches_pointwise_loop(sl_cycle, sl_basis, sl_report,
                                                 vdp_cycle, vdp_basis,
                                                 vdp_report):
    # the verify_basis metric against a per-point A^T v1 reference
    for cyc, basis, report in ((sl_cycle, sl_basis, sl_report),
                               (vdp_cycle, vdp_basis, vdp_report)):
        h = cyc.T / 4096.0
        ts = np.arange(256) * (cyc.T / 256)
        dv = (basis.v1(ts - 2 * h) - 8 * basis.v1(ts - h)
              + 8 * basis.v1(ts + h) - basis.v1(ts + 2 * h)) / (12 * h)
        worst, scale = 0.0, 0.0
        for j, t in enumerate(ts):
            A = cyc.model.jacobian(cyc.point(float(t)))
            rhs = A.T @ basis.v1(float(t))
            worst = max(worst, np.linalg.norm(dv[:, j] + rhs))
            scale = max(scale, np.linalg.norm(rhs))
        assert report.metrics["adjoint_residual"] == pytest.approx(
            worst / scale, rel=1e-9)


@pytest.mark.parametrize("n", [1, 2, 9])
def test_lie_bracket_batch_matches_points(vdp_basis, n):
    # n = 2 would hide a transpose of the batch axis
    model = vdp_basis.cycle.model
    x = vdp_basis.x0_grid[::97][:n].T
    lb = pp.lie_bracket(model, x)
    assert lb.shape == (2, n)
    np.testing.assert_array_equal(
        lb, np.stack([pp.lie_bracket(model, x[:, i]) for i in range(n)],
                     axis=1))


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


def test_overflowing_multiplier_rejected():
    # exp(2 pi * 200) overflows: the flow's b(t) leaves the float range
    with pytest.raises(CycleNotFoundError, match="overflows"):
        rotation_cycle(200.0)


def test_unstable_cycle_warns():
    with pytest.warns(UserWarning, match="not asymptotically stable"):
        basis = pp.DilibertoBasis(rotation_cycle(0.1))
    assert basis.b_T == pytest.approx(np.exp(0.2 * np.pi), rel=1e-10)
    assert basis.mu2 == pytest.approx(0.1, rel=1e-10)


@pytest.mark.parametrize("n", [-5, 8, 15, 16.5, 32.0, np.nan])
def test_coarse_grid_rejected(sl_cycle, n):
    # a grid size must be an integer too: unchecked, 16.5 built 17 points
    # spaced T/16.5, and NaN failed inside NumPy
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
