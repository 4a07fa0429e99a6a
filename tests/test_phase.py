import numpy as np
import pytest
from scipy.integrate import quad

import planar_ppv as pp
from planar_ppv.errors import ArgumentError
from planar_ppv.phase import Perturbation, phase_rhs, spectrum_to_csv


def test_phase_rhs_along_flow(sl_basis, sl_model):
    # g = f projects to exactly v1^T f = 1
    rhs = phase_rhs(sl_basis, Perturbation.along_flow(sl_model, eps=0.01))
    for t in (0.0, 1.3, 5.0):
        assert rhs(t, [0.0])[0] == pytest.approx(0.01, abs=1e-6)


def test_phase_rhs_sinusoidal_example(sl_basis):
    # v1(0) = (0, 1), amp = (0, 1), cos(0) = 1  =>  rhs = eps
    pert = Perturbation.sinusoidal([0.0, 1.0], omega_inj=1.0, eps=0.02)
    assert phase_rhs(sl_basis, pert)(0.0, [0.0])[0] == pytest.approx(
        0.02, abs=1e-6)


def test_zero_perturbation_keeps_phase(sl_basis):
    path = pp.simulate_phase(sl_basis, Perturbation.zero(), t_end=50.0)
    assert np.max(np.abs(path.psi)) < 1e-12
    assert not path.locked


def test_along_flow_linear_growth(vdp_basis, vdp_model):
    # dpsi/dt = eps identically, so psi(100) = 100 eps
    pert = Perturbation.along_flow(vdp_model, eps=0.01)
    path = pp.simulate_phase(vdp_basis, pert, t_end=100.0)
    assert path.psi[-1] == pytest.approx(1.0, abs=1e-6)
    assert path.mean_slope == pytest.approx(0.01, abs=1e-6)


def test_eps_scaling_to_linear_order(sl_basis):
    # far-detuned weak forcing: response scales linearly in eps
    omega_inj = sl_basis.omega + 0.5
    p1 = pp.simulate_phase(
        sl_basis, Perturbation.sinusoidal([1.0, 0.0], omega_inj, 1e-4), 50.0)
    p2 = pp.simulate_phase(
        sl_basis, Perturbation.sinusoidal([1.0, 0.0], omega_inj, 2e-4), 50.0)
    # compare RMS of the beating response (endpoint sits near a zero
    # crossing, where relative error is meaningless)
    ratio = np.sqrt(np.mean(p2.psi ** 2) / np.mean(p1.psi ** 2))
    assert ratio == pytest.approx(2.0, rel=1e-3)


def test_fourier_stuart_landau_first_harmonic(sl_basis):
    # v1 = (-sin t, cos t): V_{+1} = (i/2, 1/2), V_{-1} = (-i/2, 1/2)
    spec = pp.ppv_fourier(sl_basis, 3)
    np.testing.assert_allclose(spec.coefficient(1), [0.5j, 0.5], atol=1e-9)
    np.testing.assert_allclose(spec.coefficient(-1), [-0.5j, 0.5], atol=1e-9)
    np.testing.assert_allclose(spec.coefficient(0), [0.0, 0.0], atol=1e-9)
    np.testing.assert_allclose(spec.coefficient(2), [0.0, 0.0], atol=1e-9)


def test_fourier_conjugate_symmetry(vdp_basis):
    spec = pp.ppv_fourier(vdp_basis, 8)
    for k in range(1, 9):
        np.testing.assert_allclose(spec.coefficient(-k),
                                   np.conj(spec.coefficient(k)), atol=1e-12)


def test_fourier_parseval_vs_quadrature(vdp_basis):
    # independent oracle: (1/T) int |v1|^2 dt by adaptive quadrature
    T = vdp_basis.cycle.T

    def sq(t):
        v = vdp_basis.v1(t)
        return float(v @ v)

    ref, err = quad(sq, 0.0, T, limit=200, epsabs=1e-12, epsrel=1e-12)
    ref /= T
    assert err < 1e-9
    spec = pp.ppv_fourier(vdp_basis, vdp_basis.n // 2 - 1)
    assert np.sum(spec.mass()) == pytest.approx(ref, rel=1e-6)


def test_fourier_reconstruction_improves_with_K(vdp_basis):
    ts = np.arange(97) * vdp_basis.cycle.T / 97
    exact = vdp_basis.v1(ts)
    errs = []
    for K in (1, 2, 4, 8, 16):
        rec = pp.ppv_fourier(vdp_basis, K).reconstruct(ts)
        errs.append(np.max(np.abs(rec - exact)))
    for a, b in zip(errs, errs[1:]):
        assert b <= a * (1 + 1e-9)
    assert errs[-1] < 1e-3
    assert errs[-1] < 0.01 * errs[0]


def test_lock_inside_tongue(sl_basis):
    # Adler: locking range is eps/2 for amp (1, 0); dw = 0.002 << 0.005
    pert = Perturbation.sinusoidal([1.0, 0.0], sl_basis.omega + 0.002,
                                   eps=0.01)
    path = pp.simulate_phase(sl_basis, pert, t_end=2000.0)
    assert path.locked
    assert path.mean_freq_shift == pytest.approx(0.002, abs=1e-4)
    assert abs(path.beat) < 1e-4


def test_no_lock_outside_tongue(sl_basis):
    pert = Perturbation.sinusoidal([1.0, 0.0], sl_basis.omega + 0.05,
                                   eps=0.01)
    path = pp.simulate_phase(sl_basis, pert, t_end=500.0)
    assert not path.locked
    # pulled but not captured: residual beat stays near the detuning
    assert abs(path.beat) > 0.04


def test_lock_scan_rows_and_boundary(sl_basis):
    lm = pp.injection_lock_scan(sl_basis, [1.0, 0.0], [0.01],
                                [0.0, 0.002, 0.05], t_end=2000.0)
    assert len(lm.rows) == 3
    by_dw = {r[1]: r[2] for r in lm.rows}
    assert by_dw[0.0] and by_dw[0.002] and not by_dw[0.05]
    assert lm.boundaries[0.01] == pytest.approx(0.002)


def test_lock_scan_rows_grouped_by_eps(sl_basis):
    # rows run eps-major, and each eps row is its own integration: the
    # 0.01 rows do not depend on which other eps values the scan holds
    grid = [0.0, 0.002, 0.05]
    one = pp.injection_lock_scan(sl_basis, [1.0, 0.0], [0.01], grid,
                                 t_end=400.0)
    both = pp.injection_lock_scan(sl_basis, [1.0, 0.0], [0.005, 0.01], grid,
                                  t_end=400.0)
    assert [r[:2] for r in both.rows] == [(e, dw) for e in (0.005, 0.01)
                                          for dw in grid]
    assert both.rows[3:] == one.rows
    assert both.boundaries[0.01] == one.boundaries[0.01]


@pytest.mark.parametrize("which,grid", [
    # Adler half-widths at eps = 0.01: 0.005 (SL), about 0.006 (vdp mu=1)
    ("sl", [-0.0075, -0.0025, 0.0025, 0.0075]),
    ("vdp", [-0.009, -0.003, 0.003, 0.009]),
])
def test_lock_scan_matches_per_point_model(which, grid, sl_basis, vdp_basis):
    # every verdict matches per-point simulate_phase at the scan's rtol,
    # every frequency shift a per-point rtol 1e-11 reference
    basis = sl_basis if which == "sl" else vdp_basis
    eps = 0.01
    lm = pp.injection_lock_scan(basis, [1.0, 0.0], [eps], grid)
    horizon = max(400.0, 8.0 / eps)
    verdicts = []
    for _, dw, locked, shift in lm.rows:
        pert = Perturbation.sinusoidal([1.0, 0.0], basis.omega + dw, eps)
        assert locked == pp.simulate_phase(basis, pert, horizon).locked
        ref = pp.simulate_phase(basis, pert, horizon, rtol=1e-11)
        assert abs(shift - ref.mean_freq_shift) < 1e-7
        verdicts.append(locked)
    assert verdicts[0] is False and verdicts[-1] is False
    assert any(verdicts)


def test_lock_scan_one_point_is_simulate_phase(sl_basis):
    # a one-point grid is the batch of one simulate_phase integrates
    eps, dw = 0.01, 0.002
    lm = pp.injection_lock_scan(sl_basis, [1.0, 0.0], [eps], [dw])
    pert = Perturbation.sinusoidal([1.0, 0.0], sl_basis.omega + dw, eps)
    path = pp.simulate_phase(sl_basis, pert, max(400.0, 8.0 / eps))
    assert lm.rows == ((eps, dw, path.locked, path.mean_freq_shift),)


def test_lock_scan_empty_grid_rejected(sl_basis):
    with pytest.raises(ArgumentError):
        pp.injection_lock_scan(sl_basis, [1.0, 0.0], [], [0.0])


def test_fourier_bad_K(sl_basis):
    with pytest.raises(ArgumentError):
        pp.ppv_fourier(sl_basis, 0)
    with pytest.raises(ArgumentError):
        pp.ppv_fourier(sl_basis, sl_basis.n // 2)


def test_bad_perturbation_arguments():
    with pytest.raises(ArgumentError):
        Perturbation.sinusoidal([1.0, 0.0], 1.0, eps=-0.1)


def test_spectrum_csv(tmp_path, sl_basis):
    spec = pp.ppv_fourier(sl_basis, 2)
    path = tmp_path / "spectrum.csv"
    spectrum_to_csv(spec, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,Re_Vkx,Im_Vkx,Re_Vky,Im_Vky"
    assert len(lines) == 6  # k = -2..2
    ks = [int(ln.split(",")[0]) for ln in lines[1:]]
    assert ks == [-2, -1, 0, 1, 2]
