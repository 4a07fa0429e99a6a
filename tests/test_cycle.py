import numpy as np
import pytest

import planar_ppv as pp
from planar_ppv import ode
from planar_ppv.errors import ArgumentError, NoOscillationError

VDP_PERIOD = 6.6632868593  # frozen from a rtol=1e-12 shooting oracle run


def test_stuart_landau_period_and_radius(sl_cycle):
    assert sl_cycle.T == pytest.approx(2 * np.pi, abs=1e-8)
    ts = np.linspace(0, sl_cycle.T, 64, endpoint=False)
    radii = np.linalg.norm(sl_cycle.point(ts), axis=0)
    np.testing.assert_allclose(radii, 1.0, atol=1e-8)


def test_vanderpol_period(vdp_cycle):
    assert vdp_cycle.T == pytest.approx(6.6633, abs=1e-3)
    assert vdp_cycle.T == pytest.approx(VDP_PERIOD, abs=1e-6)


def test_fixed_point_guess_raises(sl_model):
    with pytest.raises(NoOscillationError):
        pp.find_cycle(sl_model, (0.0, 0.0), settle_time=10.0)


def test_cycle_point_anchor(sl_cycle):
    np.testing.assert_allclose(sl_cycle.point(0.0), [1.0, 0.0], atol=1e-10)


def test_cycle_point_quarter_turn(sl_cycle):
    np.testing.assert_allclose(sl_cycle.point(np.pi / 2), [0.0, 1.0],
                               atol=1e-8)


def test_cycle_point_periodicity(sl_cycle, vdp_cycle):
    for cyc in (sl_cycle, vdp_cycle):
        np.testing.assert_allclose(cyc.point(cyc.T), cyc.point(0.0),
                                   atol=1e-10)
        t = 0.37 * cyc.T
        np.testing.assert_allclose(cyc.point(t + cyc.T), cyc.point(t),
                                   atol=1e-10)


def test_closure_invariant(sl_cycle, vdp_cycle):
    for cyc in (sl_cycle, vdp_cycle):
        # the dense cycle just before T, where point() does not wrap to 0
        end = cyc.point(np.nextafter(cyc.T, 0.0))
        gap = np.linalg.norm(end - cyc.anchor)
        assert gap < 1e-10
        # no fixed point on the cycle
        ts = np.linspace(0, cyc.T, 128, endpoint=False)
        assert np.min(np.linalg.norm(cyc.model.field(cyc.point(ts)),
                                     axis=0)) > 1e-8


def test_sample_cycle(sl_cycle):
    ts, xs = pp.sample_cycle(sl_cycle, 4)
    np.testing.assert_allclose(ts, [0, np.pi / 2, np.pi, 3 * np.pi / 2],
                               atol=1e-8)
    angles = np.arctan2(xs[:, 1], xs[:, 0])
    np.testing.assert_allclose(np.mod(angles, 2 * np.pi),
                               [0, np.pi / 2, np.pi, 3 * np.pi / 2],
                               atol=1e-8)
    np.testing.assert_allclose(np.linalg.norm(xs, axis=1), 1.0, atol=1e-8)


def test_sample_cycle_two_points(sl_cycle):
    ts, _ = pp.sample_cycle(sl_cycle, 2)
    np.testing.assert_allclose(ts, [0.0, sl_cycle.T / 2])


def test_sample_cycle_rejects_small_n(sl_cycle):
    with pytest.raises(ArgumentError):
        pp.sample_cycle(sl_cycle, 1)


def test_residuals_decrease(vdp_model):
    # start off-cycle so Newton actually has to work
    cyc = pp.find_cycle(vdp_model, (3.0, 0.5), settle_time=2.0)
    res = cyc.residuals
    tail = res[-3:]
    for a, b in zip(tail, tail[1:]):
        assert b < a


def test_newton_integrates_once_per_iteration(monkeypatch, vdp_model):
    # settle + first return + one augmented (x, Phi) flow per Newton
    # iteration; the last of these flows is the cycle
    calls = []
    original = ode.integrate

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(ode, "integrate", counting)
    cyc = pp.find_cycle(vdp_model, (3.0, 0.5), settle_time=2.0)
    assert len(cyc.residuals) > 3
    assert len(calls) == 2 + len(cyc.residuals)
    assert type(cyc.T) is float


def test_analytic_flow_rhs_budget(monkeypatch, vdp_model):
    # summed nfev of every ode.integrate call; the counts repeat exactly
    # (DOP853: 13,359 and 1,397; 15,380 and 3,523 while the cycle and Phi
    # were integrated again after Newton; 14,678 and 7,732 before the first
    # return ran at the cycle's rtol and the adjoint oracle took one
    # period; on the 5(4) pair 36,182 and 17,644)
    nfev = []
    original = ode.integrate

    def counting(*args, **kwargs):
        traj = original(*args, **kwargs)
        nfev.append(traj.nfev)
        return traj

    monkeypatch.setattr(ode, "integrate", counting)
    cyc = pp.find_cycle(vdp_model, (2.0, 0.0), settle_time=30.0)
    assert sum(nfev) <= 14_000
    basis = pp.DilibertoBasis(cyc)
    nfev.clear()
    pp.verify_basis(basis, 1e-5)
    assert sum(nfev) <= 2_000


def test_lock_scan_rhs_budget(monkeypatch, vdp_basis):
    # the README grid: 25 detunings on each of two eps rows, one
    # one-period map per row (904 calls; 1,018 on the 5(4) pair, which
    # took 79,012 against DOP853's 112,291 on the old horizon scan)
    nfev = []
    original = ode.integrate

    def counting(*args, **kwargs):
        traj = original(*args, **kwargs)
        nfev.append(traj.nfev)
        return traj

    monkeypatch.setattr(ode, "integrate", counting)
    pp.injection_lock_scan(vdp_basis, [1.0, 0.0], [0.005, 0.01],
                           np.linspace(-0.012, 0.012, 25))
    assert len(nfev) == 2
    assert sum(nfev) <= 1_500


def test_period_is_python_float(vdp_model, vdp_cycle):
    # vdp_cycle converges at the first check, a short settle after updates
    updated = pp.find_cycle(vdp_model, (3.0, 0.5), settle_time=2.0)
    assert len(vdp_cycle.residuals) == 1 < len(updated.residuals)
    assert type(vdp_cycle.T) is float and type(updated.T) is float


def test_guess_independence(vdp_model, vdp_cycle):
    from planar_ppv.isochron import _nearest_cycle_time

    other = pp.find_cycle(vdp_model, (0.5, 0.5), settle_time=150.0)
    assert other.T == pytest.approx(vdp_cycle.T, abs=1e-8)
    # same orbit: every sample of each cycle lies on the other curve
    # (point-to-curve distance, since the anchors differ)
    _, xs1 = pp.sample_cycle(vdp_cycle, 256)
    _, xs2 = pp.sample_cycle(other, 256)
    d12 = max(_nearest_cycle_time(other, x)[1] for x in xs1)
    d21 = max(_nearest_cycle_time(vdp_cycle, x)[1] for x in xs2)
    assert max(d12, d21) < 1e-6


def test_cycle_csv(tmp_path, sl_cycle):
    from planar_ppv.cycle import cycle_to_csv

    path = tmp_path / "cycle.csv"
    cycle_to_csv(sl_cycle, 16, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x,y"
    assert len(lines) == 17
    t, x, y = (float(v) for v in lines[1].split(","))
    assert (t, x) == (0.0, pytest.approx(1.0, abs=1e-10))
