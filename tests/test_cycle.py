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


def test_point_reads_the_flows_first_two_components(vdp_cycle):
    # x alone is interpolated, with the bits of a full read of the
    # 8-component flow, for scalar and array t, reduced mod T either way
    T = vdp_cycle.T
    ts = np.concatenate([np.random.default_rng(3).uniform(-T, 3 * T, 64),
                         vdp_cycle.nodes[0], [0.0, T]])
    full = vdp_cycle._traj(np.mod(ts, T))
    assert full.shape == (8, ts.size)
    point = vdp_cycle.point(ts)
    np.testing.assert_array_equal(point.view(np.int64),
                                  full[:2].view(np.int64))
    for t, x in zip(ts, full[:2].T):
        for scalar in (float(t), np.float64(t), np.asarray(t)):
            np.testing.assert_array_equal(
                vdp_cycle.point(scalar).view(np.int64), x.view(np.int64))


def test_flow_into_a_fixed_point_stops_there():
    # vdp at mu < 0 has a stable focus and no stable cycle: Newton's first
    # flow, whose a(t) integrand divides by |f|^4, stops where |f| falls
    # below the settle's fixed-point bound, not at the search's horizon
    model = pp.get_model("vanderpol", mu=-1.0)
    with pytest.raises(NoOscillationError, match="fixed point"):
        pp.find_cycle(model, (0.5, 0.0), settle_time=0.5)


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


@pytest.mark.parametrize("n", [2.5, 4.0, np.nan])
def test_sample_cycle_rejects_non_integer_n(sl_cycle, n):
    # unchecked, n = 2.5 gave 3 samples at spacing T/2.5, and a NaN n
    # failed inside np.arange
    with pytest.raises(ArgumentError):
        pp.sample_cycle(sl_cycle, n)
    ts, _ = pp.sample_cycle(sl_cycle, np.int64(3))
    np.testing.assert_allclose(ts, [0.0, sl_cycle.T / 3, 2 * sl_cycle.T / 3])


def test_residuals_decrease(vdp_model):
    # start off-cycle so Newton actually has to work
    cyc = pp.find_cycle(vdp_model, (3.0, 0.5), settle_time=2.0)
    res = cyc.residuals
    tail = res[-3:]
    for a, b in zip(tail, tail[1:]):
        assert b < a


def test_newton_integrates_once_per_iteration(monkeypatch, vdp_model):
    # settle + one augmented (x, Phi) flow per Newton iteration; the first
    # of these flows ends at the first return, the last is the cycle
    calls = []
    original = ode.integrate

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(ode, "integrate", counting)
    cyc = pp.find_cycle(vdp_model, (3.0, 0.5), settle_time=2.0)
    assert len(cyc.residuals) > 3
    assert len(calls) == 1 + len(cyc.residuals)
    assert type(cyc.T) is float


@pytest.mark.parametrize("name, params, guess", [
    ("vanderpol", {"mu": 1.0}, (2.0, 0.0)),
    ("vanderpol", {"mu": 3.0}, (2.0, 0.0)),
    ("stuart_landau", {}, (0.5, 0.0)),
    ("brusselator", {}, (1.5, 3.0))])
def test_first_flow_finds_the_period_and_is_the_cycle(name, params, guess):
    # Newton's first (x, Phi) flow ends at the first return to the section
    # through the relaxed point; a separate flow of x alone to the same
    # section is the reference for its period
    model = pp.get_model(name, **params)
    cyc = pp.find_cycle(model, guess, settle_time=30.0)
    assert len(cyc.residuals) == 1  # that first flow closed: it is the cycle
    p = cyc.anchor  # the relaxed point, where the first flow starts
    n = model.field(p) / np.linalg.norm(model.field(p))

    def section(t, x):
        return n @ (x - p) if t > 0 else 1.0

    ref = ode.integrate(model.rhs, p, 0.0, 800.0, rtol=1e-12, atol=1e-13,
                        event=section)
    assert ref.status == 1
    assert abs(cyc.T - ref.t1) <= 1e-12 * ref.t1
    # Phi(T) is the event state, read from the crossing step's interpolant
    np.testing.assert_array_equal(cyc.monodromy, cyc.phi(cyc.T))


@pytest.mark.parametrize("bad", [
    {"settle_time": np.nan}, {"settle_time": -1.0},
    {"tol": np.nan}, {"tol": 0.0}, {"tol": -1.0}],
    ids=["settle-nan", "settle-negative", "tol-nan", "tol-zero",
         "tol-negative"])
def test_bad_settle_time_or_tol_rejected_before_integrating(
        monkeypatch, sl_model, bad):
    # NaN compares false both ways, so a NaN settle_time would skip the
    # settle; a tol no residual can reach would run every Newton flow
    def no_integration(*args, **kwargs):
        raise AssertionError("integrated before checking the arguments")

    monkeypatch.setattr(ode, "integrate", no_integration)
    with pytest.raises(ArgumentError):
        pp.find_cycle(sl_model, (0.5, 0.0), **bad)


def test_analytic_flow_rhs_budget(monkeypatch, vdp_model):
    # summed nfev of every ode.integrate call; the counts repeat exactly
    # (DOP853: 9,823 and 1,397; 11,472 while a separate 2-D flow found the
    # first return, and 13,359 before that; 15,380 and 3,523 while the
    # cycle and Phi were integrated again after Newton; 14,678 and 7,732
    # before the first return ran at the cycle's rtol and the adjoint
    # oracle took one period; on the 5(4) pair 36,182 and 17,644)
    nfev = []
    original = ode.integrate

    def counting(*args, **kwargs):
        traj = original(*args, **kwargs)
        nfev.append(traj.nfev)
        return traj

    monkeypatch.setattr(ode, "integrate", counting)
    cyc = pp.find_cycle(vdp_model, (2.0, 0.0), settle_time=30.0)
    assert sum(nfev) <= 10_000
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
    cycle_to_csv(sl_cycle, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x,y"
    assert len(lines) == 513
    t, x, y = (float(v) for v in lines[1].split(","))
    assert (t, x) == (0.0, pytest.approx(1.0, abs=1e-10))


@pytest.mark.parametrize("settle_time", [0.0, 10.0], ids=["no-settle",
                                                          "settle"])
@pytest.mark.parametrize("guess", [(1.0, 0.0, 0.5), (1.0,), (np.nan, 0.0),
                                   (np.inf, 0.0), "ab", None],
                         ids=["three", "one", "nan", "inf", "str", "none"])
def test_non_planar_guess_is_an_argument_error(monkeypatch, sl_model,
                                              guess, settle_time):
    # the flows evaluate the model on two floats unchecked, so the guess
    # is checked where it enters, before any integration
    def no_integration(*args, **kwargs):
        raise AssertionError("integrated before checking the arguments")

    monkeypatch.setattr(ode, "integrate", no_integration)
    with pytest.raises(ArgumentError, match="guess"):
        pp.find_cycle(sl_model, guess, settle_time=settle_time)
