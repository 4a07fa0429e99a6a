import math
import warnings

import numpy as np
import pytest

import planar_ppv as pp
from planar_ppv import ode
from planar_ppv.errors import ArgumentError, NotConvergedError
from planar_ppv.isochron import isochron_to_csv


def test_on_cycle_phase_recovers_time(sl_cycle):
    for s in (0.0, 1.0, 4.0):
        r = pp.asymptotic_phase(sl_cycle, sl_cycle.point(s), horizon=30.0)
        diff = abs(r.phase - s)
        assert min(diff, sl_cycle.T - diff) < 1e-6
        assert r.residual < 1e-7


def test_radial_seed_stuart_landau(sl_cycle):
    # radial displacements sit on the theta = 0 isochron exactly
    r = pp.asymptotic_phase(sl_cycle, [2.0, 0.0], horizon=30.0)
    assert r.phase == pytest.approx(0.0, abs=1e-6) \
        or r.phase == pytest.approx(2 * np.pi, abs=1e-6)


def test_fixed_point_seed_never_converges(sl_cycle):
    with pytest.raises(NotConvergedError):
        pp.asymptotic_phase(sl_cycle, [0.0, 0.0], horizon=30.0)


def test_zero_offsets_give_zero_spread(vdp_basis):
    horizon = 20.0 / abs(vdp_basis.mu2)
    rep = pp.isochron_experiment(vdp_basis, 1.0, [0.0], horizon)
    assert rep.isochron_spread == 0.0
    assert rep.control_spread == 0.0


def test_large_t_star_reads_as_t_star_mod_period(vdp_basis):
    # u2's closed form past T grows with b_T^k and used to overflow here
    T = vdp_basis.cycle.T
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        far = pp.isochron_experiment(vdp_basis, 1e6, [-0.05, 0.05], 19.0)
    near = pp.isochron_experiment(vdp_basis, math.fmod(1e6, T),
                                  [-0.05, 0.05], 19.0)
    assert far.rows == near.rows


def test_stuart_landau_is_degenerate(sl_basis):
    # u2 is radial = f_perp direction, so the control set collapses
    rep = pp.isochron_experiment(sl_basis, 0.0, [-0.05, 0.05], horizon=30.0)
    assert rep.degenerate
    assert all(name == "isochron" for name, *_ in rep.rows)
    assert rep.isochron_spread < 1e-6


def test_vanderpol_isochron_tangency(vdp_cycle, vdp_basis):
    # u2 seeds share the phase to second order; f_perp seeds do not
    horizon = 20.0 / abs(vdp_basis.mu2)
    offsets = [-0.05, -0.025, 0.0, 0.025, 0.05]
    rep = pp.isochron_experiment(vdp_basis, 1.0, offsets, horizon)
    assert not rep.degenerate
    assert rep.isochron_spread < 1e-3 * vdp_cycle.T
    assert rep.control_spread > 10.0 * rep.isochron_spread


def test_isochron_spread_quadratic_in_offset(vdp_basis):
    # halving the offset shrinks the u2 spread by about 4x; one-sided
    # offsets {0, h} isolate the quadratic term (with +/-h it cancels)
    horizon = 20.0 / abs(vdp_basis.mu2)
    big = pp.isochron_experiment(vdp_basis, 1.0, [0.0, 0.05], horizon)
    small = pp.isochron_experiment(vdp_basis, 1.0, [0.0, 0.025], horizon)
    ratio = big.isochron_spread / small.isochron_spread
    assert 3.5 < ratio < 4.5


def test_horizon_doubling_invariance(vdp_cycle, vdp_basis):
    horizon = 20.0 / abs(vdp_basis.mu2)
    a = pp.asymptotic_phase(vdp_cycle, [2.1, 0.2], horizon)
    b = pp.asymptotic_phase(vdp_cycle, [2.1, 0.2], 2 * horizon)
    diff = abs(a.phase - b.phase)
    diff = min(diff, vdp_cycle.T - diff)
    assert diff < 1e-6


def test_isochron_csv(tmp_path, vdp_basis):
    horizon = 20.0 / abs(vdp_basis.mu2)
    rep = pp.isochron_experiment(vdp_basis, 1.0, [-0.05, 0.05], horizon)
    path = tmp_path / "isochron.csv"
    isochron_to_csv(rep, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "set,offset,phase,residual"
    assert len(lines) == 5  # two seed sets x two offsets
    assert lines[1].startswith("isochron,")
    assert lines[3].startswith("control,")


@pytest.fixture(scope="module")
def vdp_stiff():
    """van der Pol cycles at mu = 1, 3, 6 from one guess and settle."""
    return {mu: pp.find_cycle(pp.get_model("vanderpol", mu=mu), (2.1, 0.0),
                              settle_time=30.0) for mu in (1.0, 3.0, 6.0)}


@pytest.mark.parametrize("mu", [1.0, 3.0, 6.0])
def test_nearest_cycle_time_on_cycle(vdp_stiff, mu):
    # exact cycle points are found at distance ~0 and at their own time,
    # also on the relaxation cycles where a local search gets trapped
    from planar_ppv.isochron import _nearest_cycle_time

    cyc = vdp_stiff[mu]
    for t in np.linspace(0.0, cyc.T, 200, endpoint=False):
        t_found, d = _nearest_cycle_time(cyc, cyc.point(t))
        assert d <= 1e-12
        gap = abs(t_found - t)
        assert min(gap, cyc.T - gap) <= 1e-9


def test_stiff_isochron_experiment_completes(vdp_stiff):
    # mu = 3, t* = 19 T / 40: a cycle point where the bounded-restart
    # search used to miss the cycle and raise NotConvergedError
    cyc = vdp_stiff[3.0]
    basis = pp.DilibertoBasis(cyc)
    rep = pp.isochron_experiment(basis, 19 * cyc.T / 40,
                                 [-0.05, 0.0, 0.05], 19.0)
    assert not rep.degenerate
    assert rep.isochron_spread < rep.control_spread


def test_stuart_landau_phase_is_polar_angle(sl_cycle):
    # Stuart-Landau isochrons are radial and the cycle is anchored at
    # (1, 0), so a seed's asymptotic phase is its polar angle
    for angle in (0.3, 2.0, 2 * np.pi / 3, 4.0, 5.9):
        for radius in (0.5, 0.9, 1.5):
            seed = radius * np.array([np.cos(angle), np.sin(angle)])
            r = pp.asymptotic_phase(sl_cycle, seed, horizon=30.0)
            gap = abs(r.phase - angle)
            assert min(gap, sl_cycle.T - gap) <= 1e-8


def seed_points(basis, t_star, offsets):
    """The experiment's seeds: unit u2 set, then unit f_perp set."""
    cyc = basis.cycle
    p = cyc.point(t_star)
    u2 = basis.u2(float(t_star))
    ctrl = pp.perp(cyc.model.field(p))
    return [p + off * d / np.linalg.norm(d)
            for d in (u2, ctrl) for off in offsets]


@pytest.mark.parametrize("t_star", [0.0, 1.3, 4.4])
def test_batched_stuart_landau_phases_are_polar_angles(sl_basis, t_star):
    # radial isochrons, cycle anchored at (1, 0): every batched reading
    # is its seed's polar angle
    offsets = [-0.3, -0.05, 0.0, 0.05, 0.3]
    rep = pp.isochron_experiment(sl_basis, t_star, offsets, horizon=30.0)
    seeds = seed_points(sl_basis, t_star, offsets)
    assert len(rep.rows) == len(offsets)
    for (_, _, phase, _), seed in zip(rep.rows, seeds):
        angle = np.mod(np.arctan2(seed[1], seed[0]), 2 * np.pi)
        gap = abs(phase - angle)
        assert min(gap, sl_basis.cycle.T - gap) <= 1e-8


@pytest.mark.parametrize("mu", [1.0, 3.0])
def test_batched_phases_match_per_seed_phases(vdp_stiff, mu):
    # one shared step sequence moves each phase only in the last digits
    cyc = vdp_stiff[mu]
    basis = pp.DilibertoBasis(cyc)
    offsets = [-0.05, 0.0, 0.05]
    t_star = 19 * cyc.T / 40
    rep = pp.isochron_experiment(basis, t_star, offsets, 19.0)
    assert len(rep.rows) == 2 * len(offsets)
    for (_, _, phase, resid), seed in zip(
            rep.rows, seed_points(basis, t_star, offsets)):
        single = pp.asymptotic_phase(cyc, seed, 19.0)
        gap = abs(phase - single.phase)
        assert min(gap, cyc.T - gap) <= 1e-9
        assert resid <= 1e-6


def test_out_of_basin_seed_in_batch_raises(sl_basis):
    # u2 is radial on Stuart-Landau: one of the unit offsets lands within
    # rounding of the fixed point at the origin, and its endpoint is still
    # far from the cycle at the horizon
    with pytest.raises(NotConvergedError, match="isochron seed at offset"):
        pp.isochron_experiment(sl_basis, 0.0, [-1.0, 0.5, 1.0], 30.0)


def test_experiment_is_one_integration(monkeypatch, vdp_basis):
    from planar_ppv import ode

    calls = []
    integrate = ode.integrate

    def counted(*args, **kwargs):
        calls.append(kwargs.get("dense"))
        return integrate(*args, **kwargs)

    monkeypatch.setattr(ode, "integrate", counted)
    rep = pp.isochron_experiment(vdp_basis, 1.0, [-0.05, 0.0, 0.05], 20.0)
    assert not rep.degenerate and len(rep.rows) == 6
    assert calls == [False]


def test_single_seed_is_a_lone_integration(vdp_cycle):
    # asymptotic_phase is the batch of one, with the steps and the bits
    # of integrating the bare (2,) point
    from planar_ppv.isochron import _nearest_cycle_time

    seed = np.array([2.1, 0.2])
    end = ode.integrate(vdp_cycle.model.rhs, seed, 0.0, 19.0, rtol=1e-10,
                        atol=1e-12).final
    t_star, resid = _nearest_cycle_time(vdp_cycle, end)
    r = pp.asymptotic_phase(vdp_cycle, seed, 19.0)
    assert r.phase == float(np.mod(t_star - 19.0, vdp_cycle.T))
    assert r.residual == resid


def no_integration(*args, **kwargs):
    raise AssertionError("integrated before checking the arguments")


@pytest.mark.parametrize("x0, horizon", [
    ((1.0, 0.0, 0.5), 10.0), ((1.0,), 10.0), ((np.nan, 0.0), 10.0),
    ((1.0, 0.0), np.nan), ((1.0, 0.0), 0.0), ((1.0, 0.0), np.inf)],
    ids=["three", "one", "nan", "horizon-nan", "horizon-zero",
         "horizon-inf"])
def test_asymptotic_phase_rejects_bad_arguments(monkeypatch, sl_cycle, x0,
                                                horizon):
    monkeypatch.setattr(ode, "integrate", no_integration)
    name = "x0" if horizon == 10.0 else "horizon"
    with pytest.raises(ArgumentError, match=name):
        pp.asymptotic_phase(sl_cycle, x0, horizon)


@pytest.mark.parametrize("bad", [
    {"t_star": np.nan}, {"t_star": np.inf}, {"offsets": []},
    {"offsets": [0.01, np.nan]}, {"offsets": [np.inf]},
    {"horizon": np.nan}, {"horizon": -1.0}],
    ids=["t-star-nan", "t-star-inf", "offsets-empty", "offsets-nan",
         "offsets-inf", "horizon-nan", "horizon-negative"])
def test_isochron_experiment_rejects_bad_arguments(monkeypatch, vdp_basis,
                                                   bad):
    # the config checks these keys; the library call names the argument
    monkeypatch.setattr(ode, "integrate", no_integration)
    args = {"t_star": 1.0, "offsets": [-0.05, 0.0, 0.05], "horizon": 19.0}
    args.update(bad)
    (name,) = bad
    with pytest.raises(ArgumentError, match=name):
        pp.isochron_experiment(vdp_basis, **args)
