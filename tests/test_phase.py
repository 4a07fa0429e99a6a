import numpy as np
import pytest
from scipy.integrate import quad

import planar_ppv as pp
from planar_ppv import ode, phase
from planar_ppv.errors import ArgumentError
from planar_ppv.phase import Perturbation, spectrum_to_csv
from planar_ppv.spline import PeriodicSpline


def test_phase_rhs_along_flow(sl_basis, sl_model):
    # g = f projects to exactly v1^T f = 1
    pert = Perturbation.along_flow(sl_model, eps=0.01)
    rhs = phase._rhs(sl_basis.projection(pert.G), pert.eps, pert.u)
    for t in (0.0, 1.3, 5.0):
        assert rhs(t, [0.0])[0] == pytest.approx(0.01, abs=1e-6)


def test_phase_rhs_sinusoidal_example(sl_basis):
    # v1(0) = (0, 1), amp = (0, 1), cos(0) = 1  =>  rhs = eps
    pert = Perturbation.sinusoidal([0.0, 1.0], omega_inj=1.0, eps=0.02)
    rhs = phase._rhs(sl_basis.projection(pert.G), pert.eps, pert.u)
    assert rhs(0.0, [0.0])[0] == pytest.approx(0.02, abs=1e-6)


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
                                [0.0, 0.002, 0.05])
    assert len(lm.rows) == 3
    by_dw = {r[1]: r[2] for r in lm.rows}
    assert by_dw[0.0] and by_dw[0.002] and not by_dw[0.05]
    assert lm.boundaries[0.01] == pytest.approx(0.002)
    # 0.002 is inside the grid, so the grid brackets the reported edge,
    # though its locked first point 0.0 is not the largest |detuning|
    assert lm.beyond_grid == {0.01: False}


@pytest.mark.parametrize("grid", [[-0.003, 0.0, 0.003], [0.0, 0.003],
                                  [-0.003, 0.001, 0.05], [0.002]])
def test_lock_scan_flags_a_tongue_wider_than_the_grid(sl_basis, grid):
    # at eps = 0.01 the Stuart-Landau tongue reaches |detuning| 0.005: a
    # grid whose largest locked |detuning| is its first or last point
    # reports the grid's edge, not the tongue's, and says so
    lm = pp.injection_lock_scan(sl_basis, [1.0, 0.0], [0.01], grid)
    assert lm.boundaries[0.01] == max(abs(dw) for dw in grid
                                      if abs(dw) < 0.005)
    assert lm.beyond_grid == {0.01: True}


def test_lock_scan_maps_without_the_generic_read_out(sl_basis, values_calls):
    # the lock map's RHS reads the projection through a kernel built once
    # a row: PeriodicSpline.values is called as often for 9 detunings as
    # for 1, and at most once, not once an RHS call
    counts = []
    for grid in ([0.002], np.linspace(-0.008, 0.008, 9)):
        values_calls.clear()
        pp.injection_lock_scan(sl_basis, [1.0, 0.0], [0.01], grid)
        counts.append(len(values_calls))
    assert counts[0] == counts[1] <= 1


def test_lock_scan_rows_grouped_by_eps(sl_basis):
    # rows run eps-major, and each eps row is its own integration: the
    # 0.01 rows do not depend on which other eps values the scan holds
    grid = [0.0, 0.002, 0.05]
    one = pp.injection_lock_scan(sl_basis, [1.0, 0.0], [0.01], grid)
    both = pp.injection_lock_scan(sl_basis, [1.0, 0.0], [0.005, 0.01], grid)
    assert [r[:2] for r in both.rows] == [(e, dw) for e in (0.005, 0.01)
                                          for dw in grid]
    assert both.rows[3:] == one.rows
    assert both.boundaries[0.01] == one.boundaries[0.01]


def _strobe_psi_lock(basis, amp, eps, detunings, horizon):
    """Independent reference verdicts: simulate psi for every detuning as
    one state over ``horizon`` and call a point locked iff
    psi(k T_inj) - k (T - T_inj) stays bounded over the last 40 forcing
    periods."""
    T = basis.cycle.T
    proj = basis.projection(lambda x: np.asarray(amp, dtype=float))
    omega_inj = basis.omega + np.asarray(detunings, dtype=float)

    def rhs(t, psi):
        return (eps * np.cos(omega_inj * t)
                * proj.values(t + np.asarray(psi))[0])

    traj = ode.integrate(rhs, np.zeros(len(omega_inj)), 0.0, horizon,
                         rtol=1e-8, atol=1e-12)
    verdicts = []
    for j, w in enumerate(omega_inj):
        t_inj = 2.0 * np.pi / w
        k = np.arange(int(horizon / t_inj) - 40, int(horizon / t_inj) + 1)
        drift = traj(k * t_inj)[j] - k * (T - t_inj)
        verdicts.append(bool(np.ptp(drift) < 0.05))
    return verdicts


@pytest.mark.parametrize("which,grid", [
    # Adler half-widths at eps = 0.01: 0.005 (SL), about 0.006 (vdp mu=1)
    ("sl", [-0.0075, -0.0025, 0.0025, 0.0075]),
    ("vdp", [-0.009, -0.003, 0.003, 0.009]),
])
def test_lock_scan_matches_per_point_model(which, grid, sl_basis, vdp_basis):
    # every map verdict equals that of a horizon-6000 psi simulation
    basis = sl_basis if which == "sl" else vdp_basis
    eps = 0.01
    lm = pp.injection_lock_scan(basis, [1.0, 0.0], [eps], grid)
    verdicts = [r[2] for r in lm.rows]
    assert verdicts == _strobe_psi_lock(basis, [1.0, 0.0], eps, grid, 6000.0)
    assert verdicts[0] is False and verdicts[-1] is False
    assert any(verdicts)


def test_lock_scan_one_point_is_simulate_phase(sl_basis):
    # a one-point scan gives simulate_phase's map verdict and shift; each
    # dw is a difference (omega + d) - omega, so that simulate_phase's
    # detuning omega_inj - omega is dw to the bit
    for eps, d in ((0.01, 0.002), (0.01, 0.008)):
        dw = (sl_basis.omega + d) - sl_basis.omega
        lm = pp.injection_lock_scan(sl_basis, [1.0, 0.0], [eps], [dw])
        pert = Perturbation.sinusoidal([1.0, 0.0], sl_basis.omega + dw, eps)
        path = pp.simulate_phase(sl_basis, pert, 50.0)
        assert lm.rows == ((eps, dw, path.locked, path.mean_freq_shift),)


def test_lock_scan_rejects_nonpositive_injection(sl_basis):
    # omega + dw <= 0 leaves T_inj undefined; the error names the detuning
    with pytest.raises(ArgumentError, match="-1.5"):
        pp.injection_lock_scan(sl_basis, [1.0, 0.0], [0.01], [0.0, -1.5])


@pytest.mark.parametrize("dw", [np.inf, -np.inf, np.nan])
def test_lock_scan_rejects_non_finite_detuning(sl_basis, dw):
    # unchecked, an infinite detuning divides by zero into a row of shift
    # -inf, and a NaN one is reported as an injection frequency <= 0
    with np.errstate(all="raise"):
        with pytest.raises(ArgumentError, match="detuning must be finite"):
            pp.injection_lock_scan(sl_basis, [1.0, 0.0], [0.01], [0.0, dw])


def _adler_edges(basis, eps, hw, tol=1e-9):
    """Tongue edges (lower, upper) by multisection on the map's sign test,
    each bracketed in [0.5, 1.5] x the Adler half-width ``hw``."""
    edges = []
    for sign in (-1.0, 1.0):
        inside, outside = 0.5 * hw, 1.5 * hw
        while outside - inside > tol:
            grid = np.linspace(inside, outside, 17)
            lm = pp.injection_lock_scan(basis, [1.0, 0.0], [eps], sign * grid)
            locked = np.array([r[2] for r in lm.rows])
            i = int(np.argmin(locked))  # first unlocked point
            assert i > 0 and not locked[i:].any()
            inside, outside = grid[i - 1], grid[i]
        edges.append(sign * 0.5 * (inside + outside))
    return edges


def test_lock_map_adler_second_order(vdp_basis):
    # Adler's half-width eps omega |V1 . amp| is the O(eps) term: the
    # map's edges and unlocked shifts approach it with an O(eps^2) error
    amp = np.array([1.0, 0.0])
    hw1 = vdp_basis.omega * abs(pp.ppv_fourier(vdp_basis, 16).coefficient(1)
                                @ amp)
    edge_err, shift_err = [], []
    for eps in (0.01, 0.005):
        hw = eps * hw1
        lo, hi = _adler_edges(vdp_basis, eps, hw)
        assert lo < 0.0 < hi
        edge_err.append(max(abs(hi - hw), abs(lo + hw)))
        if eps == 0.01:
            # the O(eps^2) asymmetry of the tongue shows
            assert abs(hi + lo) > 1e-6
            assert hi == pytest.approx(0.006011, abs=2e-6)
            assert lo == pytest.approx(-0.006029, abs=2e-6)
        dws = np.array([-2.5, 2.5]) * hw
        lm = pp.injection_lock_scan(vdp_basis, amp, [eps], dws)
        adler = dws - np.sign(dws) * np.sqrt(dws ** 2 - hw ** 2)
        assert not any(r[2] for r in lm.rows)
        shift_err.append(np.max(np.abs([r[3] for r in lm.rows] - adler)))
    assert edge_err[1] * 3.0 <= edge_err[0]
    assert shift_err[1] * 3.0 <= shift_err[0]


def _birkhoff_mean_numpy(c, h, T):
    """The weighted Birkhoff loop vectorized over the maps, on NumPy
    arrays: the reference for both of phase's loops, per map on Python
    floats and over all maps on arrays."""
    cols = np.arange(c.shape[2])
    theta = np.zeros(c.shape[2])
    mean = np.zeros(c.shape[2])
    for w in np.asarray(phase._BIRKHOFF_WEIGHTS):
        i = np.minimum((theta // h).astype(int), c.shape[1] - 1)
        x = theta - i * h
        ci = c[:, i, cols]
        d = ((ci[0] * x + ci[1]) * x + ci[2]) * x + ci[3]
        mean += w * d
        theta = np.mod(theta + d, T)
    return mean


def test_birkhoff_mean_matches_numpy_loop():
    # random unlocked one-period maps D (no zero crossing), built into
    # the periodic spline as _lock_row builds them, 1 to 4 maps at once,
    # then rows on both sides of the per-map width limit
    rng = np.random.default_rng(17)
    M = phase._MAP_PHASES
    wide = phase._BIRKHOFF_PER_MAP_MAX
    for k in rng.integers(1, 5, 30).tolist() + [wide, wide + 1]:
        T = rng.uniform(1.0, 10.0)
        h = T / M
        theta = np.arange(M + 1) * h
        offset = rng.choice([-1.0, 1.0], k) * rng.uniform(0.05, 0.5, k) * T
        amp = rng.uniform(0.0, 0.9, k) * np.abs(offset)
        D = offset + amp * np.sin(2.0 * np.pi * theta[:, None] / T
                                  + rng.uniform(0.0, 2.0 * np.pi, k))
        D[-1] = D[0]
        c = PeriodicSpline.interpolate(theta, D).c
        want = _birkhoff_mean_numpy(c, h, T)
        got = phase._birkhoff_mean(c, h, T)
        np.testing.assert_array_equal(got.view(np.int64),
                                      want.view(np.int64))


def test_full_system_agrees_with_lock_map(vdp_model, vdp_basis, vdp_cycle):
    # ground truth: the forced oscillator x' = f(x) + eps amp cos(w t)
    # itself, integrated through models and ode only; its stroboscopic
    # samples x(k T_inj) settle iff the map says locked
    eps, amp = 0.05, np.array([1.0, 0.0])
    hw = eps * vdp_basis.omega * abs(
        pp.ppv_fourier(vdp_basis, 16).coefficient(1) @ amp)
    dws = np.array([0.7, 1.3]) * hw
    lm = pp.injection_lock_scan(vdp_basis, amp, [eps], dws)
    assert [r[2] for r in lm.rows] == [True, False]
    omega_inj = vdp_basis.omega + dws

    def rhs(t, x):
        x = np.reshape(x, (2, -1))
        return (vdp_model.rhs(t, x)
                + eps * amp[:, None] * np.cos(omega_inj * t)).ravel()

    x0 = np.repeat(np.asarray(vdp_cycle.anchor, dtype=float)[:, None], 2,
                   axis=1)
    horizon = 1000.0
    traj = ode.integrate(rhs, x0.ravel(), 0.0, horizon, rtol=1e-8)
    spreads = []
    for j, w in enumerate(omega_inj):
        t_inj = 2.0 * np.pi / w
        k = np.arange(int(horizon / t_inj) - 40, int(horizon / t_inj) + 1)
        x = traj(k * t_inj).reshape(2, 2, -1)[:, j]
        spreads.append(np.max(np.ptp(x, axis=1)))
    assert spreads[0] < 1e-5
    assert spreads[1] > 0.05


def test_lock_scan_empty_grid_rejected(sl_basis):
    with pytest.raises(ArgumentError):
        pp.injection_lock_scan(sl_basis, [1.0, 0.0], [], [0.0])


@pytest.mark.parametrize("amp", [[1.0, 0.0, 2.0], [1.0], [np.nan, 0.0],
                                 [np.inf, 0.0], [[1.0, 0.0]]],
                         ids=["three", "one", "nan", "inf", "nested"])
def test_lock_scan_rejects_non_planar_amp(monkeypatch, sl_basis, amp):
    # unchecked, a 3-vector scanned as if planar, a 1-vector raised
    # IndexError and a non-finite one failed inside the integrator
    def no_integration(*args, **kwargs):
        raise AssertionError("integrated before checking the arguments")

    monkeypatch.setattr(ode, "integrate", no_integration)
    with pytest.raises(ArgumentError, match="amp"):
        pp.injection_lock_scan(sl_basis, amp, [0.01], [0.0])


@pytest.mark.parametrize("eps", [-0.01, np.inf, np.nan])
def test_lock_scan_rejects_bad_eps(sl_basis, eps):
    # unchecked, a negative eps gives a "locked" row and an infinite one
    # fails inside the integrator
    with pytest.raises(ArgumentError):
        pp.injection_lock_scan(sl_basis, [1.0, 0.0], [0.01, eps], [0.0])


def test_fourier_rejects_fractional_K_and_absent_k(sl_basis):
    # unchecked, both would fail on indexing with IndexError
    with pytest.raises(ArgumentError):
        pp.ppv_fourier(sl_basis, 2.5)
    spec = pp.ppv_fourier(sl_basis, 2)
    for k in (3, -3, 1.5):
        with pytest.raises(ArgumentError):
            spec.coefficient(k)
    np.testing.assert_array_equal(spec.coefficient(-2),
                                  [spec.Vx[0], spec.Vy[0]])


def test_fourier_bad_K(sl_basis):
    with pytest.raises(ArgumentError):
        pp.ppv_fourier(sl_basis, 0)
    with pytest.raises(ArgumentError):
        pp.ppv_fourier(sl_basis, sl_basis.n // 2)


def test_bad_perturbation_arguments():
    with pytest.raises(ArgumentError):
        Perturbation.sinusoidal([1.0, 0.0], 1.0, eps=-0.1)


@pytest.mark.parametrize("eps", [np.nan, np.inf])
def test_perturbation_rejects_non_finite_eps(sl_model, eps):
    # unchecked, a NaN eps (which eps < 0 lets through) only fails later,
    # in the integrator, as a non-finite right-hand side
    with pytest.raises(ArgumentError):
        Perturbation.sinusoidal([1.0, 0.0], 1.0, eps)
    with pytest.raises(ArgumentError):
        Perturbation.along_flow(sl_model, eps)


def test_spectrum_csv(tmp_path, sl_basis):
    spec = pp.ppv_fourier(sl_basis, 2)
    path = tmp_path / "spectrum.csv"
    spectrum_to_csv(spec, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,Re_Vkx,Im_Vkx,Re_Vky,Im_Vky"
    assert len(lines) == 6  # k = -2..2
    ks = [int(ln.split(",")[0]) for ln in lines[1:]]
    assert ks == [-2, -1, 0, 1, 2]
