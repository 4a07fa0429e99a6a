import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

import planar_ppv as pp
from planar_ppv import stochastic
from planar_ppv.errors import (ArgumentError, InstabilityError,
                               InternalInconsistencyError)
from planar_ppv.spline import PeriodicSpline
from planar_ppv.stochastic import NoiseModel, density_to_csv, ensemble_to_csv


def test_effective_noise_isotropic_stuart_landau(sl_basis):
    # v1(0) = (0, 1), G = sigma I  =>  v(0) = (0, sigma)
    v = sl_basis.projection(NoiseModel.isotropic(0.05).G).values(0.0)
    assert v.shape == (2,)
    np.testing.assert_allclose(v, [0.0, 0.05], atol=1e-8)


def test_effective_noise_directional(sl_basis):
    # single channel along x: v(t) = sigma * v1_x(t) = -sigma sin(t)
    noise = NoiseModel.directional(0.1, [1.0, 0.0])
    ts = np.array([0.0, np.pi / 2, np.pi])
    v = sl_basis.projection(noise.G).values(ts)
    assert v.shape == (1, 3)
    np.testing.assert_allclose(v[0], [0.0, -0.1, 0.0], atol=1e-8)


def test_effective_noise_norm_constant_stuart_landau(sl_basis):
    # |v1| = 1 on the SL cycle, so |v|^2 = sigma^2 at every t
    noise = NoiseModel.isotropic(0.05)
    v = sl_basis.projection(noise.G).values(sl_basis.ts[::64])
    np.testing.assert_allclose(np.sum(v ** 2, axis=0), 0.05 ** 2, atol=1e-10)


def test_diffusion_summary_stuart_landau(sl_basis):
    assert pp.diffusion_summary(sl_basis, NoiseModel.isotropic(0.05)) \
        == pytest.approx(0.05 ** 2, abs=1e-8)
    # one channel contributes only mean(sin^2) = 1/2 of the mass
    assert pp.diffusion_summary(
        sl_basis, NoiseModel.directional(0.05, [1.0, 0.0])) \
        == pytest.approx(0.5 * 0.05 ** 2, abs=1e-8)


def test_zero_noise_paths_stay_put(sl_basis):
    ens = pp.simulate_sde_ensemble(sl_basis, NoiseModel.isotropic(0.0),
                                   n_paths=8, t_end=10.0, dt=0.01, seed=7)
    assert np.max(np.abs(ens.mean)) == 0.0
    assert np.max(ens.var) == 0.0


def test_same_seed_is_deterministic(sl_basis):
    noise = NoiseModel.isotropic(0.05)
    a = pp.simulate_sde_ensemble(sl_basis, noise, 16, 10.0, 0.01, seed=42)
    b = pp.simulate_sde_ensemble(sl_basis, noise, 16, 10.0, 0.01, seed=42)
    np.testing.assert_array_equal(a.mean, b.mean)
    np.testing.assert_array_equal(a.var, b.var)
    c = pp.simulate_sde_ensemble(sl_basis, noise, 16, 10.0, 0.01, seed=43)
    assert not np.array_equal(a.var, c.var)


def _noise(kind):
    """Isotropic, directional, or nine state-dependent channels."""
    if kind == "isotropic":
        return NoiseModel.isotropic(0.05)
    if kind == "directional":
        return NoiseModel.directional(0.05, [1.0, 0.5])
    w = np.arange(9.0)
    return NoiseModel(G=lambda x: 0.02 * np.vstack([np.cos(w + x[0]),
                                                    np.sin(w * x[1])]))


def _reference_paths(basis, noise, streams, t_end, dt, seed):
    """Stored times and psi of each path, drawing every path's whole Wiener
    sequence up front as one (len(streams), n_steps, m) array; v^T dW adds
    the channels in turn."""
    n_steps = int(round(t_end / dt))
    spline = basis.projection(noise.G)
    m = spline.c.shape[2]
    T = basis.cycle.T
    sq = np.sqrt(dt)
    dW = np.empty((len(streams), n_steps, m))
    for k, i in enumerate(streams):
        rng = np.random.default_rng([int(seed), i])
        dW[k] = sq * rng.standard_normal((n_steps, m))
    stride = max(1, n_steps // (stochastic._N_STORE - 1))
    stored = set(range(0, n_steps + 1, stride)) | {n_steps}
    psi = np.zeros(len(streams))
    ts, hist = [0.0], [psi]
    for j in range(n_steps):
        v = spline.values(np.mod(j * dt + psi, T))
        step = v[0] * dW[:, j, 0]
        for k in range(1, m):
            step = step + v[k] * dW[:, j, k]
        psi = psi + step
        if (j + 1) in stored:
            ts.append((j + 1) * dt)
            hist.append(psi)
    return np.array(ts), np.array(hist)


def _assert_stats_equal(ens, ts, hist):
    n = hist.shape[1]
    np.testing.assert_array_equal(ens.ts, ts)
    np.testing.assert_array_equal(ens.mean, [np.mean(r) for r in hist])
    np.testing.assert_array_equal(
        ens.var, [np.var(r, ddof=1) if n > 1 else 0.0 for r in hist])


_BASES_AND_NOISES = pytest.mark.parametrize("basis_name, kind", [
    ("sl_basis", "isotropic"), ("sl_basis", "directional"),
    ("vdp_basis", "isotropic"), ("vdp_basis", "directional"),
    ("sl_basis", "nine")],
    ids=["isotropic", "directional", "vdp-isotropic", "vdp-directional",
         "nine-channels"])


@_BASES_AND_NOISES
@pytest.mark.parametrize("steps", ["none", "below", "equal", "partial"])
def test_chunked_draws_match_full_draw(request, basis_name, kind, steps):
    # the chunked increments continue each path's stream, so the ensemble
    # is bit-identical to one drawn whole and stepped on the spline itself
    basis = request.getfixturevalue(basis_name)
    chunk = stochastic._CHUNK
    n_steps = {"none": 0, "below": chunk // 2 + 1, "equal": chunk,
               "partial": 2 * chunk + 37}[steps]
    noise = _noise(kind)
    dt = 0.01
    t_end = (n_steps or 0.4) * dt  # 0.4 of a step rounds to no step
    ens = pp.simulate_sde_ensemble(basis, noise, 33, t_end, dt, seed=9)
    ts, hist = _reference_paths(basis, noise, range(33), t_end, dt, 9)
    assert ts[-1] == n_steps * dt
    _assert_stats_equal(ens, ts, hist)


@pytest.mark.parametrize("block", [1, 8, 32, 33, 64])
def test_path_blocks_match_full_draw(monkeypatch, sl_basis, block):
    # drawing and laying out the paths block by block, a last partial
    # block included, leaves every path's stream and the ensemble as one
    # whole draw gives them
    monkeypatch.setattr(stochastic, "_PATH_BLOCK", block)
    noise = NoiseModel.isotropic(0.05)
    n_steps = stochastic._CHUNK + 37
    ens = pp.simulate_sde_ensemble(sl_basis, noise, 33, n_steps * 0.01, 0.01,
                                   seed=9)
    ts, hist = _reference_paths(sl_basis, noise, range(33), n_steps * 0.01,
                                0.01, 9)
    _assert_stats_equal(ens, ts, hist)


_NEEDS_FORK = pytest.mark.skipif(not hasattr(os, "fork"),
                                 reason="the draws run in-process only")


@_NEEDS_FORK
@pytest.mark.parametrize("kind", ["isotropic", "nine"])
@pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "forked"])
def test_forked_and_in_process_draws_match(monkeypatch, forked_pids,
                                           sl_basis, kind, cpus):
    # with two usable CPUs a forked child draws the increments into the
    # shared slots, with one they are drawn in-process before each chunk;
    # both give the reference statistics to the bit, over two path blocks
    # (the second partial) and two chunks plus a partial one
    monkeypatch.setattr(stochastic, "_usable_cpus", lambda: cpus)
    noise = _noise(kind)
    n_paths = stochastic._PATH_BLOCK + 44
    t_end = (2 * stochastic._CHUNK + 37) * 0.01
    ens = pp.simulate_sde_ensemble(sl_basis, noise, n_paths, t_end, 0.01,
                                   seed=9)
    assert len(forked_pids) == cpus - 1
    ts, hist = _reference_paths(sl_basis, noise, range(n_paths), t_end, 0.01,
                                9)
    _assert_stats_equal(ens, ts, hist)


@_NEEDS_FORK
@pytest.mark.parametrize("dies_at", [0, 2, 4])
def test_draw_process_death_raises(monkeypatch, sl_basis, dies_at):
    # a child that ends before its first, a middle or the last of five
    # chunks is an error, not a short ensemble, and the parent reaps it
    # before raising
    parent = os.getpid()
    draw = stochastic._draw_chunk
    draws = []

    def dying_draw(*args):
        assert os.getpid() != parent
        if len(draws) == dies_at:
            os._exit(3)
        draws.append(None)
        draw(*args)

    monkeypatch.setattr(stochastic, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(stochastic, "_draw_chunk", dying_draw)
    with pytest.raises(InternalInconsistencyError):
        pp.simulate_sde_ensemble(sl_basis, NoiseModel.isotropic(0.05), 64,
                                 5 * stochastic._CHUNK * 0.01, 0.01, seed=1)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


_KILLED_ENSEMBLE = """
import os
import planar_ppv as pp
from planar_ppv import stochastic
fork = os.fork
def announcing_fork():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid
os.fork = announcing_fork
stochastic._usable_cpus = lambda: 2
cycle = pp.find_cycle(pp.get_model("stuart_landau"), (1.0, 0.0), 0.0)
pp.simulate_sde_ensemble(pp.DilibertoBasis(cycle),
                         stochastic.NoiseModel.isotropic(0.05), 64, 1e4, 0.01,
                         seed=1)
"""


def _running(pid):
    """Whether pid is a live process (not gone, not a zombie)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rpartition(")")[2].split()[0]
    except FileNotFoundError:
        return False
    return state not in ("Z", "X")


@_NEEDS_FORK
@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_draw_process_ends_when_parent_is_killed():
    # a killed run leaves no drawing process behind: the child sees EOF or
    # EPIPE on its pipes within a chunk and exits
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen([sys.executable, "-c", _KILLED_ENSEMBLE],
                            env=env, stdout=subprocess.PIPE, text=True)
    try:
        child = int(proc.stdout.readline())
        assert _running(child)
        time.sleep(0.5)
    finally:
        proc.kill()
        proc.wait(timeout=30)
        proc.stdout.close()
    deadline = time.monotonic() + 20
    while _running(child) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _running(child)


def _adversarial_phases(T, knots):
    """Knots and their neighbours, negative phases, phases next to k*T on
    both sides (some of which np.mod rounds up to T) and phases up to
    1e3*T."""
    k = np.arange(-1000.0, 1001.0)
    near = np.concatenate([knots, k * T, [1e-300, 5e-324, 1e-17]])
    theta = np.concatenate([near, np.nextafter(near, np.inf),
                            np.nextafter(near, -np.inf)])
    theta = np.concatenate([theta, -theta,
                            np.random.default_rng(4).uniform(-1e3, 1e3, 4096)
                            * T])
    assert np.any(np.mod(theta, T) == T)
    return theta


@pytest.mark.parametrize("kind", ["isotropic", "directional"])
@pytest.mark.parametrize("basis_name", ["sl_basis", "vdp_basis"])
def test_spline_dot_matches_cubic_spline(request, basis_name, kind):
    # the projection's kernel gives CubicSpline.__call__'s values to the bit
    # (signed zeros included) and the ensemble's v^T dW is the reference sum
    basis = request.getfixturevalue(basis_name)
    spline = basis.projection(_noise(kind).G)
    nodes = spline.c[3]  # the node values v(x_i)
    reference = CubicSpline(spline.x, np.concatenate([nodes, nodes[:1]]),
                            axis=0, bc_type="periodic")
    np.testing.assert_array_equal(spline.c.view(np.int64),
                                  reference.c.view(np.int64))
    theta = _adversarial_phases(basis.cycle.T, spline.x)
    want = reference(theta)
    got = np.moveaxis(spline.values(theta), 0, -1)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    dW = np.random.default_rng(5).standard_normal((spline.c.shape[2],
                                                   theta.size))
    np.testing.assert_array_equal(
        stochastic._channel_dot(spline.values(theta), dW),
        np.sum(want * dW.T, axis=1))


def test_spline_dot_knots():
    # any uniform periodic spline from 0 is taken, down to the sign of a
    # zero (scipy's power sum starts from +0.0); other knots raise
    x = np.linspace(0.0, 2 * np.pi, 65)
    y = np.stack([np.cos(x), np.zeros_like(x)], axis=1)
    y[-1] = y[0]
    reference = CubicSpline(x, y, axis=0, bc_type="periodic")
    reference.c[:, :, 1] = -0.0
    spline = PeriodicSpline(x, reference.c)
    theta = _adversarial_phases(2 * np.pi, x)
    got = np.stack(spline.values(theta), axis=1)
    np.testing.assert_array_equal(got.view(np.int64),
                                  reference(theta).view(np.int64))
    bent = x.copy()
    bent[10] += 0.3 * (x[1] - x[0])
    for knots in (bent, x + 1.0):
        with pytest.raises(InternalInconsistencyError):
            PeriodicSpline.interpolate(knots, y)


def test_sde_memory_independent_of_steps(sl_basis):
    # the Wiener increments are drawn in fixed-length chunks, so ten times
    # the steps must not raise the peak (a full draw adds 9 MB here)
    noise = NoiseModel.isotropic(0.05)
    peaks = []
    for n_steps in (1000, 10000):
        tracemalloc.start()
        try:
            pp.simulate_sde_ensemble(sl_basis, noise, 64, n_steps * 0.01,
                                     0.01, seed=2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + 100_000


def test_substreams_stable_under_ensemble_growth(sl_basis):
    # path i is drawn from substream (seed, i) alone, so the 4-path
    # statistics equal those of substreams 0-3 each run as its own path,
    # and adding paths never changes the paths already drawn
    noise = NoiseModel.isotropic(0.05)
    big = pp.simulate_sde_ensemble(sl_basis, noise, 4, 5.0, 0.01, seed=3)
    runs = [_reference_paths(sl_basis, noise, [i], 5.0, 0.01, 3)
            for i in range(4)]
    ts = runs[0][0]
    hist = np.hstack([h for _, h in runs])
    assert len(set(hist[-1])) == 4
    _assert_stats_equal(big, ts, hist)
    small = pp.simulate_sde_ensemble(sl_basis, noise, 1, 5.0, 0.01, seed=3)
    _assert_stats_equal(small, ts, hist[:, :1])


def test_sde_variance_grows_linearly_stuart_landau(sl_basis):
    # Var psi(t) ~ sigma^2 t for SL isotropic noise (|v|^2 is constant)
    sigma = 0.05
    ens = pp.simulate_sde_ensemble(sl_basis, NoiseModel.isotropic(sigma),
                                   n_paths=512, t_end=40.0, dt=0.02, seed=11)
    slope = np.polyfit(ens.ts, ens.var, 1)[0]
    assert slope == pytest.approx(sigma ** 2, rel=0.15)


def test_sde_argument_validation(sl_basis):
    noise = NoiseModel.isotropic(0.05)
    with pytest.raises(ArgumentError):
        pp.simulate_sde_ensemble(sl_basis, noise, 0, 1.0, 0.01, seed=1)
    for dt in (-0.01, 0.0):
        with pytest.raises(ArgumentError):
            pp.simulate_sde_ensemble(sl_basis, noise, 4, 1.0, dt, seed=1)
    for t_end in (0.0, -1.0):
        with pytest.raises(ArgumentError):
            pp.simulate_sde_ensemble(sl_basis, noise, 4, t_end, 0.01, seed=1)
    with pytest.raises(ArgumentError):
        # dt above T/100
        pp.simulate_sde_ensemble(sl_basis, noise, 4, 1.0, 1.0, seed=1)
    with pytest.raises(ArgumentError):
        NoiseModel.isotropic(-0.1)
    with pytest.raises(ArgumentError):
        NoiseModel.directional(-0.1, [1.0, 0.0])
    with pytest.raises(ArgumentError):
        NoiseModel.directional(0.1, [0.0, 0.0])


@pytest.mark.parametrize("sigma", [np.nan, np.inf])
def test_non_finite_noise_rejected(sigma):
    # a NaN or infinite sigma would make diffusion_summary NaN
    with pytest.raises(ArgumentError):
        NoiseModel.isotropic(sigma)
    with pytest.raises(ArgumentError):
        NoiseModel.directional(sigma, [1.0, 0.0])
    with pytest.raises(ArgumentError):
        NoiseModel.directional(0.1, [sigma, 1.0])


@pytest.mark.parametrize("n_paths, t_end, dt", [
    (4, np.inf, 0.01), (4, np.nan, 0.01), (4, 1.0, np.nan), (2.5, 1.0, 0.01)],
    ids=["t_end-inf", "t_end-nan", "dt-nan", "n_paths-fraction"])
def test_sde_rejects_non_finite_or_fractional_arguments(sl_basis, n_paths,
                                                        t_end, dt):
    # unchecked, NumPy or range() would raise OverflowError, ValueError or
    # TypeError further in
    with pytest.raises(ArgumentError):
        pp.simulate_sde_ensemble(sl_basis, NoiseModel.isotropic(0.05),
                                 n_paths, t_end, dt, seed=1)


def test_fp_rejects_non_finite_times(sl_basis):
    noise = NoiseModel.isotropic(0.05)
    grid = np.linspace(-1, 1, 101)
    for t_end, dt in [(np.inf, 1e-3), (np.nan, 1e-3), (1.0, np.nan)]:
        with pytest.raises(ArgumentError):
            pp.solve_fp(sl_basis, noise, grid, t_end, dt)
    # an infinite dt stays valid: dt only bounds the step from above, and
    # the stability cap (here 0.064) sets it, as for any dt above the cap
    dens = pp.solve_fp(sl_basis, noise, grid, 0.2, np.inf, n_store=2)
    capped = pp.solve_fp(sl_basis, noise, grid, 0.2, 1.0, n_store=2)
    assert dens.n_steps == capped.n_steps == 4
    np.testing.assert_array_equal(dens.p, capped.p)
    # zero noise sets no cap, so t_end / dt is 0 steps (dividing t_end by
    # it raised ZeroDivisionError); one step leaves the density as it
    # started, its tails underflowing to 0 on this grid
    fine = np.linspace(-1, 1, 401)
    still = pp.solve_fp(sl_basis, NoiseModel.isotropic(0.0), fine, 0.2, np.inf)
    assert still.n_steps == 1
    assert still.p[0, 0] == still.p[0, -1] == 0.0
    np.testing.assert_array_equal(still.p[-1], still.p[0])


def _reference_fp(basis, noise, psi, t_end, dt, n_store):
    """solve_fp's density snapshots, evaluating the spline step by step
    and adding the channels in index order from +0.0."""
    dpsi = float(psi[1] - psi[0])
    spline = basis.projection(noise.G)
    vsq_max = float(np.max(sum(v * v for v in spline.values(basis.ts))))
    dt = min(dt, 0.4 * dpsi ** 2 / vsq_max)
    w = 4.0 * dpsi
    p = np.exp(-0.5 * (psi / w) ** 2)
    p /= np.sum(p) * dpsi
    n_steps = int(np.ceil(t_end / dt))
    dt = t_end / n_steps
    stored = stochastic._stored_steps(n_steps, n_store)
    half = psi[:-1] + 0.5 * dpsi
    ts_out, p_out = [0.0], [p.copy()]
    for j in range(n_steps):
        v, dv = spline.values(j * dt + half, derivative=True)
        drift = sum(vk * dvk for vk, dvk in zip(v, dv))
        diff = 0.5 * sum(vk * vk for vk in v)
        p_half = 0.5 * (p[:-1] + p[1:])
        J = -(drift * p_half + diff * (p[1:] - p[:-1]) / dpsi)
        p[1:-1] += dt * (J[:-1] - J[1:]) / dpsi
        p[0] = 0.0
        p[-1] = 0.0
        if (j + 1) in stored:
            ts_out.append((j + 1) * dt)
            p_out.append(p.copy())
    return n_steps, np.array(ts_out), np.array(p_out)


@_BASES_AND_NOISES
def test_fp_blocks_match_per_step_reference(request, basis_name, kind):
    # the spline terms come a block of steps at a time, channel-major, and
    # the density equals the per-step loop's to the bit; the last block is
    # partial, and the later blocks' phases are all >= 0, which takes the
    # kernel's wide reduction instead of np.mod
    basis = request.getfixturevalue(basis_name)
    noise = _noise(kind)
    psi = np.linspace(-0.5, 0.5, 41)
    t_end, dt = 3.0, 0.01
    n_steps, ts, p = _reference_fp(basis, noise, psi, t_end, dt, 40)
    assert n_steps > 2 * stochastic._CHUNK
    assert n_steps % stochastic._CHUNK
    dens = pp.solve_fp(basis, noise, psi, t_end, dt, n_store=40)
    assert dens.n_steps == n_steps
    np.testing.assert_array_equal(dens.ts, ts)
    np.testing.assert_array_equal(dens.p.view(np.int64), p.view(np.int64))


@pytest.mark.parametrize("m", range(1, 10))
def test_fp_coefficients_sum_channels_as_np_sum(m):
    # the channel sums add the channels in index order from +0.0 for any
    # m, which below 8 channels is np.sum's order (wider axes np.sum adds
    # pairwise), down to a zero's sign: two channels whose products are
    # -0.0 (a constant negative value times its zero slope) sum to +0.0
    x = np.linspace(0.0, 3.0, 33)
    rng = np.random.default_rng(m)
    y = rng.normal(size=(33, m))
    y[:, :2] = [-1.0, -2.0][:min(m, 2)]
    y[-1] = y[0]
    spline = PeriodicSpline.interpolate(x, y)
    theta = rng.uniform(-3.0, 6.0, (5, 300))
    drift, diff = stochastic._fp_coefficients(spline, theta)
    v, dv = spline.values(theta, derivative=True)
    # sum() starts from 0, which adds as +0.0
    np.testing.assert_array_equal(
        drift.view(np.int64),
        sum(vk * dvk for vk, dvk in zip(v, dv)).view(np.int64))
    np.testing.assert_array_equal(
        diff.view(np.int64), (0.5 * sum(vk * vk for vk in v)).view(np.int64))
    if m < 8:  # the trailing-channel layout, as SciPy's CubicSpline has it
        vt, dvt = (np.ascontiguousarray(np.moveaxis(a, 0, -1))
                   for a in (v, dv))
        np.testing.assert_array_equal(drift.view(np.int64),
                                      np.sum(vt * dvt, axis=-1)
                                      .view(np.int64))
        np.testing.assert_array_equal(diff.view(np.int64),
                                      (0.5 * np.sum(vt * vt, axis=-1))
                                      .view(np.int64))
    if m > 1:
        assert np.signbit(v[0] * dv[0]).all()
        assert not np.signbit(drift[np.abs(drift) == 0]).any()


def test_nine_channel_sums_agree(sl_basis):
    # diffusion_summary, the Fokker-Planck diffusion and the SDE step's
    # v^T dW with dW = v add the nine channels of v^T v in index order,
    # where np.sum would add them pairwise
    noise = _noise("nine")
    spline = sl_basis.projection(noise.G)
    v = spline.values(sl_basis.ts)
    vsq = sum(vk * vk for vk in v)
    trailing = np.ascontiguousarray(np.moveaxis(v * v, 0, -1))
    assert not np.array_equal(vsq, np.sum(trailing, axis=-1))
    assert pp.diffusion_summary(sl_basis, noise) == float(np.mean(vsq))
    _, diff = stochastic._fp_coefficients(spline, sl_basis.ts)
    np.testing.assert_array_equal(diff, 0.5 * vsq)
    np.testing.assert_array_equal(
        stochastic._channel_dot(spline.values(sl_basis.ts), v), vsq)


def test_fp_memory_independent_of_steps(sl_basis):
    # the spline terms are evaluated a fixed number of steps at a time,
    # so ten times the steps must not raise the peak
    noise = NoiseModel.isotropic(0.05)
    psi = np.linspace(-1.0, 1.0, 201)
    peaks = []
    for t_end in (10.0, 100.0):
        tracemalloc.start()
        try:
            pp.solve_fp(sl_basis, noise, psi, t_end, 0.01)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + 100_000


def test_fp_conserves_mass(sl_basis):
    noise = NoiseModel.isotropic(0.05)
    psi = np.linspace(-1.5, 1.5, 301)
    dens = pp.solve_fp(sl_basis, noise, psi, t_end=20.0, dt=0.005)
    np.testing.assert_allclose(dens.mass(), 1.0, atol=1e-6)
    assert np.min(dens.p) >= -1e-12


def test_fp_variance_slope_stuart_landau(sl_basis):
    sigma = 0.05
    psi = np.linspace(-1.5, 1.5, 301)
    dens = pp.solve_fp(sl_basis, NoiseModel.isotropic(sigma), psi,
                       t_end=20.0, dt=0.005)
    slope = np.polyfit(dens.ts, dens.variance(), 1)[0]
    assert slope == pytest.approx(sigma ** 2, rel=0.05)


def test_fp_rejects_bad_grids(sl_basis):
    noise = NoiseModel.isotropic(0.05)
    with pytest.raises(ArgumentError):
        pp.solve_fp(sl_basis, noise, np.array([0.0, 0.1, 0.3]), 1.0, 1e-4)
    grid = np.linspace(-1, 1, 101)
    with pytest.raises(ArgumentError):
        pp.solve_fp(sl_basis, noise, grid, 0.0, 1e-4)
    for dt in (0.0, -0.01):
        with pytest.raises(ArgumentError):
            pp.solve_fp(sl_basis, noise, grid, 1.0, dt)
    for n_store in (0, 1, 2.5, np.nan):
        with pytest.raises(ArgumentError):
            pp.solve_fp(sl_basis, noise, grid, 1.0, 1e-3, n_store=n_store)


def test_fp_negative_density_caught_between_snapshots(vdp_basis):
    # a coarse grid under a narrow start dips below zero early; storing
    # only t = 0 and t_end must not hide it, and the first bad step is
    # reported whatever the snapshot spacing
    noise = NoiseModel.directional(0.05, [1.0, 0.0])
    psi = np.linspace(-3.0, 3.0, 8)
    width = 0.3 * (psi[1] - psi[0])
    messages = []
    for n_store in (2, 1000):
        with pytest.raises(InstabilityError, match="negative density") as exc:
            pp.solve_fp(vdp_basis, noise, psi, 6.0, 0.01, init_width=width,
                        n_store=n_store)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


def test_fp_caps_oversized_dt(sl_basis):
    # dt far above the stability limit 0.4 dpsi^2 / max v^T v is cut to the
    # largest step t_end / n below it; a dt below the limit caps it instead
    noise = NoiseModel.isotropic(0.05)
    psi = np.linspace(-1, 1, 401)
    dpsi = psi[1] - psi[0]
    proj = sl_basis.projection(noise.G)
    limit = 0.4 * dpsi ** 2 / np.max(np.sum(proj.values(sl_basis.ts) ** 2,
                                            axis=0))
    dens = pp.solve_fp(sl_basis, noise, psi, t_end=1.0, dt=0.1, n_store=1000)
    n = dens.n_steps
    assert 1.0 / n <= limit < 1.0 / (n - 1)
    assert dens.ts[1] == 1.0 / n
    np.testing.assert_allclose(np.diff(dens.ts), 1.0 / n, rtol=1e-12)
    assert dens.ts[-1] == pytest.approx(1.0, abs=1e-14)
    assert np.min(dens.p) >= -1e-12
    np.testing.assert_allclose(dens.mass(), 1.0, atol=1e-6)
    kept = pp.solve_fp(sl_basis, noise, psi, t_end=1.0, dt=0.5 * limit,
                       n_store=1000)
    assert 1.0 / kept.n_steps <= 0.5 * limit < 1.0 / (kept.n_steps - 1)
    assert kept.ts[1] == 1.0 / kept.n_steps
    exact = pp.solve_fp(sl_basis, noise, psi, t_end=1.0, dt=0.002, n_store=3)
    assert 0.002 < limit
    assert exact.n_steps == 500
    assert exact.ts[-1] == 1.0


@pytest.mark.parametrize("which", ["sl-iso", "sl-dir", "vdp-iso", "vdp-dir"])
def test_fp_matches_monte_carlo(which, sl_basis, vdp_basis):
    # dual route: FP variance vs Monte-Carlo variance after ten periods
    basis = sl_basis if which.startswith("sl") else vdp_basis
    sigma = 0.05
    if which.endswith("iso"):
        noise = NoiseModel.isotropic(sigma)
    else:
        noise = NoiseModel.directional(sigma, [1.0, 0.0])
    t_end = 10.0 * basis.cycle.T
    ens = pp.simulate_sde_ensemble(basis, noise, 2048, t_end, 0.02, seed=5)
    D = pp.diffusion_summary(basis, noise)
    width = 8.0 * np.sqrt(D * t_end)
    psi = np.linspace(-width, width, 401)
    dpsi = psi[1] - psi[0]
    dt = 0.3 * 0.4 * dpsi ** 2 / max(D * 4, 1e-12)
    dens = pp.solve_fp(basis, noise, psi, t_end, dt)
    v_mc = ens.var[-1]
    v_fp = dens.variance()[-1]
    assert v_fp == pytest.approx(v_mc, rel=0.05)


def test_vdp_monte_carlo_vs_summary(vdp_basis):
    # period-averaged diffusion rate predicts the MC variance slope
    noise = NoiseModel.isotropic(0.05)
    t_end = 10.0 * vdp_basis.cycle.T
    ens = pp.simulate_sde_ensemble(vdp_basis, noise, 2048, t_end, 0.02,
                                   seed=17)
    slope = np.polyfit(ens.ts, ens.var, 1)[0]
    assert slope == pytest.approx(pp.diffusion_summary(vdp_basis, noise),
                                  rel=0.10)


def test_ensemble_csv(tmp_path, sl_basis):
    ens = pp.simulate_sde_ensemble(sl_basis, NoiseModel.isotropic(0.05),
                                   8, 5.0, 0.01, seed=1)
    path = tmp_path / "ensemble.csv"
    ensemble_to_csv(ens, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,mean_psi,var_psi,n_paths,seed"
    assert len(lines) == len(ens.ts) + 1
    assert lines[1].endswith(",8,1")


def test_density_csv(tmp_path, sl_basis):
    psi = np.linspace(-1, 1, 101)
    dens = pp.solve_fp(sl_basis, NoiseModel.isotropic(0.05), psi,
                       t_end=1.0, dt=0.005, n_store=3)
    path = tmp_path / "density.csv"
    density_to_csv(dens, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,psi,p"
    assert len(lines) == 1 + len(dens.ts) * len(psi)
