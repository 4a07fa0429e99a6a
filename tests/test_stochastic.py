import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline, CubicSpline

import planar_ppv as pp
from planar_ppv import stochastic
from planar_ppv.errors import (ArgumentError, InstabilityError,
                               InternalInconsistencyError)
from planar_ppv.spline import PeriodicSpline, _HornerKernel
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


@pytest.fixture(scope="module")
def bruss_basis():
    model = pp.get_model("brusselator")
    return pp.DilibertoBasis(pp.find_cycle(model, (1.5, 3.0)))


def _stream_draws(streams, seed, shape, dt):
    """The increments of the paths ``streams``, (len(streams),) + shape.
    Path p is column p % B of block p // B, B = stochastic._PATH_BLOCK,
    and each block draws its whole shape + (B,) array from
    ``default_rng([seed, block])`` up front."""
    B = stochastic._PATH_BLOCK
    streams = np.asarray(streams, dtype=int)
    blocks = np.unique(streams // B)
    draws = np.stack([np.sqrt(dt) * np.random.default_rng([int(seed), int(b)])
                      .standard_normal(shape + (B,)) for b in blocks])
    # the two indices, split by the ellipsis, give the path axis first
    return draws[np.searchsorted(blocks, streams // B), ..., streams % B]


def _record_paths(n_steps, dt, n_paths, step):
    """Stored times and psi of n_paths paths from psi = 0, advanced by
    psi = step(j, psi) for each step j."""
    stride = max(1, n_steps // (stochastic._N_STORE - 1))
    stored = set(range(0, n_steps + 1, stride)) | {n_steps}
    psi = np.zeros(n_paths)
    ts, hist = [0.0], [psi]
    for j in range(n_steps):
        psi = step(j, psi)
        if (j + 1) in stored:
            ts.append((j + 1) * dt)
            hist.append(psi)
    return np.array(ts), np.array(hist)


def _reference_q(basis, noise):
    """SciPy's cubic Hermite interpolant of v^T v and its slope 2 v dv^T at
    stochastic._Q_REFINE knots per basis-grid interval, v the channel
    spline, the channels added in turn."""
    knots = np.linspace(0.0, basis.cycle.T,
                        stochastic._Q_REFINE * basis.ts.size + 1)
    v, dv = basis.projection(noise.G).values(knots, derivative=True)
    return CubicHermiteSpline(knots, sum(vk * vk for vk in v),
                              2.0 * sum(vk * dvk for vk, dvk in zip(v, dv)))


def _reference_v(spline):
    """SciPy's periodic CubicSpline through the node values of the
    channel spline ``spline``, channels last."""
    nodes = spline.c[3]  # the node values v(x_i)
    return CubicSpline(spline.x, np.concatenate([nodes, nodes[:1]]), axis=0,
                       bc_type="periodic")


def _reference_paths(basis, noise, streams, t_end, dt, seed):
    """Stored times and psi of the paths ``streams``, each drawing one
    scalar increment per step (see _stream_draws) and stepping by
    sqrt(max(q, 0)) dB.  q is _reference_q's interpolant, each piece
    written as a cubic in the fractional knot coordinate u, coefficients
    c[k] h^(3 - k) with h = T / n, and summed by Horner at
    u = (psi + (t mod T)) n / T less its floor, on the piece that floor
    mod n names."""
    n_steps = int(round(t_end / dt))
    c = _reference_q(basis, noise).c
    n = c.shape[1]
    T = basis.cycle.T
    h = T / n
    rows = [c[k] * h ** (3 - k) for k in range(4)]
    dB = _stream_draws(streams, seed, (n_steps,), dt)

    def step(j, psi):
        u = (psi + (j * dt) % T) * (n / T)
        f = np.floor(u)
        u -= f
        i = np.remainder(f.astype(np.intp), n)
        q = ((rows[0][i] * u + rows[1][i]) * u + rows[2][i]) * u + rows[3][i]
        return psi + np.sqrt(np.maximum(q, 0.0)) * dB[:, j]

    return _record_paths(n_steps, dt, len(dB), step)


def _channel_paths(basis, noise, streams, t_end, dt, seed):
    """The same for the Euler-Maruyama step of dpsi = v(t+psi)^T dW, one
    increment per channel (each block drawing (n_steps, m, B)), v the
    channel spline: the law the scalar step keeps."""
    n_steps = int(round(t_end / dt))
    spline = basis.projection(noise.G)
    T = basis.cycle.T
    dW = _stream_draws(streams, seed, (n_steps, spline.c.shape[2]), dt)

    def step(j, psi):
        v = spline.values(np.mod(j * dt + psi, T))
        return psi + sum(vk * dWk for vk, dWk in zip(v, dW[:, j].T))

    return _record_paths(n_steps, dt, len(dW), step)


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
    # the chunked increments continue each block's stream, so the ensemble
    # is bit-identical to one drawn whole, one increment per step, and
    # stepped by sqrt(max(q, 0)) dB on SciPy's interpolant of v^T v
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
    # the block size is part of the stream's definition: at any size, a
    # last part-filled block included, the ensemble is the one drawn whole
    # block by block at that size
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


def _slow_draws(monkeypatch, seconds):
    """Every chunk's draw, in a forked child too, sleeps first, so the
    parent finds the next chunk not yet ready."""
    draw = stochastic._draw_chunk

    def slow_draw(*args):
        time.sleep(seconds)
        draw(*args)

    monkeypatch.setattr(stochastic, "_draw_chunk", slow_draw)


def _assert_ensembles_equal(a, b):
    np.testing.assert_array_equal(a.ts, b.ts)
    np.testing.assert_array_equal(a.mean.view(np.int64),
                                  b.mean.view(np.int64))
    np.testing.assert_array_equal(a.var.view(np.int64), b.var.view(np.int64))


def _watched(gen, ran):
    """``gen``, with the pid of the process that ran each of its blocks
    appended to ``ran``: a forked process appends to its own copy, so
    ``ran`` lists the blocks this process ran."""
    while True:
        try:
            next(gen)
        except StopIteration as stop:
            return stop.value
        ran.append(os.getpid())
        yield


@_NEEDS_FORK
@pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "forked"])
def test_fp_in_the_ensembles_waits_matches_separate_calls(
        monkeypatch, forked_pids, sl_basis, cpus):
    # while a forked drawer's next chunk is not ready the parent runs the
    # job's blocks, at least one before the ensemble returns; in-process
    # the ensemble leaves it alone.  Either way result() runs the rest
    # here, so every block runs in this process, and the ensemble and the
    # density are those of separate calls to the bit
    monkeypatch.setattr(stochastic, "_usable_cpus", lambda: cpus)
    noise = NoiseModel.isotropic(0.05)
    psi = np.linspace(-0.5, 0.5, 41)
    sde_args = (sl_basis, noise, 64, (2 * stochastic._CHUNK + 37) * 0.01,
                0.01)
    alone = pp.simulate_sde_ensemble(*sde_args, seed=9)
    dens_alone = pp.solve_fp(sl_basis, noise, psi, 3.0, 0.01, n_store=40)
    _slow_draws(monkeypatch, 0.1)
    here = []
    fp = stochastic._Background(_watched(stochastic._fp_blocks(
        sl_basis, noise, psi, 3.0, 0.01, n_store=40), here))
    ens = pp.simulate_sde_ensemble(*sde_args, seed=9, job=fp)
    assert (len(here) > 0) == (cpus == 2)
    assert len(forked_pids) == 2 * (cpus - 1)
    _assert_ensembles_equal(ens, alone)
    dens = fp.result()
    n_blocks = -(-dens.n_steps // (stochastic._FP_BLOCK_POINTS // 40))
    assert here == [os.getpid()] * n_blocks
    assert dens.n_steps == dens_alone.n_steps
    np.testing.assert_array_equal(dens.ts, dens_alone.ts)
    np.testing.assert_array_equal(dens.p.view(np.int64),
                                  dens_alone.p.view(np.int64))


@_NEEDS_FORK
def test_fp_failure_in_the_ensembles_waits_is_held(monkeypatch, forked_pids,
                                                   vdp_basis):
    # the coarse grid of test_fp_negative_density_caught_between_snapshots
    # fails in this process, in its wait for the forked drawer's first
    # chunk; the ensemble still ends as it would alone and reaps its
    # drawer, and the error, with solve_fp's message, comes only from
    # result()
    noise = NoiseModel.directional(0.05, [1.0, 0.0])
    psi = np.linspace(-3.0, 3.0, 8)
    width = 0.3 * (psi[1] - psi[0])
    with pytest.raises(InstabilityError) as direct:
        pp.solve_fp(vdp_basis, noise, psi, 6.0, 0.01, init_width=width)
    monkeypatch.setattr(stochastic, "_usable_cpus", lambda: 2)
    sde_args = (vdp_basis, noise, 32, 2 * stochastic._CHUNK * 0.01, 0.01)
    alone = pp.simulate_sde_ensemble(*sde_args, seed=3)
    _slow_draws(monkeypatch, 0.1)
    events = []
    increments = stochastic._increments

    def watched_increments(*args):
        for dB in increments(*args):
            events.append("chunk")
            yield dB

    def failing_blocks():
        try:
            return (yield from stochastic._fp_blocks(
                vdp_basis, noise, psi, 6.0, 0.01, init_width=width))
        except InstabilityError:
            events.append(os.getpid())
            raise

    monkeypatch.setattr(stochastic, "_increments", watched_increments)
    fp = stochastic._Background(failing_blocks())
    ens = pp.simulate_sde_ensemble(*sde_args, seed=3, job=fp)
    assert fp.done
    assert events == [os.getpid(), "chunk", "chunk"]
    _assert_ensembles_equal(ens, alone)
    assert len(forked_pids) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    with pytest.raises(InstabilityError) as held:
        fp.result()
    assert str(held.value) == str(direct.value)


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
    reference = _reference_v(spline)
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


@_NEEDS_FORK
def test_substreams_stable_under_ensemble_growth(monkeypatch, forked_pids,
                                                 sl_basis):
    # path p is drawn from stream (seed, p // B) alone, at column p % B, and
    # the last block is drawn full width, so the statistics of the first n
    # paths equal those of the reference's first n paths at any n, on both
    # sides of a block boundary, drawn in-process and forked: adding paths
    # never changes the paths already drawn
    noise = NoiseModel.isotropic(0.05)
    B = stochastic._PATH_BLOCK
    ts, hist = _reference_paths(sl_basis, noise, range(B + 4), 5.0, 0.01, 3)
    assert len(set(hist[-1])) == B + 4
    for cpus in (1, 2):
        monkeypatch.setattr(stochastic, "_usable_cpus", lambda: cpus)
        for n in (1, 4, B, B + 1, B + 4):
            ens = pp.simulate_sde_ensemble(sl_basis, noise, n, 5.0, 0.01,
                                           seed=3)
            _assert_stats_equal(ens, ts, hist[:, :n])
    assert len(forked_pids) == 5


def test_one_generator_and_one_draw_per_block_per_chunk(monkeypatch,
                                                       sl_basis):
    # the drawer builds one generator per started block of paths and fills
    # each block's part of a chunk, all of its steps, in one call: one
    # increment per path and step for the two channels of isotropic noise
    monkeypatch.setattr(stochastic, "_usable_cpus", lambda: 1)
    default_rng = np.random.default_rng
    keys, draws = [], []

    class Counting:
        """A generator that records its key and each draw's shape."""

        def __init__(self, key):
            self.index = len(keys)
            keys.append(key)
            self._rng = default_rng(key)

        def standard_normal(self, *, out):
            draws.append((self.index, out.shape))
            self._rng.standard_normal(out=out)

    monkeypatch.setattr(np.random, "default_rng", Counting)
    B, chunk = stochastic._PATH_BLOCK, stochastic._CHUNK
    n_paths, n_steps = 2 * B + 1, 2 * chunk + 5
    pp.simulate_sde_ensemble(sl_basis, NoiseModel.isotropic(0.05), n_paths,
                             n_steps * 0.01, 0.01, seed=4)
    assert keys == [[4, 0], [4, 1], [4, 2]]
    assert draws == [(b, (k, B)) for k in (chunk, chunk, 5)
                     for b in range(3)]


@pytest.mark.parametrize("kind", ["isotropic", "directional", "nine"])
@pytest.mark.parametrize("basis_name", ["sl_basis", "vdp_basis",
                                        "bruss_basis"])
def test_scalar_amplitude_matches_channel_sum(request, basis_name, kind):
    # the SDE's q is SciPy's Hermite interpolant of v^T v to the bit, and
    # at adversarial phases it is v^T v of the channel spline, which the
    # Fokker-Planck solver uses, to 1e-8 of max q; clamped at 0, its root
    # is never negative or NaN
    basis = request.getfixturevalue(basis_name)
    noise = _noise(kind)
    amp = stochastic._diffusion_spline(basis, noise)
    reference = _reference_q(basis, noise)
    np.testing.assert_array_equal(amp.c.view(np.int64),
                                  reference.c.view(np.int64))
    T = basis.cycle.T
    theta = _adversarial_phases(T, amp.x)
    q = amp.values(theta)[0]
    np.testing.assert_array_equal(q.view(np.int64),
                                  reference(np.mod(theta, T)).view(np.int64))
    vsq = sum(vk * vk for vk in basis.projection(noise.G).values(theta))
    assert np.max(np.abs(q - vsq)) <= 1e-8 * np.max(vsq)
    assert (np.sqrt(np.maximum(q, 0.0)) >= 0.0).all()


def test_negative_q_steps_by_zero(monkeypatch, sl_basis):
    # an interpolant of v^T v can dip below 0 next to a double zero (to
    # -2e-24 for Stuart-Landau's nine-channel test noise); there a step is
    # 0, not NaN
    knots = np.linspace(0.0, sl_basis.cycle.T, 9)
    monkeypatch.setattr(
        stochastic, "_diffusion_spline",
        lambda basis, noise: PeriodicSpline.hermite(knots, np.full(9, -1e-9),
                                                    np.zeros(9)))
    ens = pp.simulate_sde_ensemble(sl_basis, NoiseModel.isotropic(0.05), 8,
                                   1.0, 0.01, seed=1)
    assert not np.any(ens.mean) and not np.any(ens.var)


@pytest.mark.parametrize("kind", ["isotropic", "directional", "nine"])
@pytest.mark.parametrize("basis_name", ["sl_basis", "vdp_basis",
                                        "bruss_basis"])
def test_q_kernel_matches_hermite_spline(request, basis_name, kind):
    # every per-step read-out, the ensemble's q(t + psi) and the channel
    # spline v (1, 2 or 9 channels) of the lock map and the Fokker-Planck
    # blocks, is SciPy's interpolant at np.mod(t % T + psi, T) to 1e-14 of
    # its max for psi within a period of 0, at step times up to 2^40
    # steps; beyond, the bound grows with |psi| / T, as the rounding of
    # (psi + t mod T) n / T does.  That rounding, 2^-52 of theta twice,
    # also moves v by up to 2^-51 T max |v'|, which the nine fast
    # channels' slope (68 max |v| / T on van der Pol) makes larger than
    # 1e-14 max |v|.  The derivative's rows carry 1 / h, h the knot
    # spacing, and it reads within 1e-14 max / h.  Each row of an array
    # of times reads as that time alone does, and a shorter array reads
    # into the kernel's first rows
    basis = request.getfixturevalue(basis_name)
    noise = _noise(kind)
    T, dt = basis.cycle.T, 0.01
    times = np.array([0.0, dt, 60.0, 1e4, 1e7, 2.0 ** 40 * dt])
    q = stochastic._diffusion_spline(basis, noise)
    v = basis.projection(noise.G)
    psi = _adversarial_phases(T, q.x)
    grow = np.maximum(1.0, np.abs(psi) / T)
    for spline, ref, slope_rounding in (
            (q, _reference_q(basis, noise), 0.0),
            (v, _reference_v(v), 2.0 ** -51 * T)):
        refs = (ref, ref.derivative())
        fmax, dfmax = (np.max(np.abs(r(ref.x))) for r in refs)
        h = T / (ref.x.size - 1)
        bounds = (grow * (1e-14 * fmax + slope_rounding * dfmax),
                  grow * 1e-14 * fmax / h)
        one = _HornerKernel(spline, psi.shape, derivative=True)
        rows = _HornerKernel(spline, (times.size, psi.size), derivative=True)
        # time first, then the channels of a channel spline
        full = [np.moveaxis(a, -2, 0).copy()
                for a in rows(times[:, None], psi)]
        for r, t in enumerate(times):
            theta = np.mod(t % T + psi, T)
            for got, row, want, bound in zip(one(t, psi), full, refs, bounds):
                # SciPy's channel axis last, the kernel's first
                want = np.moveaxis(want(theta), -1, 0) if got.ndim > 1 \
                    else want(theta)
                assert np.all(np.abs(got - want) <= bound), t
                np.testing.assert_array_equal(row[r], got)
        for got, row in zip(rows(times[:2, None], psi), full):
            np.testing.assert_array_equal(np.moveaxis(got, -2, 0), row[:2])
    with np.errstate(invalid="ignore"):
        nan = _HornerKernel(q, (3,))(1e4, np.array([np.nan, 0.0, -np.nan]))
    assert np.isnan(nan[[0, 2]]).all() and np.isfinite(nan[1])


def test_ensemble_steps_without_the_generic_read_out(monkeypatch, sl_basis,
                                                     values_calls):
    # q is read by the ensemble's own kernel: PeriodicSpline.values is
    # called as often for 300 steps as for 3, only to build q
    monkeypatch.setattr(stochastic, "_usable_cpus", lambda: 1)
    counts = []
    for n_steps in (3, 300):
        values_calls.clear()
        pp.simulate_sde_ensemble(sl_basis, NoiseModel.isotropic(0.05), 8,
                                 n_steps * 0.01, 0.01, seed=1)
        counts.append(len(values_calls))
    assert counts[0] == counts[1] <= 1


def test_fp_steps_without_the_generic_read_out(sl_basis, values_calls):
    # the Fokker-Planck blocks read v and dv through a kernel:
    # PeriodicSpline.values is called as often over 1,000 steps (six
    # blocks) as over 100 (one), only for the stability bound, not once a
    # block
    noise = NoiseModel.isotropic(0.05)
    psi = np.linspace(-0.5, 0.5, 41)
    counts = []
    for t_end in (1.0, 10.0):
        values_calls.clear()
        assert pp.solve_fp(sl_basis, noise, psi, t_end, 0.01).n_steps \
            == round(100 * t_end)
        counts.append(len(values_calls))
    assert counts[0] == counts[1] <= 1


@pytest.mark.parametrize("kind", ["isotropic", "directional"])
def test_scalar_steps_keep_the_channel_law(vdp_basis, kind):
    # given psi, sqrt(q) dB and v^T dW are both N(0, q dt): the variance at
    # t_end of the ensemble (seed 21) and of the channel oracle (seed 22),
    # independent samples of N paths each, agree within 5 relative
    # standard errors sqrt(2 / (N - 1)) of a sample variance
    noise = _noise(kind)
    n, t_end, dt = 4096, 8.0, 0.02
    ens = pp.simulate_sde_ensemble(vdp_basis, noise, n, t_end, dt, seed=21)
    ts, hist = _channel_paths(vdp_basis, noise, range(n), t_end, dt, 22)
    np.testing.assert_array_equal(ens.ts, ts)
    oracle = np.var(hist[-1], ddof=1)
    assert abs(ens.var[-1] / oracle - 1.0) <= 5.0 * np.sqrt(2.0 / (n - 1))


@_NEEDS_FORK
@pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "forked"])
def test_slots_hold_the_same_increments_for_any_channel_count(
        monkeypatch, sl_basis, cpus):
    # the increments do not depend on the noise: one channel and nine fill
    # the slots with the same bytes, chunk by chunk
    monkeypatch.setattr(stochastic, "_usable_cpus", lambda: cpus)
    increments = stochastic._increments
    seen = {}

    def recording(*args):
        for dB in increments(*args):
            seen[kind].append(dB.tobytes())
            yield dB

    monkeypatch.setattr(stochastic, "_increments", recording)
    for kind in ("directional", "nine"):
        seen[kind] = []
        pp.simulate_sde_ensemble(sl_basis, _noise(kind),
                                 stochastic._PATH_BLOCK + 44,
                                 (2 * stochastic._CHUNK + 37) * 0.01, 0.01,
                                 seed=9)
    assert len(seen["nine"]) == 3
    assert seen["directional"] == seen["nine"]


def test_sde_variance_grows_linearly_stuart_landau(sl_basis):
    # Var psi(t) ~ sigma^2 t for SL isotropic noise (|v|^2 is constant).
    # The fitted slope's relative error has a standard deviation of about
    # 0.07 sqrt(512 / n_paths) (0.070 over seeds 100-299 at 512 paths), so
    # 2048 paths put the bound at 4 of them
    sigma = 0.05
    ens = pp.simulate_sde_ensemble(sl_basis, NoiseModel.isotropic(sigma),
                                   n_paths=2048, t_end=40.0, dt=0.02, seed=11)
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


@_NEEDS_FORK
@pytest.mark.parametrize("seed", [-1, np.int64(-3), np.nan, 2.5, "1"])
@pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "forked"])
def test_sde_rejects_a_seed_that_keys_no_stream(monkeypatch, forked_pids,
                                                sl_basis, cpus, seed):
    # default_rng([seed, block]) takes integers >= 0 only; a bad seed is an
    # ArgumentError before any child is forked, never a lost ValueError in
    # the child, and a fraction is not run (and recorded) as its floor
    monkeypatch.setattr(stochastic, "_usable_cpus", lambda: cpus)
    with pytest.raises(ArgumentError, match="seed"):
        pp.simulate_sde_ensemble(sl_basis, NoiseModel.isotropic(0.05), 4,
                                 1.0, 0.01, seed=seed)
    assert forked_pids == []


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


def _horner_read(spline):
    """read(t, half) of the channel values and slopes at t + half, as
    rows of (half, channel): SciPy's pieces of ``spline`` written as
    cubics in the fractional knot coordinate u, coefficients c[k]
    h^(3 - k) with h = T / n and slope coefficients (3 - k) c[k]
    h^(2 - k), summed by Horner at u = (half + np.mod(t, T)) n / T less
    its floor, on the piece that floor mod n names."""
    ref = _reference_v(spline)
    n = ref.c.shape[1]
    T = ref.x[-1]
    h = T / n
    rows = [ck * h ** (3 - k) for k, ck in enumerate(ref.c)]
    drows = [(3 - k) * ck * h ** (2 - k) for k, ck in enumerate(ref.c[:3])]

    def read(t, half):
        u = (half + np.mod(t, T)) * (n / T)
        f = np.floor(u)
        u -= f
        i = np.remainder(f.astype(np.intp), n)
        u = u[:, None]
        v = ((rows[0][i] * u + rows[1][i]) * u + rows[2][i]) * u + rows[3][i]
        dv = (drows[0][i] * u + drows[1][i]) * u + drows[2][i]
        return v.T, dv.T

    return read


def _values_read(spline):
    """read(t, half) by the spline's generic read-out, SciPy's bits."""
    return lambda t, half: spline.values(t + half, derivative=True)


def _reference_fp(basis, noise, psi, t_end, dt, n_store, reader=_horner_read):
    """solve_fp's density snapshots, reading the channel spline step by
    step through ``reader(spline)`` and adding the channels in index
    order from +0.0."""
    dpsi = float(psi[1] - psi[0])
    spline = basis.projection(noise.G)
    read = reader(spline)
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
        v, dv = read(j * dt, half)
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
    # the spline terms come a block of steps at a time, channel-major, from
    # the kernel's Horner sums, and the density equals the per-step loop's
    # to the bit; the solve crosses two block boundaries and ends on a
    # partial block, read into the first rows of the kernel's buffers.  It
    # stays within 1e-13 of the per-step loop on SciPy's bits
    basis = request.getfixturevalue(basis_name)
    noise = _noise(kind)
    psi = np.linspace(-0.5, 0.5, 41)
    t_end, dt = 4.5, 0.01
    n_steps, ts, p = _reference_fp(basis, noise, psi, t_end, dt, 40)
    block = stochastic._FP_BLOCK_POINTS // (psi.size - 1)
    assert n_steps > 2 * block
    assert n_steps % block
    dens = pp.solve_fp(basis, noise, psi, t_end, dt, n_store=40)
    assert dens.n_steps == n_steps
    np.testing.assert_array_equal(dens.ts, ts)
    np.testing.assert_array_equal(dens.p.view(np.int64), p.view(np.int64))
    _, _, oracle = _reference_fp(basis, noise, psi, t_end, dt, 40,
                                 reader=_values_read)
    assert np.max(np.abs(dens.p - oracle)) <= 1e-13


@pytest.mark.parametrize("steps", [1, 7, 16, 128])
def test_fp_block_length_leaves_density_unchanged(monkeypatch, sl_basis,
                                                  steps):
    # the block length only sets how many steps share one evaluation of
    # the spline terms: blocks of any length, the last one partial, give
    # the per-step reference to the bit, and the solve yields once a block
    noise = NoiseModel.isotropic(0.05)
    psi = np.linspace(-0.5, 0.5, 41)
    n_steps, ts, p = _reference_fp(sl_basis, noise, psi, 3.0, 0.01, 40)
    assert steps == 1 or n_steps % steps
    monkeypatch.setattr(stochastic, "_FP_BLOCK_POINTS",
                        steps * (psi.size - 1))
    fp = stochastic._Background(stochastic._fp_blocks(
        sl_basis, noise, psi, 3.0, 0.01, n_store=40))
    n_blocks = 0
    while fp.step():
        n_blocks += 1
    assert n_blocks == -(-n_steps // steps)
    dens = fp.result()
    assert dens.n_steps == n_steps
    np.testing.assert_array_equal(dens.ts, ts)
    np.testing.assert_array_equal(dens.p.view(np.int64), p.view(np.int64))


def test_fp_block_keeps_its_terms_under_the_mmap_threshold():
    # 16 steps at the noise workload's 481 cells; two channels of one
    # block's spline terms stay below glibc's initial 128 KiB threshold
    assert stochastic._FP_BLOCK_POINTS // 480 == 16
    assert 2 * stochastic._FP_BLOCK_POINTS * 8 < 128 * 1024


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
    drift, diff = stochastic._fp_coefficients(
        *spline.values(theta, derivative=True))
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
    # diffusion_summary, the Fokker-Planck diffusion (which the SDE's q
    # interpolates) and the channel sum itself add the nine channels of
    # v^T v in index order, where np.sum would add them pairwise
    noise = _noise("nine")
    spline = sl_basis.projection(noise.G)
    v = spline.values(sl_basis.ts)
    vsq = sum(vk * vk for vk in v)
    trailing = np.ascontiguousarray(np.moveaxis(v * v, 0, -1))
    assert not np.array_equal(vsq, np.sum(trailing, axis=-1))
    assert pp.diffusion_summary(sl_basis, noise) == float(np.mean(vsq))
    _, diff = stochastic._fp_coefficients(
        *spline.values(sl_basis.ts, derivative=True))
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
    # a decreasing grid has a negative default init_width and normalizes
    # the start to a negative density: the grid is named, not the width
    with pytest.raises(ArgumentError, match="increasing"):
        pp.solve_fp(sl_basis, noise, grid[::-1], 1.0, 1e-4)
    with pytest.raises(ArgumentError):
        pp.solve_fp(sl_basis, noise, grid, 0.0, 1e-4)
    for dt in (0.0, -0.01):
        with pytest.raises(ArgumentError):
            pp.solve_fp(sl_basis, noise, grid, 1.0, dt)
    for n_store in (0, 1, 2.5, np.nan):
        with pytest.raises(ArgumentError):
            pp.solve_fp(sl_basis, noise, grid, 1.0, 1e-3, n_store=n_store)


@pytest.mark.parametrize("width", [0.0, -0.1, np.nan, np.inf])
def test_fp_rejects_bad_init_width(sl_basis, width):
    # a zero width divided by zero (with RuntimeWarnings) and a NaN width
    # started from a NaN density, and both returned it
    with pytest.raises(ArgumentError, match="init_width"):
        pp.solve_fp(sl_basis, NoiseModel.isotropic(0.05),
                    np.linspace(-1, 1, 101), 1.0, 1e-3, init_width=width)


def test_fp_nan_density_raises(sl_basis):
    # a NaN density fails the guard as a negative one does, naming the
    # step: here the projection of a library G that reads NaN
    noise = NoiseModel(G=lambda x: np.full((2, 1), np.nan))
    with pytest.raises(InstabilityError, match="NaN density nan at t = 0.01$"):
        pp.solve_fp(sl_basis, noise, np.linspace(-1, 1, 101), 1.0, 0.01)


def test_fp_reads_a_vector_g_as_one_channel(sl_basis):
    # a library G returning (2,) is one noise channel, as (2, 1) is: the
    # densities agree to the bit (the block sums run over the channels,
    # never over the steps of a scalar spline's read-out)
    psi = np.linspace(-1, 1, 101)
    d = np.array([1.0, 0.5])
    vector, column = (pp.solve_fp(sl_basis, NoiseModel(G=lambda x, g=g: g),
                                  psi, 1.0, 0.01)
                      for g in (0.05 * d, 0.05 * d[:, None]))
    np.testing.assert_array_equal(vector.p.view(np.int64),
                                  column.p.view(np.int64))


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
    # dual route: the FP variance's growth vs the Monte-Carlo variance
    # after ten periods.  The paths start at psi = 0 and the density from
    # a Gaussian of width 4 dpsi, so the FP side subtracts its initial
    # variance.  The sample variance's relative standard error is
    # sqrt(2 / (n_paths - 1)), 0.0125 at 13,056 paths: the bound is 4 of
    # them (at 2048 paths it was 1.6, and seeds 1000-1099 failed 25 of 100)
    basis = sl_basis if which.startswith("sl") else vdp_basis
    sigma = 0.05
    if which.endswith("iso"):
        noise = NoiseModel.isotropic(sigma)
    else:
        noise = NoiseModel.directional(sigma, [1.0, 0.0])
    t_end = 10.0 * basis.cycle.T
    ens = pp.simulate_sde_ensemble(basis, noise, 13_056, t_end, 0.02, seed=5)
    D = pp.diffusion_summary(basis, noise)
    width = 8.0 * np.sqrt(D * t_end)
    psi = np.linspace(-width, width, 401)
    dpsi = psi[1] - psi[0]
    dt = 0.3 * 0.4 * dpsi ** 2 / max(D * 4, 1e-12)
    dens = pp.solve_fp(basis, noise, psi, t_end, dt)
    v_mc = ens.var[-1]
    v_fp = dens.variance()[-1] - dens.variance()[0]
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


def test_density_csv_bytes_match_per_cell_formatting(tmp_path):
    # the per-snapshot template must write what formatting every cell with
    # f"{x:.17g}" writes, signed zeros, subnormals and huge values included
    rng = np.random.default_rng(3)
    psi = np.linspace(-2.0, 2.0, 9)
    psi[4] = -0.0
    p = rng.random((4, 9))
    p[1, :4] = [-0.0, 5e-324, 1e300, 0.0]
    p[2, -2:] = [np.inf, np.nan]
    ts = np.array([0.0, 1e-300, 0.1, 60.0])
    dens = stochastic.DensityField(psi, ts, p, dpsi=0.5, n_steps=3)
    path = tmp_path / "density.csv"
    density_to_csv(dens, path)
    expected = "t,psi,p\n" + "".join(
        f"{t:.17g},{x:.17g},{pv:.17g}\n"
        for t, row in zip(ts.tolist(), p.tolist())
        for x, pv in zip(psi.tolist(), row))
    assert path.read_bytes() == expected.encode()
