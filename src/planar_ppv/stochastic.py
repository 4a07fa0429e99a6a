"""Noise-driven phase model: SDE ensembles and a Fokker-Planck solver.

The phase SDE is read in the Ito sense, dpsi = v(t+psi)^T dW with
v(t)^T = v1(t)^T G(x0(t)), the periodic interpolant
``basis.projection(noise.G)``.  Given psi, v^T dW is N(0, q dt) with
q = v^T v, the law of sqrt(q) dB for one scalar Wiener process B, so the
ensemble steps dpsi = sqrt(q(t+psi)) dB: one increment per path and
step whatever the channel count.  The Fokker-Planck solver keeps the
channel interpolant v, in the density equation
dp/dt = d/dpsi[ (v dv^T/dpsi) p + (1/2) v^T v dp/dpsi ].  The SDE's q
interpolates that v^T v and its slope at _Q_REFINE knots per basis-grid
interval, so the two no longer agree by construction but to the
distance between q and v^T v (see _Q_REFINE).  Each SDE step reads q
for every path, and each block of Fokker-Planck steps reads v and its
slope, through ``spline._HornerKernel``, a Horner sum over the pieces in
the fractional knot coordinate, not through ``PeriodicSpline.values``,
whose SciPy bits neither needs; ``values`` builds q and serves the
stability bound and ``diffusion_summary``.

The ensemble's paths come in blocks of _PATH_BLOCK, each block one Wiener
stream ``default_rng([seed, block index])``.  A chunk's increments for
block b are one contiguous (step, path in block) array, filled by one
draw call, so a slot is laid out (block, step, path in block).

The ensemble draws and steps at the same time where it can: a child made
by ``os.fork`` draws each chunk of Wiener increments into one of two
shared slots while the parent steps every path through the other, so
drawing and stepping overlap in time.  Where ``fork`` is missing or only
one CPU is usable, the same draw runs in-process before each chunk.  The
statistics do not depend on which process drew.

``simulate_sde_ensemble``'s ``job``, a :class:`_Background`, runs in
that child too: a block at a time while the parent has not yet freed the
slot the next chunk goes into, then to its end after the last chunk, and
its value or exception comes back pickled.  ``planar-ppv run`` passes the
Fokker-Planck solve, so the parent only steps paths.  Its blocks read
into buffers allocated once per solve, and are short enough for the
child to turn back to drawing soon after a slot is free.  Drawn
in-process, the job is left to the caller, who finishes it after the
ensemble.
"""

import contextlib
import math
import mmap
import os
import pickle
import select
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, InstabilityError, InternalInconsistencyError
from .spline import PeriodicSpline, _HornerKernel

__all__ = ["NoiseModel", "PhaseEnsemble", "DensityField",
           "simulate_sde_ensemble", "solve_fp", "diffusion_summary",
           "ensemble_to_csv", "density_to_csv"]


def _intensity(sigma):
    """sigma as a float; a negative or non-finite intensity is rejected."""
    s = float(sigma)
    if not (s >= 0 and math.isfinite(s)):  # NaN fails too
        raise ArgumentError("sigma must be finite and non-negative")
    return s


@dataclass(frozen=True)
class NoiseModel:
    """State-dependent noise input g = G(x) Gamma(t)."""

    G: object  # callable x -> (2, m), one column per noise channel

    @classmethod
    def isotropic(cls, sigma):
        """Additive isotropic noise, G = sigma * I, two channels."""
        s = _intensity(sigma)
        return cls(G=lambda x: s * np.eye(2))

    @classmethod
    def directional(cls, sigma, direction):
        """Single-channel noise of intensity sigma along a fixed direction."""
        d = np.asarray(direction, dtype=float)
        with np.errstate(over="ignore"):  # an overflow fails the test below
            nd = np.linalg.norm(d)
        if not (nd > 0 and math.isfinite(nd)):
            raise ArgumentError("noise direction must be finite and nonzero")
        d = d / nd
        s = _intensity(sigma)
        return cls(G=lambda x: (s * d)[:, None])


# Steps of Wiener increments drawn per chunk.  The increments live in two
# (blocks, chunk, _PATH_BLOCK) slots shared with the drawing child (4.2 MB
# each at 4096 paths, for any channel count), one drawn while the other is
# stepped, so the ensemble's memory does not grow with n_steps.  At 4096
# paths x 3000 steps, forked, with the Fokker-Planck solve as the job
# (Stuart-Landau isotropic noise, 481 cells; 2-vCPU x86_64 host shared
# with other work, medians of 5 alternating rounds), chunks of 64, 128
# and 256 steps took 0.64, 0.53 and 0.70 s, with slots of 2.1, 4.2 and
# 8.4 MB each.
_CHUNK = 128
# Paths per Wiener stream.  Block b of the ensemble draws from generator
# default_rng([seed, b]), so the block size is part of the stream's
# definition: changing it changes every path.  On the noise workload's
# 4096 paths x 3000 steps x 2 channels (same host, drawn in-process,
# medians of 5 in two rounds) the draws took 0.36-0.46 s in 16 blocks
# against 0.56-0.67 s from one generator per path, which also made
# 98,304 draw calls and a transpose per chunk.
_PATH_BLOCK = 256
_N_STORE = 201  # times at which the ensemble records its mean and variance
# Knots per basis-grid interval of the SDE's cubic Hermite interpolant q
# of v^T v and its slope, where v^T v, the Fokker-Planck solver's own
# diffusion coefficient, is a degree-6 piece per interval.  Max
# |q - v^T v| / max v^T v over adversarial and 1e5 random phases, on the
# 1,024-point grids of Stuart-Landau, van der Pol mu = 1 and the
# brusselator, with isotropic noise and with the tests' nine fast
# channels: 7.4e-12, 1.8e-9, 1.8e-10 and 4.2e-8, 1.3e-6, 1.9e-6 at 1 knot
# per interval (a cubic spline through the grid's v^T v alone is no
# closer); 2.6e-15, 4.4e-13, 4.4e-14 and 1e-11, 3.1e-10, 5.2e-10 at 8.
# At 8 it takes 2.2 ms to build, and a step's read-out of q at 4096
# phases costs the same as at 1 (56-59 us).
_Q_REFINE = 8
# Half-point evaluations, steps x (cells - 1), per block of Fokker-Planck
# steps: 16 steps at 481 cells.  A block's spline terms are read into the
# buffers of one _HornerKernel allocated per solve, (channels, steps,
# cells - 1) arrays of 120 KiB each at 2 channels, and the last, partial
# block reads into their first rows.  The block length sets the buffers'
# size and how often a forked drawer running the solve can turn back to
# drawing.
_FP_BLOCK_POINTS = 16 * 480


def _stored_steps(n_steps, n_store):
    """Steps to store: 0, every (n_steps // (n_store - 1))-th, the last."""
    if not isinstance(n_store, (int, np.integer)) or n_store < 2:
        raise ArgumentError("need an integer n_store >= 2")
    stride = max(1, n_steps // (n_store - 1))
    return set(range(0, n_steps + 1, stride)) | {n_steps}


def _channel_dot(a, b):
    """sum_k a[k] b[k] over the leading channel axis, the products added
    in index order and accumulated in place in a.

    Every channel sum of the noise layer is this one: the Fokker-Planck
    drift and diffusion (which the SDE's q interpolates), its stability
    bound and the diffusion rate.  Below 8 channels index order is
    np.sum's order, whose sums start from +0.0 instead of the first
    product.
    """
    acc = a[0]
    acc *= b[0]
    for ak, bk in zip(a[1:], b[1:]):
        ak *= bk
        acc += ak
    return acc


def _diffusion(spline, ts):
    """q = v^T v of the channel interpolant ``spline`` at ``ts``: the
    phase's diffusion coefficient, summed by :func:`_channel_dot`."""
    v = spline.values(ts)
    return _channel_dot(v, v)


def _diffusion_spline(basis, noise):
    """q, the SDE's diffusion coefficient: the cubic Hermite interpolant
    of the Fokker-Planck solver's 2 * diffusion = v^T v and its slope
    2 * drift = 2 v dv^T/dpsi at _Q_REFINE knots per basis-grid
    interval."""
    knots = np.linspace(0.0, basis.cycle.T, _Q_REFINE * basis.ts.size + 1)
    drift, diff = _fp_coefficients(
        *basis.projection(noise.G).values(knots, derivative=True))
    return PeriodicSpline.hermite(knots, 2.0 * diff, 2.0 * drift)


def _fp_coefficients(v, dv):
    """The drift v dv^T/dpsi and diffusion (1/2) v^T v of channel values
    v and slopes dv, summed by :func:`_channel_dot` in place in v and dv.
    The drift then adds +0.0, so that below 8 channels it is np.sum's to
    the bit: a drift of -0.0 products reads +0.0.  A sum of squares is
    never -0.0."""
    drift = _channel_dot(dv, v)
    drift += 0.0
    diff = _channel_dot(v, v)
    diff *= 0.5
    return drift, diff


def _usable_cpus():
    """CPUs this process may run on; 1 where the platform cannot tell."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def _draw_chunk(rngs, out, sq):
    """The next out.shape[1] steps of increments, sq * N(0, 1), of every
    path block: generator rngs[b] fills block b's contiguous (step, path
    in block) part out[b] in one call."""
    for rng, block in zip(rngs, out):
        rng.standard_normal(out=block)
        block *= sq


def _increments(seed, n_paths, n_steps, dt, job=None):
    """The Wiener increments, one (blocks, k, _PATH_BLOCK) chunk of
    k <= _CHUNK steps at a time.  Block b continues generator
    ``default_rng([seed, b])`` from chunk to chunk, so its increments are
    those of one (n_steps, _PATH_BLOCK) draw.  A yielded chunk is valid
    until the next one is asked for; close the generator to end a forked
    drawer early.

    A forked drawer also runs ``job``, a :class:`_Background` or None: a
    block at a time while the parent has not freed the slot it draws
    into next, then to its end after the last chunk.  The job's outcome
    is settled into the parent's ``job`` when the generator is asked for
    a chunk after the last one, and ends.  Drawn in-process, ``job`` is
    not touched."""
    sq = np.sqrt(dt)
    sizes = [min(_CHUNK, n_steps - j0) for j0 in range(0, n_steps, _CHUNK)]
    n_blocks = -(-n_paths // _PATH_BLOCK)
    shape = (n_blocks, min(_CHUNK, n_steps), _PATH_BLOCK)

    def generators():
        return [np.random.default_rng([seed, b]) for b in range(n_blocks)]

    if not sizes or not hasattr(os, "fork") or _usable_cpus() < 2:
        rngs, dB = generators(), np.empty(shape)
        for k in sizes:
            _draw_chunk(rngs, dB[:, :k], sq)
            yield dB[:, :k]
        return

    # Two slots in memory shared with the child.  One byte per chunk on
    # `ready` says the child filled a slot, one on `free` that the parent
    # is done with one; after the last chunk's byte, `ready` carries the
    # job's pickled outcome.  The child only builds its generators, draws
    # and runs the job, so it takes no lock another thread could hold at
    # the fork; it ends on EOF or EPIPE once the parent is gone, and never
    # returns into the caller's code.
    slots = np.frombuffer(mmap.mmap(-1, 2 * math.prod(shape) * 8),
                          dtype=float).reshape((2,) + shape)
    ready_r, ready_w = os.pipe()
    free_r, free_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(ready_r)
            os.close(free_w)

            def run_job():
                """Step the job while `free` has nothing to read."""
                while (job is not None
                       and not select.select([free_r], [], [], 0)[0]
                       and job.step()):
                    pass

            rngs = generators()
            for c, k in enumerate(sizes):
                if c >= 2:
                    run_job()
                    if not os.read(free_r, 1):
                        break
                _draw_chunk(rngs, slots[c % 2, :, :k], sq)
                os.write(ready_w, b"r")
            else:
                # the parent frees no slot after the last chunk, so here
                # a readable `free` is EOF: the parent is gone
                run_job()
                if job is not None and job.done:
                    data = memoryview(job.outcome())
                    while data:
                        data = data[os.write(ready_w, data):]
            status = 0
        finally:
            os._exit(status)
    os.close(ready_w)
    os.close(free_r)
    try:
        for c, k in enumerate(sizes):
            if not os.read(ready_r, 1):
                raise InternalInconsistencyError(
                    f"the Wiener increment process ended before chunk {c}")
            yield slots[c % 2, :, :k]
            if c + 2 < len(sizes):
                # EPIPE: the child is gone, and the next read finds EOF
                with contextlib.suppress(BrokenPipeError):
                    os.write(free_w, b"f")
        if job is not None:
            parts = []
            while part := os.read(ready_r, 1 << 16):
                parts.append(part)
            job.settle(b"".join(parts))
    finally:
        os.close(ready_r)
        os.close(free_w)
        os.waitpid(pid, 0)


@dataclass(frozen=True)
class PhaseEnsemble:
    """Monte-Carlo mean/variance curves of the phase deviation."""

    ts: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    n_paths: int
    seed: int


def simulate_sde_ensemble(basis, noise, n_paths, t_end, dt, seed, *,
                          job=None):
    """Euler-Maruyama ensemble of dpsi = v(t+psi)^T dW, psi(0) = 0, stepped
    as the scalar diffusion dpsi = sqrt(q(t+psi)) dB of the same law.

    q interpolates v^T v and its slope on _Q_REFINE knots per basis-grid
    interval and is clamped at 0 (where v^T v has double zeros, as for
    noise along one direction, an interpolant can dip below 0 between
    knots), so a step is sqrt(max(q, 0)) times one Wiener increment
    whatever the channel count.  It differs from v^T v of the channel
    interpolant, which the Fokker-Planck solver uses, by the
    interpolation error given at _Q_REFINE.  Step j reads q at
    (j dt mod T) + psi to rounding by ``spline._HornerKernel``, into
    buffers allocated once per call.

    The mean and variance are stored at _N_STORE times.  The Wiener
    increments come in streams of _PATH_BLOCK paths keyed by (seed, block
    index): path p is column p % _PATH_BLOCK of block p // _PATH_BLOCK, and
    the last block is drawn full width, so growing the ensemble never
    reshuffles existing paths, and identical seeds give bit-identical
    statistics.  The increments are drawn a fixed number of steps at a
    time, so memory does not grow with n_steps.  ``seed`` is an integer
    >= 0.

    ``job``, a :class:`_Background` or None, rides on a forked drawer: the
    drawer runs it between its draws and after its last one, and the
    ensemble returns with the job's value or exception settled, so its
    ``result()`` returns or raises at once.  Drawn in-process, the
    ensemble leaves the job alone, for the caller to finish.
    """
    if not isinstance(n_paths, (int, np.integer)) or n_paths < 1:
        raise ArgumentError("need an integer n_paths >= 1")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ArgumentError("need an integer seed >= 0")
    if not dt > 0:  # NaN fails too; an infinite dt fails the bound below
        raise ArgumentError("dt must be positive")
    if not (t_end > 0 and math.isfinite(t_end)):
        raise ArgumentError("t_end must be finite and positive")
    if dt > basis.cycle.T / 100.0:
        raise ArgumentError(
            f"dt = {dt} too large; need dt <= T/100 = {basis.cycle.T / 100:g}")
    seed = int(seed)
    n_steps = int(round(t_end / dt))
    store_set = _stored_steps(n_steps, _N_STORE)
    # every drawn path is stepped, the last block's padding included
    psi = np.zeros((-(-n_paths // _PATH_BLOCK), _PATH_BLOCK))
    paths = psi.reshape(-1)[:n_paths]
    q = _HornerKernel(_diffusion_spline(basis, noise), psi.shape)
    ts_out, mean_out, var_out = [], [], []

    def record(j):
        ts_out.append(j * dt)
        mean_out.append(np.mean(paths))
        var_out.append(np.var(paths, ddof=1) if n_paths > 1 else 0.0)

    record(0)
    chunks = _increments(seed, n_paths, n_steps, dt, job)
    with contextlib.closing(chunks):
        # run the chunks out, so that a forked drawer's job is settled
        for c, dB in enumerate(chunks):
            # step j reads dB[:, j - c * _CHUNK] as (block, path in block)
            for j, dBj in enumerate(dB.transpose(1, 0, 2), c * _CHUNK):
                a = q(j * dt, psi)
                np.maximum(a, 0.0, out=a)
                np.sqrt(a, out=a)
                a *= dBj
                psi += a
                if (j + 1) in store_set:
                    record(j + 1)
    return PhaseEnsemble(ts=np.array(ts_out), mean=np.array(mean_out),
                         var=np.array(var_out), n_paths=n_paths, seed=seed)


@dataclass(frozen=True)
class DensityField:
    """p(psi, t) snapshots on a uniform psi grid."""

    psi: np.ndarray
    ts: np.ndarray
    p: np.ndarray  # shape (n_times, n_psi)
    dpsi: float
    n_steps: int  # time steps taken, each t_end / n_steps long

    def mass(self):
        return np.sum(self.p, axis=1) * self.dpsi

    def mean(self):
        return (self.p @ self.psi) * self.dpsi

    def variance(self):
        mu = self.mean()
        return (self.p @ self.psi ** 2) * self.dpsi - mu ** 2


def solve_fp(basis, noise, psi_grid, t_end, dt, init_width=None,
             n_store=101):
    """Explicit conservative finite-difference Fokker-Planck solve.

    Drift coefficient v dv^T/dpsi comes from the analytic derivative of
    the periodic interpolant; diffusion is second-order central.  The
    initial condition is a Gaussian at psi = 0 of standard deviation
    ``init_width``, finite and > 0 (4 dpsi when None); far boundaries are
    absorbing (place them >= 8 predicted standard deviations out).

    ``dt`` is an upper bound: the step is t_end / n for the smallest n >= 1
    whose step does not exceed min(dt, 0.4 dpsi^2 / max v^T v), the
    stability limit of the scheme, so the last snapshot falls on t_end.
    A density below -1e-12 or NaN after any step raises
    ``InstabilityError``.
    """
    return _Background(_fp_blocks(basis, noise, psi_grid, t_end, dt,
                                  init_width, n_store)).result()


def _fp_blocks(basis, noise, psi_grid, t_end, dt, init_width=None,
               n_store=101):
    """:func:`solve_fp`, yielding after each block of steps; returns the
    DensityField.  A block has _FP_BLOCK_POINTS // (cells - 1) steps, at
    least one, and the last block may be shorter.

    It makes no BLAS call and takes no lock: elementwise NumPy,
    reductions such as np.min, and the spline kernel only (the spline is
    built in Python floats), so a forked drawer may run it."""
    if not (t_end > 0 and math.isfinite(t_end)):  # NaN fails too
        raise ArgumentError("t_end must be finite and positive")
    if not dt > 0:  # an infinite dt leaves the stability cap in charge
        raise ArgumentError("dt must be positive")
    psi = np.asarray(psi_grid, dtype=float)
    d = np.diff(psi)
    if (psi.size < 8 or not d[0] > 0
            or not np.allclose(d, d[0], rtol=1e-10, atol=0)):
        raise ArgumentError("psi grid must be uniform and increasing")
    dpsi = float(d[0])
    w = 4.0 * dpsi if init_width is None else init_width
    if not (w > 0 and math.isfinite(w)):  # NaN fails too
        raise ArgumentError("init_width must be finite and positive")

    # a (2,) G as one channel: the kernel reads a scalar spline without
    # the channel axis that the block's sums run over
    spline = basis.projection(lambda x: np.reshape(noise.G(x), (2, -1)))
    vsq_max = float(np.max(_diffusion(spline, basis.ts)))
    if vsq_max > 0:
        dt = min(dt, 0.4 * dpsi ** 2 / vsq_max)

    p = np.exp(-0.5 * (psi / w) ** 2)
    p /= np.sum(p) * dpsi

    n_steps = max(1, int(np.ceil(t_end / dt)))  # dt stays inf on zero noise
    dt = t_end / n_steps
    store_idx = _stored_steps(n_steps, n_store)

    half = psi[:-1] + 0.5 * dpsi
    block = max(1, _FP_BLOCK_POINTS // half.size)
    read = _HornerKernel(spline, (block, half.size), derivative=True)
    ts_out, p_out = [0.0], [p.copy()]
    for j0 in range(0, n_steps, block):
        # v dv^T/dpsi and (1/2) v^T v at the half points of a block of steps
        steps = np.arange(j0, min(j0 + block, n_steps))
        drifts, diffs = _fp_coefficients(*read((steps * dt)[:, None], half))
        for j, drift, diff in zip(steps.tolist(), drifts, diffs):
            t = j * dt
            # flux J_{i+1/2} = -[ drift * p_half + diff * dp/dpsi ]
            p_half = 0.5 * (p[:-1] + p[1:])
            J = -(drift * p_half + diff * (p[1:] - p[:-1]) / dpsi)
            p[1:-1] += dt * (J[:-1] - J[1:]) / dpsi
            p[0] = 0.0   # absorbing far boundaries
            p[-1] = 0.0
            p_min = np.min(p)
            if not p_min >= -1e-12:  # NaN fails too
                raise InstabilityError(
                    f"{'negative' if p_min < 0 else 'NaN'} density "
                    f"{p_min:.3e} at t = {t + dt:g}")
            if (j + 1) in store_idx:
                ts_out.append((j + 1) * dt)
                p_out.append(p.copy())
        yield
    return DensityField(psi=psi, ts=np.array(ts_out),
                        p=np.array(p_out), dpsi=dpsi, n_steps=n_steps)


class _Background:
    """A generator run an item at a time in another loop's idle moments.

    ``step`` advances it by one item and says whether it may go on;
    ``result`` runs what is left and returns the generator's value.  An
    exception the generator raises is held until ``result``, so the loop
    it rode on finishes first.  A job run to its end in a forked process
    comes back through ``outcome`` there and ``settle`` here.
    """

    def __init__(self, gen):
        self._gen = gen
        self.done = False
        self._value = self._error = None

    def step(self):
        if self.done:
            return False
        try:
            next(self._gen)
            return True
        except StopIteration as stop:
            self._value = stop.value
        except Exception as exc:  # raised again by result()
            self._error = exc
        self.done = True
        return False

    def result(self):
        while self.step():
            pass
        if self._error is not None:
            raise self._error
        return self._value

    def outcome(self):
        """The finished job's value and exception, pickled for
        :meth:`settle`.  An exception that does not come back from
        pickling whole is sent as an InternalInconsistencyError naming its
        type and message."""
        error = self._error
        if error is not None:
            try:
                pickle.loads(pickle.dumps(error))
            except Exception:
                error = InternalInconsistencyError(
                    f"background job failed with {type(error).__name__}: "
                    f"{error}")
        return pickle.dumps((self._value, error))

    def settle(self, data):
        """Finish with the :meth:`outcome` another process sent; none, or
        part of one (that process ended first), holds an
        InternalInconsistencyError."""
        try:
            self._value, self._error = pickle.loads(data)
        except Exception:
            self._error = InternalInconsistencyError(
                "the process running the background job ended before "
                "sending its result")
        self._gen, self.done = None, True


def diffusion_summary(basis, noise):
    """Period-averaged v^T v: the effective phase-diffusion rate."""
    return float(np.mean(_diffusion(basis.projection(noise.G), basis.ts)))


def ensemble_to_csv(ens, path):
    with open(path, "w", newline="") as fh:
        fh.write("t,mean_psi,var_psi,n_paths,seed\n")
        for t, m, v in zip(ens.ts, ens.mean, ens.var):
            fh.write(f"{t:.17g},{m:.17g},{v:.17g},{ens.n_paths},{ens.seed}\n")


def density_to_csv(dens, path):
    with open(path, "w", newline="") as fh:
        fh.write("t,psi,p\n")
        # one "psi,%.17g\n" cell per grid point, joined on each snapshot's
        # "t," prefix: a snapshot is one join and one % format
        cells = [""] + [f"{x:.17g},%.17g\n" for x in dens.psi.tolist()]
        for t, row in zip(dens.ts.tolist(), dens.p.tolist()):
            fh.write(f"{t:.17g},".join(cells) % tuple(row))
