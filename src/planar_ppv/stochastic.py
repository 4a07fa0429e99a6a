"""Noise-driven phase model: SDE ensembles and a Fokker-Planck solver.

The phase SDE is read in the Ito sense, dpsi = v(t+psi)^T dW with
v(t)^T = v1(t)^T G(x0(t)), the periodic interpolant
``basis.projection(noise.G)``; the Fokker-Planck solver uses the matching
density equation dp/dt = d/dpsi[ (v dv^T/dpsi) p + (1/2) v^T v dp/dpsi ],
so ensemble statistics and densities agree by construction.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, InstabilityError

__all__ = ["NoiseModel", "PhaseEnsemble", "DensityField",
           "simulate_sde_ensemble", "solve_fp", "diffusion_summary",
           "ensemble_to_csv", "density_to_csv"]


def _intensity(sigma):
    """sigma as a float; a negative noise intensity is rejected."""
    s = float(sigma)
    if s < 0:
        raise ArgumentError("sigma must be non-negative")
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
        nd = np.linalg.norm(d)
        if nd == 0:
            raise ArgumentError("zero noise direction")
        d = d / nd
        s = _intensity(sigma)
        return cls(G=lambda x: (s * d)[:, None])


# Steps of Wiener increments drawn per chunk.  A chunk x n_paths x m buffer
# bounds the ensemble's memory independently of n_steps; each chunk costs
# one draw call per path.  At 4096 paths x 3000 steps x 2 channels on a
# 2-vCPU x86_64 host (medians of 8 alternating rounds) chunks of 64, 128
# and 256 steps took 1.62, 1.45 and 1.40 s, with buffers of 8, 17 and 34 MB.
# solve_fp evaluates its spline terms for a block of as many steps at once.
_CHUNK = 128
# Paths drawn and transposed together.  The transpose of a chunk into the
# (step, channel, path) layout took 6.5 ms over all 4096 paths at once and
# 3.0-3.3 ms in blocks of 128 to 512 paths, whose 0.25-1 MB source stays in
# cache (same host, 128 steps x 2 channels, medians of 30).
_PATH_BLOCK = 256


def _stored_steps(n_steps, n_store):
    """Steps to store: 0, every (n_steps // (n_store - 1))-th, the last."""
    if n_store < 2:
        raise ArgumentError("need n_store >= 2")
    stride = max(1, n_steps // (n_store - 1))
    return set(range(0, n_steps + 1, stride)) | {n_steps}


def _channel_dot(a, b):
    """sum_k a[k] b[k] over the leading channel axis, the products added
    in index order and accumulated in place in a.

    Every channel sum of the noise layer is this one: v^T dW in the SDE
    step, the Fokker-Planck drift and diffusion, its stability bound and
    the diffusion rate.  Below 8 channels index order is np.sum's order,
    whose sums start from +0.0 instead of the first product.
    """
    acc = a[0]
    acc *= b[0]
    for ak, bk in zip(a[1:], b[1:]):
        ak *= bk
        acc += ak
    return acc


def _fp_coefficients(spline, theta):
    """The drift v dv^T/dpsi and diffusion (1/2) v^T v at theta, summed
    over the channels by :func:`_channel_dot`.  The drift then adds +0.0,
    so that below 8 channels it is np.sum's to the bit: a drift of -0.0
    products reads +0.0.  A sum of squares is never -0.0."""
    v, dv = spline.values(theta, derivative=True)
    drift = _channel_dot(dv, v)
    drift += 0.0
    diff = _channel_dot(v, v)
    diff *= 0.5
    return drift, diff


@dataclass(frozen=True)
class PhaseEnsemble:
    """Monte-Carlo mean/variance curves of the phase deviation."""

    ts: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    n_paths: int
    seed: int


def simulate_sde_ensemble(basis, noise, n_paths, t_end, dt, seed,
                          n_store=201):
    """Euler-Maruyama ensemble of dpsi = v(t+psi)^T dW, psi(0) = 0.

    Per-path Wiener substreams are keyed by (seed, path index), so
    growing the ensemble never reshuffles existing paths, and identical
    seeds give bit-identical statistics.  The increments are drawn a fixed
    number of steps at a time, so memory does not grow with n_steps.
    """
    if n_paths < 1:
        raise ArgumentError("need n_paths >= 1")
    if dt <= 0:
        raise ArgumentError("dt must be positive")
    if t_end <= 0:
        raise ArgumentError("t_end must be positive")
    if dt > basis.cycle.T / 100.0:
        raise ArgumentError(
            f"dt = {dt} too large; need dt <= T/100 = {basis.cycle.T / 100:g}")
    n_steps = int(round(t_end / dt))
    store_set = _stored_steps(n_steps, n_store)
    spline = basis.projection(noise.G)
    m = spline.c[0, 0].size

    # Each chunk continues every path's stream: block by block, each path
    # fills its own contiguous row of z, then one multiply lays the block
    # out as (step, channel, path) in dW, so each step reads one
    # contiguous row of increments per channel.
    sq = np.sqrt(dt)
    rngs = [np.random.default_rng([int(seed), i]) for i in range(n_paths)]
    z = np.empty((min(_PATH_BLOCK, n_paths), min(_CHUNK, n_steps), m))
    dW = np.empty((min(_CHUNK, n_steps), m, n_paths))

    psi = np.zeros(n_paths)
    ts_out, mean_out, var_out = [], [], []

    def record(j):
        ts_out.append(j * dt)
        mean_out.append(np.mean(psi))
        var_out.append(np.var(psi, ddof=1) if n_paths > 1 else 0.0)

    record(0)
    for j0 in range(0, n_steps, _CHUNK):
        k = min(_CHUNK, n_steps - j0)
        for p0 in range(0, n_paths, _PATH_BLOCK):
            block = rngs[p0:p0 + _PATH_BLOCK]
            for zi, rng in zip(z, block):
                rng.standard_normal(out=zi[:k])
            np.multiply(sq, z[:len(block), :k].transpose(1, 2, 0),
                        out=dW[:k, :, p0:p0 + len(block)])
        for j in range(j0, j0 + k):
            psi += _channel_dot(spline.values(j * dt + psi), dW[j - j0])
            if (j + 1) in store_set:
                record(j + 1)
    return PhaseEnsemble(ts=np.array(ts_out), mean=np.array(mean_out),
                         var=np.array(var_out), n_paths=n_paths,
                         seed=int(seed))


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
    initial condition is a narrow Gaussian at psi = 0; far boundaries
    are absorbing (place them >= 8 predicted standard deviations out).

    ``dt`` is an upper bound: the step is t_end / n for the smallest n
    whose step does not exceed min(dt, 0.4 dpsi^2 / max v^T v), the
    stability limit of the scheme, so the last snapshot falls on t_end.
    A density below -1e-12 after any step raises ``InstabilityError``.
    """
    if t_end <= 0:
        raise ArgumentError("t_end must be positive")
    if dt <= 0:
        raise ArgumentError("dt must be positive")
    psi = np.asarray(psi_grid, dtype=float)
    d = np.diff(psi)
    if psi.size < 8 or not np.allclose(d, d[0], rtol=1e-10, atol=0):
        raise ArgumentError("psi grid must be uniform")
    dpsi = float(d[0])

    spline = basis.projection(noise.G)
    v = spline.values(basis.ts)
    vsq_max = float(np.max(_channel_dot(v, v)))
    if vsq_max > 0:
        dt = min(dt, 0.4 * dpsi ** 2 / vsq_max)

    w = init_width if init_width is not None else 4.0 * dpsi
    p = np.exp(-0.5 * (psi / w) ** 2)
    p /= np.sum(p) * dpsi

    n_steps = int(np.ceil(t_end / dt))
    dt = t_end / n_steps
    store_idx = _stored_steps(n_steps, n_store)

    half = psi[:-1] + 0.5 * dpsi
    ts_out, p_out = [0.0], [p.copy()]
    for j0 in range(0, n_steps, _CHUNK):
        # v dv^T/dpsi and (1/2) v^T v at the half points of a block of steps
        steps = np.arange(j0, min(j0 + _CHUNK, n_steps))
        drifts, diffs = _fp_coefficients(spline, (steps * dt)[:, None] + half)
        for j, drift, diff in zip(steps.tolist(), drifts, diffs):
            t = j * dt
            # flux J_{i+1/2} = -[ drift * p_half + diff * dp/dpsi ]
            p_half = 0.5 * (p[:-1] + p[1:])
            J = -(drift * p_half + diff * (p[1:] - p[:-1]) / dpsi)
            p[1:-1] += dt * (J[:-1] - J[1:]) / dpsi
            p[0] = 0.0   # absorbing far boundaries
            p[-1] = 0.0
            p_min = np.min(p)
            if p_min < -1e-12:
                raise InstabilityError(
                    f"negative density {p_min:.3e} at t = {t + dt:g}")
            if (j + 1) in store_idx:
                ts_out.append((j + 1) * dt)
                p_out.append(p.copy())
    return DensityField(psi=psi, ts=np.array(ts_out),
                        p=np.array(p_out), dpsi=dpsi, n_steps=n_steps)


def diffusion_summary(basis, noise):
    """Period-averaged v^T v: the effective phase-diffusion rate."""
    v = basis.projection(noise.G).values(basis.ts)
    return float(np.mean(_channel_dot(v, v)))


def ensemble_to_csv(ens, path):
    with open(path, "w", newline="") as fh:
        fh.write("t,mean_psi,var_psi,n_paths,seed\n")
        for t, m, v in zip(ens.ts, ens.mean, ens.var):
            fh.write(f"{t:.17g},{m:.17g},{v:.17g},{ens.n_paths},{ens.seed}\n")


def density_to_csv(dens, path):
    with open(path, "w", newline="") as fh:
        fh.write("t,psi,p\n")
        xs = [f"{x:.17g}" for x in dens.psi.tolist()]
        for t, row in zip(dens.ts.tolist(), dens.p.tolist()):
            t_str = f"{t:.17g}"
            fh.writelines(f"{t_str},{x},{pv:.17g}\n"
                          for x, pv in zip(xs, row))
