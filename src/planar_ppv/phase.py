"""Deterministic phase macromodel.

The phase deviation obeys the scalar nonautonomous ODE
``dpsi/dt = eps * u(t) * v1(t + psi)^T G(x0(t + psi))`` for separable
forcing g = G(x) u(t); the state dependence is the periodic projection
``basis.projection(G)``, so one simulation costs O(steps) regardless of
how the cycle was obtained.

Under injection u = cos(omega_inj t) the phase theta = t + psi obeys
theta' = 1 + eps cos(omega_inj t) proj(theta), periodic in t (period
T_inj = 2 pi / omega_inj) and in theta (period T), so its map over one
forcing period lifts a circle map (Adler, Proc. IRE 34, 1946).  Lock
verdicts and frequency shifts come from that map, with no horizon: a
point locks 1:1 iff D(theta) = Psi(theta) - theta - (T - T_inj) changes
sign, and an unlocked point's shift is the map's rotation number, a
smooth-weighted Birkhoff average (Das et al., Nonlinearity 30, 2017).
The lock scan evaluates the map at _MAP_PHASES phases for every detuning
of an eps row as one vectorized state over one forcing period, reading
the projection through ``spline._HornerKernel``.
"""

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import ode
from .errors import ArgumentError
from .spline import PeriodicSpline, _HornerKernel

__all__ = ["Perturbation", "PhasePath", "PPVSpectrum", "simulate_phase",
           "ppv_fourier", "injection_lock_scan", "LockMap", "spectrum_to_csv",
           "lockmap_to_csv"]

_N_STORE = 2000  # psi samples per path
_RTOL = 1e-8  # of simulate_phase's psi integration
_MAP_PHASES = 64  # initial phases per detuning on the one-period map
_MAP_RTOL = 1e-10
_BIRKHOFF_ITERS = 4096  # map iterations per unlocked rotation number
# rows with more unlocked maps iterate them together on NumPy arrays:
# the per-map loop's cost grows with the row, and from about 25 maps
# it exceeds the array loop's, which hardly does
_BIRKHOFF_PER_MAP_MAX = 20


def _bump_weights(n):
    """Das et al.'s weights exp(-1 / (t (1 - t))) at n interior points."""
    t = np.arange(1, n + 1) / (n + 1.0)
    w = np.exp(-1.0 / (t * (1.0 - t)))
    return w / w.sum()


_BIRKHOFF_WEIGHTS = _bump_weights(_BIRKHOFF_ITERS).tolist()


@dataclass(frozen=True)
class Perturbation:
    """Separable deterministic forcing g(x, t) = G(x) u(t), strength eps.

    ``G`` maps a cycle point to a (2,) input direction and ``u`` is the
    scalar time profile.  ``omega_inj`` marks an injection
    u = cos(omega_inj t).  Noise is not a perturbation: the stochastic
    module takes a :class:`~planar_ppv.stochastic.NoiseModel` directly.
    """

    eps: float
    G: object
    u: object
    omega_inj: float = None

    def __post_init__(self):
        if not self.eps >= 0 or not math.isfinite(self.eps):  # NaN fails
            raise ArgumentError("eps must be finite and non-negative")

    @classmethod
    def sinusoidal(cls, amp, omega_inj, eps):
        """Additive injection g(x, t) = amp * cos(omega_inj t)."""
        amp = np.asarray(amp, dtype=float)
        omega_inj = float(omega_inj)
        return cls(eps=float(eps), G=lambda x: amp,
                   u=lambda t: np.cos(omega_inj * t),
                   omega_inj=omega_inj)

    @classmethod
    def along_flow(cls, model, eps):
        """g = f: projects to exactly 1, so dpsi/dt = eps identically."""
        return cls(eps=float(eps), G=model.field, u=lambda t: 1.0)

    @classmethod
    def zero(cls):
        return cls(eps=0.0, G=lambda x: np.zeros(2), u=lambda t: 0.0)


@dataclass(frozen=True)
class PhasePath:
    """psi(t) trajectory with the lock verdict and mean frequency shift."""

    ts: np.ndarray
    psi: np.ndarray
    locked: bool
    mean_freq_shift: float
    omega: float
    detuning: float = None

    @property
    def mean_slope(self):
        return self.mean_freq_shift / self.omega

    @property
    def beat(self):
        """Residual beat frequency against the injected tone."""
        if self.detuning is None:
            return None
        return self.detuning - self.mean_freq_shift


def _rhs(proj, eps, u):
    """rhs(t, psi) = eps u(t) proj(t + psi), elementwise in psi."""

    def rhs(t, psi):
        return eps * u(t) * proj.values(np.add(t, psi))[0]

    return rhs


def _period_map(proj, T, eps, omega_inj):
    """D(theta_m) = Psi(theta_m) - theta_m - (T - T_inj), theta_m = m T / M.

    Psi is the map of psi over one forcing period.  Every detuning's M
    phases are one (n * M,) state integrated over s in [0, 1], t = s T_inj,
    so the whole row shares one step sequence and one read-out kernel.
    Returns D as (n, M).
    """
    n, M = len(omega_inj), _MAP_PHASES
    t_inj = (2.0 * np.pi / omega_inj)[:, None]
    theta = np.arange(M) * (T / M)
    scale = eps * t_inj
    read = _HornerKernel(proj, (n, M))

    def rhs(s, psi):
        return (scale * np.cos(2.0 * np.pi * s)
                * read(s * t_inj, psi.reshape(n, M))).ravel()

    traj = ode.integrate(rhs, np.tile(theta, n), 0.0, 1.0, rtol=_MAP_RTOL,
                         atol=1e-12, dense=False)
    return traj.final.reshape(n, M) - theta - (T - t_inj)


def _piece_extrema(c, h):
    """Min and max over [0, h] of cubics sum_k c[k] x^(3-k), per column."""
    a, b, d = 3.0 * c[0], 2.0 * c[1], c[2]
    disc = b * b - 4.0 * a * d
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -0.5 * (b + np.copysign(np.sqrt(disc), b))
        xs = np.stack([np.zeros_like(a), np.full_like(a, h), q / a, d / q])
    xs = np.where((xs >= 0.0) & (xs <= h), xs, 0.0)  # drops nan as well
    vals = ((c[0] * xs + c[1]) * xs + c[2]) * xs + c[3]
    return vals.min(axis=(0, 1)), vals.max(axis=(0, 1))


def _lock_row(proj, T, omega, eps, detuning):
    """Lock verdicts and mean frequency shifts of one eps row.

    A point locks 1:1 iff D changes sign on its periodic spline: then the
    shift is its detuning exactly.  Otherwise the shift is the rotation
    number of theta <- theta + T + D(theta), a smooth-weighted Birkhoff
    average over _BIRKHOFF_ITERS iterations, per unlocked point.
    """
    omega_inj = omega + detuning
    for dw, w in zip(detuning, omega_inj):
        if not w > 0:
            raise ArgumentError(f"detuning {dw:.17g} puts the injection "
                                f"frequency at {w:.17g} <= 0")
    M = _MAP_PHASES
    h = T / M
    D = _period_map(proj, T, eps, omega_inj)
    spl = PeriodicSpline.interpolate(np.arange(M + 1) * h,
                                     np.vstack([D.T, D.T[:1]]))
    lo, hi = _piece_extrema(spl.c, h)
    locked = (lo <= 0.0) & (hi >= 0.0)
    shift = detuning.copy()
    free = np.flatnonzero(~locked)
    if free.size:
        t_inj = 2.0 * np.pi / omega_inj[free]
        mean_d = _birkhoff_mean(spl.c[:, :, free], h, T)
        shift[free] = omega * (T + mean_d - t_inj) / t_inj
    return locked, shift


def _birkhoff_mean(c, h, T):
    """Weighted Birkhoff average of D along theta <- theta + D(theta) mod T.

    ``c`` holds the periodic spline's cubic pieces, (4, M, k) for k maps,
    each iterated from theta = 0.  Up to _BIRKHOFF_PER_MAP_MAX maps run
    one by one on Python floats: ``//``, ``%`` and the Horner steps round
    as NumPy's elementwise ufuncs do, without their per-call overhead.
    That overhead is about the same per iteration for any k, so wider
    rows run all their maps together on arrays.  Both give the same bits.
    """
    if c.shape[2] > _BIRKHOFF_PER_MAP_MAX:
        return _birkhoff_mean_arrays(c, h, T)
    last = c.shape[1] - 1
    h, T = float(h), float(T)
    means = []
    for pieces in c.transpose(2, 1, 0).tolist():  # (M, 4) per map
        theta = mean = 0.0
        for w in _BIRKHOFF_WEIGHTS:
            i = min(int(theta // h), last)
            x = theta - i * h
            c0, c1, c2, c3 = pieces[i]
            d = ((c0 * x + c1) * x + c2) * x + c3
            mean += w * d
            theta = (theta + d) % T
        means.append(mean)
    return np.array(means)


def _birkhoff_mean_arrays(c, h, T):
    """:func:`_birkhoff_mean` with the k maps iterated together."""
    cols = np.arange(c.shape[2])
    theta = np.zeros(c.shape[2])
    mean = np.zeros(c.shape[2])
    for w in _BIRKHOFF_WEIGHTS:
        i = np.minimum((theta // h).astype(int), c.shape[1] - 1)
        x = theta - i * h
        ci = c[:, i, cols]
        d = ((ci[0] * x + ci[1]) * x + ci[2]) * x + ci[3]
        mean += w * d
        theta = np.mod(theta + d, T)
    return mean


def simulate_phase(basis, pert, t_end):
    """Integrate the phase-deviation ODE from psi(0) = 0.

    Under injection (``pert.omega_inj`` set) the lock verdict and the
    frequency shift come from the one-period map, as in
    :func:`injection_lock_scan`; otherwise the shift is omega psi(t_end) /
    t_end, exact for :meth:`Perturbation.along_flow`.
    """
    if t_end <= 0:
        raise ArgumentError("t_end must be positive")
    proj = basis.projection(pert.G)
    traj = ode.integrate(_rhs(proj, pert.eps, pert.u), [0.0], 0.0, t_end,
                         rtol=_RTOL, atol=1e-12)
    ts = np.linspace(0.0, t_end, _N_STORE)
    psi = traj(ts)[0]
    omega = basis.omega
    if pert.omega_inj is None:
        return PhasePath(ts=ts, psi=psi, locked=False,
                         mean_freq_shift=omega * psi[-1] / t_end, omega=omega)
    detuning = pert.omega_inj - omega
    (locked,), (shift,) = _lock_row(proj, basis.cycle.T, omega, pert.eps,
                                    np.array([detuning]))
    return PhasePath(ts=ts, psi=psi, locked=bool(locked),
                     mean_freq_shift=float(shift), omega=omega,
                     detuning=detuning)


@dataclass(frozen=True)
class PPVSpectrum:
    """Fourier coefficients V_k of v1(t) = sum_k V_k e^{i k omega t}."""

    ks: np.ndarray
    Vx: np.ndarray
    Vy: np.ndarray
    omega: float

    def coefficient(self, k):
        i = np.flatnonzero(self.ks == k)
        if i.size == 0:
            raise ArgumentError(f"no V_k at k = {k}; |k| <= {self.ks[-1]}")
        return np.array([self.Vx[i[0]], self.Vy[i[0]]])

    def reconstruct(self, t):
        t = np.asarray(t, dtype=float)
        ph = np.exp(1j * np.outer(self.ks, self.omega * t))
        return np.real(np.stack([self.Vx @ ph, self.Vy @ ph]))

    def mass(self):
        """Parseval mass per harmonic index: |V_k|^2 summed over components."""
        return np.abs(self.Vx) ** 2 + np.abs(self.Vy) ** 2


def ppv_fourier(basis, K):
    """Spectral coefficients of v1 by FFT over the uniform basis grid."""
    n = basis.n
    if not isinstance(K, (int, np.integer)) or K < 1:
        raise ArgumentError("need an integer K >= 1")
    if K > n // 2 - 1:
        raise ArgumentError(f"K = {K} beyond grid Nyquist ({n // 2 - 1})")
    cx = np.fft.fft(basis.v1_grid[:, 0]) / n
    cy = np.fft.fft(basis.v1_grid[:, 1]) / n
    ks = np.arange(-K, K + 1)
    return PPVSpectrum(ks=ks, Vx=cx[ks], Vy=cy[ks], omega=basis.omega)


@dataclass(frozen=True)
class LockMap:
    """Lock-scan results ordered by (eps, detuning) grid index."""

    rows: tuple  # (eps, delta_omega, locked, mean_freq_shift)
    boundaries: dict = dc_field(default_factory=dict)  # eps -> max locked |dw|
    # eps -> whether that |dw| is a locked end point of the grid, so that
    # the tongue may reach beyond the grid
    beyond_grid: dict = dc_field(default_factory=dict)


def injection_lock_scan(basis, amp, eps_list, detuning_grid):
    """Sweep sinusoidal injection over strength and detuning grids.

    Records the lock flag and mean frequency shift per grid point and an
    Arnold-tongue boundary estimate (largest locked |detuning|) per eps,
    flagged in ``beyond_grid`` where it is the grid's first or last
    point, so that the grid bounds the estimate, not the tongue.
    Each eps row is one integration of the one-period map over the
    projection of ``amp``, built once; a one-point grid gives exactly
    :func:`simulate_phase`'s verdict and shift at that point.
    """
    eps_list = list(eps_list)
    detuning_grid = list(detuning_grid)
    if not eps_list or not detuning_grid:
        raise ArgumentError("empty scan grid")
    if not all(eps >= 0 and math.isfinite(eps) for eps in eps_list):
        raise ArgumentError("every eps must be finite and non-negative")
    amp = np.asarray(amp, dtype=float)
    proj = basis.projection(lambda x: amp)
    detuning = np.array(detuning_grid, dtype=float)

    rows = []
    boundaries, beyond_grid = {}, {}
    for eps in eps_list:
        locked, shift = _lock_row(proj, basis.cycle.T, basis.omega, eps,
                                  detuning)
        best = 0.0
        for dw, lk, sh in zip(detuning_grid, locked, shift):
            rows.append((eps, dw, bool(lk), float(sh)))
            if lk:
                best = max(best, abs(dw))
        boundaries[eps] = best
        beyond_grid[eps] = any(locked[k] and abs(detuning_grid[k]) == best
                               for k in (0, -1))
    return LockMap(rows=tuple(rows), boundaries=boundaries,
                   beyond_grid=beyond_grid)


def spectrum_to_csv(spec, path):
    with open(path, "w", newline="") as fh:
        fh.write("k,Re_Vkx,Im_Vkx,Re_Vky,Im_Vky\n")
        for k, vx, vy in zip(spec.ks, spec.Vx, spec.Vy):
            fh.write(f"{k:d},{vx.real:.17g},{vx.imag:.17g},"
                     f"{vy.real:.17g},{vy.imag:.17g}\n")


def lockmap_to_csv(lockmap, path):
    with open(path, "w", newline="") as fh:
        fh.write("eps,delta_omega,locked,mean_freq_shift\n")
        for eps, dw, locked, shift in lockmap.rows:
            fh.write(f"{eps:.17g},{dw:.17g},{int(locked)},{shift:.17g}\n")
