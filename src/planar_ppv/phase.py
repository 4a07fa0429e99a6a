"""Deterministic phase macromodel.

The phase deviation obeys the scalar nonautonomous ODE
``dpsi/dt = eps * u(t) * v1(t + psi)^T G(x0(t + psi))`` for separable
forcing g = G(x) u(t); the state dependence is the periodic projection
``basis.projection(G)``, so one simulation costs O(steps) regardless of
how the cycle was obtained.  Independent deviations that share eps, G and
a horizon integrate together as one vector state: the lock scan runs each
eps row of its detuning grid as a single integration.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import ode
from .errors import ArgumentError

__all__ = ["Perturbation", "PhasePath", "PPVSpectrum", "phase_rhs",
           "simulate_phase", "ppv_fourier", "injection_lock_scan",
           "LockMap", "spectrum_to_csv", "lockmap_to_csv"]

_LOCK_SLOPE_TOL = 1e-4
_N_STORE = 2000  # psi samples per path


@dataclass(frozen=True)
class Perturbation:
    """Separable deterministic forcing g(x, t) = G(x) u(t), strength eps.

    ``G`` maps a cycle point to a (2,) input direction and ``u`` is the
    scalar time profile.  Noise is not a perturbation: the stochastic
    module takes a :class:`~planar_ppv.stochastic.NoiseModel` directly.
    """

    eps: float
    G: object
    u: object
    omega_inj: float = None

    def __post_init__(self):
        if self.eps < 0:
            raise ArgumentError("eps must be non-negative")

    @classmethod
    def sinusoidal(cls, amp, omega_inj, eps, phase=0.0):
        """Additive injection g(x, t) = amp * cos(omega_inj t + phase)."""
        amp = np.asarray(amp, dtype=float)
        omega_inj, phase = float(omega_inj), float(phase)
        return cls(eps=float(eps), G=lambda x: amp,
                   u=lambda t: np.cos(omega_inj * t + phase),
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
    """psi(t) trajectory with final-window lock diagnostics."""

    ts: np.ndarray
    psi: np.ndarray
    locked: bool
    mean_slope: float
    omega: float
    detuning: float = None

    @property
    def mean_freq_shift(self):
        return self.omega * self.mean_slope

    @property
    def beat(self):
        """Residual beat frequency against the injected tone."""
        if self.detuning is None:
            return None
        return self.detuning - self.mean_freq_shift


def _rhs(proj, eps, u):
    """rhs(t, psi) = eps u(t) proj(t + psi), elementwise in psi."""

    def rhs(t, psi):
        return eps * u(t) * proj(np.add(t, psi))

    return rhs


def phase_rhs(basis, pert):
    """Right-hand side rhs(t, [psi]) = eps u(t) v1(t+psi)^T G(x0(t+psi)).

    The state dependence enters only through the periodic projection
    ``basis.projection(pert.G)``, built once here.
    """
    return _rhs(basis.projection(pert.G), pert.eps, pert.u)


def _integrate_phase(rhs, n, t_end, rtol, n_store):
    """n phase deviations from psi(0) = 0, integrated as one (n,) state.

    Returns the sample times (n_store,), psi (n, n_store) and each row's
    least-squares slope over the last fifth of the horizon.  The step
    sequence is shared, so the error control sees the RMS over the rows.
    """
    # RK45, not DOP853: the RHS is a C^2 spline (see ``ode``)
    traj = ode.integrate(rhs, np.zeros(n), 0.0, t_end, rtol=rtol, atol=1e-12,
                         method="RK45")
    ts = np.linspace(0.0, t_end, n_store)
    psi = traj(ts)
    tail = ts >= 0.8 * t_end
    slope = np.polyfit(ts[tail], psi[:, tail].T, 1)[0]
    return ts, psi, slope


def _is_locked(slope, detuning, omega):
    """Tail slope within _LOCK_SLOPE_TOL of the detuning's phase slope."""
    return np.abs(slope - detuning / omega) < _LOCK_SLOPE_TOL


def simulate_phase(basis, pert, t_end, rtol=1e-8, n_store=_N_STORE):
    """Integrate the phase-deviation ODE from psi(0) = 0."""
    if t_end <= 0:
        raise ArgumentError("t_end must be positive")
    ts, psi, slope = _integrate_phase(phase_rhs(basis, pert), 1, t_end,
                                      rtol, n_store)
    omega = basis.omega
    locked = False
    detuning = None
    if pert.omega_inj is not None:
        detuning = pert.omega_inj - omega
        locked = bool(_is_locked(slope[0], detuning, omega))
    return PhasePath(ts=ts, psi=psi[0], locked=locked,
                     mean_slope=float(slope[0]), omega=omega,
                     detuning=detuning)


@dataclass(frozen=True)
class PPVSpectrum:
    """Fourier coefficients V_k of v1(t) = sum_k V_k e^{i k omega t}."""

    ks: np.ndarray
    Vx: np.ndarray
    Vy: np.ndarray
    omega: float

    def coefficient(self, k):
        i = int(np.nonzero(self.ks == k)[0][0])
        return np.array([self.Vx[i], self.Vy[i]])

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
    if K < 1:
        raise ArgumentError("need K >= 1")
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


def injection_lock_scan(basis, amp, eps_list, detuning_grid, t_end=None,
                        rtol=1e-8):
    """Sweep sinusoidal injection over strength and detuning grids.

    Records the lock flag and mean frequency shift per grid point and an
    Arnold-tongue boundary estimate (largest locked |detuning|) per eps.
    Each eps row integrates every detuning as one vectorized state over
    the projection of ``amp``, built once; a one-point grid is exactly
    :func:`simulate_phase` at that point.
    """
    eps_list = list(eps_list)
    detuning_grid = list(detuning_grid)
    if not eps_list or not detuning_grid:
        raise ArgumentError("empty scan grid")
    amp = np.asarray(amp, dtype=float)
    proj = basis.projection(lambda x: amp)
    omega = basis.omega
    omega_inj = omega + np.array(detuning_grid, dtype=float)
    detuning = omega_inj - omega  # as simulate_phase rounds it

    def u(t):
        return np.cos(omega_inj * t)

    rows = []
    boundaries = {}
    for eps in eps_list:
        horizon = t_end if t_end is not None else max(400.0, 8.0 / eps)
        _, _, slope = _integrate_phase(_rhs(proj, eps, u), len(omega_inj),
                                       horizon, rtol, _N_STORE)
        best = 0.0
        for dw, s, lk in zip(detuning_grid, slope,
                             _is_locked(slope, detuning, omega)):
            rows.append((eps, dw, bool(lk), omega * float(s)))
            if lk:
                best = max(best, abs(dw))
        boundaries[eps] = best
    return LockMap(rows=tuple(rows), boundaries=boundaries)


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
