"""Adaptive explicit Runge-Kutta integration with dense output.

Thin contract layer over scipy's two Dormand-Prince pairs, both with
embedded error control and dense output:

- ``"DOP853"``, the 8(5,3) pair with a 7th-order interpolant, for the
  smooth, analytic planar flows (settle, first return, augmented
  (x, Phi) flow that is also the dense cycle, (div f, a) quadrature,
  adjoint oracle, isochron endpoints).  At their rtol of 1e-10 to 1e-12
  it takes a fraction of the 5(4) pair's steps.
- ``"RK45"``, the 5(4) pair with a quartic interpolant (the default),
  for the phase ODE (the psi path of ``simulate_phase`` and the lock
  scan's one-period map), whose right-hand side is a C^2 cubic spline:
  the 8th-order error estimate keeps tripping over the spline's knots,
  and there the lower-order pair needs fewer calls.
"""

import numpy as np
from scipy.integrate import solve_ivp

from .errors import ArgumentError, IntegrationFailureError

__all__ = ["Trajectory", "integrate"]

_METHODS = ("RK45", "DOP853")


class Trajectory:
    """Immutable dense-output solution of an initial value problem.

    ``nfev``, ``njev`` and ``status`` are the integrator's statistics:
    right-hand-side calls, Jacobian evaluations (0 for explicit RK) and
    its termination status (0: reached the end of the span).
    """

    def __init__(self, ts, ys, sol, nfev, njev, status):
        self.ts = ts
        self.ys = ys  # shape (n_samples, dim)
        self._sol = sol
        self.nfev = nfev
        self.njev = njev
        self.status = status

    @property
    def t1(self):
        return self.ts[-1]

    def __call__(self, t):
        """Dense-output evaluation; scalar or array time argument."""
        return self._sol(t)

    @property
    def final(self):
        return self.ys[-1]


def integrate(rhs, x0, t0, t1, rtol=1e-10, atol=1e-12, events=None,
              method="RK45"):
    """Integrate ``dx/dt = rhs(t, x)`` over [t0, t1] with dense output;
    a terminal ``solve_ivp`` event in ``events`` ends it there (status 1).
    ``method`` names the Dormand-Prince pair: ``"RK45"`` or ``"DOP853"``."""
    if method not in _METHODS:
        raise ArgumentError(f"unknown method {method!r}; use {_METHODS}")
    if not t1 > t0:
        raise ArgumentError(f"need t1 > t0, got [{t0}, {t1}]")
    if rtol <= 0 or atol <= 0:
        raise ArgumentError("tolerances must be positive")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    res = solve_ivp(rhs, (t0, t1), x0, method=method,
                    rtol=rtol, atol=atol, dense_output=True, events=events)
    if not res.success:
        raise IntegrationFailureError(
            f"integration failed at t={res.t[-1]:.6g}: {res.message}",
            last_t=res.t[-1])
    return Trajectory(res.t, res.y.T, res.sol, res.nfev, res.njev,
                      res.status)

