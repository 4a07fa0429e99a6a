"""Adaptive explicit Runge-Kutta integration with dense output.

Thin contract layer over the Dormand-Prince 5(4) pair (scipy's ``RK45``):
embedded error control and a quartic dense-output interpolant.
"""

import numpy as np
from scipy.integrate import solve_ivp

from .errors import ArgumentError, IntegrationFailureError

__all__ = ["Trajectory", "integrate"]


class Trajectory:
    """Immutable dense-output solution of an initial value problem."""

    def __init__(self, ts, ys, sol, rtol, atol):
        self.ts = ts
        self.ys = ys  # shape (n_samples, dim)
        self._sol = sol
        self.rtol = rtol
        self.atol = atol

    @property
    def t0(self):
        return self.ts[0]

    @property
    def t1(self):
        return self.ts[-1]

    @property
    def dim(self):
        return self.ys.shape[1]

    def __call__(self, t):
        """Dense-output evaluation; scalar or array time argument."""
        return self._sol(t)

    @property
    def final(self):
        return self.ys[-1]


def integrate(rhs, x0, t0, t1, rtol=1e-10, atol=1e-12):
    """Integrate ``dx/dt = rhs(t, x)`` over [t0, t1] with dense output."""
    if not t1 > t0:
        raise ArgumentError(f"need t1 > t0, got [{t0}, {t1}]")
    if rtol <= 0 or atol <= 0:
        raise ArgumentError("tolerances must be positive")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    res = solve_ivp(rhs, (t0, t1), x0, method="RK45",
                    rtol=rtol, atol=atol, dense_output=True)
    if not res.success:
        raise IntegrationFailureError(
            f"integration failed at t={res.t[-1]:.6g}: {res.message}",
            last_t=res.t[-1])
    return Trajectory(res.t, res.y.T, res.sol, rtol, atol)

