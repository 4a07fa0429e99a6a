"""Limit-cycle location by Poincare shooting on exact derivatives.

``find_cycle`` relaxes the trajectory onto the attractor and erects a
section through the relaxed point p, normal to the flow.  Newton polishes
(point, period) on the augmented state (x, Phi, I_div, I_a), whose
endpoint supplies the exact shooting Jacobian Phi(T) - I; its first flow,
from p, ends at the first return time T, a terminal event on n.(x - p),
and later flows run over [0, T].  The last flow, with closure residual
below tolerance, is the cycle's dense output.  It also carries the
closed-form basis's two scalar quadratures (``diliberto``): I_div, the
integral of the model's divergence, with b = exp(I_div), and I_a = a,
stepped on the flow itself at Newton's tolerances.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import ode
from .errors import ArgumentError, CycleNotFoundError, NoOscillationError
from .models import OscillatorModel

__all__ = ["LimitCycle", "find_cycle", "sample_cycle", "cycle_to_csv"]

_MAX_NEWTON = 50
_FIXED_POINT_TOL = 1e-8
_RTOL = 1e-12
_MAX_RETURN_TIME = 800.0
# the flow's state: x, Phi row by row, then I_div and I_a
_X, _PHI, _INTEGRALS = slice(0, 2), slice(2, 6), slice(6, 8)
_START = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0])  # Phi = I, I_div = I_a = 0


@dataclass(frozen=True)
class LimitCycle:
    """Stable periodic orbit with the dense (x, Phi, I_div, I_a) flow over
    [0, T]."""

    model: OscillatorModel
    T: float
    anchor: np.ndarray
    residuals: tuple
    _traj: ode.Trajectory = field(repr=False)

    def point(self, t):
        """x0(t mod T) from dense output; scalar or 1-D array argument.

        A scalar is reduced as a Python float: ``%`` is ``np.mod``'s
        fmod-and-adjust, without its per-call overhead."""
        if ode.is_scalar(t):
            return self._traj(float(t) % self.T, _X)
        return self._traj(np.mod(t, self.T), _X)

    def phi(self, t):
        """2x2 Phi(t, 0) for scalar t in [0, T]; exactly I at t = 0."""
        return self._traj(t, _PHI).reshape(2, 2)

    @property
    def monodromy(self):
        """Phi(T), the integration's endpoint; when Newton closes on its
        first flow, read at the event from the crossing step's interpolant."""
        return self._traj.final[_PHI].reshape(2, 2)

    def integrals(self, t):
        """(I_div(t), a(t)) for t in [0, T], shape (2,) for a scalar and
        (2, n) for a 1-D array; exactly 0 at t = 0."""
        return self._traj(t, _INTEGRALS)

    @property
    def integrals_T(self):
        """(I_div(T), a(T)), the endpoint, read as ``monodromy`` is."""
        return self._traj.final[_INTEGRALS]

    @property
    def nodes(self):
        """The integration's step times (n,) and x0 there (n, 2)."""
        return self._traj.ts, self._traj.ys[:, _X]


def sample_cycle(cycle, n):
    """n uniformly spaced (t, x0(t)) samples over [0, T)."""
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ArgumentError("need an integer n >= 2 of samples")
    ts = np.arange(n) * (cycle.T / n)
    return ts, cycle.point(ts).T


def find_cycle(model, guess, settle_time=100.0, tol=1e-10):
    """Locate the stable periodic orbit reachable from ``guess``.

    The phase origin t=0 is the relaxed point on the Poincare section;
    all downstream quantities are reported relative to this anchor.
    """
    if not settle_time >= 0:  # NaN fails too
        raise ArgumentError("settle_time must be non-negative")
    if not tol > 0:
        raise ArgumentError("tol must be positive")
    p = np.array(guess, dtype=float)
    if settle_time > 0:
        p = ode.integrate(model.rhs, p, 0.0, settle_time, rtol=_RTOL,
                          atol=1e-13, dense=False).final

    fp = model.field(p)
    nf = np.linalg.norm(fp)
    if nf < _FIXED_POINT_TOL:
        raise NoOscillationError(
            f"trajectory converged to a fixed point near {p}")
    n = fp / nf

    def augmented(t, z):
        # on Python floats: no BLAS product whose rounding is the machine's
        x = z[_X]
        p00, p01, p10, p11, i_div, _ = z[2:].tolist()
        (a00, a01), (a10, a11) = model.jacobian(x).tolist()
        f0, f1 = model.rhs(t, x).tolist()
        n2 = f0 * f0 + f1 * f1
        # a's integrand divides by |f|^4 and resolves the flow's turns as
        # it nears a fixed point: stop there, as after the settle
        if n2 < _FIXED_POINT_TOL * _FIXED_POINT_TOL:
            raise NoOscillationError(
                f"the flow converged to a fixed point near {x} at t = {t:.6g}")
        try:
            b = math.exp(i_div)
        except OverflowError:
            raise CycleNotFoundError(
                f"exp(int div f) overflows at t = {t:.6g}: the flow expands "
                "areas beyond the float range") from None
        # f^T (A + A^T) f_perp / |f|^4 with f_perp = (f1, -f0), times b
        c = (2.0 * (a00 - a11) * f0 * f1
             + (a01 + a10) * (f1 * f1 - f0 * f0)) / (n2 * n2)
        return np.array([f0, f1,
                         a00 * p00 + a01 * p10, a00 * p01 + a01 * p11,
                         a10 * p00 + a11 * p10, a10 * p01 + a11 * p11,
                         float(model.divergence(x)), c * b])

    def section(t, z):  # p lies on it: the start is no crossing
        return n @ (z[:2] - p) if t > 0 else 1.0

    x, T, event = p.copy(), _MAX_RETURN_TIME, section
    residuals = []
    for _ in range(_MAX_NEWTON):
        traj = ode.integrate(augmented, np.concatenate([x, _START]),
                             0.0, T, rtol=_RTOL, atol=1e-13, event=event)
        if event is not None and traj.status != 1:
            raise CycleNotFoundError("no return to the Poincare section found")
        T, event = traj.t1, None  # the first return; later flows end at T
        end, Phi = traj.final[_X], traj.final[_PHI].reshape(2, 2)
        r = end - x
        residuals.append(np.linalg.norm(r))
        sec = n @ (x - p)
        if residuals[-1] < tol and abs(sec) < tol:
            break
        J = np.vstack([np.column_stack([Phi - np.eye(2), model.field(end)]),
                       np.append(n, 0.0)])
        try:
            delta = np.linalg.solve(J, np.append(r, sec))
        except np.linalg.LinAlgError as exc:
            raise CycleNotFoundError(f"singular shooting Jacobian: {exc}")
        x = x - delta[:2]
        T = T - delta[2]
        if not (T > 0) or not np.all(np.isfinite(x)):
            raise CycleNotFoundError("shooting iteration left the domain")
    else:
        raise CycleNotFoundError(
            f"Newton did not converge in {_MAX_NEWTON} iterations "
            f"(last residual {residuals[-1]:.3e})")
    return LimitCycle(model=model, T=float(T), anchor=x,
                      residuals=tuple(residuals), _traj=traj)


def cycle_to_csv(cycle, path):
    """Write ``t,x,y`` at 512 uniform times with 17 significant digits."""
    ts, xs = sample_cycle(cycle, 512)
    with open(path, "w", newline="") as fh:
        fh.write("t,x,y\n")
        fh.writelines(f"{t:.17g},{x:.17g},{y:.17g}\n"
                      for t, x, y in np.column_stack([ts, xs]).tolist())
