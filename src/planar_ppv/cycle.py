"""Limit-cycle location by Poincare shooting on exact derivatives.

``find_cycle`` relaxes the trajectory onto the attractor and erects a
section through the relaxed point p, normal to the flow.  Newton polishes
(point, period) on the augmented state (x, Phi), whose endpoint supplies
the exact shooting Jacobian Phi(T) - I; its first flow, from p, ends at
the first return time T, a terminal event on n.(x - p), and later flows
run over [0, T].  The last flow, with closure residual below tolerance,
is the cycle's dense output.
"""

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


@dataclass(frozen=True)
class LimitCycle:
    """Stable periodic orbit with the dense (x, Phi) flow over [0, T]."""

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
            return self._traj(float(t) % self.T)[:2]
        return self._traj(np.mod(t, self.T))[:2]

    def phi(self, t):
        """2x2 Phi(t, 0) for scalar t in [0, T]; exactly I at t = 0."""
        return self._traj(t)[2:].reshape(2, 2)

    @property
    def monodromy(self):
        """Phi(T), the integration's endpoint; when Newton closes on its
        first flow, read at the event from the crossing step's interpolant."""
        return self._traj.final[2:].reshape(2, 2)

    @property
    def nodes(self):
        """The integration's step times (n,) and x0 there (n, 2)."""
        return self._traj.ts, self._traj.ys[:, :2]


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

    def augmented(t, z):  # the state x and its variational matrix Phi
        Phi = model.jacobian(z[:2]) @ z[2:].reshape(2, 2)
        return np.concatenate([model.rhs(t, z[:2]), Phi.ravel()])

    def section(t, z):  # p lies on it: the start is no crossing
        return n @ (z[:2] - p) if t > 0 else 1.0

    x, T, event = p.copy(), _MAX_RETURN_TIME, section
    residuals = []
    for _ in range(_MAX_NEWTON):
        traj = ode.integrate(augmented, np.concatenate([x, np.eye(2).ravel()]),
                             0.0, T, rtol=_RTOL, atol=1e-13, event=event)
        if event is not None and traj.status != 1:
            raise CycleNotFoundError("no return to the Poincare section found")
        T, event = traj.t1, None  # the first return; later flows end at T
        end, Phi = traj.final[:2], traj.final[2:].reshape(2, 2)
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
