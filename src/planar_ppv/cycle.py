"""Limit-cycle location by Poincare shooting.

``find_cycle`` relaxes the trajectory onto the attractor, erects a
section through the relaxed point normal to the flow, brackets the
first return on the dense output, and Newton-polishes (point, period)
until the closure residual is below tolerance.  The result is an
immutable periodic dense-output object.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from . import ode
from .errors import ArgumentError, CycleNotFoundError, NoOscillationError
from .models import OscillatorModel

__all__ = ["LimitCycle", "find_cycle", "sample_cycle", "cycle_to_csv"]

_MAX_NEWTON = 50
_FIXED_POINT_TOL = 1e-8


@dataclass(frozen=True)
class LimitCycle:
    """Asymptotically stable periodic orbit with dense output over [0, T]."""

    model: OscillatorModel
    T: float
    anchor: np.ndarray
    section_point: np.ndarray
    section_normal: np.ndarray
    residuals: tuple
    tol: float
    _traj: ode.Trajectory = field(repr=False)

    def point(self, t):
        """x0(t mod T) from dense output; scalar or array argument."""
        return self._traj(np.mod(t, self.T))


def sample_cycle(cycle, n):
    """n uniformly spaced (t, x0(t)) samples over [0, T)."""
    if n < 2:
        raise ArgumentError("need at least 2 samples")
    ts = np.arange(n) * (cycle.T / n)
    return ts, cycle.point(ts).T


def _first_return_time(model, p, n, t_hint=None):
    """Bracket and refine the first positive-aligned return to the section."""
    span = 4.0 * t_hint if t_hint else 50.0
    for _ in range(5):
        traj = ode.integrate(model.rhs, p, 0.0, span, rtol=1e-10, atol=1e-12)
        ts = np.linspace(0.0, span, 4096)
        g = n @ (traj(ts) - p[:, None])
        up = np.nonzero((g[:-1] < 0.0) & (g[1:] >= 0.0))[0]
        for i in up:
            t_ret = brentq(lambda t: n @ (traj(t) - p), ts[i], ts[i + 1],
                           xtol=1e-13)
            if n @ model.field(traj(t_ret)) > 0.0:
                return t_ret
        span *= 2.0
    raise CycleNotFoundError("no return to the Poincare section found")


def find_cycle(model, guess, settle_time=100.0, tol=1e-10, rtol=1e-12):
    """Locate the stable periodic orbit reachable from ``guess``.

    The phase origin t=0 is the relaxed point on the Poincare section;
    all downstream quantities are reported relative to this anchor.
    """
    if settle_time < 0:
        raise ArgumentError("settle_time must be non-negative")
    guess = np.asarray(guess, dtype=float)
    if settle_time > 0:
        relax = ode.integrate(model.rhs, guess, 0.0, settle_time,
                              rtol=rtol, atol=1e-13)
        p = relax.final
    else:
        p = guess.copy()

    fp = model.field(p)
    nf = np.linalg.norm(fp)
    if nf < _FIXED_POINT_TOL:
        raise NoOscillationError(
            f"trajectory converged to a fixed point near {p}")
    n = fp / nf

    T = _first_return_time(model, p, n)

    def flow(x, span):
        return ode.integrate(model.rhs, x, 0.0, span, rtol=rtol, atol=1e-13)

    x = p.copy()
    residuals = []
    converged = False
    for _ in range(_MAX_NEWTON):
        end = flow(x, T).final
        r = end - x
        res = np.linalg.norm(r)
        residuals.append(res)
        sec = n @ (x - p)
        if res < tol and abs(sec) < tol:
            converged = True
            break
        # finite-difference monodromy columns + analytic period derivative
        h = 1e-7 * max(1.0, np.linalg.norm(x))
        J = np.zeros((3, 3))
        for k in range(2):
            dx = np.zeros(2)
            dx[k] = h
            J[:2, k] = (flow(x + dx, T).final - (x + dx) - r) / h
        J[:2, 2] = model.field(end)
        J[2, :2] = n
        rhs_vec = np.array([r[0], r[1], sec])
        try:
            delta = np.linalg.solve(J, rhs_vec)
        except np.linalg.LinAlgError as exc:
            raise CycleNotFoundError(f"singular shooting Jacobian: {exc}")
        x = x - delta[:2]
        T = T - delta[2]
        if not (T > 0) or not np.all(np.isfinite(x)):
            raise CycleNotFoundError("shooting iteration left the domain")
    if not converged:
        raise CycleNotFoundError(
            f"Newton did not converge in {_MAX_NEWTON} iterations "
            f"(last residual {residuals[-1]:.3e})")

    traj = ode.integrate(model.rhs, x, 0.0, T, rtol=rtol, atol=1e-14)
    closure = np.linalg.norm(traj.final - x)
    if closure > max(tol, 10 * rtol):
        raise CycleNotFoundError(f"cycle closure residual {closure:.3e}")
    return LimitCycle(model=model, T=T, anchor=x,
                      section_point=p, section_normal=n,
                      residuals=tuple(residuals), tol=tol, _traj=traj)


def cycle_to_csv(cycle, n, path):
    """Write ``t,x,y`` samples with 17 significant digits."""
    ts, xs = sample_cycle(cycle, n)
    with open(path, "w", newline="") as fh:
        fh.write("t,x,y\n")
        for t, (x, y) in zip(ts, xs):
            fh.write(f"{t:.17g},{x:.17g},{y:.17g}\n")
