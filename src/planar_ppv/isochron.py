"""Asymptotic-phase measurements and the isochron-tangency experiment.

The asymptotic phase of a seed is read off the endpoint of a long
trajectory: the cycle time nearest to it, found by Newton on exact
derivatives of the dense cycle, minus the horizon.  All seeds of a
measurement are integrated together, as one batched state on one step
sequence, and only the endpoints are kept.  Seeds placed along u2 share
(to second order in the offset) the same asymptotic phase; seeds along a
non-isochron direction do not.  The experiment quantifies both spreads.
"""

from dataclasses import dataclass

import numpy as np

from . import ode
from .errors import NotConvergedError
from .models import perp

__all__ = ["PhaseReading", "IsochronReport", "asymptotic_phase",
           "isochron_experiment", "isochron_to_csv"]

_MAX_NEWTON = 50
_RTOL = 1e-10
_RESIDUAL_TOL = 1e-6


@dataclass(frozen=True)
class PhaseReading:
    """Asymptotic phase (time units mod T) of one seed point."""

    seed: np.ndarray
    phase: float
    residual: float


def _nearest_cycle_time(cycle, pt):
    """Cycle time t minimizing |x0(t) - pt|, and that distance.

    Seeds from the nearest node of the cycle's own integration (adaptive,
    so dense where the flow is fast), then runs Newton on
    g(t) = (x0(t) - pt)^T f(x0(t)) = 0, whose derivative is
    |f|^2 + (x0 - pt)^T A f; it stops where that is not positive (no
    minimum there, as for a point equidistant from the whole cycle).
    """
    model, T, (ts, xs) = cycle.model, cycle.T, cycle.nodes
    t = ts[np.argmin(np.sum((xs - pt) ** 2, axis=1))]
    for _ in range(_MAX_NEWTON):
        x = cycle.point(t)
        F = model.field(x)
        e = x - pt
        slope = F @ F + e @ (model.jacobian(x) @ F)
        if not slope > 0:
            break
        step = (e @ F) / slope
        t -= step
        if abs(step) <= 1e-14 * T:
            break
    t = float(np.mod(t, T))
    return t, float(np.linalg.norm(cycle.point(t) - pt))


def _asymptotic_phases(cycle, seeds, horizon):
    """(phase, residual) of each ``(label, point)`` seed, in order.

    The N points form one (2, N) state, flattened, integrated once over
    [0, horizon]: the model evaluates the whole batch in each RHS call,
    and the seeds share one step sequence.  Each endpoint is projected
    to its nearest cycle time t*, and the phase is (t* - horizon) mod T.
    An endpoint farther than 1e-6 from the cycle raises
    :class:`NotConvergedError` naming the seed's label.
    """
    pts = np.array([pt for _, pt in seeds], dtype=float).T  # (2, N)
    rhs = cycle.model.rhs

    def batch(t, z):
        return rhs(t, z.reshape(pts.shape)).ravel()

    traj = ode.integrate(batch, pts.ravel(), 0.0, horizon, rtol=_RTOL,
                         atol=1e-12, dense=False)
    readings = []
    for (label, _), end in zip(seeds, traj.final.reshape(2, -1).T):
        t_star, resid = _nearest_cycle_time(cycle, end)
        if not resid <= _RESIDUAL_TOL:  # NaN fails too
            raise NotConvergedError(
                f"{label}: endpoint still {resid:.3e} from the cycle after "
                f"t = {horizon} (horizon too short or seed outside the basin)")
        readings.append((float(np.mod(t_star - horizon, cycle.T)), resid))
    return readings


def asymptotic_phase(cycle, x0, horizon):
    """Phase the trajectory from ``x0`` converges to on the cycle.

    Integrates for ``horizon`` (recommended >= 20/|mu2|), projects the
    endpoint to the nearest cycle time t*, and reports (t* - horizon)
    mod T.  An endpoint farther than 1e-6 from the cycle raises
    :class:`NotConvergedError`.
    """
    x0 = np.asarray(x0, dtype=float)
    [(phase, resid)] = _asymptotic_phases(cycle, [(f"seed {x0}", x0)],
                                          horizon)
    return PhaseReading(seed=x0, phase=phase, residual=resid)


def _circular_spread(phases, T):
    """Max-min spread of phases living on a circle of circumference T."""
    if len(phases) < 2:
        return 0.0
    ang = 2.0 * np.pi * np.asarray(phases) / T
    center = np.angle(np.mean(np.exp(1j * ang)))
    dev = np.mod(ang - center + np.pi, 2.0 * np.pi) - np.pi
    return float((dev.max() - dev.min()) * T / (2.0 * np.pi))


@dataclass(frozen=True)
class IsochronReport:
    """Phase readings for isochron-tangent and control seed sets."""

    t_star: float
    rows: tuple  # (set_name, offset, phase, residual)
    isochron_spread: float
    control_spread: float
    degenerate: bool


def isochron_experiment(basis, t_star, offsets, horizon):
    """Seed along unit u2 (isochron tangent) and unit f_perp (control).

    When the two directions coincide (orthogonally decomposable
    oscillators) the control set is degenerate and skipped.
    """
    cycle = basis.cycle
    p = cycle.point(t_star)
    u2 = basis.u2(t_star)
    u2 = u2 / np.linalg.norm(u2)
    ctrl = perp(cycle.model.field(p))
    ctrl = ctrl / np.linalg.norm(ctrl)
    degenerate = min(np.linalg.norm(ctrl - u2),
                     np.linalg.norm(ctrl + u2)) < 1e-6

    sets = [("isochron", u2)] + ([] if degenerate else [("control", ctrl)])
    keys = [(name, float(off), d) for name, d in sets for off in offsets]
    readings = _asymptotic_phases(
        cycle, [(f"{name} seed at offset {off:.17g}", p + off * d)
                for name, off, d in keys], horizon)
    rows = tuple((name, off, phase, resid)
                 for (name, off, _), (phase, resid) in zip(keys, readings))
    iso_phases = [row[2] for row in rows if row[0] == "isochron"]
    ctrl_phases = [row[2] for row in rows if row[0] == "control"]
    return IsochronReport(
        t_star=float(t_star), rows=rows,
        isochron_spread=_circular_spread(iso_phases, cycle.T),
        control_spread=_circular_spread(ctrl_phases, cycle.T),
        degenerate=degenerate)


def isochron_to_csv(report, path):
    with open(path, "w", newline="") as fh:
        fh.write("set,offset,phase,residual\n")
        for name, off, phase, resid in report.rows:
            fh.write(f"{name},{off:.17g},{phase:.17g},{resid:.17g}\n")
