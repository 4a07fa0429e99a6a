"""Independent numerical oracle for the closed-form basis.

Integrates the variational equation (one dense one-period state-transition
matrix Phi(t, 0), whose endpoint is the numeric monodromy) and the adjoint
equation (numeric perturbation projection vector) directly.  Deliberately
shares no quadrature code with the closed-form module so the two routes
stay independent.
"""

from dataclasses import dataclass

import numpy as np

from . import ode
from .errors import OracleFailureError, ProvenanceError
from .models import perp

__all__ = ["StateTransition", "state_transition", "numeric_ppv",
           "verify_basis", "VerificationReport"]


class StateTransition:
    """Dense Phi(t, 0) of the variational equation over one period.

    ``st(t)`` is the 2x2 Phi(t, 0) for scalar t in [0, T] from the dense
    output (exactly the identity at t = 0); ``st.monodromy`` is Phi(T) taken
    from the integration endpoint rather than the interpolant.
    """

    def __init__(self, traj):
        self._traj = traj

    def __call__(self, t):
        return self._traj(t).reshape(2, 2)

    @property
    def monodromy(self):
        return self._traj.final.reshape(2, 2)


def _variational_rhs(cycle):
    model = cycle.model

    def rhs(s, z):
        A = model.jacobian(cycle.point(s))
        return (A @ z.reshape(2, 2)).ravel()

    return rhs


def state_transition(cycle, rtol=1e-11):
    """Integrate the 2x2 matrix variational ODE from identity over [0, T]."""
    return StateTransition(ode.integrate(
        _variational_rhs(cycle), np.eye(2).ravel(), 0.0, cycle.T,
        rtol=rtol, atol=1e-13, method="DOP853"))


def numeric_ppv(cycle, n, max_periods=50, rtol=1e-11, conv_tol=1e-9):
    """PPV samples over one period from backward adjoint integration.

    Integrates dy/dt = -A^T y backward (so the non-periodic adjoint mode
    contracts) until the solution repeats period to period, then scales
    it so y^T f = 1 at the anchor.  Returns ``(ts, ys, defects)`` with
    ``ts`` the n uniform sample times and ``defects`` the per-period
    periodicity defects (diagnostic for the convergence-rate check).
    """
    if n < 16:
        raise OracleFailureError("need at least 16 samples")
    model = cycle.model
    T = cycle.T

    def rhs(s, z):
        # z(s) = y(-s); adjoint dy/dt = -A^T y  =>  dz/ds = +A^T(-s) z
        A = model.jacobian(cycle.point(-s))
        return A.T @ z

    # seed with f/|f|^2: unit projection on the persistent adjoint mode
    # (f_perp would be exactly orthogonal to it and never converge)
    F0 = model.field(cycle.anchor)
    z = F0 / (F0 @ F0)
    defects = []
    converged = False
    last_traj = None
    for k in range(max_periods):
        traj = ode.integrate(rhs, z, k * T, (k + 1) * T, rtol=rtol,
                             atol=1e-13, method="DOP853")
        z_new = traj.final
        defect = np.linalg.norm(z_new - z) / np.linalg.norm(z_new)
        defects.append(defect)
        z = z_new
        last_traj = traj
        if defect < conv_tol:
            converged = True
            break
    if not converged:
        raise OracleFailureError(
            f"adjoint did not become periodic in {max_periods} periods "
            f"(defect {defects[-1]:.3e})")

    # last_traj covers s in [kT, (k+1)T]; y(t) = z((k+1)T - t) for t in [0, T]
    s1 = last_traj.t1
    scale = last_traj.final @ F0
    if scale == 0.0:
        raise OracleFailureError("degenerate adjoint normalization")
    ts = np.arange(n) * (T / n)
    ys = last_traj(s1 - ts).T / scale
    return ts, ys, defects


@dataclass(frozen=True)
class VerificationReport:
    """Max-defect metrics with per-item pass/fail against one tolerance."""

    tol: float
    metrics: dict

    @property
    def passed(self):
        return all(v <= self.tol for v in self.metrics.values())

    def items(self):
        for name, value in self.metrics.items():
            yield name, value, value <= self.tol

    def to_kv_lines(self):
        return [f"{name}={value:.6e} {'pass' if ok else 'fail'}"
                for name, value, ok in self.items()]

    def to_text(self):
        lines = [f"verification (tol = {self.tol:g}): "
                 f"{'PASS' if self.passed else 'FAIL'}"]
        for name, value, ok in self.items():
            lines.append(f"  {name:<24s} {value:12.6e}  "
                         f"{'pass' if ok else 'fail'}")
        return "\n".join(lines)


def verify_basis(cycle, basis, tol):
    """Cross-check the closed-form basis against direct integrations."""
    if basis.cycle is not cycle:
        same = (abs(basis.cycle.T - cycle.T) < 1e-12
                and np.allclose(basis.cycle.anchor, cycle.anchor,
                                rtol=0, atol=1e-9))
        if not same:
            raise ProvenanceError("basis was built on a different cycle")
    T = cycle.T

    u1 = basis.u1_grid
    u2 = basis.u2_grid
    v1 = basis.v1_grid
    v2 = basis.v2_grid
    bi = np.max(np.abs(np.stack([
        np.sum(v1 * u1, axis=1) - 1.0,
        np.sum(v1 * u2, axis=1),
        np.sum(v2 * u1, axis=1),
        np.sum(v2 * u2, axis=1) - 1.0,
    ])))

    # adjoint residual of the closed-form v1, 4th-order finite differences
    h = T / 4096.0
    tg = np.arange(256) * (T / 256)
    vm2 = basis.v1(tg - 2 * h)
    vm1 = basis.v1(tg - h)
    vp1 = basis.v1(tg + h)
    vp2 = basis.v1(tg + 2 * h)
    dv = (vm2 - 8 * vm1 + 8 * vp1 - vp2) / (12 * h)
    A = cycle.model.jacobian(cycle.point(tg))
    v = basis.v1(tg)
    rhs = A[0] * v[0] + A[1] * v[1]  # A^T v1 at every tg
    adjoint_residual = (np.max(np.linalg.norm(dv + rhs, axis=0))
                        / np.max(np.linalg.norm(rhs, axis=0)))

    st = state_transition(cycle)
    eigs = np.sort(np.abs(np.linalg.eigvals(st.monodromy)))
    lam2 = eigs[0] if abs(eigs[1] - 1.0) < abs(eigs[0] - 1.0) else eigs[1]
    mu2_num = np.log(lam2) / T
    mono_mismatch = abs(basis.mu2 - mu2_num) / abs(basis.mu2)

    nt, ny, _ = numeric_ppv(cycle, 256)
    v1c = basis.v1(nt).T
    v1_mismatch = (np.max(np.linalg.norm(v1c - ny, axis=1))
                   / np.max(np.linalg.norm(ny, axis=1)))

    # Liouville: det Phi(t) = exp(int div f) on 16 times
    liouville = 0.0
    for t in np.linspace(T / 16, T, 16):
        det = np.linalg.det(st(float(t)))
        b = float(basis.b(float(t)))
        liouville = max(liouville, abs(det - b) / b)

    return VerificationReport(tol=tol, metrics={
        "biorthogonality": float(bi),
        "normalization": basis.normalization_defect,
        "adjoint_residual": float(adjoint_residual),
        "monodromy_mismatch": float(mono_mismatch),
        "v1_vs_numeric": float(v1_mismatch),
        "liouville": float(liouville),
    })
