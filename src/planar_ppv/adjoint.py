"""Independent numerical oracle for the closed-form basis.

Reads the cycle's variational flow Phi(t, 0), integrated with the cycle,
and integrates the adjoint equation (numeric perturbation projection
vector, one backward period seeded from the monodromy's left
eigenvector).  The closed forms' b(t) and a(t) are other components of
the same cycle flow, but Phi comes from the variational equation and b
from the model's divergence, so the Liouville check det Phi = b still
compares two routes; the adjoint period shares no code with either.
"""

from dataclasses import dataclass

import numpy as np

from . import ode
from .errors import ArgumentError, OracleFailureError

__all__ = ["state_transition", "numeric_ppv", "verify_basis",
           "VerificationReport"]

_RTOL = 1e-11
_PERIODIC_TOL = 1e-9


def state_transition(cycle):
    """The cycle's own Phi(t, 0) as a callable of t; integrates nothing."""
    return cycle.phi


def numeric_ppv(cycle, n):
    """PPV samples over one period from one backward adjoint integration.

    The periodic solution of dy/dt = -A^T y starts at the left eigenvector
    of ``cycle.monodromy`` for the multiplier 1, scaled so y^T f = 1 at the
    anchor.  One backward period from there (backward, so the
    non-periodic adjoint mode contracts) gives y on [0, T].  Returns
    ``(ts, ys, defects)`` with ``ts`` the n uniform sample times and
    ``defects`` the one-element tuple of that period's periodicity defect,
    the relative change of y over the period, which must not exceed 1e-9.
    """
    if not isinstance(n, (int, np.integer)) or n < 16:
        raise ArgumentError("need an integer n >= 16 of samples")
    model = cycle.model
    T = cycle.T
    jacobian = model._jacobian

    def rhs(s, z):
        # z(s) = y(-s); adjoint dy/dt = -A^T y  =>  dz/ds = +A^T(-s) z,
        # on Python floats
        (a00, a01), (a10, a11) = jacobian(cycle.at(-s))
        z0, z1 = z
        return [a00 * z0 + a10 * z1, a01 * z0 + a11 * z1]

    mults, vecs = np.linalg.eig(cycle.monodromy.T)
    y0 = vecs[:, np.argmin(np.abs(mults - 1.0))].real
    scale = y0 @ model.field(cycle.anchor)
    if scale == 0.0:
        raise OracleFailureError("degenerate adjoint normalization")
    y0 = y0 / scale
    traj = ode.integrate(rhs, y0, 0.0, T, rtol=_RTOL, atol=1e-13)
    defect = np.linalg.norm(traj.final - y0) / np.linalg.norm(traj.final)
    if not defect <= _PERIODIC_TOL:  # NaN fails too
        raise OracleFailureError(
            f"adjoint not periodic after one period (defect {defect:.3e})")
    # y(t) = z(-t) = z(T - t) for t in [0, T]
    ts = np.arange(n) * (T / n)
    return ts, traj(T - ts).T, (defect,)


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


def verify_basis(basis, tol):
    """Cross-check the closed-form basis against direct integrations."""
    if not 0 < tol < np.inf:  # NaN fails too
        raise ArgumentError(f"tol must be finite and > 0, got {tol!r}")
    cycle = basis.cycle
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

    phi = state_transition(cycle)
    eigs = np.sort(np.abs(np.linalg.eigvals(cycle.monodromy)))
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
        det = np.linalg.det(phi(float(t)))
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
