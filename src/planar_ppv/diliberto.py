"""Closed-form Floquet machinery for planar limit cycles.

Everything follows from two scalar quadratures along the cycle:

    b(t) = exp( int_0^t div f(x0(s)) ds )
    a(t) = int_0^t [ f^T (A + A^T) f_perp / |f|^4 ] b(s) ds

from which the monodromy matrix [[1, a(T)], [0, b(T)]], the Floquet
exponents, the eigenvectors u1 = f and u2 = e^{-mu2 t}(alpha f + beta f_perp),
and the reciprocal covectors

    v1 = ( -alpha f_perp + beta f ) / b,      v2 = e^{mu2 t} f_perp / b

are evaluated in closed form (alpha = a(T)/(b(T)-1) + a, beta = b/|f|^2).
v1 is the perturbation projection vector: the T-periodic adjoint
solution normalized by v1^T f = 1.  The two quadratures are components
of the cycle's own flow (``LimitCycle.integrals``), so the basis
integrates nothing.
"""

import warnings

import numpy as np

from .errors import (ArgumentError, DegenerateCycleError,
                     InternalInconsistencyError)
from .models import perp
from .spline import PeriodicSpline

__all__ = [
    "DilibertoBasis",
    "orthogonality_defect",
    "lie_bracket",
    "basis_to_csv",
]

_DEGENERATE_TOL = 1e-12


class DilibertoBasis:
    """Sampled + evaluable closed-form basis along a limit cycle.

    The cycle's dense flow supplies a(t), b(t), the monodromy matrix
    [[1, a(T)], [0, b(T)]] and the exponent mu2; all vectors are
    evaluated from the closed forms through that dense solution.  Values
    on a uniform grid (default n=1024) feed the CSV dump, the oracle and
    the spectral kernel; ``projection(G)`` interpolates v1^T G(x0) on that
    grid for the phase and noise layers.
    """

    def __init__(self, cycle, n=1024):
        if not isinstance(n, (int, np.integer)) or n < 16:
            raise ArgumentError(f"basis grid n = {n!r}; need an integer >= 16")
        self.cycle = cycle
        self.n = n
        IT = cycle.integrals_T
        self.b_T = float(np.exp(IT[0]))
        self.a_T = float(IT[1])
        if self.b_T <= 0.0:
            raise InternalInconsistencyError(
                f"b(T) = {self.b_T} <= 0: quadrature blow-up")
        if abs(self.b_T - 1.0) < _DEGENERATE_TOL:
            raise DegenerateCycleError(
                f"|b(T) - 1| = {abs(self.b_T - 1.0):.3e}: non-hyperbolic "
                "cycle, closed forms break down")
        if self.b_T >= 1.0:
            warnings.warn("second multiplier >= 1: cycle is not "
                          "asymptotically stable", stacklevel=2)
        self.mu2 = np.log(self.b_T) / cycle.T
        self.alpha0 = self.a_T / (self.b_T - 1.0)
        self.monodromy = np.array([[1.0, self.a_T], [0.0, self.b_T]])

        self.ts = np.arange(n) * (cycle.T / n)
        # one array dense-output call: DOP853's Horner interpolant gives
        # every point the bits of a scalar call at that point
        I = cycle.integrals(self.ts)
        self.a_grid = I[1]
        self.b_grid = np.exp(I[0])
        x, F, u2, v1, v2, self.alpha_grid, self.beta_grid = \
            self._closed_forms(self.ts, self.a_grid, self.b_grid)
        self.x0_grid, self.u1_grid = x.T, F.T
        self.u2_grid, self.v1_grid, self.v2_grid = u2.T, v1.T, v2.T

        # v1^T f = 1 holds identically in a(t) and b(t), so quadrature
        # drift cannot move it; a defect means the formulas are broken
        self.normalization_defect = float(
            np.max(np.abs(np.sum(v1 * F, axis=0) - 1.0)))
        if not self.normalization_defect <= 1e-9:
            raise InternalInconsistencyError(
                f"v1 normalization defect {self.normalization_defect:.3e} "
                "above 1e-9")

    # -- scalar factors -------------------------------------------------------

    def _ab(self, t):
        """(a(t), b(t)) for any scalar or array t via quasi-periodicity:
        with t = k*T + tau, b(t) = b(tau) b(T)^k and
        a(t) = a(tau) b(T)^k + a(T) (b(T)^k - 1) / (b(T) - 1)."""
        t = np.asarray(t, dtype=float)
        k = np.floor(t / self.cycle.T)
        I = self.cycle.integrals(t - k * self.cycle.T)
        bk = self.b_T ** k
        b = np.exp(I[0]) * bk
        a = I[1] * bk + self.a_T * (bk - 1.0) / (self.b_T - 1.0)
        return a, b

    def a(self, t):
        return self._ab(t)[0]

    def b(self, t):
        return self._ab(t)[1]

    # -- closed-form vectors --------------------------------------------------

    def _closed_forms(self, t, a, b):
        """x0, f, u2, v1, v2, alpha and beta at t, given a(t) and b(t).

        The one site of the closed forms; vectors have shape (2,) for
        scalar t and (2, N) for N times.
        """
        t = np.asarray(t, dtype=float)
        x = self.cycle.point(t)
        F = self.cycle.model.field(x)
        Fp = perp(F)
        alpha = self.alpha0 + a
        beta = b / np.sum(F * F, axis=0)
        u2 = np.exp(-self.mu2 * t) * (alpha * F + beta * Fp)
        v1 = (-alpha * Fp + beta * F) / b
        v2 = (np.exp(self.mu2 * t) / b) * Fp
        return x, F, u2, v1, v2, alpha, beta

    def _periodic_forms(self, t):
        """The closed forms at t mod T.  The vectors are T-periodic, but
        evaluated past [0, T) on the b(T)^k extension of a and b they lose
        periodicity, and overflow at a large t."""
        t = np.mod(t, self.cycle.T)
        return self._closed_forms(t, *self._ab(t))

    def u1(self, t):
        return self._periodic_forms(t)[1]

    def u2(self, t):
        return self._periodic_forms(t)[2]

    def v1(self, t):
        return self._periodic_forms(t)[3]

    def v2(self, t):
        return self._periodic_forms(t)[4]

    # -- periodic projection --------------------------------------------------

    def projection(self, G):
        """Periodic cubic interpolant of v1(t)^T G(x0(t)) on [0, T].

        ``G`` maps a cycle point to a (2,) or (2, m) array; the spline's
        ``values(t)`` is (m,) + t's shape, m = 1 for a (2,) input, with t
        reduced mod T by the spline itself.  The two products are written
        out rather than left to BLAS, whose FMA and gemv rounding would
        make the values machine-dependent.
        """
        vals = np.array([v[0] * g[0] + v[1] * g[1]
                         for v, g in zip(self.v1_grid, map(G, self.x0_grid))])
        return PeriodicSpline.interpolate(np.append(self.ts, self.cycle.T),
                                          np.concatenate([vals, vals[:1]]))

    @property
    def omega(self):
        return 2.0 * np.pi / self.cycle.T


def _symmetric_part_times(A, v):
    """(A + A^T) v; A is (2, 2) or a (2, 2, N) stack, transposed per matrix."""
    S = A + np.swapaxes(A, 0, 1)
    return S[:, 0] * v[0] + S[:, 1] * v[1]


def orthogonality_defect(basis):
    """Normalized max of |f^T (A+A^T) f_perp| along the grid.

    Near zero certifies that the tangent/isochron decomposition is
    orthogonal (and, equivalently, that [f, f_perp] stays parallel to
    f_perp on the cycle).
    """
    F = basis.u1_grid.T
    w = _symmetric_part_times(basis.cycle.model.jacobian(basis.x0_grid.T),
                              perp(F))
    num = np.abs(F[0] * w[0] + F[1] * w[1])
    denom = np.linalg.norm(F, axis=0) * np.linalg.norm(w, axis=0)
    nonzero = denom != 0.0
    return float(np.max(num[nonzero] / denom[nonzero], initial=0.0))


def lie_bracket(model, x):
    """[f, f_perp](x) via (div f) f_perp - (A + A^T) f_perp.

    The identity avoids second derivatives; ``x`` is (2,) or a batch (2, N).
    """
    Fp = perp(model.field(x))
    return (model.divergence(x) * Fp
            - _symmetric_part_times(model.jacobian(x), Fp))


def basis_to_csv(basis, path):
    """Grid dump with 17 significant digits per value."""
    cols = ("t,a,b,alpha,beta,u1x,u1y,u2x,u2y,v1x,v1y,v2x,v2y")
    rows = np.column_stack([basis.ts, basis.a_grid, basis.b_grid,
                            basis.alpha_grid, basis.beta_grid,
                            basis.u1_grid, basis.u2_grid, basis.v1_grid,
                            basis.v2_grid])
    with open(path, "w", newline="") as fh:
        fh.write(cols + "\n")
        fh.writelines(",".join(f"{v:.17g}" for v in row.tolist()) + "\n"
                      for row in rows)
