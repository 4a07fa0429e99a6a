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
solution normalized by v1^T f = 1.
"""

import logging
import warnings

import numpy as np
from scipy.interpolate import CubicSpline

from . import ode
from .errors import (ArgumentError, DegenerateCycleError,
                     InternalInconsistencyError)
from .models import perp

__all__ = [
    "DilibertoBasis",
    "orthogonality_defect",
    "lie_bracket",
    "basis_to_csv",
]

log = logging.getLogger(__name__)

_DEGENERATE_TOL = 1e-12


def _quad_rhs(cycle):
    """Right-hand side of the (I_div, I_a) quadrature pair along the cycle."""
    model = cycle.model

    def rhs(s, q):
        x = cycle.point(s)
        F = model.field(x)
        A = model.jacobian(x)
        Fp = perp(F)
        n2 = F @ F
        c = (F @ ((A + A.T) @ Fp)) / n2 ** 2
        return np.array([model.divergence(x), c * np.exp(q[0])])

    return rhs


class DilibertoBasis:
    """Sampled + evaluable closed-form basis along a limit cycle.

    One augmented integration over [0, T] supplies dense a(t), b(t), the
    monodromy matrix [[1, a(T)], [0, b(T)]] and the exponent mu2; all
    vectors are evaluated from the closed forms through that dense
    solution.  Values on a uniform grid (default n=1024) feed the CSV
    dump, the oracle and the spectral/noise kernels; periodic cubic
    interpolants of x0 and v1 on that grid (``x0_fast``, ``v1_fast``)
    serve the generic ``phase_rhs`` path.
    """

    def __init__(self, cycle, n=1024, rtol=1e-12):
        if n < 16:
            raise ArgumentError(f"basis grid n = {n} too coarse; need >= 16")
        self.cycle = cycle
        self.n = n
        self._quad = ode.integrate(_quad_rhs(cycle), [0.0, 0.0], 0.0,
                                   cycle.T, rtol=rtol, atol=1e-14)
        IT = self._quad.final
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

        T = cycle.T
        self.ts = np.arange(n) * (T / n)
        # one scalar dense-output call per point: a vectorized call rounds
        # some values 1 ulp differently and would change basis.csv
        I = np.asarray([self._quad(float(t)) for t in self.ts])
        self.a_grid = I[:, 1]
        self.b_grid = np.exp(I[:, 0])
        x = cycle.point(self.ts)
        F = cycle.model.field(x)
        Fp = perp(F)
        n2 = np.sum(F * F, axis=0)
        self.alpha_grid = self.alpha0 + self.a_grid
        self.beta_grid = self.b_grid / n2
        decay = np.exp(-self.mu2 * self.ts)
        self.u1_grid = F.T
        self.u2_grid = (decay * (self.alpha_grid * F + self.beta_grid * Fp)).T
        v1 = ((-self.alpha_grid * Fp + self.beta_grid * F) / self.b_grid).T
        self.v2_grid = ((np.exp(self.mu2 * self.ts) / self.b_grid) * Fp).T

        # enforce the normalization v1^T f = 1 against quadrature drift
        dots = np.sum(v1 * F.T, axis=1)
        self.normalization_defect = float(np.max(np.abs(dots - 1.0)))
        self._rescale = self.normalization_defect > 1e-9
        if self._rescale:
            log.warning("v1 normalization defect %.3e above 1e-9; "
                        "re-scaling pointwise", self.normalization_defect)
            v1 = v1 / dots[:, None]
        self.v1_grid = v1

        self._x0_spline = self._periodic_spline(x.T)
        self._v1_spline = self._periodic_spline(self.v1_grid)

    def _periodic_spline(self, vals):
        ts = np.concatenate([self.ts, [self.cycle.T]])
        vv = np.vstack([vals, vals[:1]])
        return CubicSpline(ts, vv, axis=0, bc_type="periodic")

    # -- scalar factors -------------------------------------------------------

    def _ab(self, t):
        """(a(t), b(t)) for any scalar or array t via quasi-periodicity:
        with t = k*T + tau, b(t) = b(tau) b(T)^k and
        a(t) = a(tau) b(T)^k + a(T) (b(T)^k - 1) / (b(T) - 1)."""
        t = np.asarray(t, dtype=float)
        k = np.floor(t / self.cycle.T)
        I = self._quad(t - k * self.cycle.T)
        bk = self.b_T ** k
        b = np.exp(I[0]) * bk
        a = I[1] * bk + self.a_T * (bk - 1.0) / (self.b_T - 1.0)
        return a, b

    def a(self, t):
        return self._ab(t)[0]

    def b(self, t):
        return self._ab(t)[1]

    # -- closed-form vectors --------------------------------------------------

    def _frame(self, t):
        x = self.cycle.point(t)
        F = self.cycle.model.field(x)
        return F, perp(F)

    def _coefficients(self, t):
        """alpha(t), beta(t) and b(t), with the frame (f, f_perp) at t."""
        a, b = self._ab(t)
        F, Fp = self._frame(t)
        return self.alpha0 + a, b / np.sum(F * F, axis=0), b, F, Fp

    def u1(self, t):
        F, _ = self._frame(t)
        return F

    def u2(self, t):
        alpha, beta, _, F, Fp = self._coefficients(t)
        return np.exp(-self.mu2 * np.asarray(t, dtype=float)) * (
            alpha * F + beta * Fp)

    def v1(self, t):
        alpha, beta, b, F, Fp = self._coefficients(t)
        v = (-alpha * Fp + beta * F) / b
        if self._rescale:
            v = v / np.sum(v * F, axis=0)
        return v

    def v2(self, t):
        _, b = self._ab(t)
        _, Fp = self._frame(t)
        return (np.exp(self.mu2 * np.asarray(t, dtype=float)) / b) * Fp

    # -- periodic interpolants (generic phase_rhs path) -----------------------

    def _wrap(self, t):
        return np.mod(t, self.cycle.T)

    def x0_fast(self, t):
        return self._x0_spline(self._wrap(t)).T

    def v1_fast(self, t):
        return self._v1_spline(self._wrap(t)).T

    @property
    def omega(self):
        return 2.0 * np.pi / self.cycle.T


def orthogonality_defect(basis):
    """Normalized max of |f^T (A+A^T) f_perp| along the grid.

    Near zero certifies that the tangent/isochron decomposition is
    orthogonal (and, equivalently, that [f, f_perp] stays parallel to
    f_perp on the cycle).
    """
    model = basis.cycle.model
    worst = 0.0
    for t in basis.ts:
        x = basis.cycle.point(float(t))
        F = model.field(x)
        A = model.jacobian(x)
        w = (A + A.T) @ perp(F)
        denom = np.linalg.norm(F) * np.linalg.norm(w)
        if denom == 0.0:
            continue
        worst = max(worst, abs(F @ w) / denom)
    return worst


def lie_bracket(model, x):
    """[f, f_perp](x) via (div f) f_perp - (A + A^T) f_perp.

    The identity avoids second derivatives of the field.
    """
    F = model.field(x)
    A = model.jacobian(x)
    Fp = perp(F)
    return model.divergence(x) * Fp - (A + A.T) @ Fp


def basis_to_csv(basis, path):
    """Grid dump with 17 significant digits per value."""
    cols = ("t,a,b,alpha,beta,u1x,u1y,u2x,u2y,v1x,v1y,v2x,v2y")
    with open(path, "w", newline="") as fh:
        fh.write(cols + "\n")
        for i, t in enumerate(basis.ts):
            row = [t, basis.a_grid[i], basis.b_grid[i],
                   basis.alpha_grid[i], basis.beta_grid[i],
                   basis.u1_grid[i, 0], basis.u1_grid[i, 1],
                   basis.u2_grid[i, 0], basis.u2_grid[i, 1],
                   basis.v1_grid[i, 0], basis.v1_grid[i, 1],
                   basis.v2_grid[i, 0], basis.v2_grid[i, 1]]
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
