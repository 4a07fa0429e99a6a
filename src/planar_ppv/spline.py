"""Periodic cubic splines on uniform knots from 0.

``PeriodicSpline.interpolate(x, y)`` is the periodic C^2 cubic
interpolant of ``scipy.interpolate.CubicSpline(x, y, axis=0,
bc_type="periodic")``: the periodic branch of its constructor, with the
tridiagonal solve of LAPACK ``dgtsv`` (Gaussian elimination with partial
pivoting) written out in Python floats, and the Hermite piece
coefficients, transcribed from SciPy 1.17 with every operation in the
same order, so ``.c`` equals SciPy's to the bit.
``PeriodicSpline.hermite(x, y, dydx)`` takes those Hermite coefficients
for given slopes, the pieces of ``scipy.interpolate.CubicHermiteSpline(x,
y, dydx)``.  The read-out
``values`` is SciPy's ``__call__`` with the channel axis moved first,
shaped (m,) + theta's shape (m = 1 for a scalar function): theta is
reduced mod the period (the first knot is 0) to the bits of ``np.mod``,
which wide arrays of phases in [0, 2^25 T) reach by an exact two-part
reduction, and the interval comes from one multiply on the uniform
grid, corrected by one knot comparison each way and closed on the right
as SciPy closes its last interval, and each cubic is summed in ascending
powers from +0.0, as ``PPoly.__call__`` sums it, so the values equal
SciPy's to the bit as well, signed zeros included.  ``_HornerKernel``
is a cheaper read-out of a scalar spline for the SDE's step, a Horner
sum in the fractional knot coordinate, exact to rounding but not to
SciPy's bits.
"""

# The interpolant's construction is derived from SciPy, under this
# notice:
#
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions
# are met:
#
# 1. Redistributions of source code must retain the above copyright
#    notice, this list of conditions and the following disclaimer.
#
# 2. Redistributions in binary form must reproduce the above
#    copyright notice, this list of conditions and the following
#    disclaimer in the documentation and/or other materials provided
#    with the distribution.
#
# 3. Neither the name of the copyright holder nor the names of its
#    contributors may be used to endorse or promote products derived
#    from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
#
# The tridiagonal solve follows LAPACK's dgtsv (Univ. of Tennessee, Univ.
# of California Berkeley, Univ. of Colorado Denver and NAG Ltd.), which
# is distributed under the same three-clause BSD terms.

import math

import numpy as np

from .errors import InternalInconsistencyError

__all__ = ["PeriodicSpline"]

# Arrays of at least this many phases are reduced mod T by the exact
# two-part reduction of PeriodicSpline._mod_period, narrower ones by
# np.mod: on a 2-vCPU x86_64 host np.mod and the reduction took 6 and
# 15 us at 256 phases, 18-22 and 12-20 us at 1,024 and 75-81 and 27 us
# at 4,096 (timeit, phases in [0, 1e3 T)).  A lock map of 4 detunings
# x 64 phases stays on np.mod; one of 25 x 64 takes the reduction.  The
# wide callers are the Fokker-Planck blocks (7,680 half-point phases,
# once none is negative) and the README's lock map (1,600 phases); the
# SDE reads its q through _HornerKernel.
_WIDE_MOD_MIN = 1024


def _uniform_knots(x):
    """x as floats, or InternalInconsistencyError unless it is at least
    four uniform knots from 0."""
    x = np.asarray(x, dtype=float)
    h = np.diff(x)
    if (x.size < 4 or x[0] != 0.0
            or not np.allclose(h, h[0], rtol=1e-9, atol=0)):
        raise InternalInconsistencyError("spline knots are not uniform from 0")
    return x


class PeriodicSpline:
    """Periodic piecewise polynomial on uniform knots ``x`` from 0.

    ``c`` holds the pieces in SciPy's ``PPoly`` layout: ``c[k, i]`` is
    the coefficient of (t - x[i])^(K-k) on [x[i], x[i+1]], shaped
    (K+1, n) for a scalar function or (K+1, n, m) for m channels.  The
    period is x[-1]; ``values`` reduces any t mod x[-1].
    """

    def __init__(self, x, c):
        self.x = _uniform_knots(x)
        self.c = c
        n = self.x.size - 1
        self._x_next, self._n, self._T = self.x[1:], n, float(self.x[-1])
        self._scale = n / self._T
        # T = T_hi + T_lo, T_hi holding T's top 26 significant bits
        mant, exp = math.frexp(self._T)
        self._T_hi = math.ldexp(math.floor(math.ldexp(mant, 26)), exp - 26)
        self._T_lo = self._T - self._T_hi
        self._inv_T, self._wide_max = 1.0 / self._T, 2.0 ** 25 * self._T
        # the derivative's pieces, as PPoly.derivative forms them
        factor = np.arange(c.shape[0] - 1, 0, -1, dtype=float)
        dc = c[:-1] * factor[(slice(None),) + (None,) * (c.ndim - 1)]
        self._coef, self._dcoef = _power_rows(c, n), _power_rows(dc, n)

    @classmethod
    def interpolate(cls, x, y):
        """The periodic cubic spline through (x, y), y[-1] == y[0]; ``y`` is
        (n + 1,) or (n + 1, m) for m channels."""
        x = _uniform_knots(x)
        y = np.asarray(y, dtype=float)
        return cls(x, _hermite(x, y, _periodic_slopes(x, y)))

    @classmethod
    def hermite(cls, x, y, dydx):
        """The cubic Hermite interpolant of values ``y`` and slopes ``dydx``
        at x, shaped as for :meth:`interpolate`; periodic when y[-1] ==
        y[0] and dydx[-1] == dydx[0]."""
        x = _uniform_knots(x)
        return cls(x, _hermite(x, np.asarray(y, dtype=float),
                               np.asarray(dydx, dtype=float)))

    def values(self, theta, derivative=False):
        """The function at theta, one array shaped like theta per channel,
        stacked as (m,) + theta's shape, m = 1 for a scalar function.  With
        ``derivative``, the pair (function, derivative) from one interval
        search."""
        th = self._mod_period(np.asarray(theta, dtype=float))
        scalar = np.ndim(th) == 0
        if scalar:
            th = np.reshape(th, 1)
        i = (th * self._scale).astype(np.intp)
        np.maximum(i, 0, out=i)  # a NaN theta casts to a negative index
        np.minimum(i, self._n - 1, out=i)
        i -= th < self.x.take(i)
        i += th >= self._x_next.take(i)
        np.minimum(i, self._n - 1, out=i)  # np.mod can round up to T
        s = th - self.x.take(i)
        s2 = s * s
        powers = (s, s2, s2 * s)
        out = [_power_sum(rows, i, powers)
               for rows in (self._coef, self._dcoef)[:1 + derivative]]
        if scalar:
            out = [v[:, 0] for v in out]
        return out if derivative else out[0]

    def _mod_period(self, theta):
        """np.mod(theta, T) to the bit.

        np.mod of theta >= 0 is the exact remainder theta - k T, k =
        floor(theta / T).  For 0 <= theta < 2^25 T, k has at most 26
        bits, so k T_hi and k T_lo are exact products and both
        differences are exact wherever k is right.  Next to a multiple of
        T the float quotient can misjudge k by one; the remainder then
        falls outside [0, T), and those phases are reduced by np.mod.
        """
        if theta.size < _WIDE_MOD_MIN or not (
                0.0 <= theta.min() and theta.max() < self._wide_max):
            return np.mod(theta, self._T)
        k = theta * self._inv_T
        np.floor(k, out=k)
        r = k * self._T_hi
        np.subtract(theta, r, out=r)
        k *= self._T_lo
        r -= k
        if not (0.0 <= r.min() and r.max() < self._T):
            off = (r < 0.0) | (r >= self._T)
            r[off] = np.mod(theta[off], self._T)
        return r


class _HornerKernel:
    """A scalar cubic :class:`PeriodicSpline` at t + psi for phases psi of
    one shape, read into a buffer that the next call overwrites: the
    SDE's read-out of its diffusion coefficient, once per step.

    Row k holds the pieces' c[k] h^(3 - k), h = T / n, so each piece is
    a cubic in the fractional knot coordinate u = (theta - x[i]) / h and
    a read-out is a Horner sum over four gathers.  t is first reduced mod
    T as a Python float, so theta = psi + (t mod T) stays near [0, T)
    whatever t, and u = theta n / T gives the piece as its floor mod n,
    which also wraps negative phases.  The value is the spline's to
    rounding, not ``values``' bits: within 1e-14 of its maximum at
    times up to 2^40 * 0.01 for |psi| <= T, the bound growing as
    |psi| / T beyond, with the rounding of theta n / T.  A NaN psi reads
    NaN.
    """

    def __init__(self, spline, shape):
        n, T = spline._n, spline._T
        h = T / n
        self._rows = [ck * h ** (3 - k)
                      for k, ck in enumerate(spline.c.reshape(4, n))]
        self._T, self._n, self._scale = T, n, spline._scale
        self._u, self._q, self._term = (np.empty(shape) for _ in range(3))
        self._i, self._k = (np.empty(shape, dtype=np.intp) for _ in range(2))

    def __call__(self, t, psi):
        u, i, k, q, term = self._u, self._i, self._k, self._q, self._term
        np.add(psi, t % self._T, out=u)
        u *= self._scale
        np.floor(u, out=term)
        u -= term
        i[...] = term
        # i mod n as i - n (i // n): NumPy 2.4 divides by a scalar through
        # libdivide in floor_divide, not in remainder (cast and wrap take
        # 12 against 20 us at 4,096 phases on a 2-vCPU x86_64 host)
        np.floor_divide(i, self._n, out=k)
        k *= self._n
        i -= k
        self._rows[0].take(i, out=q, mode="clip")
        for row in self._rows[1:]:
            q *= u
            row.take(i, out=term, mode="clip")
            q += term
        return q


def _power_rows(c, n):
    """The coefficients of s^0, s^1, ... of pieces ``c``, each as a
    (channels, n) array.  The power sum starts from 0.0, which turns a
    -0.0 constant term into 0.0."""
    rows = [np.ascontiguousarray(r)
            for r in c.reshape(c.shape[0], n, -1).transpose(0, 2, 1)[::-1]]
    rows[0] = 0.0 + rows[0]
    return rows


def _power_sum(rows, i, powers):
    """sum_k rows[k][:, i] s^k in ascending k, as PPoly evaluates it."""
    v = rows[0].take(i, axis=1)
    for ck, p in zip(rows[1:], powers):
        term = ck.take(i, axis=1)
        term *= p
        v += term
    return v


def _periodic_slopes(x, y):
    """Knot derivatives of the periodic cubic spline through (x, y).

    The periodic system has n - 1 unknowns and is cyclic tridiagonal; its
    last row and column are condensed out, and the remaining tridiagonal
    system is solved for the right-hand side and for the corner column.
    """
    n = len(x)
    dx = np.diff(x)
    dxr = dx.reshape([dx.shape[0]] + [1] * (y.ndim - 1))
    slope = np.diff(y, axis=0) / dxr

    A = np.zeros((3, n))  # banded: upper, main and lower diagonal
    b = np.empty((n,) + y.shape[1:])
    A[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    A[0, 2:] = dx[:-1]
    A[-1, :-2] = dx[1:]
    b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])

    A = A[:, 0:-1]
    A[1, 0] = 2 * (dx[-1] + dx[0])
    A[0, 1] = dx[-1]
    b = b[:-1]
    a_m1_0 = dx[-2]  # the condensed row and column: A[-1, 0]
    a_m1_m2 = dx[-1]
    a_m1_m1 = 2 * (dx[-1] + dx[-2])
    a_m2_m1 = dx[-3]
    a_0_m1 = dx[0]
    b[0] = 3 * (dxr[0] * slope[-1] + dxr[-1] * slope[0])
    b[-1] = 3 * (dxr[-1] * slope[-2] + dxr[-2] * slope[-1])

    Ac = A[:, :-1]
    b1 = b[:-1]
    m = b1.shape[0]
    corner = np.zeros(m)  # every channel's corner column is the same
    corner[0] = -a_0_m1
    corner[-1] = -a_m2_m1
    sol = _gtsv(Ac[2, :-1], Ac[1, :], Ac[0, 1:],
                np.column_stack([b1.reshape(m, -1), corner]))
    s1 = sol[:, :-1].reshape(b1.shape)
    s2 = sol[:, -1].reshape((m,) + (1,) * (y.ndim - 1))

    s_m1 = ((b[-1] - a_m1_0 * s1[0] - a_m1_m2 * s1[-1])
            / (a_m1_m1 + a_m1_0 * s2[0] + a_m1_m2 * s2[-1]))
    s = np.empty((n,) + y.shape[1:])
    s[:-2] = s1 + s_m1 * s2
    s[-2] = s_m1
    s[-1] = s[0]
    return s


def _hermite(x, y, dydx):
    """Piece coefficients of the cubic Hermite interpolant of (y, dydx)."""
    dx = np.diff(x)
    dxr = dx.reshape((dx.shape[0],) + (1,) * (y.ndim - 1))
    slope = np.diff(y, axis=0) / dxr
    t = (dydx[:-1] + dydx[1:] - 2 * slope) / dxr
    return np.stack((t / dxr, (slope - dydx[:-1]) / dxr - t, dydx[:-1],
                     y[:-1]))


def _gtsv(dl, d, du, b):
    """Solve the tridiagonal system (dl, d, du) x = b, b shaped (n, k).

    LAPACK dgtsv, elimination then back substitution, column by column
    in Python floats.  The condensed periodic system has 4h on its
    diagonal against h off it, so dgtsv never interchanges rows; a
    system that would need it raises InternalInconsistencyError.  The
    factorization depends on the matrix alone, so it runs once.
    """
    dl, d, du = dl.tolist(), d.tolist(), du.tolist()
    n = len(d)
    fact = [0.0] * (n - 1)
    for i in range(n - 1):
        if not abs(d[i]) >= abs(dl[i]):
            raise InternalInconsistencyError("spline system needs pivoting")
        if d[i] == 0.0:
            raise InternalInconsistencyError("singular spline system")
        fact[i] = dl[i] / d[i]
        d[i + 1] = d[i + 1] - fact[i] * du[i]
        if i < n - 2:
            dl[i] = 0.0
    if d[n - 1] == 0.0:
        raise InternalInconsistencyError("singular spline system")

    out = np.empty((n, b.shape[1]))
    for j, col in enumerate(b.T.tolist()):
        for i in range(n - 1):
            col[i + 1] = col[i + 1] - fact[i] * col[i]
        col[n - 1] = col[n - 1] / d[n - 1]
        if n > 1:
            col[n - 2] = (col[n - 2] - du[n - 2] * col[n - 1]) / d[n - 2]
        for i in range(n - 3, -1, -1):
            col[i] = (col[i] - du[i] * col[i + 1] - dl[i] * col[i + 2]) / d[i]
        out[:, j] = col
    return out
