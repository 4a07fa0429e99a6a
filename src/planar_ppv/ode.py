"""Adaptive explicit Runge-Kutta integration with optional dense output.

One pair serves every flow: Dormand-Prince 8(5,3) (Hairer, Norsett &
Wanner, *Solving ODEs I*, II.4-II.6), with embedded error control and a
7th-order dense output.  Its callers are the smooth planar flows (settle,
Newton's augmented (x, Phi) flows, the last of which is the dense cycle,
(div f, a) quadrature, adjoint oracle, batched isochron endpoints) at
rtol 1e-10 to 1e-12, and the phase ODE (the psi path of
``simulate_phase`` and the lock scan's one-period map).

The stepper, its step-size controller and first step, the dense output
and the event root finder are transcribed from SciPy 1.17
(``scipy/integrate/_ivp`` and the C ``brentq``), with every arithmetic
operation, BLAS product, norm and min/max in SciPy's order, so steps,
statistics, dense values and event times equal ``solve_ivp``'s to the
bit (``tests/test_ode.py`` checks this against SciPy, with and without
dense output).  Step control runs on Python floats, which round as
SciPy's NumPy scalars do.  Only what the pipeline uses is kept: the
stepper goes forward only (t1 > t0), at most one event is located and
it is terminal on an upward crossing, and there is no ``t_eval``,
``max_step``, ``first_step``, vectorized or complex support.

Dense output is on by default; callers that read only the endpoint turn
it off, as ``solve_ivp``'s ``dense_output=False`` does.  Each step's
interpolant is the tuple (t_old, h, F, y_old); one :class:`Trajectory`
holds them all and reads a scalar or an array of times with the same
operations.
"""

# The code below is derived from SciPy, under this notice:
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

import math
from bisect import bisect_left

import numpy as np

from .errors import ArgumentError, IntegrationFailureError

__all__ = ["Trajectory", "integrate"]

_EPS = np.finfo(float).eps
_SAFETY = 0.9
_MIN_FACTOR = 0.2  # smallest step decrease
_MAX_FACTOR = 10  # largest step increase
_ERROR_EXPONENT = -1 / 8  # -1 / (error estimator order 7 + 1)
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


class Trajectory:
    """Immutable solution of an initial value problem, dense if asked.

    ``nfev`` and ``status`` are the integrator's statistics:
    right-hand-side calls and its termination status (0: reached the end
    of the span, 1: event).  ``steps`` holds each step's interpolant
    (t_old, h, F, y_old), or None after ``dense=False``.

    A time on a step boundary belongs to the step that ends there, and a
    time outside [ts[0], ts[-1]] to the first or last step.  A scalar time
    finds its step by ``bisect_left`` (as ``np.searchsorted(...,
    side="left")`` does) and is read by :func:`_interpolate`; an array of
    times is read in one Horner pass over the steps stacked here, each
    element with its own step's scalar operations in the same order.
    """

    def __init__(self, ts, ys, steps, nfev, status):
        self.ts = ts
        self.ys = ys  # shape (n_samples, dim)
        self.steps = steps
        self.nfev = nfev
        self.status = status
        if steps is not None:
            self._ts_list = ts.tolist()
            t_old, h, F, y_old = zip(*steps)
            self._t_old = np.array(t_old)
            self._h = np.array(h)
            self._F = np.stack(F, axis=-1)  # (7, dim, steps)
            self._y_old = np.stack(y_old, axis=-1)

    @property
    def t1(self):
        return self.ts[-1]

    def __call__(self, t):
        """Dense-output evaluation at a scalar time, shape (dim,), or at a
        1-D array of times, shape (dim, n)."""
        if self.steps is None:
            raise ArgumentError("integrated with dense=False: only the "
                                "step nodes ts, ys are kept")
        last = len(self.steps) - 1
        if is_scalar(t):
            t = float(t)
            k = bisect_left(self._ts_list, t)
            return _interpolate(self.steps[min(max(k - 1, 0), last)], t)
        t = np.asarray(t, dtype=float)
        if t.ndim != 1:
            raise ArgumentError("dense output takes a scalar or a 1-D array "
                                f"of times, got shape {t.shape}")
        segments = np.searchsorted(self.ts, t, side="left")
        segments -= 1
        np.clip(segments, 0, last, out=segments)
        x = (t - self._t_old[segments]) / self._h[segments]
        o = 1 - x
        y = np.zeros((self._y_old.shape[0], x.size))
        for i, f in enumerate(self._F[::-1, :, segments]):
            y += f
            y *= o if i % 2 else x
        y += self._y_old[:, segments]
        return y

    @property
    def final(self):
        return self.ys[-1]


def integrate(rhs, x0, t0, t1, rtol=1e-10, atol=1e-12, event=None,
              dense=True):
    """Integrate ``dx/dt = rhs(t, x)`` over [t0, t1].

    An upward zero crossing of ``event(t, x)`` ends the integration at its
    root (status 1), located on the crossing step's interpolant, so an
    event needs ``dense``.  ``dense`` is ``solve_ivp``'s ``dense_output``:
    with False no step interpolant is built (that saves three RHS calls
    per step) and the trajectory cannot be called.  Steps and states do
    not depend on it.
    """
    t0, t1 = float(t0), float(t1)
    if not (math.isfinite(t0) and math.isfinite(t1) and t1 > t0):
        raise ArgumentError(f"need finite t1 > t0, got [{t0}, {t1}]")
    if not (rtol > 0 and atol > 0):
        raise ArgumentError("tolerances must be positive")
    if event is not None and not dense:
        raise ArgumentError("an event is located on dense output")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.ndim != 1 or x0.size == 0 or not np.isfinite(x0).all():
        raise ArgumentError("the initial state must be a finite 1-D array")
    solver = _DOP853(rhs, t0, x0, t1, rtol, atol)
    ts, ys, steps = [t0], [x0], []
    g = event(t0, x0) if event is not None else None
    status = None
    while status is None:
        if not solver.step():
            raise IntegrationFailureError(
                f"integration failed at t={ts[-1]:.6g}: {_TOO_SMALL_STEP}",
                last_t=ts[-1])
        if solver.t >= t1:
            status = 0
        t, y = solver.t, solver.y
        step = solver.dense_output() if dense else None
        if event is not None:
            g_new = event(t, y)
            if g <= 0 and g_new >= 0:
                t = _brentq(lambda s: event(s, _interpolate(step, s)),
                            solver.t_old, t)
                y = _interpolate(step, t)
                status = 1
            g = g_new
        if not (dense and len(ts) > 1 and ts[-1] == t):  # a new node
            ts.append(t)
            ys.append(y)
            steps.append(step)
    return Trajectory(np.array(ts), np.vstack(ys),
                      steps if dense else None, solver.nfev, status)


def is_scalar(t):
    """``np.ndim(t) == 0``; a Python float, the stepper's time type, is
    told apart without the exception ``np.ndim`` raises and catches on
    it."""
    return isinstance(t, float) or np.ndim(t) == 0


def _interpolate(step, t):
    """DOP853's interpolant on one step (t_old, h, F, y_old) at a Python
    float time, in Horner form in x and 1 - x: starting at 0.0, add F's
    rows from the last, multiplying by x and 1 - x in turn, then add
    y_old.  It runs per component on Python floats, which round each
    operation as NumPy's elementwise ufuncs do, without their per-call
    overhead."""
    t_old, h, F, y_old = step
    # unrolled over F's seven rows (three plus the four of D)
    x = (t - t_old) / h
    o = 1 - x
    return np.array([
        ((((((((0.0 + f6) * x + f5) * o + f4) * x + f3) * o + f2) * x
            + f1) * o + f0) * x + y0)
        for (f0, f1, f2, f3, f4, f5, f6), y0
        in zip(F.T.tolist(), y_old.tolist())])


def _norm(x):
    """RMS norm of an error vector; ``np.linalg.norm`` of a 1-D float array
    is this square root of ``x.dot(x)``."""
    return math.sqrt(x.dot(x)) / x.size ** 0.5


def _stages(K, A, C, first):
    """Each stage's ``np.dot`` operands and node, from stage ``first`` on:
    (K[:s].T, a[:s], c), with the views into K made once per solver."""
    return [(K[:s].T, a[:s], c)
            for s, a, c in zip(range(first, first + len(A)), A, C.tolist())]


def _initial_step(fun, t0, y0, t_bound, f0, rtol, atol):
    """First step from the scaled sizes of y0, f0 and a trial derivative
    (Hairer, Norsett & Wanner, II.4)."""
    interval_length = t_bound - t0
    scale = atol + np.abs(y0) * rtol
    d0 = _norm(y0 / scale)
    d1 = _norm(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * f0
    f1 = fun(t0 + h0, y1)
    d2 = _norm((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval_length)


def _lower_triangle(rows):
    """Square matrix with the given rows below the diagonal, zero above."""
    M = np.zeros((len(rows), len(rows)))
    for i, row in enumerate(rows):
        M[i, :len(row)] = row
    return M


# DOP853: 12 stages plus the 13th (FSAL) for the step, and three more for
# the 7th-order interpolant, in Hairer's coefficients rounded to double.
_DOP853_C = np.array([
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
    0.7777777777777778])
_DOP853_A = _lower_triangle([
    [],
    [0.05260015195876773],
    [0.0197250569845379, 0.0591751709536137],
    [0.02958758547680685, 0, 0.08876275643042054],
    [0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792],
    [0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242],
    [0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125],
    [0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023],
    [0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996],
    [0.47766253643826434, 0, 0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627],
    [-0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196],
    [2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636],
    [0.054293734116568765, 0, 0, 0, 0, 4.450312892752409,
     1.8915178993145003, -5.801203960010585, 0.3111643669578199,
     -0.1521609496625161, 0.20136540080403034, 0.04471061572777259],
    [0.056167502283047954, 0, 0, 0, 0, 0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
     0.00820105229563469, 0.007567897660545699, -0.008298],
    [0.03183464816350214, 0, 0, 0, 0, 0.028300909672366776,
     0.053541988307438566, -0.05492374857139099, 0, 0,
     -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325],
    [-0.42889630158379194, 0, 0, 0, 0, -4.697621415361164,
     7.683421196062599, 4.06898981839711, 0.3567271874552811, 0, 0, 0,
     -0.0013990241651590145, 2.9475147891527724, -9.15095847217987],
])
_DOP853_E3 = np.array([
    -0.18980075407240762, 0, 0, 0, 0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, -0.4226823213237919,
    -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0])
_DOP853_E5 = np.array([
    0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044,
    -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
    0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0])
_DOP853_D = np.array([
    [-8.428938276109013, 0, 0, 0, 0, 0.5667149535193777,
     -3.0689499459498917, 2.38466765651207, 2.117034582445028,
     -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894],
    [10.427508642579134, 0, 0, 0, 0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264,
     -30.674084731089398, -9.332130526430229, 15.697238121770845,
     -31.139403219565178, -9.35292435884448, 35.81684148639408],
    [19.985053242002433, 0, 0, 0, 0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963,
     -1.0006050966910838, 0.7777137798053443, -2.778205752353508,
     -60.19669523126412, 84.32040550667716, 11.99229113618279],
    [-25.69393346270375, 0, 0, 0, 0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163,
     104.0996495089623, 29.8402934266605, -43.53345659001114,
     96.32455395918828, -39.17726167561544, -149.72683625798564],
])


_N_STAGES = 12
_DOP853_B = _DOP853_A[_N_STAGES, :_N_STAGES]


class _DOP853:
    """Adaptive stepping of Dormand-Prince 8(5,3) from t0 forward to
    t_bound, with Hairer's 7th-order dense output.

    Times, step sizes and error norms are Python floats, which round each
    operation as the NumPy scalars of SciPy's stepper do; the stages stay
    on NumPy, with their ``np.dot`` operands as views made once.
    """

    def __init__(self, fun, t0, y0, t_bound, rtol, atol):
        self.nfev = 0

        def counted(t, y):
            self.nfev += 1
            return np.asarray(fun(t, y), dtype=float)

        self.fun = counted
        self.t, self.y, self.t_bound = t0, y0, t_bound
        self.t_old = self.y_old = None
        self.rtol = max(rtol, 100 * _EPS)
        self.atol = float(atol)
        # a diverging start is reported by the check below, not by NumPy
        with np.errstate(over="ignore", invalid="ignore"):
            self.f = self.fun(t0, y0)
        if not np.isfinite(self.f).all():
            raise IntegrationFailureError(
                f"right-hand side is not finite at t={t0:.6g}", last_t=t0)
        self.h = _initial_step(self.fun, t0, y0, t_bound, self.f,
                               self.rtol, self.atol)
        self.K_extended = np.empty((len(_DOP853_C), y0.size))
        self.K = self.K_extended[:_N_STAGES + 1]
        self.KT = self.K.T
        self.stages = _stages(self.K, _DOP853_A[1:_N_STAGES, :_N_STAGES],
                              _DOP853_C[1:_N_STAGES], 1)
        self.extra_stages = _stages(self.K_extended, _DOP853_A[_N_STAGES + 1:],
                                    _DOP853_C[_N_STAGES + 1:], _N_STAGES + 1)
        self.KT_B = self.K[:-1].T

    def _rk_step(self, t, y, h):
        """One step of the pair; its stages land in the rows of K."""
        K = self.K
        K[0] = self.f
        for s, (KT_s, a, c) in enumerate(self.stages, start=1):
            dy = np.dot(KT_s, a) * h
            K[s] = self.fun(t + c * h, y + dy)
        y_new = y + h * np.dot(self.KT_B, _DOP853_B)
        f_new = self.fun(t + h, y_new)
        K[-1] = f_new
        return y_new, f_new

    def _error_norm(self, h, scale):
        err5 = np.dot(self.KT, _DOP853_E5) / scale
        err3 = np.dot(self.KT, _DOP853_E3) / scale
        err5_norm_2 = math.sqrt(err5.dot(err5))**2
        err3_norm_2 = math.sqrt(err3.dot(err3))**2
        if err5_norm_2 == 0 and err3_norm_2 == 0:
            return 0.0
        denom = err5_norm_2 + 0.01 * err3_norm_2
        return h * err5_norm_2 / math.sqrt(denom * len(scale))

    def step(self):
        """Take one accepted step; False once the step size underflows or
        is NaN."""
        t, y = self.t, self.y
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h = max(self.h, min_step)
        step_rejected = False
        while True:
            if not h >= min_step:
                return False
            t_new = min(t + h, self.t_bound)
            h = t_new - t
            y_new, f_new = self._rk_step(t, y, h)
            scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
            error_norm = self._error_norm(h, scale)
            if error_norm < 1:
                break
            h *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            step_rejected = True
        if error_norm == 0:
            factor = _MAX_FACTOR
        else:
            factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
        if step_rejected:
            factor = min(1, factor)
        self.t_old, self.y_old = t, y
        self.t, self.y, self.f = t_new, y_new, f_new
        self.h = h * factor
        return True

    def dense_output(self):
        """The last step's interpolant (t_old, h, F, y_old); its three extra
        stages count in ``nfev``."""
        K = self.K_extended
        t_old, y_old = self.t_old, self.y_old
        h = self.t - t_old
        for s, (KT_s, a, c) in enumerate(self.extra_stages,
                                         start=_N_STAGES + 1):
            dy = np.dot(KT_s, a) * h
            K[s] = self.fun(t_old + c * h, y_old + dy)
        F = np.empty((len(_DOP853_D) + 3, y_old.size))
        f_old = K[0]
        delta_y = self.y - y_old
        F[0] = delta_y
        F[1] = h * f_old - delta_y
        F[2] = 2 * delta_y - h * (self.f + f_old)
        F[3:] = h * np.dot(_DOP853_D, K)
        return t_old, h, F, y_old


def _signbit(x):
    return math.copysign(1.0, x) < 0.0


def _brentq(f, xa, xb):
    """Root of f in [xa, xb] by Brent's method (Brent 1973, ch. 4), as
    SciPy's C ``brentq`` with xtol = rtol = 4 eps and 100 iterations, the
    tolerances ``solve_ivp`` locates events with: inverse quadratic or
    secant steps, bisection whenever a step would not shrink the bracket
    fast enough."""
    xtol = rtol = 4 * _EPS

    def fx(x):
        v = float(f(x))
        if math.isnan(v):
            raise IntegrationFailureError(
                f"event function is NaN at t={x:.17g}", last_t=x)
        return v

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = fx(xpre), fx(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise IntegrationFailureError(
            f"event bracket [{xpre:.17g}, {xcur:.17g}] has no sign change",
            last_t=xpre)
    for _ in range(100):
        if fpre != 0 and fcur != 0 and _signbit(fpre) != _signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            bound = abs(spre)
            if not bound < 3 * abs(sbis) - delta:
                bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < bound:  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = fx(xcur)
    raise IntegrationFailureError(
        "event root not found in 100 iterations", last_t=xcur)
