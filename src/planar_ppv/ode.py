"""Adaptive explicit Runge-Kutta integration with optional dense output.

One pair serves every flow: Dormand-Prince 8(5,3) (Hairer, Norsett &
Wanner, *Solving ODEs I*, II.4-II.6), with embedded error control and a
7th-order dense output.  Its callers are the smooth planar flows (settle,
Newton's augmented (x, Phi, div f, a) flows, the last of which is the
dense cycle with its quadrature, adjoint oracle, batched isochron
endpoints) at rtol 1e-10 to 1e-12, and the phase ODE (the psi path of
``simulate_phase`` and the lock scan's one-period map).

A state is a sequence of components, and the right-hand side takes one
and returns one.  A component is a Python float (every planar flow) or a
1-D NumPy array (the lock map's (n M,) phase state is one).  At these
sizes NumPy's stepper paid for calls, not arithmetic, so one kernel
writes DOP853's stages out once: each line sums the nonzero coefficients
of its ``_DOP853_*`` row in coefficient order, per component with
``zip``.  Every operation is an IEEE ``+ - * /`` rounded to nearest, so a
float and an array element round alike, and no BLAS product, whose
rounding depends on the machine, is on the way.

The step-size controller and first step, the dense output and the event
root finder are transcribed from SciPy 1.17 (``scipy/integrate/_ivp``
and the C ``brentq``), in SciPy's order of operations, each of its dot
products summed in coefficient order.  ``tests/test_ode.py`` pins the
kernel bit for bit against SciPy's stepper with its sums in that order,
and the accepted steps, RHS counts and statuses against plain
``solve_ivp`` (on the 1-D phase ODE its accept/reject decisions differ).  The error norm
adds the squares of float components in order, and those of an array
component with NumPy's pairwise sum.  Only what the pipeline uses is
kept: the stepper goes forward only (t1 > t0), at most one event is
located and it is terminal on an upward crossing, and there is no
``t_eval``, ``max_step``, ``first_step``, vectorized or complex support.

Dense output is on by default; callers that read only the endpoint turn
it off, as ``solve_ivp``'s ``dense_output=False`` does.  Each step's
interpolant is the tuple (t_old, h, F, y_old), F its seven coefficient
rows, each a list of components; one :class:`Trajectory` holds them all
and reads a scalar or an array of times with the same operations, of the
whole state or of a slice of its components (the cycle's x alone, say),
with the same bits.
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
    of the span, 1: event).  ``ts`` holds the step times and ``ys`` the
    flattened states there, (n_samples, dim).  ``steps`` holds each
    step's interpolant (t_old, h, F, y_old), or None after
    ``dense=False``.

    A time on a step boundary belongs to the step that ends there, and a
    time outside [ts[0], ts[-1]] to the first or last step.  A scalar time
    finds its step by ``bisect_left`` (as ``np.searchsorted(...,
    side="left")`` does) and is read by :func:`_interpolate`; an array of
    times is read in one Horner pass over the steps stacked here, each
    element with its own step's scalar operations in the same order.
    """

    def __init__(self, ts, ys, steps, nfev, status):
        self.ts = ts
        self.ys = ys
        self.steps = steps
        self.nfev = nfev
        self.status = status
        if steps is not None:
            self._ts_list = ts.tolist()
            t_old, h, F, y_old = zip(*steps)
            n = len(steps)
            self._t_old = np.array(t_old)
            self._h = np.array(h)
            self._F = np.ascontiguousarray(  # (7, dim, steps)
                np.array(F).reshape(n, 7, -1).transpose(1, 2, 0))
            self._y_old = np.ascontiguousarray(
                np.array(y_old).reshape(n, -1).T)

    @property
    def t1(self):
        return self.ts[-1]

    def at(self, t, components=slice(None)):
        """Dense-output state at a Python float time, as a list of its
        components (of ``components``, a slice of them): the scalar read
        behind ``__call__``, for callers that compute on floats."""
        last = self._last_step()
        k = bisect_left(self._ts_list, t)
        return _interpolate(self.steps[min(max(k - 1, 0), last)], t,
                            components)

    def _last_step(self):
        if self.steps is None:
            raise ArgumentError("integrated with dense=False: only the "
                                "step nodes ts, ys are kept")
        return len(self.steps) - 1

    def __call__(self, t, components=slice(None)):
        """Dense-output evaluation at a scalar time, shape (dim,), or at a
        1-D array of times, shape (dim, n); ``components``, a slice of the
        state, reads only those rows, with the bits of a full read's.  For
        a state of array components the rows are the flattened elements,
        and a scalar read gives one row per component instead."""
        if is_scalar(t):
            return np.array(self.at(float(t), components))
        last = self._last_step()
        t = np.asarray(t, dtype=float)
        if t.ndim != 1:
            raise ArgumentError("dense output takes a scalar or a 1-D array "
                                f"of times, got shape {t.shape}")
        segments = np.searchsorted(self.ts, t, side="left")
        segments -= 1
        np.clip(segments, 0, last, out=segments)
        x = (t - self._t_old[segments]) / self._h[segments]
        o = 1 - x
        y_old = self._y_old[components, segments]
        y = np.zeros(y_old.shape)
        for i, f in enumerate(self._F[::-1, components, segments]):
            y += f
            y *= o if i % 2 else x
        y += y_old
        return y

    @property
    def final(self):
        return self.ys[-1]


def integrate(rhs, x0, t0, t1, rtol=1e-10, atol=1e-12, event=None,
              dense=True):
    """Integrate ``dx/dt = rhs(t, x)`` over [t0, t1].

    ``x0`` is a sequence of components, each a float or a 1-D array;
    ``rhs(t, x)`` and ``event(t, x)`` receive the state as a list of
    them, and ``rhs`` returns a sequence of as many.  An upward zero
    crossing of ``event`` ends the integration at its root (status 1),
    located on the crossing step's interpolant, so an event needs
    ``dense``.  ``dense`` is ``solve_ivp``'s ``dense_output``: with False
    no step interpolant is built (that saves three RHS calls per step)
    and the trajectory cannot be called.  Steps and states do not depend
    on it.
    """
    t0, t1 = float(t0), float(t1)
    if not (math.isfinite(t0) and math.isfinite(t1) and t1 > t0):
        raise ArgumentError(f"need finite t1 > t0, got [{t0}, {t1}]")
    if not (rtol > 0 and atol > 0):
        raise ArgumentError("tolerances must be positive")
    if event is not None and not dense:
        raise ArgumentError("an event is located on dense output")
    try:
        y0 = [np.array(c, dtype=float) if isinstance(c, np.ndarray)
              else float(c) for c in x0]
    except (TypeError, ValueError):
        y0 = None
    if not y0 or not _finite(y0):
        raise ArgumentError("the initial state must be a non-empty sequence "
                            "of finite components")
    solver = _DOP853(rhs, t0, y0, t1, rtol, atol)
    ts, ys, steps = [t0], [y0], []
    g = event(t0, y0) if event is not None else None
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
    return Trajectory(np.array(ts), np.array(ys).reshape(len(ys), -1),
                      steps if dense else None, solver.nfev, status)


def is_scalar(t):
    """``np.ndim(t) == 0``; a Python float, the stepper's time type, is
    told apart without the exception ``np.ndim`` raises and catches on
    it."""
    return isinstance(t, float) or np.ndim(t) == 0


def _interpolate(step, t, components=slice(None)):
    """DOP853's interpolant on one step (t_old, h, F, y_old) at a Python
    float time, as a list of components, in Horner form in x and 1 - x:
    starting at 0.0, add F's rows from the last, multiplying by x and
    1 - x in turn, then add y_old.  On Python floats each operation
    rounds as NumPy's elementwise ufuncs do, without their per-call
    overhead; ``components`` slices the state it reads."""
    t_old, h, F, y_old = step
    # unrolled over F's seven rows (three plus the four of D)
    x = (t - t_old) / h
    o = 1 - x
    return [((((((((0.0 + f6) * x + f5) * o + f4) * x + f3) * o + f2) * x
               + f1) * o + f0) * x + y0)
            for f0, f1, f2, f3, f4, f5, f6, y0
            in zip(*[row[components] for row in F], y_old[components])]


def _finite(y):
    return all(math.isfinite(c) if isinstance(c, float)
               else np.isfinite(c).all() for c in y)


def _rms(xs, n):
    """RMS norm of a state of n elements, ``np.linalg.norm(x) / n ** 0.5``:
    the squares of float components add in order, those of array
    components elementwise and then by NumPy's pairwise sum."""
    total = 0.0
    for x in xs:
        total += x * x
    if type(total) is not float:
        total = float(total.sum())
    return math.sqrt(total) / n ** 0.5


# DOP853: 12 stages plus the 13th (FSAL) for the step, and three more for
# the 7th-order interpolant, in Hairer's coefficients rounded to double.
_DOP853_C = [
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
    0.7777777777777778]
_DOP853_A = [
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
]
_DOP853_E3 = [
    -0.18980075407240762, 0, 0, 0, 0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, -0.4226823213237919,
    -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0]
_DOP853_E5 = [
    0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044,
    -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
    0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0]
_DOP853_D = [
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
]


def _nonzero(row):
    return [a for a in row if a]


# Each table's nonzero coefficients by Hairer's 1-based indices: a5_3
# weighs stage k3 in stage k5, b the step, e5/e3 the error estimates,
# and dr_j the stage k_j in D's row r; c_i is stage k_i's node.
(_, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12, _, c14, c15,
 c16) = _DOP853_C
((a2_1,), (a3_1, a3_2), (a4_1, a4_3), (a5_1, a5_3, a5_4), (a6_1, a6_4, a6_5),
 (a7_1, a7_4, a7_5, a7_6), (a8_1, a8_4, a8_5, a8_6, a8_7),
 (a9_1, a9_4, a9_5, a9_6, a9_7, a9_8),
 (a10_1, a10_4, a10_5, a10_6, a10_7, a10_8, a10_9),
 (a11_1, a11_4, a11_5, a11_6, a11_7, a11_8, a11_9, a11_10),
 (a12_1, a12_4, a12_5, a12_6, a12_7, a12_8, a12_9, a12_10, a12_11),
 (b1, b6, b7, b8, b9, b10, b11, b12),
 (a14_1, a14_7, a14_8, a14_9, a14_10, a14_11, a14_12, a14_13),
 (a15_1, a15_6, a15_7, a15_8, a15_11, a15_12, a15_13, a15_14),
 (a16_1, a16_6, a16_7, a16_8, a16_9, a16_13, a16_14, a16_15),
 ) = map(_nonzero, _DOP853_A[1:])
e5_1, e5_6, e5_7, e5_8, e5_9, e5_10, e5_11, e5_12 = _nonzero(_DOP853_E5)
e3_1, e3_6, e3_7, e3_8, e3_9, e3_10, e3_11, e3_12 = _nonzero(_DOP853_E3)
((d1_1, d1_6, d1_7, d1_8, d1_9, d1_10, d1_11, d1_12, d1_13, d1_14, d1_15,
  d1_16),
 (d2_1, d2_6, d2_7, d2_8, d2_9, d2_10, d2_11, d2_12, d2_13, d2_14, d2_15,
  d2_16),
 (d3_1, d3_6, d3_7, d3_8, d3_9, d3_10, d3_11, d3_12, d3_13, d3_14, d3_15,
  d3_16),
 (d4_1, d4_6, d4_7, d4_8, d4_9, d4_10, d4_11, d4_12, d4_13, d4_14, d4_15,
  d4_16),
 ) = map(_nonzero, _DOP853_D)


def _rk_step(fun, t, y, k1, h):
    """One step of the pair from (t, y), k1 = fun(t, y), of size h.

    Returns the new state and the stages the error estimate and the
    interpolant read: k1, k6, ..., k12 and k13 = fun(t + h, y_new).
    Each stage input is y + (sum of a_ij k_j) h per component.
    """
    k2 = fun(t + c2 * h, [s + a2_1 * q1 * h for s, q1 in zip(y, k1)])
    k3 = fun(t + c3 * h, [s + (a3_1 * q1 + a3_2 * q2) * h
                          for s, q1, q2 in zip(y, k1, k2)])
    k4 = fun(t + c4 * h, [s + (a4_1 * q1 + a4_3 * q3) * h
                          for s, q1, q3 in zip(y, k1, k3)])
    k5 = fun(t + c5 * h, [s + (a5_1 * q1 + a5_3 * q3 + a5_4 * q4) * h
                          for s, q1, q3, q4 in zip(y, k1, k3, k4)])
    k6 = fun(t + c6 * h, [s + (a6_1 * q1 + a6_4 * q4 + a6_5 * q5) * h
                          for s, q1, q4, q5 in zip(y, k1, k4, k5)])
    k7 = fun(t + c7 * h, [
        s + (a7_1 * q1 + a7_4 * q4 + a7_5 * q5 + a7_6 * q6) * h
        for s, q1, q4, q5, q6 in zip(y, k1, k4, k5, k6)])
    k8 = fun(t + c8 * h, [
        s + (a8_1 * q1 + a8_4 * q4 + a8_5 * q5 + a8_6 * q6 + a8_7 * q7) * h
        for s, q1, q4, q5, q6, q7 in zip(y, k1, k4, k5, k6, k7)])
    k9 = fun(t + c9 * h, [
        s + (a9_1 * q1 + a9_4 * q4 + a9_5 * q5 + a9_6 * q6 + a9_7 * q7
             + a9_8 * q8) * h
        for s, q1, q4, q5, q6, q7, q8 in zip(y, k1, k4, k5, k6, k7, k8)])
    k10 = fun(t + c10 * h, [
        s + (a10_1 * q1 + a10_4 * q4 + a10_5 * q5 + a10_6 * q6 + a10_7 * q7
             + a10_8 * q8 + a10_9 * q9) * h
        for s, q1, q4, q5, q6, q7, q8, q9
        in zip(y, k1, k4, k5, k6, k7, k8, k9)])
    k11 = fun(t + c11 * h, [
        s + (a11_1 * q1 + a11_4 * q4 + a11_5 * q5 + a11_6 * q6 + a11_7 * q7
             + a11_8 * q8 + a11_9 * q9 + a11_10 * q10) * h
        for s, q1, q4, q5, q6, q7, q8, q9, q10
        in zip(y, k1, k4, k5, k6, k7, k8, k9, k10)])
    k12 = fun(t + c12 * h, [
        s + (a12_1 * q1 + a12_4 * q4 + a12_5 * q5 + a12_6 * q6 + a12_7 * q7
             + a12_8 * q8 + a12_9 * q9 + a12_10 * q10 + a12_11 * q11) * h
        for s, q1, q4, q5, q6, q7, q8, q9, q10, q11
        in zip(y, k1, k4, k5, k6, k7, k8, k9, k10, k11)])
    y_new = [s + h * (b1 * q1 + b6 * q6 + b7 * q7 + b8 * q8 + b9 * q9
                      + b10 * q10 + b11 * q11 + b12 * q12)
             for s, q1, q6, q7, q8, q9, q10, q11, q12
             in zip(y, k1, k6, k7, k8, k9, k10, k11, k12)]
    k13 = fun(t + h, y_new)
    return y_new, (k1, k6, k7, k8, k9, k10, k11, k12, k13)


def _error_norm(y, y_new, stages, h, rtol, atol, n, maximum):
    """DOP853's scaled error estimate of a step of n state elements;
    ``maximum`` is ``max`` on float components, ``np.maximum`` on
    arrays.  The squares add as in :func:`_rms`."""
    k1, k6, k7, k8, k9, k10, k11, k12, _ = stages
    err5 = err3 = 0.0
    for s, u, q1, q6, q7, q8, q9, q10, q11, q12 in zip(
            y, y_new, k1, k6, k7, k8, k9, k10, k11, k12):
        scale = atol + maximum(abs(s), abs(u)) * rtol
        e = (e5_1 * q1 + e5_6 * q6 + e5_7 * q7 + e5_8 * q8 + e5_9 * q9
             + e5_10 * q10 + e5_11 * q11 + e5_12 * q12) / scale
        err5 += e * e
        e = (e3_1 * q1 + e3_6 * q6 + e3_7 * q7 + e3_8 * q8 + e3_9 * q9
             + e3_10 * q10 + e3_11 * q11 + e3_12 * q12) / scale
        err3 += e * e
    if type(err5) is not float:
        err5, err3 = float(err5.sum()), float(err3.sum())
    # squared norms, as SciPy's norm(err) ** 2
    err5_norm_2 = math.sqrt(err5) ** 2
    err3_norm_2 = math.sqrt(err3) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return h * err5_norm_2 / math.sqrt(denom * n)


def _interpolant(fun, t_old, h, y_old, y, stages):
    """The step's interpolant (t_old, h, F, y_old): three more stages and
    F's seven rows, (y - y_old, ...) and h times D's four rows of sums."""
    k1, k6, k7, k8, k9, k10, k11, k12, k13 = stages
    k14 = fun(t_old + c14 * h, [
        s + (a14_1 * q1 + a14_7 * q7 + a14_8 * q8 + a14_9 * q9 + a14_10 * q10
             + a14_11 * q11 + a14_12 * q12 + a14_13 * q13) * h
        for s, q1, q7, q8, q9, q10, q11, q12, q13
        in zip(y_old, k1, k7, k8, k9, k10, k11, k12, k13)])
    k15 = fun(t_old + c15 * h, [
        s + (a15_1 * q1 + a15_6 * q6 + a15_7 * q7 + a15_8 * q8 + a15_11 * q11
             + a15_12 * q12 + a15_13 * q13 + a15_14 * q14) * h
        for s, q1, q6, q7, q8, q11, q12, q13, q14
        in zip(y_old, k1, k6, k7, k8, k11, k12, k13, k14)])
    k16 = fun(t_old + c16 * h, [
        s + (a16_1 * q1 + a16_6 * q6 + a16_7 * q7 + a16_8 * q8 + a16_9 * q9
             + a16_13 * q13 + a16_14 * q14 + a16_15 * q15) * h
        for s, q1, q6, q7, q8, q9, q13, q14, q15
        in zip(y_old, k1, k6, k7, k8, k9, k13, k14, k15)])
    ks = (k1, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16)
    dy = [u - s for s, u in zip(y_old, y)]
    F = (dy,
         [h * q1 - d for d, q1 in zip(dy, k1)],
         [2 * d - h * (q13 + q1) for d, q1, q13 in zip(dy, k1, k13)],
         [h * (d1_1 * q1 + d1_6 * q6 + d1_7 * q7 + d1_8 * q8 + d1_9 * q9
               + d1_10 * q10 + d1_11 * q11 + d1_12 * q12 + d1_13 * q13
               + d1_14 * q14 + d1_15 * q15 + d1_16 * q16)
          for q1, q6, q7, q8, q9, q10, q11, q12, q13, q14, q15, q16
          in zip(*ks)],
         [h * (d2_1 * q1 + d2_6 * q6 + d2_7 * q7 + d2_8 * q8 + d2_9 * q9
               + d2_10 * q10 + d2_11 * q11 + d2_12 * q12 + d2_13 * q13
               + d2_14 * q14 + d2_15 * q15 + d2_16 * q16)
          for q1, q6, q7, q8, q9, q10, q11, q12, q13, q14, q15, q16
          in zip(*ks)],
         [h * (d3_1 * q1 + d3_6 * q6 + d3_7 * q7 + d3_8 * q8 + d3_9 * q9
               + d3_10 * q10 + d3_11 * q11 + d3_12 * q12 + d3_13 * q13
               + d3_14 * q14 + d3_15 * q15 + d3_16 * q16)
          for q1, q6, q7, q8, q9, q10, q11, q12, q13, q14, q15, q16
          in zip(*ks)],
         [h * (d4_1 * q1 + d4_6 * q6 + d4_7 * q7 + d4_8 * q8 + d4_9 * q9
               + d4_10 * q10 + d4_11 * q11 + d4_12 * q12 + d4_13 * q13
               + d4_14 * q14 + d4_15 * q15 + d4_16 * q16)
          for q1, q6, q7, q8, q9, q10, q11, q12, q13, q14, q15, q16
          in zip(*ks)])
    return t_old, h, F, y_old


class _DOP853:
    """Adaptive stepping of Dormand-Prince 8(5,3) from t0 forward to
    t_bound, with Hairer's 7th-order dense output.

    Times, step sizes and error norms are Python floats, which round each
    operation as the NumPy scalars of SciPy's stepper do.  ``nfev``
    counts the RHS calls: two to start, twelve per step tried and three
    per interpolant.
    """

    def __init__(self, fun, t0, y0, t_bound, rtol, atol):
        self.fun = fun
        self.t, self.y, self.t_bound = t0, y0, t_bound
        self.t_old = self.y_old = self.stages = None
        self.rtol = max(rtol, 100 * _EPS)
        self.atol = float(atol)
        self.n = sum(np.size(c) for c in y0)
        self.maximum = (max if all(isinstance(c, float) for c in y0)
                        else np.maximum)
        # a diverging start is reported by the check below, not by NumPy
        with np.errstate(over="ignore", invalid="ignore"):
            self.f = fun(t0, y0)
        if len(self.f) != len(y0):
            raise ArgumentError(f"the right-hand side returns {len(self.f)} "
                                f"components for a state of {len(y0)}")
        if not _finite(self.f):
            raise IntegrationFailureError(
                f"right-hand side is not finite at t={t0:.6g}", last_t=t0)
        self.h = self._initial_step()
        self.nfev = 2

    def _initial_step(self):
        """First step from the scaled sizes of y0, f0 and a trial
        derivative (Hairer, Norsett & Wanner, II.4)."""
        t0, y0, f0, n = self.t, self.y, self.f, self.n
        interval_length = self.t_bound - t0
        scale = [self.atol + abs(s) * self.rtol for s in y0]
        d0 = _rms([s / w for s, w in zip(y0, scale)], n)
        d1 = _rms([q / w for q, w in zip(f0, scale)], n)
        if d0 < 1e-5 or d1 < 1e-5:
            h0 = 1e-6
        else:
            h0 = 0.01 * d0 / d1
        h0 = min(h0, interval_length)
        f1 = self.fun(t0 + h0, [s + h0 * q for s, q in zip(y0, f0)])
        d2 = _rms([(p - q) / w for p, q, w in zip(f1, f0, scale)], n) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 8)
        return min(100 * h0, h1, interval_length)

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
            y_new, stages = _rk_step(self.fun, t, y, self.f, h)
            self.nfev += 12
            error_norm = _error_norm(y, y_new, stages, h, self.rtol,
                                     self.atol, self.n, self.maximum)
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
        self.t, self.y, self.f, self.stages = t_new, y_new, stages[-1], stages
        self.h = h * factor
        return True

    def dense_output(self):
        """The last step's interpolant (t_old, h, F, y_old); its three extra
        stages count in ``nfev``."""
        self.nfev += 3
        return _interpolant(self.fun, self.t_old, self.t - self.t_old,
                            self.y_old, self.y, self.stages)


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
