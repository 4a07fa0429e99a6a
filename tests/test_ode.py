import numpy as np
import pytest

from planar_ppv import ode
from planar_ppv.errors import ArgumentError, IntegrationFailureError


def rotation(t, x):
    return np.array([-x[1], x[0]])


def decay(t, x):
    return -x


def stuart_landau_rhs(t, x):
    r2 = x[0] ** 2 + x[1] ** 2
    return np.array([x[0] * (1 - r2) - x[1], x[1] * (1 - r2) + x[0]])


# both Dormand-Prince pairs meet the same bounds
METHODS = ("RK45", "DOP853")


def test_rotation_full_turn():
    for method in METHODS:
        traj = ode.integrate(rotation, [1.0, 0.0], 0.0, 2 * np.pi,
                             rtol=1e-10, method=method)
        np.testing.assert_allclose(traj.final, [1.0, 0.0], atol=1e-8,
                                   err_msg=method)


def test_exponential_decay():
    for method in METHODS:
        traj = ode.integrate(decay, [1.0], 0.0, 1.0, rtol=1e-10, atol=1e-12,
                             method=method)
        assert traj.final[0] == pytest.approx(np.exp(-1.0), abs=1e-9), method


def test_stuart_landau_radius():
    # closed form: r^2 = 1 / (1 + C e^{-2t}), so r -> 1
    for method in METHODS:
        traj = ode.integrate(stuart_landau_rhs, [0.1, 0.0], 0.0, 50.0,
                             rtol=1e-10, atol=1e-12, method=method)
        assert np.linalg.norm(traj.final) == pytest.approx(1.0, abs=1e-6), \
            method


def test_statistics_count_rhs_calls():
    for method in METHODS:
        calls = []

        def counted(t, x):
            calls.append(t)
            return stuart_landau_rhs(t, x)

        traj = ode.integrate(counted, [1.0, 0.0], 0.0, 2 * np.pi,
                             method=method)
        assert traj.nfev == len(calls), method
        assert traj.njev == 0, method
        assert traj.status == 0, method


def test_dense_output_reproduces_samples():
    for method in METHODS:
        traj = ode.integrate(stuart_landau_rhs, [0.3, 0.1], 0.0, 10.0,
                             method=method)
        for i in range(0, len(traj.ts), 3):
            np.testing.assert_allclose(traj(traj.ts[i]), traj.ys[i],
                                       atol=1e-13, err_msg=method)


def test_sample_times_strictly_increasing():
    traj = ode.integrate(stuart_landau_rhs, [0.3, 0.1], 0.0, 10.0)
    assert np.all(np.diff(traj.ts) > 0)


def test_halving_tolerance_never_hurts():
    cases = [
        (rotation, [1.0, 0.0], 2 * np.pi, np.array([1.0, 0.0])),
        (decay, [1.0], 1.0, np.array([np.exp(-1.0)])),
    ]
    for rhs, x0, t1, exact in cases:
        errs = []
        rtol = 1e-5
        for _ in range(5):
            traj = ode.integrate(rhs, x0, 0.0, t1, rtol=rtol, atol=rtol * 1e-2)
            errs.append(np.linalg.norm(traj.final - exact))
            rtol /= 2
        for a, b in zip(errs, errs[1:]):
            assert b <= a + 1e-13


def test_dense_output_between_steps():
    rtol, atol = 1e-9, 1e-11
    for method in METHODS:
        traj = ode.integrate(stuart_landau_rhs, [0.3, 0.1], 0.0, 10.0,
                             rtol=rtol, atol=atol, method=method)
        for i in range(1, len(traj.ts) - 1, 4):
            tm = 0.5 * (traj.ts[i] + traj.ts[i + 1])
            ref = ode.integrate(stuart_landau_rhs, traj.ys[i], traj.ts[i],
                                tm, rtol=1e-12, atol=1e-14).final
            tol = 10 * (rtol * np.linalg.norm(ref) + atol)
            assert np.linalg.norm(traj(tm) - ref) < tol, method


def test_bad_span_rejected():
    with pytest.raises(ArgumentError):
        ode.integrate(decay, [1.0], 1.0, 0.0)
    with pytest.raises(ArgumentError):
        ode.integrate(decay, [1.0], 0.0, 1.0, rtol=-1e-6)
    with pytest.raises(ArgumentError):
        ode.integrate(decay, [1.0], 0.0, 1.0, method="Euler")


def test_blowup_raises_with_last_time():
    def explode(t, x):
        return x ** 2

    with pytest.raises(IntegrationFailureError) as exc:
        ode.integrate(explode, [1.0], 0.0, 5.0)
    assert exc.value.last_t is not None
    assert 0.0 < exc.value.last_t <= 5.0
