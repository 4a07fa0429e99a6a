import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from planar_ppv import adjoint, ode, phase
from planar_ppv.errors import ArgumentError, IntegrationFailureError


def rotation(t, x):
    return np.array([-x[1], x[0]])


def decay(t, x):
    return -x


def stuart_landau_rhs(t, x):
    r2 = x[0] ** 2 + x[1] ** 2
    return np.array([x[0] * (1 - r2) - x[1], x[1] * (1 - r2) + x[0]])


def vanderpol_rhs(t, x):
    return np.array([x[1], (1 - x[0] ** 2) * x[1] - x[0]])


def test_rotation_full_turn():
    traj = ode.integrate(rotation, [1.0, 0.0], 0.0, 2 * np.pi, rtol=1e-10)
    np.testing.assert_allclose(traj.final, [1.0, 0.0], atol=1e-8)


def test_exponential_decay():
    traj = ode.integrate(decay, [1.0], 0.0, 1.0, rtol=1e-10, atol=1e-12)
    assert traj.final[0] == pytest.approx(np.exp(-1.0), abs=1e-9)


def test_stuart_landau_radius():
    # closed form: r^2 = 1 / (1 + C e^{-2t}), so r -> 1
    traj = ode.integrate(stuart_landau_rhs, [0.1, 0.0], 0.0, 50.0,
                         rtol=1e-10, atol=1e-12)
    assert np.linalg.norm(traj.final) == pytest.approx(1.0, abs=1e-6)


def test_statistics_count_rhs_calls():
    calls = []

    def counted(t, x):
        calls.append(t)
        return stuart_landau_rhs(t, x)

    traj = ode.integrate(counted, [1.0, 0.0], 0.0, 2 * np.pi)
    assert traj.nfev == len(calls)
    assert traj.status == 0


def test_dense_output_reproduces_samples():
    traj = ode.integrate(stuart_landau_rhs, [0.3, 0.1], 0.0, 10.0)
    for i in range(0, len(traj.ts), 3):
        np.testing.assert_allclose(traj(traj.ts[i]), traj.ys[i], atol=1e-13)


def test_sample_times_strictly_increasing():
    traj = ode.integrate(stuart_landau_rhs, [0.3, 0.1], 0.0, 10.0)
    assert np.all(np.diff(traj.ts) > 0)


def test_dense_output_between_steps():
    rtol, atol = 1e-9, 1e-11
    traj = ode.integrate(stuart_landau_rhs, [0.3, 0.1], 0.0, 10.0,
                         rtol=rtol, atol=atol)
    for i in range(1, len(traj.ts) - 1, 4):
        tm = 0.5 * (traj.ts[i] + traj.ts[i + 1])
        ref = ode.integrate(stuart_landau_rhs, traj.ys[i], traj.ts[i],
                            tm, rtol=1e-12, atol=1e-14).final
        tol = 10 * (rtol * np.linalg.norm(ref) + atol)
        assert np.linalg.norm(traj(tm) - ref) < tol


def call_limited(field, limit=10_000):
    """``field`` that raises after ``limit`` calls, so that an integration
    that does not stop fails instead of hanging."""
    calls = []

    def rhs(t, x):
        calls.append(t)
        if len(calls) > limit:
            raise RuntimeError("the integrator kept calling the RHS")
        return field(t, x)

    return rhs


def test_bad_span_rejected():
    with pytest.raises(ArgumentError):
        ode.integrate(decay, [1.0], 1.0, 0.0)
    with pytest.raises(ArgumentError):
        ode.integrate(decay, [1.0], 0.0, 1.0, rtol=-1e-6)
    # an infinite span or a NaN tolerance would step forever; the call
    # limit turns that into a failure
    for t0, t1 in [(np.nan, 1.0), (0.0, np.nan), (0.0, np.inf),
                   (-np.inf, 1.0)]:
        with pytest.raises(ArgumentError):
            ode.integrate(call_limited(decay), [1.0], t0, t1, dense=False)
    for tols in [{"rtol": np.nan}, {"atol": np.nan}]:
        with pytest.raises(ArgumentError):
            ode.integrate(call_limited(decay), [1.0], 0.0, 1.0, dense=False,
                          **tols)


@pytest.mark.parametrize("field", [
    lambda t, x: np.array([np.nan, 0.0]),
    vanderpol_rhs], ids=["nan", "vdp-inf-times-zero"])
def test_non_finite_start_fails_instead_of_looping(field):
    # a NaN first field gives a NaN first step, which never compares
    # below the smallest step
    rhs = call_limited(field)
    with pytest.raises(IntegrationFailureError, match="not finite") as exc, \
            np.errstate(over="ignore", invalid="ignore"):
        ode.integrate(rhs, [1e200, 0.0], 0.0, 1.0)
    assert exc.value.last_t == 0.0


def test_blowup_raises_with_last_time():
    def explode(t, x):
        return x ** 2

    with pytest.raises(IntegrationFailureError) as exc:
        ode.integrate(explode, [1.0], 0.0, 5.0)
    assert exc.value.last_t is not None
    assert 0.0 < exc.value.last_t <= 5.0


def assert_bits(got, want):
    """Equal to the last bit, signed zeros included."""
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def assert_same_nodes(traj, ref):
    """Same steps, states and statistics as ``solve_ivp``."""
    assert_bits(traj.ts, ref.t)
    assert_bits(traj.ys, ref.y.T)
    assert traj.nfev == ref.nfev
    assert traj.status == ref.status


def assert_same_solution(traj, ref, rng):
    """Same steps, states, statistics and dense output as ``solve_ivp``,
    at random times (unsorted, one array and one by one) and at every
    segment end."""
    assert_same_nodes(traj, ref)
    ts = rng.uniform(ref.t[0], ref.t[-1], 200)
    assert_bits(traj(ts), ref.sol(ts))
    assert_bits(traj(ref.t), ref.sol(ref.t))
    for t in np.concatenate([ts[:20], ref.t]):
        assert_bits(traj(t), ref.sol(t))


# The integrator is transcribed from SciPy's solve_ivp, which stays the
# reference here: steps, nfev, dense output and event times must match
# it to the bit.  ORACLE is solve_ivp's name for the pair.
ORACLE = ["DOP853"]
PROBLEMS = {"vdp": (vanderpol_rhs, [2.0, 0.0], 20.0),
            "sl": (stuart_landau_rhs, [0.3, 0.1], 10.0)}


def captured_integration(monkeypatch, run):
    """(rhs, x0, t1) of the first ``ode.integrate`` call ``run()`` makes."""
    calls = []
    integrate = ode.integrate

    def capture(rhs, x0, t0, t1, **kwargs):
        calls.append((rhs, x0, t1))
        return integrate(rhs, x0, t0, t1, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(ode, "integrate", capture)
        run()
    return calls[0]


@pytest.fixture
def problem(request, monkeypatch):
    """(rhs, x0, t1) by name: a planar flow, or the phase ODE as one of its
    two callers passes it under an additive injection on van der Pol's
    spline projection: ``simulate_phase``'s psi, a (1,) state, and the
    lock map's (n * 64,) state for a row of n = 4 detunings."""
    if request.param in PROBLEMS:
        return PROBLEMS[request.param]
    basis = request.getfixturevalue("vdp_basis")
    amp, eps = np.array([1.0, 0.0]), 0.01
    if request.param == "psi":
        pert = phase.Perturbation.sinusoidal(amp, basis.omega + 0.005, eps)
        return captured_integration(
            monkeypatch, lambda: phase.simulate_phase(basis, pert, 50.0))
    assert request.param == "lockmap"
    rhs, x0, t1 = captured_integration(
        monkeypatch, lambda: phase.injection_lock_scan(
            basis, amp, [eps], np.linspace(-0.012, 0.012, 4)))
    assert x0.shape == (4 * 64,)
    return rhs, x0, t1


@pytest.mark.parametrize("method", ORACLE)
@pytest.mark.parametrize("rtol", [1e-6, 1e-10, 1e-12])
@pytest.mark.parametrize("problem", ["vdp", "sl", "psi"], indirect=True)
def test_matches_solve_ivp_to_the_bit(method, rtol, problem):
    rhs, x0, t1 = problem
    traj = ode.integrate(rhs, x0, 0.0, t1, rtol=rtol, atol=rtol * 1e-2)
    ref = solve_ivp(rhs, (0.0, t1), x0, method=method, rtol=rtol,
                    atol=rtol * 1e-2, dense_output=True)
    assert_same_solution(traj, ref, np.random.default_rng(3))


@pytest.mark.parametrize("method", ORACLE)
@pytest.mark.parametrize("rhs, p", [
    (vanderpol_rhs, np.array([2.0, 0.0])),
    (stuart_landau_rhs, np.array([0.6, -0.8]))], ids=["vdp", "sl"])
def test_event_matches_solve_ivp_to_the_bit(method, rhs, p):
    # the first upward return to the section through p normal to the
    # flow, as cycle.find_cycle sets it up
    n = rhs(0.0, p) / np.linalg.norm(rhs(0.0, p))

    def section(t, x):
        return n @ (x - p) if t > 0 else 1.0

    traj = ode.integrate(rhs, p, 0.0, 50.0, rtol=1e-12, atol=1e-13,
                         event=section)
    section.terminal = True
    section.direction = 1.0
    ref = solve_ivp(rhs, (0.0, 50.0), p, method=method, rtol=1e-12,
                    atol=1e-13, dense_output=True, events=section)
    assert traj.status == 1
    assert traj.t1 == ref.t_events[0][0]
    assert_same_solution(traj, ref, np.random.default_rng(4))


# dense=False is solve_ivp's dense_output=False: no interpolant is built,
# so there are three RHS calls fewer per step, over the same steps
@pytest.mark.parametrize("method", ORACLE)
@pytest.mark.parametrize("problem", ["vdp", "sl", "lockmap"], indirect=True)
def test_final_only_matches_solve_ivp_to_the_bit(method, problem):
    rhs, x0, t1 = problem
    traj = ode.integrate(rhs, x0, 0.0, t1, rtol=1e-12, atol=1e-13,
                         dense=False)
    ref = solve_ivp(rhs, (0.0, t1), x0, method=method, rtol=1e-12,
                    atol=1e-13, dense_output=False)
    assert_same_nodes(traj, ref)
    dense = ode.integrate(rhs, x0, 0.0, t1, rtol=1e-12, atol=1e-13)
    assert_bits(traj.ys, dense.ys)
    assert dense.nfev - traj.nfev == 3 * (len(traj.ts) - 1)
    with pytest.raises(ArgumentError):
        traj(0.5 * t1)


@pytest.mark.parametrize("rhs, p", [
    (vanderpol_rhs, np.array([2.0, 0.0])),
    (stuart_landau_rhs, np.array([0.6, -0.8]))], ids=["vdp", "sl"])
def test_event_needs_dense_output(rhs, p):
    # the event root is located on the crossing step's interpolant, which
    # dense=False does not build; the call fails before any RHS call
    n = rhs(0.0, p) / np.linalg.norm(rhs(0.0, p))

    def section(t, x):
        return n @ (x - p) if t > 0 else 1.0

    with pytest.raises(ArgumentError, match="dense"):
        ode.integrate(call_limited(rhs, limit=0), p, 0.0, 50.0, rtol=1e-12,
                      atol=1e-13, event=section, dense=False)


def assert_scalar_path_matches_array(traj, rng):
    """Scalar times take each step's Python-float Horner, arrays one
    gathered Horner over every time's own step; the array must give the
    bits of each step's own scalar interpolant.  The times are random and
    unsorted, with duplicates, every step boundary, and times before
    ts[0] and after ts[-1], which the clamps send to the first and last
    step."""
    ts = traj.ts
    span = ts[-1] - ts[0]
    inner = rng.uniform(ts[0], ts[-1], 200)
    times = np.concatenate([inner, ts, inner[:10], ts[::7],
                            [ts[0] - 0.01 * span, ts[0] - span,
                             ts[-1] + 0.01 * span, ts[-1] + span]])
    rng.shuffle(times)
    scalar = [traj(float(t)) for t in times]
    ys = traj(times)
    assert ys.shape == (traj.ys.shape[1], len(times))
    assert ys.flags.c_contiguous
    steps = np.clip(np.searchsorted(ts, times, side="left") - 1, 0,
                    len(ts) - 2)
    for t, k, y, y_scalar in zip(times, steps, ys.T, scalar):
        assert_bits(y, y_scalar)
        assert_bits(traj(float(t)), y)
        assert_bits(traj(np.float64(t)), y)
        assert_bits(traj(np.asarray(t)), y)
        assert_bits(ode._interpolate(traj.steps[k], float(t)), y)
    inside = rng.uniform(ts[:-1], ts[1:])  # one time inside each step
    for step, t, y in zip(traj.steps, inside, traj(inside).T):
        assert_bits(ode._interpolate(step, float(t)), y)


def test_scalar_dense_output_matches_array_on_cycle_flow(vdp_cycle):
    # the cycle's 6-dim (x, Phi) flow: cycle.point and cycle.phi
    assert vdp_cycle._traj.ys.shape[1] == 6
    assert_scalar_path_matches_array(vdp_cycle._traj,
                                     np.random.default_rng(5))


def test_scalar_dense_output_matches_array_on_quadrature(vdp_basis):
    # the (div f, a) quadrature behind a(t), b(t) and the basis grid
    assert_scalar_path_matches_array(vdp_basis._quad,
                                     np.random.default_rng(6))


def test_scalar_dense_output_matches_array_on_adjoint_flow(vdp_cycle,
                                                          monkeypatch):
    # numeric_ppv's backward adjoint period, read at T - ts
    trajs = []
    integrate = ode.integrate

    def capture(*args, **kwargs):
        trajs.append(integrate(*args, **kwargs))
        return trajs[-1]

    monkeypatch.setattr(ode, "integrate", capture)
    adjoint.numeric_ppv(vdp_cycle, 64)
    (traj,) = trajs
    assert_scalar_path_matches_array(traj, np.random.default_rng(7))


@pytest.mark.parametrize("method", ORACLE)
def test_dense_output_takes_empty_and_rejects_2d_times(method):
    traj = ode.integrate(vanderpol_rhs, [2.0, 0.0], 0.0, 5.0)
    empty = traj(np.array([]))
    assert empty.shape == (2, 0)
    assert traj([]).shape == (2, 0)
    with pytest.raises(ArgumentError, match=r"shape \(2, 3\)"):
        traj(np.ones((2, 3)))


def test_brent_matches_brentq_on_random_brackets():
    eps = np.finfo(float).eps
    rng = np.random.default_rng(11)
    shapes = [lambda x, c, k: (x - c) * (1.0 + k * (x - c) ** 2),
              lambda x, c, k: np.expm1(k * (x - c)),
              lambda x, c, k: np.tanh(k * (x - c)) + 0.1 * (x - c),
              lambda x, c, k: np.sin(k * x) + 0.2 * (x - c)]
    compared = 0
    for i in range(2000):
        a, b = np.sort(rng.uniform(-3.0, 3.0, 2))
        c, k = rng.uniform(a, b), rng.uniform(0.1, 5.0)
        shape = shapes[i % len(shapes)]

        def f(x):
            return shape(x, c, k)

        if np.signbit(f(a)) == np.signbit(f(b)):
            continue
        assert ode._brentq(f, a, b) == brentq(f, a, b, xtol=4 * eps,
                                              rtol=4 * eps)
        compared += 1
    assert compared > 1500
    with pytest.raises(IntegrationFailureError):
        ode._brentq(lambda x: x * x + 1.0, -1.0, 1.0)
