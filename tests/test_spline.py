import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from planar_ppv.errors import InternalInconsistencyError
from planar_ppv.spline import PeriodicSpline, _gtsv


def assert_bits(got, want):
    """Equal to the last bit, signed zeros included."""
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def read(spline, theta, derivative=False):
    """``spline.values`` in SciPy's layout: the channel axis moved last,
    or dropped for a scalar function."""
    vals = spline.values(theta, derivative)
    out = [v[0] if spline.c.ndim == 2 else np.moveaxis(v, 0, -1)
           for v in (vals if derivative else [vals])]
    return out if derivative else out[0]


def _phases(rng, x):
    """Random phases over three periods either way, the knots, their
    neighbours and their negatives."""
    T = x[-1]
    near = np.concatenate([x, x + T, x - 2 * T])
    return np.concatenate([rng.uniform(-3 * T, 3 * T, 400), near,
                           np.nextafter(near, np.inf),
                           np.nextafter(near, -np.inf), -near])


# PeriodicSpline.interpolate is transcribed from SciPy's periodic
# CubicSpline, which stays the reference: coefficients and values must
# match it to the bit.
@pytest.mark.parametrize("seed", range(4))
def test_matches_cubic_spline_to_the_bit(seed):
    rng = np.random.default_rng(seed)
    for trial in range(50):
        n = int(rng.integers(8, 1025))
        T = rng.uniform(0.5, 20.0)
        # both knot layouts the package builds: k * (T / n) up to T, and
        # k * h for every k
        x = (np.append(np.arange(n) * (T / n), T) if trial % 2
             else np.arange(n + 1) * (T / n))
        shape = (n + 1,) if trial % 6 == 0 else (n + 1, int(rng.integers(1, 6)))
        y = rng.normal(size=shape)
        if trial % 3 == 0:  # signed zeros, in places and in a whole channel
            y[rng.integers(0, n, 5)] = -0.0
            if y.ndim == 2:
                y[:, 0] = -0.0
        y[-1] = y[0]
        spline = PeriodicSpline.interpolate(x, y)
        reference = CubicSpline(x, y, axis=0, bc_type="periodic")
        assert_bits(spline.x, reference.x)
        assert_bits(spline.c, reference.c)
        theta = _phases(rng, x)
        assert_bits(read(spline, theta), reference(theta))
        assert_bits(read(spline, theta[:400].reshape(-1, 8)),
                    reference(theta[:400].reshape(-1, 8)))
        assert_bits(read(spline, theta[7]), reference(theta[7]))
        value, slope = read(spline, theta, derivative=True)
        assert_bits(value, reference(theta))
        assert_bits(slope, reference.derivative()(theta))
        value, slope = read(spline, theta[3], derivative=True)
        assert_bits(slope, reference.derivative()(theta[3]))


def test_nan_and_inf_give_nan():
    x = np.linspace(0.0, 2 * np.pi, 33)
    y = np.cos(x)
    y[-1] = y[0]
    theta = np.array([np.nan, 1.0, np.inf, -np.inf])
    with np.errstate(invalid="ignore"):
        got = read(PeriodicSpline.interpolate(x, y), theta)
        want = CubicSpline(x, y, bc_type="periodic")(theta)
    np.testing.assert_array_equal(got, want)  # NaN payloads may differ


def test_values_split_channels():
    x = np.linspace(0.0, 3.0, 33)
    y = np.stack([np.sin(2 * np.pi * x / 3), np.cos(2 * np.pi * x / 3)], 1)
    y[-1] = y[0]
    spline = PeriodicSpline.interpolate(x, y)
    theta = np.linspace(-4.0, 7.0, 101)
    # one array shaped like theta per channel, channel axis first, and a
    # scalar function as a spline of one channel
    vals = spline.values(theta)
    assert vals.shape == (2, 101)
    reference = CubicSpline(x, y, axis=0, bc_type="periodic")
    assert_bits(vals, np.moveaxis(reference(theta), -1, 0))
    assert spline.values(theta[5]).shape == (2,)
    single = PeriodicSpline.interpolate(x, y[:, 1])
    assert single.values(theta).shape == (1, 101)
    assert_bits(single.values(theta)[0], vals[1])


@pytest.mark.parametrize("knots", [
    np.linspace(1.0, 2.0, 17),                     # not from 0
    np.array([0.0, 0.1, 0.25, 0.3, 0.4]),          # not uniform
    np.array([0.0, 0.5, 1.0])])                    # too few
def test_rejects_knots_the_kernel_cannot_take(knots):
    y = np.zeros(knots.size)
    with pytest.raises(InternalInconsistencyError):
        PeriodicSpline.interpolate(knots, y)


def _nonnegative_phases(T, size):
    """Phases in [0, 2^25 T): first +-0.0, 5e-324, k T and its two
    neighbours for k up to 1,000 and near 2^25, where the float quotient
    theta / T can misjudge k by one, then ``size`` uniform phases up to
    1e3 T."""
    k = np.concatenate([np.arange(1001.0), 2.0 ** 25 - np.arange(1.0, 50.0)])
    near = k * T
    near = np.concatenate([[0.0, -0.0, 5e-324], near,
                           np.nextafter(near, np.inf),
                           np.nextafter(near[1:], -np.inf)])
    theta = np.concatenate([near, np.random.default_rng(6).uniform(
        0.0, 1e3, size) * T])
    assert theta.max() < 2.0 ** 25 * T
    return theta


@pytest.mark.parametrize("period", ["sl", "vdp", 0.1, 1e4,
                                    np.nextafter(8.0, 0.0)])
def test_wide_reduction_equals_np_mod(request, period):
    # a wide array of phases >= 0, multiples of T and their neighbours
    # included, is reduced as np.mod reduces it and read to SciPy's bits
    if isinstance(period, str):
        period = request.getfixturevalue(period + "_basis").cycle.T
    x = np.linspace(0.0, period, 65)
    y = np.stack([np.cos(2 * np.pi * x / period),
                  np.sin(4 * np.pi * x / period)], 1)
    y[-1] = y[0]
    spline = PeriodicSpline.interpolate(x, y)
    theta = _nonnegative_phases(period, 4096)
    reference = CubicSpline(x, y, axis=0, bc_type="periodic")
    assert_bits(read(spline, theta), reference(theta))
    assert_bits(spline.values(theta), spline.values(np.mod(theta, period)))


def test_tridiagonal_solve_refuses_to_pivot():
    # the periodic system is diagonally dominant, so dgtsv's row
    # interchange is left out; a system that needs one is refused
    with pytest.raises(InternalInconsistencyError, match="pivoting"):
        _gtsv(np.array([2.0, 1.0]), np.array([1.0, 4.0, 4.0]),
              np.array([1.0, 1.0]), np.ones((3, 1)))
