"""Planar autonomous vector fields with analytic Jacobian and divergence.

Built-in oscillators are addressed by name + parameter map:
``vanderpol`` (mu), ``stuart_landau`` (omega), ``brusselator`` (a, b).
Each writes its field, Jacobian and divergence once, as expressions of a
point's two coordinates: Python floats (the integrators' flows, through
``rhs``), the NumPy scalars of a point (2,), or the two rows of a batch
(2, N).  The checked methods return arrays: ``field`` (2,) or (2, N),
``jacobian`` (2, 2) or (2, 2, N), ``divergence`` a scalar or (N,).  A
point gives the bits of its column in a batch, on floats as on NumPy
scalars: every square is a product, since ``**`` on a point calls
``pow``, which may round apart from the product an array takes, and IEEE
``+ - * /`` round alike on Python floats and in NumPy's elementwise
loops.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ArgumentError, ConfigError, DomainError

__all__ = [
    "OscillatorModel",
    "get_model",
    "model_names",
    "perp",
]


def _check_point(x):
    x = np.asarray(x, dtype=float)
    if x.shape[0] != 2:
        raise DomainError(f"expected planar point, got shape {x.shape}")
    finite = (all(map(math.isfinite, x.tolist())) if x.ndim == 1
              else np.isfinite(x).all())
    if not finite:
        raise DomainError("non-finite coordinates in evaluation point")
    return x


def planar_point(value, name):
    """``value`` as a pair of Python floats, or :class:`ArgumentError`
    naming the argument unless it is a finite 2-vector."""
    try:
        x1, x2 = (float(v) for v in value)
    except (TypeError, ValueError):
        x1 = x2 = math.nan
    if not (math.isfinite(x1) and math.isfinite(x2)):
        raise ArgumentError(f"{name} must be a finite 2-vector, got {value!r}")
    return x1, x2


def _batch_array(entries, x):
    """Nested entries of a point's or a batch's evaluation as one array;
    in a batch, a constant entry is broadcast to the batch's columns."""
    if x.ndim == 1:
        return np.array(entries)
    shape = x.shape[1:]
    return np.array([[np.broadcast_to(e, shape) for e in row]
                     for row in entries])


@dataclass(frozen=True)
class OscillatorModel:
    """A planar autonomous vector field with closed-form derivatives.

    Each callable takes a point as a sequence of two coordinates, floats
    or the rows of a batch, and returns the field as a pair, the Jacobian
    as two rows of two and the divergence as a scalar, of floats or
    arrays; an array result such as ``np.stack(...)`` works as well.
    """

    name: str
    params: dict = field(default_factory=dict)
    _field: Callable = None
    _jacobian: Callable = None
    _divergence: Callable = None

    def field(self, x):
        return np.array(self._field(_check_point(x)))

    def jacobian(self, x):
        x = _check_point(x)
        return _batch_array(self._jacobian(x), x)

    def divergence(self, x):
        return self._divergence(_check_point(x))

    def rhs(self, t, x):
        """ODE right-hand side in the integrator's convention (t ignored):
        the field at a pair of floats, as a pair, unchecked; every flow
        evaluates its field here."""
        return self._field(x)


def _vanderpol(mu):
    def f(x):
        x1, x2 = x
        return x2, mu * (1.0 - x1 * x1) * x2 - x1

    def jac(x):
        x1, x2 = x
        return (0.0, 1.0), (-2.0 * mu * x1 * x2 - 1.0, mu * (1.0 - x1 * x1))

    def div(x):
        x1, x2 = x
        return mu * (1.0 - x1 * x1) + 0.0 * x2

    return f, jac, div


def _stuart_landau(omega):
    def f(x):
        x1, x2 = x
        r2 = x1 * x1 + x2 * x2
        return x1 * (1.0 - r2) - omega * x2, x2 * (1.0 - r2) + omega * x1

    def jac(x):
        x1, x2 = x
        return ((1.0 - 3.0 * (x1 * x1) - x2 * x2, -2.0 * x1 * x2 - omega),
                (-2.0 * x1 * x2 + omega, 1.0 - x1 * x1 - 3.0 * (x2 * x2)))

    def div(x):
        x1, x2 = x
        return 2.0 - 4.0 * (x1 * x1 + x2 * x2)

    return f, jac, div


def _brusselator(a, b):
    def f(x):
        x1, x2 = x
        return (a + (x1 * x1) * x2 - (b + 1.0) * x1,
                b * x1 - (x1 * x1) * x2)

    def jac(x):
        x1, x2 = x
        return ((2.0 * x1 * x2 - (b + 1.0), x1 * x1),
                (b - 2.0 * x1 * x2, -(x1 * x1)))

    def div(x):
        x1, x2 = x
        return 2.0 * x1 * x2 - (b + 1.0) - x1 * x1

    return f, jac, div


_BUILTINS = {
    "vanderpol": (_vanderpol, {"mu": 1.0}),
    "stuart_landau": (_stuart_landau, {"omega": 1.0}),
    "brusselator": (_brusselator, {"a": 1.0, "b": 3.0}),
}


def model_names():
    return sorted(_BUILTINS)


def get_model(name, **params):
    """Instantiate a built-in oscillator by name.

    Unknown names or parameter keys raise :class:`ConfigError`.
    """
    if name not in _BUILTINS:
        raise ConfigError(
            f"unknown model {name!r}; available: {', '.join(model_names())}")
    factory, defaults = _BUILTINS[name]
    unknown = set(params) - set(defaults)
    if unknown:
        raise ConfigError(
            f"unknown parameter(s) {sorted(unknown)} for model {name!r}")
    full = dict(defaults)
    full.update({k: float(v) for k, v in params.items()})
    if not all(np.isfinite(v) for v in full.values()):
        raise ConfigError(f"non-finite parameter for model {name!r}")
    f, jac, div = factory(**full)
    return OscillatorModel(name=name, params=full,
                           _field=f, _jacobian=jac, _divergence=div)


def perp(v):
    """Rotate by -90 degrees: (v1, v2) -> (v2, -v1).

    The result is exactly orthogonal to the input and has the same norm.
    """
    v = np.asarray(v, dtype=float)
    return np.array([v[1], -v[0]])
