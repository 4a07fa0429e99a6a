"""Planar autonomous vector fields with analytic Jacobian and divergence.

Built-in oscillators are addressed by name + parameter map:
``vanderpol`` (mu), ``stuart_landau`` (omega), ``brusselator`` (a, b).
Every evaluation takes a point (2,) or a batch (2, N): ``field`` returns
(2,) or (2, N), ``jacobian`` (2, 2) or (2, 2, N), ``divergence`` a scalar
or (N,).  For the built-ins a point gives the bits of its column in a
batch: every square is a product, since ``**`` on a point's NumPy scalar
calls ``pow``, which may round apart from the product an array takes.
Results are assembled with ``np.array``; ``np.stack`` over two scalars
costs several times their arithmetic.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError

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


@dataclass(frozen=True)
class OscillatorModel:
    """A planar autonomous vector field with closed-form derivatives."""

    name: str
    params: dict = field(default_factory=dict)
    _field: Callable = None
    _jacobian: Callable = None
    _divergence: Callable = None

    def field(self, x):
        return self._field(_check_point(x))

    def jacobian(self, x):
        return self._jacobian(_check_point(x))

    def divergence(self, x):
        return self._divergence(_check_point(x))

    def rhs(self, t, x):
        """ODE right-hand side in integrator convention (t ignored)."""
        return self._field(np.asarray(x, dtype=float))


def _vanderpol(mu):
    def f(x):
        x1, x2 = x[0], x[1]
        return np.array([x2, mu * (1.0 - x1 * x1) * x2 - x1])

    def jac(x):
        x1, x2 = x
        if x.ndim == 1:
            zero, one = 0.0, 1.0
        else:
            zero, one = np.zeros_like(x1), np.ones_like(x1)
        return np.array([
            [zero, one],
            [-2.0 * mu * x1 * x2 - 1.0, mu * (1.0 - x1 * x1)],
        ])

    def div(x):
        return mu * (1.0 - x[0] * x[0]) + 0.0 * x[1]

    return f, jac, div


def _stuart_landau(omega):
    def f(x):
        x1, x2 = x[0], x[1]
        r2 = x1 * x1 + x2 * x2
        return np.array([x1 * (1.0 - r2) - omega * x2,
                         x2 * (1.0 - r2) + omega * x1])

    def jac(x):
        x1, x2 = x
        return np.array([
            [1.0 - 3.0 * (x1 * x1) - x2 * x2, -2.0 * x1 * x2 - omega],
            [-2.0 * x1 * x2 + omega, 1.0 - x1 * x1 - 3.0 * (x2 * x2)],
        ])

    def div(x):
        return 2.0 - 4.0 * (x[0] * x[0] + x[1] * x[1])

    return f, jac, div


def _brusselator(a, b):
    def f(x):
        x1, x2 = x[0], x[1]
        return np.array([a + (x1 * x1) * x2 - (b + 1.0) * x1,
                         b * x1 - (x1 * x1) * x2])

    def jac(x):
        x1, x2 = x
        return np.array([
            [2.0 * x1 * x2 - (b + 1.0), x1 * x1],
            [b - 2.0 * x1 * x2, -(x1 * x1)],
        ])

    def div(x):
        return 2.0 * x[0] * x[1] - (b + 1.0) - x[0] * x[0]

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
