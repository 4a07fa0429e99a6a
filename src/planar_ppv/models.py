"""Planar autonomous vector fields with analytic Jacobian and divergence.

Built-in oscillators are addressed by name + parameter map:
``vanderpol`` (mu), ``stuart_landau`` (omega), ``brusselator`` (a, b).
Field evaluations accept a single point of shape (2,) or a batch of
shape (2, N); Jacobians are evaluated pointwise.
"""

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
    if not np.all(np.isfinite(x)):
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

    dimension = 2

    def field(self, x):
        return self._field(_check_point(x))

    def jacobian(self, x):
        x = _check_point(x)
        if x.ndim != 1:
            raise DomainError("jacobian is evaluated pointwise")
        return self._jacobian(x)

    def divergence(self, x):
        return self._divergence(_check_point(x))

    def rhs(self, t, x):
        """ODE right-hand side in integrator convention (t ignored)."""
        return self._field(np.asarray(x, dtype=float))


def _vanderpol(mu):
    def f(x):
        x1, x2 = x[0], x[1]
        return np.stack([x2, mu * (1.0 - x1 ** 2) * x2 - x1])

    def jac(x):
        x1, x2 = x
        return np.array([
            [0.0, 1.0],
            [-2.0 * mu * x1 * x2 - 1.0, mu * (1.0 - x1 ** 2)],
        ])

    def div(x):
        return mu * (1.0 - x[0] ** 2) + 0.0 * x[1]

    return f, jac, div


def _stuart_landau(omega):
    def f(x):
        x1, x2 = x[0], x[1]
        r2 = x1 ** 2 + x2 ** 2
        return np.stack([x1 * (1.0 - r2) - omega * x2,
                         x2 * (1.0 - r2) + omega * x1])

    def jac(x):
        x1, x2 = x
        return np.array([
            [1.0 - 3.0 * x1 ** 2 - x2 ** 2, -2.0 * x1 * x2 - omega],
            [-2.0 * x1 * x2 + omega, 1.0 - x1 ** 2 - 3.0 * x2 ** 2],
        ])

    def div(x):
        return 2.0 - 4.0 * (x[0] ** 2 + x[1] ** 2)

    return f, jac, div


def _brusselator(a, b):
    def f(x):
        x1, x2 = x[0], x[1]
        return np.stack([a + x1 ** 2 * x2 - (b + 1.0) * x1,
                         b * x1 - x1 ** 2 * x2])

    def jac(x):
        x1, x2 = x
        return np.array([
            [2.0 * x1 * x2 - (b + 1.0), x1 ** 2],
            [b - 2.0 * x1 * x2, -(x1 ** 2)],
        ])

    def div(x):
        return 2.0 * x[0] * x[1] - (b + 1.0) - x[0] ** 2

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
    return np.stack([v[1], -v[0]])
