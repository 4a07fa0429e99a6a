"""Exception hierarchy shared across the package."""


class PlanarPPVError(Exception):
    """Base class for all package-specific errors."""


class DomainError(PlanarPPVError):
    """Evaluation requested at a point outside the admissible domain
    (non-finite coordinates, etc.)."""


class ArgumentError(PlanarPPVError, ValueError):
    """Invalid argument to an operation (bad grid size, oversized step, ...)."""


class IntegrationFailureError(PlanarPPVError):
    """Adaptive integrator could not continue (step underflow / blow-up)."""

    def __init__(self, message, last_t=None):
        super().__init__(message)
        self.last_t = last_t


class CycleNotFoundError(PlanarPPVError):
    """Shooting Newton iteration failed to converge to a periodic orbit."""


class NoOscillationError(PlanarPPVError):
    """Trajectory relaxed to a fixed point instead of a limit cycle."""


class DegenerateCycleError(PlanarPPVError):
    """Non-hyperbolic cycle: second multiplier too close to 1, the
    closed-form basis breaks down."""


class InternalInconsistencyError(PlanarPPVError):
    """A quantity violated a mathematically guaranteed property
    (signals numerical blow-up upstream)."""


class OracleFailureError(PlanarPPVError):
    """The independent numerical oracle failed to converge."""


class NotConvergedError(PlanarPPVError):
    """Asymptotic-phase measurement did not converge onto the cycle."""


class InstabilityError(PlanarPPVError):
    """Finite-difference solution developed significant negative density."""


class ConfigError(PlanarPPVError):
    """Invalid run configuration or model specification (unknown model
    name or parameter); ``line`` is the config-file line when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
