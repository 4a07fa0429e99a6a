"""Closed-form phase macromodels of planar nonlinear oscillators.

Pipeline: locate the limit cycle, evaluate the closed-form Floquet
basis (tangent/isochron eigenvectors and the perturbation projection
vector), cross-verify against direct variational/adjoint integrations,
then simulate phase deviation under deterministic or stochastic
forcing.

``import planar_ppv`` loads no submodule and no NumPy: each exported
name, and each submodule such as ``planar_ppv.models``, is imported on
first use (PEP 562).  So ``planar-ppv run`` reaches ``cli`` before
anything has loaded NumPy, and can choose NumPy's BLAS threads there.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "adjoint": ("numeric_ppv", "state_transition", "verify_basis"),
    "cycle": ("LimitCycle", "find_cycle", "sample_cycle"),
    "diliberto": ("DilibertoBasis", "lie_bracket", "orthogonality_defect"),
    "isochron": ("asymptotic_phase", "isochron_experiment"),
    "models": ("OscillatorModel", "get_model", "perp"),
    "phase": ("Perturbation", "PhasePath", "PPVSpectrum",
              "injection_lock_scan", "ppv_fourier", "simulate_phase"),
    "stochastic": ("DensityField", "NoiseModel", "PhaseEnsemble",
                   "diffusion_summary", "simulate_sde_ensemble", "solve_fp"),
}
_OWNER = {name: module for module, names in _EXPORTS.items()
          for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "config", "errors", "ode",
                                     "spline", "svgplot"}

__all__ = sorted(_OWNER)


def __getattr__(name):
    if name in _OWNER:
        value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__),
                        name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
