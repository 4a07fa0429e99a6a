"""Closed-form phase macromodels of planar nonlinear oscillators.

Pipeline: locate the limit cycle, evaluate the closed-form Floquet
basis (tangent/isochron eigenvectors and the perturbation projection
vector), cross-verify against direct variational/adjoint integrations,
then simulate phase deviation under deterministic or stochastic
forcing.
"""

from .adjoint import numeric_ppv, state_transition, verify_basis
from .cycle import LimitCycle, find_cycle, sample_cycle
from .diliberto import DilibertoBasis, lie_bracket, orthogonality_defect
from .isochron import asymptotic_phase, isochron_experiment
from .models import OscillatorModel, get_model, perp
from .phase import (Perturbation, PhasePath, PPVSpectrum,
                    injection_lock_scan, phase_rhs, ppv_fourier,
                    simulate_phase)
from .stochastic import (DensityField, NoiseModel, PhaseEnsemble,
                         diffusion_summary, simulate_sde_ensemble,
                         solve_fp)

__version__ = "0.1.0"

__all__ = [
    "DensityField", "DilibertoBasis", "LimitCycle", "NoiseModel",
    "OscillatorModel", "Perturbation", "PhaseEnsemble", "PhasePath",
    "PPVSpectrum", "asymptotic_phase", "diffusion_summary",
    "find_cycle", "get_model", "injection_lock_scan",
    "isochron_experiment", "lie_bracket", "numeric_ppv",
    "orthogonality_defect", "perp", "phase_rhs", "ppv_fourier",
    "sample_cycle", "simulate_phase", "simulate_sde_ensemble", "solve_fp",
    "state_transition", "verify_basis",
]
