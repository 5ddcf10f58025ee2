"""Vacuum-potential-field electrodynamics models, verification and quantization."""

from .core import (
    ModelKind,
    Particle,
    PhasePoint,
    clock_rate,
    emergent_rest_mass,
    init_phase,
)
from .dynamics import (
    ForceKind,
    action,
    euler_lagrange_residual,
    force,
    hamiltonian,
    invariant_energy,
    lagrangian,
    legendre_momentum,
    vector_field,
)
from .fields import FieldSource, VacuumField
from .integrate import (
    RK4,
    RK45,
    ImplicitMidpoint,
    TrajectoryRecord,
    compare_trajectories,
    simulate,
    step,
)
from .maxwell import (
    Ball,
    GridField,
    ResidualReport,
    ScalarSeries,
    advected_integral,
    evolve_wave,
    maxwell_residuals,
)
from .quantum import (
    QuantumKind,
    QuantumModel,
    WaveState,
    build_hamiltonian,
    cn_step,
    dispersion_check,
    model_gap,
)

__version__ = "0.1.0"

__all__ = [
    "ModelKind", "Particle", "PhasePoint", "clock_rate", "emergent_rest_mass", "init_phase",
    "ForceKind", "action", "euler_lagrange_residual", "force", "hamiltonian",
    "invariant_energy", "lagrangian", "legendre_momentum", "vector_field",
    "FieldSource", "VacuumField",
    "RK4", "RK45", "ImplicitMidpoint", "TrajectoryRecord", "compare_trajectories",
    "simulate", "step",
    "Ball", "GridField", "ResidualReport", "ScalarSeries", "advected_integral",
    "evolve_wave", "maxwell_residuals",
    "QuantumKind", "QuantumModel", "WaveState", "build_hamiltonian", "cn_step",
    "dispersion_check", "model_gap",
    "__version__",
]
