"""Dynamical normal modes for driven two-dimensional quadratic systems."""

from .errors import (
    ConfigError,
    DivergenceError,
    DnmError,
    FormulaDiscrepancyWarning,
    PresetDomainError,
    ScheduleDomainError,
    SingularConfigurationError,
    ZeroFrequencyError,
)
from .schedules import (
    Constant,
    ControlSchedule,
    LinearRamp,
    Polynomial,
    SampledTable,
    Smoothstep,
    as_schedule,
)
from .quadratic import MassPair, PhasePoint, QuadraticSystem, StiffnessTriple
from .modes import (
    EllipseGeometry,
    ModeDecomposition,
    SeparabilityReport,
    classify_separability,
    decompose_at,
    effective_hamiltonian_value,
    eigenfrequencies,
    ellipse_at,
    from_mode_frame,
    mass_weighted_stiffness,
    modal_matrix,
    momentum_shift,
    theta_at,
    theta_dot_at,
    to_mode_frame,
)
from .presets import (
    CustomConfig,
    PhaseGateConfig,
    RotationConfig,
    SeparationConfig,
    SpringsConfig,
    TransportConfig,
    build_custom,
    build_phase_gate,
    build_preset,
    build_rotation,
    build_separation,
    build_springs,
    build_transport,
    separability_condition_separation,
)
from .dynamics import (
    IntegratorSpec,
    Trajectory,
    energy_audit,
    frame_equivalence_check,
    integrate_lab,
    integrate_modes,
    integrate_modes_shifted,
    map_to_mode_frame,
    mode_energy_series,
    write_trajectory_csv,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
