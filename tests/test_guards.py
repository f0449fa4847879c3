"""Input guards of the library: each rejects its bad input with a named error.

One case per guard that the other tests never run, calling the library
directly: the frame checks of the integrators, the map and the mode-frame
helpers, and the value checks of the small types.
"""

import sys
from fractions import Fraction

import numpy as np
import pytest

from dnmodes.dynamics import (
    IntegratorSpec,
    Trajectory,
    integrate_lab,
    integrate_modes,
    integrate_modes_shifted,
    map_to_mode_frame,
    mode_energy_series,
)
from dnmodes.errors import ConfigError, PresetDomainError
from dnmodes.modes import (
    classify_separability,
    decompose_at,
    effective_hamiltonian_value,
    from_mode_frame,
    momentum_shift,
    to_mode_frame,
)
from dnmodes.presets import (
    CustomConfig,
    RotationConfig,
    audit_phase_gate_formulas,
    build_custom,
    build_preset,
    separability_condition_separation,
    solve_phase_gate_distance,
    solve_separation_distance,
)
from dnmodes.quadratic import MassPair, PhasePoint
from dnmodes.schedules import Polynomial, SampledTable

SYS = build_custom(CustomConfig(k=0.5, k1=1.0, k2=2.0, masses=(1.0, 2.0)))
SPEC = IntegratorSpec(dt=0.25, t0=0.0, t1=1.0)
LAB = PhasePoint(0.0, (0.1, -0.1), (0.0, 0.0))
MODE = PhasePoint(0.0, (0.1, -0.1), (0.0, 0.0), frame="mode")
DEC = decompose_at(SYS, 0.0)
NOT_A_CONFIG = object()


def trajectory(frame):
    times = np.linspace(0.0, 1.0, 3)
    return Trajectory(frame, times, np.zeros((3, 4)))


# case: (call, error type, the error's whole message).
GUARDS = {
    "integrate_lab_mode_point": (
        lambda: integrate_lab(SYS, MODE, SPEC),
        ConfigError, "integrate_lab expects a lab-frame initial point"),
    "integrate_modes_lab_point": (
        lambda: integrate_modes(SYS, LAB, SPEC),
        ConfigError, "integrate_modes expects a mode-frame initial point"),
    "integrate_modes_verlet": (
        lambda: integrate_modes(SYS, MODE, IntegratorSpec(0.25, 0.0, 1.0, "velocity-verlet")),
        ConfigError, "mode-frame integration supports rk4 only"),
    "integrate_modes_shifted_lab_point": (
        lambda: integrate_modes_shifted(SYS, LAB, SPEC),
        ConfigError, "integrate_modes_shifted expects a mode-frame point"),
    "map_to_mode_frame_mode_trajectory": (
        lambda: map_to_mode_frame(SYS, trajectory("mode")),
        ConfigError, "map_to_mode_frame expects a lab trajectory"),
    "mode_energy_series_lab_trajectory": (
        lambda: mode_energy_series(trajectory("lab"), SYS),
        ConfigError, "mode_energy_series expects a mode trajectory"),
    "to_mode_frame_mode_point": (
        lambda: to_mode_frame(DEC, MODE, SYS),
        ConfigError, "to_mode_frame expects a lab-frame point"),
    "from_mode_frame_lab_point": (
        lambda: from_mode_frame(DEC, LAB, SYS),
        ConfigError, "from_mode_frame expects a mode-frame point"),
    "effective_hamiltonian_value_lab_point": (
        lambda: effective_hamiltonian_value(DEC, SYS, LAB),
        ConfigError, "effective_hamiltonian_value expects a mode-frame point"),
    "momentum_shift_lab_point": (
        lambda: momentum_shift(DEC, SYS, LAB),
        ConfigError, "momentum_shift expects a mode-frame point"),
    # A NaN window end is a field error, not round()'s bare ValueError.
    "integrator_spec_nan_t0": (
        lambda: IntegratorSpec(0.1, float("nan"), 1.0),
        ConfigError, "t0 must be a finite number, got nan"),
    "integrator_spec_nan_t1": (
        lambda: IntegratorSpec(0.1, 0.0, float("nan")),
        ConfigError, "t1 must be a finite number, got nan"),
    "classify_one_sample": (
        lambda: classify_separability(SYS, (0.0, 1.0), n_samples=1),
        ConfigError, "classify_separability needs n_samples >= 2"),
    "phase_point_frame": (
        lambda: PhasePoint(0.0, (0.0, 0.0), (0.0, 0.0), frame="x"),
        ConfigError, "frame must be 'lab' or 'mode', got 'x'"),
    "phase_point_nan": (
        lambda: PhasePoint(0.0, (float("nan"), 0.0), (0.0, 0.0)),
        ConfigError, "phase-point components must be finite"),
    "mass_product_overflow": (
        lambda: MassPair(1e200, 1e200),
        ConfigError, "m1 * m2 overflows, got 1e+200 and 1e+200"),
    # sqrt(m1 m2) would be 0, and the mode frame divides by it.
    "mass_product_underflow": (
        lambda: MassPair(1e-200, 1e-200),
        ConfigError, "m1 * m2 underflows, got 1e-200 and 1e-200"),
    # Rotation's two masses are one field, m, and its message names that field.
    "rotation_mass_product_underflow": (
        lambda: RotationConfig(m=1e-300, omega1=1.0, omega2=2.0, phi=0.0),
        ConfigError, "rotation: m * m underflows, got 1e-300"),
    "rotation_mass_product_overflow": (
        lambda: RotationConfig(m=1e200, omega1=1.0, omega2=2.0, phi=0.0),
        ConfigError, "rotation: m * m overflows, got 1e+200"),
    # 1/m1 is inf, and the mass-weighted stiffness scales by it.
    "mass_reciprocal_overflow": (
        lambda: MassPair(1e-310, 1.0),
        ConfigError, "1/m1 + 1/m2 overflows, got 1e-310 and 1.0"),
    "separation_condition_alpha_zero": (
        lambda: separability_condition_separation(0.0, 1.0, (0.0, 1.0)),
        PresetDomainError, "separability condition needs alpha != 0 on the window"),
    # alpha**5 underflows to 0 at alpha = +-1e-70 and overflows at alpha = 1e70.
    "separation_condition_alpha_power_underflow": (
        lambda: separability_condition_separation(-1e-70, 1.0, (0.0, 1.0)),
        PresetDomainError, "separability condition: beta^3/alpha^5 leaves the floats at t=0.0"),
    "separation_condition_alpha_power_overflow": (
        lambda: separability_condition_separation(1e70, 1.0, (0.0, 1.0)),
        PresetDomainError, "separability condition: beta^3/alpha^5 leaves the floats at t=0.0"),
    # q0 is about sqrt(2 |alpha|/beta) = 2e315 (see NO_FLOAT_ROOTS).
    "separation_condition_root_overflow": (
        lambda: separability_condition_separation(-1e307, 5e-324, (0.0, 1.0)),
        PresetDomainError, "separability condition: q0 leaves the floats at t=0.0"),
    # The public root solves and the audit name q0 where it is no float.
    "separation_distance_overflow": (
        lambda: solve_separation_distance(-1e307, 5e-324, 1.0),
        PresetDomainError, "separation: q0 overflows for alpha=-1e+307, beta=5e-324, Cc=1.0"),
    "phase_gate_distance_overflow": (
        lambda: solve_phase_gate_distance(0.0, 1e300, 1e-10, 1.0),
        PresetDomainError, "phase-gate: q0 overflows for F1=0.0, F2=1e+300, k0=1e-10, Cc=1.0"),
    "phase_gate_audit_overflow": (
        lambda: audit_phase_gate_formulas(0.0, 1e300, 1e-10, 1.0),
        PresetDomainError, "phase-gate: q0 overflows for F1=0.0, F2=1e+300, k0=1e-10, Cc=1.0"),
    "build_preset_object": (
        lambda: build_preset(NOT_A_CONFIG),
        ConfigError, f"cannot build a preset from {NOT_A_CONFIG!r}"),
    "polynomial_no_coefficients": (
        lambda: Polynomial(()),
        ConfigError, "polynomial schedule needs at least one coefficient"),
    "table_lengths": (
        lambda: SampledTable((0.0, 1.0, 2.0), (0.0, 1.0)),
        ConfigError, "sampled-table needs matching times and values, length >= 2"),
    "table_interpolation": (
        lambda: SampledTable((0.0, 1.0), (0.0, 1.0), interpolation="quadratic"),
        ConfigError, "unknown interpolation 'quadratic'"),
}


@pytest.mark.parametrize("case", sorted(GUARDS))
def test_a_guard_raises_its_named_error(case):
    call, error, message = GUARDS[case]
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message


# The distance polynomials of the overflow guards above (highest power first):
# each has one sign change, so its one positive root lies beyond every float iff
# it is negative, in rationals, at the largest float.
NO_FLOAT_ROOTS = {
    "separation_distance_overflow": [5e-324, 0.0, -2e307, 0.0, 0.0, -2.0],
    "phase_gate_distance_overflow": [1e-10, -1e300, 0.0, -2.0],
}


@pytest.mark.parametrize("case", sorted(NO_FLOAT_ROOTS))
def test_an_overflow_guard_has_no_float_root(case):
    x, value = Fraction(sys.float_info.max), Fraction(0)
    for c in NO_FLOAT_ROOTS[case]:
        value = value * x + Fraction(c)
    assert value < 0
