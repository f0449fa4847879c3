import math

import numpy as np
import pytest

from dnmodes.dynamics import (
    IntegratorSpec,
    Trajectory,
    _csv_rows,
    _fmt,
    energy_audit,
    frame_equivalence_check,
    integrate_lab,
    integrate_modes,
    integrate_modes_shifted,
    map_to_mode_frame,
    mode_energy_series,
    write_trajectory_csv,
)
from dnmodes.errors import ConfigError, DivergenceError
from dnmodes.presets import (
    CustomConfig,
    RotationConfig,
    TransportConfig,
    build_custom,
    build_rotation,
    build_transport,
)
from dnmodes.quadratic import PhasePoint
from dnmodes.schedules import LinearRamp, Smoothstep


def static_sys(k=0.0, k1=1.0, k2=1.0, masses=(1.0, 1.0)):
    return build_custom(CustomConfig(k=k, k1=k1, k2=k2, masses=masses))


def test_integrator_spec_validation():
    with pytest.raises(ConfigError):
        IntegratorSpec(dt=-0.1, t0=0.0, t1=1.0)
    with pytest.raises(ConfigError):
        IntegratorSpec(dt=0.1, t0=1.0, t1=0.0)
    with pytest.raises(ConfigError):
        IntegratorSpec(dt=0.1, t0=0.0, t1=1.0, method="euler")


def test_integrator_spec_covers_exactly_the_window():
    # A dt that does not divide the window would silently end short.
    with pytest.raises(ConfigError, match="does not divide"):
        IntegratorSpec(dt=0.3, t0=0.0, t1=10.0)
    with pytest.raises(ConfigError, match="does not divide"):
        IntegratorSpec(dt=3.0, t0=0.0, t1=1.0)
    spec = IntegratorSpec(dt=0.1, t0=0.0, t1=1.0)  # 10 steps up to rounding
    assert spec.n_steps == 10
    assert spec.t0 + spec.n_steps * spec.dt == pytest.approx(spec.t1, rel=1e-12)


def test_harmonic_oscillator_cosine():
    # uncoupled unit oscillators: q1(t) = cos t
    sys = static_sys()
    spec = IntegratorSpec(dt=1e-3, t0=0.0, t1=10.0)
    traj = integrate_lab(sys, PhasePoint(0.0, (1.0, 0.0), (0.0, 0.0)), spec)
    q1_end = traj.states[-1, 0]
    p1_end = traj.states[-1, 2]
    assert q1_end == pytest.approx(math.cos(10.0), abs=1e-6)
    assert p1_end == pytest.approx(-math.sin(10.0), abs=1e-6)
    assert np.abs(traj.states[:, [1, 3]]).max() == 0.0


def test_verlet_matches_rk4_closely():
    sys = static_sys(k=0.5, k1=1.0, k2=2.0, masses=(1.0, 3.0))
    x0 = PhasePoint(0.0, (0.3, -0.2), (0.1, 0.4))
    a = integrate_lab(sys, x0, IntegratorSpec(dt=1e-3, t0=0.0, t1=5.0))
    b = integrate_lab(
        sys, x0, IntegratorSpec(dt=1e-3, t0=0.0, t1=5.0, method="velocity-verlet")
    )
    assert np.abs(a.states - b.states).max() < 1e-4


def test_equilibrium_is_fixed_point():
    sys = build_transport(TransportConfig(k=2.0, Q0=0.7, Cc=1.0))
    q_eq = sys.equilibrium(0.0)
    traj = integrate_lab(
        sys, PhasePoint(0.0, q_eq, (0.0, 0.0)), IntegratorSpec(dt=1e-2, t0=0.0, t1=5.0)
    )
    drift = np.abs(traj.states - traj.states[0]).max()
    assert drift < 1e-12


def test_flow_linearity_about_equilibrium():
    # displacements about equilibrium superpose for a quadratic Hamiltonian
    sys = static_sys(k=1.0, k1=2.0, k2=0.5, masses=(2.0, 1.0))
    spec = IntegratorSpec(dt=1e-3, t0=0.0, t1=3.0)

    def run(q, p):
        return integrate_lab(sys, PhasePoint(0.0, q, p), spec).states

    a = run((1.0, 0.0), (0.0, 0.5))
    b = run((0.0, -1.0), (0.3, 0.0))
    ab = run((1.0, -1.0), (0.3, 0.5))
    assert np.abs(a + b - ab).max() < 1e-10


def test_energy_conservation_static():
    sys = static_sys(k=0.7, k1=1.3, k2=0.9, masses=(1.5, 0.8))
    traj = integrate_lab(
        sys, PhasePoint(0.0, (0.4, -0.3), (0.2, 0.1)), IntegratorSpec(dt=1e-3, t0=0.0, t1=10.0)
    )
    audit = energy_audit(traj, sys)
    assert audit.max_drift <= 1e-8


def test_angular_momentum_conserved_isotropic_rotation():
    # equal frequencies: rotating the trap does nothing, L_z is conserved
    w = 1.3
    sys = build_rotation(RotationConfig(m=1.0, omega1=w, omega2=w, phi=LinearRamp(0.0, 0.0, 1.0, 0.4)))
    traj = integrate_lab(
        sys, PhasePoint(0.0, (1.0, 0.0), (0.0, 0.7)), IntegratorSpec(dt=1e-3, t0=0.0, t1=10.0)
    )
    q1, q2, p1, p2 = traj.states.T
    lz = q1 * p2 - q2 * p1
    assert np.abs(lz - lz[0]).max() <= 1e-8


def test_mode_frame_matches_lab_static():
    sys = static_sys(k=0.6, k1=1.0, k2=1.4, masses=(2.0, 1.0))
    x0 = PhasePoint(0.0, (0.5, -0.1), (0.0, 0.3))
    spec = IntegratorSpec(dt=1e-3, t0=0.0, t1=6.0)
    rep = frame_equivalence_check(sys, x0, spec)
    assert rep.max_deviation <= 1e-7


def test_mode_frame_matches_lab_transport():
    sys = build_transport(
        TransportConfig(k=2.0, Q0=Smoothstep(0.0, 1.0, 0.0, 8.0), Cc=1.0)
    )
    x0 = PhasePoint(0.0, (0.6, -0.4), (0.0, 0.0))
    rep = frame_equivalence_check(sys, x0, IntegratorSpec(dt=1e-3, t0=0.0, t1=8.0))
    assert rep.max_deviation <= 1e-6


def test_momentum_shift_consistent_with_direct_mode_integration():
    # separable transport: shifted coordinates differ from the direct mode
    # solution by exactly the momentum offset
    from dnmodes.modes import decompose_at, momentum_shift

    sys = build_transport(
        TransportConfig(k=2.0, Q0=Smoothstep(0.0, 1.0, 0.0, 6.0), Cc=1.0)
    )
    x0_lab = PhasePoint(0.0, sys.equilibrium(0.0), (0.0, 0.0))
    lab = integrate_lab(sys, x0_lab, IntegratorSpec(dt=1e-3, t0=0.0, t1=6.0))
    mapped = map_to_mode_frame(sys, lab)
    X0 = mapped.point(0)
    spec = IntegratorSpec(dt=1e-3, t0=0.0, t1=6.0)
    direct = integrate_modes(sys, X0, spec)
    shifted = integrate_modes_shifted(sys, X0, spec)
    for i in [0, 1000, 3000, 6000]:
        t = float(direct.times[i])
        probe = PhasePoint(t, (0.0, 0.0), (0.0, 0.0), frame="mode")
        P0 = momentum_shift(decompose_at(sys, t), sys, probe, with_centers=False).P0
        dQ = direct.states[i, :2] - shifted.states[i, :2]
        dP = direct.states[i, 2:] - shifted.states[i, 2:]
        assert np.abs(dQ).max() < 1e-9
        assert dP == pytest.approx(tuple(P0), abs=1e-9)


def test_divergence_guard_carries_partial():
    # inverted potential blows up; every integrator's guard should trip with
    # the partial result as a trajectory in its own frame
    sys = static_sys(k=0.0, k1=-40.0, k2=1.0)
    spec = IntegratorSpec(dt=1e-2, t0=0.0, t1=20.0)
    verlet = IntegratorSpec(dt=1e-2, t0=0.0, t1=20.0, method="velocity-verlet")
    x0 = PhasePoint(0.0, (1.0, 0.0), (0.0, 0.0))
    X0 = PhasePoint(0.0, (1.0, 0.0), (0.0, 0.0), frame="mode")
    runs = {
        "lab": lambda: integrate_lab(sys, x0, spec),
        "verlet": lambda: integrate_lab(sys, x0, verlet),
        "modes": lambda: integrate_modes(sys, X0, spec),
        "shifted": lambda: integrate_modes_shifted(sys, X0, spec),
    }
    for name, run in runs.items():
        with pytest.raises(DivergenceError) as exc:
            run()
        partial = exc.value.partial
        assert isinstance(partial, Trajectory), name
        assert partial.frame == ("lab" if name in ("lab", "verlet") else "mode")
        assert len(partial) >= 2
        assert np.isfinite(partial.states).all()


def test_non_finite_state_raises_floating_point_error():
    # k1 * q1 overflows to inf in the first stage of every integrator
    sys = static_sys(k=0.0, k1=100.0, k2=1.0)
    spec = IntegratorSpec(dt=0.0625, t0=0.0, t1=1.0)
    verlet = IntegratorSpec(dt=0.0625, t0=0.0, t1=1.0, method="velocity-verlet")
    x0 = PhasePoint(0.0, (1e307, 0.0), (0.0, 0.0))
    X0 = PhasePoint(0.0, (1e307, 0.0), (0.0, 0.0), frame="mode")
    for run in (
        lambda: integrate_lab(sys, x0, spec),
        lambda: integrate_lab(sys, x0, verlet),
        lambda: integrate_modes(sys, X0, spec),
        lambda: integrate_modes_shifted(sys, X0, spec),
    ):
        with pytest.raises(FloatingPointError, match="t=0.0625"):
            run()


def test_rk4_order_under_dt_halving():
    # fourth-order: halving dt should cut the error by ~16x (within 30%)
    sys = static_sys()
    x0 = PhasePoint(0.0, (1.0, 0.0), (0.0, 0.0))

    def err(dt):
        traj = integrate_lab(sys, x0, IntegratorSpec(dt=dt, t0=0.0, t1=5.0))
        exact = np.array([math.cos(5.0), 0.0, -math.sin(5.0), 0.0])
        return np.abs(traj.states[-1] - exact).max()

    ratio = err(0.02) / err(0.01)
    assert 11.2 <= ratio <= 20.8


def test_mode_energy_series_constant_for_static():
    sys = static_sys(k=0.5, k1=1.0, k2=1.0)
    lab = integrate_lab(
        sys, PhasePoint(0.0, (0.3, -0.3), (0.1, 0.2)), IntegratorSpec(dt=1e-3, t0=0.0, t1=5.0)
    )
    modes = map_to_mode_frame(sys, lab)
    E = mode_energy_series(modes, sys)
    assert np.abs(E - E[0]).max() < 1e-7


def test_larmor_compensation_decouples_rotation():
    # anisotropic rotating trap: without compensation the mode energies mix;
    # with it each mode evolves as an independent oscillator
    phi = LinearRamp(0.0, 0.0, 1.0, 0.3)
    sys = build_rotation(RotationConfig(m=1.0, omega1=2.0, omega2=1.0, phi=phi))
    X0 = PhasePoint(0.0, (0.5, 0.0), (0.0, 0.0), frame="mode")
    spec = IntegratorSpec(dt=1e-3, t0=0.0, t1=10.0)

    comp = integrate_modes(sys, X0, spec, apply_larmor=True)
    E = mode_energy_series(comp, sys, compensated=True)
    assert np.abs(E[:, 1]).max() < 1e-10  # mode 2 stays empty
    assert np.abs(E[:, 0] - E[0, 0]).max() < 1e-8

    raw = integrate_modes(sys, X0, spec, apply_larmor=False)
    E_raw = mode_energy_series(raw, sys)
    assert np.abs(E_raw[:, 1]).max() > 0.01 * E_raw[0, 0]


def test_larmor_compensated_matches_independent_1d():
    phi = LinearRamp(0.0, 0.0, 1.0, 0.3)
    sys = build_rotation(RotationConfig(m=1.0, omega1=2.0, omega2=1.0, phi=phi))
    X0 = PhasePoint(0.0, (0.5, -0.2), (0.1, 0.3), frame="mode")
    spec = IntegratorSpec(dt=1e-3, t0=0.0, t1=10.0)
    comp = integrate_modes(sys, X0, spec, apply_larmor=True)
    # each mode is a 1D oscillator at sqrt(omega_i^2 + omega_L^2)
    for i, w2 in enumerate([4.0 + 0.09, 1.0 + 0.09]):
        w = math.sqrt(w2)
        t = comp.times
        Q = X0.q[i] * np.cos(w * t) + (X0.p[i] / w) * np.sin(w * t)
        assert np.abs(comp.states[:, i] - Q).max() < 1e-6


def test_lz_coupling_flag_changes_rotation_dynamics():
    phi = LinearRamp(0.0, 0.0, 1.0, 0.3)
    sys = build_rotation(RotationConfig(m=1.0, omega1=2.0, omega2=1.0, phi=phi))
    X0 = PhasePoint(0.0, (0.5, 0.0), (0.0, 0.0), frame="mode")
    spec = IntegratorSpec(dt=1e-3, t0=0.0, t1=5.0)
    full = integrate_modes(sys, X0, spec)
    crippled = integrate_modes(sys, X0, spec, lz_coupling=False)
    assert np.abs(full.states - crippled.states).max() > 1e-3


def test_csv_round_trip(tmp_path):
    sys = static_sys()
    traj = integrate_lab(
        sys, PhasePoint(0.0, (1.0, 0.0), (0.0, 0.0)), IntegratorSpec(dt=0.1, t0=0.0, t1=1.0)
    )
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,q1,q2,p1,p2,frame"
    assert len(lines) == len(traj) + 1
    got = np.array([[float(x) for x in ln.split(",")[:5]] for ln in lines[1:]])
    assert np.array_equal(got[:, 0], traj.times)
    assert np.array_equal(got[:, 1:], traj.states)


def test_csv_rows_write_numbers_as_fmt_does():
    # One %.17g template per row writes the bytes that _fmt writes per value,
    # NaN radii, infinities, signed zeros, subnormals and numpy scalars included.
    rng = np.random.default_rng(3)
    values = [0.0, -0.0, 1.0, math.nan, math.inf, -math.inf, 5e-324, 2.0**53 + 2.0,
              np.float64(0.1), *(rng.standard_normal(40) * 10.0 ** rng.integers(-300, 300, 40))]
    rows = [tuple(values[i:i + 3]) for i in range(0, len(values) - 2, 3)]
    expected = "".join(",".join(map(_fmt, row)) + ",x\n" for row in rows)
    assert _csv_rows(rows, 3, ",x") == expected
