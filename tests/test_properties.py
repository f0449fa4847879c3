"""Property tests over random ``custom`` systems, every preset's analytic
rates, equilibrium roots and mode frames, and the integrators.

Each ``custom`` system has polynomial schedules on [0, 1], with k away from
zero (theta_dot stays bounded) and k1, k2 free (theta sweeps through the
branch edges at +-pi/4).  Preset systems draw quadratic schedules inside each
preset's valid domain.  On them, theta_dot from the decomposition's triple is
theta_dot_at's, the chain rule agrees with each closed form, classify names
the analytic case of a fresh evaluation, and it calls a custom system whose
angle is constant in floats separable.  A separation system evaluated in
shuffled time order should give the same bits (a known defect, xfailed), and a
root solve warm-started from its own root exits after one Newton step.

Two kinds of check (see ``oracles``).  Against exact references, within the
library's rounding bound: the mode frame (random, isotropic and ion-pair
stiffness, random branch references, along a walk), the ion pair's views at
the root each view solved for, the springs' equilibrium and its rate (K q = F,
refused only where det K = 0), every root (within 4 ulp of the exact root, from
cold and warm starts and call orders and threads, at scales from 1e-300 to
1e300; the closed-form cube roots within 1 ulp), both root kernels in their own
scale (within Horner's bound, their coefficients exact) and the scaled bracket
(above every positive root).  Bit for bit, paths that must agree: the ion pair's
shared record against a fresh build per view, a walk against _frame call by
call, frame reuse against a fresh frame, the steppers against the array RK4
and the Verlet loop over the system's own pieces, and the float lab-to-mode map
against mode_state, and the springs' views against their formula in the schedules'
own scale wherever its X and D are normal floats.  Rotation's views kept per time give, over shuffled and
threaded calls, the bits of a fresh system; the ion pair's kept triple and q0dot
come back only to calls of their own equation and root, on one thread or two.

The integrators also see only Python floats, agree between frames through a
frequency crossing, and lose symplecticity 32-fold less per halving of the
step; on a rotating trap and on ion-pair transport, both with closed-form flows,
their error falls 16-fold per halving.
"""

import itertools
import math
import random
import sys as _sys
import threading
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings, strategies as st

from dnmodes.dynamics import (
    IntegratorSpec,
    Trajectory,
    frame_equivalence_check,
    integrate_lab,
    integrate_modes,
    integrate_modes_shifted,
    map_to_mode_frame,
)
from dnmodes.modes import (
    _detect_analytic_case,
    _frame,
    _modal_product,
    _mode_frames,
    _sample_times,
    classify_separability,
    decompose_at,
    drive_at,
    drive_rate_at,
    eigenfrequencies,
    from_mode_frame,
    modal_matrix,
    mode_state,
    theta_at,
    theta_dot_at,
    to_mode_frame,
)
from dnmodes import presets
from dnmodes.errors import PresetDomainError, SingularConfigurationError
from dnmodes.presets import (
    CustomConfig,
    PhaseGateConfig,
    RotationConfig,
    SeparationConfig,
    SpringsConfig,
    TransportConfig,
    build_custom,
    build_preset,
    preset_config_from_dict,
    solve_phase_gate_distance,
    solve_separation_distance,
)
from dnmodes.quadratic import MassPair, PhasePoint, StiffnessTriple
from dnmodes.rootfind import solve_positive_root
from dnmodes.schedules import LinearRamp, Polynomial, SampledTable, Smoothstep

from oracles import (
    ION_PAIR_VIEWS, U, check_frame, check_ion_pair_view, gamma, grad4, ion_pair_equations,
    ion_pair_solves, last_float_below_root, per_view_ion_pair, recorded_build, replace,
    rk4_states, verlet_states,
)
from test_cli import run_cli, write_cfg

PROPERTY = settings(max_examples=25, derandomize=True, database=None, deadline=None)
# An exact-flow example is four RK4 runs of up to 512 steps and an exact flow, so a
# failure reports the example it found unshrunk: shrinking takes minutes.
EXACT_FLOW = settings(PROPERTY, max_examples=10, phases=(Phase.explicit, Phase.generate))

unit = st.floats(-1.0, 1.0)
times = st.floats(0.0, 1.0)
phase = st.tuples(*[st.floats(-2.0, 2.0)] * 4)


@st.composite
def systems(draw):
    quadratic = st.tuples(unit, unit, unit).map(Polynomial)
    k0 = draw(st.floats(0.3, 2.0)) * draw(st.sampled_from([-1.0, 1.0]))
    cfg = CustomConfig(
        k=Polynomial((k0, draw(st.floats(-0.2, 0.2)))),  # |k| >= 0.1 on [0, 1]
        k1=draw(quadratic),
        k2=draw(quadratic),
        masses=(draw(st.floats(0.2, 5.0)), draw(st.floats(0.2, 5.0))),
        q1_eq=draw(quadratic),
        q2_eq=draw(quadratic),
    )
    return build_custom(cfg)


@PROPERTY
@given(systems(), times, phase)
def test_mode_frame_round_trip(sys, t, s):
    dec = decompose_at(sys, t)
    x = PhasePoint(t=t, q=s[:2], p=s[2:])
    back = from_mode_frame(dec, to_mode_frame(dec, x, sys), sys)
    assert np.allclose(np.array((*back.q, *back.p)), np.array((*x.q, *x.p)), rtol=0, atol=1e-12)
    X = PhasePoint(t=t, q=s[:2], p=s[2:], frame="mode")
    again = to_mode_frame(dec, from_mode_frame(dec, X, sys), sys)
    assert np.allclose(np.array((*again.q, *again.p)), np.array((*X.q, *X.p)), rtol=0, atol=1e-12)


@PROPERTY
@given(systems(), times)
def test_modal_matrix_is_mass_orthonormal(sys, t):
    A = np.array(modal_matrix(decompose_at(sys, t).theta, sys.masses)[0])
    M_inv = np.diag((1.0 / sys.masses.m1, 1.0 / sys.masses.m2))
    assert np.allclose(A @ M_inv @ A.T, np.eye(2), rtol=0, atol=1e-13)


@PROPERTY
@given(systems())
def test_theta_branch_follows_theta_dot(sys):
    # Each tracked step must equal the trapezoid integral of theta_dot; a
    # spurious branch snap would show up as a jump of pi/2.
    grid = np.linspace(0.0, 1.0, 501)
    dt = grid[1] - grid[0]
    thetas, rates = [], []
    branch = None
    for t in grid:
        branch = theta_at(sys.stiffness(t), sys.masses, branch_ref=branch)
        thetas.append(branch)
        rates.append(theta_dot_at(sys, t))
    steps = np.diff(thetas)
    trapezoid = 0.5 * dt * (np.array(rates[1:]) + np.array(rates[:-1]))
    assert np.max(np.abs(steps - trapezoid)) < 1e-5


@PROPERTY
@given(systems(), times, st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)))
def test_force_is_minus_the_potential_gradient(sys, t, q):
    f = sys.force(t, *q)

    def potential(x):
        return sys.hamiltonian_value(PhasePoint(t=t, q=tuple(x), p=(0.0, 0.0)))

    assert np.allclose(f, -grad4(potential, q, h=1e-3), rtol=1e-9, atol=1e-9)


def check_rate(rate, f, t):
    """``rate(t)`` against a 4th-order central difference of ``f``, with a
    step independent of the library's."""
    h = 1e-3

    def at(s):
        return np.array(f(s), dtype=float)

    oracle = (8.0 * (at(t + h) - at(t - h)) - (at(t + 2 * h) - at(t - 2 * h))) / (12.0 * h)
    scale = 1.0 + float(np.abs(at(t)).max())
    assert np.allclose(rate(t), oracle, rtol=0, atol=1e-7 * scale)


@PROPERTY
@given(systems(), st.floats(0.1, 0.9))
def test_drive_rate_matches_a_finite_difference_of_the_drive(sys, t):
    theta = decompose_at(sys, t).theta

    def p0(s):
        return drive_at(sys, s, theta_at(sys.stiffness(s), sys.masses, branch_ref=theta))

    check_rate(lambda s: drive_rate_at(sys, s, theta), p0, t)


@PROPERTY
@given(systems(), phase, st.floats(-1.0, 1.0))
def test_integrators_see_only_python_floats(sys, s, t0):
    seen = set()
    for name in ("stiffness", "stiffness_rate", "equilibrium", "equilibrium_velocity"):
        def recording(t, _fn=getattr(sys, name)):
            seen.add(type(t))
            return _fn(t)

        setattr(sys, name, recording)
    spec = IntegratorSpec(dt=0.0625, t0=t0, t1=t0 + 0.5)
    x0 = PhasePoint(t0, s[:2], s[2:])
    lab = integrate_lab(sys, x0, spec)
    integrate_lab(sys, x0, IntegratorSpec(spec.dt, spec.t0, spec.t1, "velocity-verlet"))
    X0 = map_to_mode_frame(sys, lab).point(0)
    integrate_modes(sys, X0, spec)
    integrate_modes_shifted(sys, X0, spec)
    assert seen == {float}


@PROPERTY
@given(systems(), phase)
def test_rk4_matches_the_array_oracle(sys, s):
    spec = IntegratorSpec(dt=1.0 / 64.0, t0=0.0, t1=1.0)
    m1, m2 = sys.masses.m1, sys.masses.m2
    x0 = PhasePoint(0.0, s[:2], s[2:])

    def lab_rhs(t, y):
        return np.array([y[2] / m1, y[3] / m2, *sys.force(t, y[0], y[1])])

    # Same operations in the same order: the lab run is bit-identical.
    times, states = rk4_states(lab_rhs, spec.t0, (*x0.q, *x0.p), spec.dt, spec.n_steps)
    lab = integrate_lab(sys, x0, spec)
    assert np.array_equal(lab.times, times)
    assert np.array_equal(np.array(lab.rows), states)

    # The array form computes the drive as a matrix product, so the mode run
    # agrees to rounding.  The oracle snaps each stage to the branch of the
    # last grid time, the library to that of the stage before; the two pick
    # the same branch unless theta turns by pi/4 or more within one step.
    branch = [theta_at(sys.stiffness(spec.t0), sys.masses)]

    def sync(t):
        branch[0] = theta_at(sys.stiffness(t), sys.masses, branch[0])

    def mode_rhs(t, y):
        triple = sys.stiffness(t)
        theta = theta_at(triple, sys.masses, branch[0])
        o1, o2 = eigenfrequencies(triple, sys.masses, theta)
        P0 = modal_matrix(theta, sys.masses)[0] @ np.array(sys.equilibrium_velocity(t))
        td = theta_dot_at(sys, t)
        Q1, Q2, P1, P2 = y
        return np.array(
            [P1 - P0[0] + td * Q2, P2 - P0[1] - td * Q1, -o1 * Q1 + td * P2, -o2 * Q2 - td * P1]
        )

    X0 = PhasePoint(0.0, s[:2], s[2:], frame="mode")
    _, oracle = rk4_states(mode_rhs, spec.t0, (*X0.q, *X0.p), spec.dt, spec.n_steps, on_step=sync)
    modes = integrate_modes(sys, X0, spec)
    assert np.abs(np.array(modes.rows) - oracle).max() <= 1e-13 * np.abs(oracle).max()


@st.composite
def crossing_systems(draw):
    """(system, tc): unequal masses, and uncoupled frequencies (k + k1)/m1
    and (k + k2)/m2 that cross at a drawn time tc in the window; their
    difference is slope * (t - tc), so the mode angle turns through pi/4
    there."""
    m1 = draw(st.floats(0.5, 2.0))
    m2 = m1 * draw(st.floats(1.5, 3.0)) ** draw(st.sampled_from([-1.0, 1.0]))
    k = draw(signed(0.5, 2.0))
    c2, d2 = draw(unit), draw(unit)
    slope, tc = draw(signed(0.5, 2.0)), draw(st.floats(0.25, 0.75))
    ratio = m1 / m2
    k1 = Polynomial((ratio * (k + c2) - k - m1 * slope * tc, ratio * d2 + m1 * slope))
    quadratic = st.tuples(unit, unit, unit).map(Polynomial)
    cfg = CustomConfig(
        k=Polynomial((k,)), k1=k1, k2=Polynomial((c2, d2)), masses=(m1, m2),
        q1_eq=draw(quadratic), q2_eq=draw(quadratic),
    )
    return build_custom(cfg), tc


@PROPERTY
@given(crossing_systems(), phase)
def test_frames_agree_through_a_frequency_crossing(system, s):
    # Criterion 07's bound on random systems.
    sys, tc = system
    before, after = (theta_at(sys.stiffness(t), sys.masses) for t in (tc - 1e-3, tc + 1e-3))
    assert abs(after - before) > 1.0  # the default branch jumps by pi/2 at the crossing
    spec = IntegratorSpec(dt=1.0 / 256.0, t0=0.0, t1=1.0)
    rep = frame_equivalence_check(sys, PhasePoint(0.0, s[:2], s[2:]), spec)
    assert rep.max_deviation <= 1e-6


@st.composite
def zero_equilibrium_systems(draw):
    """systems() with masses (1, 2) and the equilibrium at the origin: both
    frames then integrate a linear homogeneous flow."""
    quadratic = st.tuples(unit, unit, unit).map(Polynomial)
    k0 = draw(st.floats(0.3, 2.0)) * draw(st.sampled_from([-1.0, 1.0]))
    cfg = CustomConfig(k=Polynomial((k0, draw(st.floats(-0.2, 0.2)))), k1=draw(quadratic),
                       k2=draw(quadratic), masses=(1.0, 2.0))
    return build_custom(cfg)


J4 = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])


def symplectic_defect(integrate, sys, frame: str, n: int) -> float:
    """||Phi^T J Phi - J|| for the flow map Phi over [0, 2] in n RK4 steps,
    whose columns are the runs from the four unit states."""
    spec = IntegratorSpec(dt=2.0 / n, t0=0.0, t1=2.0)
    phi = np.array([integrate(sys, PhasePoint(0.0, e[:2], e[2:], frame=frame), spec).rows[-1]
                    for e in np.eye(4)]).T
    return float(np.linalg.norm(phi.T @ J4 @ phi - J4))


@pytest.mark.parametrize("frame", ["lab", "mode"])
@PROPERTY
@given(zero_equilibrium_systems())
def test_symplectic_defect_falls_32_fold_per_step_halving(frame, sys):
    # RK4 is not symplectic; its defect goes as dt^5.  The ratios were 31.6
    # to 32.2 over 100 random systems when written, and the defect at n = 128
    # at least 3e-12, far above round-off.
    integrate = integrate_lab if frame == "lab" else integrate_modes
    defects = [symplectic_defect(integrate, sys, frame, n) for n in (32, 64, 128)]
    assert defects[-1] > 1e-13
    for coarse, fine in zip(defects, defects[1:]):
        assert 31.0 <= coarse / fine <= 33.0


def rotating_trap_flow(m, omega1, omega2, rate, phi0, state, t0, dt, n) -> np.ndarray:
    """Exact lab states (q, p) at t0 + i dt, i = 0..n, of the trap rotating at
    phi = phi0 + rate t.  In the co-rotating frame x = R(phi)^T q, pi = R(phi)^T p
    the system is linear with the constant M = [[-rate J, I/m], [-diag(m omega1^2,
    m omega2^2), -rate J]], J = R'(0), so it steps exactly by exp(dt M)."""
    from scipy.linalg import expm
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    step = expm(dt * np.block([[-rate * J, np.eye(2) / m],
                               [-np.diag([m * omega1 ** 2, m * omega2 ** 2]), -rate * J]]))

    phi = phi0 + rate * (t0 + dt * np.arange(n + 1))
    c, s = np.cos(phi), np.sin(phi)
    x = [np.kron(np.eye(2), [[c[0], s[0]], [-s[0], c[0]]]) @ np.asarray(state)]
    for _ in range(n):
        x.append(step @ x[-1])
    x = np.array(x)
    return np.stack([c * x[:, 0] - s * x[:, 1], s * x[:, 0] + c * x[:, 1],
                     c * x[:, 2] - s * x[:, 3], s * x[:, 2] + c * x[:, 3]], axis=1)


@EXACT_FLOW
@given(m=st.floats(0.5, 2.0), omegas=st.tuples(st.floats(0.5, 2.5), st.floats(0.5, 2.5)),
       rate=unit, phi0=st.floats(-3.0, 3.0),
       state=st.tuples(unit, unit, unit, unit).filter(lambda y: max(map(abs, y)) >= 0.1),
       t0=st.floats(-2.0, 2.0), span=st.floats(2.0, 8.0))
def test_rotating_trap_runs_converge_to_the_exact_flow_at_fourth_order(
        m, omegas, rate, phi0, state, t0, span):
    # The one closed-form flow among the presets: both frames' RK4 runs match
    # it, and their largest error over the grid falls 16-fold per halving of
    # the step.  When written, the ratios were 15.8 to 16.1 over 60 random
    # draws, and the flow with the wrong sign of the rate missed by O(1).
    # Grounding: Hairer, Lubich & Wanner, Geometric Numerical Integration
    # (2006), ch. II-III.
    omega1, omega2 = omegas
    assume(abs(omega1 - omega2) >= 0.2)  # the mode frame is never degenerate
    sys = build_preset(RotationConfig(m=m, omega1=omega1, omega2=omega2,
                                      phi=Polynomial((phi0, rate))))
    fine_states = rotating_trap_flow(m, omega1, omega2, rate, phi0, state, t0, span / 512, 512)
    assert_runs_converge_at_fourth_order(sys, t0, span, fine_states)


def assert_runs_converge_at_fourth_order(sys, t0, span, fine_states):
    """Both frames' RK4 runs over [t0, t0 + span] from fine_states[0] match
    the exact lab states fine_states, given at the step span / 512, and their
    largest relative error over the grid falls 16-fold per halving of the step."""
    def relative_error(run, truth):
        return np.abs(run - truth).max() / np.abs(truth).max()

    errors = []
    for n in (256, 512):
        spec = IntegratorSpec(dt=span / n, t0=t0, t1=t0 + span)
        lab = integrate_lab(sys, PhasePoint(t0, fine_states[0, :2], fine_states[0, 2:]), spec)
        exact = Trajectory("lab", lab.times, fine_states[::512 // n])
        exact_modes = map_to_mode_frame(sys, exact)
        modes = integrate_modes(sys, exact_modes.point(0), spec)
        errors.append((relative_error(np.array(lab.rows), np.array(exact.rows)),
                       relative_error(np.array(modes.rows), np.array(exact_modes.rows))))
    for coarse, fine in zip(*errors):
        assert fine < 1e-5
        assert 15.0 <= coarse / fine <= 17.0


def transport_flow(masses, k, Cc, ramp, displacement, t0, dt, n) -> np.ndarray:
    """Exact lab states (q, p) at t0 + i dt, i = 0..n, of ion-pair transport
    with a constant k and the centre Q0 on the straight line ``ramp``.  The
    equilibrium q0 = (Q0 + d/2, Q0 - d/2), d = (2 Cc/k)^(1/3), moves at the
    constant velocity (v, v), v the line's slope, so the displacement
    (q - q0, p - M qdot0), given at t0, steps exactly by
    exp(dt [[0, M^-1], [-K, 0]]) with K = k [[2, -1], [-1, 2]]."""
    from scipy.linalg import expm
    K = k * np.array([[2.0, -1.0], [-1.0, 2.0]])
    step = expm(dt * np.block([[np.zeros((2, 2)), np.diag([1.0 / m for m in masses])],
                               [-K, np.zeros((2, 2))]]))
    x = [np.asarray(displacement)]
    for _ in range(n):
        x.append(step @ x[-1])
    Q0 = ramp.v0 + ramp.slope * (t0 + dt * np.arange(n + 1) - ramp.t0)
    d = (2.0 * Cc / k) ** (1.0 / 3.0)
    equilibrium = np.column_stack([Q0 + d / 2, Q0 - d / 2, np.full(n + 1, masses[0] * ramp.slope),
                                   np.full(n + 1, masses[1] * ramp.slope)])
    return np.array(x) + equilibrium


@EXACT_FLOW
@given(masses=st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)), k=st.floats(0.5, 2.0),
       Cc=st.floats(0.5, 2.0), line=st.tuples(unit, unit),
       displacement=st.tuples(unit, unit, unit, unit).filter(lambda y: max(map(abs, y)) >= 0.1),
       t0=st.floats(-2.0, 2.0), span=st.floats(2.0, 8.0))
def test_ion_pair_transport_runs_converge_to_the_exact_flow_at_fourth_order(
        masses, k, Cc, line, displacement, t0, span):
    # The second closed-form flow: with k constant and Q0 a straight line,
    # q0 has no acceleration and K is constant.
    ramp = LinearRamp(0.0, line[0], 1.0, line[1])
    sys = build_preset(TransportConfig(k=k, Q0=ramp, Cc=Cc, masses=MassPair(*masses)))
    fine_states = transport_flow(masses, k, Cc, ramp, displacement, t0, span / 512, 512)
    assert_runs_converge_at_fourth_order(sys, t0, span, fine_states)


PRESET_KINDS = [*sorted(presets._PRESETS), "phase-gate-zeroth-order"]


@pytest.mark.parametrize("kind", ["crossing", "rotation"])
@PROPERTY
@given(data=st.data())
def test_stage_frame_gives_the_bits_of_eigenfrequencies_and_drive_at(kind, data):
    # A mode-frame RK stage takes Omega^2 and the drive P0 = A qdot0 from the
    # one cos/sin pair of _frame: both equal their own homes.
    if kind == "crossing":
        sys = data.draw(crossing_systems(), label="system")[0]
    else:
        sys = data.draw(preset_systems(kind), label="system")
    t = data.draw(times, label="t")
    triple = sys.stiffness(t)
    branch = data.draw(st.none() | st.floats(-7.0, 7.0), label="branch")
    theta = theta_at(triple, sys.masses, branch)
    c, s, o1, o2 = _frame(triple, sys.masses, theta=theta)[1:]
    assert (o1, o2) == eigenfrequencies(triple, sys.masses, theta)
    drive = _modal_product(c, s, sys.masses.sqrt1, sys.masses.sqrt2,
                           *sys.equilibrium_velocity(t))
    assert drive == drive_at(sys, t, theta)


@st.composite
def preset_configs(draw, kind):
    def quadratic(lo, hi, slope=0.2):
        slopes = st.floats(-slope, slope)  # moves by at most 2 * slope on [0, 1]
        return Polynomial((draw(st.floats(lo, hi)), draw(slopes), draw(slopes)))

    masses = (draw(st.floats(0.2, 5.0)), draw(st.floats(0.2, 5.0)))
    Cc = draw(st.floats(0.5, 2.0))
    if kind == "transport":
        cfg = TransportConfig(k=quadratic(1.0, 3.0), Q0=quadratic(-1.0, 1.0), Cc=Cc, masses=masses)
    elif kind == "separation":
        # Any alpha with beta > 0 has one simple positive root, double well or not.
        alpha = quadratic(0.5, 2.0) if draw(st.booleans()) else quadratic(-2.0, -0.5)
        cfg = SeparationConfig(alpha=alpha, beta=quadratic(0.5, 2.0), Cc=Cc, masses=masses)
    elif kind.startswith("phase-gate"):
        cfg = PhaseGateConfig(
            k0=draw(st.floats(0.5, 3.0)), F1=quadratic(-0.5, 0.5), F2=quadratic(-0.5, 0.5),
            Cc=Cc, masses=masses, zeroth_order=kind.endswith("zeroth-order"),
        )
    elif kind == "rotation":
        cfg = RotationConfig(
            m=masses[0], omega1=draw(st.floats(0.5, 3.0)), omega2=draw(st.floats(0.5, 3.0)),
            phi=quadratic(-3.0, 3.0, slope=1.0),
        )
    elif kind == "springs":
        cfg = SpringsConfig(
            k=quadratic(0.5, 2.0), k1=quadratic(0.5, 2.0), k2=quadratic(0.5, 2.0),
            d=draw(st.floats(0.5, 3.0)), masses=masses,
        )
    else:
        cfg = CustomConfig(
            k=quadratic(-1.0, 1.0), k1=quadratic(-1.0, 1.0), k2=quadratic(-1.0, 1.0),
            masses=masses, q1_eq=quadratic(-1.0, 1.0), q2_eq=quadratic(-1.0, 1.0),
        )
    return cfg


def preset_systems(kind):
    return preset_configs(kind).map(build_preset)


@pytest.mark.parametrize("kind", PRESET_KINDS)
@PROPERTY
@given(data=st.data())
def test_preset_rates_match_finite_differences(kind, data):
    sys = data.draw(preset_systems(kind), label="system")
    t = data.draw(st.floats(0.1, 0.9), label="t")
    check_rate(sys.stiffness_rate, lambda s: entries(sys.stiffness(s)), t)
    check_rate(sys.equilibrium_velocity, sys.equilibrium, t)


def springs_reference(cfg, t) -> tuple:
    """((q, qdot), (q's bound, qdot's bound)): the springs' equilibrium, K q = (0, k2 d),
    and its rate, exact at the schedules' float values at t.  q = X d/D with X = (k, k +
    k1) k2 and D = det K = k1 k2 + k (k1 + k2); qdot = N/D with N = d Xdot - q Ddot.

    Bounds in the library's order of operations, |.| each formula over its terms'
    absolute values (``oracles.gamma``, u = ``oracles.U``): D is within r |D|, r = gamma_3
    |D|/|D exact|, X within gamma_2, Xdot gamma_3 and Ddot gamma_4; so q = X/D d is within
    e = |q| (gamma_4 + r)/(1 - r).  The float d Xdot is within a = gamma_4 d |Xdot|, the
    float q Ddot (from the float q) within b = ((|q exact| + e) gamma_5 + e) |Ddot|, their
    difference within c = (1 + u)(a + b) + u |N exact|, and its quotient by the float D
    within ((1 + u) c + (u + r) |N exact|)/(|D exact| (1 - r)) of qdot.  On the natural
    scale d max|Kdot| max|K|/|D|, with |Xdot| <= 4 max|K| max|Kdot|, |Ddot| <= 6 max|K|
    max|Kdot| and rho = max|K|^2/|D|, that is about (24 + 168 rho + 216 rho^2) u.  None
    where D = 0, and (None, None) where r >= 1: D within rounding of 0 has no bound."""
    def read(schedule) -> tuple:
        return Fraction(schedule.value(t)), Fraction(schedule.derivative(t))

    (k, kd), (k1, k1d), (k2, k2d), d = read(cfg.k), read(cfg.k1), read(cfg.k2), Fraction(cfg.d)
    D, D_abs = k1 * k2 + k * (k1 + k2), abs(k1 * k2) + abs(k) * (abs(k1) + abs(k2))
    if D == 0:
        return None
    if (r := gamma(3) * D_abs / abs(D)) >= 1:
        return None, None
    Dd = k1d * k2 + k1 * k2d + kd * (k1 + k2) + k * (k1d + k2d)
    Dd_abs = abs(k1d * k2) + abs(k1 * k2d) + abs(kd) * (abs(k1) + abs(k2)) \
        + abs(k) * (abs(k1d) + abs(k2d))
    X = (k * k2, (k + k1) * k2)
    Xd = (kd * k2 + k * k2d, (kd + k1d) * k2 + (k + k1) * k2d)
    Xd_abs = (abs(kd * k2) + abs(k * k2d), (abs(kd) + abs(k1d)) * abs(k2)
              + (abs(k) + abs(k1)) * abs(k2d))
    values, bounds = [], []
    for x, xd, xd_abs in zip(X, Xd, Xd_abs):
        q = x * d / D
        e = abs(q) * (gamma(4) + r) / (1 - r)
        N = d * xd - q * Dd
        a, b = gamma(4) * d * xd_abs, ((abs(q) + e) * gamma(5) + e) * Dd_abs
        c = (1 + U) * (a + b) + U * abs(N)
        values.append((q, N / D))
        bounds.append((e, ((1 + U) * c + (U + r) * abs(N)) / (abs(D) * (1 - r))))
    return tuple(zip(*values)), tuple(zip(*bounds))


def stiffness_ramps():
    """Linear ramps on [0, 1] from values that are 0 or of size 1e-3 to 2: at t = 0 or t
    >= 1e-3, a product of three such values stays normal, and exact zeros make D = 0 or
    k1 = 0."""
    value = st.just(0.0) | st.floats(1e-3, 2.0) | st.floats(-2.0, -1e-3)
    return st.builds(lambda v0, v1: LinearRamp(0.0, v0, 1.0, v1), value, value)


@settings(PROPERTY, max_examples=300)
@given(k=stiffness_ramps(), k1=stiffness_ramps(), k2=stiffness_ramps(),
       d=st.floats(0.5, 3.0), t=st.just(0.0) | st.floats(1e-3, 1.0))
def test_springs_equilibrium_is_near_the_exact_solution_of_K_q_F(k, k1, k2, d, t):
    # Where the exact D is 0 so is the float one (each of its terms has a factor 0,
    # or the draws are exact), and only the two equilibrium views refuse it.
    cfg = SpringsConfig(k=k, k1=k1, k2=k2, d=d)
    sys, ref = build_preset(cfg), springs_reference(cfg, t)
    assert entries(sys.stiffness(t)) == (k.value(t), k1.value(t), k2.value(t))
    assert sys.stiffness_rate(t) == (k.slope, k1.slope, k2.slope)
    if ref is None:
        for view in (sys.equilibrium, sys.equilibrium_velocity):
            with pytest.raises(SingularConfigurationError, match=r"k1 k2 \+ k \(k1 \+ k2\) = 0"):
                view(t)
        return
    assume(ref[1] is not None)
    for view, exact, bound in zip((sys.equilibrium, sys.equilibrium_velocity), *ref):
        got = view(t)
        for value, x, b in zip(got, exact, bound):
            assert abs(Fraction(value) - x) <= b, (view.__name__, t, got, float(x), float(b))


SMALL_SPRINGS = {
    "uniform": {"type": "springs", "k": 1e-100, "k1": 1e-100, "k2": 1e-100, "d": 3.0},
    "k-ramp": {"type": "springs", "k1": 1e-100, "k2": 1e-100, "d": 3.0,
               "k": {"kind": "linear-ramp", "t0": 0.0, "v0": 1e-100, "t1": 1.0, "v1": 2e-100}},
    "uniform-1e-170": {"type": "springs", "k": 1e-170, "k1": 1e-170, "k2": 1e-170, "d": 3.0},
    "k-ramp-1e-170": {"type": "springs", "k1": 1e-170, "k2": 1e-170, "d": 3.0,
                      "k": {"kind": "linear-ramp", "t0": 0.0, "v0": 1e-170, "t1": 1.0,
                            "v1": 2e-170}},
}


@pytest.mark.parametrize("name", sorted(SMALL_SPRINGS))
def test_springs_with_a_small_triple_simulate(tmp_path, name):
    # D = 3e-200 is far from singular, though D^2 underflows: qdot forms no D^2.
    # D = 3e-340 is no float, yet far from singular: it is formed in the centred scale.
    obj = SMALL_SPRINGS[name]
    cfg = {"schema": 1, "preset": obj, "window": [0.0, 1.0], "integrator": {"dt": 0.25},
           "output": {"path": str(tmp_path / "small")}}
    proc = run_cli("simulate", "--config", write_cfg(tmp_path, cfg))
    assert (proc.returncode, proc.stderr) == (0, "")
    config = preset_config_from_dict(obj)
    sys = build_preset(config)
    for t in (0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0):
        (_, rates), (_, bounds) = springs_reference(config, t)
        for value, x, b in zip(sys.equilibrium_velocity(t), rates, bounds):
            assert abs(Fraction(value) - x) <= b, (t, value, float(x), float(b))


def test_springs_whose_det_K_overflows_have_their_equilibrium(tmp_path):
    # k = k1 = k2 = 1e200: D = 3e400 is no float, and X/D was inf/inf, NaN equilibria in
    # analyze's CSV and a refused start point in simulate.
    obj = {"type": "springs", "k": 1e200, "k1": 1e200, "k2": 1e200, "d": 3.0}
    cfg = {"schema": 1, "preset": obj, "window": [0.0, 1.0], "integrator": {"dt": 0.25},
           "output": {"path": str(tmp_path / "large")}}
    path = write_cfg(tmp_path, cfg)
    for command in ("analyze", "simulate"):
        proc = run_cli(command, "--config", path)
        assert (proc.returncode, proc.stderr) == (0, ""), command
    rows = (tmp_path / "large_analyze.csv").read_text().splitlines()[1:]
    assert {tuple(row.split(",")[-2:]) for row in rows} == {("1", "2")}


def springs_in_the_schedules_scale(cfg, t):
    """(q, qdot) of the springs formed from the schedules' values at t as read, with no
    rescaling, or None where X or D is no normal float (X may be 0).  A twin of the
    formula as it stood before the centred scale: where this is not None, the library
    must give its bits."""
    k, k1, k2 = cfg.k.value(t), cfg.k1.value(t), cfg.k2.value(t)
    kd, k1d, k2d = cfg.k.derivative(t), cfg.k1.derivative(t), cfg.k2.derivative(t)
    D, X = k1 * k2 + k * (k1 + k2), (k * k2, (k + k1) * k2)
    if not all(x == 0.0 or 2.0 ** -1022 <= abs(x) < math.inf for x in X) \
            or not 2.0 ** -1022 <= abs(D) < math.inf:
        return None
    Dd = k1d * k2 + k1 * k2d + kd * (k1 + k2) + k * (k1d + k2d)
    Xd = (kd * k2 + k * k2d, (kd + k1d) * k2 + (k + k1) * k2d)
    d = cfg.d
    return (tuple(x / D * d for x in X),
            tuple((d * xd - x / D * d * Dd) / D for x, xd in zip(X, Xd)))


def any_float_and_rate():
    """A schedule c0 + c1 t, each coefficient any finite float."""
    coefficient = st.floats(allow_nan=False, allow_infinity=False)
    return st.builds(lambda c0, c1: Polynomial((c0, c1)), coefficient, coefficient)


@settings(PROPERTY, max_examples=300)
@given(k=any_float_and_rate(), k1=any_float_and_rate(), k2=any_float_and_rate(),
       d=st.floats(0.5, 3.0), t=st.just(0.0) | st.floats(0.0, 1.0))
def test_springs_keep_their_bits_where_X_and_D_are_normal(k, k1, k2, d, t):
    cfg = SpringsConfig(k=k, k1=k1, k2=k2, d=d)
    twin = springs_in_the_schedules_scale(cfg, t)
    assume(twin is not None)
    sys = build_preset(cfg)
    for view, expected in zip((sys.equilibrium, sys.equilibrium_velocity), twin):
        assert list(map(float.hex, view(t))) == list(map(float.hex, expected)), view.__name__


def test_a_slack_wall_spring_holds_both_masses_at_the_far_wall():
    # k1 = 0: nothing pulls toward q = 0, so both masses sit at d, at rest.
    sys = build_preset(SpringsConfig(k=0.5, k1=0.0, k2=1.2, d=3.0))
    for t in (0.0, 0.5, 1.0):
        assert sys.equilibrium(t) == (3.0, 3.0)
        assert sys.equilibrium_velocity(t) == (0.0, 0.0)


def test_springs_with_det_K_zero_refuse_only_the_equilibrium():
    # k = 1, k1 = k2 = 0: two masses joined by one spring and free of the walls.
    # K = [[1, -1], [-1, 1]] is singular, with the zero mode Omega1^2 = 0.
    cfg = SpringsConfig(k=1.0, k1=0.0, k2=0.0, d=2.0)
    sys = build_preset(cfg)
    assert entries(sys.stiffness(0.5)) == (1.0, 0.0, 0.0)
    assert sys.stiffness_rate(0.5) == (0.0, 0.0, 0.0)
    assert cfg.potential(1.0, 0.5, 0.5) == 0.125
    dec = decompose_at(sys, 0.5)
    assert dec.omega1_sq == 0.0 and dec.omega2_sq == 2.0
    for view in (sys.equilibrium, sys.equilibrium_velocity):
        with pytest.raises(SingularConfigurationError, match="at t=0.5"):
            view(0.5)


def test_uncoupled_springs_have_an_exactly_resting_first_mass():
    # k = 0: X = (0, k1 k2) and D = k1 k2, so Xdot D - X Ddot is exactly 0 in floats.
    sys = build_preset(SpringsConfig(k=0.0, k1=LinearRamp(0.0, 1.0, 1.0, 0.7),
                                     k2=LinearRamp(0.0, 1.3, 1.0, 2.1), d=2.0))
    for t in (0.0, 0.3, 0.7, 1.0):
        assert sys.equilibrium_velocity(t) == (0.0, 0.0)


@pytest.mark.parametrize("kind", PRESET_KINDS)
@PROPERTY
@given(data=st.data())
def test_decomposition_theta_dot_is_theta_dot_at(kind, data):
    # decompose_at hands its stiffness triple to theta_dot_at; the rate must
    # be the one theta_dot_at evaluates on its own.  On the ion pair the two
    # see q0 from different warm solves, so they agree to rounding.
    sys = data.draw(preset_systems(kind), label="system")
    t = data.draw(st.floats(0.0, 1.0), label="t")
    rate = decompose_at(sys, t).theta_dot
    assert rate == pytest.approx(theta_dot_at(sys, t), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("kind", ["transport", "rotation", "phase-gate-zeroth-order"])
@PROPERTY
@given(data=st.data())
def test_theta_dot_chain_rule_matches_the_closed_form(kind, data):
    # On a copy without the preset's closed form, theta_dot_at takes the
    # chain rule through the stiffness rates.  Rotation frequencies stay
    # apart, where the stiffness is far from isotropic.
    configs = preset_configs(kind)
    if kind == "rotation":
        configs = configs.filter(lambda cfg: abs(cfg.omega1 - cfg.omega2) >= 0.1)
    cfg = data.draw(configs, label="config")
    sys = build_preset(cfg)
    t = data.draw(st.floats(0.0, 1.0), label="t")
    closed_form = sys.theta_dot_override(t)
    chain_rule = theta_dot_at(replace(sys, theta_dot_override=None), t)
    if kind == "rotation":
        assert chain_rule == pytest.approx(closed_form, rel=1e-9, abs=0.0)
    elif kind == "transport":
        # The closed form is 0; the chain rule cancels k-dot k - k k-dot.
        assert closed_form == 0.0
        assert abs(chain_rule) <= 1e-12 * abs(cfg.k.derivative(t) / cfg.k.value(t))
    else:
        assert chain_rule == closed_form == 0.0


@pytest.mark.parametrize("kind, cases", [
    ("transport", {"k1=k2=k", "k1=k2, m1=m2"}), ("springs-k0", {"k=0"}),
    ("separation", None), ("phase-gate", None),
])
@PROPERTY
@given(data=st.data())
def test_analytic_case_from_the_sampled_triples(kind, cases, data):
    # classify_separability names the analytic case from the triples its
    # loop sampled; a fresh system evaluated again at the same times names
    # the same one.
    cfg = data.draw(preset_configs(kind.removesuffix("-k0")), label="config")
    if kind == "springs-k0":
        cfg = SpringsConfig(k=0.0, k1=cfg.k1, k2=cfg.k2, d=cfg.d, masses=cfg.masses)
    n = data.draw(st.integers(2, 40), label="samples")
    rep = classify_separability(build_preset(cfg), (0.0, 1.0), n_samples=n)
    fresh = build_preset(cfg)
    triples = [fresh.stiffness(t) for t in np.linspace(0.0, 1.0, n)]
    assert rep.analytic_case == _detect_analytic_case(fresh.masses, triples)
    if cases is not None:
        assert rep.analytic_case in cases


@PROPERTY
@given(m1=st.floats(0.2, 5.0), power=st.integers(-3, 3), k1=st.floats(-3.0, 3.0),
       k0=st.builds(lambda e, s: s * 10.0**e, st.floats(-9.0, 0.0), st.sampled_from([-1.0, 1.0])),
       decades=st.floats(-12.0, 12.0))
def test_a_constant_mode_angle_classifies_as_separable(m1, power, k1, k0, decades):
    # m2 = 2^power m1 and k2 = 2^power k1 make e = k2/m2 - k1/m1 exactly 0, so
    # tan(2 theta) = 2 sqrt(m1 m2)/(m1 - m2) whatever k is, and theta_dot's chain
    # rule (kdot e - k edot) / (sqrt(m1 m2) r^2) is 0.  k ramps over up to 12 decades
    # up or down from |k0|; where |k| is below about 1e-12 |k1| the stiffness is
    # degenerate and theta_dot is a difference quotient of theta, far below tol_sep.
    cfg = CustomConfig(k=LinearRamp(0.0, k0, 1.0, k0 * 10.0**decades), k1=k1,
                       k2=math.ldexp(k1, power), masses=(m1, math.ldexp(m1, power)))
    assert classify_separability(build_custom(cfg), (0.0, 1.0)).separable


# The sim-separation benchmark's schedules (masses [1, 2]) on its 513-point
# time grid: the ramp takes alpha through the double-well split.
SEPARATION_RAMP = SeparationConfig(
    alpha=Smoothstep(0.7272579622308882, -1.2059001104872493, 0.7094804483273351,
                     3.6498050707753356),
    beta=LinearRamp(0.0, 0.5853602574299067, 4.0, 0.9949063209617852),
    Cc=1.1548293194997403, masses=(1.0, 2.0),
)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the ion pair's warm root solve depends on the previous time evaluated: "
    "68 of 513 equilibria differ by 1 ulp"))
def test_separation_values_do_not_depend_on_evaluation_order():
    times = [i / 128.0 for i in range(513)]
    shuffled = times[:]
    random.Random(0).shuffle(shuffled)
    ordered, other = build_preset(SEPARATION_RAMP), build_preset(SEPARATION_RAMP)
    in_order = {t: ordered.equilibrium(t) for t in times}
    out_of_order = {t: other.equilibrium(t) for t in shuffled}
    assert [t for t in times if in_order[t] != out_of_order[t]] == []


@contextmanager
def counted_derivative_calls():
    """Count the root solver's derivative evaluations inside the block."""
    calls = []
    solve = presets.solve_positive_root

    def counting_solve(f, fprime, q_max, guess=None):
        def counted(x):
            calls.append(x)
            return fprime(x)

        return solve(f, counted, q_max, guess=guess)

    with mock.patch.object(presets, "solve_positive_root", counting_solve):
        yield calls


def signed(lo, hi):
    return st.builds(lambda x, s: s * x, st.floats(lo, hi), st.sampled_from([-1.0, 1.0]))


nudge = st.floats(-1e-2, 1e-2)
separation_params = st.tuples(signed(0.05, 3.0), st.floats(0.1, 3.0), st.floats(0.5, 2.0))
phase_gate_params = st.tuples(st.floats(0.5, 3.0), signed(0.0, 2.0), st.floats(0.5, 2.0))


@contextmanager
def recorded_solves():
    """The (f, fprime, q_max, root) of every root solve inside the block, in the solve's
    own variable (x = q/2^e for the ion pair)."""
    solves = []
    solve = presets.solve_positive_root

    def recording_solve(f, fprime, q_max, guess=None):
        solves.append((f, fprime, q_max, solve(f, fprime, q_max, guess=guess)))
        return solves[-1][3]

    with mock.patch.object(presets, "solve_positive_root", recording_solve):
        yield solves


def check_warm_refine(solve, coefficients, params, nudged):
    # A time step moves the parameters a little; the refine warm-started from
    # the previous root must converge in a few Newton steps, not run to
    # maxiter, and land within 4 ulp of the exact root.
    previous = solve(*params)
    with counted_derivative_calls() as calls:
        warm = solve(*nudged, guess=previous)
    assert len(calls) <= 6
    assert_near_the_exact_root(warm, coefficients(*nudged))


@PROPERTY
@given(separation_params, st.tuples(nudge, nudge, nudge))
def test_warm_separation_refine_converges_in_a_few_steps(params, rel):
    nudged = tuple(p * (1.0 + r) for p, r in zip(params, rel))
    check_warm_refine(solve_separation_distance,
                      lambda alpha, beta, Cc: [beta, 0.0, 2.0 * alpha, 0.0, 0.0, -2.0 * Cc],
                      params, nudged)


@PROPERTY
@given(phase_gate_params, st.tuples(nudge, nudge, nudge))
def test_warm_phase_gate_refine_converges_in_a_few_steps(params, rel):
    def solve(k0, d, Cc, guess=None):
        return solve_phase_gate_distance(d, 0.0, k0, Cc, guess=guess)

    nudged = tuple(p * (1.0 + r) for p, r in zip(params, rel))
    check_warm_refine(solve, lambda k0, d, Cc: [k0, d, 0.0, -2.0 * Cc], params, nudged)


def check_warm_exit(solve, params):
    # Solving again from the returned root, in the kernel's own variable x,
    # evaluates f once, and f' once unless f(root) == 0, and moves it by at most
    # the exit's step, 4 * 2^-52 root.  A guess above q_max takes the full scan,
    # which finds no root below the root itself.
    with recorded_solves() as solves:
        solve(*params)
    (f, fprime, q_max, root), = solves
    f_calls, d_calls = [], []
    again = solve_positive_root(
        lambda q: f_calls.append(q) or f(q), lambda q: d_calls.append(q) or fprime(q),
        q_max, guess=root,
    )
    assert (len(f_calls), len(d_calls)) == (1, int(f(root) != 0.0))
    assert abs(again - root) <= 4 * 2.0**-52 * root
    with pytest.raises(PresetDomainError):
        solve_positive_root(f, fprime, root * (1.0 - 1e-9), guess=root)


@PROPERTY
@given(separation_params)
def test_separation_root_exits_warm_after_one_step(params):
    check_warm_exit(solve_separation_distance, params)


@PROPERTY
@given(phase_gate_params)
def test_phase_gate_root_exits_warm_after_one_step(params):
    check_warm_exit(lambda k0, d, Cc: solve_phase_gate_distance(d, 0.0, k0, Cc), params)


log_uniform = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
log_signed = st.builds(lambda x, s: s * x, log_uniform, st.sampled_from([-1.0, 1.0]))


def assert_near_the_exact_root(got, coeffs):
    below = last_float_below_root(coeffs)
    assert abs(got - below) <= 4 * math.ulp(below)


def quintic(alpha, beta, Cc) -> list:
    """beta q^5 + 2 alpha q^3 - 2 Cc, exact: 2 alpha and 2 Cc may be no floats."""
    return [beta, 0, 2 * Fraction(alpha), 0, 0, -2 * Fraction(Cc)]


def cubic(k0, F1, F2, Cc) -> list:
    """k0 q^3 + (F1 - F2) q^2 - 2 Cc, exact: F1 - F2 and 2 Cc may be no floats."""
    return [k0, Fraction(F1) - Fraction(F2), 0, -2 * Fraction(Cc)]


def check_root_at_any_scale(solve, coeffs, r=None) -> None:
    """solve(guess) is within 4 ulp of the exact root from a cold start (r None) or from
    a guess r off the root; where the root is no float, a cold solve names the overflow."""
    below = last_float_below_root(coeffs)
    if below == _sys.float_info.max:  # the root lies beyond every float
        with pytest.raises(PresetDomainError, match="q0 overflows for"):
            solve(None)
        return
    assert_near_the_exact_root(solve(None if r is None else below * (1.0 + r)), coeffs)


# A cold solve scans the one bracket (0, 8] in x = q/2^e.  The examples' roots
# lay so far below the first cell's midpoint of a bracket in q that Newton
# from there needed more than MAX_NEWTON steps.
@settings(PROPERTY, max_examples=200)
@given(alpha=log_signed, beta=log_uniform, Cc=log_uniform)
@example(alpha=1.0, beta=1e40, Cc=1.0)
@example(alpha=-1e4, beta=1e18, Cc=1e-26)
@example(alpha=-1e300, beta=1.0, Cc=1.0)  # the root, 1.4e150, has a quintic of 5e751
@example(alpha=1.0, beta=1.0, Cc=1e-300)  # the root, 1e-100, is below the q scan's grid
@example(alpha=1e308, beta=1.0, Cc=1.0)  # 2 alpha is no float; the root is 2.2e-103
@example(alpha=-1e308, beta=1.0, Cc=1.0)  # the root, 1.4e154, with 2 alpha no float
@example(alpha=1.0, beta=1.0, Cc=1e308)  # 2 Cc is no float; the root is 4.6e61
def test_cold_separation_root_is_within_4_ulp_at_any_scale(alpha, beta, Cc):
    check_root_at_any_scale(lambda guess: solve_separation_distance(alpha, beta, Cc, guess),
                            quintic(alpha, beta, Cc))


@settings(PROPERTY, max_examples=200)
@given(k0=log_uniform, Cc=log_uniform, F1=log_signed, F2=st.just(0.0))
@example(k0=1.0, Cc=1e-33, F1=0.0, F2=0.0)
@example(k0=1e20, Cc=1e-12, F1=1e-21, F2=0.0)
@example(k0=1e300, Cc=1e-300, F1=0.0, F2=0.0)  # the root's cube, 2e-600, is no float
@example(k0=1e-300, Cc=1.0, F1=0.035, F2=0.0)  # the root is 7.6; a q bracket 1e299 overflowed f
@example(k0=1.0, Cc=1.0, F1=-1e300, F2=0.0)  # the root, 1e300, has a cubic of 1e900
@example(k0=1e-300, Cc=1.0, F1=-1e100, F2=0.0)  # the root, 1e400, is no float
@example(k0=1.0, Cc=1.0, F1=1e308, F2=-1e308)  # F1 - F2 is no float; the root is 1e-154
@example(k0=1.0, Cc=1e308, F1=0.0, F2=0.0)  # 2 Cc is no float; the root is 5.8e102
@example(k0=5e-324, Cc=5e-324, F1=5e-324, F2=0.0)  # F1/2 is no float; the root is 1
def test_cold_phase_gate_root_is_within_4_ulp_at_any_scale(k0, Cc, F1, F2):
    check_root_at_any_scale(lambda guess: solve_phase_gate_distance(F1, F2, k0, Cc, guess),
                            cubic(k0, F1, F2, Cc))


@settings(PROPERTY, max_examples=200)
@given(Cc=log_uniform, k=log_uniform, kind=st.sampled_from(["transport", "zeroth-order"]))
@example(Cc=1.0, k=1e-30, kind="transport")  # (2 Cc/k) ** (1/3) was 8.4 ulp off
@example(Cc=1e-100, k=1e300, kind="transport")  # 2 Cc/k, 2e-400, is no float
def test_closed_form_distances_are_within_1_ulp_at_any_scale(Cc, k, kind):
    # Transport's q0 = (2 Cc/k)^(1/3) and the zeroth-order phase gate's q1 =
    # (Cc/(4 k0))^(1/3): a cube root of a number in [1/2, 8), times 2^j.
    if kind == "transport":
        q = 2.0 * build_preset(TransportConfig(k=k, Q0=0.0, Cc=Cc)).equilibrium(0.0)[0]
        coeffs = [k, 0.0, 0.0, -2.0 * Cc]
    else:
        cfg = PhaseGateConfig(k0=k, F1=0.0, F2=0.0, Cc=Cc, zeroth_order=True)
        q, coeffs = build_preset(cfg).equilibrium(0.0)[0], [4.0 * k, 0.0, 0.0, -Cc]
    below = last_float_below_root(coeffs)
    assert abs(q - below) <= math.ulp(below)


wide = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
wide_signed = st.builds(lambda x, s: s * x, wide, st.sampled_from([-1.0, 1.0]))
bracket = st.floats(0.0, 8.0, exclude_min=True)


def kernels(equation, u) -> tuple:
    """The (f, f', q_max) a preset's ``equation`` hands the root solver at u."""
    handed = []
    with mock.patch.object(presets, "solve_positive_root", lambda *a: handed.append(a) or 1.0):
        try:
            equation(None, u)[0](None)
        except OverflowError:  # 2^e, this stand-in root's q, is no float
            pass
    return handed[0][:3]


def check_scaled(a, b, h, c, j) -> list:
    """The coefficients in x of f = (a q^j + b 2^h) q^j q - 2c from ``presets._in_own_scale``,
    highest power first, after checking in rationals that they are those of f(2^e x) 2^-s:
    each of a, b 2^h and 2c times a power of two, one in [1/2, 1), all below 16, and exact
    unless it is more than 2^-1021 below the largest (an underflow)."""
    e, scaled = presets._in_own_scale(a, b, h, c, j)
    powers, coeffs = (2 * j + 1, j + 1, 0), (a, Fraction(b) * 2**h, 2 * Fraction(c))
    exact = [Fraction(v) * Fraction(2) ** (k * e) for v, k in zip(coeffs, powers)]
    largest = max(range(3), key=lambda i: abs(scaled[i]))
    assert any(0.5 <= abs(v) < 1.0 for v in scaled) and abs(scaled[largest]) < 16.0
    ratio = Fraction(scaled[largest]) / exact[largest]  # 2^-s
    assert ratio.numerator & (ratio.numerator - 1) == 0
    assert ratio.denominator & (ratio.denominator - 1) == 0
    for got, want in zip(scaled, exact):
        assert Fraction(got) == want * ratio or abs(got) < 2.0**-1021, (got, want)
    return [scaled[0], *[0.0] * (j - 1), scaled[1], *[0.0] * j, -scaled[2]]


def check_kernel(f, x, coeffs):
    # Horner's rule in n steps is within gamma_2n sum |a_i x^i| of the exact
    # value (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    # section 5.1); 2 n eps is twice that, since eps is twice the unit
    # roundoff.  Below the normal range each of the kernel's products may add
    # 2^-1075 more, which the later products by x <= 8, x^2 <= 64 and a
    # coefficient below 16 grow by less than 2^14: 2^-1060 covers them.  On the
    # bracket, with |a_i| < 16, f is finite, so no kernel guards its own range.
    t, n = Fraction(x), len(coeffs) - 1
    terms = [Fraction(c) * t ** (n - i) for i, c in enumerate(coeffs)]
    scale = sum(abs(term) for term in terms)
    got = f(x)
    assert math.isfinite(got)
    bound = 2 * n * Fraction(_sys.float_info.epsilon) * scale + Fraction(2) ** -1060
    assert abs(Fraction(got) - sum(terms)) <= bound


@settings(PROPERTY, max_examples=300)
@given(alpha=wide_signed, beta=wide, Cc=wide, x=bracket)
def test_the_quintic_kernel_is_within_horners_bound(alpha, beta, Cc, x):
    f, _, q_max = kernels(presets._separation_distance(Cc), (alpha, beta))
    assert q_max == 8.0
    check_kernel(f, x, check_scaled(beta, alpha, 1, Cc, 2))


@settings(PROPERTY, max_examples=300)
@given(k0=wide, Cc=wide, d=wide_signed, x=bracket)
def test_the_cubic_kernel_is_within_horners_bound(k0, Cc, d, x):
    f, _, q_max = kernels(presets._phase_gate_distance(k0, Cc), (d, 0.0))
    assert q_max == 8.0
    check_kernel(f, x, check_scaled(k0, *((d, 0) if abs(d) < 2.0**1023 else (0.5 * d, 1)), Cc, 1))


@settings(PROPERTY, max_examples=200)
@given(alpha=log_signed, beta=log_uniform, Cc=log_uniform, r=st.floats(-0.2, 0.2))
@example(alpha=1e308, beta=1.0, Cc=1.0, r=0.1)  # 2 alpha is no float
@example(alpha=-1e308, beta=1.0, Cc=1.0, r=-0.1)
@example(alpha=1.0, beta=1.0, Cc=1e308, r=0.1)  # 2 Cc is no float
def test_warm_separation_root_is_within_4_ulp_from_20_percent_off(alpha, beta, Cc, r):
    check_root_at_any_scale(lambda guess: solve_separation_distance(alpha, beta, Cc, guess),
                            quintic(alpha, beta, Cc), r)


@settings(PROPERTY, max_examples=200)
@given(k0=log_uniform, Cc=log_uniform, d=log_signed, r=st.floats(-0.2, 0.2))
@example(k0=1.0, Cc=1e308, d=1e-300, r=-0.1)  # 2 Cc is no float
def test_warm_phase_gate_root_is_within_4_ulp_from_20_percent_off(k0, Cc, d, r):
    check_root_at_any_scale(lambda guess: solve_phase_gate_distance(d, 0.0, k0, Cc, guess),
                            cubic(k0, d, 0.0, Cc), r)


def test_a_fresh_separation_system_gives_its_first_equilibrium_again():
    # The first call solves cold, the second warm from the first.
    sys = build_preset(SeparationConfig(alpha=1.0, beta=1e40, Cc=1.0))
    first, again = sys.equilibrium(0.0)[0], sys.equilibrium(0.0)[0]
    assert abs(first - again) <= 4 * math.ulp(again)


@pytest.mark.parametrize("obj", [
    {"type": "phase-gate", "k0": 5e-324, "Cc": 5e-324, "F1": 0.0, "F2": 0.0},
    {"type": "separation", "alpha": 0.0, "beta": 5e-324, "Cc": 5e-324},
])
def test_a_subnormal_ion_pair_has_a_distance_rate(obj):
    # f' at the root is a few units of 2^-1074, not 0: the root is simple.  A
    # coefficient halved in floats would round such a unit to 0.
    sys = build_preset(obj)
    assert sys.equilibrium_velocity(0.5) == (0.0, 0.0)


any_float = st.one_of(st.just(0.0), st.floats(allow_nan=False, allow_infinity=False))


@settings(PROPERTY, max_examples=300)
@given(any_float, any_float, st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
       st.sampled_from([1, 2]), st.sampled_from([0, 1]))
@example(1.0, -1e300, 1.0, 2, 1)  # a separation whose root, 1.4e150, had a quintic beyond floats
@example(1e-300, 0.07, 1.0, 1, 0)  # a phase gate whose q bracket, 1e299, overflowed its cubic
def test_the_scaled_bracket_holds_every_positive_root(a, b, c, j, h):
    # The root solve scans (0, 8] in x = q/2^e.  In rationals, f(2^e x) = (A x^j + B)
    # x^j x - C has no root beyond 8: where A < 0, A x^j + B is negative from 8 on;
    # where A > 0 or B > 0, A x^j + B is positive at 8, so f grows from 8 on, from
    # f(8) >= 0 (else A = 0 >= B and f has no positive root).  Coefficients of
    # either sign, zero and extreme, b 2^h and 2c beyond the floats too.
    scale = Fraction(2) ** presets._in_own_scale(a, b, h, c, j)[0]
    A, B = Fraction(a) * scale ** (2 * j + 1), Fraction(b) * 2**h * scale ** (j + 1)
    C = 2 * Fraction(c)
    head = A * 8**j + B
    if A < 0:
        assert head <= 0
    elif A > 0 or B > 0:
        assert head > 0 and head * 8 ** (j + 1) >= C


# Near zero, where a span t1 - t0 can be subnormal and its step underflow to 0.
window_end = st.one_of(any_float, st.floats(-1e-305, 1e-305))


@settings(PROPERTY, max_examples=300)
@given(window_end, window_end, st.integers(2, 2000))
@example(0.0, 1.5e-323, 10)  # step = 3 ulp / 9 rounds to 0
@example(-5e-324, 5e-324, 2000)
@example(-1e308, 0.7e308, 3)
@example(-8.988465674311579e307, 8.988465674311579e307, 7)  # numpy's 6 step overflows
def test_sample_times_have_the_bits_of_numpys_grid(t0, t1, n):
    assume(math.isfinite(t1 - t0))
    with np.errstate(over="ignore"):  # (n - 1) step may pass the largest float; t1 replaces it
        want = np.linspace(t0, t1, n).tolist()
    assert list(map(float.hex, _sample_times(t0, t1, n))) == list(map(float.hex, want))


@settings(PROPERTY, max_examples=300)
@given(st.floats(-1e3, 1e3), st.floats(1e-3, 1e3), st.integers(1, 4096))
@example(0.1, 2.9, 9)  # t0 + 9 dt is 2.9999999999999996: the last entry is t1 = 3.0
def test_integrator_grid_has_the_bits_of_numpys(t0, span, n):
    # At these scales t1 - t0 is within rounding of span, far inside the
    # divisibility check.
    spec = IntegratorSpec(span / n, t0, t0 + span)
    assert spec.n_steps == n
    want = t0 + spec.dt * np.arange(n + 1)
    want[-1] = spec.t1
    got = spec.grid()
    assert {type(t) for t in got} == {float}
    assert list(map(float.hex, got)) == list(map(float.hex, want.tolist()))


def test_a_guess_at_or_below_zero_takes_the_full_scan():
    # -2 is a root of q^2 - 4, but not a positive one.
    assert solve_positive_root(lambda q: q * q - 4.0, lambda q: 2.0 * q, 3.0, guess=-2.0) == 2.0


def twin_systems(kind, data):
    """Two systems with the same values: a preset's root solves start warm
    from the system's last root, so a reference walk gets its own build."""
    if kind == "crossing":
        sys = data.draw(crossing_systems(), label="system")[0]
    elif kind == "custom":
        sys = data.draw(systems(), label="system")
    else:
        cfg = data.draw(preset_configs(kind), label="config")
        return build_preset(cfg), build_preset(cfg)
    return sys, sys


@pytest.mark.parametrize("kind", ["custom", "crossing", "rotation", "separation"])
@PROPERTY
@given(data=st.data())
def test_float_map_matches_the_decomposition(kind, data):
    # The map calls mode_state: each row has its bits on the cos and sin of
    # the walk's theta at that sample.  It threads the mode angle as
    # decompose_at does and forms the modal products in floats: it equals
    # to_mode_frame of the decomposition, and the decomposition's numpy
    # matrices, to rounding of the state scale.
    sys, twin = twin_systems(kind, data)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    times = np.linspace(0.0, 1.0, 65)
    states = rng.uniform(-2.0, 2.0, (len(times), 4))
    mapped = np.array(map_to_mode_frame(sys, Trajectory("lab", times, states)).rows)
    tol = 1e-14 * np.abs(mapped).max()
    frame = _mode_frames(twin)
    branch = None
    for i, t in enumerate(times.tolist()):
        _, c, s, _, _ = frame(t)
        assert hexes(mapped[i]) == hexes(mode_state(twin, t, c, s, *states[i].tolist()))
        dec = decompose_at(sys, t, branch_ref=branch)
        branch = dec.theta
        q, p = states[i, :2], states[i, 2:]
        X = to_mode_frame(dec, PhasePoint(t, q, p), sys)
        ref = np.array((*X.q, *X.p))
        A, A_inv = map(np.array, modal_matrix(dec.theta, sys.masses))
        oracle = np.concatenate([A @ (q - sys.equilibrium(t)), A_inv.T @ p])
        assert np.abs(mapped[i] - ref).max() <= tol
        assert np.abs(mapped[i] - oracle).max() <= tol


def hexes(values) -> list:
    return [float(x).hex() for x in values]


@pytest.mark.parametrize("kind", ["custom", "separation"])
@PROPERTY
@given(data=st.data())
def test_verlet_has_the_bits_of_the_oracle_loop(kind, data):
    # Each step starts from the force the step before computed: one force
    # per grid time, so the oracle's twin build sees the same calls in the
    # same order (a second warm root solve at a time may move q0 by an ulp).
    sys, twin = twin_systems(kind, data)
    s = data.draw(phase, label="state")
    spec = IntegratorSpec(dt=1.0 / 64.0, t0=0.0, t1=1.0, method="velocity-verlet")
    calls, force = [], sys.force
    sys.force = lambda t, q1, q2: calls.append(t) or force(t, q1, q2)
    lab = integrate_lab(sys, PhasePoint(0.0, s[:2], s[2:]), spec)
    assert calls == list(lab.times) == spec.grid()
    expected = verlet_states(twin, spec.grid(), spec.dt, s)
    assert [hexes(row) for row in lab.rows] == [hexes(row) for row in expected]


@st.composite
def table_rotation_configs(draw):
    """Rotation with a cubic-table phi on nine knots over [0, 1]."""
    knots = tuple(i / 8.0 for i in range(9))
    values = draw(st.lists(st.floats(-3.0, 3.0), min_size=9, max_size=9))
    return RotationConfig(
        m=draw(st.floats(0.2, 5.0)), omega1=draw(st.floats(0.5, 3.0)),
        omega2=draw(st.floats(0.5, 3.0)), phi=SampledTable(knots, tuple(values)),
    )


def mode_rhs_from_helpers(sys, apply_larmor):
    """The mode-frame right-hand side from the helpers the integrator's stage
    forms inline: the drive from _modal_product, theta_dot_at; with Larmor
    compensation at omega_L = theta_dot, uncoupled oscillators at
    Omega^2 + theta_dot^2."""
    frame = _mode_frames(sys)
    r1, r2 = sys.masses.sqrt1, sys.masses.sqrt2

    def rhs(t, y):
        t = float(t)
        Q1, Q2, P1, P2 = y.tolist()
        _, c, s, o1, o2 = frame(t)
        D1, D2 = _modal_product(c, s, r1, r2, *sys.equilibrium_velocity(t))
        td = theta_dot_at(sys, t)
        if apply_larmor:
            wL = td
            return np.array([P1 - D1, P2 - D2, -o1 * Q1 - wL * wL * Q1, -o2 * Q2 - wL * wL * Q2])
        dQ1, dQ2 = P1 - D1 + td * Q2, P2 - D2 - td * Q1
        dP1, dP2 = -o1 * Q1 + td * P2, -o2 * Q2 - td * P1
        return np.array([dQ1, dQ2, dP1, dP2])

    return rhs


@pytest.mark.parametrize("kind", ["custom", "rotation"])
@pytest.mark.parametrize("larmor", ["off", "theta_dot"])
@PROPERTY
@given(data=st.data(), s=phase)
def test_mode_run_gives_the_bits_of_the_helper_oracle(kind, larmor, data, s):
    if kind == "custom":
        sys = data.draw(systems(), label="system")
    else:
        sys = data.draw(table_rotation_configs().map(build_preset), label="system")
    spec = IntegratorSpec(dt=1.0 / 64.0, t0=0.0, t1=1.0)
    X0 = PhasePoint(0.0, s[:2], s[2:], frame="mode")
    apply_larmor = larmor != "off"
    modes = integrate_modes(sys, X0, spec, apply_larmor=apply_larmor)
    times, oracle = rk4_states(mode_rhs_from_helpers(sys, apply_larmor), spec.t0, (*X0.q, *X0.p),
                               spec.dt, spec.n_steps)
    assert np.array_equal(modes.times, times)
    assert hexes(np.array(modes.rows).ravel()) == hexes(oracle.ravel())


@pytest.mark.parametrize("kind", ["transport", "separation", "phase-gate"])
@PROPERTY
@given(data=st.data())
def test_ion_pair_views_are_near_the_exact_per_piece_formulas(kind, data):
    # Unequal masses, alpha of either sign.  The views are called in a drawn
    # order at drawn times, so their roots come from cold and warm solves.  Each
    # root is within 4 ulp of the exact root (transport's closed-form cube root
    # within 1 ulp), and each view on the root it solved for is within the
    # rounding bound of its exact per-piece formulas.
    cfg = data.draw(preset_configs(kind), label="config")
    sys, roots = recorded_build(cfg)
    calls = st.tuples(st.sampled_from(ION_PAIR_VIEWS), st.floats(0.0, 1.0))
    for view, t in data.draw(st.lists(calls, min_size=1, max_size=8), label="calls"):
        got = view_values(sys, view, t)
        q0, = roots  # one root solve per view
        del roots[:]
        below = last_float_below_root(distance_coefficients(cfg, t))
        assert abs(q0 - below) <= (1 if kind == "transport" else 4) * math.ulp(below)
        check_ion_pair_view(cfg, view, t, q0, got)


@pytest.mark.parametrize("kind", ["transport", "separation", "phase-gate"])
@PROPERTY
@given(data=st.data())
def test_ion_pair_record_gives_the_bits_of_the_per_view_form(kind, data):
    # The views share one record of the controls at the last time read.  Calls
    # at up to three drawn times repeat and interleave, and a call may come as
    # a numpy time followed by the same float time, the order classify uses.
    # Every view must give the bits, and every solve the root, of the per-view
    # form, which reads the controls afresh on each call.
    cfg = data.draw(preset_configs(kind), label="config")
    (sys, roots), oracle = recorded_build(cfg), per_view_ion_pair(cfg)
    pool = data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3), label="times")
    call = st.tuples(st.sampled_from(ION_PAIR_VIEWS), st.sampled_from(pool), st.booleans())
    for view, t, numpy_first in data.draw(st.lists(call, min_size=1, max_size=12),
                                          label="calls"):
        for s in (np.float64(t), t) if numpy_first else (t,):
            got, expected = getattr(sys, view)(s), oracle(view, s)
            if view == "stiffness":
                got, expected = entries(got), entries(expected)
            assert hexes(got) == hexes(expected)
    assert hexes(roots) == hexes(oracle.roots)


def distance_coefficients(cfg, t) -> list:
    """The float coefficients of the ion pair's distance polynomial at t."""
    if hasattr(cfg, "Q0"):
        return [cfg.k.value(t), 0.0, 0.0, -2.0 * cfg.Cc]
    if hasattr(cfg, "alpha"):
        return [cfg.beta.value(t), 0.0, 2.0 * cfg.alpha.value(t), 0.0, 0.0, -2.0 * cfg.Cc]
    return [cfg.k0, cfg.F1.value(t) - cfg.F2.value(t), 0.0, -2.0 * cfg.Cc]


def run_on_threads(run, call_lists) -> None:
    """run(calls) for each list on a thread of its own, all started at once and switching
    as often as the interpreter allows; any exception fails the test, from its own thread."""
    start, failures = threading.Barrier(len(call_lists)), []

    def target(calls):
        try:
            start.wait(timeout=60)
            run(calls)
        except Exception as exc:
            failures.append(exc)

    threads = [threading.Thread(target=target, args=(calls,)) for calls in call_lists]
    interval = _sys.getswitchinterval()
    _sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        _sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


def check_roots_near_the_exact_root(cfg, call_lists) -> None:
    """Call each list's (view, t) in order, each list on its own thread and all on one
    system; every root the views solve is within 4 ulp of its own time's exact root, and
    every equilibrium is that root apart."""
    below = {t: last_float_below_root(distance_coefficients(cfg, t))
             for t in {t for calls in call_lists for _, t in calls}}
    asking, roots, distances = threading.local(), [], []

    def recording_solve(solve, guess):
        roots.append((asking.t, q0 := solve(guess)))
        return q0  # not roots[-1], which the other thread may have appended since

    with ion_pair_solves(recording_solve):
        sys = build_preset(cfg)

    def run(calls):
        for view, asking.t in calls:
            got = getattr(sys, view)(asking.t)
            if view == "equilibrium":
                distances.append((asking.t, got[0] - got[1]))

    run_on_threads(run, call_lists)
    assert len(roots) == sum(map(len, call_lists))  # one solve per view call
    assert [(t, q) for t, q in roots if abs(q - below[t]) > 4 * math.ulp(below[t])] == []
    assert [(t, d) for t, d in distances if not math.isclose(d, below[t], rel_tol=1e-12)] == []


@pytest.mark.parametrize("kind", ["separation", "phase-gate"])
@PROPERTY
@given(data=st.data())
def test_ion_pair_roots_stay_near_the_exact_root_in_any_call_order(kind, data):
    # The views share one record and one warm guess, the root of whichever call
    # came before.  Separation draws alpha of either sign with beta > 0, so its
    # quintic, like the cubic, has one positive root.
    cfg = data.draw(preset_configs(kind), label="config")
    pool = data.draw(st.lists(times, min_size=1, max_size=4), label="times")
    call = st.tuples(st.sampled_from(ION_PAIR_VIEWS), st.sampled_from(pool))
    check_roots_near_the_exact_root(
        cfg, [data.draw(st.lists(call, min_size=1, max_size=40), label="calls")])


@pytest.mark.parametrize("kind", ["separation", "phase-gate"])
@settings(PROPERTY, max_examples=5, phases=(Phase.generate,))
@given(data=st.data())
def test_ion_pair_roots_stay_near_the_exact_root_on_any_thread(kind, data):
    # Two threads share one system, so each may solve from the other's root and
    # read the other's record.  A race does not replay, so the first failing
    # example is reported as drawn.
    cfg = data.draw(preset_configs(kind), label="config")
    pool = data.draw(st.lists(times, min_size=1, max_size=4), label="times")
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    check_roots_near_the_exact_root(
        cfg, [[(rng.choice(ION_PAIR_VIEWS), rng.choice(pool)) for _ in range(4000)]
              for _ in range(2)])


def logged_build(cfg) -> tuple:
    """(system, log): the system built from cfg, and a dict from each thread's ident to
    what its calls did, in order: (n, q0) for each distance solve and (n, q0, "rate") for
    each q0dot formed, n the serial number of the time's distance equation."""
    log, serials = {}, itertools.count()

    def note(*event):
        log.setdefault(threading.get_ident(), []).append(event)

    def logged(t, u, equation):
        n, (solve, rate) = next(serials), equation(t, u)

        def logged_solve(guess):
            note(n, q0 := solve(guess))
            return q0

        def logged_rate(du, q0):
            note(n, q0, "rate")
            return rate(du, q0)

        return logged_solve, logged_rate

    with ion_pair_equations(logged):
        return build_preset(cfg), log


def logged_call(sys, log, view, t) -> tuple:
    """(values, key, rates) of one view call on this thread: the key (n, bits of q0) of
    the one distance it solved, and the number of q0dot it formed."""
    events = log.setdefault(threading.get_ident(), [])
    start = len(events)
    got = getattr(sys, view)(t)
    (n, q0), *rates = events[start:]
    return got, (n, q0.hex()), len(rates)


def check_kept_triples(calls) -> None:
    """Every (view, t, values, key) call that returned one triple object had one key
    and one time (0.0 and -0.0 share a record)."""
    seen = {}  # id -> (triple, key, t); holding the triple keeps its id from being reused
    for view, t, got, key in calls:
        if view == "stiffness":
            _, first_key, first_t = seen.setdefault(id(got), (got, key, t))
            assert (first_key, first_t) == (key, t), (got, key, t)


def check_bounded(cfg, calls) -> None:
    """Every distinct (view, t, values, key) call is within the exact per-piece formulas'
    bounds at its own time and root."""
    for view, t, got, q0 in {(v, t, entries(g) if v == "stiffness" else g, k[1])
                             for v, t, g, k in calls}:
        check_ion_pair_view(cfg, view, t, float.fromhex(q0), got)


signed_zero_pool = st.lists(st.sampled_from((0.0, -0.0)) | times, min_size=1, max_size=4)


@pytest.mark.parametrize("kind", ["transport", "separation", "phase-gate"])
@PROPERTY
@given(data=st.data())
def test_the_ion_pair_keeps_a_value_only_for_its_own_time_and_root(kind, data):
    # The ion pair keeps its last triple and its last q0dot with the distance
    # equation (one per record time) and the root they were built on.  Over a
    # walk of the four views, times repeating and 0.0 next to -0.0 (one record),
    # a call gets the kept triple back exactly when its own solve's equation
    # and root bits are the triple's, forms q0dot exactly when they are not
    # the kept q0dot's, and every value is within the exact formulas' bounds at
    # the call's own root.
    cfg = data.draw(preset_configs(kind), label="config")
    (sys, log), pool = logged_build(cfg), data.draw(signed_zero_pool, label="times")
    walk = data.draw(st.lists(st.tuples(st.sampled_from(ION_PAIR_VIEWS), st.sampled_from(pool)),
                              min_size=1, max_size=16), label="walk")
    calls, triple, triple_key, rate_key = [], None, None, None
    for view, t in walk:
        got, key, rates = logged_call(sys, log, view, t)
        calls.append((view, t, got, key))
        if view == "stiffness":
            assert (got is triple) == (key == triple_key)
            triple, triple_key = got, key
        elif view in ("stiffness_rate", "equilibrium_velocity"):
            assert rates == (key != rate_key)
            rate_key = key
        else:
            assert rates == 0
    check_kept_triples(calls)
    check_bounded(cfg, calls)


@pytest.mark.parametrize("kind", ["transport", "separation", "phase-gate"])
@settings(PROPERTY, max_examples=5, phases=(Phase.generate,))
@given(data=st.data())
def test_the_ion_pair_keeps_a_value_only_for_its_own_time_and_root_on_any_thread(kind, data):
    # Two threads walk the views of one system, each solving from whichever root
    # came last and reading whichever triple and q0dot were kept last; each
    # thread logs its own roots.  A triple object still goes back only to calls
    # of one equation and root, and every value is within the exact formulas'
    # bounds at its own call's root.  A race does not replay, so the first
    # failing example is reported as drawn.
    cfg = data.draw(preset_configs(kind), label="config")
    (sys, log), pool = logged_build(cfg), data.draw(signed_zero_pool, label="times")
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    lists = [[(rng.choice(ION_PAIR_VIEWS), rng.choice(pool)) for _ in range(4000)]
             for _ in range(2)]
    calls = []

    def run(walk):
        for view, t in walk:
            calls.append((view, t, *logged_call(sys, log, view, t)[:2]))

    run_on_threads(run, lists)
    assert len(calls) == 8000
    check_kept_triples(calls)
    check_bounded(cfg, calls)


def entries(triple) -> tuple:
    return (triple.k, triple.k1, triple.k2)


VIEWS = (
    "stiffness", "stiffness_rate", "equilibrium", "equilibrium_velocity", "theta_dot_override")


def view_values(sys, view, t) -> tuple:
    """The values of one system view at t as a tuple; () for a view the system lacks."""
    fn = getattr(sys, view)
    if fn is None:
        return ()
    got = fn(t)
    return entries(got) if view == "stiffness" else got if isinstance(got, tuple) else (got,)


def time_pool(data) -> list:
    """A few times in [0, 1], perhaps -0.0 next to 0.0."""
    return data.draw(st.lists(st.just(-0.0) | times, min_size=1, max_size=4), label="times")


def fresh_values(cfg):
    """``values(view, t)``: the view of a fresh system evaluated once at t."""
    return lambda view, t: view_values(build_preset(cfg), view, t)


def check_calls(sys, calls, expected) -> None:
    """Each (view, t, numpy first) call's values have the bits of ``expected(view,
    t)``, and a float time gets Python floats back; a numpy-first call asks the
    numpy time, then the same float."""
    for view, t, numpy_first in calls:
        for s in (np.float64(t), t) if numpy_first else (t,):
            got = view_values(sys, view, s)
            assert hexes(got) == hexes(expected(view, s)), (view, s)
            if type(s) is float:
                assert all(type(x) is float for x in got), (view, s, got)


@PROPERTY
@given(data=st.data())
def test_rotation_views_do_not_depend_on_evaluation_order(data):
    # The stiffness and theta_dot keep their value at every float time asked
    # (presets._per_time).  Over a shuffled call list whose times repeat, with
    # numpy times and -0.0, no earlier call may change a value: not its bits,
    # not its type.
    cfg = data.draw(table_rotation_configs(), label="config")
    call = st.tuples(st.sampled_from(VIEWS), st.sampled_from(time_pool(data)),
                     st.booleans())
    calls = data.draw(st.lists(call, min_size=24, max_size=24), label="calls")
    check_calls(build_preset(cfg), calls, fresh_values(cfg))


def test_a_view_kept_per_time_tells_minus_zero_from_zero():
    # -0.0 == 0.0, yet phi = -0.0 + t has the sign of t there and so has
    # k = 1.5 sin(2 phi), so neither time is kept.
    cfg = RotationConfig(m=1.0, omega1=1.0, omega2=2.0, phi=Polynomial((-0.0, 1.0)))
    sys = build_preset(cfg)
    check_calls(sys, [("stiffness", t, False) for t in (0.0, -0.0, 0.0)], fresh_values(cfg))
    assert math.copysign(1.0, sys.stiffness(-0.0).k) == -1.0


@settings(PROPERTY, max_examples=5, phases=(Phase.generate,))
@given(data=st.data())
def test_rotation_views_do_not_depend_on_the_thread(data):
    # Two threads share one system and evaluate its views over their own call
    # lists from one pool of times at once, switching as often as the
    # interpreter allows; the fresh values are computed beforehand.  A race
    # does not replay, so the first failing example is reported as drawn.
    cfg = data.draw(table_rotation_configs(), label="config")
    pool = time_pool(data)
    fresh = fresh_values(cfg)
    table = {(view, cast, float(t).hex()): fresh(view, cast(t))
             for view in VIEWS for t in pool for cast in (float, np.float64)}
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    lists = [[(rng.choice(VIEWS), rng.choice(pool), rng.random() < 0.5)
              for _ in range(4000)] for _ in range(2)]
    sys = build_preset(cfg)
    run_on_threads(
        lambda calls: check_calls(sys, calls, lambda view, s: table[view, type(s), float(s).hex()]),
        lists)


@st.composite
def stiffness_cases(draw, isotropic):
    """(K, masses) with unequal masses; an isotropic K (k = 0, k1/m1 = k2/m2)
    is diagonal in any frame, so theta falls back to its branch reference."""
    m1 = draw(st.floats(0.2, 5.0))
    masses = MassPair(m1, m1 * draw(st.floats(1.1, 3.0)) ** draw(st.sampled_from([-1.0, 1.0])))
    entries = st.floats(-3.0, 3.0)
    if isotropic:
        k1 = draw(entries)
        return StiffnessTriple(0.0, k1, k1 * masses.m2 / masses.m1), masses
    return StiffnessTriple(draw(entries), draw(entries), draw(entries)), masses


@pytest.mark.parametrize(
    "source", ["random", "isotropic", "transport", "separation", "phase-gate"])
@PROPERTY
@given(data=st.data())
def test_mode_frame_gives_the_bits_of_theta_at_then_rotated_frequencies(source, data):
    if source in ("random", "isotropic"):
        K, masses = data.draw(stiffness_cases(source == "isotropic"), label="case")
    else:
        sys = data.draw(preset_systems(source), label="system")
        K, masses = sys.stiffness(data.draw(times, label="t")), sys.masses
    branch = data.draw(st.none() | st.floats(-7.0, 7.0), label="branch")
    got = _frame(K, masses, branch)
    check_frame(got, K, masses, branch)
    assert hexes([theta_at(K, masses, branch)]) == hexes(got[:1])
    assert hexes(_frame(K, masses, theta=got[0])[1:]) == hexes(got[1:])
    assert hexes(eigenfrequencies(K, masses, got[0])) == hexes(got[3:])


@pytest.mark.parametrize("kind", ["crossing", "separation", "phase-gate"])
@PROPERTY
@given(data=st.data())
def test_mode_frame_walk_threads_the_chain(kind, data):
    # _mode_frames makes one frame call per sample; each sample's frame is
    # _frame's on the branch of the sample before, and the exact frame there.
    if kind == "crossing":
        sys = data.draw(crossing_systems(), label="system")[0]
    else:
        sys = data.draw(preset_systems(kind), label="system")
    seen = []

    def stiffness(t):
        seen.append(sys.stiffness(t))
        return seen[-1]

    frame = _mode_frames(replace(sys, stiffness=stiffness))
    branch = None
    for t in np.linspace(0.0, 1.0, 33).tolist():
        got = frame(t)
        assert hexes(got) == hexes(_frame(seen[-1], sys.masses, branch, t))
        check_frame(got, seen[-1], sys.masses, branch)
        branch = got[0]


@pytest.mark.parametrize("kind", ["rotation", "transport", "separation", "phase-gate"])
@PROPERTY
@given(data=st.data())
def test_mode_frame_walk_over_repeated_times_has_the_bits_of_the_chain(kind, data):
    # RK4 asks each stage time twice.  Rotation keeps its triple per float time
    # (never t = 0), the ion pair per time and root, and both hand back the same
    # triple object there; the walk reuses that triple's frame.  So a call makes
    # one _frame exactly when its twin's triple is not the object of the call
    # before, and each frame has the bits of _frame chained call by call on a
    # twin build.
    configs = table_rotation_configs() if kind == "rotation" else preset_configs(kind)
    cfg = data.draw(configs, label="config")
    sys, twin = build_preset(cfg), build_preset(cfg)
    pool = data.draw(st.lists(times, min_size=1, max_size=4), label="times")
    walk = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12), label="walk")
    built, fresh, last = [], 0, None

    def counted_frame(*args):
        built.append(args)
        return _frame(*args)

    frame, branch = _mode_frames(sys), None
    with mock.patch("dnmodes.modes._frame", counted_frame):
        for t in walk:
            got = frame(t)
            fresh += (K := twin.stiffness(t)) is not last
            expected, last = _frame(K, twin.masses, branch, t), K
            branch = expected[0]
            assert hexes(got) == hexes(expected)
    assert len(built) == fresh
