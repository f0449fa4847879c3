"""Property tests over random ``custom`` systems.

Each system has polynomial stiffness and equilibrium schedules on [0, 1].
The coupling k stays away from zero, so the mode angle is never degenerate
and theta_dot stays bounded; k1 and k2 are free, so the angle still sweeps
through the default branch edges at +-pi/4.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from dnmodes.modes import (
    decompose_at,
    drive_at,
    drive_rate_at,
    from_mode_frame,
    theta_at,
    theta_dot_at,
    to_mode_frame,
)
from dnmodes.presets import CustomConfig, build_custom
from dnmodes.quadratic import PhasePoint
from dnmodes.schedules import Polynomial

from oracles import grad4

PROPERTY = settings(max_examples=25, derandomize=True, database=None, deadline=None)

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
    assert np.allclose(back.state(), x.state(), rtol=0, atol=1e-12)
    X = PhasePoint(t=t, q=s[:2], p=s[2:], frame="mode")
    again = to_mode_frame(dec, from_mode_frame(dec, X, sys), sys)
    assert np.allclose(again.state(), X.state(), rtol=0, atol=1e-12)


@PROPERTY
@given(systems(), times)
def test_modal_matrix_is_mass_orthonormal(sys, t):
    A = decompose_at(sys, t).A
    assert np.allclose(A @ sys.masses.inverse_matrix() @ A.T, np.eye(2), rtol=0, atol=1e-13)


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
    assert f == sys.force_at(PhasePoint(t=t, q=q, p=(0.0, 0.0)))

    def potential(x):
        return sys.hamiltonian_value(PhasePoint(t=t, q=tuple(x), p=(0.0, 0.0)))

    assert np.allclose(f, -grad4(potential, q, h=1e-3), rtol=1e-9, atol=1e-9)


@PROPERTY
@given(systems(), st.floats(0.1, 0.9))
def test_drive_rate_matches_a_finite_difference_of_the_drive(sys, t):
    theta = decompose_at(sys, t).theta

    def p0(s):
        return drive_at(sys, s, theta_at(sys.stiffness(s), sys.masses, branch_ref=theta))

    h = 1e-3  # 4th-order stencil, independent of the library's step
    oracle = (8.0 * (p0(t + h) - p0(t - h)) - (p0(t + 2 * h) - p0(t - 2 * h))) / (12.0 * h)
    scale = 1.0 + float(np.abs(p0(t)).max())
    assert np.allclose(drive_rate_at(sys, t, theta), oracle, rtol=0, atol=1e-7 * scale)
