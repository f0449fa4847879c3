import dataclasses
import math

import numpy as np
import pytest

from dnmodes.errors import ZeroFrequencyError
from dnmodes.modes import (
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
from dnmodes.presets import (
    CustomConfig,
    RotationConfig,
    SeparationConfig,
    SpringsConfig,
    TransportConfig,
    build_custom,
    build_rotation,
    build_separation,
    build_springs,
    build_transport,
)
from dnmodes.quadratic import MassPair, PhasePoint, StiffnessTriple
from dnmodes.schedules import ControlSchedule, LinearRamp, Smoothstep

from oracles import eig2_characteristic, theta_dot_fd


def test_mass_weighted_stiffness():
    K = StiffnessTriple(1.0, 1.0, 1.0)
    assert np.allclose(
        mass_weighted_stiffness(K, MassPair(1.0, 1.0)), K.matrix(), atol=0
    )
    Kt = mass_weighted_stiffness(K, MassPair(4.0, 1.0))
    assert np.allclose(Kt, [[0.5, -0.5], [-0.5, 2.0]], atol=1e-15)
    assert np.allclose(
        mass_weighted_stiffness(StiffnessTriple(0.0, 3.0, 5.0), MassPair(2.0, 1.0)),
        np.diag([1.5, 5.0]),
        atol=0,
    )


def test_theta_special_cases():
    # equal masses, k1 = k2, k > 0: quarter-turn regardless of k
    assert theta_at(StiffnessTriple(2.5, 1.0, 1.0), MassPair(1.0, 1.0)) == pytest.approx(
        math.pi / 4
    )
    # no coupling: already diagonal
    assert theta_at(StiffnessTriple(0.0, 1.0, 2.0), MassPair(1.0, 1.0)) == 0.0
    # generic case against the explicit atan2 of the 2x2 rotation condition
    th = theta_at(StiffnessTriple(1.0, 1.0, 1.0), MassPair(4.0, 1.0))
    assert th == pytest.approx(0.5 * math.atan2(4.0, 6.0), abs=1e-15)


def test_theta_branch_snapping():
    K = StiffnessTriple(2.5, 1.0, 1.0)
    M = MassPair(1.0, 1.0)
    base = theta_at(K, M)
    assert theta_at(K, M, branch_ref=base + math.pi / 2) == pytest.approx(
        base + math.pi / 2, abs=1e-15
    )
    assert theta_at(K, M, branch_ref=base - 3 * math.pi / 2) == pytest.approx(
        base - 3 * math.pi / 2, abs=1e-15
    )


def test_theta_degenerate_isotropic():
    K = StiffnessTriple(0.0, 2.0, 2.0)
    M = MassPair(1.0, 1.0)
    assert theta_at(K, M) == 0.0
    assert theta_at(K, M, branch_ref=0.3) == 0.3


def test_eigenfrequencies_against_characteristic_polynomial():
    K = StiffnessTriple(1.0, 1.0, 1.0)
    M = MassPair(1.0, 1.0)
    th = theta_at(K, M)
    o1, o2 = eigenfrequencies(K, M, th)
    assert (o1, o2) == pytest.approx((1.0, 3.0), abs=1e-14)
    rng = np.random.default_rng(5)
    for _ in range(200):
        K = StiffnessTriple(*rng.uniform(-5, 5, 3))
        M = MassPair(*rng.uniform(0.1, 10, 2))
        th = theta_at(K, M)
        o1, o2 = eigenfrequencies(K, M, th)
        lo, hi = eig2_characteristic(mass_weighted_stiffness(K, M))
        scale = max(abs(lo), abs(hi), 1.0)
        assert sorted([o1, o2]) == pytest.approx([lo, hi], abs=1e-10 * scale)


def test_eigenfrequencies_decoupled():
    K = StiffnessTriple(0.0, 3.0, 5.0)
    M = MassPair(2.0, 1.0)
    assert eigenfrequencies(K, M, 0.0) == pytest.approx((1.5, 5.0))


def test_modal_matrix_identities():
    A, _ = modal_matrix(0.0, MassPair(4.0, 9.0))
    assert np.array_equal(A, np.diag([2.0, 3.0]))
    A, _ = modal_matrix(math.pi / 4, MassPair(1.0, 1.0))
    r = math.sqrt(0.5)
    assert np.allclose(A, [[r, r], [-r, r]], atol=1e-15)
    rng = np.random.default_rng(9)
    for _ in range(200):
        M = MassPair(*rng.uniform(0.1, 10, 2))
        th = rng.uniform(-4, 4)
        A, A_inv = modal_matrix(th, M)
        assert np.abs(A @ A_inv - np.eye(2)).max() < 1e-12
        assert np.abs(A @ M.inverse_matrix() @ A.T - np.eye(2)).max() < 1e-12
        assert np.linalg.det(A) == pytest.approx(math.sqrt(M.m1 * M.m2), rel=1e-12)


def test_simultaneous_diagonalization():
    rng = np.random.default_rng(17)
    for _ in range(500):
        K = StiffnessTriple(*rng.uniform(-5, 5, 3))
        M = MassPair(*rng.uniform(0.1, 10, 2))
        dec_theta = theta_at(K, M)
        A, A_inv = modal_matrix(dec_theta, M)
        D = A_inv.T @ K.matrix() @ A_inv
        o1, o2 = eigenfrequencies(K, M, dec_theta)
        norm = max(np.abs(K.matrix()).max(), 1e-300)
        assert abs(D[0, 1]) < 1e-10 * norm
        assert D[0, 0] == pytest.approx(o1, abs=1e-10 * max(1.0, norm))
        assert D[1, 1] == pytest.approx(o2, abs=1e-10 * max(1.0, norm))


def test_trace_det_consistency():
    rng = np.random.default_rng(21)
    for _ in range(300):
        K = StiffnessTriple(*rng.uniform(-5, 5, 3))
        M = MassPair(*rng.uniform(0.1, 10, 2))
        Kt = mass_weighted_stiffness(K, M)
        o1, o2 = eigenfrequencies(K, M, theta_at(K, M))
        scale = max(1.0, np.abs(Kt).max())
        assert o1 + o2 == pytest.approx(np.trace(Kt), abs=1e-10 * scale)
        assert o1 * o2 == pytest.approx(np.linalg.det(Kt), abs=1e-10 * scale**2)


# -- theta_dot ---------------------------------------------------------------


def test_theta_dot_transport_constant():
    sys = build_transport(
        TransportConfig(k=Smoothstep(1.0, 3.0, 0.0, 5.0), Q0=0.0, masses=(2.0, 1.0))
    )
    chain_rule = dataclasses.replace(sys, theta_dot_override=None)
    for t in np.linspace(0.2, 4.8, 7):
        assert theta_dot_at(sys, t) == 0.0
        assert abs(theta_dot_at(chain_rule, t)) < 1e-12


def test_theta_dot_rotation_matches_phi_rate():
    phi = Smoothstep(0.0, math.pi / 2, 0.0, 4.0)
    sys = build_rotation(RotationConfig(m=1.0, omega1=2.0, omega2=1.0, phi=phi))
    chain_rule = dataclasses.replace(sys, theta_dot_override=None)
    for t in np.linspace(0.3, 3.7, 9):
        assert theta_dot_at(sys, t) == pytest.approx(phi.derivative(t), abs=1e-14)
        assert theta_dot_at(chain_rule, t) == pytest.approx(phi.derivative(t), rel=1e-9)


def test_theta_dot_constrained_separation_ramp():
    # beta = c * alpha^(5/3) freezes the mode angle for unequal masses
    alpha = Smoothstep(1.0, 2.0, 0.0, 4.0)

    class PoweredBeta(ControlSchedule):
        def value(self, t):
            return 0.3 * alpha.value(t) ** (5.0 / 3.0)

        def derivative(self, t):
            return 0.5 * alpha.value(t) ** (2.0 / 3.0) * alpha.derivative(t)

    sys = build_separation(
        SeparationConfig(alpha=alpha, beta=PoweredBeta(), masses=(3.0, 1.0))
    )
    for t in np.linspace(0.1, 3.9, 20):
        assert abs(theta_dot_at(sys, t)) < 1e-9


def test_theta_dot_analytic_vs_fd():
    phi = Smoothstep(0.0, 1.0, 0.0, 4.0)
    sys = build_rotation(RotationConfig(m=1.5, omega1=2.0, omega2=1.0, phi=phi))
    chain_rule = dataclasses.replace(sys, theta_dot_override=None)
    for t in np.linspace(0.5, 3.5, 7):
        assert theta_dot_at(chain_rule, t) == pytest.approx(theta_dot_fd(sys, t), abs=1e-6)


def test_a_dot_a_inv_structure():
    # finite-differencing the modal matrix reproduces theta_dot * [[0,1],[-1,0]]
    M = MassPair(2.0, 3.0)

    def theta_of(t):
        return 0.3 * math.sin(t)

    t = 0.7
    h = 1e-6
    Ap, _ = modal_matrix(theta_of(t + h), M)
    Am, _ = modal_matrix(theta_of(t - h), M)
    _, A_inv = modal_matrix(theta_of(t), M)
    G = (Ap - Am) / (2 * h) @ A_inv
    td = 0.3 * math.cos(t)
    assert np.allclose(G, td * np.array([[0.0, 1.0], [-1.0, 0.0]]), atol=1e-8)


# -- transforms --------------------------------------------------------------


def static_system(k, k1, k2, masses=(1.0, 1.0)):
    return build_custom(CustomConfig(k=k, k1=k1, k2=k2, masses=masses))


def test_mode_frame_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(50):
        sys = static_system(*rng.uniform(-3, 3, 3), masses=tuple(rng.uniform(0.2, 5, 2)))
        dec = decompose_at(sys, 0.0)
        x = PhasePoint(0.0, tuple(rng.uniform(-2, 2, 2)), tuple(rng.uniform(-2, 2, 2)))
        back = from_mode_frame(dec, to_mode_frame(dec, x, sys), sys)
        assert np.abs(back.state() - x.state()).max() < 1e-12


def test_to_mode_frame_quarter_turn():
    sys = static_system(1.0, 1.0, 1.0)
    dec = decompose_at(sys, 0.0)
    assert dec.theta == pytest.approx(math.pi / 4)
    X = to_mode_frame(dec, PhasePoint(0.0, (1.0, -1.0), (0.0, 0.0)), sys)
    # A (1,-1)^T with A = [[c, s], [-s, c]] / sqrt(2) scaling: (0, -sqrt(2))
    expect = dec.A @ np.array([1.0, -1.0])
    assert X.q == pytest.approx(tuple(expect), abs=1e-15)
    assert X.q == pytest.approx((0.0, -math.sqrt(2.0)), abs=1e-15)


def test_equilibrium_maps_to_origin():
    sys = build_transport(TransportConfig(k=2.0, Q0=0.5))
    dec = decompose_at(sys, 0.0)
    x = PhasePoint(0.0, sys.equilibrium(0.0), (0.0, 0.0))
    X = to_mode_frame(dec, x, sys)
    assert X.q == pytest.approx((0.0, 0.0), abs=1e-15)
    assert X.p == (0.0, 0.0)


def test_effective_hamiltonian_static_equals_lab():
    rng = np.random.default_rng(31)
    for _ in range(30):
        sys = static_system(*rng.uniform(-2, 2, 3), masses=tuple(rng.uniform(0.3, 4, 2)))
        dec = decompose_at(sys, 0.0)
        x = PhasePoint(0.0, tuple(rng.uniform(-1, 1, 2)), tuple(rng.uniform(-1, 1, 2)))
        X = to_mode_frame(dec, x, sys)
        assert effective_hamiltonian_value(dec, sys, X) == pytest.approx(
            sys.hamiltonian_value(x), rel=1e-12, abs=1e-12
        )


def test_effective_hamiltonian_zero_state():
    sys = static_system(1.0, 2.0, 3.0)
    dec = decompose_at(sys, 0.0)
    X = PhasePoint(0.0, (0.0, 0.0), (0.0, 0.0), frame="mode")
    assert effective_hamiltonian_value(dec, sys, X) == 0.0


def test_momentum_shift_static_identity():
    sys = static_system(1.0, 2.0, 3.0)
    dec = decompose_at(sys, 0.0)
    X = PhasePoint(0.0, (0.5, -0.2), (0.1, 0.4), frame="mode")
    shift = momentum_shift(dec, sys, X)
    assert shift.P0 == (0.0, 0.0)
    assert shift.point.p == X.p
    assert shift.centers == (0.0, 0.0)


def test_momentum_shift_constant_velocity_transport():
    v = 0.3
    sys = build_transport(
        TransportConfig(k=2.0, Q0=LinearRamp(0.0, 0.0, 1.0, v), masses=(1.0, 1.0))
    )
    dec = decompose_at(sys, 1.0)
    X = PhasePoint(1.0, (0.0, 0.0), (0.0, 0.0), frame="mode")
    shift = momentum_shift(dec, sys, X)
    expect = dec.A @ np.array([v, v])
    assert shift.P0 == pytest.approx(tuple(expect), abs=1e-12)
    assert shift.P0_dot == pytest.approx((0.0, 0.0), abs=1e-9)
    assert shift.centers == pytest.approx((0.0, 0.0), abs=1e-9)


def test_momentum_shift_zero_frequency_guard():
    sys = static_system(0.0, 0.0, 1.0)  # one free direction
    dec = decompose_at(sys, 0.0)
    X = PhasePoint(0.0, (0.1, 0.1), (0.0, 0.0), frame="mode")
    with pytest.raises(ZeroFrequencyError):
        momentum_shift(dec, sys, X)
    assert momentum_shift(dec, sys, X, with_centers=False).centers is None


# -- classification and geometry ---------------------------------------------


def test_classify_transport_separable():
    sys = build_transport(
        TransportConfig(k=Smoothstep(1.0, 2.0, 0.0, 5.0), Q0=0.0, masses=(2.0, 1.0))
    )
    rep = classify_separability(sys, (0.0, 5.0), n_samples=100)
    assert rep.separable
    assert rep.analytic_case == "k1=k2=k"
    assert rep.stability == "both-stable"


def test_classify_rotation_not_separable():
    sys = build_rotation(
        RotationConfig(m=1.0, omega1=2.0, omega2=1.0, phi=LinearRamp(0.0, 0.0, 1.0, 0.3))
    )
    rep = classify_separability(sys, (0.0, 5.0), n_samples=100)
    assert not rep.separable
    assert rep.max_abs_theta_dot == pytest.approx(0.3, abs=1e-12)


def test_classify_springs_uncoupled():
    sys = build_springs(
        SpringsConfig(
            k=0.0,
            k1=Smoothstep(1.0, 2.0, 0.0, 5.0),
            k2=Smoothstep(2.0, 1.0, 0.0, 5.0),
            d=3.0,
        )
    )
    rep = classify_separability(sys, (0.0, 5.0), n_samples=100)
    assert rep.separable
    assert rep.analytic_case == "k=0"


def test_classify_through_an_isotropic_instant():
    # With k1 = k2 and equal masses the mode angle stays at +-pi/4; k ramps
    # through 0, where the stiffness is isotropic and any angle diagonalizes.
    # 201 samples land on that instant, where theta_dot takes a central
    # difference of the angle; it must not see a quarter turn there.
    sys = build_custom(CustomConfig(k=LinearRamp(0.0, -5.0, 10.0, 5.0), k1=1.0, k2=1.0))
    assert theta_dot_at(sys, 5.0) == 0.0
    for n in (200, 201):
        rep = classify_separability(sys, (0.0, 10.0), n_samples=n)
        assert rep.max_abs_theta_dot == 0.0 and rep.separable
        assert rep.analytic_case == "k1=k2, m1=m2"


def test_theta_branch_continuity_over_rotation_ramp():
    phi = Smoothstep(0.0, math.pi / 2, 0.0, 10.0)
    sys = build_rotation(RotationConfig(m=1.0, omega1=2.0, omega2=1.0, phi=phi))
    rep = classify_separability(sys, (0.0, 10.0), n_samples=400)
    thetas = [th for _, th in rep.theta_samples]
    assert max(abs(a - b) for a, b in zip(thetas, thetas[1:])) < math.pi / 4


def test_ellipse_geometry():
    sys = build_transport(TransportConfig(k=2.0, Q0=1.0))
    dec = decompose_at(sys, 0.0)
    ell = ellipse_at(dec, sys, 0.0)
    assert ell.center == pytest.approx(sys.equilibrium(0.0))
    assert ell.orientation == dec.theta
    assert ell.radii[0] == pytest.approx(1.0 / math.sqrt(dec.omega1_sq))
    unstable = static_system(0.0, -1.0, 2.0)
    dec_u = decompose_at(unstable, 0.0)
    ell_u = ellipse_at(dec_u, unstable, 0.0)
    assert ell_u.radii[0] is None
    assert ell_u.radii[1] == pytest.approx(1.0 / math.sqrt(2.0))


def test_rotation_ellipse_orientation_is_phi():
    phi = Smoothstep(0.0, 1.2, 0.0, 4.0)
    sys = build_rotation(RotationConfig(m=1.0, omega1=2.0, omega2=1.0, phi=phi))
    branch = None
    for t in np.linspace(0.0, 4.0, 40):
        dec = decompose_at(sys, float(t), branch_ref=branch)
        branch = dec.theta
        assert dec.theta == pytest.approx(phi.value(float(t)), abs=1e-10)
