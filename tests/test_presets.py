import decimal
import math
import warnings

import numpy as np
import pytest

from dnmodes.errors import (
    ConfigError,
    FormulaDiscrepancyWarning,
    PresetDomainError,
    SingularConfigurationError,
)
from dnmodes.modes import larmor_rate_at, theta_at, theta_dot_at
from dnmodes.presets import (
    PhaseGateConfig,
    RotationConfig,
    SeparationConfig,
    SpringsConfig,
    TransportConfig,
    audit_phase_gate_formulas,
    build_phase_gate,
    build_phase_gate_zeroth_order,
    build_rotation,
    build_separation,
    build_springs,
    build_transport,
    phase_gate_equilibria_closed_form,
    preset_config_from_dict,
    separability_condition_separation,
    solve_phase_gate_distance,
    solve_separation_distance,
)
from dnmodes.schedules import ControlSchedule, LinearRamp, Smoothstep

from oracles import bisect, eig2_characteristic, grad4, hessian4


# -- transport ---------------------------------------------------------------


def test_transport_equilibria():
    sys = build_transport(TransportConfig(k=2.0, Q0=0.0, Cc=1.0))
    assert sys.equilibrium(0.0) == pytest.approx((0.5, -0.5))
    tr = sys.stiffness(0.0)
    assert (tr.k, tr.k1, tr.k2) == (2.0, 2.0, 2.0)


def test_transport_rigid_translation():
    v = 0.7
    sys = build_transport(TransportConfig(k=3.0, Q0=LinearRamp(0.0, 0.0, 1.0, v)))
    assert sys.equilibrium_velocity_at(2.0) == pytest.approx((v, v), abs=1e-15)


def test_transport_constant_theta_any_masses():
    m1, m2 = 5.0, 2.0
    sys = build_transport(
        TransportConfig(k=Smoothstep(1.0, 4.0, 0.0, 3.0), Q0=0.0, masses=(m1, m2))
    )
    expect = 0.5 * math.atan2(math.sqrt(m1 * m2), m1 - m2)
    for t in np.linspace(0.0, 3.0, 15):
        assert theta_at(sys.stiffness(float(t)), sys.masses) == pytest.approx(
            expect, abs=1e-14
        )


def test_transport_requires_positive_k():
    sys = build_transport(TransportConfig(k=LinearRamp(0.0, 1.0, 1.0, -1.0), Q0=0.0))
    with pytest.raises(PresetDomainError):
        sys.equilibrium(1.0)


class Counted(ControlSchedule):
    """The schedule of the given value and rate functions, counting its reads."""

    def __init__(self, value, rate):
        self.fns, self.reads = {"value": value, "derivative": rate}, {"value": 0, "derivative": 0}

    def value(self, t):
        self.reads["value"] += 1
        return self.fns["value"](t)

    def derivative(self, t):
        self.reads["derivative"] += 1
        return self.fns["derivative"](t)


def test_transport_views_read_the_controls_once_per_time():
    # k = 2 Cc puts the ions at Q0 -+ 1/2 exactly, so at dyadic times the
    # equilibrium's centre is Q0(t) = t^2 exactly and its rate is 2t: a view
    # that took the controls of the other time fails.  The views share one
    # record of the last time read, so a rate view after a value view at the
    # same t reads each derivative once and no value again.
    k, Q0 = Counted(lambda t: 2.0, lambda t: 0.0), Counted(lambda t: t * t, lambda t: 2.0 * t)
    sys = build_transport(TransportConfig(k=k, Q0=Q0, Cc=1.0))
    for t, other in ((0.25, 0.75), (0.75, 0.25), (0.25, 0.5), (0.5, 0.5)):
        sys.stiffness(other)
        e1, e2 = sys.equilibrium(t)
        assert (0.5 * (e1 + e2), e1 - e2) == (t * t, 1.0)
        sys.stiffness_rate(other)
        v1, v2 = sys.equilibrium_velocity(t)
        assert (0.5 * (v1 + v2), v1 - v2) == (2.0 * t, 0.0)
    for schedule in (k, Q0):
        schedule.reads = {"value": 0, "derivative": 0}
    sys.stiffness(0.125)
    assert k.reads == Q0.reads == {"value": 1, "derivative": 0}
    sys.stiffness_rate(0.125)
    sys.equilibrium(0.125)
    sys.equilibrium_velocity(0.125)
    assert k.reads == Q0.reads == {"value": 1, "derivative": 1}


# -- separation --------------------------------------------------------------


def test_quintic_worked_cases():
    assert solve_separation_distance(1.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert solve_separation_distance(0.0, 1.0, 1.0) == pytest.approx(
        2.0 ** (1.0 / 5.0), abs=1e-12
    )
    oracle = bisect(lambda q: q**5 + 2 * q**3 - 2, 0.8, 0.9)
    assert oracle == pytest.approx(0.894, abs=5e-4)
    assert solve_separation_distance(1.0, 1.0, 1.0) == pytest.approx(oracle, abs=1e-12)


def test_quintic_against_bisection_random():
    rng = np.random.default_rng(23)
    for _ in range(100):
        a = rng.uniform(0.05, 3.0)
        b = rng.uniform(0.0, 3.0)
        Cc = rng.uniform(0.2, 2.0)

        def f(q):
            return b * q**5 + 2 * a * q**3 - 2 * Cc

        hi = 2.0 * (Cc / a) ** (1.0 / 3.0) + 2.0
        root = bisect(f, 1e-9, hi)
        assert solve_separation_distance(a, b, Cc) == pytest.approx(root, abs=1e-12)


def test_separation_no_positive_root():
    sys = build_separation(SeparationConfig(alpha=-1.0, beta=0.0))
    with pytest.raises(PresetDomainError):
        sys.equilibrium(0.0)


def test_separation_double_well_branch():
    # alpha < 0, beta > 0: confining double well still has an outer root
    q0 = solve_separation_distance(-1.0, 1.0, 1.0)
    assert q0 > math.sqrt(2.0)  # beyond the hump of the quartic
    assert 1.0 * q0**5 - 2.0 * q0**3 - 2.0 == pytest.approx(0.0, abs=1e-10)


def test_separation_implicit_velocity_matches_fd():
    alpha = Smoothstep(1.0, -0.5, 0.0, 4.0)
    beta = Smoothstep(0.2, 1.0, 0.0, 4.0)
    sys = build_separation(SeparationConfig(alpha=alpha, beta=beta))
    for t in [0.5, 1.5, 2.5, 3.5]:
        v = sys.equilibrium_velocity_at(t)
        h = 1e-6
        a = sys.equilibrium(t + h)
        b = sys.equilibrium(t - h)
        fd = ((a[0] - b[0]) / (2 * h), (a[1] - b[1]) / (2 * h))
        assert v == pytest.approx(fd, abs=1e-7)


def test_separability_condition_checker():
    alpha = Smoothstep(1.0, 2.0, 0.0, 4.0)

    class Linked(ControlSchedule):
        def value(self, t):
            return 0.4 * alpha.value(t) ** (5.0 / 3.0)

        def derivative(self, t):
            return (2.0 / 3.0) * alpha.value(t) ** (2.0 / 3.0) * alpha.derivative(t)

    ok = separability_condition_separation(alpha, Linked(), (0.0, 4.0), n_samples=60)
    assert ok.holds
    bad = separability_condition_separation(alpha, 0.4, (0.0, 4.0), n_samples=60)
    assert not bad.holds
    assert bad.max_rel_deviation > 1e-3


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_separability_condition_needs_two_samples(n):
    with pytest.raises(ConfigError, match="n_samples >= 2"):
        separability_condition_separation(1.0, 0.5, (0.0, 1.0), n_samples=n)


def test_equal_mass_separation_theta_quarter_turn():
    sys = build_separation(
        SeparationConfig(alpha=Smoothstep(1.0, 0.3, 0.0, 4.0), beta=0.5, masses=(2.0, 2.0))
    )
    for t in np.linspace(0.0, 4.0, 10):
        assert theta_at(sys.stiffness(float(t)), sys.masses) == pytest.approx(
            math.pi / 4, abs=1e-14
        )
        assert abs(theta_dot_at(sys, float(t))) < 1e-12


def test_transport_equals_separation_beta_zero():
    # identical systems when beta = 0 and k = 2 alpha
    alpha = Smoothstep(0.5, 1.5, 0.0, 3.0)

    class DoubledAlpha(ControlSchedule):
        def value(self, t):
            return 2.0 * alpha.value(t)

        def derivative(self, t):
            return 2.0 * alpha.derivative(t)

    masses = (2.0, 1.0)
    t_sys = build_transport(TransportConfig(k=DoubledAlpha(), Q0=0.0, masses=masses))
    s_sys = build_separation(SeparationConfig(alpha=alpha, beta=0.0, masses=masses))
    for t in np.linspace(0.0, 3.0, 9):
        t = float(t)
        assert np.abs(
            np.array(t_sys.equilibrium(t)) - np.array(s_sys.equilibrium(t))
        ).max() < 1e-12
        a = t_sys.stiffness(t)
        b = s_sys.stiffness(t)
        assert abs(a.k - b.k) < 1e-12 and abs(a.k1 - b.k1) < 1e-12


# -- phase gate ---------------------------------------------------------------


def test_phase_gate_force_free_distance():
    sys = build_phase_gate(PhaseGateConfig(k0=1.0, F1=0.0, F2=0.0, Cc=1.0))
    q1, q2 = sys.equilibrium(0.0)
    assert q1 - q2 == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-12)
    assert q1 == pytest.approx(2.0 ** (1.0 / 3.0) / 2.0, abs=1e-12)
    assert q1 == pytest.approx((1.0 / 4.0) ** (1.0 / 3.0), abs=1e-12)


def test_phase_gate_common_force_shifts_center():
    F = 0.4
    k0 = 2.0
    sys = build_phase_gate(PhaseGateConfig(k0=k0, F1=F, F2=F, Cc=1.0))
    q1, q2 = sys.equilibrium(0.0)
    assert q1 - q2 == pytest.approx((2.0 / k0) ** (1.0 / 3.0), abs=1e-12)
    assert q1 + q2 == pytest.approx(-2.0 * F / k0, abs=1e-12)


def test_phase_gate_cubic_vs_bisection():
    F1, F2, k0, Cc = 0.3, -0.1, 1.5, 0.8
    d = F1 - F2

    def f(q):
        return k0 * q**3 + d * q**2 - 2 * Cc

    oracle = bisect(f, 1e-9, 5.0)
    assert solve_phase_gate_distance(F1, F2, k0, Cc) == pytest.approx(oracle, abs=1e-12)


def test_a_root_below_the_scan_grid_converges():
    # k0 = 1e300 puts the cubic's root near 1.26e-100, far below the first
    # point of the scan grid (1e-11): the sign change between the smallest
    # normal float and that point is narrowed, then refined to 4 ulp of the
    # cube root taken in decimal (the float ** (1.0 / 3.0) is 63 ulp off,
    # because its exponent is rounded).
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        exact = (decimal.Decimal(2) / decimal.Decimal(1e300)) ** (decimal.Decimal(1) / 3)
    expected = float(exact)
    q0 = solve_phase_gate_distance(0.0, 0.0, 1e300, 1.0)
    assert abs(q0 - expected) <= 4 * math.ulp(expected)


def test_phase_gate_individual_closed_forms_agree():
    rng = np.random.default_rng(29)
    for _ in range(100):
        k0 = rng.uniform(0.5, 3.0)
        Cc = rng.uniform(0.5, 2.0)
        F1 = rng.uniform(-0.3, 0.3)
        F2 = rng.uniform(-0.3, 0.3)
        q0 = solve_phase_gate_distance(F1, F2, k0, Cc)
        q1c, q2c = phase_gate_equilibria_closed_form(F1, F2, k0, Cc)
        assert q1c - q2c == pytest.approx(q0, rel=1e-8)
        # center from the force sum rule
        assert q1c + q2c == pytest.approx(-(F1 + F2) / k0, abs=1e-8)


def test_phase_gate_published_q0_discrepancy_warning():
    # the combined q0 line disagrees with its own per-ion forms unless F2 = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        audit = audit_phase_gate_formulas(0.25, 0.0, 1.0, 1.0)
        assert audit.published_consistent
    with pytest.warns(FormulaDiscrepancyWarning):
        audit = audit_phase_gate_formulas(0.3, -0.1, 1.0, 1.0)
    assert not audit.published_consistent
    assert audit.individual_consistent


def test_phase_gate_zeroth_order():
    cfg = PhaseGateConfig(
        k0=1.0,
        F1=Smoothstep(0.0, 0.3, 0.0, 2.0),
        F2=Smoothstep(0.0, -0.2, 0.0, 2.0),
        Cc=1.0,
        masses=(3.0, 1.0),
        zeroth_order=True,
    )
    sys = build_phase_gate_zeroth_order(cfg)
    tr = sys.stiffness(1.0)
    assert tr.k == tr.k1 == tr.k2 == 1.0
    for t in [0.0, 1.0, 2.0]:
        assert theta_dot_at(sys, t) == 0.0
    assert theta_at(sys.stiffness(0.0), sys.masses) == pytest.approx(
        0.5 * math.atan2(math.sqrt(3.0), 2.0)
    )
    # linear force term re-expressed through the static inverse modal matrix
    f1, f2 = sys.extras["mode_force"](2.0)
    from dnmodes.modes import modal_matrix

    _, A_inv = modal_matrix(sys.extras["theta"], sys.masses)
    expect = np.array([0.3, -0.2]) @ A_inv
    assert (f1, f2) == pytest.approx(tuple(expect), abs=1e-14)


def test_phase_gate_zeroth_order_zero_force_matches_full():
    cfg0 = PhaseGateConfig(k0=1.3, F1=0.0, F2=0.0, Cc=0.9, masses=(2.0, 1.0))
    full = build_phase_gate(cfg0)
    zeroth = build_phase_gate_zeroth_order(cfg0)
    assert np.abs(
        np.array(full.equilibrium(0.0)) - np.array(zeroth.equilibrium(0.0))
    ).max() < 1e-12
    a, b = full.stiffness(0.0), zeroth.stiffness(0.0)
    assert (a.k, a.k1, a.k2) == pytest.approx((b.k, b.k1, b.k2), rel=1e-12)


def test_phase_gate_matches_static_transport():
    k0 = 1.7
    pg = build_phase_gate(PhaseGateConfig(k0=k0, F1=0.0, F2=0.0, Cc=1.0, masses=(2.0, 1.0)))
    tp = build_transport(TransportConfig(k=k0, Q0=0.0, Cc=1.0, masses=(2.0, 1.0)))
    assert np.abs(
        np.array(pg.equilibrium(0.0)) - np.array(tp.equilibrium(0.0))
    ).max() < 1e-12
    a, b = pg.stiffness(0.0), tp.stiffness(0.0)
    assert (a.k, a.k1, a.k2) == pytest.approx((b.k, b.k1, b.k2), rel=1e-12)


# -- rotation ------------------------------------------------------------------


def test_rotation_stiffness_values():
    sys = build_rotation(RotationConfig(m=1.0, omega1=2.0, omega2=1.0, phi=math.pi / 4))
    tr = sys.stiffness(0.0)
    assert tr.k == pytest.approx(-1.5)
    assert tr.k1 == pytest.approx(4.0)
    assert tr.k2 == pytest.approx(4.0)
    assert np.allclose(sys.stiffness_matrix_at(0.0), [[2.5, 1.5], [1.5, 2.5]])


def test_rotation_phi_zero_diagonal():
    sys = build_rotation(RotationConfig(m=2.0, omega1=3.0, omega2=1.0, phi=0.0))
    tr = sys.stiffness(0.0)
    assert tr.k == 0.0
    assert np.allclose(sys.stiffness_matrix_at(0.0), np.diag([18.0, 2.0]))


def test_rotation_isospectral():
    rng = np.random.default_rng(41)
    for _ in range(50):
        m = rng.uniform(0.5, 3.0)
        w1 = rng.uniform(0.5, 3.0)
        w2 = rng.uniform(0.5, 3.0)
        phi = rng.uniform(0.0, math.pi)
        sys = build_rotation(RotationConfig(m=m, omega1=w1, omega2=w2, phi=phi))
        from dnmodes.modes import mass_weighted_stiffness

        lo, hi = eig2_characteristic(mass_weighted_stiffness(sys.stiffness(0.0), sys.masses))
        assert sorted([lo, hi]) == pytest.approx(sorted([w1**2, w2**2]), abs=1e-12)


def test_rotation_isotropic_flag():
    sys = build_rotation(RotationConfig(m=1.0, omega1=2.0, omega2=2.0, phi=0.3))
    assert sys.extras.get("trivially_decoupled") is True


def test_rotation_compensated_frequencies():
    phi = LinearRamp(0.0, 0.0, 1.0, 0.4)
    sys = build_rotation(
        RotationConfig(m=1.0, omega1=2.0, omega2=1.0, phi=phi, larmor_compensation=True)
    )
    f1, f2 = sys.extras["compensated_frequencies"](1.0)
    assert f1 == pytest.approx(math.sqrt(4.0 + 0.16))
    assert sys.larmor_rate is None  # omega_L is theta_dot = phidot
    assert larmor_rate_at(sys, 0.5) == pytest.approx(0.4)


# -- springs -------------------------------------------------------------------


def test_springs_worked_case():
    sys = build_springs(SpringsConfig(k=1.0, k1=1.0, k2=1.0, d=3.0))
    assert sys.equilibrium(0.0) == pytest.approx((1.0, 2.0))
    tr = sys.stiffness(0.0)
    assert (tr.k, tr.k1, tr.k2) == (1.0, 1.0, 1.0)


def test_springs_symmetric_configuration():
    rng = np.random.default_rng(43)
    for _ in range(20):
        k = rng.uniform(0.2, 3.0)
        k12 = rng.uniform(0.2, 3.0)
        d = rng.uniform(1.0, 5.0)
        sys = build_springs(SpringsConfig(k=k, k1=k12, k2=k12, d=d))
        q1, q2 = sys.equilibrium(0.0)
        assert q1 + q2 == pytest.approx(d, rel=1e-12)


def test_springs_k_zero_uncoupled():
    sys = build_springs(
        SpringsConfig(k=0.0, k1=Smoothstep(1.0, 2.0, 0.0, 4.0), k2=3.0, d=2.0)
    )
    assert sys.equilibrium(1.0) == pytest.approx((0.0, 2.0))
    assert np.allclose(
        sys.stiffness_matrix_at(0.0), np.diag([1.0, 3.0])
    )
    for t in np.linspace(0.1, 3.9, 9):
        assert theta_dot_at(sys, float(t)) == 0.0


def test_springs_singular_configuration():
    sys = build_springs(SpringsConfig(k=1.0, k1=LinearRamp(0.0, 1.0, 1.0, 0.0), k2=0.0, d=2.0))
    with pytest.raises(SingularConfigurationError):
        sys.equilibrium(1.0)


def test_springs_velocity_matches_fd():
    sys = build_springs(
        SpringsConfig(
            k=Smoothstep(0.5, 2.0, 0.0, 3.0),
            k1=Smoothstep(1.0, 0.7, 0.0, 3.0),
            k2=1.3,
            d=4.0,
        )
    )
    for t in [0.5, 1.5, 2.5]:
        v = sys.equilibrium_velocity_at(t)
        h = 1e-6
        a = sys.equilibrium(t + h)
        b = sys.equilibrium(t - h)
        fd = ((a[0] - b[0]) / (2 * h), (a[1] - b[1]) / (2 * h))
        assert v == pytest.approx(fd, abs=1e-7)


# -- master oracle: equilibria zero the full gradient, triples match Hessians --


def _random_systems(rng, n=12):
    for _ in range(n):
        yield build_transport(
            TransportConfig(
                k=rng.uniform(0.5, 4.0),
                Q0=rng.uniform(-1.0, 1.0),
                Cc=rng.uniform(0.5, 2.0),
                masses=tuple(rng.uniform(0.5, 5.0, 2)),
            )
        ), 0.0
        yield build_separation(
            SeparationConfig(
                alpha=rng.uniform(0.2, 2.0),
                beta=rng.uniform(0.0, 2.0),
                Cc=rng.uniform(0.5, 2.0),
                masses=tuple(rng.uniform(0.5, 5.0, 2)),
            )
        ), 0.0
        yield build_phase_gate(
            PhaseGateConfig(
                k0=rng.uniform(0.5, 3.0),
                F1=rng.uniform(-0.3, 0.3),
                F2=rng.uniform(-0.3, 0.3),
                Cc=rng.uniform(0.5, 2.0),
                masses=tuple(rng.uniform(0.5, 5.0, 2)),
            )
        ), 0.0
        yield build_rotation(
            RotationConfig(
                m=rng.uniform(0.5, 3.0),
                omega1=rng.uniform(0.5, 3.0),
                omega2=rng.uniform(0.5, 3.0),
                phi=rng.uniform(0.0, math.pi),
            )
        ), 0.0
        yield build_springs(
            SpringsConfig(
                k=rng.uniform(0.3, 3.0),
                k1=rng.uniform(0.3, 3.0),
                k2=rng.uniform(0.3, 3.0),
                d=rng.uniform(1.0, 5.0),
                masses=tuple(rng.uniform(0.5, 5.0, 2)),
            )
        ), 0.0


def test_equilibria_zero_full_potential_gradient():
    rng = np.random.default_rng(47)
    for sys, t in _random_systems(rng):
        q_eq = np.array(sys.equilibrium(t))

        def U(q):
            return sys.full_potential(q[0], q[1], t)

        g = grad4(U, q_eq, h=1e-5)
        scale = max(1.0, np.abs(sys.stiffness_matrix_at(t)).max() * max(1.0, np.abs(q_eq).max()))
        assert np.abs(g).max() <= 1e-9 * scale, sys.label


def test_stiffness_triples_match_full_potential_hessian():
    rng = np.random.default_rng(53)
    for sys, t in _random_systems(rng):
        q_eq = np.array(sys.equilibrium(t))

        def U(q):
            return sys.full_potential(q[0], q[1], t)

        H = hessian4(U, q_eq, h=1e-3)
        K = sys.stiffness_matrix_at(t)
        scale = max(1.0, np.abs(K).max())
        assert np.abs(H - K).max() <= 1e-7 * scale, sys.label


# -- config fields are checked by their declared types -----------------------

TRANSPORT = {"type": "transport", "k": 2.0, "Q0": 0.0}
PHASE_GATE = {"type": "phase-gate", "k0": 1.0, "F1": 0.0, "F2": 0.0}
ROTATION = {"type": "rotation", "m": 1.0, "omega1": 2.0, "omega2": 1.0, "phi": 0.0}
RAMP = {"kind": "linear-ramp", "t0": 0.0, "v0": 0.0, "t1": 1.0, "v1": 1.0}

# Each of these was accepted, or failed with a TypeError, before the check.
BADLY_TYPED = {
    "numeric_string_mass": {**TRANSPORT, "masses": ["1", 2.0]},
    "bool_mass": {**TRANSPORT, "masses": [True, 2.0]},
    "mass_triple": {**TRANSPORT, "masses": [1.0, 2.0, 3.0]},
    "numeric_string_ramp": {**TRANSPORT, "k": {**RAMP, "v1": "1"}},
    "numeric_string_coeff": {**TRANSPORT, "k": {"kind": "polynomial", "coeffs": [1.0, "2"]}},
    "string_table_times": {
        **ROTATION,
        "phi": {"kind": "table", "times": ["0", "1"], "values": [0.0, 1.0]},
    },
    "bool_schedule": {**TRANSPORT, "k": True},
    "string_Cc": {**TRANSPORT, "Cc": "1"},
    "infinite_Cc": {**TRANSPORT, "Cc": float("inf")},
    "string_k0": {**PHASE_GATE, "k0": "x"},
    "int_zeroth_order": {**PHASE_GATE, "zeroth_order": 1},
    "string_larmor_compensation": {**ROTATION, "larmor_compensation": "yes"},
    "string_omega1": {**ROTATION, "omega1": "x"},
    "list_type": {**TRANSPORT, "type": ["x"]},
    "missing_field": {"type": "transport", "k": 2.0},
}


@pytest.mark.parametrize("case", sorted(BADLY_TYPED))
def test_badly_typed_preset_fields_are_config_errors(case):
    with pytest.raises(ConfigError):
        preset_config_from_dict(BADLY_TYPED[case])


def test_declared_types_coerce_numbers_and_keep_defaults():
    cfg = preset_config_from_dict({**TRANSPORT, "Cc": 2, "masses": [1, np.float64(3.0)]})
    assert type(cfg.Cc) is float and cfg.Cc == 2.0
    assert (cfg.masses.m1, cfg.masses.m2) == (1.0, 3.0)
    assert cfg.k.value(0.0) == 2.0
    gate = preset_config_from_dict(PHASE_GATE)
    assert gate.zeroth_order is False and gate.Cc == 1.0
