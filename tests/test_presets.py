import decimal
import math
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from dnmodes.dynamics import (
    IntegratorSpec,
    frame_equivalence_check,
    integrate_lab,
    integrate_modes,
)
from dnmodes.errors import (
    ConfigError,
    FormulaDiscrepancyWarning,
    PresetDomainError,
    SingularConfigurationError,
)
from dnmodes.modes import theta_at, theta_dot_at
from dnmodes.presets import (
    PhaseGateConfig,
    RotationConfig,
    SeparationConfig,
    SpringsConfig,
    TransportConfig,
    _ion_pair,
    audit_phase_gate_formulas,
    build_phase_gate,
    build_phase_gate_zeroth_order,
    build_rotation,
    build_separation,
    build_springs,
    build_transport,
    phase_gate_equilibria_closed_form,
    phase_gate_q0_published,
    preset_config_from_dict,
    separability_condition_separation,
    solve_phase_gate_distance,
    solve_separation_distance,
)
from dnmodes.quadratic import PhasePoint
from dnmodes.rootfind import MAX_NEWTON, N_SCAN, newton_refine, positive_roots
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
    # k0 = 1e300 puts the cubic's root near 1.26e-100, far below a q scan's
    # grid (1e-11); solved in its own scale it is within 4 ulp of the cube
    # root taken in decimal (the float ** (1.0 / 3.0) is 63 ulp off, because
    # its exponent is rounded).
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        exact = (decimal.Decimal(2) / decimal.Decimal(1e300)) ** (decimal.Decimal(1) / 3)
    expected = float(exact)
    q0 = solve_phase_gate_distance(0.0, 0.0, 1e300, 1.0)
    assert abs(q0 - expected) <= 4 * math.ulp(expected)


def scan_point(i, q_max):
    """Point i of ``positive_roots``' evenly spaced grid over [eps, q_max]."""
    eps = 1e-12 * max(1.0, q_max)
    return eps + (q_max - eps) * i / N_SCAN


@pytest.mark.parametrize("root", [scan_point(100, 3.0), 3.0])  # an inner point; q_max
def test_a_root_exactly_on_a_scan_point_is_found_once(root):
    # f is exactly 0 there, so neither neighbouring cell has a sign change.
    assert scan_point(N_SCAN, 3.0) == 3.0
    assert positive_roots(lambda q: q - root, lambda q: 1.0, 3.0) == [root]


def counted(f):
    """f and a list whose length counts its calls."""
    calls = []
    return (lambda x: calls.append(x) or f(x)), calls


def test_newton_on_a_triple_root_bisects_onto_it():
    # Newton gains only a factor 2/3 a step on (x - 1)^3, so after MAX_NEWTON
    # steps from 2.0 it is still 1.6e-9 off and bisects the bracket to the end;
    # f is exactly 0 at 1.0 and nowhere else near it.
    f, calls = counted(lambda x: (x - 1.0) ** 3)
    assert newton_refine(f, lambda x: 3.0 * (x - 1.0) ** 2, 2.0, 0.5, 2.5, f(0.5)) == 1.0
    assert len(calls) > MAX_NEWTON + 1  # f(a), one f per Newton step, then the bisection


def test_bisection_without_a_zero_ends_between_the_floats_around_the_root():
    # (x^2 - 2)^3 is 0 at no float, so the bisection ends where no float lies
    # strictly inside the bracket and returns its end.
    f, calls = counted(lambda x: (x * x - 2.0) ** 3)
    x = newton_refine(f, lambda x: 6.0 * x * (x * x - 2.0) ** 2, 2.0, 1.0, 2.0, f(1.0))
    below, above = math.nextafter(math.sqrt(2.0), 0.0), math.sqrt(2.0)
    assert Fraction(below) ** 2 < 2 < Fraction(above) ** 2  # sqrt(2) lies between them
    assert x in (below, above) and f(x) != 0.0
    assert len(calls) > MAX_NEWTON + 1


def test_a_vanishing_distance_slope_is_a_named_singular_point():
    # f = (q - 1)^2 has a double root, where f' = 2 (q - 1) vanishes, so
    # q0dot = -(df/dt) / f'(q0) has no value.
    cfg = SeparationConfig(alpha=1.0, beta=1.0)
    sys = _ion_pair(
        cfg, "double-root", (cfg.alpha, cfg.beta),
        equation=lambda t, u: (lambda guess: 1.0, lambda du, q: (1.0, 2.0 * (q - 1.0))),
        curvature=lambda u, q0: 1.0,
        curvature_rate=lambda u, du, q0, q0dot: 0.0, trap_potential=lambda q1, q2, t: 0.0,
    )
    assert sys.equilibrium(0.25) == (0.5, -0.5)
    for view in (sys.equilibrium_velocity, sys.stiffness_rate):
        with pytest.raises(SingularConfigurationError, match=r"vanishes at t=0\.25"):
            view(0.25)


@pytest.mark.parametrize("Cc", [1e-22, 1e-23])
def test_the_coulomb_spring_of_a_subnormal_cube_keeps_its_digits(Cc):
    # q0 is about 6e-108, so q0**3 = 2 Cc/k0 is subnormal and holds only a few
    # digits; dividing 2 Cc by q0 three times gives k0 back.
    sys = build_phase_gate(PhaseGateConfig(k0=1e300, F1=0.0, F2=0.0, Cc=Cc))
    assert abs(sys.stiffness(0.5).k - 1e300) <= 1e-14 * 1e300


def test_a_q0_whose_square_overflows_is_named():
    # k0 q0 is about -(F1 - F2), so the root is 1e307 and q0**2 is no float;
    # q0dot, about -(dF1/dt)/k0 = 1e309, is none either.  The spring 2 Cc/q0**3
    # underflows to 0.
    F1 = {"kind": "linear-ramp", "t0": 0.0, "v0": -1e7, "t1": 1.0, "v1": -1.001e9}
    sys = build_phase_gate(PhaseGateConfig(k0=1e-300, Cc=1.0, F1=F1, F2=0.0))
    assert sys.equilibrium(0.0)[0] == 1e307
    with pytest.raises(PresetDomainError, match=r"phase-gate: q0dot overflows at t=0.0"):
        sys.equilibrium_velocity(0.0)
    assert sys.stiffness(0.0).k == 0.0


def test_a_spring_whose_triple_is_near_the_float_limit_has_a_finite_rate():
    # k0 = 1e308 makes the Coulomb spring 2 Cc/q0**3 = 1e308 too, so -3 k is no
    # float, though -3 k q0dot/q0 is: q0dot is -0.0 here, which made it NaN.
    F1 = {"kind": "linear-ramp", "t0": 0.0, "v0": 0.0, "t1": 1.0, "v1": 1e-200}
    sys = build_phase_gate(PhaseGateConfig(k0=1e308, Cc=1.0, F1=F1, F2=0.0))
    assert sys.stiffness(0.5).k > 6e307
    assert all(map(math.isfinite, sys.stiffness_rate(0.5)))


@pytest.mark.parametrize("alpha0, t", [(5e307, 0.0), (1e308, 0.5)])
def test_a_q0dot_whose_equation_rate_overflows_is_named(alpha0, t):
    # 6 alpha = 3e308 in f'(q0)/q0^2 is no float, though q0dot = -q0 alphadot/(3 alpha)
    # is; formed in floats it came out 0.0 at t = 0 and NaN at t = 0.5.
    alpha = {"kind": "linear-ramp", "t0": 0.0, "v0": alpha0, "t1": 1.0, "v1": 0.0}
    sys = build_separation(SeparationConfig(alpha=alpha, beta=1.0, Cc=1.0))
    assert sys.equilibrium(t)[0] > 0.0
    with pytest.raises(PresetDomainError, match=rf"separation: q0dot overflows at t={t}"):
        sys.equilibrium_velocity(t)


@pytest.mark.parametrize("alpha", [5e307, 3e307])
def test_a_q0dot_with_no_drift_is_zero_where_its_slope_overflows(alpha):
    # A constant alpha has df/dt = 0, so q0dot = -0/f'(q0) is exactly 0 even
    # where f'(q0)/q0^2, with 6 alpha in it, is no float.
    sys = build_separation(SeparationConfig(alpha=alpha, beta=1.0, Cc=1.0))
    assert sys.equilibrium_velocity(0.0) == sys.equilibrium_velocity(0.5) == (0.0, 0.0)


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


def test_the_closed_forms_refuse_a_negative_radicand_whose_factor_underflows():
    # 27 Cc k0**2 - 2 d**3 < 0 here, and the radicand's other factor,
    # 3 Cc k0**14, underflows to 0: the sign must come from the first factor.
    for form in (phase_gate_equilibria_closed_form, phase_gate_q0_published,
                 audit_phase_gate_formulas):
        with pytest.raises(PresetDomainError, match="negative radicand"):
            form(1e-10, 0.0, 1e-25, 1.0)


def test_the_closed_forms_are_right_where_floats_overflow_or_cancel():
    # In floats the first case's radicand 3 Cc k0**14 (27 Cc k0**2 - 2 d**3)
    # overflowed, and the forms were refused; the second case's cancelled to
    # q1 - q2 = 4.174e6.  In decimal the per-ion forms give the root (the solve is
    # within 4 ulp of it), and the published line is flagged only where F2 != 0.
    for args, root, flagged in [((0.0, 2.55e24, 7.0e20, 2.6e19), 3642.8571428627406, True),
                                ((-3.35e-22, 0.0, 6.33e-28, 4.02e-8), 5209457.485941269, False)]:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            audit = audit_phase_gate_formulas(*args)
        assert abs(audit.q0_from_individual - root) <= 4 * math.ulp(root)
        assert audit.individual_consistent and audit.published_consistent != flagged
        assert len(caught) == flagged
        q1, q2 = phase_gate_equilibria_closed_form(*args)
        assert abs(q1 - q2 - root) <= 4 * math.ulp(root)


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
    assert np.allclose(sys.stiffness(0.0).matrix(), [[2.5, 1.5], [1.5, 2.5]])


def test_rotation_phi_zero_diagonal():
    sys = build_rotation(RotationConfig(m=2.0, omega1=3.0, omega2=1.0, phi=0.0))
    tr = sys.stiffness(0.0)
    assert tr.k == 0.0
    assert np.allclose(sys.stiffness(0.0).matrix(), np.diag([18.0, 2.0]))


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


def test_rotation_reads_phi_once_per_time_over_a_larmor_simulate():
    # The runs of `dnm simulate --larmor`: the lab run, the frame check (lab,
    # map, modes) and the Larmor run.  The triple and theta_dot are kept at
    # every float time asked, so phi and phidot are read once per distinct
    # nonzero time; t = 0 is computed fresh each time it is asked.
    reads = {"value": Counter(), "derivative": Counter()}

    def logged(name, fn):
        def read(t):
            reads[name][t] += 1
            return fn(t)
        return read

    phi = Counted(logged("value", lambda t: 0.3 + t * t), logged("derivative", lambda t: 2.0 * t))
    sys = build_rotation(RotationConfig(m=1.0, omega1=2.0, omega2=1.0, phi=phi))
    spec = IntegratorSpec(dt=0.0625, t0=0.0, t1=1.0)
    x0 = PhasePoint(t=0.0, q=(0.1, -0.2), p=(0.0, 0.3))
    integrate_lab(sys, x0, spec)
    report = frame_equivalence_check(sys, x0, spec)
    integrate_modes(sys, report.start, spec, apply_larmor=True)
    times = {t + h for t in spec.grid() for h in (0.0, 0.03125)} - {0.0, 1.03125}
    assert len(times) == 2 * spec.n_steps
    for counts in reads.values():
        assert {t: n for t, n in counts.items() if t} == dict.fromkeys(times, 1)


def test_rotation_keeps_only_nonzero_float_times_and_numpy_times_read_them():
    # A kept float time is read back by an equal numpy time, the same object with
    # no phi read.  A numpy time asked first is computed on every call and stored
    # under no key, so a later float call there reads phi once; 0.0 and -0.0
    # (equal, with phi of either sign) are never kept.
    phi = Counted(lambda t: 0.3 + t * t, lambda t: 2.0 * t)
    sys = build_rotation(RotationConfig(m=1.0, omega1=2.0, omega2=1.0, phi=phi))
    views = (sys.stiffness, sys.theta_dot_override)

    def reads_of(times) -> tuple:
        before = dict(phi.reads)
        values = [view(t) for t in times for view in views]
        return values, {name: n - before[name] for name, n in phi.reads.items()}

    kept, _ = reads_of([0.25])
    assert reads_of([np.float64(0.25)]) == (kept, {"value": 0, "derivative": 0})
    assert all(a is b for a, b in zip(kept, reads_of([np.float64(0.25)])[0]))
    assert reads_of([np.float64(0.5)] * 3)[1] == {"value": 3, "derivative": 3}
    assert reads_of([0.5] * 3)[1] == {"value": 1, "derivative": 1}
    assert reads_of([0.0, -0.0, 0.0])[1] == {"value": 3, "derivative": 3}


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
        sys.stiffness(0.0).matrix(), np.diag([1.0, 3.0])
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
        phase_gate = PhaseGateConfig(
            k0=rng.uniform(0.5, 3.0),
            F1=rng.uniform(-0.3, 0.3),
            F2=rng.uniform(-0.3, 0.3),
            Cc=rng.uniform(0.5, 2.0),
            masses=tuple(rng.uniform(0.5, 5.0, 2)),
        )
        yield build_phase_gate(phase_gate), 0.0
        # Its force-free potential, from the same draws, so the other systems keep theirs.
        yield build_phase_gate_zeroth_order(phase_gate), 0.0
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
        scale = max(1.0, np.abs(sys.stiffness(t).matrix()).max() * max(1.0, np.abs(q_eq).max()))
        assert np.abs(g).max() <= 1e-9 * scale, sys.label


def test_stiffness_triples_match_full_potential_hessian():
    rng = np.random.default_rng(53)
    for sys, t in _random_systems(rng):
        q_eq = np.array(sys.equilibrium(t))

        def U(q):
            return sys.full_potential(q[0], q[1], t)

        H = hessian4(U, q_eq, h=1e-3)
        K = sys.stiffness(t).matrix()
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
    # A removed field is unknown, whatever its value.
    "unknown_larmor_compensation": {**ROTATION, "larmor_compensation": False},
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
