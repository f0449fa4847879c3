"""Property tests over random ``custom`` systems, every preset's analytic
rates and equilibrium roots.

Each system has polynomial stiffness and equilibrium schedules on [0, 1].
The coupling k stays away from zero, so the mode angle is never degenerate
and theta_dot stays bounded; k1 and k2 are free, so the angle still sweeps
through the default branch edges at +-pi/4.

The preset systems draw quadratic schedules inside each preset's valid
domain: a positive trap spring, one positive equilibrium root, and springs
whose determinant stays positive.  On them, the decomposition's theta_dot
(from the triple it already holds) is theta_dot_at's, the chain rule
through the stiffness rates agrees with each closed-form theta_dot, and
classify names the analytic case of a fresh evaluation.  A separation
system evaluated in shuffled time order should return the same bits (a
known defect today).

The root properties draw separation quintics and phase-gate cubics; both
have one simple positive root over the drawn ranges.  A solve warm-started
from its own root exits after one Newton step, and any other guess takes
the bracketed refine.  The quintic's bracket end is the bits of its max()
form for coefficients of any sign, zero and extreme.

The integrator properties run on random ``custom`` systems too: the
steppers see only Python floats, agree with the numpy-array RK4 oracle,
and integrate the lab and mode frames equivalently through a frequency
crossing.  The float lab-to-mode map has the bits of mode_state and agrees
with the decomposition's numpy matrices on custom, rotation and separation
systems, and a mode-frame RK stage's frequencies and drive are bit-identical
to eigenfrequencies and drive_at on crossing and rotation systems.  A mode
run, with or without Larmor compensation, has the bits of the array RK4
oracle over a right-hand side built from the helpers its stages inline, on
custom systems and on rotation with a table phi.

Three properties check bits (``float.hex``) against references in
``oracles``: the ion pair's views against per-piece formulas that read a
schedule wherever a piece uses it, on the root each view solved for; the
views, which share one record of the controls at the last time read, against
the per-view form that reads them afresh on each call, over call sequences
whose times repeat, interleave and come as numpy then float; and the
one-call mode frame against the chain theta -> rotated frequencies, for
random and isotropic stiffness, ion-pair stiffness and random branch
references, and along a threaded walk.
"""

import math
import random
from contextlib import contextmanager
from dataclasses import astuple, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    classify_separability,
    decompose_at,
    drive_at,
    drive_rate_at,
    eigenfrequencies,
    from_mode_frame,
    larmor_rate_at,
    modal_matrix,
    mode_state,
    rotated_frequencies,
    theta_at,
    theta_dot_at,
    to_mode_frame,
)
from dnmodes import presets
from dnmodes.errors import PresetDomainError
from dnmodes.presets import (
    CustomConfig,
    PhaseGateConfig,
    RotationConfig,
    SeparationConfig,
    SpringsConfig,
    TransportConfig,
    build_custom,
    build_preset,
    solve_phase_gate_distance,
    solve_separation_distance,
)
from dnmodes.quadratic import MassPair, PhasePoint, StiffnessTriple
from dnmodes.rootfind import newton_refine, solve_positive_root
from dnmodes.schedules import LinearRamp, Polynomial, SampledTable, Smoothstep

from oracles import (
    ION_PAIR_VIEWS, bisect, chain_frame, grad4, ion_pair_views, per_view_ion_pair,
    quintic_bracket_max, rk4_states,
)

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
    times, states = rk4_states(lab_rhs, spec.t0, x0.state(), spec.dt, spec.n_steps)
    lab = integrate_lab(sys, x0, spec)
    assert np.array_equal(lab.times, times)
    assert np.array_equal(lab.states, states)

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
    _, oracle = rk4_states(mode_rhs, spec.t0, X0.state(), spec.dt, spec.n_steps, on_step=sync)
    modes = integrate_modes(sys, X0, spec)
    assert np.abs(modes.states - oracle).max() <= 1e-13 * np.abs(oracle).max()


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


PRESET_KINDS = [*sorted(presets._PRESETS), "phase-gate-zeroth-order"]


@pytest.mark.parametrize("kind", ["crossing", "rotation"])
@PROPERTY
@given(data=st.data())
def test_stage_frame_gives_the_bits_of_eigenfrequencies_and_drive_at(kind, data):
    # A mode-frame RK stage takes Omega^2 and the drive P0 = A qdot0 from the
    # one cos/sin pair of rotated_frequencies: both equal their own homes.
    if kind == "crossing":
        sys = data.draw(crossing_systems(), label="system")[0]
    else:
        sys = data.draw(preset_systems(kind), label="system")
    t = data.draw(times, label="t")
    triple = sys.stiffness(t)
    branch = data.draw(st.none() | st.floats(-7.0, 7.0), label="branch")
    theta = theta_at(triple, sys.masses, branch)
    c, s, o1, o2 = rotated_frequencies(triple, sys.masses, theta)
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
    check_rate(sys.stiffness_rate, lambda s: astuple(sys.stiffness(s)), t)
    check_rate(sys.equilibrium_velocity, sys.equilibrium, t)


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
        cfg = replace(cfg, k=0.0)
    n = data.draw(st.integers(2, 40), label="samples")
    rep = classify_separability(build_preset(cfg), (0.0, 1.0), n_samples=n)
    fresh = build_preset(cfg)
    triples = [fresh.stiffness(t) for t in np.linspace(0.0, 1.0, n)]
    assert rep.analytic_case == _detect_analytic_case(fresh.masses, triples)
    if cases is not None:
        assert rep.analytic_case in cases


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
    """The (f, fprime, q_max) of every root solve inside the block."""
    solves = []
    solve = presets.solve_positive_root

    def recording_solve(f, fprime, q_max, guess=None):
        solves.append((f, fprime, q_max))
        return solve(f, fprime, q_max, guess=guess)

    with mock.patch.object(presets, "solve_positive_root", recording_solve):
        yield solves


def bracketed_refine(f, fprime, guess, q_max):
    """The refine from ``guess`` in the first local bracket (5 %, then 20 %
    half-width) that holds a sign change; None when neither does."""
    for half_width in (0.05, 0.2):
        a = max(1e-12 * max(1.0, q_max), guess - half_width * guess)
        b = min(q_max, guess + half_width * guess)
        if f(a) * f(b) < 0.0:
            return newton_refine(f, fprime, guess, a, b)
    return None


def check_warm_refine(solve, polynomial, params, nudged):
    # A time step moves the parameters a little; the refine warm-started from
    # the previous root must converge in a few Newton steps, not run to
    # maxiter, and agree with a cold solve and with bisection to 4 ulp.  A
    # guess that is not the root takes the bracketed refine, bit for bit and
    # with as many derivative evaluations.
    previous = solve(*params)
    with counted_derivative_calls() as calls:
        warm = solve(*nudged, guess=previous)
    assert len(calls) <= 6
    with recorded_solves() as solves:
        solve(*nudged)
    (f, fprime, q_max), = solves
    refine_calls = []
    expected = bracketed_refine(f, lambda q: refine_calls.append(q) or fprime(q), previous, q_max)
    assert (warm, len(calls)) == (expected, len(refine_calls))
    cold = solve(*nudged)
    assert abs(warm - cold) <= 4 * math.ulp(cold)
    oracle = bisect(lambda q: polynomial(q, *nudged), 0.5 * cold, 2.0 * cold)
    assert abs(warm - oracle) <= 4 * math.ulp(oracle)


@PROPERTY
@given(separation_params, st.tuples(nudge, nudge, nudge))
def test_warm_separation_refine_converges_in_a_few_steps(params, rel):
    def quintic(q, alpha, beta, Cc):
        return beta * q**5 + 2.0 * alpha * q**3 - 2.0 * Cc

    nudged = tuple(p * (1.0 + r) for p, r in zip(params, rel))
    check_warm_refine(solve_separation_distance, quintic, params, nudged)


@PROPERTY
@given(phase_gate_params, st.tuples(nudge, nudge, nudge))
def test_warm_phase_gate_refine_converges_in_a_few_steps(params, rel):
    def cubic(q, k0, d, Cc):
        return k0 * q**3 + d * q**2 - 2.0 * Cc

    def solve(k0, d, Cc, guess=None):
        return solve_phase_gate_distance(d, 0.0, k0, Cc, guess=guess)

    nudged = tuple(p * (1.0 + r) for p, r in zip(params, rel))
    check_warm_refine(solve, cubic, params, nudged)


def check_warm_exit(solve, params):
    # Solving again from the returned root evaluates f once, and f' once
    # unless f(root) == 0, and returns what the bracketed refine returns.  A
    # guess above q_max takes the full scan, which finds no root below the
    # root itself.
    with recorded_solves() as solves:
        root = solve(*params)
    (f, fprime, q_max), = solves
    f_calls, d_calls = [], []
    again = solve_positive_root(
        lambda q: f_calls.append(q) or f(q), lambda q: d_calls.append(q) or fprime(q),
        q_max, guess=root,
    )
    assert (len(f_calls), len(d_calls)) == (1, int(f(root) != 0.0))
    assert again == bracketed_refine(f, fprime, root, q_max)
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


any_float = st.one_of(st.just(0.0), st.floats(allow_nan=False, allow_infinity=False))


@settings(PROPERTY, max_examples=300)
@given(any_float, any_float, st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
def test_quintic_bracket_picks_the_bits_of_max(alpha, beta, Cc):
    # The bracket picks its bound with comparisons; they must return what the
    # max() calls return, for coefficients of either sign, zero and extreme.
    got = presets._quintic_bracket(alpha, beta, Cc)
    assert got.hex() == quintic_bracket_max(alpha, beta, Cc).hex()


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
    # The map forms mode_state inline: each row has the bits of mode_state on
    # the cos and sin of the walk's theta at that sample.  It threads the mode
    # angle as decompose_at does and forms the modal products in floats: it
    # equals to_mode_frame of the decomposition, and the decomposition's numpy
    # matrices, to rounding of the state scale.
    sys, twin = twin_systems(kind, data)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    times = np.linspace(0.0, 1.0, 65)
    states = rng.uniform(-2.0, 2.0, (len(times), 4))
    mapped = map_to_mode_frame(sys, Trajectory("lab", times, states, times[1])).states
    tol = 1e-14 * np.abs(mapped).max()
    frame = _mode_frames(twin)
    branch = None
    for i, t in enumerate(times.tolist()):
        _, c, s, _, _ = frame(t)
        assert hexes(mapped[i]) == hexes(mode_state(twin, t, c, s, *states[i].tolist()))
        dec = decompose_at(sys, t, branch_ref=branch)
        branch = dec.theta
        q, p = states[i, :2], states[i, 2:]
        ref = to_mode_frame(dec, PhasePoint(t, q, p), sys).state()
        oracle = np.concatenate([dec.A @ (q - sys.equilibrium(t)), dec.A_inv.T @ p])
        assert np.abs(mapped[i] - ref).max() <= tol
        assert np.abs(mapped[i] - oracle).max() <= tol


def hexes(values) -> list:
    return [float(x).hex() for x in values]


@st.composite
def table_rotations(draw):
    """Rotation with a cubic-table phi on nine knots over [0, 1]."""
    knots = tuple(i / 8.0 for i in range(9))
    values = draw(st.lists(st.floats(-3.0, 3.0), min_size=9, max_size=9))
    cfg = RotationConfig(
        m=draw(st.floats(0.2, 5.0)), omega1=draw(st.floats(0.5, 3.0)),
        omega2=draw(st.floats(0.5, 3.0)), phi=SampledTable(knots, tuple(values)),
    )
    return build_preset(cfg)


def mode_rhs_from_helpers(sys, apply_larmor):
    """The mode-frame right-hand side from the helpers the integrator's stage
    forms inline: the drive from _modal_product, omega_L from larmor_rate_at."""
    frame = _mode_frames(sys)
    r1, r2 = sys.masses.sqrt1, sys.masses.sqrt2

    def rhs(t, y):
        t = float(t)
        Q1, Q2, P1, P2 = y.tolist()
        _, c, s, o1, o2 = frame(t)
        D1, D2 = _modal_product(c, s, r1, r2, *sys.equilibrium_velocity(t))
        td = theta_dot_at(sys, t)
        dQ1, dQ2 = P1 - D1 + td * Q2, P2 - D2 - td * Q1
        dP1, dP2 = -o1 * Q1 + td * P2, -o2 * Q2 - td * P1
        if apply_larmor:
            wL = larmor_rate_at(sys, t, td)
            dQ1 -= wL * Q2
            dQ2 += wL * Q1
            dP1 -= wL * wL * Q1 + wL * P2
            dP2 -= wL * wL * Q2 - wL * P1
        return np.array([dQ1, dQ2, dP1, dP2])

    return rhs


@pytest.mark.parametrize("kind", ["custom", "rotation"])
@pytest.mark.parametrize("larmor", ["off", "theta_dot", "own rate"])
@PROPERTY
@given(data=st.data(), s=phase)
def test_mode_run_gives_the_bits_of_the_helper_oracle(kind, larmor, data, s):
    # "own rate": a system that supplies omega_L itself, different from theta_dot.
    if kind == "custom":
        sys = data.draw(systems(), label="system")
    else:
        sys = data.draw(table_rotations(), label="system")
    if larmor == "own rate":
        sys = replace(sys, larmor_rate=lambda t: 0.5 - 0.25 * t)
    spec = IntegratorSpec(dt=1.0 / 64.0, t0=0.0, t1=1.0)
    X0 = PhasePoint(0.0, s[:2], s[2:], frame="mode")
    apply_larmor = larmor != "off"
    modes = integrate_modes(sys, X0, spec, apply_larmor=apply_larmor)
    times, oracle = rk4_states(mode_rhs_from_helpers(sys, apply_larmor), spec.t0, X0.state(),
                               spec.dt, spec.n_steps)
    assert np.array_equal(modes.times, times)
    assert hexes(modes.states.ravel()) == hexes(oracle.ravel())


@contextmanager
def recorded_roots():
    """The root every root solve inside the block returns."""
    roots = []
    solve = presets.solve_positive_root

    def recording_solve(f, fprime, q_max, guess=None):
        roots.append(solve(f, fprime, q_max, guess=guess))
        return roots[-1]

    with mock.patch.object(presets, "solve_positive_root", recording_solve):
        yield roots


@pytest.mark.parametrize("kind", ["transport", "separation", "phase-gate"])
@PROPERTY
@given(data=st.data())
def test_ion_pair_views_give_the_bits_of_the_per_piece_formulas(kind, data):
    # Unequal masses, alpha of either sign.  The views are called in a drawn
    # order at drawn times, so their roots come from cold and warm solves;
    # on the root it solved for, each view returns the per-piece bits.
    cfg = data.draw(preset_configs(kind), label="config")
    sys = build_preset(cfg)
    calls = st.tuples(st.integers(0, 3), st.floats(0.0, 1.0))
    for view, t in data.draw(st.lists(calls, min_size=1, max_size=8), label="calls"):
        with recorded_roots() as roots:
            got = getattr(sys, ION_PAIR_VIEWS[view])(t)
        assert len(roots) == (kind != "transport")  # one root solve per view
        expected = ion_pair_views(cfg, t, roots[0] if roots else None)[view]
        assert hexes(astuple(got) if view == 0 else got) == hexes(expected)


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
    sys, oracle = build_preset(cfg), per_view_ion_pair(cfg)
    pool = data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3), label="times")
    call = st.tuples(st.sampled_from(ION_PAIR_VIEWS), st.sampled_from(pool), st.booleans())
    with recorded_roots() as roots:
        for view, t, numpy_first in data.draw(st.lists(call, min_size=1, max_size=12),
                                              label="calls"):
            for s in (np.float64(t), t) if numpy_first else (t,):
                got = getattr(sys, view)(s)
                assert hexes(astuple(got) if view == "stiffness" else got) == \
                    hexes(oracle(view, s))
    assert hexes(roots) == hexes(oracle.roots)


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
    expected = chain_frame(K, masses, branch)
    assert hexes(_frame(K, masses, branch)) == hexes(expected)
    assert hexes([theta_at(K, masses, branch)]) == hexes(expected[:1])
    assert hexes(rotated_frequencies(K, masses, expected[0])) == hexes(expected[1:])
    assert hexes(eigenfrequencies(K, masses, expected[0])) == hexes(expected[3:])


@pytest.mark.parametrize("kind", ["crossing", "separation", "phase-gate"])
@PROPERTY
@given(data=st.data())
def test_mode_frame_walk_threads_the_chain(kind, data):
    # _mode_frames makes one frame call per sample; each sample's frame is
    # the chain's on the branch of the sample before.
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
        expected = chain_frame(seen[-1], sys.masses, branch)
        branch = expected[0]
        assert hexes(got) == hexes(expected)
