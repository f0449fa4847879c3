"""Scenario builders: stiffness triples plus equilibrium trajectories.

Five trapped-ion control scenarios and a two-mass spring system, each
returning a :class:`QuadraticSystem` whose closed-form equilibrium zeroes
the gradient of the full (untruncated) potential and whose stiffness triple
equals its Hessian there.  The Coulomb constant Cc is a dimensionless
caller-supplied number (natural units), default 1.

Transport, separation and the phase gate are one ion pair, q1 > q2 (Coulomb
repulsion keeps the ions apart), whose views read each control once per time.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

from .errors import (
    ConfigError,
    FormulaDiscrepancyWarning,
    PresetDomainError,
    SingularConfigurationError,
)
from .quadratic import MassPair, QuadraticSystem, StiffnessTriple
from .rootfind import solve_positive_root
from .schedules import ControlSchedule, as_schedule, check_fields, config_from_dict

__all__ = [
    "TransportConfig",
    "SeparationConfig",
    "PhaseGateConfig",
    "RotationConfig",
    "SpringsConfig",
    "CustomConfig",
    "build_transport",
    "build_separation",
    "build_phase_gate",
    "build_phase_gate_zeroth_order",
    "build_rotation",
    "build_springs",
    "build_custom",
    "build_preset",
    "preset_config_from_dict",
    "PRESET_CONFIGS",
    "separability_condition_separation",
    "solve_separation_distance",
    "solve_phase_gate_distance",
    "phase_gate_equilibria_closed_form",
    "phase_gate_q0_published",
    "audit_phase_gate_formulas",
    "SeparationRampCheck",
    "PhaseGateAudit",
]


# ---------------------------------------------------------------------------
# Transport, separation and phase gate: one ion pair.
# ---------------------------------------------------------------------------


def _ion_pair(
    cfg, label, controls, distance, distance_rate, curvature, curvature_rate, trap_potential,
    center=None, theta_dot_override=None,
) -> QuadraticSystem:
    """Two ions at c +- q0/2 in a trap of curvature kappa, coupled by the spring 2 Cc/q0^3
    of the Coulomb term, all pure functions of u = (s1(t), s2(t)), the ``controls`` (s1,
    s2), and their rates du, read once per time: u when t changes, du when a rate view
    first asks at that t.  The builder supplies ``distance(t, u, guess)`` (guess: the last
    q0, None at first, so a series goes in time order), ``distance_rate(t, u, du, q0)``,
    ``curvature(u, q0)``, ``curvature_rate(u, du, q0, q0dot)``, the centre c(u) (None:
    0), linear, so c(du) is its rate, and the trap potential without Coulomb."""
    Cc = cfg.Cc
    (v1, d1), (v2, d2) = ((s.value, s.derivative) for s in controls)
    previous = [None]
    record = (None, None, None)  # (t, u, du) at the last time read; du None until asked

    def read(t: float, rates: bool = False) -> tuple:
        nonlocal record
        if t != (rec := record)[0]:
            rec = (t, (v1(t), v2(t)), None)
        if rates and rec[2] is None:
            rec = (t, rec[1], (d1(t), d2(t)))
        record = rec
        return rec

    def q0_at(t: float, u: tuple) -> float:
        # Every view solves, at a repeated time too: that warm re-solve can move q0 by
        # an ulp, and perfbench/tests pins it (test_pinned_layer_counts[sim-separation]).
        try:
            previous[0] = distance(t, u, previous[0])
        except (OverflowError, FloatingPointError):  # float ** or numpy under errstate
            raise PresetDomainError(f"{label}: q0 overflows at t={t}") from None
        return previous[0]

    def spring_overflow(t: float) -> PresetDomainError:  # q0**3 underflowed to 0
        return PresetDomainError(f"{label}: Coulomb spring 2 Cc/q0**3 overflows at t={t}")

    def equilibrium(t: float) -> tuple:
        u = read(t)[1]
        c = center(u) if center else 0.0
        half = 0.5 * q0_at(t, u)
        return (c + half, c - half)

    def equilibrium_velocity(t: float) -> tuple:
        _, u, du = read(t, True)
        cdot = center(du) if center else 0.0
        half = 0.5 * distance_rate(t, u, du, q0_at(t, u))
        return (cdot + half, cdot - half)

    def stiffness(t: float) -> StiffnessTriple:
        u = read(t)[1]
        q0 = q0_at(t, u)
        kappa = curvature(u, q0)
        try:
            return StiffnessTriple(2.0 * Cc / q0**3, kappa, kappa)
        except (ZeroDivisionError, FloatingPointError):  # numpy under errstate
            raise spring_overflow(t) from None

    def stiffness_rate(t: float) -> tuple:
        _, u, du = read(t, True)
        q0 = q0_at(t, u)
        q0dot = distance_rate(t, u, du, q0)
        kappa_dot = curvature_rate(u, du, q0, q0dot)
        try:
            k_dot = -6.0 * Cc * q0dot / q4 if (q4 := q0**4) else -6.0 * Cc / q0**3 * (q0dot / q0)
        except (ZeroDivisionError, FloatingPointError):
            raise spring_overflow(t) from None
        return (k_dot, kappa_dot, kappa_dot)

    return QuadraticSystem(
        masses=cfg.masses,
        stiffness=stiffness,
        stiffness_rate=stiffness_rate,
        equilibrium=equilibrium,
        equilibrium_velocity=equilibrium_velocity,
        full_potential=lambda q1, q2, t: trap_potential(q1, q2, t) + Cc / (q1 - q2),
        theta_dot_override=theta_dot_override,
        label=label,
    )


# ---------------------------------------------------------------------------
# Transport / expansion: common trap spring k(t), moving trap center Q0(t).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransportConfig:
    k: ControlSchedule
    Q0: ControlSchedule
    Cc: float = 1.0
    masses: MassPair = field(default_factory=lambda: MassPair(1.0, 1.0))

    def __post_init__(self):
        check_fields(self, positive=("Cc",))


def build_transport(cfg: TransportConfig) -> QuadraticSystem:
    """U = k(t)/2 * sum_i (q_i - Q0)^2 + Cc/(q1 - q2).

    Equilibrium distance q0 = (2 Cc / k)^(1/3); the stiffness triple is
    (k, k, k), so theta is constant for any masses and any k(t).
    """

    def distance(t: float, u: tuple, guess) -> float:
        if u[0] <= 0.0:  # every view solves for q0, so every view checks k
            raise PresetDomainError(f"transport requires k(t) > 0, got k({t}) = {u[0]}")
        return (2.0 * cfg.Cc / u[0]) ** (1.0 / 3.0)

    def trap_potential(q1: float, q2: float, t: float) -> float:
        Q0 = cfg.Q0.value(t)
        return 0.5 * cfg.k.value(t) * ((q1 - Q0) ** 2 + (q2 - Q0) ** 2)

    return _ion_pair(
        cfg,
        "transport",
        controls=(cfg.k, cfg.Q0),
        distance=distance,
        distance_rate=lambda t, u, du, q0: -q0 * du[0] / (3.0 * u[0]),
        curvature=lambda u, q0: u[0],
        curvature_rate=lambda u, du, q0, q0dot: du[0],
        trap_potential=trap_potential,
        center=lambda u: u[1],
        theta_dot_override=lambda t: 0.0,
    )


# ---------------------------------------------------------------------------
# Separation / recombination: quartic-plus-harmonic external potential.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeparationConfig:
    alpha: ControlSchedule
    beta: ControlSchedule
    Cc: float = 1.0
    masses: MassPair = field(default_factory=lambda: MassPair(1.0, 1.0))

    def __post_init__(self):
        check_fields(self, positive=("Cc",))


def _quintic_bracket(alpha: float, beta: float, Cc: float) -> float:
    estimate = 1.0
    if alpha > 0.0:
        estimate = max(estimate, (Cc / alpha) ** (1.0 / 3.0))
    if beta > 0.0:
        estimate = max(estimate, (2.0 * Cc / beta) ** (1.0 / 5.0))
    q_max = 10.0 * estimate
    if alpha < 0.0 and beta > 0.0:
        # Double-well regime: the outer root sits near sqrt(2|alpha|/beta),
        # which can exceed the Coulomb-balance estimates above.
        q_max = max(q_max, 10.0 * math.sqrt(2.0 * abs(alpha) / beta))
    return q_max


def _polynomial_root(polynomial):
    """``distance(t, u, guess)``: the root of ``polynomial(*u) = (f, f', q_max)``, built
    once per u (by identity: the record holds u); f, f' capture floats the tracer hashes."""
    built = (None,)

    def distance(t, u: tuple, guess: Optional[float] = None) -> float:
        nonlocal built
        if u is not (b := built)[0]:
            b = built = (u, *polynomial(*u))
        return solve_positive_root(b[1], b[2], b[3], guess)

    return distance


def _separation_distance(Cc: float):
    """The separation pair's ``distance(t, u, guess)``: the quintic's root at u."""

    def quintic(alpha: float, beta: float) -> tuple:
        return (lambda q: beta * q**5 + 2.0 * alpha * q**3 - 2.0 * Cc,
                lambda q: 5.0 * beta * q**4 + 6.0 * alpha * q**2,
                _quintic_bracket(alpha, beta, Cc))

    return _polynomial_root(quintic)


def solve_separation_distance(alpha: float, beta: float, Cc: float,
                              guess: Optional[float] = None) -> float:
    """Positive root of the equilibrium quintic beta q^5 + 2 alpha q^3 - 2 Cc."""
    return _separation_distance(Cc)(None, (alpha, beta), guess)


def build_separation(cfg: SeparationConfig) -> QuadraticSystem:
    """U = alpha (q1^2 + q2^2) + beta (q1^4 + q2^4) + Cc/(q1 - q2).

    Equilibria are +-q0/2 with q0 the positive quintic root; q0dot comes
    from implicit differentiation, and the trap curvature at +-q0/2 is
    2 alpha + 3 beta q0^2.
    """
    def distance_rate(t: float, u: tuple, du: tuple, q0: float) -> float:
        denom = 5.0 * u[1] * q0**4 + 6.0 * u[0] * q0**2
        if denom == 0.0:
            raise SingularConfigurationError(
                f"singular point: implicit-derivative denominator vanishes at t={t}"
            )
        return -(q0**5 * du[1] + 2.0 * q0**3 * du[0]) / denom

    def trap_potential(q1: float, q2: float, t: float) -> float:
        return cfg.alpha.value(t) * (q1**2 + q2**2) + cfg.beta.value(t) * (q1**4 + q2**4)

    return _ion_pair(
        cfg,
        "separation",
        controls=(cfg.alpha, cfg.beta),
        distance=_separation_distance(cfg.Cc),
        distance_rate=distance_rate,
        curvature=lambda u, q0: 2.0 * u[0] + 3.0 * u[1] * q0**2,
        curvature_rate=lambda u, du, q0, q0dot: 2.0 * du[0]
        + 3.0 * du[1] * q0**2 + 6.0 * u[1] * q0 * q0dot,
        trap_potential=trap_potential,
    )


@dataclass(frozen=True)
class SeparationRampCheck:
    holds: bool
    max_rel_deviation: float
    ratio_samples: tuple


def separability_condition_separation(
    alpha,
    beta,
    window: tuple,
    n_samples: int = 200,
    tol_cond: float = 1e-9,
    Cc: float = 1.0,
) -> SeparationRampCheck:
    """Check the decoupling constraint beta^3/alpha^5 = const over the window.

    Also cross-checks that beta*q0^5 and alpha*q0^3 stay constant, which is
    the equivalent statement through the equilibrium distance.
    """
    if n_samples < 2:
        raise ConfigError("separability_condition_separation needs n_samples >= 2")
    alpha = as_schedule(alpha)
    beta = as_schedule(beta)
    t0, t1 = window
    ratios = []
    products = []
    guess = None
    for i in range(n_samples):
        t = t0 + (t1 - t0) * i / (n_samples - 1)
        a = alpha.value(t)
        b = beta.value(t)
        if a == 0.0:
            raise PresetDomainError("separability condition needs alpha != 0 on the window")
        ratios.append(b**3 / a**5)
        q0 = solve_separation_distance(a, b, Cc, guess=guess)
        guess = q0
        products.append((b * q0**5, a * q0**3))

    def rel_span(vals) -> float:
        lo, hi = min(vals), max(vals)
        scale = max(abs(lo), abs(hi), 1e-300)
        return (hi - lo) / scale

    dev = max(
        rel_span(ratios),
        rel_span([p[0] for p in products]) if any(p[0] != 0.0 for p in products) else 0.0,
        rel_span([p[1] for p in products]),
    )
    return SeparationRampCheck(
        holds=dev <= tol_cond, max_rel_deviation=dev, ratio_samples=tuple(ratios)
    )


# ---------------------------------------------------------------------------
# Phase gate: static trap k0, state-dependent forces F1(t), F2(t).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhaseGateConfig:
    k0: float
    F1: ControlSchedule
    F2: ControlSchedule
    Cc: float = 1.0
    masses: MassPair = field(default_factory=lambda: MassPair(1.0, 1.0))
    zeroth_order: bool = False

    def __post_init__(self):
        check_fields(self, positive=("k0", "Cc"))


def _phase_gate_distance(k0: float, Cc: float):
    """The phase gate's ``distance(t, u, guess)``: the cubic's root at u = (F1, F2)."""
    cube = (2.0 * Cc / k0) ** (1.0 / 3.0)

    def cubic(F1: float, F2: float) -> tuple:
        d = F1 - F2
        return (lambda q: k0 * q**3 + d * q**2 - 2.0 * Cc,
                lambda q: 3.0 * k0 * q**2 + 2.0 * d * q,
                10.0 * (1.0 + cube + abs(d) / k0))

    return _polynomial_root(cubic)


def solve_phase_gate_distance(F1: float, F2: float, k0: float, Cc: float,
                              guess: Optional[float] = None) -> float:
    """Positive root of the equilibrium cubic k0 q^3 + (F1 - F2) q^2 - 2 Cc."""
    return _phase_gate_distance(k0, Cc)(None, (F1, F2), guess)


def _phase_gate_B_delta(F1: float, F2: float, k0: float, Cc: float) -> tuple:
    d = F1 - F2
    radicand = 3.0 * Cc * k0**14 * (-2.0 * d**3 + 27.0 * Cc * k0**2)
    if radicand < 0.0:
        raise PresetDomainError(
            "published closed-form equilibria undefined (negative radicand)"
        )
    delta = (-(d**3) * k0**6 + 27.0 * Cc * k0**8 + 3.0 * math.sqrt(radicand)) ** (1.0 / 3.0)
    B = d**2 * k0**4 + delta**2
    return B, delta


def phase_gate_equilibria_closed_form(F1: float, F2: float, k0: float, Cc: float) -> tuple:
    """(q1, q2) from the published per-ion closed forms."""
    B, delta = _phase_gate_B_delta(F1, F2, k0, Cc)
    q1 = (B - 2.0 * k0**2 * delta * (F2 + 2.0 * F1)) / (6.0 * k0**3 * delta)
    q2 = (-B - 2.0 * k0**2 * delta * (F1 + 2.0 * F2)) / (6.0 * k0**3 * delta)
    return q1, q2


def phase_gate_q0_published(F1: float, F2: float, k0: float, Cc: float) -> float:
    """The combined q0 line as printed in the source formulas.

    Inconsistent with the per-ion forms whenever F1 + F2 != F2 - F1; kept
    verbatim so the audit can flag it.
    """
    B, delta = _phase_gate_B_delta(F1, F2, k0, Cc)
    return (2.0 * B - 2.0 * k0**2 * delta * (F1 + F2)) / (6.0 * k0**3 * delta)


@dataclass(frozen=True)
class PhaseGateAudit:
    q0_root: float
    q0_from_individual: float
    q0_published: float
    individual_consistent: bool
    published_consistent: bool


def audit_phase_gate_formulas(
    F1: float, F2: float, k0: float, Cc: float, rel_tol: float = 1e-8
) -> PhaseGateAudit:
    """Compare the root-solved q0 against both published closed forms.

    Emits :class:`FormulaDiscrepancyWarning` when the combined published q0
    line disagrees with the authoritative root solve.
    """
    q0 = solve_phase_gate_distance(F1, F2, k0, Cc)
    q1c, q2c = phase_gate_equilibria_closed_form(F1, F2, k0, Cc)
    q0_pub = phase_gate_q0_published(F1, F2, k0, Cc)
    ind_ok = abs((q1c - q2c) - q0) <= rel_tol * abs(q0)
    pub_ok = abs(q0_pub - q0) <= rel_tol * abs(q0)
    if not pub_ok:
        warnings.warn(
            f"combined q0 closed form ({q0_pub}) disagrees with root solve ({q0}) "
            f"for F1={F1}, F2={F2}, k0={k0}, Cc={Cc}",
            FormulaDiscrepancyWarning,
            stacklevel=2,
        )
    return PhaseGateAudit(
        q0_root=q0,
        q0_from_individual=q1c - q2c,
        q0_published=q0_pub,
        individual_consistent=ind_ok,
        published_consistent=pub_ok,
    )


def build_phase_gate(cfg: PhaseGateConfig) -> QuadraticSystem:
    """U = k0 (q1^2 + q2^2)/2 + Cc/(q1 - q2) + F1 q1 + F2 q2.

    The equilibrium root solve is authoritative; the published closed forms
    are evaluated alongside and a :class:`FormulaDiscrepancyWarning` fires
    if the per-ion forms drift beyond 1e-8 relative.  That audit runs once
    per time: the views at one sample time each solve for q0, and calls
    repeating the time just audited skip it.  The pair's centre is
    -(F1 + F2) / (2 k0).
    """
    if cfg.zeroth_order:
        return build_phase_gate_zeroth_order(cfg)
    k0, Cc, F1, F2 = cfg.k0, cfg.Cc, cfg.F1.value, cfg.F2.value
    cubic_root = _phase_gate_distance(k0, Cc)
    audited = [None]  # the time of the last audit

    def distance(t: float, u: tuple, guess) -> float:
        q0 = cubic_root(t, u, guess)
        if t != audited[0]:
            try:
                q1c, q2c = phase_gate_equilibria_closed_form(u[0], u[1], k0, Cc)
                if abs((q1c - q2c) - q0) > 1e-8 * abs(q0):
                    warnings.warn(
                        f"per-ion closed-form equilibria disagree with root solve at t={t}: "
                        f"closed form q0={q1c - q2c}, root q0={q0}",
                        FormulaDiscrepancyWarning,
                        stacklevel=2,
                    )
            except (PresetDomainError, ArithmeticError):
                pass  # closed form undefined or overflowing here; root solve stands alone
            audited[0] = t
        return q0

    def distance_rate(t: float, u: tuple, du: tuple, q0: float) -> float:
        d = u[0] - u[1]
        denom = 3.0 * k0 * q0**2 + 2.0 * d * q0
        if denom == 0.0:
            raise SingularConfigurationError(
                f"singular point: cubic derivative vanishes at t={t}"
            )
        return -(q0**2) * (du[0] - du[1]) / denom

    def trap_potential(q1: float, q2: float, t: float) -> float:
        return 0.5 * k0 * (q1**2 + q2**2) + F1(t) * q1 + F2(t) * q2

    return _ion_pair(
        cfg,
        "phase-gate",
        controls=(cfg.F1, cfg.F2),
        distance=distance,
        distance_rate=distance_rate,
        curvature=lambda u, q0: k0,
        curvature_rate=lambda u, du, q0, q0dot: 0.0,
        trap_potential=trap_potential,
        center=lambda u: -0.5 * (u[0] + u[1]) / k0,
    )


def build_phase_gate_zeroth_order(cfg: PhaseGateConfig) -> QuadraticSystem:
    """Static modes of the force-free two-ion system.

    Forces are dropped from the quadratic model (all stiffness coefficients
    become equal to k0 and the equilibria freeze at +-(Cc/4k0)^(1/3)); the
    time-dependent forces re-enter only as a linear term, exposed in mode
    coordinates through ``extras["mode_force"]``.
    """
    from .modes import modal_matrix, theta_at  # local import to avoid a cycle

    k0 = cfg.k0
    Cc = cfg.Cc
    half = (Cc / (4.0 * k0)) ** (1.0 / 3.0)
    triple = StiffnessTriple(k0, k0, k0)
    theta = theta_at(triple, cfg.masses)
    _, A_inv = modal_matrix(theta, cfg.masses)

    def mode_force(t: float) -> tuple:
        # Coefficients of (Q1, Q2) in F1*q1 + F2*q2 after q = q0 + A^-1 Q.
        F1 = cfg.F1.value(t)
        F2 = cfg.F2.value(t)
        return (
            F1 * A_inv[0, 0] + F2 * A_inv[1, 0],
            F1 * A_inv[0, 1] + F2 * A_inv[1, 1],
        )

    def full_potential(q1: float, q2: float, t: float) -> float:
        return 0.5 * k0 * (q1**2 + q2**2) + Cc / (q1 - q2)

    return QuadraticSystem(
        masses=cfg.masses,
        stiffness=lambda t: triple,
        stiffness_rate=lambda t: (0.0, 0.0, 0.0),
        equilibrium=lambda t: (half, -half),
        equilibrium_velocity=lambda t: (0.0, 0.0),
        theta_dot_override=lambda t: 0.0,
        full_potential=full_potential,
        label="phase-gate-zeroth-order",
        extras={"mode_force": mode_force, "theta": theta},
    )


# ---------------------------------------------------------------------------
# Rotating anisotropic 2D trap for a single ion.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RotationConfig:
    m: float
    omega1: float
    omega2: float
    phi: ControlSchedule
    larmor_compensation: bool = False

    def __post_init__(self):
        check_fields(self, positive=("m",))


def build_rotation(cfg: RotationConfig) -> QuadraticSystem:
    """Anisotropic oscillator with principal axes rotated by phi(t).

    Already quadratic: equilibria sit at the origin and theta = phi (up to
    mode-label branch).  The Larmor compensation rate omega_L(t) = phidot(t)
    is theta_dot, so the system sets no ``larmor_rate``: the mode integrator
    takes omega_L from its stage's theta_dot, and only on request.
    """
    m = cfg.m
    try:
        w1sq, w2sq = cfg.omega1**2, cfg.omega2**2
    except OverflowError:
        raise PresetDomainError("rotation: omega1**2 or omega2**2 overflows") from None
    phi_at, phi_dot = cfg.phi.value, cfg.phi.derivative
    # The leading factors of the products below, hoisted in left-to-right order.
    k_amp = -0.5 * m * (w1sq - w2sq)
    dk_amp, dk1_amp, dk2_amp = -m * (w1sq - w2sq), m * (w2sq - w1sq), m * (w1sq - w2sq)

    def triple_at(t: float) -> StiffnessTriple:
        phi = phi_at(t)
        c = math.cos(phi)
        s = math.sin(phi)
        k = k_amp * math.sin(2.0 * phi)
        k1 = m * (w1sq * c * c + w2sq * s * s) - k
        k2 = m * (w1sq * s * s + w2sq * c * c) - k
        return StiffnessTriple(k, k1, k2)

    def stiffness_rate(t: float) -> tuple:
        phi = phi_at(t)
        phidot = phi_dot(t)
        dk = dk_amp * math.cos(2.0 * phi) * phidot
        # d/dphi [w1^2 cos^2 + w2^2 sin^2] = (w2^2 - w1^2) sin(2 phi)
        dk1 = dk1_amp * math.sin(2.0 * phi) * phidot - dk
        dk2 = dk2_amp * math.sin(2.0 * phi) * phidot - dk
        return (dk, dk1, dk2)

    def full_potential(q1: float, q2: float, t: float) -> float:
        phi = phi_at(t)
        c = math.cos(phi)
        s = math.sin(phi)
        u1 = q1 * c + q2 * s
        u2 = -q1 * s + q2 * c
        return 0.5 * m * (w1sq * u1 * u1 + w2sq * u2 * u2)

    extras = {}
    if cfg.omega1 == cfg.omega2:
        extras["trivially_decoupled"] = True
    if cfg.larmor_compensation:
        extras["compensated_frequencies"] = lambda t: (
            math.sqrt(w1sq + phi_dot(t) ** 2),
            math.sqrt(w2sq + phi_dot(t) ** 2),
        )

    return QuadraticSystem(
        masses=MassPair(m, m),
        stiffness=triple_at,
        stiffness_rate=stiffness_rate,
        equilibrium=lambda t: (0.0, 0.0),
        equilibrium_velocity=lambda t: (0.0, 0.0),
        theta_dot_override=phi_dot,
        full_potential=full_potential,
        label="rotation",
        extras=extras,
    )


# ---------------------------------------------------------------------------
# Two masses between walls, three springs with time-dependent stiffness.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpringsConfig:
    k: ControlSchedule
    k1: ControlSchedule
    k2: ControlSchedule
    d: float
    masses: MassPair = field(default_factory=lambda: MassPair(1.0, 1.0))

    def __post_init__(self):
        check_fields(self, positive=("d",))


def build_springs(cfg: SpringsConfig) -> QuadraticSystem:
    """U = k1 q1^2/2 + k2 (d - q2)^2/2 + k (q2 - q1)^2/2.

    Equilibria q1 = q0 k/k1, q2 = q1 + q0 with
    q0 = d k1 k2 / (k1 k2 + k (k1 + k2)); derivatives by the chain rule.
    """
    d = cfg.d

    def parts(t: float) -> tuple:
        k = cfg.k.value(t)
        k1 = cfg.k1.value(t)
        k2 = cfg.k2.value(t)
        D = k1 * k2 + k * (k1 + k2)
        if D == 0.0:
            raise SingularConfigurationError(
                f"singular spring configuration at t={t}: k1 k2 + k (k1 + k2) = 0"
            )
        if k1 == 0.0:
            raise SingularConfigurationError(
                f"singular spring configuration at t={t}: k1 = 0"
            )
        return k, k1, k2, D

    def equilibrium(t: float) -> tuple:
        k, k1, k2, D = parts(t)
        q0 = d * k1 * k2 / D
        q1 = q0 * k / k1
        return (q1, q1 + q0)

    def equilibrium_velocity(t: float) -> tuple:
        k, k1, k2, D = parts(t)
        kd = cfg.k.derivative(t)
        k1d = cfg.k1.derivative(t)
        k2d = cfg.k2.derivative(t)
        q0 = d * k1 * k2 / D
        Dd = k1d * k2 + k1 * k2d + kd * (k1 + k2) + k * (k1d + k2d)
        q0d = d * ((k1d * k2 + k1 * k2d) * D - k1 * k2 * Dd) / (D * D)
        q1d = q0d * k / k1 + q0 * (kd * k1 - k * k1d) / (k1 * k1)
        return (q1d, q1d + q0d)

    def stiffness(t: float) -> StiffnessTriple:
        k, k1, k2, _ = parts(t)
        return StiffnessTriple(k, k1, k2)

    def stiffness_rate(t: float) -> tuple:
        return (cfg.k.derivative(t), cfg.k1.derivative(t), cfg.k2.derivative(t))

    def full_potential(q1: float, q2: float, t: float) -> float:
        k, k1, k2, _ = parts(t)
        return 0.5 * k1 * q1**2 + 0.5 * k2 * (d - q2) ** 2 + 0.5 * k * (q2 - q1) ** 2

    return QuadraticSystem(
        masses=cfg.masses,
        stiffness=stiffness,
        stiffness_rate=stiffness_rate,
        equilibrium=equilibrium,
        equilibrium_velocity=equilibrium_velocity,
        full_potential=full_potential,
        label="springs",
    )


# ---------------------------------------------------------------------------
# Raw-schedule system, mainly for the CLI.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CustomConfig:
    k: ControlSchedule
    k1: ControlSchedule
    k2: ControlSchedule
    masses: MassPair = field(default_factory=lambda: MassPair(1.0, 1.0))
    q1_eq: ControlSchedule = 0.0
    q2_eq: ControlSchedule = 0.0

    def __post_init__(self):
        check_fields(self)


def build_custom(cfg: CustomConfig) -> QuadraticSystem:
    return QuadraticSystem(
        masses=cfg.masses,
        stiffness=lambda t: StiffnessTriple(
            cfg.k.value(t), cfg.k1.value(t), cfg.k2.value(t)
        ),
        stiffness_rate=lambda t: (
            cfg.k.derivative(t),
            cfg.k1.derivative(t),
            cfg.k2.derivative(t),
        ),
        equilibrium=lambda t: (cfg.q1_eq.value(t), cfg.q2_eq.value(t)),
        equilibrium_velocity=lambda t: (
            cfg.q1_eq.derivative(t),
            cfg.q2_eq.derivative(t),
        ),
        label="custom",
    )


# ---------------------------------------------------------------------------
# Tagged-union dispatch (CLI config payload).
# ---------------------------------------------------------------------------

_PRESETS = {
    "transport": (TransportConfig, build_transport),
    "separation": (SeparationConfig, build_separation),
    "phase-gate": (PhaseGateConfig, build_phase_gate),
    "rotation": (RotationConfig, build_rotation),
    "springs": (SpringsConfig, build_springs),
    "custom": (CustomConfig, build_custom),
}


PRESET_CONFIGS = {kind: cls for kind, (cls, _) in _PRESETS.items()}


def preset_config_from_dict(obj: dict):
    """Typed config from the tagged JSON object; unknown fields are rejected."""
    return config_from_dict(obj, "type", PRESET_CONFIGS, "preset")


def build_preset(obj) -> QuadraticSystem:
    """Build a QuadraticSystem from a typed config or its dict form."""
    if isinstance(obj, dict):
        obj = preset_config_from_dict(obj)
    for cls, build in _PRESETS.values():
        if isinstance(obj, cls):
            return build(obj)
    raise ConfigError(f"cannot build a preset from {obj!r}")
