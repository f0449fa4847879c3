"""Scenario builders: stiffness triples plus equilibrium trajectories.

Five trapped-ion control scenarios and a two-mass spring system, each
returning a :class:`QuadraticSystem` whose closed-form equilibrium zeroes
the gradient of the full (untruncated) potential, its config's
``potential(q1, q2, t)`` (``custom`` has none), and whose stiffness triple
equals its Hessian there.  The Coulomb constant Cc is a dimensionless
caller-supplied number (natural units), default 1.

Transport, separation and the phase gate are one ion pair, q1 > q2 (Coulomb
repulsion keeps the ions apart).  Its distance q0 is the root of one equation
f(q; u) = 0 in the controls u, built once per time; that equation's f' serves
both the root solve and q0dot = -(df/dt) / f'(q0).  Separation's quintic and the phase
gate's cubic, twice one ion's force balance, (a q^j + b) q^j q - 2 Cc with (a, b) = (beta,
2 alpha) or (k0, F1 - F2), take their controls as read, each 2 in an exponent, and are solved
in x = q/2^e, 2^e within a factor 2 of the dominant balance's length, with exact
coefficients in x: Horner and Newton round as in q.  With l = (|b|/|a|)^(1/j), la =
(2 Cc/a)^(1/(2j+1)) and lb = (2 Cc/b)^(1/(j+1)), the root is in (m/2, m] for a, b >= 0, m
the smaller la, lb of a positive term; in (M, 2M] for a > 0 > b, M = max(l, la); below l
for a < 0 < b (none or two, the largest taken cold, the nearest warm).  So each root in x
is in (1/4, 4], in the bracket (0, 8]; transport's is a cube root of [1/2, 8), times 2^j.
Rotation's stiffness and theta_dot keep their value at every float time asked,
so the runs of one command read the phi schedule once per time; the ion pair
keeps its triple and q0dot per time and root, so it builds them once there.
"""

from __future__ import annotations

import math
import warnings

from .errors import (
    ConfigError,
    FormulaDiscrepancyWarning,
    PresetDomainError,
    SingularConfigurationError,
)
from .modes import _angle_terms, _sample_times
from .quadratic import MassPair, QuadraticSystem, StiffnessTriple
from .rootfind import solve_positive_root
from .schedules import ControlSchedule, as_schedule, check_fields, config_from_dict, value_class

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

SEPARATION_CONDITION_TOL = 1e-9  # relative spread of beta^3/alpha^5 that counts as constant
FORMULA_AUDIT_REL_TOL = 1e-8  # phase-gate closed forms against the root solve, relative to q0


class _per_time(dict):
    """``view`` keeping its value at every float time asked, so the RK stages, walks and runs
    of one system that share a time compute it once.  The system holds the bound
    ``__getitem__``: a kept time is a dict hit, with no Python frame, and ``__missing__``
    evaluates the view and sets the entry whole, so no thread or call order changes a value.
    It lives as long as the system, about 160 B per new time for a triple and 50 B for a float
    (2N + 1 times for a simulate of N steps), so a caller that keeps one system and asks it at
    ever new times grows it without bound.  A numpy time (classify's grid) and t = 0 (where
    -0.0 == 0.0) are never stored; a numpy time equal to a kept one reads its value (the bits
    of a fresh evaluation)."""

    __slots__ = ("view",)

    def __init__(self, view):
        self.view = view

    def __missing__(self, t):
        value = self.view(t)
        if type(t) is float and t:
            self[t] = value
        return value


# ---------------------------------------------------------------------------
# Transport, separation and phase gate: one ion pair.
# ---------------------------------------------------------------------------


def _ion_pair(
    cfg, label, controls, equation, curvature, curvature_rate, center=None,
    theta_dot_override=None,
) -> QuadraticSystem:
    """Two ions at c +- q0/2 in a trap of curvature kappa, coupled by the spring 2 Cc/q0^3
    of the Coulomb term, all pure functions of u = (s1(t), s2(t)), the ``controls`` (s1,
    s2), their rates du, and the root q0 of one distance equation f(q; u) = 0, which
    ``equation(t, u)`` builds as ``(solve, rate)``: solve(guess) from the last q0 (None at
    first, so a series goes in time order), in its own scale (module docstring), and
    rate(du, q0) = (df/dt, f'(q0)), both over the same power of q0: q0dot = -(df/dt)/f'(q0).
    One record of the last time read, [t, u, equation(t, u), du, (q0, triple), (q0,
    q0dot)], is built whole when t changes; du is set when a rate view first asks, and the
    triple and q0dot each whole when a view forms them.  Each is handed back where a view's
    own solve returns that q0 on that record: pure functions of (t, u, du, q0), so no thread
    or call order changes a value.  Also ``curvature(u, q0)``, ``curvature_rate(u, du, q0,
    q0dot)``, and the linear centre c(u) (None: 0), rate c(du); ``label`` names the preset
    in errors."""
    mc, ec = math.frexp(cfg.Cc)
    (v1, d1), (v2, d2) = ((s.value, s.derivative) for s in controls)
    previous = None  # the last root, the next solve's guess
    record = [None] * 6

    def solved(t: float, rates: bool = False) -> tuple:
        # Every view solves, at a repeated time too: that warm re-solve can move q0 by
        # an ulp, and perfbench/tests pins it (test_pinned_layer_counts[sim-separation]).
        nonlocal record, previous
        if t != (rec := record)[0]:
            record = rec = [t, u := (v1(t), v2(t)), equation(t, u), None, None, None]
        if rates and rec[3] is None:
            rec[3] = (d1(t), d2(t))
        try:
            previous = q0 = rec[2][0](previous)
        except OverflowError:  # 2^e x, the root, is no float
            raise PresetDomainError(f"{label}: q0 overflows at t={t}") from None
        return rec, q0  # not previous, which another thread may have set since

    def q0_rate(t: float, rec: list, q0: float) -> float:
        if (kept := rec[5]) and kept[0] == q0:
            return kept[1]
        try:
            drift, slope = rec[2][1](rec[3], q0)
        except OverflowError:  # a power of q0 in them is no float
            drift = slope = math.inf
        # -drift/slope is exact where both are finite, or where drift is 0 and slope infinite
        if not (math.isfinite(drift) and (math.isfinite(slope) or math.isinf(slope) and not drift)):
            raise PresetDomainError(f"{label}: q0dot overflows at t={t}")
        if slope == 0.0:  # a double root
            raise SingularConfigurationError(f"singular point: f'(q0) vanishes at t={t}")
        rec[5] = (q0, q0dot := -drift / slope)
        return q0dot

    def spring(t: float, q0: float) -> float:
        m, e = math.frexp(q0)  # mc/m^3 2^(ec+1-3e): 2 Cc/q0**3's bits where q0**3 is normal
        try:
            return math.ldexp(mc / (m * m * m), ec + 1 - 3 * e)
        except OverflowError:
            raise PresetDomainError(
                f"{label}: Coulomb spring 2 Cc/q0**3 overflows at t={t}") from None

    def equilibrium(t: float) -> tuple:
        rec, q0 = solved(t)
        c = center(rec[1]) if center else 0.0
        half = 0.5 * q0
        return (c + half, c - half)

    def equilibrium_velocity(t: float) -> tuple:
        rec, q0 = solved(t, True)
        cdot = center(rec[3]) if center else 0.0
        half = 0.5 * q0_rate(t, rec, q0)
        return (cdot + half, cdot - half)

    def stiffness(t: float) -> StiffnessTriple:
        rec, q0 = solved(t)
        if not (kept := rec[4]) or kept[0] != q0:
            kappa = curvature(rec[1], q0)
            rec[4] = kept = (q0, StiffnessTriple(spring(t, q0), kappa, kappa))
        return kept[1]

    def stiffness_rate(t: float) -> tuple:
        rec, q0 = solved(t, True)
        q0dot = q0_rate(t, rec, q0)
        kappa_dot = curvature_rate(rec[1], rec[3], q0, q0dot)
        # its spring, where the triple is kept for this root
        k = kept[1].k if (kept := rec[4]) and kept[0] == q0 else spring(t, q0)
        k3 = -3.0 * k  # -inf past k = 6e307: k q0dot/q0 first there
        return (k3 * q0dot / q0 if k3 > -math.inf else -3.0 * (k * q0dot / q0),
                kappa_dot, kappa_dot)

    return QuadraticSystem(
        masses=cfg.masses,
        stiffness=stiffness,
        stiffness_rate=stiffness_rate,
        equilibrium=equilibrium,
        equilibrium_velocity=equilibrium_velocity,
        theta_dot_override=theta_dot_override,
    )


def _cube_root(num: float, den: float, shift: int) -> float:
    """(num/den 2^shift)^(1/3), num, den > 0: the cube root of y in [1/2, 8), times 2^j.
    math.cbrt (glibc 2.36) can be 3 ulp off; one Newton step gave at most 0.94 in 3e6 y."""
    (mn, en), (md, ed) = math.frexp(num), math.frexp(den)
    j, r = divmod(en - ed + shift, 3)
    root = math.cbrt(y := math.ldexp(mn / md, r))
    return math.ldexp(root - (root - y / (root * root)) / 3.0, j)


# ---------------------------------------------------------------------------
# Transport / expansion: common trap spring k(t), moving trap center Q0(t).
# ---------------------------------------------------------------------------


@value_class
class TransportConfig:
    k: ControlSchedule
    Q0: ControlSchedule
    Cc: float = 1.0
    masses: MassPair = MassPair(1.0, 1.0)

    def __post_init__(self):
        check_fields(self, positive=("Cc",))

    def potential(self, q1: float, q2: float, t: float) -> float:
        """U = k(t)/2 * sum_i (q_i - Q0)^2 + Cc/(q1 - q2)."""
        Q0 = self.Q0.value(t)
        return 0.5 * self.k.value(t) * ((q1 - Q0) ** 2 + (q2 - Q0) ** 2) + self.Cc / (q1 - q2)


def build_transport(cfg: TransportConfig) -> QuadraticSystem:
    """Equilibrium distance q0 = (2 Cc / k)^(1/3), the root of f = 3k q - 3 (2 Cc)^(1/3) k^(2/3),
    so f' = 3k and df/dt = kdot q0 there; the stiffness triple is (k, k, k), so theta
    is constant for any masses and any k(t).
    """
    def equation(t: float, u: tuple) -> tuple:
        def solve(guess) -> float:
            if u[0] <= 0.0:  # every view solves for q0, so every view checks k
                raise PresetDomainError(f"transport requires k(t) > 0, got k({t}) = {u[0]}")
            return _cube_root(cfg.Cc, u[0], 1)

        return solve, lambda du, q0: (du[0] * q0, 3.0 * u[0])

    return _ion_pair(
        cfg,
        "transport",
        controls=(cfg.k, cfg.Q0),
        equation=equation,
        curvature=lambda u, q0: u[0],
        curvature_rate=lambda u, du, q0, q0dot: du[0],
        center=lambda u: u[1],
        theta_dot_override=lambda t: 0.0,
    )


# ---------------------------------------------------------------------------
# Separation / recombination: quartic-plus-harmonic external potential.
# ---------------------------------------------------------------------------


@value_class
class SeparationConfig:
    alpha: ControlSchedule
    beta: ControlSchedule
    Cc: float = 1.0
    masses: MassPair = MassPair(1.0, 1.0)

    def __post_init__(self):
        check_fields(self, positive=("Cc",))

    def potential(self, q1: float, q2: float, t: float) -> float:
        """U = alpha (q1^2 + q2^2) + beta (q1^4 + q2^4) + Cc/(q1 - q2)."""
        return (self.alpha.value(t) * (q1**2 + q2**2) + self.beta.value(t) * (q1**4 + q2**4)
                + self.Cc / (q1 - q2))


def _in_own_scale(a: float, b: float, h: int, c: float, j: int) -> tuple:
    """(e, (A, B, C)) with f(2^e x) = 2^s ((A x^j + B) x^j x - C) for f = (a q^j + b 2^h) q^j q
    - 2c, c > 0: each one ldexp of a, b or c, exact unless it underflows; one in [1/2, 1),
    all < 16; C underflows to 2^-1074 at least, so that x = 0 is no root."""
    n, m, ldexp = 2 * j + 1, j + 1, math.ldexp
    ea, eb, ec = math.frexp(a)[1], math.frexp(b)[1] + h, math.frexp(c)[1] + 1
    if a > 0.0 > b:  # A leads
        s = ea + n * (e := max((eb - ea) // j, (ec - ea) // n))
    elif a < 0.0 < b:  # B leads, or C where there is no root
        s = max(eb + m * (e := (eb - ea) // j), ec)
    elif a > 0.0 or b > 0.0:  # C leads
        la = (ec - ea) // n if a > 0.0 else 1 << 20
        e, s = min(la, (ec - eb) // m if b > 0.0 else la), ec
    else:  # no positive root
        e, s = 0, max(ea if a else ec, eb if b else ec, ec)
    return e, (ldexp(a, n * e - s), ldexp(b, m * e - s + h), ldexp(c, 1 - s) or 5e-324)


def _scaled_equation(a: float, b: float, h: int, c: float, j: int, rates):
    """``(solve, rate)`` of f = (a q^j + b 2^h) q^j q - 2c in its own scale; rates(du) =
    d(a, b 2^h)/dt; f' takes b 2^h in one rounding.  solve reads ``solve_positive_root`` per
    call, for patched solvers."""
    e, (A, B, C) = _in_own_scale(a, b, h, c, j)
    An, Bm, ldexp = (2 * j + 1) * A, (j + 1) * B, math.ldexp

    def f(x: float) -> float:
        return (A * (p := x * x if j == 2 else x) + B) * p * x - C

    def fprime(x: float) -> float:
        return (An * (p := x * x if j == 2 else x) + Bm) * p

    def solve(guess) -> float:
        x = solve_positive_root(f, fprime, 8.0, ldexp(guess, -e) if e and guess else guess)
        return ldexp(x, e) if e else x

    def rate(du: tuple, q0: float) -> tuple:  # df/dt and f' over q0^j, q0^j = 2^je x^j
        (da, db), x = rates(du), ldexp(q0, -e)
        p = x * x if j == 2 else x
        drift = ldexp((ldexp(da, j * e) * p + db) * x, e)  # raises where it is no float
        return drift, (2 * j + 1) * ldexp(a, j * e) * p + ((j + 1) << h) * b

    return solve, rate


def _separation_distance(Cc: float):
    """The separation's ``equation(t, u)``: (beta q^2 + 2 alpha) q^2 q - 2 Cc at (alpha, beta)."""
    return lambda t, u: _scaled_equation(u[1], u[0], 1, Cc, 2, lambda d: (d[1], 2 * d[0]))


def _solved_q0(solve, guess, message: str) -> float:
    """solve(guess); a q0 = 2^e x that is no float raises the message."""
    try:
        return solve(guess)
    except OverflowError:
        raise PresetDomainError(message) from None


def solve_separation_distance(alpha: float, beta: float, Cc: float,
                              guess: float | None = None) -> float:
    """Positive root of the equilibrium quintic beta q^5 + 2 alpha q^3 - 2 Cc."""
    return _solved_q0(_separation_distance(Cc)(None, (alpha, beta))[0], guess,
                      f"separation: q0 overflows for alpha={alpha}, beta={beta}, Cc={Cc}")


def build_separation(cfg: SeparationConfig) -> QuadraticSystem:
    """Equilibria are +-q0/2 with q0 the positive quintic root; q0dot comes
    from implicit differentiation, and the trap curvature at +-q0/2 is
    2 alpha + 3 beta q0^2.
    """
    return _ion_pair(
        cfg,
        "separation",
        controls=(cfg.alpha, cfg.beta),
        equation=_separation_distance(cfg.Cc),
        curvature=lambda u, q0: 2.0 * u[0] + 3.0 * u[1] * (q0 * q0),
        curvature_rate=lambda u, du, q0, q0dot: 2.0 * du[0]
        + 3.0 * du[1] * (q0 * q0) + 6.0 * u[1] * q0 * q0dot,
    )


@value_class
class SeparationRampCheck:
    holds: bool
    max_rel_deviation: float


def separability_condition_separation(
    alpha,
    beta,
    window: tuple,
    n_samples: int = 200,
    Cc: float = 1.0,
) -> SeparationRampCheck:
    """Whether the decoupling constraint beta^3/alpha^5 = const ``holds`` over the window,
    from the largest relative spread, ``max_rel_deviation``, of its samples and of the
    cross-checks beta*q0^5 and alpha*q0^3, the equivalent statement through the
    equilibrium distance."""
    if n_samples < 2:
        raise ConfigError("separability_condition_separation needs n_samples >= 2")
    alpha, beta, (t0, t1) = as_schedule(alpha), as_schedule(beta), window
    rows, guess = [], None
    for t in _sample_times(t0, t1, n_samples):
        a, b = alpha.value(t), beta.value(t)
        if a == 0.0:
            raise PresetDomainError("separability condition needs alpha != 0 on the window")
        q0 = guess = _solved_q0(_separation_distance(Cc)(t, (a, b))[0], guess,
                                f"separability condition: q0 leaves the floats at t={t}")
        rows.append([])
        for name, power in (("beta^3/alpha^5", lambda: b**3 / a**5),
                            ("beta q0^5", lambda: b * q0**5), ("alpha q0^3", lambda: a * q0**3)):
            try:
                value = power()
            except (OverflowError, ZeroDivisionError):  # a**5 may underflow to 0
                value = math.inf
            if not math.isfinite(value):
                raise PresetDomainError(
                    f"separability condition: {name} leaves the floats at t={t}")
            rows[-1].append(value)
    ratios, fifths, cubes = zip(*rows)

    def rel_span(vals) -> float:
        lo, hi = min(vals), max(vals)
        scale = max(abs(lo), abs(hi), 1e-300)
        return (hi - lo) / scale

    dev = max(rel_span(ratios), rel_span(fifths) if any(fifths) else 0.0, rel_span(cubes))
    return SeparationRampCheck(holds=dev <= SEPARATION_CONDITION_TOL, max_rel_deviation=dev)


# ---------------------------------------------------------------------------
# Phase gate: static trap k0, state-dependent forces F1(t), F2(t).
# ---------------------------------------------------------------------------


@value_class
class PhaseGateConfig:
    k0: float
    F1: ControlSchedule
    F2: ControlSchedule
    Cc: float = 1.0
    masses: MassPair = MassPair(1.0, 1.0)
    zeroth_order: bool = False

    def __post_init__(self):
        check_fields(self, positive=("k0", "Cc"))

    def potential(self, q1: float, q2: float, t: float) -> float:
        """U = k0 (q1^2 + q2^2)/2 + F1 q1 + F2 q2 + Cc/(q1 - q2), the zeroth order's too."""
        return (0.5 * self.k0 * (q1**2 + q2**2) + self.F1.value(t) * q1 + self.F2.value(t) * q2
                + self.Cc / (q1 - q2))


def _phase_gate_distance(k0: float, Cc: float):
    """The phase gate's ``equation(t, u)``: (k0 q + d 2^h) q q - 2 Cc, d 2^h = F1 - F2 at u in
    one rounding: h = 1, each half exact or far below d's ulp, only where F1 - F2 may be inf."""
    return lambda t, u: _scaled_equation(
        k0, *((u[0] - u[1], 0) if abs(u[0]) < 2.0**1023 > abs(u[1])
              else (0.5 * u[0] - 0.5 * u[1], 1)), Cc, 1, lambda d: (0, d[0] - d[1]))


def solve_phase_gate_distance(F1: float, F2: float, k0: float, Cc: float,
                              guess: float | None = None) -> float:
    """Positive root of the equilibrium cubic k0 q^3 + (F1 - F2) q^2 - 2 Cc."""
    return _solved_q0(_phase_gate_distance(k0, Cc)(None, (F1, F2))[0], guess,
                      f"phase-gate: q0 overflows for F1={F1}, F2={F2}, k0={k0}, Cc={Cc}")


def _phase_gate_forms(F1: float, F2: float, k0: float, Cc: float) -> tuple:
    """(q1, q2, q1 - q2, combined q0) of the published closed forms, evaluated in
    ``decimal`` on the exact values of the floats with exponents to +-10**6, at 80 digits,
    then twice as many until two precisions agree to a float (cancellation can need 320;
    the doubling stops past 10**4), so that the audit judges the formulas, not rounding."""
    import decimal  # about 2 ms: the audit's alone, off the set-up path

    prec, last = 80, None
    while True:
        with decimal.localcontext(decimal.Context(prec=prec, Emax=10**6, Emin=-10**6)):
            f1, f2, k, c = map(decimal.Decimal, (F1, F2, k0, Cc))
            d = f1 - f2
            radicand = 3 * c * k**14 * (27 * c * k**2 - 2 * d**3)
            if radicand < 0:
                raise PresetDomainError(
                    "published closed-form equilibria undefined (negative radicand)")
            delta = (-(d**3) * k**6 + 27 * c * k**8 + 3 * radicand.sqrt()) ** (
                decimal.Decimal(1) / 3)
            B, scale, kd = d**2 * k**4 + delta**2, 6 * k**3 * delta, 2 * k**2 * delta
            forms = tuple(float(x / scale) for x in (
                B - kd * (f2 + 2 * f1), -B - kd * (f1 + 2 * f2), 2 * B - kd * d,
                2 * B - kd * (f1 + f2)))
        if forms == last or prec > 10**4:
            return forms
        prec, last = 2 * prec, forms


def phase_gate_equilibria_closed_form(F1: float, F2: float, k0: float, Cc: float) -> tuple:
    """(q1, q2) from the published per-ion closed forms."""
    return _phase_gate_forms(F1, F2, k0, Cc)[:2]


def phase_gate_q0_published(F1: float, F2: float, k0: float, Cc: float) -> float:
    """The combined q0 line as printed in the source formulas: inconsistent with the
    per-ion forms unless F2 = 0, kept verbatim so the audit can flag it."""
    return _phase_gate_forms(F1, F2, k0, Cc)[3]


@value_class
class PhaseGateAudit:
    q0_root: float
    q0_from_individual: float
    q0_published: float
    individual_consistent: bool
    published_consistent: bool


def audit_phase_gate_formulas(F1: float, F2: float, k0: float, Cc: float) -> PhaseGateAudit:
    """Compare the root-solved q0 against both published closed forms.

    Emits :class:`FormulaDiscrepancyWarning` when the combined published q0
    line disagrees with the authoritative root solve.
    """
    q0 = solve_phase_gate_distance(F1, F2, k0, Cc)
    *_, individual, published = _phase_gate_forms(F1, F2, k0, Cc)
    ind_ok = abs(individual - q0) <= FORMULA_AUDIT_REL_TOL * abs(q0)
    pub_ok = abs(published - q0) <= FORMULA_AUDIT_REL_TOL * abs(q0)
    if not pub_ok:
        warnings.warn(
            f"combined q0 closed form ({published}) disagrees with root solve ({q0}) "
            f"for F1={F1}, F2={F2}, k0={k0}, Cc={Cc}",
            FormulaDiscrepancyWarning,
            stacklevel=2,
        )
    return PhaseGateAudit(q0, individual, published, ind_ok, pub_ok)


def build_phase_gate(cfg: PhaseGateConfig) -> QuadraticSystem:
    """The equilibrium distance is the cubic's root solve alone; the published
    closed forms are checked by :func:`audit_phase_gate_formulas`, not per
    time.  The pair's centre is -(F1 + F2) / (2 k0).

    The zeroth order (``cfg.zeroth_order``) keeps the force-free springs (k0, k0, k0), so
    theta is static, and moves their equilibrium +-(Cc/4k0)^(1/3) by -K^-1 F, K^-1 =
    [[2, 1], [1, 2]]/(3 k0): the full model's equilibrium to first order in F.
    """
    k0, Cc, F1, F2 = cfg.k0, cfg.Cc, cfg.F1, cfg.F2
    if not cfg.zeroth_order:
        return _ion_pair(
            cfg,
            "phase-gate",
            controls=(F1, F2),
            equation=_phase_gate_distance(k0, Cc),
            curvature=lambda u, q0: k0,
            curvature_rate=lambda u, du, q0, q0dot: 0.0,
            center=lambda u: -0.5 * (u[0] + u[1]) / k0,
        )
    label, half = "phase-gate-zeroth-order", _cube_root(Cc, k0, -2)
    triple = StiffnessTriple(k0, k0, k0)

    def moved(t: float, e1: float, e2: float, f1: float, f2: float, name: str) -> tuple:
        # e - K^-1 f, over k0 before 3: 3 k0 may overflow where f/k0 does not, and 2 f where
        # the row does not, so past 2^1022 each row is formed at a quarter, then times 4
        s = 1.0 if abs(f1) < 2.0**1022 > abs(f2) else 4.0
        q = (e1 - (2.0 / s * f1 + f2 / s) / k0 / 3.0 * s,
             e2 - (f1 / s + 2.0 / s * f2) / k0 / 3.0 * s)
        if not (math.isfinite(q[0]) and math.isfinite(q[1])):
            raise PresetDomainError(f"{label}: {name} overflows at t={t}")
        return q

    return QuadraticSystem(
        masses=cfg.masses,
        stiffness=lambda t: triple,
        stiffness_rate=lambda t: (0.0, 0.0, 0.0),
        equilibrium=lambda t: moved(t, half, -half, F1.value(t), F2.value(t), "K^-1 F"),
        equilibrium_velocity=lambda t: moved(
            t, 0.0, 0.0, F1.derivative(t), F2.derivative(t), "K^-1 dF/dt"),
        theta_dot_override=lambda t: 0.0,
    )


# ---------------------------------------------------------------------------
# Rotating anisotropic 2D trap for a single ion.
# ---------------------------------------------------------------------------


@value_class
class RotationConfig:
    m: float
    omega1: float
    omega2: float
    phi: ControlSchedule

    def __post_init__(self):
        check_fields(self, positive=("m",))
        if not 0.0 < (mm := self.m * self.m) < math.inf:  # MassPair's test, named for m
            raise ConfigError(f"rotation: m * m {'over' if mm else 'under'}flows, got {self.m}")

    def potential(self, q1: float, q2: float, t: float) -> float:
        """U = m (omega1^2 u1^2 + omega2^2 u2^2)/2, u = (q1, q2) in the axes turned by phi(t)."""
        phi = self.phi.value(t)
        c = math.cos(phi)
        s = math.sin(phi)
        u1 = q1 * c + q2 * s
        u2 = -q1 * s + q2 * c
        return 0.5 * self.m * (self.omega1**2 * u1 * u1 + self.omega2**2 * u2 * u2)


def build_rotation(cfg: RotationConfig) -> QuadraticSystem:
    """Anisotropic oscillator with principal axes rotated by phi(t).

    Already quadratic: equilibria sit at the origin and theta = phi (up to
    mode-label branch), so theta_dot = phidot, which is also the Larmor
    compensation rate omega_L.  Where the trap is isotropic by the mode
    frame's degeneracy test, the frame holds theta, so theta_dot = 0.
    """
    m = cfg.m
    try:
        w1sq, w2sq = cfg.omega1**2, cfg.omega2**2
    except OverflowError:
        raise PresetDomainError("rotation: omega1**2 or omega2**2 overflows") from None
    masses = MassPair(m, m)
    # The test on the triple at phi = 0; it sees m^2 |w1^2 - w2^2| at every phi.
    isotropic = _angle_terms(StiffnessTriple(0.0, m * w1sq, m * w2sq), masses) is None
    phi_at, phi_dot = cfg.phi.value, cfg.phi.derivative
    # The products' leading factors, hoisted in left-to-right order; -amp is exact.
    k_amp, amp = -0.5 * m * (w1sq - w2sq), m * (w1sq - w2sq)

    @_per_time
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
        dk = -amp * math.cos(2.0 * phi) * phidot
        # d/dphi [w1^2 cos^2 + w2^2 sin^2] = (w2^2 - w1^2) sin(2 phi), and k2's is its negative
        s2 = amp * math.sin(2.0 * phi) * phidot
        return (dk, -s2 - dk, s2 - dk)

    return QuadraticSystem(
        masses=masses,
        stiffness=triple_at.__getitem__,
        stiffness_rate=stiffness_rate,
        equilibrium=lambda t: (0.0, 0.0),
        equilibrium_velocity=lambda t: (0.0, 0.0),
        theta_dot_override=(lambda t: 0.0) if isotropic else _per_time(phi_dot).__getitem__,
    )


# ---------------------------------------------------------------------------
# Two masses between walls, three springs with time-dependent stiffness.
# ---------------------------------------------------------------------------


@value_class
class SpringsConfig:
    k: ControlSchedule
    k1: ControlSchedule
    k2: ControlSchedule
    d: float
    masses: MassPair = MassPair(1.0, 1.0)

    def __post_init__(self):
        check_fields(self, positive=("d",))

    def potential(self, q1: float, q2: float, t: float) -> float:
        """U = k1 q1^2/2 + k2 (d - q2)^2/2 + k (q2 - q1)^2/2."""
        k, k1, k2 = self.k.value(t), self.k1.value(t), self.k2.value(t)
        return 0.5 * k1 * q1**2 + 0.5 * k2 * (self.d - q2) ** 2 + 0.5 * k * (q2 - q1) ** 2


def _schedule_triple(cfg) -> dict:
    """``stiffness`` and ``stiffness_rate`` read straight off the k, k1 and k2 schedules."""
    k, k1, k2 = cfg.k, cfg.k1, cfg.k2
    return {"stiffness": lambda t: StiffnessTriple(k.value(t), k1.value(t), k2.value(t)),
            "stiffness_rate": lambda t: (k.derivative(t), k1.derivative(t), k2.derivative(t))}


def build_springs(cfg: SpringsConfig) -> QuadraticSystem:
    """The equilibrium solves K q = (0, k2 d): q = X d/D with X = (k, k + k1) k2 and
    D = det K = k1 k2 + k (k1 + k2), and its rate is qdot = (d Xdot - q Ddot)/D, from
    that q: no D^2 or X Ddot to underflow where the triple is small but not singular.
    Both are of degree 0 in the triple and its rates, so where D is no normal float both
    are scaled by 2^-c, c the centre of the triple's exponents (k = k1 = k2 = 1e-170, 1e170 run);
    elsewhere they keep their own scale, whose bits a centred one moves on wide triples.
    Only these two views are singular, where D = 0; the triple is the schedules' own.
    """
    d, views = cfg.d, _schedule_triple(cfg)

    def solved(t: float) -> tuple:  # c, then (k, k1, k2), X and D in the scale 2^-c at t
        triple = cfg.k.value(t), cfg.k1.value(t), cfg.k2.value(t)
        exponents = [math.frexp(x)[1] for x in triple if x] or [0]
        for c in (0, (min(exponents) + max(exponents)) // 2):
            k, k1, k2 = (math.ldexp(x, -c) for x in triple)
            if 2.0 ** -1022 <= abs(D := k1 * k2 + k * (k1 + k2)) < math.inf:
                break
        if D == 0.0:
            raise SingularConfigurationError(
                f"singular spring configuration at t={t}: k1 k2 + k (k1 + k2) = 0")
        return c, (k, k1, k2), (k * k2, (k + k1) * k2), D

    def equilibrium(t: float) -> tuple:
        _, _, X, D = solved(t)
        return (X[0] / D * d, X[1] / D * d)

    def equilibrium_velocity(t: float) -> tuple:
        c, (k, k1, k2), X, D = solved(t)
        kd, k1d, k2d = (math.ldexp(r, -c) for r in views["stiffness_rate"](t))
        Dd = k1d * k2 + k1 * k2d + kd * (k1 + k2) + k * (k1d + k2d)
        Xd = (kd * k2 + k * k2d, (kd + k1d) * k2 + (k + k1) * k2d)
        return tuple((d * xd - x / D * d * Dd) / D for x, xd in zip(X, Xd))

    return QuadraticSystem(
        masses=cfg.masses,
        equilibrium=equilibrium,
        equilibrium_velocity=equilibrium_velocity,
        **views,
    )


# ---------------------------------------------------------------------------
# Raw-schedule system, mainly for the CLI.
# ---------------------------------------------------------------------------


@value_class
class CustomConfig:
    k: ControlSchedule
    k1: ControlSchedule
    k2: ControlSchedule
    masses: MassPair = MassPair(1.0, 1.0)
    q1_eq: ControlSchedule = 0.0
    q2_eq: ControlSchedule = 0.0

    def __post_init__(self):
        check_fields(self)


def build_custom(cfg: CustomConfig) -> QuadraticSystem:
    return QuadraticSystem(
        masses=cfg.masses,
        equilibrium=lambda t: (cfg.q1_eq.value(t), cfg.q2_eq.value(t)),
        equilibrium_velocity=lambda t: (
            cfg.q1_eq.derivative(t),
            cfg.q2_eq.derivative(t),
        ),
        **_schedule_triple(cfg),
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
