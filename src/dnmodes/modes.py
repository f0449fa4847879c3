"""Dynamical normal-mode decomposition of a 2x2 quadratic system.

The mass-weighted stiffness Ktil = M^(-1/2) K M^(-1/2) = [[a, -c], [-c, b]] is
diagonalized by a rotation through the mode angle theta,

    tan(2 theta) = 2c / (b - a) = (2k/sqrt(m1 m2)) / (k (1/m2 - 1/m1) + k2/m2 - k1/m1),

yielding squared mode frequencies (Omega1^2, Omega2^2) and the modal matrix
A = O^T M^(1/2) that maps lab displacements to mode coordinates
Q = A (q - q0) with momenta P = A^(-T) p.  A is fixed by theta and the masses:
the maps apply it in floats, and ``modal_matrix(dec.theta, masses)`` gives it
and its inverse as rows.  The modes decouple exactly when
theta is constant in time; a nonzero theta_dot couples them through an
angular-momentum-like term -theta_dot * (Q1 P2 - Q2 P1).

Mode labels follow branch continuity in theta (nearest multiple of pi/2 to
the reference), never frequency sorting, so that frequency crossings do not
masquerade as frame rotations; the default branch is (-pi/4, pi/4].  One
call gives a sample's frame: theta, cos theta, sin theta, Omega1^2, Omega2^2.
"""

from __future__ import annotations

import math
from typing import Optional

from .errors import ConfigError, ScheduleDomainError, ZeroFrequencyError
from .quadratic import MassPair, PhasePoint, QuadraticSystem, StiffnessTriple
from .schedules import fd_step, value_class

__all__ = [
    "ModeDecomposition",
    "SeparabilityReport",
    "EllipseGeometry",
    "MomentumShift",
    "mass_weighted_stiffness",
    "theta_at",
    "eigenfrequencies",
    "modal_matrix",
    "theta_dot_at",
    "drive_at",
    "drive_rate_at",
    "decompose_at",
    "to_mode_frame",
    "mode_state",
    "from_mode_frame",
    "effective_hamiltonian_value",
    "momentum_shift",
    "classify_separability",
    "ellipse_at",
]

# Relative threshold below which the tan(2 theta) numerator and denominator
# count as degenerate (any rotation diagonalizes).
EPS_DEGENERATE = 1e-12


@value_class
class ModeDecomposition:
    theta: float
    theta_dot: float
    omega1_sq: float
    omega2_sq: float

    def __init__(self, theta, theta_dot, omega1_sq, omega2_sq):  # one per sample
        self.__dict__.update(theta=theta, theta_dot=theta_dot, omega1_sq=omega1_sq,
                             omega2_sq=omega2_sq)


@value_class
class SeparabilityReport:
    max_abs_theta_dot: float
    separable: bool
    theta_samples: tuple
    stability: str  # "both-stable" | "transiently-unstable"
    analytic_case: Optional[str] = None


@value_class
class EllipseGeometry:
    center: tuple
    orientation: float
    radii: tuple  # entries are None where Omega_i^2 <= 0


@value_class
class MomentumShift:
    point: PhasePoint
    P0: tuple
    P0_dot: tuple
    centers: tuple


def mass_weighted_stiffness(K: StiffnessTriple, masses: MassPair) -> tuple:
    """Ktil = M^(-1/2) K M^(-1/2), as rows."""
    k, k1, k2 = K.k, K.k1, K.k2
    off = -k / masses.sqrt12
    return ((k + k1) / masses.m1, off), (off, (k + k2) / masses.m2)


def _angle_terms(K: StiffnessTriple, masses: MassPair, t=None) -> Optional[tuple]:
    """(num, den, e, r) of tan(2 theta) = num / den = 2c / (b - a) from the entries of
    Ktil, b - a grouped as k (1/m2 - 1/m1) + e with e = k2/m2 - k1/m1 (theta is constant
    at any k where e = 0) and r = hypot(num, den); None where Ktil is degenerate (any
    angle diagonalizes it): r <= EPS_DEGENERATE (1/m1 + 1/m2)(|k| + |k1| + |k2|).
    Raises ``FloatingPointError`` where num or den overflows (r is inf or NaN),
    naming the time t of the triple K when the caller gives it."""
    k, k1, k2 = K.k, K.k1, K.k2
    e = k2 / masses.m2 - k1 / masses.m1
    num, den = 2.0 * k / masses.sqrt12, k * masses.inv_diff + e
    r = math.hypot(num, den)
    if r > EPS_DEGENERATE * (masses.inv_sum * (abs(k) + abs(k1) + abs(k2))):
        return num, den, e, r
    # r <= (1/m1 + 1/m2)(|k| + |k1| + |k2|), so an infinite r meets an infinite
    # threshold, and a NaN r fails every test: both land here, off the common path.
    if not r < math.inf:
        at = "" if t is None else f" at t={t}"
        raise FloatingPointError(f"mode angle overflows: 2k/sqrt(m1 m2) = {num}, "
                                 f"k (1/m2 - 1/m1) + (k2/m2 - k1/m1) = {den}{at}")
    return None


def _frame(K: StiffnessTriple, masses: MassPair, branch_ref=None, t=None, theta=None) -> tuple:
    """(theta, cos theta, sin theta, Omega1^2, Omega2^2) of the stiffness K: theta
    on the branch (multiple of pi/2) nearest branch_ref when given, else on the
    default branch (-pi/4, pi/4], and held there where K is degenerate; a caller
    that fixes theta passes it instead.  t, the time of K, names an overflow."""
    if theta is None:
        terms = _angle_terms(K, masses, t)
        if terms is None:
            theta = 0.0 if branch_ref is None else branch_ref
        else:
            theta = 0.5 * math.atan2(terms[0], terms[1])
            half = 0.5 * math.pi
            if branch_ref is not None:
                theta += half * round((branch_ref - theta) / half)
            # The degenerate-denominator value -pi/4 (atan2 sign conventions) stays.
            elif theta > 0.25 * math.pi:
                theta -= half
            elif theta < -0.25 * math.pi:
                theta += half
    k = K.k
    a, b, cross = (k + K.k1) / masses.m1, (k + K.k2) / masses.m2, k / masses.sqrt12
    c, s, s2 = math.cos(theta), math.sin(theta), math.sin(2.0 * theta)
    return theta, c, s, a * c * c + b * s * s - cross * s2, a * s * s + b * c * c + cross * s2


def theta_at(K: StiffnessTriple, masses: MassPair, branch_ref: Optional[float] = None) -> float:
    """Mode angle, on the branch (multiple of pi/2) nearest branch_ref when given."""
    return _frame(K, masses, branch_ref)[0]


def eigenfrequencies(K: StiffnessTriple, masses: MassPair, theta: float) -> tuple:
    """(Omega1^2, Omega2^2) for the mode labels fixed by theta."""
    return _frame(K, masses, theta=theta)[3:]


def _mode_frames(sys: QuadraticSystem):
    """``frame(t) -> (theta, cos theta, sin theta, Omega1^2, Omega2^2)`` along
    one walk forward in time: the first call's theta is on the default branch,
    each later one on the branch of the call before.  A call whose stiffness is
    the triple object of the call before (a view may keep its value per time)
    returns that call's frame, which is what :func:`_frame` gives the same
    triple on its own branch; any other triple gets one :func:`_frame`."""
    stiffness, masses = sys.stiffness, sys.masses
    theta = triple = values = None

    def frame(t: float) -> tuple:
        nonlocal theta, triple, values
        if (K := stiffness(t)) is not triple:
            values = _frame(K, masses, theta, t)
            theta, triple = values[0], K
        return values

    return frame


def modal_matrix(theta: float, masses: MassPair) -> tuple:
    """(A, A_inv) as rows, with A = O^T M^(1/2); det A = sqrt(m1 m2) always."""
    c = math.cos(theta)
    s = math.sin(theta)
    r1 = masses.sqrt1
    r2 = masses.sqrt2
    A = ((r1 * c, r2 * s), (-r1 * s, r2 * c))
    A_inv = ((c / r1, -s / r1), (s / r2, c / r2))
    return A, A_inv


def _modal_product(c: float, s: float, w1: float, w2: float, x1: float, x2: float) -> tuple:
    """O(theta)^T diag(w) x with (c, s) = (cos, sin)(theta): A x for w = (sqrt m1,
    sqrt m2), A^(-T) x for w = (1/sqrt m1, 1/sqrt m2); A as in :func:`modal_matrix`."""
    return (w1 * c * x1 + w2 * s * x2, -w1 * s * x1 + w2 * c * x2)


def theta_dot_at(
    sys: QuadraticSystem, t: float, triple: Optional[StiffnessTriple] = None
) -> float:
    """Rate of the mode angle.

    The preset's closed form when it supplies one, else the chain rule on
    :func:`_angle_terms`' atan2, in which the k (1/m2 - 1/m1) terms cancel:
    theta_dot = (kdot e - k edot) / (sqrt(m1 m2) r^2), exactly 0 where e and
    edot are, divided by r twice instead of by r^2, which can overflow.  At a
    degenerate instant (:func:`_angle_terms`), a difference quotient of the
    unwrapped angle from t - h on (:func:`_difference`).  A caller that
    already holds the stiffness triple at t passes it as ``triple``, so the
    chain rule does not evaluate the stiffness again (on the ion pair, a root
    solve).
    """
    if sys.theta_dot_override is not None:
        return sys.theta_dot_override(t)
    if triple is None:
        triple = sys.stiffness(t)
    m = sys.masses
    if (terms := _angle_terms(triple, m, t)) is not None:
        (_, _, e, r), (dk, dk1, dk2) = terms, sys.stiffness_rate(t)
        return (dk * (e / r) - (triple.k / r) * (dk2 / m.m2 - dk1 / m.m1)) / m.sqrt12 / r
    # Each theta on the branch of the one before: theta(t) is the degenerate
    # value 0, from which the two neighbours may sit on a rounding tie at +-pi/4.
    lo, hi, d = _difference(
        lambda s, ref: theta_at(sys.stiffness(s), sys.masses, branch_ref=ref), t, -1)
    return (hi - lo) / d


def _difference(g, t: float, first: int) -> tuple:
    """(g(a), g(b), b - a) at two times a < b for a difference quotient at t
    that never evaluates g(t), which is degenerate for theta: t -+ h with
    h = fd_step(t), from s = first * h on; where g raises ``ScheduleDomainError``
    (a table ends within h of t), t + s and t + 2s on the side s where g is
    defined.  ``g(time, ref)`` gets as ref the value it gave before, or None."""
    s = first * fd_step(t)
    try:
        near = g(t + s, None)
        try:
            far, d = g(t - s, near), -2.0 * s
        except ScheduleDomainError:
            far, d = g(t + 2.0 * s, near), s
    except ScheduleDomainError:
        near = g(t - s, None)
        far, d = g(t - 2.0 * s, near), -s
    return (far, near, -d) if d < 0 else (near, far, d)


def drive_at(sys: QuadraticSystem, t: float, theta: float) -> tuple:
    """Mode-frame momentum drive P0 = A(theta) qdot0(t), with A as in
    :func:`modal_matrix`."""
    m = sys.masses
    return _modal_product(math.cos(theta), math.sin(theta), m.sqrt1, m.sqrt2,
                          *sys.equilibrium_velocity(t))


def drive_rate_at(sys: QuadraticSystem, t: float, branch_ref: float) -> tuple:
    """Difference quotient dP0/dt (:func:`_difference`, evaluated from t + h on),
    following theta on the branch nearest branch_ref."""
    (b1, b2), (a1, a2), d = _difference(
        lambda s, _: drive_at(sys, s, theta_at(sys.stiffness(s), sys.masses, branch_ref)), t, 1)
    return ((a1 - b1) / d, (a2 - b2) / d)


def decompose_at(
    sys: QuadraticSystem, t: float, branch_ref: Optional[float] = None
) -> ModeDecomposition:
    """The mode frame at t, ``ModeDecomposition(theta, theta_dot, omega1_sq, omega2_sq)``,
    from one stiffness evaluation: theta_dot reuses the triple.  The modal matrix A
    and its inverse are ``modal_matrix(dec.theta, sys.masses)``."""
    triple = sys.stiffness(t)
    theta, _, _, o1, o2 = _frame(triple, sys.masses, branch_ref, t)
    return ModeDecomposition(theta, theta_dot_at(sys, t, triple=triple), o1, o2)


def to_mode_frame(dec: ModeDecomposition, x: PhasePoint, sys: QuadraticSystem) -> PhasePoint:
    """Q = A (q - q0); P = A^(-T) p."""
    if x.frame != "lab":
        raise ConfigError("to_mode_frame expects a lab-frame point")
    Q1, Q2, P1, P2 = mode_state(sys, x.t, math.cos(dec.theta), math.sin(dec.theta), *x.q, *x.p)
    return PhasePoint(t=x.t, q=(Q1, Q2), p=(P1, P2), frame="mode")


def mode_state(sys: QuadraticSystem, t: float, c: float, s: float, q1, q2, p1, p2) -> tuple:
    """(Q1, Q2, P1, P2) of the lab state (q, p) at t, (c, s) = (cos, sin)(theta), in
    floats: Q = A (q - q0), P = A^(-T) p."""
    e1, e2 = sys.equilibrium(t)
    r1, r2 = sys.masses.sqrt1, sys.masses.sqrt2
    return (*_modal_product(c, s, r1, r2, q1 - e1, q2 - e2),
            *_modal_product(c, s, 1.0 / r1, 1.0 / r2, p1, p2))


def from_mode_frame(dec: ModeDecomposition, x: PhasePoint, sys: QuadraticSystem) -> PhasePoint:
    """Exact inverse of :func:`to_mode_frame`, in floats: q = A^-1 Q + q0 and
    p = A^T P, with A as in :func:`modal_matrix`."""
    if x.frame != "mode":
        raise ConfigError("from_mode_frame expects a mode-frame point")
    c, s = math.cos(dec.theta), math.sin(dec.theta)
    r1, r2 = sys.masses.sqrt1, sys.masses.sqrt2
    e1, e2 = sys.equilibrium(x.t)
    (Q1, Q2), (P1, P2) = x.q, x.p
    q = ((c * Q1 - s * Q2) / r1 + e1, (s * Q1 + c * Q2) / r2 + e2)
    p = (r1 * (c * P1 - s * P2), r2 * (s * P1 + c * P2))
    return PhasePoint(t=x.t, q=q, p=p, frame="lab")


def effective_hamiltonian_value(
    dec: ModeDecomposition, sys: QuadraticSystem, x: PhasePoint
) -> float:
    """Mode-frame Hamiltonian including both inertial terms.

    Htil = sum_i (P_i^2 + Omega_i^2 Q_i^2)/2 - (P1,P2) A qdot0
           - theta_dot (Q1 P2 - Q2 P1)
    """
    if x.frame != "mode":
        raise ConfigError("effective_hamiltonian_value expects a mode-frame point")
    Q1, Q2 = x.q
    P1, P2 = x.p
    drive = drive_at(sys, x.t, dec.theta)
    return float(
        0.5 * (P1 * P1 + P2 * P2 + dec.omega1_sq * Q1 * Q1 + dec.omega2_sq * Q2 * Q2)
        - (P1 * drive[0] + P2 * drive[1])
        - dec.theta_dot * (Q1 * P2 - Q2 * P1)
    )


def momentum_shift(dec: ModeDecomposition, sys: QuadraticSystem, x: PhasePoint) -> MomentumShift:
    """Shift P by P0 = A qdot0, turning the momentum drive into displaced centers.

    Centers are -P0dot_i / Omega_i^2, so a zero squared frequency raises
    :class:`ZeroFrequencyError`; the drive alone is :func:`drive_at`.
    """
    if x.frame != "mode":
        raise ConfigError("momentum_shift expects a mode-frame point")
    P0 = drive_at(sys, x.t, dec.theta)
    P0_dot = drive_rate_at(sys, x.t, dec.theta)
    shifted = PhasePoint(t=x.t, q=x.q, p=(x.p[0] - P0[0], x.p[1] - P0[1]), frame="mode")
    if dec.omega1_sq == 0.0 or dec.omega2_sq == 0.0:
        raise ZeroFrequencyError("displaced-oscillator centers undefined at zero squared frequency")
    centers = (-P0_dot[0] / dec.omega1_sq, -P0_dot[1] / dec.omega2_sq)
    return MomentumShift(point=shifted, P0=P0, P0_dot=P0_dot, centers=centers)


def _detect_analytic_case(masses: MassPair, triples) -> Optional[str]:
    """Name the sufficient decoupling condition if one visibly applies to
    the stiffness triples sampled over the window."""
    scale = max(
        max(abs(tr.k), abs(tr.k1), abs(tr.k2)) for tr in triples
    )
    tol = 1e-9 * scale
    if all(abs(tr.k) <= tol for tr in triples):
        return "k=0"
    if masses.m1 == masses.m2 and all(
        abs(tr.k1 - tr.k2) <= tol for tr in triples
    ):
        return "k1=k2, m1=m2"
    if all(abs(tr.k) > tol for tr in triples):
        c1s = [tr.k1 / tr.k for tr in triples]
        c2s = [tr.k2 / tr.k for tr in triples]
        span1 = max(c1s) - min(c1s)
        span2 = max(c2s) - min(c2s)
        cscale = max(1.0, max(abs(c) for c in c1s + c2s))
        if span1 <= 1e-9 * cscale and span2 <= 1e-9 * cscale:
            if abs(c1s[0] - 1.0) <= 1e-9 and abs(c2s[0] - 1.0) <= 1e-9:
                return "k1=k2=k"
            return "k1=c1*k, k2=c2*k"
    return None


def _sample_times(t0: float, t1: float, n: int) -> list:
    """i step + t0 with step = (t1 - t0)/(n - 1), and t1 last: the bits of ``np.linspace(t0,
    t1, n)``, whose (i/(n - 1))(t1 - t0) + t0 this takes where the step underflows to 0."""
    span = t1 - t0
    step = span / (n - 1)
    return [(i * step if step else i / (n - 1) * span) + t0 for i in range(n - 1)] + [t1]


def classify_separability(
    sys: QuadraticSystem,
    window: tuple,
    n_samples: int = 200,
    tol_sep: float = 1e-9,
) -> SeparabilityReport:
    """Sample theta over the window and decide separability from max |theta_dot|; the
    report's theta_samples are the (t, theta) pairs, and the caller keeps the window."""
    if n_samples < 2:
        raise ConfigError("classify_separability needs n_samples >= 2")
    t0, t1 = window
    # The loop keeps numpy times and evaluates theta_dot without its triple.
    # On numpy times the ion pair caches an np.float64 root, and `separable`
    # becomes the numpy bool behind the phase-gate `classify` failure that
    # perfbench/tests pins (test_pinned_layer_counts[survey-phase-gate]).
    # The loop's numpy triple in theta_dot would make custom k1 = 1e300
    # overflow (test_stiffness_near_the_float_limit_analyzes_and_classifies).
    import numpy as np
    theta_samples = []
    triples = []
    branch = None
    max_rate = 0.0
    stable = True
    # Raise where numpy would warn, on this thread (the state is per thread).
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        for t in np.linspace(t0, t1, n_samples):
            triple = sys.stiffness(t)
            triples.append(triple)
            branch, _, _, o1, o2 = _frame(triple, sys.masses, branch, t)
            theta_samples.append((float(t), branch))
            if o1 <= 0.0 or o2 <= 0.0:
                stable = False
            max_rate = max(max_rate, abs(theta_dot_at(sys, float(t))))
    return SeparabilityReport(
        max_abs_theta_dot=max_rate,
        separable=max_rate <= tol_sep,
        theta_samples=tuple(theta_samples),
        stability="both-stable" if stable else "transiently-unstable",
        analytic_case=_detect_analytic_case(sys.masses, triples),
    )


def ellipse_at(dec: ModeDecomposition, sys: QuadraticSystem, t: float) -> EllipseGeometry:
    """Iso-potential ellipse of the mass-weighted stiffness at time t."""
    radii = tuple(
        1.0 / math.sqrt(o) if o > 0.0 else None
        for o in (dec.omega1_sq, dec.omega2_sq)
    )
    return EllipseGeometry(
        center=tuple(sys.equilibrium(t)), orientation=dec.theta, radii=radii
    )
