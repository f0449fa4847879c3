"""Dynamical normal-mode decomposition of a 2x2 quadratic system.

The mass-weighted stiffness Ktil = M^(-1/2) K M^(-1/2) is diagonalized by a
rotation through the mode angle theta,

    tan(2 theta) = 2 k sqrt(m1 m2) / (m1 (k + k2) - m2 (k + k1)),

yielding squared mode frequencies (Omega1^2, Omega2^2) and the modal matrix
A = O^T M^(1/2) that maps lab displacements to mode coordinates
Q = A (q - q0) with momenta P = A^(-T) p.  The modes decouple exactly when
theta is constant in time; a nonzero theta_dot couples them through an
angular-momentum-like term -theta_dot * (Q1 P2 - Q2 P1).

Mode labels follow branch continuity in theta (nearest multiple of pi/2 to
the reference), never frequency sorting, so that frequency crossings do not
masquerade as frame rotations; the default branch is (-pi/4, pi/4].  One
call gives a sample's frame: theta, cos theta, sin theta, Omega1^2, Omega2^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, ZeroFrequencyError
from .quadratic import MassPair, PhasePoint, QuadraticSystem, StiffnessTriple
from .schedules import fd_step

__all__ = [
    "ModeDecomposition",
    "SeparabilityReport",
    "EllipseGeometry",
    "MomentumShift",
    "mass_weighted_stiffness",
    "theta_at",
    "eigenfrequencies",
    "rotated_frequencies",
    "modal_matrix",
    "theta_dot_at",
    "drive_at",
    "drive_rate_at",
    "larmor_rate_at",
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


@dataclass(frozen=True)
class ModeDecomposition:
    t: float
    theta: float
    theta_dot: float
    omega1_sq: float
    omega2_sq: float
    A: np.ndarray
    A_inv: np.ndarray


@dataclass(frozen=True)
class SeparabilityReport:
    window: tuple
    max_abs_theta_dot: float
    separable: bool
    theta_samples: tuple
    stability: str  # "both-stable" | "transiently-unstable"
    analytic_case: Optional[str] = None


@dataclass(frozen=True)
class EllipseGeometry:
    center: tuple
    orientation: float
    radii: tuple  # entries are None where Omega_i^2 <= 0


@dataclass(frozen=True)
class MomentumShift:
    point: PhasePoint
    P0: tuple
    P0_dot: tuple
    centers: Optional[tuple]


def mass_weighted_stiffness(K: StiffnessTriple, masses: MassPair) -> np.ndarray:
    """Ktil = M^(-1/2) K M^(-1/2)."""
    k, k1, k2 = K.k, K.k1, K.k2
    off = -k / masses.sqrt12
    return np.array(
        [[(k + k1) / masses.m1, off], [off, (k + k2) / masses.m2]], dtype=float
    )


def _frame(K: StiffnessTriple, masses: MassPair, branch_ref=None, theta=None) -> tuple:
    """(theta, cos theta, sin theta, Omega1^2, Omega2^2) of the stiffness K: theta
    on the branch (multiple of pi/2) nearest branch_ref when given, else on the
    default branch (-pi/4, pi/4]; a caller that fixes theta passes it instead."""
    k, k1, k2 = K.k, K.k1, K.k2
    m1, m2, r12 = masses.m1, masses.m2, masses.sqrt12
    if theta is None:
        num = 2.0 * k * r12
        den = m1 * (k + k2) - m2 * (k + k1)
        if math.hypot(num, den) <= EPS_DEGENERATE * ((m1 + m2) * (abs(k) + abs(k1) + abs(k2))):
            # Degenerate mass-weighted stiffness: any angle diagonalizes.
            theta = 0.0 if branch_ref is None else branch_ref
        else:
            theta = 0.5 * math.atan2(num, den)
            half = 0.5 * math.pi
            if branch_ref is not None:
                theta += half * round((branch_ref - theta) / half)
            # The degenerate-denominator value -pi/4 (atan2 sign conventions) stays.
            elif theta > 0.25 * math.pi:
                theta -= half
            elif theta < -0.25 * math.pi:
                theta += half
    a, b, cross = (k + k1) / m1, (k + k2) / m2, k / r12
    c, s, s2 = math.cos(theta), math.sin(theta), math.sin(2.0 * theta)
    return theta, c, s, a * c * c + b * s * s - cross * s2, a * s * s + b * c * c + cross * s2


def theta_at(K: StiffnessTriple, masses: MassPair, branch_ref: Optional[float] = None) -> float:
    """Mode angle, on the branch (multiple of pi/2) nearest branch_ref when given."""
    return _frame(K, masses, branch_ref)[0]


def rotated_frequencies(K: StiffnessTriple, masses: MassPair, theta: float) -> tuple:
    """(cos theta, sin theta, Omega1^2, Omega2^2) for the mode labels fixed by theta."""
    return _frame(K, masses, theta=theta)[1:]


def eigenfrequencies(K: StiffnessTriple, masses: MassPair, theta: float) -> tuple:
    """(Omega1^2, Omega2^2) for the mode labels fixed by theta."""
    return _frame(K, masses, theta=theta)[3:]


def _mode_frames(sys: QuadraticSystem):
    """``frame(t) -> (theta, cos theta, sin theta, Omega1^2, Omega2^2)`` along
    one walk forward in time, one :func:`_frame` per call: the first call's theta
    is on the default branch, each later one on the branch of the call before."""
    stiffness, masses = sys.stiffness, sys.masses
    theta = None

    def frame(t: float) -> tuple:
        nonlocal theta
        values = _frame(stiffness(t), masses, theta)
        theta = values[0]
        return values

    return frame


def modal_matrix(theta: float, masses: MassPair) -> tuple:
    """(A, A_inv) with A = O^T M^(1/2); det A = sqrt(m1 m2) always."""
    c = math.cos(theta)
    s = math.sin(theta)
    r1 = masses.sqrt1
    r2 = masses.sqrt2
    A = np.array([[r1 * c, r2 * s], [-r1 * s, r2 * c]])
    A_inv = np.array([[c / r1, -s / r1], [s / r2, c / r2]])
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
    the atan2 expression from the stiffness and its rate.  At a degenerate
    instant (:func:`_frame`'s test, whose hypot cannot overflow), a central
    difference of the unwrapped angle, on the branch of theta(t - h).  A
    caller that already holds the stiffness triple at t passes it as
    ``triple``, so the chain rule does not evaluate the stiffness again (on
    the ion pair, a root solve).
    """
    if sys.theta_dot_override is not None:
        return sys.theta_dot_override(t)
    if triple is None:
        triple = sys.stiffness(t)
    m = sys.masses
    k, k1, k2 = triple.k, triple.k1, triple.k2
    num, den = 2.0 * k * m.sqrt12, m.m1 * (k + k2) - m.m2 * (k + k1)
    if math.hypot(num, den) > EPS_DEGENERATE * ((m.m1 + m.m2) * (abs(k) + abs(k1) + abs(k2))):
        dk, dk1, dk2 = sys.stiffness_rate(t)
        num_dot = 2.0 * dk * m.sqrt12
        den_dot = m.m1 * (dk + dk2) - m.m2 * (dk + dk1)
        return 0.5 * (num_dot * den - num * den_dot) / (num * num + den * den)
    # Anchored at t - h: theta(t) is the degenerate value 0, from which the
    # two neighbours may sit on a rounding tie at +-pi/4.
    h = fd_step(t)
    thm = theta_at(sys.stiffness(t - h), sys.masses)
    thp = theta_at(sys.stiffness(t + h), sys.masses, branch_ref=thm)
    return (thp - thm) / (2.0 * h)


def drive_at(sys: QuadraticSystem, t: float, theta: float) -> tuple:
    """Mode-frame momentum drive P0 = A(theta) qdot0(t), with A as in
    :func:`modal_matrix`."""
    m = sys.masses
    return _modal_product(math.cos(theta), math.sin(theta), m.sqrt1, m.sqrt2,
                          *sys.equilibrium_velocity_at(t))


def drive_rate_at(sys: QuadraticSystem, t: float, branch_ref: float) -> tuple:
    """Central-difference dP0/dt, following theta on the branch nearest branch_ref."""
    h = fd_step(t)
    (a1, a2), (b1, b2) = (drive_at(sys, s, theta_at(sys.stiffness(s), sys.masses, branch_ref))
                          for s in (t + h, t - h))
    return ((a1 - b1) / (2.0 * h), (a2 - b2) / (2.0 * h))


def larmor_rate_at(sys: QuadraticSystem, t: float, theta_dot: Optional[float] = None) -> float:
    """Larmor compensation rate omega_L: ``sys.larmor_rate`` when the system
    sets one (no preset does), else theta_dot (evaluated unless the caller
    has it)."""
    if sys.larmor_rate is not None:
        return sys.larmor_rate(t)
    return theta_dot_at(sys, t) if theta_dot is None else theta_dot


def decompose_at(
    sys: QuadraticSystem, t: float, branch_ref: Optional[float] = None
) -> ModeDecomposition:
    """theta, theta_dot, the squared mode frequencies and A at t, from one
    stiffness evaluation: theta_dot reuses the triple."""
    triple = sys.stiffness(t)
    theta, _, _, o1, o2 = _frame(triple, sys.masses, branch_ref)
    A, A_inv = modal_matrix(theta, sys.masses)
    return ModeDecomposition(
        t=t,
        theta=theta,
        theta_dot=theta_dot_at(sys, t, triple=triple),
        omega1_sq=o1,
        omega2_sq=o2,
        A=A,
        A_inv=A_inv,
    )


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
    """Exact inverse of :func:`to_mode_frame`."""
    if x.frame != "mode":
        raise ConfigError("from_mode_frame expects a mode-frame point")
    q0 = sys.equilibrium(x.t)
    q = dec.A_inv @ np.array(x.q) + np.array(q0)
    p = dec.A.T @ np.array(x.p)
    return PhasePoint(t=x.t, q=tuple(q), p=tuple(p), frame="lab")


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


def momentum_shift(
    dec: ModeDecomposition,
    sys: QuadraticSystem,
    x: PhasePoint,
    with_centers: bool = True,
) -> MomentumShift:
    """Shift P by P0 = A qdot0, turning the momentum drive into displaced centers.

    Centers are -P0dot_i / Omega_i^2; requesting them with a zero squared
    frequency raises :class:`ZeroFrequencyError`.
    """
    if x.frame != "mode":
        raise ConfigError("momentum_shift expects a mode-frame point")
    P0 = drive_at(sys, x.t, dec.theta)
    P0_dot = drive_rate_at(sys, x.t, dec.theta)
    shifted = PhasePoint(
        t=x.t, q=x.q, p=(x.p[0] - P0[0], x.p[1] - P0[1]), frame="mode"
    )
    centers = None
    if with_centers:
        if dec.omega1_sq == 0.0 or dec.omega2_sq == 0.0:
            raise ZeroFrequencyError(
                "displaced-oscillator centers undefined at zero squared frequency"
            )
        centers = (-P0_dot[0] / dec.omega1_sq, -P0_dot[1] / dec.omega2_sq)
    return MomentumShift(
        point=shifted, P0=P0, P0_dot=P0_dot, centers=centers
    )


def _detect_analytic_case(masses: MassPair, triples) -> Optional[str]:
    """Name the sufficient decoupling condition if one visibly applies to
    the stiffness triples sampled over the window."""
    scale = max(
        max(abs(tr.k), abs(tr.k1), abs(tr.k2)) for tr in triples
    )
    if scale == 0.0:
        return "k=0"
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


def classify_separability(
    sys: QuadraticSystem,
    window: tuple,
    n_samples: int = 200,
    tol_sep: float = 1e-9,
) -> SeparabilityReport:
    """Sample theta over the window and decide separability from max |theta_dot|."""
    if n_samples < 2:
        raise ConfigError("classify_separability needs n_samples >= 2")
    t0, t1 = window
    # The loop keeps numpy times and evaluates theta_dot without its triple.
    # On numpy times the ion pair caches an np.float64 root, and `separable`
    # becomes the numpy bool behind the phase-gate `classify` failure that
    # perfbench/tests pins (test_pinned_layer_counts[survey-phase-gate]).
    # The loop's numpy triple in theta_dot would make custom k1 = 1e300
    # overflow (test_stiffness_near_the_float_limit_analyzes_and_classifies).
    times = np.linspace(t0, t1, n_samples)
    theta_samples = []
    triples = []
    branch = None
    max_rate = 0.0
    stable = True
    for t in times:
        triple = sys.stiffness(t)
        triples.append(triple)
        branch, _, _, o1, o2 = _frame(triple, sys.masses, branch)
        theta_samples.append((float(t), branch))
        if o1 <= 0.0 or o2 <= 0.0:
            stable = False
        max_rate = max(max_rate, abs(theta_dot_at(sys, float(t))))
    return SeparabilityReport(
        window=(t0, t1),
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
