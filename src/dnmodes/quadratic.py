"""Harmonically approximated two-coordinate system.

Represents the masses, the time-sliced stiffness matrix

    K(t) = [[k + k1, -k], [-k, k + k2]],

and the moving equilibrium trajectory, and evaluates the lab-frame
Hamiltonian and forces for displacements around that equilibrium.
Purely time-dependent additive energy terms are dropped; they only shift
the overall energy offset.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Callable, Mapping, Optional

from .errors import ConfigError, PresetDomainError
from .schedules import check_fields, value_class

__all__ = ["MassPair", "StiffnessTriple", "PhasePoint", "QuadraticSystem"]


@value_class
class MassPair:
    m1: float
    m2: float

    def __post_init__(self):
        check_fields(self, positive=("m1", "m2"))
        m1, m2 = self.m1, self.m2
        for name, value in (("m1 * m2", m1 * m2), ("1/m1 + 1/m2", 1.0 / m1 + 1.0 / m2)):
            if not 0.0 < value < math.inf:  # Ktil takes sqrt(m1 m2), 1/m1 and 1/m2
                raise ConfigError(f"{name} {'over' if value else 'under'}flows, got {m1} and {m2}")
        for name, value in (("sqrt1", math.sqrt(m1)), ("sqrt2", math.sqrt(m2)),
                            ("sqrt12", math.sqrt(m1 * m2)), ("inv_diff", 1.0 / m2 - 1.0 / m1),
                            ("inv_sum", 1.0 / m1 + 1.0 / m2)):
            object.__setattr__(self, name, value)  # keeps the instance's compact attributes


class _TripleSlots:
    """The fields of ``StiffnessTriple`` as slots, on a base class: ``value_class`` reads a
    class's own attributes as field defaults, and a slot is one."""

    __slots__ = ("k", "k1", "k2")


@value_class
class StiffnessTriple(_TripleSlots):
    """Time-slice values (k, k1, k2); any entry may be negative.  Built at every RK stage and
    kept per time by rotation, so ``__init__`` sets them in slots (88 B) and checks them; a
    non-finite entry is an overflow, as configs are checked finite (``PresetDomainError``)."""

    __slots__ = ()
    k: float
    k1: float
    k2: float

    def __init__(self, k: float, k1: float, k2: float):
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "k1", k1)
        object.__setattr__(self, "k2", k2)
        if not (math.isfinite(k) and math.isfinite(k1) and math.isfinite(k2)):
            name = next(n for n in ("k", "k1", "k2") if not math.isfinite(getattr(self, n)))
            raise PresetDomainError(f"stiffness {name} must be finite, got {getattr(self, name)}")

    def matrix(self) -> tuple:
        return ((self.k + self.k1, -self.k), (-self.k, self.k + self.k2))


@value_class
class PhasePoint:
    """Phase-space point: lab frame holds (q, p), mode frame holds (Q, P)."""

    t: float
    q: tuple
    p: tuple
    frame: str = "lab"

    def __init__(self, t: float, q: tuple, p: tuple, frame: str = "lab"):
        if frame not in ("lab", "mode"):
            raise ConfigError(f"frame must be 'lab' or 'mode', got {frame!r}")
        q, p = (float(q[0]), float(q[1])), (float(p[0]), float(p[1]))
        if not all(math.isfinite(v) for v in (*q, *p)):
            raise ConfigError("phase-point components must be finite")
        self.__dict__.update(t=t, q=q, p=p, frame=frame)


@value_class
class QuadraticSystem:
    """Masses plus callables giving stiffness and equilibrium along time.

    ``stiffness_rate`` and ``equilibrium_velocity`` are the closed-form
    rates of ``stiffness`` and ``equilibrium``; every builder supplies both.
    ``theta_dot_override`` is an optional closed form of the mode-angle
    rate, which is also the Larmor compensation rate.  ``full_potential(q1,
    q2, t)`` is the untruncated potential when the builder knows it (used by
    verification oracles).  Instances are treated as immutable after
    construction; all evaluation methods are pure.  A view may keep its value
    per time (rotation's stiffness at every time asked, for the life of the
    system, about 160 B a time; the ion pair's at the last time and root); it
    then returns the same object again, with the bits of a fresh evaluation,
    whatever the order or the thread of the calls.
    """

    masses: MassPair
    stiffness: Callable[[float], StiffnessTriple]
    equilibrium: Callable[[float], tuple]
    equilibrium_velocity: Callable[[float], tuple]
    stiffness_rate: Callable[[float], tuple]
    theta_dot_override: Optional[Callable[[float], float]] = None
    full_potential: Optional[Callable[[float, float, float], float]] = None
    label: str = "custom"
    extras: Mapping = MappingProxyType({})  # read-only, so no instance shares a mutable default
    # Not a field and never set: perfbench/tracer.py reads it on every system.
    larmor_rate = None
    __setattr__ = object.__setattr__  # assignable: perfbench/tracer.py wraps each view

    # -- time-sliced data ---------------------------------------------------

    # The two *_at methods only call their fields; perfbench/tracer.py
    # patches them by name.

    def stiffness_rate_at(self, t: float) -> tuple:
        """(dk/dt, dk1/dt, dk2/dt)."""
        return self.stiffness_rate(t)

    def equilibrium_velocity_at(self, t: float) -> tuple:
        return self.equilibrium_velocity(t)

    # -- lab-frame evaluation -----------------------------------------------

    def hamiltonian_value(self, x: PhasePoint) -> float:
        """H = p^T M^-1 p / 2 + (q - q0)^T K (q - q0) / 2 at x.t, in floats:
        d^T K d = k1 d1^2 + k2 d2^2 + k (d1 - d2)^2 with d = q - q0."""
        if x.frame != "lab":
            raise ConfigError("hamiltonian_value expects a lab-frame point")
        (e1, e2), tr = self.equilibrium(x.t), self.stiffness(x.t)
        (p1, p2), d1, d2 = x.p, x.q[0] - e1, x.q[1] - e2
        kinetic = p1 * p1 / self.masses.m1 + p2 * p2 / self.masses.m2
        return 0.5 * (kinetic + tr.k1 * d1 * d1 + tr.k2 * d2 * d2 + tr.k * (d1 - d2) * (d1 - d2))

    def force(self, t: float, q1: float, q2: float) -> tuple:
        """-K(t) (q - q0(t)) for the lab coordinates (q1, q2)."""
        q0 = self.equilibrium(t)
        tr = self.stiffness(t)
        d1 = q1 - q0[0]
        d2 = q2 - q0[1]
        return (-((tr.k + tr.k1) * d1 - tr.k * d2), -(-tr.k * d1 + (tr.k + tr.k2) * d2))

    def force_at(self, x: PhasePoint) -> tuple:
        """-K(t) (q - q0(t))."""
        if x.frame != "lab":
            raise ConfigError("force_at expects a lab-frame point")
        return self.force(x.t, *x.q)
