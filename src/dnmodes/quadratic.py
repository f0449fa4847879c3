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
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError
from .schedules import check_fields

__all__ = ["MassPair", "StiffnessTriple", "PhasePoint", "QuadraticSystem"]


@dataclass(frozen=True)
class MassPair:
    m1: float
    m2: float

    def __post_init__(self):
        check_fields(self, positive=("m1", "m2"))
        if not math.isfinite(self.m1 * self.m2):  # the mode frame takes sqrt(m1 m2)
            raise ConfigError(f"m1 * m2 overflows, got {self.m1} and {self.m2}")
        object.__setattr__(self, "sqrt1", math.sqrt(self.m1))
        object.__setattr__(self, "sqrt2", math.sqrt(self.m2))
        object.__setattr__(self, "sqrt12", math.sqrt(self.m1 * self.m2))

    def matrix(self) -> np.ndarray:
        return np.diag([self.m1, self.m2])

    def inverse_matrix(self) -> np.ndarray:
        return np.diag([1.0 / self.m1, 1.0 / self.m2])


@dataclass(frozen=True, init=False)
class StiffnessTriple:
    """Time-slice values (k, k1, k2); any entry may be negative.  Built at
    every RK stage, so ``__init__`` stores them in the instance dict and checks them."""

    k: float
    k1: float
    k2: float

    def __init__(self, k: float, k1: float, k2: float):
        d = self.__dict__
        d["k"] = k
        d["k1"] = k1
        d["k2"] = k2
        if not (math.isfinite(k) and math.isfinite(k1) and math.isfinite(k2)):
            name = next(n for n in ("k", "k1", "k2") if not math.isfinite(d[n]))
            raise ConfigError(f"stiffness {name} must be finite, got {d[name]}")

    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.k + self.k1, -self.k], [-self.k, self.k + self.k2]], dtype=float
        )


@dataclass(frozen=True)
class PhasePoint:
    """Phase-space point: lab frame holds (q, p), mode frame holds (Q, P)."""

    t: float
    q: tuple
    p: tuple
    frame: str = "lab"

    def __post_init__(self):
        if self.frame not in ("lab", "mode"):
            raise ConfigError(f"frame must be 'lab' or 'mode', got {self.frame!r}")
        object.__setattr__(self, "q", (float(self.q[0]), float(self.q[1])))
        object.__setattr__(self, "p", (float(self.p[0]), float(self.p[1])))
        if not all(math.isfinite(v) for v in (*self.q, *self.p)):
            raise ConfigError("phase-point components must be finite")

    def state(self) -> np.ndarray:
        return np.array([*self.q, *self.p], dtype=float)


@dataclass
class QuadraticSystem:
    """Masses plus callables giving stiffness and equilibrium along time.

    ``stiffness_rate`` and ``equilibrium_velocity`` are the closed-form
    rates of ``stiffness`` and ``equilibrium``; every builder supplies both.
    ``theta_dot_override`` is an optional closed form of the mode-angle
    rate.  ``larmor_rate`` is an optional Larmor compensation rate other
    than theta_dot; no preset sets it, and it stays because the benchmark's
    tracer wraps the field by name.  ``full_potential(q1, q2, t)`` is the
    untruncated potential when the builder knows it (used by verification
    oracles).  Instances are treated as immutable after construction; all
    evaluation methods are pure.
    """

    masses: MassPair
    stiffness: Callable[[float], StiffnessTriple]
    equilibrium: Callable[[float], tuple]
    equilibrium_velocity: Callable[[float], tuple]
    stiffness_rate: Callable[[float], tuple]
    theta_dot_override: Optional[Callable[[float], float]] = None
    larmor_rate: Optional[Callable[[float], float]] = None
    full_potential: Optional[Callable[[float, float, float], float]] = None
    label: str = "custom"
    extras: dict = field(default_factory=dict)

    # -- time-sliced data ---------------------------------------------------

    def stiffness_matrix_at(self, t: float) -> np.ndarray:
        return self.stiffness(t).matrix()

    # The two *_at methods only call their fields; perfbench/tracer.py
    # patches them by name.

    def stiffness_rate_at(self, t: float) -> tuple:
        """(dk/dt, dk1/dt, dk2/dt)."""
        return self.stiffness_rate(t)

    def equilibrium_velocity_at(self, t: float) -> tuple:
        return self.equilibrium_velocity(t)

    # -- lab-frame evaluation -----------------------------------------------

    def hamiltonian_value(self, x: PhasePoint) -> float:
        """H = p^T M^-1 p / 2 + (q - q0)^T K (q - q0) / 2 at x.t."""
        if x.frame != "lab":
            raise ConfigError("hamiltonian_value expects a lab-frame point")
        q0 = self.equilibrium(x.t)
        dq = np.array([x.q[0] - q0[0], x.q[1] - q0[1]])
        K = self.stiffness_matrix_at(x.t)
        kinetic = 0.5 * (x.p[0] ** 2 / self.masses.m1 + x.p[1] ** 2 / self.masses.m2)
        return float(kinetic + 0.5 * dq @ K @ dq)

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
