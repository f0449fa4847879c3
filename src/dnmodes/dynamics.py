"""Fixed-step integration of Hamilton's equations in both frames.

The lab frame integrates qdot = M^-1 p, pdot = -K(t)(q - q0(t)); the mode
frame integrates the effective Hamiltonian including the momentum drive
-(P1,P2) A qdot0 and the rotation coupling -theta_dot * L_z (plus the
optional Larmor compensation terms).  RK4 is the default everywhere;
velocity Verlet is offered for the lab frame only.  All coefficients are
evaluated fresh at every RK stage time so 4th-order accuracy survives
time-dependent schedules.

The steppers and the lab-to-mode map work on plain Python floats: a stage
state is a 4-tuple of floats, and stage times are Python floats taken from
the step grid with ``tolist()``, so schedules, root solves and the mode
angle never see numpy scalars.  Per sample the map evaluates only the
stiffness, the threaded mode angle and the equilibrium, no theta_dot.  Each
step's state is stored as one row of the trajectory's states array.  A
state that turns non-finite inside a step raises ``FloatingPointError``, as
numpy's overflow does under the command line's error state; a finite state
beyond ``DIVERGENCE_GUARD`` raises ``DivergenceError`` with the partial run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DivergenceError
from .modes import (
    decompose_at,
    drive_at,
    drive_rate_at,
    effective_hamiltonian_value,
    eigenfrequencies,
    larmor_rate_at,
    mode_state,
    theta_at,
    theta_dot_at,
)
from .quadratic import PhasePoint, QuadraticSystem

__all__ = [
    "IntegratorSpec",
    "Trajectory",
    "FrameEquivalenceReport",
    "EnergyAudit",
    "integrate_lab",
    "integrate_modes",
    "integrate_modes_shifted",
    "frame_equivalence_check",
    "energy_audit",
    "mode_energy_series",
    "write_trajectory_csv",
]

DIVERGENCE_GUARD = 1e12
MAX_SAMPLES = 20_000_000


@dataclass(frozen=True)
class IntegratorSpec:
    dt: float
    t0: float
    t1: float
    method: str = "rk4"

    def __post_init__(self):
        if self.method not in ("rk4", "velocity-verlet"):
            raise ConfigError(f"unknown integrator {self.method!r}")
        if not (self.dt > 0):
            raise ConfigError("dt must be positive")
        if self.t1 <= self.t0:
            raise ConfigError("window must have t1 > t0")
        span = self.t1 - self.t0
        if span / self.dt > MAX_SAMPLES:
            raise ConfigError("window/dt exceeds the sample-count cap")
        if not abs(round(span / self.dt) * self.dt - span) <= 1e-9 * span:
            raise ConfigError(
                f"dt={self.dt} does not divide the window [{self.t0}, {self.t1}]"
            )

    @property
    def n_steps(self) -> int:
        return round((self.t1 - self.t0) / self.dt)


@dataclass
class Trajectory:
    frame: str
    times: np.ndarray
    states: np.ndarray  # shape (N, 4): (q1, q2, p1, p2) or (Q1, Q2, P1, P2)
    step: float
    metadata: dict = field(default_factory=dict)

    def point(self, i: int) -> PhasePoint:
        t = float(self.times[i])
        s = self.states[i]
        return PhasePoint(t=t, q=(s[0], s[1]), p=(s[2], s[3]), frame=self.frame)

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class FrameEquivalenceReport:
    max_deviation: float  # normalized by trajectory scale
    scale: float
    lab: Trajectory
    mapped: Trajectory  # lab trajectory expressed in mode coordinates
    modes: Trajectory
    deviations: np.ndarray


@dataclass(frozen=True)
class EnergyAudit:
    times: np.ndarray
    energies: np.ndarray
    max_drift: float  # max |H(t) - H(t0)| / max(1, |H(t0)|)


def _unbounded(y: tuple, t: float, partial: tuple) -> Exception:
    """The error that stops a run whose state y at time t left the guard: a
    non-finite component is an overflow inside the step, a finite one a
    divergence carrying the run so far."""
    if not all(map(math.isfinite, y)):
        return FloatingPointError(f"state overflowed at t={t}")
    return DivergenceError(f"state exceeded {DIVERGENCE_GUARD:g} at t={t}", partial=partial)


def _axpy(y: tuple, h: float, k) -> tuple:
    """y + h k for float 4-vectors."""
    return (y[0] + h * k[0], y[1] + h * k[1], y[2] + h * k[2], y[3] + h * k[3])


def _rk4_run(rhs, t0: float, y0: tuple, dt: float, n_steps: int,
             on_step: Optional[Callable[[float], None]] = None):
    """Generic fixed-step RK4 with a divergence guard; ``rhs(t, y)`` takes a
    float time and state 4-tuple and returns the derivative 4-tuple.
    Returns (times, states)."""
    times = t0 + dt * np.arange(n_steps + 1)
    grid = times.tolist()
    states = np.empty((n_steps + 1, 4))
    y = y0
    states[0] = y
    half = 0.5 * dt
    sixth = dt / 6.0
    for i in range(n_steps):
        t = grid[i]
        k1 = rhs(t, y)
        k2 = rhs(t + half, _axpy(y, half, k1))
        k3 = rhs(t + half, _axpy(y, half, k2))
        k4 = rhs(t + dt, _axpy(y, dt, k3))
        y = _axpy(y, sixth, [a + 2.0 * b + 2.0 * c + d for a, b, c, d in zip(k1, k2, k3, k4)])
        if not all(abs(v) < DIVERGENCE_GUARD for v in y):
            raise _unbounded(y, grid[i + 1], (times[: i + 1], states[: i + 1]))
        states[i + 1] = y
        if on_step is not None:
            on_step(grid[i + 1])
    return times, states


def _trajectory(frame: str, spec: IntegratorSpec, meta: dict, run) -> Trajectory:
    """The trajectory that ``run()`` (returning times and states) integrates;
    a divergence carries its partial run as a Trajectory too."""
    try:
        times, states = run()
    except DivergenceError as exc:
        exc.partial = Trajectory(frame, *exc.partial, spec.dt, meta)
        raise
    return Trajectory(frame, times, states, spec.dt, meta)


def integrate_lab(sys: QuadraticSystem, x0: PhasePoint, spec: IntegratorSpec) -> Trajectory:
    """Integrate the lab-frame equations of motion from x0 over the window."""
    if x0.frame != "lab":
        raise ConfigError("integrate_lab expects a lab-frame initial point")
    m1 = sys.masses.m1
    m2 = sys.masses.m2

    def rhs(t, y):
        return (y[2] / m1, y[3] / m2, *sys.force(t, y[0], y[1]))

    meta = {"integrator": spec.method, "preset": sys.label}
    if spec.method == "velocity-verlet":
        return _trajectory("lab", spec, meta, lambda: _verlet_run(sys, x0, spec))
    return _trajectory(
        "lab", spec, meta, lambda: _rk4_run(rhs, spec.t0, (*x0.q, *x0.p), spec.dt, spec.n_steps)
    )


def _verlet_run(sys: QuadraticSystem, x0: PhasePoint, spec: IntegratorSpec):
    """Velocity Verlet (kick-drift-kick); lab frame only (separable H)."""
    m1 = sys.masses.m1
    m2 = sys.masses.m2
    n = spec.n_steps
    dt = spec.dt
    half = 0.5 * dt
    times = spec.t0 + dt * np.arange(n + 1)
    grid = times.tolist()
    states = np.empty((n + 1, 4))
    (q1, q2), (p1, p2) = x0.q, x0.p
    states[0] = (q1, q2, p1, p2)
    f1, f2 = sys.force(grid[0], q1, q2)
    for i in range(n):
        h1 = p1 + half * f1
        h2 = p2 + half * f2
        q1 = q1 + dt * h1 / m1
        q2 = q2 + dt * h2 / m2
        f1, f2 = sys.force(grid[i + 1], q1, q2)
        p1 = h1 + half * f1
        p2 = h2 + half * f2
        y = (q1, q2, p1, p2)
        if not all(abs(v) < DIVERGENCE_GUARD for v in y):
            raise _unbounded(y, grid[i + 1], (times[: i + 1], states[: i + 1]))
        states[i + 1] = y
    return times, states


class _ThetaBranch:
    """The mode-angle branch, threaded sequentially along the time axis:
    ``sync`` advances it once per step and every RK stage snaps to it."""

    def __init__(self, sys: QuadraticSystem, theta0: Optional[float], t0: float):
        self.sys = sys
        self.theta = theta0
        self.sync(t0)

    def sync(self, t: float) -> None:
        self.theta = theta_at(self.sys.stiffness(t), self.sys.masses, self.theta)

    def frequencies(self, t: float) -> tuple:
        """(theta, Omega1^2, Omega2^2) at a stage time."""
        triple = self.sys.stiffness(t)
        theta = theta_at(triple, self.sys.masses, self.theta)
        return (theta, *eigenfrequencies(triple, self.sys.masses, theta))


def integrate_modes(
    sys: QuadraticSystem,
    X0: PhasePoint,
    spec: IntegratorSpec,
    apply_larmor: bool = False,
    lz_coupling: bool = True,
    theta0: Optional[float] = None,
) -> Trajectory:
    """Integrate the effective mode-frame Hamiltonian from X0.

    ``apply_larmor`` adds the compensation terms omega_L^2 (Q1^2+Q2^2)/2 +
    omega_L L_z with omega_L from ``sys.larmor_rate`` (theta_dot when the
    preset supplies none).  ``lz_coupling=False`` drops the -theta_dot L_z
    term; that deliberately breaks frame equivalence for rotating systems
    and exists for verification.
    """
    if X0.frame != "mode":
        raise ConfigError("integrate_modes expects a mode-frame initial point")
    if spec.method != "rk4":
        raise ConfigError("mode-frame integration supports rk4 only")
    branch = _ThetaBranch(sys, theta0, spec.t0)

    def rhs(t, y):
        theta, o1, o2 = branch.frequencies(t)
        P0 = drive_at(sys, t, theta)
        # theta_dot evaluates its own triple: handing it the stage's would
        # take sim-separation below the 50 root solves per step that
        # perfbench/tests pins (test_pinned_layer_counts[sim-separation]).
        th_dot = theta_dot_at(sys, t)
        Q1, Q2, P1, P2 = y
        td = th_dot if lz_coupling else 0.0
        dQ1 = P1 - P0[0] + td * Q2
        dQ2 = P2 - P0[1] - td * Q1
        dP1 = -o1 * Q1 + td * P2
        dP2 = -o2 * Q2 - td * P1
        if apply_larmor:
            wL = larmor_rate_at(sys, t, th_dot)
            dQ1 -= wL * Q2
            dQ2 += wL * Q1
            dP1 -= wL * wL * Q1 + wL * P2
            dP2 -= wL * wL * Q2 - wL * P1
        return (dQ1, dQ2, dP1, dP2)

    meta = {"integrator": "rk4", "preset": sys.label, "larmor": apply_larmor}
    return _trajectory("mode", spec, meta, lambda: _rk4_run(
        rhs, spec.t0, (*X0.q, *X0.p), spec.dt, spec.n_steps, on_step=branch.sync
    ))


def integrate_modes_shifted(
    sys: QuadraticSystem,
    X0: PhasePoint,
    spec: IntegratorSpec,
    theta0: Optional[float] = None,
) -> Trajectory:
    """Integrate the momentum-shifted Hamiltonian (separable systems).

    Variables are (Q', P') with P' = P - P0; the drive enters as the
    coordinate-linear force -P0dot.  Only meaningful when theta_dot = 0.
    """
    if X0.frame != "mode":
        raise ConfigError("integrate_modes_shifted expects a mode-frame point")
    branch = _ThetaBranch(sys, theta0, spec.t0)

    def rhs(t, y):
        theta, o1, o2 = branch.frequencies(t)
        P0_dot = drive_rate_at(sys, t, theta)
        return (y[2], y[3], -o1 * y[0] - P0_dot[0], -o2 * y[1] - P0_dot[1])

    meta = {"integrator": "rk4", "preset": sys.label, "shifted": True}
    return _trajectory("mode", spec, meta, lambda: _rk4_run(
        rhs, spec.t0, (*X0.q, *X0.p), spec.dt, spec.n_steps, on_step=branch.sync
    ))


def map_to_mode_frame(sys: QuadraticSystem, traj: Trajectory) -> Trajectory:
    """Express a lab trajectory in mode coordinates, threading the theta branch."""
    if traj.frame != "lab":
        raise ConfigError("map_to_mode_frame expects a lab trajectory")
    rows = []
    theta = None
    for t, y in zip(traj.times.tolist(), traj.states.tolist()):
        theta = theta_at(sys.stiffness(t), sys.masses, theta)
        rows.append(mode_state(sys, t, theta, *y))
    return Trajectory("mode", traj.times.copy(), np.array(rows), traj.step, dict(traj.metadata))


def frame_equivalence_check(
    sys: QuadraticSystem,
    x0_lab: PhasePoint,
    spec: IntegratorSpec,
    lz_coupling: bool = True,
) -> FrameEquivalenceReport:
    """Integrate in the lab, map to mode coordinates, and compare against a
    direct mode-frame integration from the mapped initial condition."""
    lab = integrate_lab(sys, x0_lab, spec)
    mapped = map_to_mode_frame(sys, lab)
    X0 = mapped.point(0)
    theta0 = theta_at(sys.stiffness(spec.t0), sys.masses)
    modes = integrate_modes(sys, X0, spec, lz_coupling=lz_coupling, theta0=theta0)
    diffs = np.linalg.norm(mapped.states - modes.states, axis=1)
    scale = float(np.linalg.norm(mapped.states, axis=1).max())
    max_dev = float(diffs.max() / max(scale, 1e-300))
    return FrameEquivalenceReport(
        max_deviation=max_dev,
        scale=scale,
        lab=lab,
        mapped=mapped,
        modes=modes,
        deviations=diffs,
    )


def energy_audit(traj: Trajectory, sys: QuadraticSystem) -> EnergyAudit:
    """Per-sample Hamiltonian values along a trajectory (H or Htil by frame)."""
    energies = np.empty(len(traj))
    branch = None
    for i in range(len(traj)):
        x = traj.point(i)
        if traj.frame == "lab":
            energies[i] = sys.hamiltonian_value(x)
        else:
            dec = decompose_at(sys, x.t, branch_ref=branch)
            branch = dec.theta
            energies[i] = effective_hamiltonian_value(dec, sys, x)
    drift = float(np.abs(energies - energies[0]).max() / max(1.0, abs(energies[0])))
    return EnergyAudit(times=traj.times.copy(), energies=energies, max_drift=drift)


def mode_energy_series(
    traj: Trajectory, sys: QuadraticSystem, compensated: bool = False
) -> np.ndarray:
    """Per-mode energies (P_i^2 + W_i Q_i^2)/2 along a mode trajectory.

    With ``compensated`` the squared frequencies include the Larmor term,
    W_i = Omega_i^2 + omega_L^2.
    """
    if traj.frame != "mode":
        raise ConfigError("mode_energy_series expects a mode trajectory")
    out = np.empty((len(traj), 2))
    branch = None
    for i, t in enumerate(traj.times):
        t = float(t)
        triple = sys.stiffness(t)
        branch = theta_at(triple, sys.masses, branch)
        o1, o2 = eigenfrequencies(triple, sys.masses, branch)
        if compensated:
            wL = larmor_rate_at(sys, t)
            o1 += wL * wL
            o2 += wL * wL
        Q1, Q2, P1, P2 = traj.states[i]
        out[i, 0] = 0.5 * (P1 * P1 + o1 * Q1 * Q1)
        out[i, 1] = 0.5 * (P2 * P2 + o2 * Q2 * Q2)
    return out


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _csv_rows(rows, width: int, tail: str = "") -> str:
    """CSV lines of ``width`` numbers each, written as :func:`_fmt` writes
    them (``%.17g``), then ``tail``; one template formats each row tuple."""
    template = ",".join(["%.17g"] * width) + tail + "\n"
    return "".join([template % row for row in rows])


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """CSV export with 17-significant-digit floats for bit-faithful round-trips."""
    names = "t,q1,q2,p1,p2" if traj.frame == "lab" else "t,Q1,Q2,P1,P2"
    rows = zip(traj.times.tolist(), *traj.states.T.tolist())
    with open(path, "w", newline="") as fh:
        fh.write(f"{names},frame\n" + _csv_rows(rows, 5, "," + traj.frame))
