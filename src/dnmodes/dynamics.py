"""Fixed-step integration of Hamilton's equations in both frames.

The lab frame integrates qdot = M^-1 p, pdot = -K(t)(q - q0(t)); the mode
frame integrates the effective Hamiltonian including the momentum drive
-(P1,P2) A qdot0 and the rotation coupling -theta_dot * L_z (plus the
optional Larmor compensation terms).  RK4 is the default everywhere;
velocity Verlet is offered for the lab frame only.  All coefficients are
evaluated fresh at every RK stage time so 4th-order accuracy survives
time-dependent schedules.

The steppers and the lab-to-mode map work on Python floats, so schedules and
root solves never see numpy scalars: the RK4 step is unrolled on float locals,
and stage times come with ``tolist()`` from the spec's grid t0 + i dt, whose
last entry is exactly t1; a step's last stage lies on the next grid time, so
no stage leaves the window.  The mode angle is threaded call by call: the
first stage at t0 takes the default branch, each later stage (or map sample)
the branch of the one before.  A mode-frame stage evaluates the stiffness
once; one frame call gives theta, both squared frequencies and the cos/sin
pair that turns the drive, which a map sample reuses with only the stiffness
and the equilibrium, no theta_dot.  Callables are bound per run, not at import
(a tracer may replace them), and RK4 builds its states array once from rows.
A stage or map sample calls them directly and forms the force, the drive and
the modal products inline, with the bits of ``QuadraticSystem.force``,
``modes._modal_product`` and ``modes.mode_state``.
A state that turns non-finite inside a step raises ``FloatingPointError``, as
numpy's overflow does under the command line's error state; a finite state
beyond ``DIVERGENCE_GUARD`` raises ``DivergenceError`` with the partial run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergenceError
from .modes import (
    _mode_frames,
    decompose_at,
    drive_rate_at,
    effective_hamiltonian_value,
    larmor_rate_at,
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

    def grid(self) -> np.ndarray:
        """The step times t0 + i dt, the last of them exactly t1."""
        times = self.t0 + self.dt * np.arange(self.n_steps + 1)
        times[-1] = self.t1
        return times


@dataclass
class Trajectory:
    frame: str
    times: np.ndarray
    states: np.ndarray  # shape (N, 4): (q1, q2, p1, p2) or (Q1, Q2, P1, P2)
    step: float

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


def _rk4_run(rhs, y0: tuple, spec: IntegratorSpec):
    """Fixed-step RK4 over the spec's grid with a divergence guard;
    ``rhs(t, q1, q2, p1, p2)`` takes a float time and state and returns the
    derivative 4-tuple.  It is called in time order, the last stage of each
    step at the next grid time.  Returns (times, states)."""
    times = spec.grid()
    grid = times.tolist()
    rows = [y0]
    q1, q2, p1, p2 = y0
    dt = spec.dt
    h = 0.5 * dt
    sixth = dt / 6.0
    for i in range(len(grid) - 1):
        t = grid[i]
        a1, a2, a3, a4 = rhs(t, q1, q2, p1, p2)
        b1, b2, b3, b4 = rhs(t + h, q1 + h * a1, q2 + h * a2, p1 + h * a3, p2 + h * a4)
        c1, c2, c3, c4 = rhs(t + h, q1 + h * b1, q2 + h * b2, p1 + h * b3, p2 + h * b4)
        d1, d2, d3, d4 = rhs(grid[i + 1], q1 + dt * c1, q2 + dt * c2, p1 + dt * c3, p2 + dt * c4)
        q1 = q1 + sixth * (a1 + 2.0 * b1 + 2.0 * c1 + d1)
        q2 = q2 + sixth * (a2 + 2.0 * b2 + 2.0 * c2 + d2)
        p1 = p1 + sixth * (a3 + 2.0 * b3 + 2.0 * c3 + d3)
        p2 = p2 + sixth * (a4 + 2.0 * b4 + 2.0 * c4 + d4)
        if not (abs(q1) < DIVERGENCE_GUARD and abs(q2) < DIVERGENCE_GUARD
                and abs(p1) < DIVERGENCE_GUARD and abs(p2) < DIVERGENCE_GUARD):
            raise _unbounded((q1, q2, p1, p2), grid[i + 1], (times[: i + 1], np.array(rows)))
        rows.append((q1, q2, p1, p2))
    return times, np.array(rows)


def _trajectory(frame: str, spec: IntegratorSpec, run) -> Trajectory:
    """The trajectory that ``run()`` (returning times and states) integrates;
    a divergence carries its partial run as a Trajectory too."""
    try:
        times, states = run()
    except DivergenceError as exc:
        exc.partial = Trajectory(frame, *exc.partial, spec.dt)
        raise
    return Trajectory(frame, times, states, spec.dt)


def integrate_lab(sys: QuadraticSystem, x0: PhasePoint, spec: IntegratorSpec) -> Trajectory:
    """Integrate the lab-frame equations of motion from x0 over the window."""
    if x0.frame != "lab":
        raise ConfigError("integrate_lab expects a lab-frame initial point")
    m1 = sys.masses.m1
    m2 = sys.masses.m2
    equilibrium, stiffness = sys.equilibrium, sys.stiffness

    def rhs(t, q1, q2, p1, p2):
        # QuadraticSystem.force inline: q0, then K, then -K (q - q0).
        e1, e2 = equilibrium(t)
        tr = stiffness(t)
        k, d1, d2 = tr.k, q1 - e1, q2 - e2
        return (p1 / m1, p2 / m2, -((k + tr.k1) * d1 - k * d2), -(-k * d1 + (k + tr.k2) * d2))

    if spec.method == "velocity-verlet":
        return _trajectory("lab", spec, lambda: _verlet_run(sys, x0, spec))
    return _trajectory("lab", spec, lambda: _rk4_run(rhs, (*x0.q, *x0.p), spec))


def _verlet_run(sys: QuadraticSystem, x0: PhasePoint, spec: IntegratorSpec):
    """Velocity Verlet (kick-drift-kick); lab frame only (separable H)."""
    m1 = sys.masses.m1
    m2 = sys.masses.m2
    dt = spec.dt
    half = 0.5 * dt
    times = spec.grid()
    grid = times.tolist()
    states = np.empty((len(grid), 4))
    (q1, q2), (p1, p2) = x0.q, x0.p
    states[0] = (q1, q2, p1, p2)
    f1, f2 = sys.force(grid[0], q1, q2)
    for i in range(len(grid) - 1):
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


def integrate_modes(
    sys: QuadraticSystem,
    X0: PhasePoint,
    spec: IntegratorSpec,
    apply_larmor: bool = False,
    lz_coupling: bool = True,
) -> Trajectory:
    """Integrate the effective mode-frame Hamiltonian from X0.

    ``apply_larmor`` adds the compensation terms omega_L^2 (Q1^2+Q2^2)/2 +
    omega_L L_z with omega_L the stage's theta_dot, as
    :func:`~dnmodes.modes.larmor_rate_at` gives it (``sys.larmor_rate``
    when a system sets one; no preset does).  ``lz_coupling=False`` drops
    the -theta_dot L_z term; that deliberately breaks frame equivalence for
    rotating systems and exists for verification.  The mode angle is
    threaded call by call from the default branch at t0, and the last stage
    of each step lies on the grid.
    """
    if X0.frame != "mode":
        raise ConfigError("integrate_modes expects a mode-frame initial point")
    if spec.method != "rk4":
        raise ConfigError("mode-frame integration supports rk4 only")
    frame = _mode_frames(sys)
    r1, r2 = sys.masses.sqrt1, sys.masses.sqrt2
    equilibrium_velocity, larmor_rate = sys.equilibrium_velocity, sys.larmor_rate

    def rhs(t, Q1, Q2, P1, P2):
        _, c, s, o1, o2 = frame(t)
        # The drive P0 = A qdot0 of drive_at, as _modal_product forms it on
        # the stage's cos/sin pair.
        v1, v2 = equilibrium_velocity(t)
        D1 = r1 * c * v1 + r2 * s * v2
        D2 = -r1 * s * v1 + r2 * c * v2
        # theta_dot evaluates its own triple: handing it the stage's would
        # take sim-separation below the 50 root solves per step that
        # perfbench/tests pins (test_pinned_layer_counts[sim-separation]).
        th_dot = theta_dot_at(sys, t)
        td = th_dot if lz_coupling else 0.0
        dQ1 = P1 - D1 + td * Q2
        dQ2 = P2 - D2 - td * Q1
        dP1 = -o1 * Q1 + td * P2
        dP2 = -o2 * Q2 - td * P1
        if apply_larmor:
            wL = th_dot if larmor_rate is None else larmor_rate(t)  # as larmor_rate_at
            dQ1 -= wL * Q2
            dQ2 += wL * Q1
            dP1 -= wL * wL * Q1 + wL * P2
            dP2 -= wL * wL * Q2 - wL * P1
        return (dQ1, dQ2, dP1, dP2)

    return _trajectory("mode", spec, lambda: _rk4_run(rhs, (*X0.q, *X0.p), spec))


def integrate_modes_shifted(
    sys: QuadraticSystem, X0: PhasePoint, spec: IntegratorSpec
) -> Trajectory:
    """Integrate the momentum-shifted Hamiltonian (separable systems).

    Variables are (Q', P') with P' = P - P0; the drive enters as the
    coordinate-linear force -P0dot.  Only meaningful when theta_dot = 0.
    """
    if X0.frame != "mode":
        raise ConfigError("integrate_modes_shifted expects a mode-frame point")
    frame = _mode_frames(sys)

    def rhs(t, Q1, Q2, P1, P2):
        theta, _, _, o1, o2 = frame(t)
        P0_dot = drive_rate_at(sys, t, theta)
        return (P1, P2, -o1 * Q1 - P0_dot[0], -o2 * Q2 - P0_dot[1])

    return _trajectory("mode", spec, lambda: _rk4_run(rhs, (*X0.q, *X0.p), spec))


def map_to_mode_frame(sys: QuadraticSystem, traj: Trajectory) -> Trajectory:
    """Express a lab trajectory in mode coordinates, threading the theta branch."""
    if traj.frame != "lab":
        raise ConfigError("map_to_mode_frame expects a lab trajectory")
    frame = _mode_frames(sys)
    equilibrium = sys.equilibrium
    # mode_state inline, with A's and A^(-T)'s weights bound once.
    r1, r2 = sys.masses.sqrt1, sys.masses.sqrt2
    i1, i2 = 1.0 / r1, 1.0 / r2
    rows = []
    for t, (q1, q2, p1, p2) in zip(traj.times.tolist(), traj.states.tolist()):
        _, c, s, _, _ = frame(t)
        e1, e2 = equilibrium(t)
        d1, d2 = q1 - e1, q2 - e2
        rows.append((r1 * c * d1 + r2 * s * d2, -r1 * s * d1 + r2 * c * d2,
                     i1 * c * p1 + i2 * s * p2, -i1 * s * p1 + i2 * c * p2))
    return Trajectory("mode", traj.times.copy(), np.array(rows), traj.step)


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
    modes = integrate_modes(sys, mapped.point(0), spec, lz_coupling=lz_coupling)
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
    frame = _mode_frames(sys)
    for i, t in enumerate(traj.times.tolist()):
        _, _, _, o1, o2 = frame(t)
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
