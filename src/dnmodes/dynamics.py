"""Fixed-step integration of Hamilton's equations in both frames.

The lab frame integrates qdot = M^-1 p, pdot = -K(t)(q - q0(t)); the mode
frame integrates the effective Hamiltonian including the momentum drive
-(P1,P2) A qdot0 and the rotation coupling -theta_dot * L_z, which Larmor
compensation at omega_L = theta_dot cancels: each mode is then an oscillator
at Omega_i^2 + theta_dot^2.  RK4 is the default; velocity Verlet is offered
for the lab frame only.  Every coefficient is evaluated at its RK stage's
own time, so 4th-order accuracy survives time-dependent schedules; RK4 asks
each stage time twice, which a preset that keeps its values per time answers
once (``presets``).

RK4 and velocity Verlet are step maps y_{n+1} = step(t_n, t_{n+1}, y_n); one
run loop owns the grid, the guard and the partial run.  A run is Python floats
end to end, so schedules and root solves never see numpy scalars: its times
are the spec's grid t0 + i dt, whose last entry is exactly t1, and its rows
are 4-tuples, which the map, the frame check and the CSV writer read as they
are.  RK4's last stage lies on the next grid time, so no stage leaves the
window.  The mode angle is threaded call by call: the first stage at t0 takes
the default branch, each later stage (or map sample) the branch of the one
before.  A mode-frame stage evaluates the stiffness once; one frame call gives
theta, both squared frequencies and the cos/sin pair that turns the drive
(built once per distinct stiffness triple), which a map sample reuses with
only the stiffness and the equilibrium, no theta_dot.  Callables are bound per
run, not at import (a tracer may replace them), theta_dot too: the system's
override, else ``theta_dot_at``.  A stage calls them directly
and forms the force, the drive and the modal products inline, with the bits of
``QuadraticSystem.force`` and ``modes._modal_product``; a map sample is
``modes.mode_state``.  A state that turns non-finite inside a step raises
``FloatingPointError``, as numpy's overflow does in ``classify``'s error
state; a finite state beyond ``DIVERGENCE_GUARD`` raises ``DivergenceError``
with the partial run.
"""

from __future__ import annotations

import functools
import math

from .errors import ConfigError, DivergenceError
from .modes import (
    _mode_frames,
    decompose_at,
    drive_rate_at,
    effective_hamiltonian_value,
    mode_state,
    theta_dot_at,
)
from .quadratic import PhasePoint, QuadraticSystem
from .schedules import check_fields, value_class

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
_METHODS = ("rk4", "velocity-verlet")  # IntegratorSpec's; the CLI checks every command's config


@value_class
class IntegratorSpec:
    dt: float
    t0: float
    t1: float
    method: str = "rk4"

    def __post_init__(self):
        check_fields(self)
        if self.method not in _METHODS:
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

    def grid(self) -> list:
        """The step times t0 + i dt, the last of them exactly t1."""
        return [self.t0 + self.dt * i for i in range(self.n_steps)] + [self.t1]


@value_class
class Trajectory:
    frame: str
    times: tuple
    rows: tuple  # 4-tuples: (q1, q2, p1, p2) or (Q1, Q2, P1, P2)

    def point(self, i: int) -> PhasePoint:
        q1, q2, p1, p2 = self.rows[i]
        return PhasePoint(t=self.times[i], q=(q1, q2), p=(p1, p2), frame=self.frame)

    def __len__(self) -> int:
        return len(self.times)


@value_class
class FrameEquivalenceReport:
    max_deviation: float  # normalized by trajectory scale
    scale: float
    start: PhasePoint  # the mapped lab start, where the mode run began


@value_class
class EnergyAudit:
    energies: tuple
    max_drift: float  # max |H(t) - H(t0)| / max(1, |H(t0)|)


def _run(frame: str, step, y0: tuple, spec: IntegratorSpec) -> Trajectory:
    """The rows of ``step(t, t_next, y) -> y`` on the spec's grid from the float
    state y0.  A state outside the guard stops the run: a non-finite one is an
    overflow inside the step, a finite one a divergence with the run so far."""
    grid = spec.grid()
    rows = [y0]
    for i in range(len(grid) - 1):
        q1, q2, p1, p2 = y = step(grid[i], grid[i + 1], rows[-1])
        if not (abs(q1) < DIVERGENCE_GUARD and abs(q2) < DIVERGENCE_GUARD
                and abs(p1) < DIVERGENCE_GUARD and abs(p2) < DIVERGENCE_GUARD):
            if not all(map(math.isfinite, y)):
                raise FloatingPointError(f"state overflowed at t={grid[i + 1]}")
            partial = Trajectory(frame, tuple(grid[: i + 1]), tuple(rows))
            raise DivergenceError(f"state exceeded {DIVERGENCE_GUARD:g} at t={grid[i + 1]}",
                                  partial=partial)
        rows.append(y)
    return Trajectory(frame, tuple(grid), tuple(rows))


def _rk4(rhs, dt: float):
    """The classical RK4 step of ``rhs(t, q1, q2, p1, p2)``, which takes a
    float time and state and returns the derivative 4-tuple; it is called in
    time order, the last stage at the next grid time."""
    h = 0.5 * dt
    sixth = dt / 6.0

    def step(t, t_next, y):
        q1, q2, p1, p2 = y
        a1, a2, a3, a4 = rhs(t, q1, q2, p1, p2)
        b1, b2, b3, b4 = rhs(t + h, q1 + h * a1, q2 + h * a2, p1 + h * a3, p2 + h * a4)
        c1, c2, c3, c4 = rhs(t + h, q1 + h * b1, q2 + h * b2, p1 + h * b3, p2 + h * b4)
        d1, d2, d3, d4 = rhs(t_next, q1 + dt * c1, q2 + dt * c2, p1 + dt * c3, p2 + dt * c4)
        return (q1 + sixth * (a1 + 2.0 * b1 + 2.0 * c1 + d1),
                q2 + sixth * (a2 + 2.0 * b2 + 2.0 * c2 + d2),
                p1 + sixth * (a3 + 2.0 * b3 + 2.0 * c3 + d3),
                p2 + sixth * (a4 + 2.0 * b4 + 2.0 * c4 + d4))

    return step


def _verlet(sys: QuadraticSystem, x0: PhasePoint, spec: IntegratorSpec):
    """The velocity Verlet (kick-drift-kick) step; lab frame only (separable H).
    Each step starts from the force the step before computed (the first from
    t0), as a second root solve at a repeated time could move q0 by an ulp."""
    m1 = sys.masses.m1
    m2 = sys.masses.m2
    dt = spec.dt
    half = 0.5 * dt
    force = sys.force(spec.t0, *x0.q)

    def step(t, t_next, y):
        nonlocal force
        q1, q2, p1, p2 = y
        h1 = p1 + half * force[0]
        h2 = p2 + half * force[1]
        q1 = q1 + dt * h1 / m1
        q2 = q2 + dt * h2 / m2
        force = sys.force(t_next, q1, q2)
        return (q1, q2, h1 + half * force[0], h2 + half * force[1])

    return step


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

    step = _verlet(sys, x0, spec) if spec.method == "velocity-verlet" else _rk4(rhs, spec.dt)
    return _run("lab", step, (*x0.q, *x0.p), spec)


def integrate_modes(
    sys: QuadraticSystem,
    X0: PhasePoint,
    spec: IntegratorSpec,
    apply_larmor: bool = False,
) -> Trajectory:
    """Integrate the effective mode-frame Hamiltonian from X0.

    Without ``apply_larmor`` the modes are coupled by -theta_dot L_z.  With
    it, the compensation omega_L^2 (Q1^2+Q2^2)/2 + omega_L L_z at omega_L =
    theta_dot cancels that coupling, so each mode is an independent
    oscillator at Omega_i^2 + theta_dot^2 driven by its P0_i.  The mode angle
    is threaded call by call from the default branch at t0, and the last
    stage of each step lies on the grid.
    """
    if X0.frame != "mode":
        raise ConfigError("integrate_modes expects a mode-frame initial point")
    if spec.method != "rk4":
        raise ConfigError("mode-frame integration supports rk4 only")
    frame = _mode_frames(sys)
    r1, r2 = sys.masses.sqrt1, sys.masses.sqrt2
    equilibrium_velocity = sys.equilibrium_velocity
    # theta_dot_at evaluates its own triple: handing it the stage's would
    # take sim-separation below the 50 root solves per step that
    # perfbench/tests pins (test_pinned_layer_counts[sim-separation]).
    theta_dot = sys.theta_dot_override or functools.partial(theta_dot_at, sys)

    def rhs(t, Q1, Q2, P1, P2):
        _, c, s, o1, o2 = frame(t)
        # The drive P0 = A qdot0 of drive_at, as _modal_product forms it on
        # the stage's cos/sin pair.
        v1, v2 = equilibrium_velocity(t)
        D1 = r1 * c * v1 + r2 * s * v2
        D2 = -r1 * s * v1 + r2 * c * v2
        td = theta_dot(t)
        if apply_larmor:
            return (P1 - D1, P2 - D2, -o1 * Q1 - td * td * Q1, -o2 * Q2 - td * td * Q2)
        return (P1 - D1 + td * Q2, P2 - D2 - td * Q1, -o1 * Q1 + td * P2, -o2 * Q2 - td * P1)

    return _run("mode", _rk4(rhs, spec.dt), (*X0.q, *X0.p), spec)


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

    return _run("mode", _rk4(rhs, spec.dt), (*X0.q, *X0.p), spec)


def map_to_mode_frame(sys: QuadraticSystem, traj: Trajectory) -> Trajectory:
    """Express a lab trajectory in mode coordinates, threading the theta branch."""
    if traj.frame != "lab":
        raise ConfigError("map_to_mode_frame expects a lab trajectory")
    frame = _mode_frames(sys)
    rows = []
    for t, (q1, q2, p1, p2) in zip(traj.times, traj.rows):
        _, c, s, _, _ = frame(t)
        rows.append(mode_state(sys, t, c, s, q1, q2, p1, p2))
    return Trajectory("mode", traj.times, tuple(rows))


def frame_equivalence_check(
    sys: QuadraticSystem,
    x0_lab: PhasePoint,
    spec: IntegratorSpec,
) -> FrameEquivalenceReport:
    """Integrate in the lab, map to mode coordinates, and compare against a
    direct mode-frame integration from the mapped initial condition; the
    report keeps that initial condition, not the runs."""
    mapped = map_to_mode_frame(sys, integrate_lab(sys, x0_lab, spec))
    start = mapped.point(0)
    modes = integrate_modes(sys, start, spec)
    diff = max(map(math.dist, mapped.rows, modes.rows))
    scale = max(math.hypot(*x) for x in mapped.rows)
    return FrameEquivalenceReport(diff / max(scale, 1e-300), scale, start)


def energy_audit(traj: Trajectory, sys: QuadraticSystem) -> EnergyAudit:
    """Per-sample Hamiltonian values (H or Htil by frame) at ``traj.times``, and max_drift."""
    energies = []
    branch = None
    for i in range(len(traj)):
        x = traj.point(i)
        if traj.frame == "lab":
            energies.append(sys.hamiltonian_value(x))
        else:
            dec = decompose_at(sys, x.t, branch_ref=branch)
            branch = dec.theta
            energies.append(effective_hamiltonian_value(dec, sys, x))
    drifts = [abs(e - energies[0]) for e in energies]
    # NaN where any drift is NaN; max() would drop one that is not first.
    worst = math.nan if any(map(math.isnan, drifts)) else max(drifts)
    drift = worst / max(1.0, abs(energies[0]))
    return EnergyAudit(energies=tuple(energies), max_drift=drift)


def mode_energy_series(
    traj: Trajectory, sys: QuadraticSystem, compensated: bool = False
) -> tuple:
    """Per-mode energy pairs (E1, E2), E_i = (P_i^2 + W_i Q_i^2)/2, along a mode trajectory.

    With ``compensated`` the squared frequencies include the Larmor term,
    W_i = Omega_i^2 + omega_L^2 with omega_L = theta_dot.
    """
    if traj.frame != "mode":
        raise ConfigError("mode_energy_series expects a mode trajectory")
    out = []
    frame = _mode_frames(sys)
    for t, (Q1, Q2, P1, P2) in zip(traj.times, traj.rows):
        _, _, _, o1, o2 = frame(t)
        if compensated:
            wL = theta_dot_at(sys, t)
            o1 += wL * wL
            o2 += wL * wL
        out.append((0.5 * (P1 * P1 + o1 * Q1 * Q1), 0.5 * (P2 * P2 + o2 * Q2 * Q2)))
    return tuple(out)


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
    rows = ((t, *y) for t, y in zip(traj.times, traj.rows))
    with open(path, "w", newline="") as fh:
        fh.write(f"{names},frame\n" + _csv_rows(rows, 5, "," + traj.frame))
