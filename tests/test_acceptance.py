"""Top-level acceptance gate.

Each test covers one numbered criterion and prints a single PASS/FAIL line;
all numeric tolerances are pinned here and must not be loosened.
"""

import json
import math
import warnings

import numpy as np
import pytest

from dnmodes.cli import main as cli_main
from dnmodes.dynamics import (
    IntegratorSpec,
    frame_equivalence_check,
    integrate_modes,
    mode_energy_series,
)
from dnmodes.errors import FormulaDiscrepancyWarning
from dnmodes.modes import (
    decompose_at,
    eigenfrequencies,
    mass_weighted_stiffness,
    modal_matrix,
    theta_at,
    theta_dot_at,
)
from dnmodes.presets import (
    CustomConfig,
    PhaseGateConfig,
    RotationConfig,
    SeparationConfig,
    SpringsConfig,
    TransportConfig,
    audit_phase_gate_formulas,
    build_custom,
    build_phase_gate,
    build_rotation,
    build_separation,
    build_springs,
    build_transport,
    phase_gate_equilibria_closed_form,
    solve_phase_gate_distance,
    solve_separation_distance,
)
from dnmodes.quadratic import MassPair, PhasePoint, StiffnessTriple
from dnmodes.schedules import ControlSchedule, LinearRamp, Smoothstep

from oracles import bisect, eig2_characteristic, grad4, hessian4, theta_dot_fd


_CAPSYS = None


@pytest.fixture(autouse=True)
def _live_report(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _report(number: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {number:02d}] {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line)
    else:
        print(line)
    assert ok, line


# 1 ---------------------------------------------------------------------------


def test_criterion_01_diagonalization_identities():
    rng = np.random.default_rng(101)
    worst_off = worst_ident = worst_spec = 0.0
    for _ in range(10_000):
        k, k1, k2 = rng.uniform(-5.0, 5.0, 3)
        masses = MassPair(*rng.uniform(0.1, 10.0, 2))
        triple = StiffnessTriple(k, k1, k2)
        K = triple.matrix()
        Kt = mass_weighted_stiffness(triple, masses)
        theta = theta_at(triple, masses)
        A, A_inv = modal_matrix(theta, masses)

        D = A_inv.T @ K @ A_inv
        scale_K = max(np.linalg.norm(K), 1e-30)
        worst_off = max(worst_off, abs(D[0, 1]) / scale_K, abs(D[1, 0]) / scale_K)

        ident = A @ masses.inverse_matrix() @ A.T
        worst_ident = max(worst_ident, np.abs(ident - np.eye(2)).max())

        o1, o2 = eigenfrequencies(triple, masses, theta)
        scale_spec = max(np.linalg.norm(Kt), 1e-30)
        tr = Kt[0, 0] + Kt[1, 1]
        det = Kt[0, 0] * Kt[1, 1] - Kt[0, 1] * Kt[1, 0]
        worst_spec = max(
            worst_spec,
            abs((o1 + o2) - tr) / scale_spec,
            abs(o1 * o2 - det) / scale_spec**2,
        )
    ok = worst_off < 1e-10 and worst_ident <= 1e-12 and worst_spec <= 1e-10
    _report(
        1,
        "diagonalization identities (10^4 random systems)",
        ok,
        f"offdiag {worst_off:.2e}, A M^-1 A^T - I {worst_ident:.2e}, "
        f"trace/det {worst_spec:.2e}",
    )


# 2 ---------------------------------------------------------------------------


class _PoweredBeta(ControlSchedule):
    """beta = c * alpha^(5/3), which keeps beta^3 / alpha^5 constant."""

    def __init__(self, alpha: ControlSchedule, c: float):
        self.alpha = alpha
        self.c = c

    def value(self, t):
        return self.c * self.alpha.value(t) ** (5.0 / 3.0)

    def derivative(self, t):
        return (
            self.c * (5.0 / 3.0) * self.alpha.value(t) ** (2.0 / 3.0) * self.alpha.derivative(t)
        )


def test_criterion_02_constant_theta_cases():
    alpha = Smoothstep(1.0, 2.5, 0.0, 10.0)
    cases = {
        "transport, unequal masses": build_transport(
            TransportConfig(k=Smoothstep(1.0, 3.0, 0.0, 10.0), Q0=0.0, masses=(3.0, 1.0))
        ),
        "separation, beta^3/alpha^5 constant": build_separation(
            SeparationConfig(alpha=alpha, beta=_PoweredBeta(alpha, 0.4), masses=(3.0, 1.0))
        ),
        "springs, k=0": build_springs(
            SpringsConfig(
                k=0.0, k1=Smoothstep(1.0, 2.0, 0.0, 10.0), k2=1.3, d=3.0, masses=(2.0, 1.0)
            )
        ),
        "separation, equal masses": build_separation(
            SeparationConfig(
                alpha=alpha, beta=Smoothstep(0.3, 1.1, 0.0, 10.0), masses=(2.0, 2.0)
            )
        ),
    }
    worst = {}
    for name, sys in cases.items():
        rates = [
            abs(theta_dot_fd(sys, float(t)))
            for t in np.linspace(0.0, 10.0, 200)
        ]
        worst[name] = max(rates)
    ok = all(v <= 1e-9 for v in worst.values())
    _report(
        2,
        "constant-angle cases (max |theta_dot| over 200 samples)",
        ok,
        ", ".join(f"{k}: {v:.2e}" for k, v in worst.items()),
    )


# 3 ---------------------------------------------------------------------------


def test_criterion_03_rotation_identity():
    phi = Smoothstep(0.0, math.pi / 2.0, 0.0, 10.0)
    w1, w2 = 2.0, 1.0
    sys = build_rotation(RotationConfig(m=1.5, omega1=w1, omega2=w2, phi=phi))
    worst_theta = worst_eig = 0.0
    branch = None
    for t in np.linspace(0.0, 10.0, 200):
        t = float(t)
        triple = sys.stiffness(t)
        theta = theta_at(triple, sys.masses, branch_ref=branch)
        branch = theta
        worst_theta = max(worst_theta, abs(theta - phi.value(t)))
        lo, hi = eig2_characteristic(mass_weighted_stiffness(triple, sys.masses))
        worst_eig = max(worst_eig, abs(lo - w2**2), abs(hi - w1**2))
    ok = worst_theta <= 1e-10 and worst_eig <= 1e-12
    _report(
        3,
        "rotating trap: tracked angle equals phi, spectrum invariant",
        ok,
        f"max |theta - phi| {worst_theta:.2e}, max eigenvalue error {worst_eig:.2e}",
    )


# 4 ---------------------------------------------------------------------------


def _random_preset_systems(rng, n):
    builders = {
        "transport": lambda: build_transport(
            TransportConfig(
                k=rng.uniform(0.5, 4.0),
                Q0=rng.uniform(-1.0, 1.0),
                Cc=rng.uniform(0.5, 2.0),
                masses=tuple(rng.uniform(0.5, 5.0, 2)),
            )
        ),
        "separation": lambda: build_separation(
            SeparationConfig(
                alpha=rng.uniform(0.2, 2.0),
                beta=rng.uniform(0.0, 2.0),
                Cc=rng.uniform(0.5, 2.0),
                masses=tuple(rng.uniform(0.5, 5.0, 2)),
            )
        ),
        "phase-gate": lambda: build_phase_gate(
            PhaseGateConfig(
                k0=rng.uniform(0.5, 3.0),
                F1=rng.uniform(-0.3, 0.3),
                F2=rng.uniform(-0.3, 0.3),
                Cc=rng.uniform(0.5, 2.0),
                masses=tuple(rng.uniform(0.5, 5.0, 2)),
            )
        ),
        "rotation": lambda: build_rotation(
            RotationConfig(
                m=rng.uniform(0.5, 3.0),
                omega1=rng.uniform(0.5, 3.0),
                omega2=rng.uniform(0.5, 3.0),
                phi=rng.uniform(0.0, math.pi),
            )
        ),
        "springs": lambda: build_springs(
            SpringsConfig(
                k=rng.uniform(0.3, 3.0),
                k1=rng.uniform(0.3, 3.0),
                k2=rng.uniform(0.3, 3.0),
                d=rng.uniform(1.0, 5.0),
                masses=tuple(rng.uniform(0.5, 5.0, 2)),
            )
        ),
    }
    for name, make in builders.items():
        for _ in range(n):
            yield name, make()


def test_criterion_04_equilibrium_oracle():
    rng = np.random.default_rng(104)
    worst_grad = {}
    worst_hess = {}
    for name, sys in _random_preset_systems(rng, 100):
        t = 0.0
        q_eq = np.array(sys.equilibrium(t))

        def U(q):
            return sys.full_potential(q[0], q[1], t)

        K = sys.stiffness_matrix_at(t)
        scale_g = max(1.0, np.abs(K).max() * max(1.0, np.abs(q_eq).max()))
        g = np.abs(grad4(U, q_eq, h=1e-5)).max() / scale_g
        scale_h = max(1.0, np.abs(K).max())
        h = np.abs(hessian4(U, q_eq, h=1e-3) - K).max() / scale_h
        worst_grad[name] = max(worst_grad.get(name, 0.0), g)
        worst_hess[name] = max(worst_hess.get(name, 0.0), h)
    ok = all(v <= 1e-9 for v in worst_grad.values()) and all(
        v <= 1e-7 for v in worst_hess.values()
    )
    _report(
        4,
        "equilibria zero the full potential gradient; K matches its Hessian",
        ok,
        f"max rel gradient {max(worst_grad.values()):.2e}, "
        f"max rel Hessian error {max(worst_hess.values()):.2e}",
    )


# 5 ---------------------------------------------------------------------------


def test_criterion_05_polynomial_roots():
    worst = 0.0
    worked = [
        (1.0, 0.0, 1.0, 1.0),
        (0.0, 1.0, 1.0, 2.0 ** (1.0 / 5.0)),
        (1.0, 1.0, 1.0, None),  # ~0.894, pinned by the oracle below
    ]
    for alpha, beta, Cc, expected in worked:
        got = solve_separation_distance(alpha, beta, Cc)
        hi = 1.0 + (2.0 * Cc / max(alpha, beta)) ** (1.0 / 3.0)
        oracle = bisect(lambda q: beta * q**5 + 2 * alpha * q**3 - 2 * Cc, 1e-9, hi)
        worst = max(worst, abs(got - oracle))
        if expected is not None:
            worst = max(worst, abs(got - expected))
        else:
            assert abs(got - 0.894) < 5e-4

    rng = np.random.default_rng(105)
    for _ in range(100):
        alpha = rng.uniform(0.05, 3.0)
        beta = rng.uniform(0.0, 3.0)
        Cc = rng.uniform(0.2, 2.0)

        def f(q):
            return beta * q**5 + 2 * alpha * q**3 - 2 * Cc

        hi = 1.0 + (Cc / alpha) ** (1.0 / 3.0)
        worst = max(worst, abs(solve_separation_distance(alpha, beta, Cc) - bisect(f, 1e-9, hi)))
    ok = worst <= 1e-12
    _report(5, "equilibrium-distance roots vs bisection oracle", ok, f"max |diff| {worst:.2e}")


# 6 ---------------------------------------------------------------------------


def test_criterion_06_phase_gate_formula_audit():
    rng = np.random.default_rng(106)
    worst_rel = 0.0
    for _ in range(100):
        k0 = rng.uniform(0.5, 3.0)
        Cc = rng.uniform(0.5, 2.0)
        F1 = rng.uniform(-0.3, 0.3)
        F2 = rng.uniform(-0.3, 0.3)
        q0 = solve_phase_gate_distance(F1, F2, k0, Cc)
        assert q0 > 0.0
        q1c, q2c = phase_gate_equilibria_closed_form(F1, F2, k0, Cc)
        worst_rel = max(worst_rel, abs((q1c - q2c) - q0) / q0)
    individual_ok = worst_rel <= 1e-8

    worst_eq = 0.0
    for F, k0, Cc in [(0.0, 1.0, 1.0), (0.25, 2.0, 0.7), (-0.4, 1.3, 1.5)]:
        q0 = solve_phase_gate_distance(F, F, k0, Cc)
        worst_eq = max(worst_eq, abs(q0 - (2.0 * Cc / k0) ** (1.0 / 3.0)))
    equal_force_ok = worst_eq <= 1e-12

    warned = 0
    draws = 0
    for _ in range(20):
        F1 = rng.uniform(0.05, 0.3) * rng.choice([-1.0, 1.0])
        F2 = rng.uniform(0.05, 0.3) * rng.choice([-1.0, 1.0])
        if F1 + F2 == F2 - F1:
            continue
        draws += 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            audit = audit_phase_gate_formulas(F1, F2, 1.0, 1.0)
        if any(issubclass(w.category, FormulaDiscrepancyWarning) for w in caught):
            assert not audit.published_consistent
            warned += 1
    warning_ok = draws > 0 and warned == draws

    ok = individual_ok and equal_force_ok and warning_ok
    _report(
        6,
        "anharmonic-trap equilibrium formula audit",
        ok,
        f"individual rel {worst_rel:.2e}, equal-force {worst_eq:.2e}, "
        f"warnings {warned}/{draws}",
    )


# 7 ---------------------------------------------------------------------------


def _frame_cases():
    alpha = Smoothstep(1.0, 2.0, 0.0, 10.0)
    return {
        "transport": (
            build_transport(
                TransportConfig(k=2.0, Q0=Smoothstep(0.0, 1.0, 0.0, 10.0), Cc=1.0)
            ),
            None,
        ),
        "separation": (
            build_separation(
                SeparationConfig(alpha=alpha, beta=_PoweredBeta(alpha, 0.4), masses=(3.0, 1.0))
            ),
            None,
        ),
        "rotation": (
            build_rotation(
                RotationConfig(m=1.0, omega1=2.0, omega2=1.0, phi=LinearRamp(0.0, 0.0, 1.0, 0.3))
            ),
            PhasePoint(0.0, (0.5, -0.2), (0.1, 0.3)),
        ),
    }


def test_criterion_07_frame_equivalence():
    deviations = {}
    for name, (sys, x0) in _frame_cases().items():
        if x0 is None:
            q_eq = sys.equilibrium(0.0)
            x0 = PhasePoint(0.0, (q_eq[0] + 0.3, q_eq[1] - 0.2), (0.1, -0.05))
        rep = frame_equivalence_check(sys, x0, IntegratorSpec(dt=1e-3, t0=0.0, t1=10.0))
        deviations[name] = rep.max_deviation
    bound_ok = all(v <= 1e-6 for v in deviations.values())

    # fourth-order convergence, measured where truncation dominates rounding
    rot, x0_rot = _frame_cases()["rotation"]
    coarse = frame_equivalence_check(rot, x0_rot, IntegratorSpec(dt=0.02, t0=0.0, t1=10.0))
    fine = frame_equivalence_check(rot, x0_rot, IntegratorSpec(dt=0.01, t0=0.0, t1=10.0))
    ratio = coarse.max_deviation / fine.max_deviation
    order_ok = 16.0 * 0.7 <= ratio <= 16.0 * 1.3

    # mutation test: dropping the angular-momentum coupling must break rotation
    broken = frame_equivalence_check(
        rot, x0_rot, IntegratorSpec(dt=1e-3, t0=0.0, t1=10.0), lz_coupling=False
    )
    mutation_ok = broken.max_deviation > 1e-6

    ok = bound_ok and order_ok and mutation_ok
    _report(
        7,
        "lab vs mode-frame trajectory equivalence",
        ok,
        ", ".join(f"{k} {v:.2e}" for k, v in deviations.items())
        + f"; halving ratio {ratio:.2f}; mutated deviation {broken.max_deviation:.2e}",
    )


# 8 ---------------------------------------------------------------------------


def _rk4_1d(w_sq_of_t, y0, dt, n):
    """Reference 1D oscillator integration, independent of the library paths."""
    out = np.empty((n + 1, 2))
    y = np.array(y0, dtype=float)
    out[0] = y
    t = 0.0
    for i in range(n):
        def rhs(ti, yi):
            return np.array([yi[1], -w_sq_of_t(ti) * yi[0]])

        k1 = rhs(t, y)
        k2 = rhs(t + dt / 2, y + dt / 2 * k1)
        k3 = rhs(t + dt / 2, y + dt / 2 * k2)
        k4 = rhs(t + dt, y + dt * k3)
        y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
        out[i + 1] = y
    return out


def test_criterion_08_larmor_compensation():
    phi = Smoothstep(0.0, math.pi / 2.0, 0.0, 10.0)
    w1, w2 = 2.0, 1.0
    sys = build_rotation(RotationConfig(m=1.0, omega1=w1, omega2=w2, phi=phi))
    X0 = PhasePoint(0.0, (0.5, -0.2), (0.1, 0.3), frame="mode")
    dt, n = 1e-3, 10_000
    spec = IntegratorSpec(dt=dt, t0=0.0, t1=10.0)

    comp = integrate_modes(sys, X0, spec, apply_larmor=True)
    E = mode_energy_series(comp, sys, compensated=True)
    worst = 0.0
    for i, wi in enumerate([w1, w2]):
        def w_sq(t, wi=wi):
            return wi**2 + phi.derivative(t) ** 2

        ref = _rk4_1d(w_sq, (X0.q[i], X0.p[i]), dt, n)
        E_ref = 0.5 * (
            ref[:, 1] ** 2
            + np.array([w_sq(t) for t in comp.times]) * ref[:, 0] ** 2
        )
        worst = max(worst, np.abs(E[:, i] - E_ref).max())
    comp_ok = worst <= 1e-6

    raw = integrate_modes(sys, X0, spec, apply_larmor=False)
    E_raw = mode_energy_series(raw, sys)
    total0 = E_raw[0].sum()
    transfer = np.abs(E_raw - E_raw[0]).max() / total0
    raw_ok = transfer > 0.01

    ok = comp_ok and raw_ok
    _report(
        8,
        "Larmor-compensated modes behave as independent oscillators",
        ok,
        f"max energy mismatch {worst:.2e}, uncompensated transfer {transfer:.1%}",
    )


# 9 ---------------------------------------------------------------------------


def test_criterion_09_uncoupled_interchange():
    # k = 0 with k1 and k2 swapping smoothly: mode labels stay put (theta
    # frozen) while the two squared frequencies cross
    sys = build_custom(
        CustomConfig(
            k=0.0,
            k1=Smoothstep(2.0, 0.5, 0.0, 10.0),
            k2=Smoothstep(0.5, 2.0, 0.0, 10.0),
        )
    )
    branch = None
    diffs = []
    rates_exact = True
    for t in np.linspace(0.0, 10.0, 200):
        dec = decompose_at(sys, float(t), branch_ref=branch)
        branch = dec.theta
        diffs.append(dec.omega1_sq - dec.omega2_sq)
        if theta_dot_at(sys, float(t)) != 0.0:
            rates_exact = False
    diffs = np.array(diffs)
    crossed = diffs[0] > 0.0 and diffs[-1] < 0.0 and np.any(np.diff(np.sign(diffs)) != 0)
    ok = rates_exact and crossed
    _report(
        9,
        "uncoupled swap: theta_dot identically zero while frequencies cross",
        ok,
        f"omega1^2-omega2^2 runs {diffs[0]:+.3f} -> {diffs[-1]:+.3f}",
    )


# 10 ---------------------------------------------------------------------------


def test_criterion_10_cli_determinism_and_exit_codes(tmp_path, capsys):
    def cfg_obj(out):
        return {
            "schema": 1,
            "preset": {
                "type": "transport",
                "k": 2.0,
                "Q0": {"kind": "smoothstep", "v0": 0.0, "v1": 1.0, "t0": 0.0, "t1": 2.0},
                "Cc": 1.0,
            },
            "window": [0.0, 2.0],
            "samples": 40,
            "integrator": {"dt": 0.01},
            "output": {"path": out},
            "sweep": {"axes": [{"path": "preset.k", "values": [1.0, 2.0]}]},
        }

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg_obj(str(tmp_path / "run"))))
    cfg = str(cfg_path)

    deterministic = True
    for cmd, outputs in [
        (["analyze"], ["run_analyze.csv"]),
        (["classify"], []),
        (["simulate"], ["run_lab.csv", "run_mode.csv", "run_report.json"]),
        (["sweep"], ["run_sweep.csv"]),
    ]:
        assert cli_main(cmd + ["--config", cfg]) == 0
        stdout1 = capsys.readouterr().out
        bytes1 = [(tmp_path / f).read_bytes() for f in outputs]
        assert cli_main(cmd + ["--config", cfg]) == 0
        stdout2 = capsys.readouterr().out
        bytes2 = [(tmp_path / f).read_bytes() for f in outputs]
        if stdout1 != stdout2 or bytes1 != bytes2:
            deterministic = False

    bad = cfg_obj(str(tmp_path / "bad"))
    bad["schema"] = 99
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    code2 = cli_main(["analyze", "--config", str(bad_path)]) == 2

    dom = cfg_obj(str(tmp_path / "dom"))
    dom["preset"]["k"] = {"kind": "linear-ramp", "t0": 0.0, "v0": 1.0, "t1": 1.0, "v1": -1.0}
    dom_path = tmp_path / "dom.json"
    dom_path.write_text(json.dumps(dom))
    code3 = cli_main(["analyze", "--config", str(dom_path)]) == 3

    div = {
        "schema": 1,
        "preset": {"type": "custom", "k": 0.0, "k1": -50.0, "k2": 1.0},
        "window": [0.0, 30.0],
        "integrator": {"dt": 0.01},
        "initial_state": {"q": [1.0, 0.0], "p": [0.0, 0.0]},
        "output": {"path": str(tmp_path / "div")},
    }
    div_path = tmp_path / "div.json"
    div_path.write_text(json.dumps(div))
    code4 = cli_main(["simulate", "--config", str(div_path)]) == 4
    partial = (tmp_path / "div_lab.csv.partial").exists()
    capsys.readouterr()

    ok = deterministic and code2 and code3 and code4 and partial
    _report(
        10,
        "CLI determinism and exit codes",
        ok,
        f"byte-identical {deterministic}, exit codes 2/3/4 "
        f"{code2}/{code3}/{code4}, partial output {partial}",
    )
