"""Seeded workloads for the dnmodes benchmark, and the checks on their outputs.

Each workload is a list of ``dnm`` commands over configs drawn from the seed.
The seed only moves parameter values inside each preset's valid domain, and
only values that leave the amount of work unchanged: steps, samples and grid
points are fixed per workload, and so are the schedules that set the
equilibrium distance.  The root solver's Newton iterations depend on those
schedules in a way no range can tame (drawing them moved the function
evaluations per pass by up to half between seeds), so the seed draws the
masses, the initial state and the table phi(t) instead, and runs with
different seeds measure the same work.  Only the standard library is used
here, so this module can be imported before ``dnmodes`` is timed.
"""

from __future__ import annotations

import json
import math
import random

# Power-of-two steps make every time t0 + i*dt exact, so a run can be
# checked to end exactly on its window end.
DT = 2.0**-7
FRAME_DEV_BOUND = 1e-6  # criterion 07's bound
SEP_RAMP = 4.0

WHY = {
    "sim-separation": (
        "simulate on a separation ramp through the double-well split: the "
        "equilibrium quintic root solve dominates, schedules are cheap closed forms"
    ),
    "sim-rotation-table": (
        "simulate --larmor on rotation with a cubic-table phi(t): no root solves; "
        "spline evaluation, mode RK4 with the theta_dot coupling and a third integration"
    ),
    "survey-phase-gate": (
        "analyze, classify and a 2-axis sweep on phase-gate: no integration; fresh "
        "systems, cold 512-point root scans, theta_dot sampling and the sweep thread pool"
    ),
}

# Work per pass.  "smoke" keeps the benchmark's own tests to a few seconds.
SIZES = {
    "full": {"sep_steps": 512, "rot_steps": 2048, "table_knots": 33,
             "samples": 100, "analyze_samples": 1000, "grid": (6, 6)},
    "smoke": {"sep_steps": 16, "rot_steps": 32, "table_knots": 9,
              "samples": 8, "analyze_samples": 16, "grid": (2, 2)},
}


def _separation(rng: random.Random, size: dict) -> dict:
    # The ramp spans SEP_RAMP time units whatever the window, so a smoke
    # run covers only its start instead of squeezing the whole ramp.
    t1 = size["sep_steps"] * DT
    m1 = rng.uniform(0.8, 1.5)
    # alpha > 0 is a single well; alpha < 0 with beta > 0 is the double well.
    # The quintic has exactly one positive root for beta > 0, and
    # k1 = 6 Cc / q0^3 - 4 alpha stays positive, so the system is stable.
    # alpha, beta and Cc are fixed: they alone set the root solver's work.
    # They are one earlier draw from the ranges alpha.v0 in [0.5, 1.5],
    # alpha.v1 in [-1.5, -0.5], ramp ends in [0.05, 0.2] and [0.8, 0.95] of
    # SEP_RAMP, beta in [0.5, 1.5], Cc in [0.8, 1.2]; round values there make
    # Newton converge unusually fast (306 026 function evaluations per pass,
    # against 361 000 to 518 000 for twelve draws; this one takes 438 201).
    return {
        "schema": 1,
        "preset": {
            "type": "separation",
            "alpha": {"kind": "smoothstep", "v0": 0.7272579622308882,
                      "v1": -1.2059001104872493, "t0": 0.7094804483273351,
                      "t1": 3.6498050707753356},
            "beta": {"kind": "linear-ramp", "t0": 0.0, "v0": 0.5853602574299067,
                     "t1": SEP_RAMP, "v1": 0.9949063209617852},
            "Cc": 1.1548293194997403,
            "masses": [m1, m1 * rng.uniform(1.5, 3.0)],
        },
        "window": [0.0, t1],
        "integrator": {"dt": DT, "method": "rk4"},
        "initial_state": {"q": [rng.uniform(0.4, 0.8), -rng.uniform(0.4, 0.8)],
                          "p": [rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)]},
    }


def _rotation_table(rng: random.Random, size: dict) -> dict:
    t1 = size["rot_steps"] * DT
    n = size["table_knots"]
    times = [t1 * i / (n - 1) for i in range(n)]
    times[-1] = t1
    # phi(t): a drift plus two random harmonics, so phidot != 0 throughout
    # most of the window and the frame really rotates.
    rate = rng.uniform(0.2, 0.5)
    harmonics = [(rng.uniform(0.05, 0.2), rng.uniform(0.5, 2.0), rng.uniform(0, 2 * math.pi))
                 for _ in range(2)]
    values = [rate * t + sum(a * math.sin(w * t + ph) for a, w, ph in harmonics)
              for t in times]
    return {
        "schema": 1,
        "preset": {
            "type": "rotation",
            "m": rng.uniform(0.8, 1.5),
            "omega1": rng.uniform(1.5, 2.5),
            "omega2": rng.uniform(0.7, 1.2),
            "phi": {"kind": "table", "times": times, "values": values,
                    "interpolation": "cubic"},
        },
        "window": [0.0, t1],
        "samples": size["samples"],
        "integrator": {"dt": DT, "method": "rk4"},
        "initial_state": {"q": [rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)],
                          "p": [rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)]},
    }


def _phase_gate(rng: random.Random, size: dict) -> dict:
    t1 = 8.0
    m1 = rng.uniform(0.8, 1.5)
    n0, n1 = size["grid"]
    # |F1 - F2| <= 1 keeps the published closed form's radicand
    # 27 Cc k0^2 - 2 (F1 - F2)^3 positive, and the cubic's positive root is
    # unique for any F1 - F2.  k0, F1, F2, Cc and the sweep grid are fixed:
    # they alone set the root solver's work (276 053 function evaluations
    # per pass, inside the 245 000 to 371 000 of ten earlier draws).
    return {
        "schema": 1,
        "preset": {
            "type": "phase-gate",
            "k0": 1.2,
            "F1": {"kind": "smoothstep", "v0": 0.0, "v1": 0.3, "t0": 1.0, "t1": 5.0},
            "F2": {"kind": "smoothstep", "v0": 0.0, "v1": -0.3, "t0": 2.0, "t1": 6.0},
            "Cc": 1.0,
            "masses": [m1, m1 * rng.uniform(1.3, 2.5)],
        },
        "window": [0.0, t1],
        "samples": size["samples"],
        "sweep": {"axes": [
            {"path": "preset.k0", "values": _grid(0.8, 1.6, n0)},
            {"path": "preset.F1.v1", "values": _grid(0.05, 0.5, n1)},
        ]},
    }


def _grid(lo: float, hi: float, n: int) -> list:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def generate(workload: str, seed: int, smoke: bool = False):
    """Return ``(configs, commands, checks)`` for one workload.

    ``configs`` maps a config name to its JSON object.  ``commands`` is the
    timed pass: a list of ``(label, argv, config name)`` where ``{name}`` in
    argv stands for that config's path and ``{out}`` for the output base.
    ``checks`` are commands run once, untimed, only to check an output.
    """
    size = SIZES["smoke" if smoke else "full"]
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sim-separation":
        configs = {"separation": _separation(rng, size)}
        commands = [("simulate", ["simulate", "--config", "{separation}", "--out", "{out}"],
                     "separation")]
        checks = []
    elif workload == "sim-rotation-table":
        configs = {"rotation": _rotation_table(rng, size)}
        commands = [("simulate", ["simulate", "--config", "{rotation}", "--out", "{out}",
                                  "--larmor"], "rotation")]
        checks = [("classify", ["classify", "--config", "{rotation}"], "rotation")]
    elif workload == "survey-phase-gate":
        configs = {"phase_gate": _phase_gate(rng, size)}
        commands = [
            ("analyze", ["analyze", "--config", "{phase_gate}", "--out", "{out}",
                         "--samples", str(size["analyze_samples"])], "phase_gate"),
            ("classify", ["classify", "--config", "{phase_gate}"], "phase_gate"),
            ("sweep", ["sweep", "--config", "{phase_gate}", "--out", "{out}"], "phase_gate"),
        ]
        checks = []
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {sorted(WHY)}")
    return configs, commands, checks


def _argv_value(argv: list, flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def work_items(cfg: dict, argv: list) -> int:
    """Units of work one command was asked for: requested steps for
    simulate, samples for analyze and classify, grid points for sweep."""
    cmd = argv[0]
    t0, t1 = cfg["window"]
    if cmd == "simulate":
        return round((t1 - t0) / cfg["integrator"]["dt"])
    if cmd == "sweep":
        return math.prod(len(ax["values"]) for ax in cfg["sweep"]["axes"])
    return int(_argv_value(argv, "--samples", cfg.get("samples", 200)))


def sample_points(cfg: dict, argv: list) -> int:
    """Time points the command evaluates: steps, samples, or grid points
    times samples per point."""
    if argv[0] == "sweep":
        return work_items(cfg, argv) * cfg.get("samples", 200)
    return work_items(cfg, argv)


# ---------------------------------------------------------------------------
# Output checks.  Each returns a list of problems; empty means correct.
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _read_csv(path: str):
    with open(path) as fh:
        lines = fh.read().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def _check_time_column(rows, t0, t1, expect_rows, what) -> list:
    problems = []
    if len(rows) != expect_rows:
        problems.append(f"{what}: {len(rows)} rows, expected {expect_rows}")
    if rows and float(rows[0][0]) != t0:
        problems.append(f"{what}: first t {rows[0][0]} != window start {t0!r}")
    if rows and float(rows[-1][0]) != t1:
        problems.append(f"{what}: last t {rows[-1][0]} != window end {t1!r}")
    return problems


def check_simulate(cfg: dict, argv: list, out: str, stdout: str) -> list:
    t0, t1 = cfg["window"]
    n = work_items(cfg, argv)
    problems = []
    for frame, header in (("lab", "t,q1,q2,p1,p2,frame"), ("mode", "t,Q1,Q2,P1,P2,frame")):
        head, rows = _read_csv(f"{out}_{frame}.csv")
        if head != header:
            problems.append(f"{frame} csv header {head!r}")
        problems += _check_time_column(rows, t0, t1, n + 1, f"{frame} csv")
        if any(len(r) != 6 or r[5] != frame for r in rows):
            problems.append(f"{frame} csv has malformed rows")
    with open(f"{out}_report.json") as fh:
        report = json.load(fh)
    dev = report.get("frame_equivalence_max_deviation")
    if not (isinstance(dev, float) and dev <= FRAME_DEV_BOUND):
        problems.append(f"frame_equivalence_max_deviation {dev!r} > {FRAME_DEV_BOUND}")
    if report.get("larmor") is not ("--larmor" in argv):
        problems.append(f"report larmor flag {report.get('larmor')!r}")
    if stdout.strip() != f"{out}_report.json":
        problems.append(f"simulate printed {stdout!r}")
    return problems


def check_analyze(cfg: dict, argv: list, out: str, stdout: str) -> list:
    t0, t1 = cfg["window"]
    head, rows = _read_csv(f"{out}_analyze.csv")
    problems = []
    if head != "t,theta,theta_dot,omega1_sq,omega2_sq,ellipse_r1,ellipse_r2,q1_eq,q2_eq":
        problems.append(f"analyze header {head!r}")
    problems += _check_time_column(rows, t0, t1, work_items(cfg, argv), "analyze csv")
    if any(len(r) != 9 for r in rows):
        problems.append("analyze csv has malformed rows")
    return problems


def check_classify(cfg: dict, argv: list, out: str, stdout: str) -> list:
    report = json.loads(stdout)
    problems = []
    fields = {"separable", "max_abs_theta_dot", "stability", "analytic_case"}
    if set(report) != fields:
        problems.append(f"classify fields {sorted(report)}")
    if cfg["preset"]["type"] == "rotation" and report.get("separable") is not False:
        # phi is a table with nonzero slope, so theta_dot != 0.
        problems.append("rotation with phidot != 0 reported separable")
    if report.get("stability") not in ("both-stable", "transiently-unstable"):
        problems.append(f"classify stability {report.get('stability')!r}")
    return problems


def check_sweep(cfg: dict, argv: list, out: str, stdout: str) -> list:
    axes = cfg["sweep"]["axes"]
    head, rows = _read_csv(f"{out}_sweep.csv")
    names = ",".join(ax["path"] for ax in axes)
    problems = []
    if head != f"{names},theta_t0,max_abs_theta_dot,separable,stability":
        problems.append(f"sweep header {head!r}")
    grid = [(a,) for a in axes[0]["values"]]
    if len(axes) == 2:
        grid = [(a, b) for (a,) in grid for b in axes[1]["values"]]
    if len(rows) != len(grid):
        problems.append(f"sweep has {len(rows)} rows, expected {len(grid)}")
    for row, point in zip(rows, grid):
        if row[: len(point)] != [_fmt(v) for v in point]:
            problems.append(f"sweep row {row[:len(point)]} out of grid order")
            break
    if any(r[-2] not in ("true", "false") for r in rows):
        problems.append("sweep separable column is not true/false")
    return problems


CHECKS = {
    "simulate": check_simulate,
    "analyze": check_analyze,
    "classify": check_classify,
    "sweep": check_sweep,
}

# Files each command writes, for the byte-identity check between passes.
OUTPUTS = {
    "simulate": ("_lab.csv", "_mode.csv", "_report.json"),
    "analyze": ("_analyze.csv",),
    "classify": (),
    "sweep": ("_sweep.csv",),
}
