"""Child process of the benchmark.

    python3 perfbench/worker.py setup SRC CONFIG...   time one cold set-up
    python3 perfbench/worker.py run SPEC.json         run a workload's passes

``setup`` runs in a fresh interpreter and prints the seconds taken by
``import dnmodes`` plus ``load_config`` and ``build_preset`` for each config.
``run`` executes the commands described in SPEC.json through
``dnmodes.cli.main``, checks every output, and writes its measurements to
the spec's ``result`` path.  Running in its own process lets the peak RSS
describe this workload alone.

Both time a fixed pure-Python loop next to what they measure
(``calibration_s``), so that the end-to-end times can be given in
host-normalized seconds: see ``normalized``.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

import workloads
from tracer import Tracer, instrument, probe_pool


# The calibration loop's time on the host the benchmark was written on (2
# vCPUs of a shared x86-64 host, Python 3.11) at its fastest.  A normalized
# time is what the measured work would have taken there at that speed.
REF_CALIBRATION_S = 0.014


def _cal_step(x: float, c: dict):
    return (x * x - c[0]) * x + c[1], 3.0 * x * x - c[0]


def calibration_s() -> float:
    """Seconds taken by a fixed loop with the program's mix of work: float
    arithmetic, a Newton iteration through calls and small tuples, and
    2x2 numpy algebra.

    A shared host slows the benchmark by up to 2x, switching between a fast
    and a slow state every few seconds; the loop slows with it, so the ratio
    of the two is what the program itself costs.  The garbage collector is
    off, so that a collection of the program's heap is not charged to the
    host.  numpy is imported before the clock starts; call this only after
    the program has imported it, so that set-up times keep that import."""
    import numpy as np

    gc.disable()
    try:
        start = time.perf_counter()
        acc = 0.0
        for i in range(60000):
            acc += (i * 0.5) % 3.0
        coeffs = {0: 2.0, 1: -1.0}
        for k in range(1500):
            x = 1.0 + k * 1e-4
            for _ in range(6):
                fx, d = _cal_step(x, coeffs)
                x -= fx / d
            acc += math.sqrt(x)
        m = np.array([[2.0, 0.3], [0.3, 1.0]])
        v = y = np.array([1.0, 0.5])
        for _ in range(1500):
            y = m @ y * 0.5 + v
            acc += float(y[0]) + float(np.hypot(y[0], y[1]))
        return time.perf_counter() - start
    finally:
        gc.enable()


def central(values: list) -> float:
    """Interquartile mean: the mean of the middle half of ``values``.

    Like the median it ignores the passes a switch of host state cut in
    two; unlike the median it does not jump between the fast and the slow
    state's level when the share of slow passes is near one half."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def normalized(seconds: float, calib_s: float) -> float:
    """Host-normalized seconds: ``seconds`` scaled by how much slower than
    on the reference host the calibration loop ran next to them."""
    return seconds * REF_CALIBRATION_S / calib_s


def setup(src: str, configs: list) -> None:
    start = time.perf_counter()
    sys.path.insert(0, src)
    import dnmodes
    import dnmodes.cli

    for path in configs:
        dnmodes.build_preset(dnmodes.cli.load_config(path)["preset"])
    wall = time.perf_counter() - start
    calib = (calibration_s() + calibration_s()) / 2
    print(json.dumps({"setup_s": normalized(wall, calib), "wall_s": wall, "calib_s": calib}))


# ---------------------------------------------------------------------------


def summarize(values: list) -> dict:
    """Median with its sample count, plus the highest of p75/p90/p95/p99/p99.9
    that has at least ten samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    ordered = sorted(values)
    for p in (99.9, 99, 95, 90, 75):
        if len(values) * (1 - p / 100) >= 10:
            rank = -(-p * len(values) // 100)  # nearest rank, ceil(p n / 100)
            out[f"p{p:g}"] = ordered[int(rank) - 1]
            break
    return out


class Runner:
    """Runs commands through ``dnmodes.cli.main`` and checks their outputs."""

    def __init__(self, spec: dict, main):
        self.spec = spec
        self.main = main
        self.attempted = 0
        self.failures = {}  # reason -> count
        self.problems = []  # failed output checks: the run is not correct
        self.reference = {}  # command index -> digest of its first outputs

    def _fail(self, label: str, reason: str) -> None:
        key = f"{label}: {reason}"
        self.failures[key] = self.failures.get(key, 0) + 1

    def command(self, key, cmd: dict):
        """Run one command; returns (succeeded, wall seconds)."""
        self.attempted += 1
        label, argv = cmd["label"], cmd["argv"]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.main(argv)
        except Exception as exc:  # a raising command is a failure to record
            self._fail(label, f"{type(exc).__name__}: {exc}")
            return False, time.perf_counter() - start
        elapsed = time.perf_counter() - start
        if rc != 0:
            first = (err.getvalue().strip().splitlines() or [""])[0]
            self._fail(label, f"exit {rc}: {first}")
            return False, elapsed
        stdout = out.getvalue()
        try:
            problems = workloads.CHECKS[label](cmd["cfg"], argv, cmd["out"], stdout)
            digest = hashlib.sha256(stdout.encode())
            for suffix in workloads.OUTPUTS[label]:
                with open(cmd["out"] + suffix, "rb") as fh:
                    digest.update(fh.read())
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"unreadable output: {exc}"]
            digest = None
        if digest is not None:
            first = self.reference.setdefault(key, digest.hexdigest())
            if first != digest.hexdigest():
                problems.append("output differs from the first pass")
        if problems:
            self.problems += [f"{label}: {p}" for p in problems]
            self._fail(label, "output check failed")
            return False, elapsed
        return True, elapsed

    def one_pass(self) -> dict:
        rows = []
        for i, cmd in enumerate(self.spec["commands"]):
            ok, seconds = self.command(i, cmd)
            rows.append({"label": cmd["label"], "ok": ok, "seconds": seconds,
                         "items": cmd["items"], "points": cmd["points"]})
        return {"wall_s": sum(r["seconds"] for r in rows), "commands": rows}

    def passes(self, deadline: float, one_pass=None) -> list:
        """Passes until the deadline, always at least one, each bracketed by
        calibration loops; ``calib_s`` is the mean of the two around it."""
        one_pass = one_pass or self.one_pass
        done = []
        calib = calibration_s()
        while not done or time.perf_counter() < deadline:
            record = one_pass()
            after = calibration_s()
            record["calib_s"] = (calib + after) / 2
            done.append(record)
            calib = after
        return done


def pass_s(p: dict) -> float:
    return normalized(p["wall_s"], p["calib_s"])


def end_to_end(passes: list) -> dict:
    def points_rate(p):
        # Goodput: only succeeded commands' work counts, against the whole pass.
        return sum(c["points"] for c in p["commands"] if c["ok"]) / pass_s(p)

    return {
        "workload_s": central([pass_s(p) for p in passes]),
        "time_points_per_s": central([points_rate(p) for p in passes]),
    }


def per_command(passes: list) -> dict:
    """The per-command throughputs (successful commands only) and times, in
    host-normalized seconds, and the raw wall and calibration times."""
    names = {"simulate": "simulate_steps_per_s", "analyze": "analyze_samples_per_s",
             "classify": "classify_samples_per_s", "sweep": "sweep_points_per_s"}
    out = {"workload_s": dict(summarize([pass_s(p) for p in passes]),
                              central=central([pass_s(p) for p in passes])),
           "wall_workload_s": summarize([p["wall_s"] for p in passes]),
           "wall_pass_s": [p["wall_s"] for p in passes],
           "calib_s": [p["calib_s"] for p in passes]}
    for label, name in names.items():
        cmds = [(c, p["calib_s"]) for p in passes for c in p["commands"] if c["label"] == label]
        if not cmds:
            continue
        ok = [(c, cal) for c, cal in cmds if c["ok"]]
        out[f"{label}_s"] = summarize([normalized(c["seconds"], cal) for c, cal in cmds])
        out[name] = (summarize([c["items"] / normalized(c["seconds"], cal) for c, cal in ok])
                     if ok else None)
    return out


# ---------------------------------------------------------------------------
# Traced passes: one fresh tracer per pass, reduced to the per-layer metrics.
# ---------------------------------------------------------------------------


def layer_metrics(export: dict, steps: int, simulates: int) -> dict:
    agg = export["aggregates"]
    counters = export["counters"]
    notes = export["notes"]

    def calls(*names):
        return sum(agg.get(n, {}).get("calls", 0) for n in names)

    def total(*names):
        return sum(agg.get(n, {}).get("total_s", 0.0) for n in names)

    def self_s(prefix):
        return sum(a["self_s"] for n, a in agg.items() if n.startswith(prefix))

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    slices = [n for n in agg if n.startswith("presets.") and n != "presets.build_preset"]
    solves = calls("rootfind.solve_positive_root")
    lab_steps = counters.get("dynamics.lab_steps", 0)
    mode_steps = counters.get("dynamics.mode_steps", 0)
    return {
        "rootfind.solves": solves,
        "rootfind.solves_per_step": ratio(solves, steps),
        "rootfind.full_scans": calls("rootfind.positive_roots"),
        "rootfind.self_s": self_s("rootfind."),
        "rootfind.distinct_ratio": ratio(export["distinct_solver_inputs"], solves),
        "presets.build_s": total("presets.build_preset"),
        "presets.slice_calls_per_step": ratio(calls(*slices), steps),
        "presets.slice_self_s": sum(agg[n]["self_s"] for n in slices),
        "schedules.evals": calls("schedules.value", "schedules.derivative"),
        "schedules.evals_per_step": ratio(calls("schedules.value", "schedules.derivative"), steps),
        "schedules.self_s": self_s("schedules."),
        "quadratic.fd_fallbacks": counters.get("quadratic.fd_fallbacks", 0),
        "modes.theta_dot_calls": calls("modes.theta_dot_at"),
        "modes.decompose_calls": calls("modes.decompose_at"),
        "modes.self_s": self_s("modes."),
        "dynamics.rk4_steps": counters.get("dynamics.rk4_steps", 0),
        "dynamics.lab_step_us": ratio(total("dynamics.integrate_lab"), lab_steps, 1e6),
        "dynamics.mode_step_us": ratio(total("dynamics.integrate_modes"), mode_steps, 1e6),
        "dynamics.lab_self_s": self_s("dynamics.integrate_lab"),
        "dynamics.mode_self_s": self_s("dynamics.integrate_modes"),
        "dynamics.map_point_us": ratio(
            total("dynamics.map_to_mode_frame"), counters.get("dynamics.map_points", 0), 1e6
        ),
        "dynamics.csv_write_s": total("dynamics.write_trajectory_csv"),
        "dynamics.csv_bytes": counters.get("dynamics.csv_bytes", 0),
        "dynamics.frame_dev": max(notes.get("dynamics.frame_dev", [0.0])),
        "cli.config_load_s": total("cli.load_config"),
        "cli.integrations_per_simulate": ratio(
            counters.get("dynamics.lab_integrations", 0)
            + counters.get("dynamics.mode_integrations", 0),
            simulates,
        ),
        "cli.sweep_point_s": ratio(total("cli.sweep_point"), calls("cli.sweep_point")),
        "cli.sweep_workers": max(notes.get("cli.sweep_workers", [0])),
    }


def traced_pass(runner: Runner, dnm: dict):
    tracer = Tracer()
    undo = instrument(tracer, dnm)
    runner.main = tracer.span("cli.command", dnm["cli"].main)
    try:
        record = runner.one_pass()
    finally:
        runner.main = dnm["cli"].main
        undo()
    export = tracer.export()
    export["distinct_solver_inputs"] = tracer.distinct_keys()
    sims = [c for c in runner.spec["commands"] if c["label"] == "simulate"]
    steps = sum(c["items"] for c in sims)
    return record, layer_metrics(export, steps, len(sims)), export


def machine(pools: list) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "sweep_workers": max(pools) if pools else None,
    }


def run(spec_path: str) -> None:
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from dnmodes import cli, dynamics, modes, presets, quadratic, rootfind, schedules

    dnm = {"cli": cli, "dynamics": dynamics, "modes": modes, "presets": presets,
           "quadratic": quadratic, "rootfind": rootfind, "schedules": schedules}
    pools = []
    probe_pool(cli, pools)
    runner = Runner(spec, cli.main)
    for i, cmd in enumerate(spec["checks"]):
        runner.command(("check", i), cmd)
    runner.one_pass()  # warm-up: lazy imports, caches, reference outputs

    start = time.perf_counter()
    seconds = spec["seconds"]
    result = {}
    if not spec["trace"]:
        passes = runner.passes(start + seconds)
        result["end_to_end"] = end_to_end(passes)
        result["per_command"] = per_command(passes)
    else:
        passes = runner.passes(start + seconds / 2)
        layers, exports = [], []

        def one_traced_pass():
            record, metrics, export = traced_pass(runner, dnm)
            layers.append(metrics)
            exports.append(export)
            return record

        traced = runner.passes(start + seconds, one_traced_pass)
        plain_s = central([pass_s(p) for p in passes])
        traced_s = central([pass_s(p) for p in traced])
        result["per_layer"] = {
            name: statistics.median(m[name] for m in layers) for name in layers[0]
        }
        result["per_layer"]["trace.overhead"] = traced_s / plain_s
        result["trace_overhead"] = {"traced_workload_s": traced_s, "untraced_workload_s": plain_s,
                                    "traced_passes": len(traced), "untraced_passes": len(passes)}
        with open(spec["trace_out"], "w") as fh:
            json.dump(exports, fh, default=str)
    result.update({
        "passes": len(passes),
        "attempted": runner.attempted,
        "failed": sum(runner.failures.values()),
        "failures": runner.failures,
        "problems": runner.problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine(pools),
    })
    with open(spec["result"], "w") as fh:
        json.dump(result, fh, indent=1)


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2], sys.argv[3:])
    else:
        run(sys.argv[2])
