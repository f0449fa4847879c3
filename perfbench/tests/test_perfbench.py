"""Tests of the benchmark itself: tracer arithmetic, the pinned per-layer
counts, the declared metric names, and a smoke run of the command line."""

import json
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = sorted(workloads.WHY)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_calls():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    hot_leaf = tracer.hot("leaf", leaf)

    def middle():
        clock.now += 1.0
        hot_leaf()
        hot_leaf()
        clock.now += 0.5

    def outer():
        clock.now += 3.0
        traced_middle()

    traced_middle = tracer.span("middle", middle)
    tracer.span("outer", outer)()

    agg = tracer.aggregates()
    assert agg["leaf"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}
    assert agg["middle"] == {"calls": 1, "total_s": 5.5, "self_s": 1.5}
    assert agg["outer"] == {"calls": 1, "total_s": 8.5, "self_s": 3.0}
    spans = {s["name"]: s for s in tracer.export()["spans"]}
    assert spans["middle"]["parent"] == spans["outer"]["id"]
    assert spans["outer"]["parent"] is None
    assert spans["middle"]["end_s"] - spans["middle"]["start_s"] == 5.5


def test_pool_thread_spans_keep_the_submitting_parent():
    tracer = Tracer()
    seen = []

    def point(i):
        seen.append(threading.current_thread().name)
        return tracer.span("inner", lambda: i)()

    def command():
        with ThreadPoolExecutor(max_workers=2) as pool:
            parent = tracer.current_span()
            futures = [pool.submit(tracer.span("point", point, parent=parent), i)
                       for i in range(6)]
            return [f.result(timeout=10) for f in futures]

    assert tracer.span("command", command)() == list(range(6))
    spans = tracer.export()["spans"]
    (cmd,) = [s for s in spans if s["name"] == "command"]
    points = {s["id"]: s for s in spans if s["name"] == "point"}
    assert len(points) == 6 and all(s["parent"] == cmd["id"] for s in points.values())
    inner = [s for s in spans if s["name"] == "inner"]
    assert len(inner) == 6 and all(s["parent"] in points for s in inner)
    assert all(points[s["parent"]]["thread"] == s["thread"] for s in inner)
    assert cmd["thread"] not in seen


@pytest.fixture(scope="module")
def dnm():
    from dnmodes import cli, dynamics, modes, presets, quadratic, rootfind, schedules

    return {"cli": cli, "dynamics": dynamics, "modes": modes, "presets": presets,
            "quadratic": quadratic, "rootfind": rootfind, "schedules": schedules}


def traced_smoke(dnm, workload, tmp_path):
    spec, _ = run.prepare(workload, 3, True, os.path.join(ROOT, "src"), str(tmp_path))
    runner = worker.Runner(spec, dnm["cli"].main)
    original = dnm["presets"].solve_positive_root
    record, metrics, _ = worker.traced_pass(runner, dnm)
    assert dnm["presets"].solve_positive_root is original  # wrappers removed
    assert not runner.problems
    return record, metrics, runner


@pytest.mark.parametrize("workload", WORKLOADS)
def test_pinned_layer_counts(dnm, workload, tmp_path):
    record, metrics, runner = traced_smoke(dnm, workload, tmp_path)
    declared = [m["name"] for m in json.load(open(os.path.join(ROOT, "BENCHMARK.json")))["per_layer"]]
    assert set(metrics) | {"trace.overhead"} == set(declared)
    assert metrics["quadratic.fd_fallbacks"] == 0
    if workload == "sim-separation":
        assert metrics["cli.integrations_per_simulate"] == 4
        assert 50 <= metrics["rootfind.solves_per_step"] <= 60
        assert metrics["dynamics.frame_dev"] <= workloads.FRAME_DEV_BOUND
    if workload == "sim-rotation-table":
        assert metrics["rootfind.solves_per_step"] == 0
        assert metrics["rootfind.solves"] == 0
        assert metrics["schedules.evals"] > 0
    if workload == "survey-phase-gate":
        assert metrics["dynamics.rk4_steps"] == 0
        assert metrics["rootfind.full_scans"] > 0
        assert metrics["cli.sweep_workers"] >= 1
        # classify on a root-solving preset fails at this commit; the
        # benchmark must record it, not hide it.
        assert any(k.startswith("classify: ") for k in runner.failures)
    else:
        assert all(c["ok"] for c in record["commands"])


def test_layer_map_matches_benchmark_json():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    layers = json.load(open(os.path.join(BENCH, "layers.json")))
    assert list(layers) == [m["name"] for m in bench["per_layer"]]
    e2e = {m["name"] for m in bench["end_to_end"]}
    names = {w["name"] for w in bench["workloads"]}
    assert names == set(WORKLOADS)
    for metric, entry in layers.items():
        assert metric.startswith(entry["layer"] + ".")
        for workload, moved in entry["moves"].items():
            assert workload in names and set(moved) <= e2e, metric


def test_checks_catch_a_truncated_window(tmp_path):
    configs, commands, _ = workloads.generate("sim-separation", 0, smoke=True)
    cfg = configs["separation"]
    argv = commands[0][1]
    out = str(tmp_path / "x")
    n = workloads.work_items(cfg, argv)
    for frame, head in (("lab", "t,q1,q2,p1,p2,frame"), ("mode", "t,Q1,Q2,P1,P2,frame")):
        rows = [f"{i * workloads.DT!r},0,0,0,0,{frame}" for i in range(n)]  # one short
        (tmp_path / f"x_{frame}.csv").write_text("\n".join([head, *rows]) + "\n")
    (tmp_path / "x_report.json").write_text(
        json.dumps({"frame_equivalence_max_deviation": 1e-3, "larmor": False}))
    problems = workloads.check_simulate(cfg, argv, out, out + "_report.json\n")
    assert any("rows, expected" in p for p in problems)
    assert any("window end" in p for p in problems)
    assert any("frame_equivalence" in p for p in problems)


def test_generated_configs_depend_only_on_the_seed():
    for workload in WORKLOADS:
        a = workloads.generate(workload, 11)[0]
        assert a == workloads.generate(workload, 11)[0]
        assert a != workloads.generate(workload, 12)[0]


def test_the_seed_leaves_the_root_solver_inputs_alone():
    # The equilibrium schedules alone set the root solver's work, so runs
    # with different seeds must share them.
    for workload in WORKLOADS:
        a, b = (workloads.generate(workload, seed)[0] for seed in (11, 12))
        for name in a:
            pa, pb = dict(a[name]["preset"]), dict(b[name]["preset"])
            if pa["type"] == "rotation":
                continue  # no root solves
            assert pa.pop("masses") != pb.pop("masses")
            assert pa == pb and a[name].get("sweep") == b[name].get("sweep")


def test_central_is_the_interquartile_mean():
    assert worker.central([5.0]) == 5.0
    assert worker.central([1.0, 2.0, 3.0, 100.0]) == 2.5
    # Half fast and half slow passes: the median sits on either level, the
    # interquartile mean between them.
    assert worker.central([1.0] * 5 + [2.0] * 5) == 1.5


def test_normalized_time_scales_with_the_calibration():
    ref = worker.REF_CALIBRATION_S
    assert worker.normalized(3.0, ref) == 3.0
    assert worker.normalized(3.0, 2 * ref) == 1.5
    assert worker.calibration_s() > 0.0


def test_smoke_run_prints_the_declared_metrics(tmp_path):
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "survey-phase-gate",
           "--seed", "5", "--seconds", "0.2", "--trace", "0", "--smoke"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] >= 1
    assert set(last["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    assert all(v["value"] > 0 for v in last["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "sim-separation",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
