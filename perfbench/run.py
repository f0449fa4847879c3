"""Seeded end-to-end and per-layer benchmark of the dnmodes CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a dnmodes checkout.  The configs are drawn from the
seed, then the workload's commands run through ``dnmodes.cli.main`` in a
child process for S seconds, and every output is checked.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics named in BENCHMARK.json, its times in host-normalized
seconds (see ``worker.normalized``); with ``--trace 1`` it holds the
per-layer metrics from a separately traced run.  The full report (seed,
config digests, per-command medians, named failures, machine) is printed
before that line and kept under ``.perfbench_runs/``.

``--smoke`` shrinks every workload so the benchmark's own tests finish in
seconds.  See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

import worker
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
RUN_MARGIN_S = 120


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("DNM_THREADS", None)  # the sweep uses the pool users get
    return env


def measure_setup(src: str, config_paths: list, repeats: int) -> dict:
    """Cold set-up time, in host-normalized seconds, over ``repeats`` fresh
    interpreters after one discarded run that writes the bytecode caches:
    its interquartile mean, its median and every value, with the raw wall
    and calibration times beside them."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "setup", src, *config_paths]
    runs = []
    for _ in range(repeats + 1):
        done = subprocess.run(cmd, capture_output=True, text=True, env=_child_env(),
                              timeout=SETUP_TIMEOUT_S, check=True)
        runs.append(json.loads(done.stdout.splitlines()[-1]))
    runs = runs[1:]
    times = [r["setup_s"] for r in runs]
    return {"central": worker.central(times), "median": statistics.median(times),
            "n": len(times), "values": times,
            "wall_s": [r["wall_s"] for r in runs], "calib_s": [r["calib_s"] for r in runs]}


def prepare(workload: str, seed: int, smoke: bool, src: str, run_dir: str):
    """Write the workload's configs under ``run_dir``; return the worker's
    spec (without ``seconds`` and ``trace``) and each config's sha256."""
    out_dir = os.path.join(run_dir, "out")
    os.makedirs(out_dir)
    configs, commands, checks = workloads.generate(workload, seed, smoke)
    paths, digests = {}, {}
    for name, cfg in configs.items():
        text = json.dumps(cfg, indent=1, sort_keys=True) + "\n"
        paths[name] = os.path.join(run_dir, f"{name}.json")
        with open(paths[name], "w") as fh:
            fh.write(text)
        digests[name] = hashlib.sha256(text.encode()).hexdigest()

    def expand(label, argv, name):
        full = [a.format(out=os.path.join(out_dir, workload), **paths) for a in argv]
        cfg = configs[name]
        out = full[full.index("--out") + 1] if "--out" in full else ""
        return {"label": label, "argv": full, "cfg": cfg, "out": out,
                "items": workloads.work_items(cfg, full),
                "points": workloads.sample_points(cfg, full)}

    spec = {
        "src": src,
        "configs": list(paths.values()),
        "out_dir": out_dir,
        "commands": [expand(*c) for c in commands],
        "checks": [expand(*c) for c in checks],
        "result": os.path.join(run_dir, "result.json"),
        "trace_out": os.path.join(run_dir, "trace.json"),
    }
    return spec, digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "dnmodes", "cli.py")):
        print(f"dnmodes sources not found under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir = os.path.join(root, ".perfbench_runs", tag)
    spec, digests = prepare(args.workload, args.seed, args.smoke, src, run_dir)
    spec.update(seconds=args.seconds, trace=args.trace)
    spec_path = os.path.join(run_dir, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh, indent=1)

    report = {"workload": args.workload, "why": workloads.WHY[args.workload],
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "config_sha256": digests}
    if not args.trace:
        report["setup_s"] = measure_setup(src, spec["configs"],
                                          1 if args.smoke else SETUP_REPEATS)
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), "run", spec_path],
                   env=_child_env(), timeout=args.seconds + RUN_MARGIN_S, check=True)
    with open(spec["result"]) as fh:
        result = json.load(fh)
    shutil.rmtree(spec["out_dir"])
    report.update(result)
    report["error_rate"] = {"failed": result["failed"], "attempted": result["attempted"],
                            "value": result["failed"] / result["attempted"]}

    if args.trace:
        values = result["per_layer"]
    else:
        values = dict(result["end_to_end"])
        values["setup_s"] = report["setup_s"]["central"]
        values["peak_rss_mb"] = result["peak_rss_mb"]
        values["success_rate"] = 1.0 - report["error_rate"]["value"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    with open(os.path.join(run_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(report, indent=1))
    print(json.dumps({"correct": not result["problems"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
