"""Alternating before/after runs of the benchmark in two checkouts.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --pairs N --seed S [--seconds 4]

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, from
its root, the parent first in even pairs and the change first in odd ones.
For every end-to-end metric the last line of a run reports, one row gives
the parent's and the change's medians, the parent's quartiles, and in how
many of the N pairs the change read better, lower or higher as the parent's
``BENCHMARK.json`` declares (ties count for neither), and a verdict.  The
verdict is ``gain`` when the change is better in at least 9 of 10 pairs and its
median lies beyond the parent's quartile on the better side (below q1 for a
metric better lower, above q3 for one better higher), ``worse`` for the mirror
case, and ``-`` otherwise.  A header line names the machine: Python, numpy, the
CPU count, and whether PYTHONDONTWRITEBYTECODE is set (with it, every
perfbench set-up compiles ``src/`` unless ``src/dnmodes/__pycache__`` holds
bytecode for this Python, which it then reads).  One line per checkout says
whether it holds that bytecode, and a warning follows when only one does:
``setup_s`` pairs then compare compiling with reading.  The script only reads
the checkouts' ``perfbench/`` and ``BENCHMARK.json``.  Each run of run.py keeps
its configs and reports in ``.perfbench_runs/<workload>-seed<S>-trace<T>-<pid>``
of its checkout; the script removes that directory once the run has ended.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys


def run_once(root: str, workload: str, seed: int, seconds: float, trace: int = 0,
             smoke: bool = False) -> dict:
    """The metric values of one run in checkout ``root``.  The run's directory, which
    run.py names by its own pid, is removed when it has ended."""
    proc = subprocess.Popen(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         *(["--smoke"] if smoke else [])],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate()
    finally:
        shutil.rmtree(os.path.join(root, ".perfbench_runs",
                                   f"{workload}-seed{seed}-trace{trace}-{proc.pid}"),
                      ignore_errors=True)
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, proc.args, out, err)
    last = json.loads(out.splitlines()[-1])
    if not last["correct"]:
        print(f"warning: a run in {root} reported wrong outputs", file=sys.stderr)
    return {name: m["value"] for name, m in last["metrics"].items()}


def machine() -> dict:
    """Python, numpy, the CPU count and the bytecode setting the runs share."""
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "absent"
    return {"python": platform.python_version(), "numpy": numpy, "cpus": os.cpu_count(),
            "PYTHONDONTWRITEBYTECODE": bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))}


def machine_line() -> str:
    m = machine()
    return (f"python {m['python']}, numpy {m['numpy']}, {m['cpus']} CPUs, "
            f"PYTHONDONTWRITEBYTECODE {'set' if m['PYTHONDONTWRITEBYTECODE'] else 'unset'}")


def has_bytecode(root: str) -> bool:
    """Whether ``src/dnmodes/__pycache__`` in checkout ``root`` holds bytecode for
    the running Python."""
    cache = os.path.join(root, "src", "dnmodes", "__pycache__")
    suffix = f".{sys.implementation.cache_tag}.pyc"
    return os.path.isdir(cache) and any(name.endswith(suffix) for name in os.listdir(cache))


def better_of(root: str) -> dict:
    """Each end-to-end metric's direction, "lower" or "higher", from the
    ``BENCHMARK.json`` of checkout ``root``."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}


def quartiles(values: list) -> tuple:
    return tuple(statistics.quantiles(values, n=4)[::2]) if len(values) > 1 else (values[0],) * 2


def summary(parent: list, change: list, better: dict) -> list:
    """One row per metric: name, both medians, the parent's quartiles, the number of
    pairs where the change is better, as ``better`` names it, and a verdict: "gain"
    when it is better in at least 9 of 10 pairs and its median lies beyond the parent's
    quartile on the better side, "worse" for the mirror case, else "-"."""
    rows = []
    for name in parent[0]:
        p = [run[name] for run in parent]
        c = [run[name] for run in change]
        sign = 1 if better[name] == "lower" else -1
        mp, mc, (q1, q3) = statistics.median(p), statistics.median(c), quartiles(p)
        wins = sum(sign * (x - y) > 0 for x, y in zip(p, c))
        losses = sum(sign * (x - y) < 0 for x, y in zip(p, c))
        # The quartile on the better side, and on the worse side, of the parent's runs.
        good, bad = (q1, q3) if sign == 1 else (q3, q1)
        verdict = ("gain" if 10 * wins >= 9 * len(p) and sign * (good - mc) > 0 else
                   "worse" if 10 * losses >= 9 * len(p) and sign * (mc - bad) > 0 else "-")
        rows.append((name, mp, mc, q1, q3, wins, verdict))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=4.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    roots = [os.path.abspath(args.parent), os.path.abspath(args.change)]
    better, bytecode = better_of(roots[0]), [has_bytecode(root) for root in roots]
    runs = ([], [])
    for i in range(args.pairs):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            runs[side].append(run_once(roots[side], args.workload, args.seed, args.seconds))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
    n = args.pairs
    print(machine_line())
    for side, root, present in zip(("parent", "change"), roots, bytecode):
        print(f"{side} {root}: bytecode for {sys.implementation.cache_tag} in "
              f"src/dnmodes/__pycache__ {'present' if present else 'absent'}")
    if bytecode[0] != bytecode[1]:
        print("warning: only one checkout holds bytecode, so its setup_s reads it while "
              "the other's compiles", file=sys.stderr)
    print(f"{args.workload}, seed {args.seed}, {n} pairs of {args.seconds:g} s")
    print(f"{'metric':<18} {'parent':>12} {'change':>12} {'parent q1':>12} {'parent q3':>12}"
          f"  better in  verdict")
    for name, mp, mc, q1, q3, wins, verdict in summary(*runs, better):
        print(f"{name:<18} {mp:12.6g} {mc:12.6g} {q1:12.6g} {q3:12.6g}  "
              f"{f'{wins} of {n}':<9}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
