"""Record this checkout's benchmark in ``BENCH_<PR>.json`` at its root.

    python3 tools/bench_record.py PR [--smoke] [--out PATH]

For every workload that ``BENCHMARK.json`` declares, ``perfbench/run.py`` runs
from the checkout's root (the parent of ``tools/``) 5 times with ``--trace 0``
and then once with ``--trace 1``, each with seed 7 for 4 s.  The file holds, per workload,
each end-to-end metric's median, quartiles, run count and unit, and every
traced per-layer value; the machine (Python, numpy, the CPU count, whether
PYTHONDONTWRITEBYTECODE is set, and whether ``src/dnmodes/__pycache__`` held
bytecode for this Python before the runs); the run count, seed and seconds; and
the commit (HEAD, whether tracked files differ from it, and the line count of
``src/dnmodes/*.py``).  A speed claim
compares the parent's file with the change's, and takes its verdict from
``tools/bench_pairs.py``.  ``--smoke`` shrinks every workload and makes one run
of 0.2 s per trace setting, to check the file's shape.  The script only reads ``perfbench/``
and ``BENCHMARK.json``, and removes each run's directory under ``.perfbench_runs/`` when
the run has ended (``bench_pairs.run_once``).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

from bench_pairs import has_bytecode, machine, quartiles, run_once

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 7


def commit(root: str) -> dict:
    """HEAD of the checkout, whether its tracked files differ from it (a tree that
    is no git checkout has neither) and the lines of ``src/dnmodes/*.py``, as ``wc -l``
    counts them."""
    def git(*args) -> str | None:
        done = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    src = pathlib.Path(root, "src", "dnmodes").glob("*.py")
    return {"sha": sha,
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no")) if sha else None,
            "src_lines": sum(path.read_bytes().count(b"\n") for path in src)}


def record(pr: int, smoke: bool) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    runs, seconds = (1, 0.2) if smoke else (5, 4.0)
    head = {"pr": pr, "commit": commit(ROOT),
            "machine": {**machine(), "bytecode": has_bytecode(ROOT)},
            "settings": {"runs": runs, "seed": SEED, "seconds": seconds, "smoke": smoke}}
    workloads = {}
    for workload in (w["name"] for w in bench["workloads"]):
        untraced = [run_once(ROOT, workload, SEED, seconds, 0, smoke) for _ in range(runs)]
        traced = run_once(ROOT, workload, SEED, seconds, 1, smoke)
        end_to_end = {}
        for name in untraced[0]:
            values = [run[name] for run in untraced]
            q1, q3 = quartiles(values)
            end_to_end[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                                "n": len(values), "unit": units[name]}
        workloads[workload] = {"end_to_end": end_to_end, "traced": traced}
        print(f"{workload} done", file=sys.stderr)
    return {**head, "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("pr", type=int)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", help="default: BENCH_<PR>.json at the checkout's root")
    args = parser.parse_args(argv)
    out = args.out or os.path.join(ROOT, f"BENCH_{args.pr}.json")
    result = record(args.pr, args.smoke)
    with open(out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
