"""Compare every output of the benchmark's workloads in two checkouts.

    python3 tools/compare_outputs.py PARENT CHANGE [--seeds 7 11]

In each checkout ROOT, every timed command and every check of each workload in
ROOT/perfbench/workloads.py runs once per seed through ``dnmodes.cli.main``, in
a fresh interpreter on ROOT/src, on configs generated into a temporary
directory.  A command's outputs are its exit code, standard output, last line
of standard error and output files, with the temporary directory and ROOT
masked.  Each number of each CSV and JSON report (a file, or a command's
standard output) must satisfy

    |new - old| <= 1e-12 |old| + 1e-15 M,

with M the largest |old value| in its column: a CSV column, or one key path of
a JSON report.  Relative error alone means nothing at a zero crossing.  A key
whose value is already divided by its run's scale (``RELATIVE_KEYS``: the
frame deviation, a difference of two runs over the trajectory scale) has
M = 1, since its rounding is that of a unit-scale value.  Text
that is not a number (headers, labels, exit codes, error lines) must match
exactly.  One line per output gives the worst entry as its ratio to the bound;
the exit code is 1 when any entry is outside it.  The last line,

    N outputs: I identical, W within the bound, O outside it

counts the outputs: the checkouts (or two runs of one, ``. .``) wrote
byte-identical outputs when I = N.  Nothing is written under either checkout,
not even bytecode.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile

_RUN = "import sys; from dnmodes.cli import main; sys.exit(main(sys.argv[1:]))"
REL, ABS = 1e-12, 1e-15
RELATIVE_KEYS = {".frame_equivalence_max_deviation"}  # JSON key paths whose M is 1


def _workloads(root: str):
    path = os.path.join(root, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("_compare_workloads", path)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no perfbench/__pycache__
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def run_commands(root: str, seeds):
    """Yield ``(workload, seed, label, outputs)`` for every command of every workload, run
    in checkout ``root``.  ``outputs`` maps "exit", "stdout", "stderr" (its last line) and
    each output file's suffix to its text (None for a missing file), with the temporary
    directory and ROOT masked."""
    root = os.path.abspath(root)
    workloads = _workloads(root)
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    for workload in sorted(workloads.WHY):
        for seed in seeds:
            configs, commands, checks = workloads.generate(workload, seed)
            with tempfile.TemporaryDirectory() as tmp:
                def masked(text: str) -> str:
                    return text.replace(tmp, "<tmp>").replace(root, "<root>")

                paths = {}
                for name, cfg in configs.items():
                    paths[name] = os.path.join(tmp, name + ".json")
                    with open(paths[name], "w") as fh:
                        json.dump(cfg, fh)
                for i, (label, argv, _) in enumerate(commands + checks):
                    out = os.path.join(tmp, f"out{i}")
                    args = [a.format(out=out, **paths) for a in argv]
                    # -B: bytecode left in src/ would make a later benchmark's setup_s
                    # read it in one checkout and compile it in the other.
                    proc = subprocess.run([sys.executable, "-B", "-c", _RUN, *args], cwd=tmp,
                                          env=env, capture_output=True, text=True)
                    stderr = proc.stderr.splitlines()
                    outputs = {"exit": proc.returncode, "stdout": masked(proc.stdout),
                               "stderr": masked(stderr[-1] if stderr else "")}
                    for suffix in workloads.OUTPUTS[argv[0]]:
                        try:
                            with open(out + suffix, encoding="utf-8") as fh:
                                outputs[suffix] = masked(fh.read())
                        except FileNotFoundError:
                            outputs[suffix] = None
                    yield workload, seed, label, outputs


def _number(cell):
    """The cell's float, or None when it is text (booleans, null and labels are text)."""
    if isinstance(cell, bool) or cell is None:
        return None
    try:
        return float(cell)
    except ValueError:
        return None


def _csv_cells(text: str) -> list:
    """(column name, (row, column), cell); the header row's cells have no column name."""
    rows = [line.split(",") for line in text.splitlines()]
    names = rows[0] if rows else []
    return [(names[i] if r and i < len(names) else None, (r, i), cell)
            for r, row in enumerate(rows) for i, cell in enumerate(row)]


def _json_cells(value, path="", index=()) -> list:
    """(key path without list indices, indices, leaf) for every leaf of a JSON value."""
    if isinstance(value, dict):
        return [c for k, v in value.items() for c in _json_cells(v, f"{path}.{k}", index)]
    if isinstance(value, list):
        return [c for i, v in enumerate(value) for c in _json_cells(v, path + "[]", index + (i,))]
    return [(path, index, value)]


def _cells(text: str) -> list:
    """``(column, position, cell)`` for every entry of CSV or JSON text."""
    try:
        return _json_cells(json.loads(text))
    except ValueError:
        return _csv_cells(text)


def compare(old: str, new: str) -> tuple:
    """``(ratio, where)`` of the worst entry of ``new`` against ``old``: |new - old| over
    the bound of the module docstring (0 where equal, inf where text or shape differs)."""
    if old == new:
        return 0.0, "identical"
    before, after = _cells(old), _cells(new)
    if [c[:2] for c in before] != [c[:2] for c in after]:
        return math.inf, "the shape differs"
    scale = {}
    for column, _, cell in before:
        if (x := _number(cell)) is not None and math.isfinite(x):
            scale[column] = max(scale.get(column, 0.0), abs(x))
    scale.update(dict.fromkeys(RELATIVE_KEYS, 1.0))
    worst = (0.0, "equal numbers in other bytes")  # such as -0.0 for 0.0
    for (column, position, a), (_, _, b) in zip(before, after):
        x, y = _number(a), _number(b)
        if a == b or (x is not None and x == y):
            continue
        finite = x is not None and y is not None and math.isfinite(x) and math.isfinite(y)
        bound = REL * abs(x) + ABS * scale.get(column, 0.0) if finite else 0.0
        ratio = abs(y - x) / bound if bound > 0.0 else math.inf
        if ratio > worst[0]:
            worst = (ratio, f"{column} at {position}: {a} -> {b}")
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="root of the parent checkout")
    parser.add_argument("change", help="root of the changed checkout")
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 11])
    args = parser.parse_args(argv)
    runs = [list(run_commands(root, args.seeds)) for root in (args.parent, args.change)]
    commands = [[(*run[:3], list(run[3])) for run in side] for side in runs]  # and files
    if commands[0] != commands[1]:
        print("the checkouts run different commands")
        return 1
    counts = dict.fromkeys(("identical", "within the bound", "outside it"), 0)
    for (workload, seed, label, old), (*_, new) in zip(*runs):
        for output, a in old.items():
            b = new[output]
            if a is None or b is None:  # a missing file
                ratio, where = (0.0, "missing") if a is b else (math.inf, f"{a!r} -> {b!r}")
            else:
                ratio, where = compare(str(a), str(b))
            counts["identical" if a == b else "within the bound" if ratio <= 1.0
                   else "outside it"] += 1
            print(f"{workload} seed={seed} {label} {output}: worst {ratio:.3g} of the bound"
                  f" ({where})")
    print(f"{sum(counts.values())} outputs: " + ", ".join(f"{n} {c}" for c, n in counts.items()))
    return 1 if counts["outside it"] else 0


if __name__ == "__main__":
    sys.exit(main())
