"""Digest every output of the benchmark's workloads, to compare two checkouts.

    python3 tools/output_digests.py ROOT [--seeds 7 11]

For each workload in ROOT/perfbench/workloads.py (read, never written) and
each seed, the configs are generated into a temporary directory, and every
timed command and every check runs once through ``dnmodes.cli.main`` in a
fresh interpreter on ROOT/src.  One line per command gives the workload, the
seed, the command and the sha256 of its exit code, standard output, last
line of standard error and output files, with the temporary directory and
ROOT masked.  Two checkouts produce the same outputs when

    diff <(python3 tools/output_digests.py A) <(python3 tools/output_digests.py B)

prints nothing.  ``run_commands`` is the runner; ``tools/compare_outputs.py``
compares its outputs number by number where bytes may differ.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile

_RUN = "import sys; from dnmodes.cli import main; sys.exit(main(sys.argv[1:]))"


def _workloads(root: str):
    path = os.path.join(root, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("_digest_workloads", path)
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
                    proc = subprocess.run([sys.executable, "-c", _RUN, *args], cwd=tmp, env=env,
                                          capture_output=True, text=True)
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


def _digest(outputs: dict) -> str:
    exit_code, stdout, stderr, *files = outputs.items()
    parts = [f"exit {exit_code[1]}", stdout[1], stderr[1]]
    for suffix, text in files:
        parts.append(suffix + " missing" if text is None else suffix + "\n" + text)
    return hashlib.sha256("\0".join(parts).encode()).hexdigest()


def digests(root: str, seeds) -> list:
    """``(workload, seed, label, sha256)`` for every command of every workload."""
    return [(workload, seed, label, _digest(outputs))
            for workload, seed, label, outputs in run_commands(root, seeds)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", help="root of the checkout to run")
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 11])
    args = parser.parse_args(argv)
    for workload, seed, label, digest in digests(args.root, args.seeds):
        print(f"{workload} seed={seed} {label} {digest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
