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

prints nothing.
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
    spec.loader.exec_module(module)
    return module


def _digest(root: str, tmp: str, suffixes, out: str, proc) -> str:
    def masked(text: str) -> str:
        return text.replace(tmp, "<tmp>").replace(root, "<root>")

    stderr = proc.stderr.splitlines()
    parts = [f"exit {proc.returncode}", masked(proc.stdout),
             masked(stderr[-1] if stderr else "")]
    for suffix in suffixes:
        try:
            with open(out + suffix, encoding="utf-8") as fh:
                parts.append(suffix + "\n" + masked(fh.read()))
        except FileNotFoundError:
            parts.append(suffix + " missing")
    return hashlib.sha256("\0".join(parts).encode()).hexdigest()


def digests(root: str, seeds) -> list:
    """``(workload, seed, label, sha256)`` for every command of every workload."""
    root = os.path.abspath(root)
    workloads = _workloads(root)
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    lines = []
    for workload in sorted(workloads.WHY):
        for seed in seeds:
            configs, commands, checks = workloads.generate(workload, seed)
            with tempfile.TemporaryDirectory() as tmp:
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
                    digest = _digest(root, tmp, workloads.OUTPUTS[argv[0]], out, proc)
                    lines.append((workload, seed, label, digest))
    return lines


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
