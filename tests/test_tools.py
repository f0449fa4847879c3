"""The output comparison of ``tools/compare_outputs.py``: its number check and its
report on synthetic outputs, and its runner on a one-command checkout, which it leaves
without bytecode.  The machine line, bytecode check, pair count and verdict of
``tools/bench_pairs.py``, and the keys of a smoke ``tools/bench_record.py`` file, whose
runs leave no directory behind."""

import importlib.metadata
import json
import math
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

from bench_pairs import better_of, has_bytecode, machine_line, summary  # noqa: E402
import compare_outputs  # noqa: E402
from compare_outputs import compare, run_commands  # noqa: E402

# A mode CSV whose Q1 column reaches 1 and crosses zero near 5.75e-05.
CSV = "t,Q1,frame\n0,1,mode\n0.5,5.751980111954138e-05,mode\n1,-0.25,mode\n"


def test_equal_text_passes():
    assert compare(CSV, CSV) == (0.0, "identical")


def test_a_value_moved_by_1e_10_relative_fails():
    ratio, where = compare(CSV, CSV.replace("-0.25", repr(-0.25 * (1.0 + 1e-10))))
    assert ratio > 1.0
    assert where.startswith("Q1 at (3, 1)")


def test_a_small_move_near_a_zero_crossing_passes():
    # 6.2e-17 absolute is 1.09e-12 relative, but the column reaches 1, so
    # 1e-15 of its scale bounds the move.
    moved = CSV.replace("5.751980111954138e-05", "5.751980111960383e-05")
    ratio, where = compare(CSV, moved)
    assert 0.0 < ratio <= 1.0
    assert where.startswith("Q1 at (2, 1)")


def test_text_and_shape_must_match_exactly():
    assert compare(CSV, CSV.replace("mode", "lab"))[0] == math.inf
    assert compare(CSV, CSV + "2,0.5,mode\n")[0] == math.inf
    assert compare(CSV, CSV.replace("t,Q1", "t,Q2"))[0] == math.inf


def test_a_json_report_compares_per_key_path():
    old = '{"dt": 0.0078125, "deviation": [1.0, 2.5e-09], "larmor": false}'
    assert compare(old, old.replace("2.5e-09", "2.5000000000001e-09"))[0] <= 1.0
    assert compare(old, old.replace("0.0078125", "0.0078126"))[0] > 1.0
    assert compare(old, old.replace("false", "true"))[0] == math.inf


def test_the_frame_deviation_compares_with_a_scale_of_1():
    # The key is already relative to the run's scale: 7e-17 on 7.7e-9 is 9e-9
    # relative, yet 0.07 of 1e-15; a 1e-12 move is 1000 times that.
    old = '{"frame_equivalence_max_deviation": 7.71834494970026e-09, "larmor": false}'
    ratio, where = compare(old, old.replace("7.71834494970026e-09", "7.71834501923854e-09"))
    assert 0.0 < ratio <= 0.1 and where.startswith(".frame_equivalence_max_deviation")
    assert compare(old, old.replace("7.71834494970026e-09", "7.71934494970026e-09"))[0] > 1.0


def test_equal_numbers_in_other_bytes_are_not_identical():
    assert compare(CSV, CSV.replace("\n0,", "\n-0.0,")) == (0.0, "equal numbers in other bytes")


# One simulate's outputs; it wrote no report file.
OUT = {"exit": 0, "stdout": "", "stderr": "", "_mode.csv": CSV, "_report.json": None}
MOVED = repr(-0.25 * (1.0 + 1e-10))


@pytest.mark.parametrize("new, code, line, verdict", [
    (OUT, 0, "_report.json: worst 0 of the bound (missing)", "5 identical, 0 within the bound"
     ", 0 outside it"),
    ({**OUT, "_mode.csv": CSV.replace("\n0,", "\n-0.0,")}, 0,
     "_mode.csv: worst 0 of the bound (equal numbers in other bytes)",
     "4 identical, 1 within the bound, 0 outside it"),
    ({**OUT, "_mode.csv": CSV.replace("-0.25", MOVED)}, 1,
     f"_mode.csv: worst 99.6 of the bound (Q1 at (3, 1): -0.25 -> {MOVED})",
     "4 identical, 0 within the bound, 1 outside it"),
    ({**OUT, "_report.json": "{}"}, 1, "_report.json: worst inf of the bound (None -> '{}')",
     "4 identical, 0 within the bound, 1 outside it"),
], ids=["all equal", "within the bound", "outside the bound", "missing on one side"])
def test_the_report_ends_in_one_verdict_line(monkeypatch, capsys, new, code, line, verdict):
    runs = {"parent": [("w", 7, "simulate", OUT)], "change": [("w", 7, "simulate", new)]}
    monkeypatch.setattr(compare_outputs, "run_commands", lambda root, seeds: iter(runs[root]))
    assert compare_outputs.main(["parent", "change"]) == code
    lines = capsys.readouterr().out.splitlines()
    assert f"w seed=7 simulate {line}" in lines
    assert lines[-1] == f"5 outputs: {verdict}"


@pytest.mark.parametrize("change", [("w", 7, "analyze", OUT),
                                    ("w", 7, "simulate", {**OUT, "_lab.csv": CSV})],
                         ids=["another label", "another file"])
def test_checkouts_that_run_different_commands_fail(monkeypatch, capsys, change):
    runs = {"parent": [("w", 7, "simulate", OUT)], "change": [change]}
    monkeypatch.setattr(compare_outputs, "run_commands", lambda root, seeds: iter(runs[root]))
    assert compare_outputs.main(["parent", "change"]) == 1
    assert capsys.readouterr().out == "the checkouts run different commands\n"


TINY_WORKLOADS = """
WHY = {"tiny": "one classify of a custom system"}
OUTPUTS = {"classify": ()}
CFG = {"schema": 1, "preset": {"type": "custom", "k": 1.0, "k1": 1.0, "k2": 2.0},
       "window": [0.0, 1.0], "samples": 5}


def generate(workload, seed):
    return {"cfg": CFG}, [("classify", ["classify", "--config", "{cfg}"], "cfg")], []
"""


def test_the_runner_leaves_no_bytecode_in_the_checkout(tmp_path, monkeypatch):
    # Bytecode left in one checkout's src/ makes a later bench_pairs run time
    # setup_s as a read there and as a compile in the other checkout.
    root = tmp_path / "checkout"
    shutil.copytree(ROOT / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    (root / "perfbench").mkdir()
    (root / "perfbench" / "workloads.py").write_text(TINY_WORKLOADS)
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    runs = list(run_commands(str(root), [7]))
    assert [(*run[:3], run[3]["exit"]) for run in runs] == [("tiny", 7, "classify", 0)]
    assert not list(root.rglob("__pycache__"))


@pytest.mark.parametrize("bytecode, shown", [("1", "set"), ("", "unset"), (None, "unset")])
def test_bench_pairs_names_the_machine(monkeypatch, bytecode, shown):
    # A perfbench set-up compiles src/ when PYTHONDONTWRITEBYTECODE is set, so
    # setup_s pairs compare only under one setting; the line says which.
    if bytecode is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", bytecode)
    assert machine_line() == (
        f"python {platform.python_version()}, numpy {importlib.metadata.version('numpy')}, "
        f"{os.cpu_count()} CPUs, PYTHONDONTWRITEBYTECODE {shown}")


def test_bench_pairs_counts_the_pairs_where_the_change_is_better():
    # workload_s is better lower and time_points_per_s higher (BENCHMARK.json);
    # a tie counts for neither side.
    better = better_of(str(ROOT))
    assert (better["workload_s"], better["time_points_per_s"]) == ("lower", "higher")
    parent = [{"workload_s": 1.0, "time_points_per_s": 10.0} for _ in range(3)]
    change = [{"workload_s": w, "time_points_per_s": p}
              for w, p in ((0.9, 11.0), (1.0, 9.0), (1.1, 12.0))]
    rows = {row[0]: row[5] for row in summary(parent, change, better)}
    assert rows == {"workload_s": 1, "time_points_per_s": 2}


@pytest.mark.parametrize("better, change, verdict", [
    # Better in 9 pairs and tied in the last; the median beyond the parent's quartile.
    ("lower", [0.9] * 9 + [1.0], "gain"),
    ("higher", [1.2] * 10, "gain"),
    ("lower", [1.2] * 10, "worse"),
    ("higher", [0.9] * 10, "worse"),
    # Better in 8 of 10 pairs only.
    ("lower", [0.9] * 8 + [1.2] * 2, "-"),
    # Better, or worse, in every pair, with the median between the parent's quartiles.
    ("lower", [1.05, 0.99] * 5, "-"),
    ("lower", [1.12, 1.02] * 5, "-"),
])
def test_bench_pairs_gives_a_verdict_per_metric(better, change, verdict):
    # The parent alternates 1.1 and 1.0: its quartiles are q1 = 1.0 and q3 = 1.1.
    parent = [{"m": 1.0 if i % 2 else 1.1} for i in range(10)]
    rows = summary(parent, [{"m": x} for x in change], {"m": better})
    assert rows[0][3:5] == (1.0, 1.1)
    assert rows[0][-1] == verdict


def test_bench_pairs_tells_whether_a_checkout_holds_bytecode(tmp_path):
    # Only bytecode for the running Python counts: another interpreter's cache
    # does not spare this one the compile.
    cache = tmp_path / "src" / "dnmodes" / "__pycache__"
    assert not has_bytecode(str(tmp_path))
    cache.mkdir(parents=True)
    (cache / "cli.cpython-0.pyc").write_bytes(b"")
    assert not has_bytecode(str(tmp_path))
    (cache / f"cli.{sys.implementation.cache_tag}.pyc").write_bytes(b"")
    assert has_bytecode(str(tmp_path))


def run_dirs() -> set:
    runs = ROOT / ".perfbench_runs"
    return set(os.listdir(runs)) if runs.is_dir() else set()


def test_bench_record_smoke_file_has_every_key(tmp_path):
    # It also removes the run directories it made, and only those.
    out, before = tmp_path / "BENCH_0.json", run_dirs()
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_record.py"), "0", "--smoke",
         "--out", str(out)], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert run_dirs() == before
    record = json.loads(out.read_text())
    assert set(record) == {"pr", "commit", "machine", "settings", "workloads"}
    assert set(record["commit"]) == {"sha", "dirty"}
    assert set(record["machine"]) == {"python", "numpy", "cpus", "PYTHONDONTWRITEBYTECODE",
                                      "bytecode"}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(record["workloads"]) == {w["name"] for w in bench["workloads"]}
    for workload in record["workloads"].values():
        assert set(workload) == {"end_to_end", "traced"}
        assert set(workload["end_to_end"]) == {m["name"] for m in bench["end_to_end"]}
        assert all(set(m) == {"median", "q1", "q3", "n", "unit"}
                   for m in workload["end_to_end"].values())
        assert set(workload["traced"]) == {m["name"] for m in bench["per_layer"]}
