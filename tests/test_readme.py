"""README's examples and tables against the package.

The "Library quick start" block runs as written, in a fresh interpreter, and
prints what its comments say: the transport is separable and its frames agree.
The schedule table lists every ``kind`` of ``schedules.SCHEDULE_KINDS`` with
exactly the JSON fields that ``config_from_dict`` takes for it.
"""

import pathlib
import re
import subprocess
import sys

from dnmodes.schedules import SCHEDULE_KINDS, json_fields

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def section(title: str) -> str:
    """The README text from the heading ``## title`` to the next ``## `` heading."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_the_library_quick_start_runs_and_prints_its_comments():
    code = re.search(r"```python\n(.*?)```", section("Library quick start"), re.S).group(1)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
                          timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    separable, deviation = done.stdout.split()
    assert separable == "True"
    assert 0.0 <= float(deviation) < 1e-10


def test_the_schedule_table_lists_every_kind_and_its_fields():
    rows = re.findall(r"^\| `([a-z-]+)` \| ([^|]*) \|", section("Library quick start"), re.M)
    table = {kind: re.findall(r"`([a-z0-9_]+)`", fields) for kind, fields in rows}
    assert table == {kind: list(json_fields(cls)) for kind, cls in SCHEDULE_KINDS.items()}
