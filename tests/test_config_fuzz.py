"""Config fuzzer: a config with one wrong-typed or out-of-range value, or
one bad ``--dt`` or ``--samples`` flag value, keeps the exit-code contract
(0, 2, 3 or 4, and at most one line on stderr).  In a separate ``dnm``
process, where warnings reach stderr, an extreme value, 1e300 or 1e-300 on
either of two leaves per preset, keeps it too.

Each preset has a tiny valid config that fills every section.  A draw
replaces one leaf of it, or the values of its sweep axis, with a string,
list, object, bool, null, zero, negative or huge value, or passes a flag
value from a fixed list, then runs one command in-process with its outputs
under the test's directory.
"""

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dnmodes.cli import main
from test_cli import NUMPY_BOOL_REPORT, run_cli

FUZZ = settings(
    max_examples=20,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

RAMP = {"kind": "linear-ramp", "t0": 0.0, "v0": 0.5, "t1": 1.0, "v1": 0.6}
STEP = {"kind": "smoothstep", "v0": 0.0, "v1": 0.1, "t0": 0.0, "t1": 1.0}

PRESETS = {
    "transport": ({"type": "transport", "k": 2.0, "Q0": STEP, "Cc": 1.0,
                   "masses": [1.0, 2.0]}, "preset.k"),
    "separation": ({"type": "separation", "alpha": {**STEP, "v0": 1.0, "v1": 0.5},
                    "beta": RAMP, "Cc": 1.0, "masses": [1.0, 2.0]}, "preset.Cc"),
    "phase-gate": ({"type": "phase-gate", "k0": 1.0, "F1": STEP,
                    "F2": {"kind": "polynomial", "coeffs": [0.0, -0.1]}, "Cc": 1.0,
                    "masses": [1.0, 1.5], "zeroth_order": False}, "preset.k0"),
    "rotation": ({"type": "rotation", "m": 1.0, "omega1": 2.0, "omega2": 1.0,
                  "phi": {"kind": "table", "times": [0.0, 0.5, 1.0], "values": [0.0, 0.1, 0.3],
                          "interpolation": "cubic"}}, "preset.omega1"),
    "springs": ({"type": "springs", "k": 0.5, "k1": {"kind": "constant", "value": 1.0},
                 "k2": 1.2, "d": 3.0, "masses": [1.0, 2.0]}, "preset.d"),
    "custom": ({"type": "custom", "k": 0.3, "k1": 1.0, "k2": 1.5, "masses": [1.0, 1.0],
                "q1_eq": 0.0, "q2_eq": RAMP}, "preset.k2"),
}

BAD_VALUES = ["x", "1", [], [1.0, 2.0, 3.0], {}, {"kind": "x"}, True, None, 0, -1, 1e300, 10**30]

COMMANDS = ("analyze", "classify", "simulate", "sweep")


def base_config(preset: str) -> dict:
    obj, axis = PRESETS[preset]
    state = "equilibrium" if preset in ("transport", "rotation") else {
        "q": [0.1, -0.1], "p": [0.0, 0.05]}
    return {
        "schema": 1,
        "preset": copy.deepcopy(obj),
        "window": [0.0, 1.0],
        "samples": 5,
        "integrator": {"dt": 0.1, "method": "rk4"},
        "initial_state": state,
        "output": {"path": "unused"},
        "tolerances": {"tol_sep": 1e-9},
        "sweep": {"axes": [{"path": axis, "values": [1.0, 1.5]}]},
    }


def leaf_paths(node, prefix=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        yield prefix
        return
    for key, child in items:
        yield from leaf_paths(child, (*prefix, key))


def replace(cfg: dict, path: tuple, value) -> None:
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


# A sweep's points get the bad value through the axis instead of the file.
SWEEP_VALUES = ("sweep", "axes", 0, "values")

CASES = [
    pytest.param(
        preset, command,
        marks=NUMPY_BOOL_REPORT if command == "classify" and preset in ("separation", "phase-gate")
        else (),
    )
    for preset in PRESETS
    for command in COMMANDS
]


@pytest.mark.parametrize("preset, command", CASES)
@FUZZ
@given(data=st.data())
def test_one_bad_value_keeps_the_exit_code_contract(tmp_path, capsys, preset, command, data):
    cfg = base_config(preset)
    path = data.draw(st.sampled_from([*leaf_paths(cfg), SWEEP_VALUES]), label="path")
    value = data.draw(st.sampled_from(BAD_VALUES), label="value")
    replace(cfg, path, [value] if path == SWEEP_VALUES else value)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    capsys.readouterr()
    rc = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc in (0, 2, 3, 4)
    assert err.count("\n") <= 1


BAD_FLAG_VALUES = ["abc", "", "1.5", "nan", "inf", "-1", "0", "1e300", "1e-300"]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("preset", PRESETS)
@FUZZ
@given(data=st.data())
def test_one_bad_flag_keeps_the_exit_code_contract(tmp_path, capsys, preset, command, data):
    # Every listed value is rejected before any work starts, so no draw
    # reaches the classify report behind NUMPY_BOOL_REPORT.
    flags = ["--dt", "--samples"] if command == "simulate" else ["--samples"]
    flag = data.draw(st.sampled_from(flags), label="flag")
    value = data.draw(st.sampled_from(BAD_FLAG_VALUES), label="value")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(preset)))
    capsys.readouterr()
    rc = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "run"), flag, value])
    err = capsys.readouterr().err
    assert rc in (0, 2, 3, 4)
    assert err.count("\n") <= 1


# Each preset's extreme values go on its sweep-axis leaf and on a second leaf, which
# a sweep then holds in the file.  A 1e300 cell's id names only the preset and the
# command, and a second-leaf cell's the leaf too.  Separation and phase-gate classify
# solve at both values on both leaves and reach the report behind NUMPY_BOOL_REPORT,
# so their cells are the next test's.
SECOND_LEAVES = {"transport": "preset.Cc", "separation": "preset.beta", "phase-gate": "preset.Cc",
                 "rotation": "preset.m", "springs": "preset.k1", "custom": "preset.k"}
NUMPY_BOOL_CELLS = {("separation", "classify"), ("phase-gate", "classify")}


def leaves(preset: str) -> tuple:
    return PRESETS[preset][1], SECOND_LEAVES[preset]


def extreme_id(name: str, preset: str, leaf: str, value: float) -> str:
    second = "" if leaf == PRESETS[preset][1] else "-" + leaf.split(".")[-1]
    return name + second + ("" if value == 1e300 else f"-{value:g}")


EXTREME_CASES = [
    pytest.param(preset, command, value, leaf,
                 id=extreme_id(f"{preset}-{command}", preset, leaf, value))
    for value in (1e300, 1e-300)
    for preset in PRESETS
    for leaf in leaves(preset)
    for command in COMMANDS
    if (preset, command) not in NUMPY_BOOL_CELLS
]


def run_with_extreme_value(tmp_path, preset, command, value, leaf):
    """The CLI process of ``command`` on the preset's base config with ``value`` on
    ``leaf``, or for sweep on its axis leaf in the axis values."""
    cfg = base_config(preset)
    if command == "sweep" and leaf == PRESETS[preset][1]:
        replace(cfg, SWEEP_VALUES, [value])
    else:
        replace(cfg, tuple(leaf.split(".")), value)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    return run_cli(command, "--config", str(cfg_path), "--out", str(tmp_path / "run"))


@pytest.mark.parametrize("preset, command, value, leaf", EXTREME_CASES)
def test_an_extreme_value_prints_one_stderr_line_in_a_process(
        tmp_path, preset, command, value, leaf):
    # pytest captures warnings, so only a real process shows whether numpy's
    # overflow or underflow warnings add lines to the message.
    proc = run_with_extreme_value(tmp_path, preset, command, value, leaf)
    assert proc.returncode in (0, 2, 3, 4)
    assert proc.stderr.count("\n") <= 1


@pytest.mark.parametrize("preset, value, leaf", [
    pytest.param(preset, value, leaf, id=extreme_id(preset, preset, leaf, value))
    for value in (1e300, 1e-300) for preset, _ in sorted(NUMPY_BOOL_CELLS, reverse=True)
    for leaf in leaves(preset)])
def test_an_extreme_ion_pair_classify_reaches_the_report(tmp_path, preset, value, leaf):
    # The distance, its rate and the spring are floats at both values, so classify
    # reaches its report, and the failure behind NUMPY_BOOL_REPORT: json's TypeError
    # in a traceback, exit 1.  A cell passes on exactly that, as the benchmark's own
    # test records the same failure, and fails on any other outcome: a domain error
    # before the report, or exit 0 once the report holds Python bools.  Then these
    # cells go back to the test above.
    proc = run_with_extreme_value(tmp_path, preset, "classify", value, leaf)
    last = proc.stderr.splitlines()[-1:]
    assert proc.returncode == 1 and last and last[0].startswith("TypeError: ") \
        and last[0].endswith(" is not JSON serializable"), (proc.returncode, proc.stderr)
