import contextlib
import csv
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import pytest

import dnmodes
from dnmodes import cli, dynamics, modes, presets, schedules
from dnmodes.cli import main
from dnmodes.errors import PresetDomainError

from oracles import ION_PAIR_VIEWS, check_ion_pair_view, recorded_build


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def transport_cfg(out):
    return {
        "schema": 1,
        "preset": {
            "type": "transport",
            "k": 2.0,
            "Q0": {"kind": "smoothstep", "v0": 0.0, "v1": 1.0, "t0": 0.0, "t1": 2.0},
            "Cc": 1.0,
        },
        "window": [0.0, 2.0],
        "samples": 50,
        "integrator": {"dt": 0.01, "method": "rk4"},
        "output": {"path": out},
    }


def rotation_cfg(out):
    return {
        "schema": 1,
        "preset": {
            "type": "rotation",
            "m": 1.0,
            "omega1": 2.0,
            "omega2": 1.0,
            "phi": {"kind": "linear-ramp", "t0": 0.0, "v0": 0.0, "t1": 1.0, "v1": 0.3},
        },
        "window": [0.0, 2.0],
        "samples": 50,
        "output": {"path": out},
    }


def test_analyze_deterministic(tmp_path, capsys):
    out = str(tmp_path / "run")
    cfg = write_cfg(tmp_path, transport_cfg(out))
    assert main(["analyze", "--config", cfg]) == 0
    first = (tmp_path / "run_analyze.csv").read_bytes()
    assert main(["analyze", "--config", cfg]) == 0
    assert (tmp_path / "run_analyze.csv").read_bytes() == first
    header = first.decode().splitlines()[0]
    assert header == "t,theta,theta_dot,omega1_sq,omega2_sq,ellipse_r1,ellipse_r2,q1_eq,q2_eq"
    assert len(first.decode().splitlines()) == 51
    capsys.readouterr()


def test_classify_output(tmp_path, capsys):
    cfg = write_cfg(tmp_path, transport_cfg(str(tmp_path / "run")))
    assert main(["classify", "--config", cfg]) == 0
    first = capsys.readouterr().out
    report = json.loads(first)
    assert report["separable"] is True
    assert report["max_abs_theta_dot"] == 0.0
    assert report["analytic_case"] in ("k1=k2=k", "k1=k2, m1=m2")
    assert main(["classify", "--config", cfg]) == 0
    assert capsys.readouterr().out == first


def test_classify_rotation_not_separable(tmp_path, capsys):
    cfg = write_cfg(tmp_path, rotation_cfg(str(tmp_path / "run")))
    assert main(["classify", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["separable"] is False
    assert report["max_abs_theta_dot"] == pytest.approx(0.3)


# omega2 for omega1 = 2: equal, 5e-13 and 1.5e-12 apart relatively (all three
# degenerate for the mode frame, which then holds theta), and 5e-9 apart.
ISOTROPY = {"equal": 2.0, "gap-5e-13": 2.0 * (1 + 5e-13), "gap-1.5e-12": 2.0 * (1 + 1.5e-12),
            "anisotropic": 2.00000001}


@pytest.mark.parametrize("case", sorted(ISOTROPY))
def test_rotation_theta_dot_is_zero_where_the_frame_holds_theta(tmp_path, capsys, case):
    cfg = rotation_cfg(str(tmp_path / "iso"))
    cfg["preset"].update(omega2=ISOTROPY[case], phi={**cfg["preset"]["phi"], "v1": 0.4})
    cfg.update(window=[0.0, 1.0], samples=9, integrator={"dt": 1.0 / 64.0},
               initial_state={"q": [0.3, -0.2], "p": [0.1, 0.05]})
    path = write_cfg(tmp_path, cfg)
    assert main(["analyze", "--config", path]) == 0
    with open(tmp_path / "iso_analyze.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert main(["classify", "--config", path]) == 0
    assert main(["simulate", "--config", path]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[1])
    sim = json.loads((tmp_path / "iso_report.json").read_text())
    assert sim["frame_equivalence_max_deviation"] <= 1e-6
    if case == "anisotropic":
        assert {float(row["theta_dot"]) for row in rows} == {0.4}
        assert report["separable"] is False
    else:
        assert {(float(row["theta"]), float(row["theta_dot"])) for row in rows} == {(0.0, 0.0)}
        assert report["separable"] is True and report["analytic_case"] == "k=0"


def test_simulate_deterministic_and_report(tmp_path, capsys):
    out = str(tmp_path / "sim")
    cfg = write_cfg(tmp_path, transport_cfg(out))
    assert main(["simulate", "--config", cfg]) == 0
    lab = (tmp_path / "sim_lab.csv").read_bytes()
    mode = (tmp_path / "sim_mode.csv").read_bytes()
    report = json.loads((tmp_path / "sim_report.json").read_text())
    assert report["frame_equivalence_max_deviation"] <= 1e-6
    assert main(["simulate", "--config", cfg]) == 0
    assert (tmp_path / "sim_lab.csv").read_bytes() == lab
    assert (tmp_path / "sim_mode.csv").read_bytes() == mode
    capsys.readouterr()


def test_sweep_deterministic(tmp_path, capsys):
    # Each row is its grid point classified on its own, whichever pool thread
    # ran it, and a repeated sweep writes the same bytes.
    axes = [{"path": "preset.k0", "values": [0.8, 1.2, 1.6]},
            {"path": "preset.F1.v1", "values": [0.1, 0.4]}]
    cfg_obj = {
        "schema": 1,
        "preset": {
            "type": "phase-gate", "k0": 1.2, "Cc": 1.0, "masses": [1.0, 1.7],
            "F1": {"kind": "smoothstep", "v0": 0.0, "v1": 0.3, "t0": 1.0, "t1": 5.0},
            "F2": {"kind": "smoothstep", "v0": 0.0, "v1": -0.3, "t0": 2.0, "t1": 6.0},
        },
        "window": [0.0, 8.0],
        "samples": 20,
        "output": {"path": str(tmp_path / "sw")},
        "sweep": {"axes": axes},
    }
    cfg = write_cfg(tmp_path, cfg_obj)
    assert main(["sweep", "--config", cfg]) == 0
    first = (tmp_path / "sw_sweep.csv").read_bytes()
    assert main(["sweep", "--config", cfg]) == 0
    assert (tmp_path / "sw_sweep.csv").read_bytes() == first
    capsys.readouterr()
    expected = []
    for k0 in axes[0]["values"]:
        for v1 in axes[1]["values"]:
            point = json.loads(json.dumps(cfg_obj))
            point["preset"]["k0"] = k0
            point["preset"]["F1"]["v1"] = v1
            rep = cli._classify(point)
            cells = [k0, v1, rep.theta_samples[0][1], rep.max_abs_theta_dot]
            separable = "true" if rep.separable else "false"
            expected.append(",".join([*map(cli._fmt, cells), separable, rep.stability]))
    assert first.decode().splitlines()[1:] == expected


def test_out_flag_overrides_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path, transport_cfg(str(tmp_path / "ignored")))
    override = str(tmp_path / "other")
    assert main(["analyze", "--config", cfg, "--out", override]) == 0
    assert (tmp_path / "other_analyze.csv").exists()
    assert not (tmp_path / "ignored_analyze.csv").exists()
    capsys.readouterr()


def test_config_errors_exit_2(tmp_path, capsys):
    bad = transport_cfg(str(tmp_path / "x"))
    bad["unexpected"] = 1
    assert main(["analyze", "--config", write_cfg(tmp_path, bad, "a.json")]) == 2

    bad = transport_cfg(str(tmp_path / "x"))
    bad["schema"] = 2
    assert main(["analyze", "--config", write_cfg(tmp_path, bad, "b.json")]) == 2

    bad = transport_cfg(str(tmp_path / "x"))
    bad["preset"]["oops"] = 1
    assert main(["analyze", "--config", write_cfg(tmp_path, bad, "c.json")]) == 2

    bad = transport_cfg(str(tmp_path / "x"))
    bad["window"] = [2.0, 0.0]
    assert main(["analyze", "--config", write_cfg(tmp_path, bad, "d.json")]) == 2

    bad = transport_cfg(str(tmp_path / "x"))
    bad["output"]["format"] = "json"
    assert main(["analyze", "--config", write_cfg(tmp_path, bad, "e.json")]) == 2

    bad = transport_cfg(str(tmp_path / "x"))
    bad["tolerances"] = {"tol_cond": "x"}
    assert main(["analyze", "--config", write_cfg(tmp_path, bad, "f.json")]) == 2

    missing = str(tmp_path / "nope.json")
    assert main(["analyze", "--config", missing]) == 2
    capsys.readouterr()


def test_simulate_rejects_a_dt_that_does_not_divide_the_window(tmp_path, capsys):
    # [0, 2] in steps of 0.3 would end at t = 2.1 or 1.8, never at 2.
    cfg = write_cfg(tmp_path, transport_cfg(str(tmp_path / "run")))
    assert main(["simulate", "--config", cfg, "--dt", "0.3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not list(tmp_path.glob("run_*"))


@pytest.mark.parametrize("window, dt", [([0.0, 0.9], 0.3), ([0.1, 0.7], 0.2)])
def test_simulate_rows_end_exactly_on_t1(tmp_path, capsys, window, dt):
    cfg = transport_cfg(str(tmp_path / "run"))
    cfg.update(window=window, integrator={"dt": dt})
    assert main(["simulate", "--config", write_cfg(tmp_path, cfg)]) == 0
    for frame in ("lab", "mode"):
        rows = (tmp_path / f"run_{frame}.csv").read_text().splitlines()
        assert len(rows) == 5  # header + 4 samples
        assert float(rows[-1].split(",")[0]) == window[1]
    capsys.readouterr()


@pytest.mark.parametrize("flags", [[], ["--larmor"]])
def test_simulate_stages_stay_inside_a_table_domain(tmp_path, capsys, flags):
    # 0.1 * 3 rounds to 0.30000000000000004: a last stage at grid[i] + dt
    # would leave the table's domain [0, 0.3]; it lies on the grid instead.
    cfg = rotation_cfg(str(tmp_path / "run"))
    cfg["preset"]["phi"] = {
        "kind": "table", "times": [0.0, 0.1, 0.2, 0.3], "values": [0.0, 0.05, 0.15, 0.3],
    }
    cfg.update(window=[0.0, 0.3], integrator={"dt": 0.1})
    assert main(["simulate", "--config", write_cfg(tmp_path, cfg), *flags]) == 0
    for frame in ("lab", "mode"):
        rows = (tmp_path / f"run_{frame}.csv").read_text().splitlines()
        assert len(rows) == 5  # header + 4 samples
        assert float(rows[-1].split(",")[0]) == 0.3
    capsys.readouterr()


def sweep_over(path, values):
    return lambda c: c.update(sweep={"axes": [{"path": path, "values": values}]})


# case: (command and flags, config mutation); "{tmp}" is the test's directory.
MALFORMED = {
    "dt": (["simulate"], lambda c: c["integrator"].update(dt="abc")),
    "window": (["analyze"], lambda c: c.update(window=["a", "b"])),
    "window_span_overflows": (["analyze"], lambda c: c.update(window=[-1e308, 1e308])),
    "masses": (["analyze"], lambda c: c["preset"].update(masses=[1, "x"])),
    "initial_state": (
        ["simulate"],
        lambda c: c.update(initial_state={"q": "ab", "p": [0.0, 0.0]}),
    ),
    "omega1": (
        ["analyze"],
        lambda c: c.update(preset={**rotation_cfg("")["preset"], "omega1": "x"}),
    ),
    "preset_type": (["analyze"], lambda c: c["preset"].update(type=["x"])),
    "output_path": (["analyze"], lambda c: c["output"].update(path=5)),
    "out_missing_dir_simulate": (["simulate", "--out", "{tmp}/nodir/run"], lambda c: None),
    "out_missing_dir_analyze": (["analyze", "--out", "{tmp}/nodir/run"], lambda c: None),
    "samples_flag_negative": (["analyze", "--samples", "-3"], lambda c: None),
    "samples_flag_zero": (["classify", "--samples", "0"], lambda c: None),
    "dt_flag_zero": (["simulate", "--dt", "0"], lambda c: None),
    "samples_flag_text": (["analyze", "--samples", "abc"], lambda c: None),
    "dt_flag_text": (["simulate", "--dt", "x"], lambda c: None),
    "unknown_flag": (["analyze", "--bogus"], lambda c: None),
    "unknown_command": (["bogus"], lambda c: None),
    "sweep_path_number": (["sweep"], sweep_over(5, [1.0])),
    "sweep_path_missing": (["sweep"], sweep_over("nokey.x", [1.0])),
    "sweep_path_undeclared": (["sweep"], sweep_over("preset.nokey", [1.0])),
    "sweep_index_out_of_range": (["sweep"], sweep_over("window.5", [1.0])),
    "sweep_window_string": (["sweep"], sweep_over("window.0", ["abc"])),
    "sweep_samples_one": (["sweep"], sweep_over("samples", [1])),
    "sweep_axis_no_values": (["sweep"], sweep_over("samples", [])),
    "sweep_no_axes": (["sweep"], lambda c: c.update(sweep={"axes": []})),
    "sweep_three_axes": (
        ["sweep"],
        lambda c: c.update(sweep={"axes": [{"path": "samples", "values": [5]}] * 3}),
    ),
    "sweep_without_a_sweep_section": (["sweep"], lambda c: None),
    "integrator_without_dt": (["simulate"], lambda c: c.update(integrator={"method": "rk4"})),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_values_exit_2_with_one_line(tmp_path, capsys, case):
    argv, mutate = MALFORMED[case]
    cfg = transport_cfg(str(tmp_path / "x"))
    mutate(cfg)
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert main([*argv, "--config", write_cfg(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: dnm simulate")


def test_sweep_reads_each_points_tol_sep(tmp_path, capsys):
    cfg = rotation_cfg(str(tmp_path / "sw"))
    cfg["preset"]["phi"]["v1"] = 0.1  # max |theta_dot| = 0.1
    cfg["tolerances"] = {"tol_sep": 1e-9}
    sweep_over("tolerances.tol_sep", [1e-30, 1e3])(cfg)
    assert main(["sweep", "--config", write_cfg(tmp_path, cfg)]) == 0
    rows = (tmp_path / "sw_sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[3] for row in rows] == ["false", "true"]
    capsys.readouterr()


def test_preset_domain_exit_3(tmp_path, capsys):
    cfg_obj = transport_cfg(str(tmp_path / "x"))
    # stiffness ramps through zero inside the window
    cfg_obj["preset"]["k"] = {"kind": "linear-ramp", "t0": 0.0, "v0": 1.0, "t1": 1.0, "v1": -1.0}
    cfg = write_cfg(tmp_path, cfg_obj)
    assert main(["analyze", "--config", cfg]) == 3
    capsys.readouterr()


def test_divergence_exit_4_with_partial(tmp_path, capsys):
    cfg_obj = {
        "schema": 1,
        "preset": {"type": "custom", "k": 0.0, "k1": -50.0, "k2": 1.0},
        "window": [0.0, 30.0],
        "integrator": {"dt": 0.01},
        "initial_state": {"q": [1.0, 0.0], "p": [0.0, 0.0]},
        "output": {"path": str(tmp_path / "div")},
    }
    cfg = write_cfg(tmp_path, cfg_obj)
    assert main(["simulate", "--config", cfg]) == 4
    assert (tmp_path / "div_lab.csv.partial").exists()
    capsys.readouterr()


def run_cli(*argv):
    """`python -m dnmodes.cli argv` in a fresh interpreter that imports this
    checkout's package, as an installed `dnm` would run."""
    src = os.path.dirname(os.path.dirname(dnmodes.__file__))
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONHASHSEED": "0",
           "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    return subprocess.run(
        [sys.executable, "-m", "dnmodes.cli", *argv], capture_output=True, text=True, env=env
    )


def test_console_entry_point(tmp_path):
    cfg = write_cfg(tmp_path, transport_cfg(str(tmp_path / "ep")))
    proc = run_cli("classify", "--config", cfg)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["separable"] is True


def test_numpy_overflow_exits_3_with_one_line(tmp_path):
    # The tan(2 theta) numerator 2k/sqrt(m1 m2) overflows, here in numpy
    # scalars on classify's sample times; numpy's warnings go to stderr, so
    # this needs a separate interpreter.
    ramp = {"kind": "linear-ramp", "t0": 0.0, "v0": 1e308, "t1": 1.0, "v1": 1.5e308}
    cfg = {
        "schema": 1,
        "preset": {"type": "custom", "k": ramp, "k1": 1e308, "k2": 1.0},
        "window": [0.0, 1.0],
        "samples": 5,
    }
    proc = run_cli("classify", "--config", write_cfg(tmp_path, cfg))
    assert proc.returncode == 3
    assert proc.stdout == ""
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("preset domain error: ")


# classify's JSON report holds a numpy bool when the masses differ and the
# preset solves for its equilibrium root, so json.dumps raises TypeError
# (exit 1).  The benchmark pins this failure, so it is not mended here.
NUMPY_BOOL_REPORT = pytest.mark.xfail(
    strict=True, raises=TypeError,
    reason="classify: numpy bool in the JSON report (unequal masses)",
)


@NUMPY_BOOL_REPORT
def test_huge_mass_separation_classify_exits_0(tmp_path, capsys):
    # theta_dot no longer overflows on masses [1e300, 2], so classify reaches
    # its report.
    ramp = {"kind": "linear-ramp", "t0": 0.0, "v0": 0.5, "t1": 1.0, "v1": 0.6}
    step = {"kind": "smoothstep", "v0": 1.0, "v1": 0.5, "t0": 0.0, "t1": 1.0}
    cfg = {
        "schema": 1,
        "preset": {"type": "separation", "alpha": step, "beta": ramp, "Cc": 1.0,
                   "masses": [1e300, 2.0]},
        "window": [0.0, 1.0],
        "samples": 5,
    }
    assert main(["classify", "--config", write_cfg(tmp_path, cfg)]) == 0


@pytest.mark.parametrize("method", ["rk4", "velocity-verlet"])
def test_overflow_inside_a_step_exits_3_with_one_line(tmp_path, method):
    # k1 (q1 - q1_eq) overflows to inf in the first stage; a state beyond the
    # divergence guard that is still finite exits 4 instead.
    cfg = {
        "schema": 1,
        "preset": {"type": "custom", "k": 0.0, "k1": 1e300, "k2": 1.0},
        "window": [0.0, 1.0],
        "integrator": {"dt": 0.0625, "method": method},
        "initial_state": {"q": [1e10, 0.0], "p": [0.0, 0.0]},
        "output": {"path": str(tmp_path / "ovf")},
    }
    proc = run_cli("simulate", "--config", write_cfg(tmp_path, cfg))
    assert proc.returncode == 3
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("preset domain error: ")


def test_sweep_sets_a_field_left_at_its_default(tmp_path, capsys):
    cfg = transport_cfg(str(tmp_path / "sw"))
    del cfg["preset"]["Cc"]
    sweep_over("preset.Cc", [0.5, 1.0])(cfg)
    assert main(["sweep", "--config", write_cfg(tmp_path, cfg)]) == 0
    rows = (tmp_path / "sw_sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["0.5", "1"]
    capsys.readouterr()


def test_sweep_writes_non_number_values_as_json(tmp_path, capsys):
    cfg = transport_cfg(str(tmp_path / "sw"))
    sweep_over("preset.k", [{"kind": "constant", "value": 2.0}, 3.0])(cfg)
    assert main(["sweep", "--config", write_cfg(tmp_path, cfg)]) == 0
    with open(tmp_path / "sw_sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [row[0] for row in rows] == ['{"kind":"constant","value":2.0}', "3"]
    assert all(len(row) == 5 for row in rows)
    capsys.readouterr()


# A float ** that overflows, or an ion-pair distance or Coulomb spring that is
# no float, exits 3; the message names what overflowed, and for the ion pairs
# the time.
OVERFLOWING_PRESETS = {
    # The root, about sqrt(2 |alpha|/beta) = 2e315, is no float.
    "separation": ({"type": "separation", "alpha": {"kind": "smoothstep", "v0": -1e307,
                                                     "v1": -0.5e307, "t0": 0.0, "t1": 1.0},
                    "beta": 5e-324, "Cc": 1.0, "masses": [1.0, 2.0]},
                   "separation: q0 overflows at t=0.0"),
    # The root is about sqrt(2 Cc/(F1 - F2)) = 1.4e-300, so the spring is 7e599.
    "phase-gate": ({"type": "phase-gate", "k0": 1.0, "Cc": 1e-300, "F1": 1e300, "F2": 0.0},
                   "phase-gate: Coulomb spring 2 Cc/q0**3 overflows at t=0.0"),
    "rotation": ({"type": "rotation", "m": 1.0, "omega1": 1e300, "omega2": 1.0, "phi": 0.3},
                 "rotation: omega1**2 or omega2**2 overflows"),
    # F1 - F2 = 2e308 is no float, but the root, about sqrt(2 Cc/(F1 - F2)) = 1e-154, is;
    # the spring, 2e462, is not.
    "phase-gate-forces-1e308": ({"type": "phase-gate", "k0": 1.0, "F1": 1e308, "F2": -1e308},
                                "phase-gate: Coulomb spring 2 Cc/q0**3 overflows at t=0.0"),
}


@pytest.mark.parametrize("command", ["analyze", "classify", "simulate"])
@pytest.mark.parametrize("preset", sorted(OVERFLOWING_PRESETS))
def test_a_float_overflow_names_the_quantity(tmp_path, capsys, preset, command):
    obj, message = OVERFLOWING_PRESETS[preset]
    cfg = {
        "schema": 1, "preset": obj, "window": [0.0, 1.0], "samples": 5,
        "integrator": {"dt": 0.25}, "initial_state": {"q": [0.1, -0.1], "p": [0.0, 0.0]},
        "output": {"path": str(tmp_path / "ovf")},
    }
    assert main([command, "--config", write_cfg(tmp_path, cfg)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == [f"preset domain error: {message}"]


def test_a_control_schedule_overflowing_on_classify_times_exits_3(tmp_path, capsys):
    # F1 = -1e308 (1 + t) leaves the floats at t = 1 only, where classify's numpy
    # time makes the schedule itself raise; numpy names that overflow.
    force = {"kind": "polynomial", "coeffs": [-1e308, -1e308]}
    cfg = {"schema": 1, "preset": {"type": "phase-gate", "k0": 1.0, "F1": force, "F2": 0.0},
           "window": [0.0, 1.0], "samples": 5}
    assert main(["classify", "--config", write_cfg(tmp_path, cfg)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("preset domain error: overflow encountered")


RAMP_FROM_3E307 = {"kind": "linear-ramp", "t0": 0.0, "v0": 3e307, "t1": 1.0, "v1": 0.0}


@pytest.mark.parametrize("alpha, code, err", [
    # k + k1 = 1.2e308 is a float and 1e154 dt is small, so the runs reach the map,
    # whose drive needs q0dot; 6 alpha = 1.8e308 in f'(q0)/q0^2 is no float.
    (RAMP_FROM_3E307, 3, ["preset domain error: separation: q0dot overflows at t=0.0"]),
    # A constant alpha has df/dt = 0, so q0dot = -0/f'(q0) is 0 all the same.
    (3e307, 0, []),
], ids=["ramp", "constant"])
def test_simulate_exits_3_where_q0dot_overflows(tmp_path, capsys, alpha, code, err):
    cfg = {"schema": 1, "window": [0.0, 1e-160], "integrator": {"dt": 2.5e-161},
           "preset": {"type": "separation", "alpha": alpha, "beta": 1.0, "Cc": 1.0},
           "output": {"path": str(tmp_path / "ovf")}}
    assert main(["simulate", "--config", write_cfg(tmp_path, cfg)]) == code
    assert capsys.readouterr().err.splitlines() == err


# A config's values are checked finite, so a stiffness entry or a tan(2 theta)
# term that overflows is computed: exit 3.  The message is analyze's, which
# runs on floats; classify samples on numpy times, whose overflow numpy names.
# The terms are the mass-weighted stiffness's, 2k/sqrt(m1 m2) and
# k (1/m2 - 1/m1) + (k2/m2 - k1/m1), so they overflow only where its entries do.
OVERFLOWING_STIFFNESS = {
    # k1 = m omega1^2 = 1e309 when the system is built.
    "rotation_k1": ({"type": "rotation", "m": 10.0, "omega1": 1e154, "omega2": 1.0,
                     "phi": {"kind": "linear-ramp", "t0": 0.0, "v0": 0.0, "t1": 1.0, "v1": 0.4}},
                    [0.0, 1.0], "stiffness k1 must be finite, got inf"),
    # k = 1 + 1e308 t: 2k/sqrt(m1 m2) overflows first, then k itself.
    "polynomial_k": ({"type": "custom", "k": {"kind": "polynomial", "coeffs": [1.0, 1e308]},
                      "k1": 1.0, "k2": 1.0},
                     [0.0, 2.0], "mode angle overflows: 2k/sqrt(m1 m2) = inf, "
                                 "k (1/m2 - 1/m1) + (k2/m2 - k1/m1) = 0.0 at t=1.0"),
    # 2k/sqrt(m1 m2) overflows, k stays finite.
    "num_ramp": ({"type": "custom", "k": {"kind": "linear-ramp", "t0": 0.0, "v0": 1e308,
                                          "t1": 1.0, "v1": 1.5e308}, "k1": 1e308, "k2": 1.0},
                 [0.0, 1.0], "mode angle overflows: 2k/sqrt(m1 m2) = inf, "
                             "k (1/m2 - 1/m1) + (k2/m2 - k1/m1) = -1e+308 at t=0.0"),
    # k2/m2 - k1/m1 is 2e308 - (-2e308).
    "den_inf": ({"type": "custom", "k": 1.0, "k1": -1e308, "k2": 1e308, "masses": [0.5, 0.5]},
                [0.0, 1.0], "mode angle overflows: 2k/sqrt(m1 m2) = 4.0, "
                            "k (1/m2 - 1/m1) + (k2/m2 - k1/m1) = inf at t=0.0"),
    # k2/m2 - k1/m1 is inf - inf.
    "den_nan": ({"type": "custom", "k": 1.0, "k1": 1e300, "k2": 1e300,
                 "masses": [1e-10, 1e-10]},
                [0.0, 1.0], "mode angle overflows: 2k/sqrt(m1 m2) = 20000000000.0, "
                            "k (1/m2 - 1/m1) + (k2/m2 - k1/m1) = nan at t=0.0"),
}


@pytest.mark.parametrize("command", ["analyze", "classify", "simulate"])
@pytest.mark.parametrize("case", sorted(OVERFLOWING_STIFFNESS))
def test_an_overflowing_stiffness_or_mode_angle_exits_3(tmp_path, capsys, case, command):
    obj, window, message = OVERFLOWING_STIFFNESS[case]
    cfg = {
        "schema": 1, "preset": obj, "window": window, "samples": 5,
        "integrator": {"dt": 0.25}, "output": {"path": str(tmp_path / "ovf")},
    }
    assert main([command, "--config", write_cfg(tmp_path, cfg)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("preset domain error: ")
    if command == "analyze":
        assert err == [f"preset domain error: {message}"]


# Mass-weighted stiffnesses with finite entries whose raw-mass tan(2 theta) terms,
# 2k sqrt(m1 m2) and (m1 - m2)k + (m1 k2 - m2 k1), overflow.  Per case, analyze's
# (theta, theta_dot, Omega1^2, Omega2^2) at t; None leaves a value unchecked.
FINITE_MASS_WEIGHTED_FRAMES = {
    # 2k sqrt(m1 m2) = 2e310; Ktil = [[1e10, -1e10], [-1e10, 1e10]].
    "huge_masses": ({"type": "custom", "k": 1e160, "k1": 0.0, "k2": 0.0,
                     "masses": [1e150, 1e150]},
                    lambda t: (math.pi / 4, 0.0, 0.0, 2e10)),
    # m1 k2 - m2 k1 is inf - inf; Ktil is diag(1e100, 1e200) up to c = 1e-150.
    "huge_unequal_masses": ({"type": "custom", "k": 1.0, "k1": 1e300, "k2": 1e300,
                             "masses": [1e200, 1e100]},
                            lambda t: (0.0, 0.0, 1e100, 1e200)),
    # The builder's isotropy test on the phi = 0 triple, where m2 k1 = 1e400.  The
    # smaller Omega^2 carries the triple's rounding of about u 1e200: unchecked.
    "rotation_isotropy_test": ({"type": "rotation", "m": 1e100, "omega1": 1e100,
                                "omega2": 1.0, "phi": {"kind": "linear-ramp", "t0": 0.0,
                                                       "v0": 0.0, "t1": 1.0, "v1": 0.4}},
                               lambda t: (0.4 * t, 0.4, 1e200, None)),
}


@pytest.mark.parametrize("command", ["analyze", "classify", "simulate"])
@pytest.mark.parametrize("case", sorted(FINITE_MASS_WEIGHTED_FRAMES))
def test_a_finite_mass_weighted_frame_runs(tmp_path, capsys, case, command):
    obj, expected = FINITE_MASS_WEIGHTED_FRAMES[case]
    cfg = {
        "schema": 1, "preset": obj, "window": [0.0, 1.0], "samples": 5,
        "integrator": {"dt": 0.25}, "output": {"path": str(tmp_path / "fin")},
    }
    assert main([command, "--config", write_cfg(tmp_path, cfg)]) == 0
    assert capsys.readouterr().err == ""
    if command != "analyze":
        return
    with open(tmp_path / "fin_analyze.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    for row in rows:
        theta, theta_dot, o1, o2 = expected(float(row["t"]))
        scale = max(abs(o1), abs(o2 or 0.0))
        assert abs(float(row["theta"]) - theta) <= 1e-15, row
        assert abs(float(row["theta_dot"]) - theta_dot) <= 1e-15, row
        for got, want in ((row["omega1_sq"], o1), (row["omega2_sq"], o2)):
            assert want is None or abs(float(got) - want) <= 1e-14 * scale, row


@pytest.mark.parametrize("command", ["analyze", "classify", "simulate"])
def test_a_degenerate_instant_where_a_table_starts_runs_its_window(tmp_path, capsys, command):
    # k = 0 at t = 0 makes the stiffness degenerate (m1 k2 = m2 k1), where
    # theta_dot is a difference quotient of theta; the table starts there, so
    # the quotient is one-sided.  theta is constant on (0, 2], but with k near
    # 1e-6 against k1, k2 near 1 it carries a rounding noise of about 1e-10 at
    # t = 1e-6 and 2e-6, and the chain rule there gives 2e-5: hence 1e-4.
    table = {"kind": "table", "times": [0, 1, 2], "values": [0, 0.5, 1],
             "interpolation": "linear"}
    cfg = {
        "schema": 1,
        "preset": {"type": "custom", "k": table, "k1": 1, "k2": 2, "masses": [1, 2]},
        "window": [0.0, 2.0], "samples": 5, "integrator": {"dt": 0.25},
        "output": {"path": str(tmp_path / "deg")},
    }
    assert main([command, "--config", write_cfg(tmp_path, cfg)]) == 0
    assert capsys.readouterr().err == ""
    if command == "analyze":
        with open(tmp_path / "deg_analyze.csv", newline="") as fh:
            first = next(csv.DictReader(fh))
        assert float(first["t"]) == 0.0 and abs(float(first["theta_dot"])) <= 1e-4


def ramp(v0, v1) -> dict:
    return {"kind": "linear-ramp", "t0": 0.0, "v0": v0, "t1": 1.0, "v1": v1}


@pytest.mark.parametrize("preset, window", [
    ({"type": "custom", "k": ramp(1e-8, 2e-8), "k1": 0.7, "k2": 1.4, "masses": [1, 2]}, [0, 1]),
    ({"type": "custom", "k": ramp(1e-9, 2e-9), "k1": 0.7, "k2": 1.4, "masses": [1, 2]}, [0, 1]),
    ({"type": "custom", "k": {"kind": "table", "times": [0, 1, 2], "values": [0, 0.5, 1],
                              "interpolation": "linear"}, "k1": 1, "k2": 2, "masses": [1, 2]},
     [0, 2]),
], ids=["k_1e-8", "k_1e-9", "degenerate_start"])
def test_a_constant_mode_angle_classifies_as_separable(tmp_path, capsys, preset, window):
    # m1 k2 = m2 k1, so tan(2 theta) = -2 sqrt(2) at every t where k != 0.  The
    # parent's den = m1 (k + k2) - m2 (k + k1) rounded k + k2 and k + k1 before
    # cancelling, and classify said 2.5e-9, 2.3e-8 and 7.0e-5.
    cfg = {"schema": 1, "preset": preset, "window": window, "samples": 200,
           "output": {"path": str(tmp_path / "sep")}}
    assert main(["classify", "--config", write_cfg(tmp_path, cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["separable"] is True


def test_analyze_finds_a_root_below_the_scan_grid(tmp_path, capsys):
    # With k0 = 1e300 the cubic's root is about 1.3e-100, which a scan in q
    # would find only below its grid's first point (1e-11); in x it is near 1.
    cfg = {
        "schema": 1,
        "preset": {"type": "phase-gate", "k0": 1e300, "Cc": 1.0, "masses": [1.0, 1.5],
                   "F1": {"kind": "smoothstep", "v0": 0.0, "v1": 0.1, "t0": 0.0, "t1": 1.0},
                   "F2": {"kind": "polynomial", "coeffs": [0.0, -0.1]}},
        "window": [0.0, 1.0],
        "samples": 5,
        "output": {"path": str(tmp_path / "tiny")},
    }
    assert main(["analyze", "--config", write_cfg(tmp_path, cfg)]) == 0
    capsys.readouterr()
    with open(tmp_path / "tiny_analyze.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    distances = [float(r["q1_eq"]) - float(r["q2_eq"]) for r in rows]
    assert len(rows) == 5 and all(0.0 < d < 1e-99 for d in distances)


# With k0 = 1, Cc = 1e-300 and F1 - F2 = 1e300 the cubic's root is about
# sqrt(2 Cc/(F1 - F2)) = 1.4e-300, which the solver finds.  Its cube, 2.8e-900,
# is no float, and the Coulomb spring 2 Cc/q0**3, 7e599, is none either.
VANISHING_CUBE_MESSAGES = {
    "analyze": "phase-gate: Coulomb spring 2 Cc/q0**3 overflows at t=0.0",
    "classify": "phase-gate: Coulomb spring 2 Cc/q0**3 overflows at t=0.0",
    "simulate": "phase-gate: Coulomb spring 2 Cc/q0**3 overflows at t=0.0",
}


def vanishing_cube_preset() -> dict:
    return {"type": "phase-gate", "k0": 1.0, "Cc": 1e-300, "masses": [1.0, 1.5],
            "F1": {"kind": "smoothstep", "v0": 1e300, "v1": 1.1e300, "t0": 0.0, "t1": 1.0},
            "F2": {"kind": "polynomial", "coeffs": [0.0, -0.1]}}


def test_the_vanishing_cube_spring_is_no_float():
    # k0 = 1, Cc = 1e-300 and F1 - F2 = 1e300 at t = 0, here and in
    # OVERFLOWING_PRESETS: in rationals the cubic is positive at q = 1.5e-300,
    # so its one positive root lies below, where 2 Cc/q**3 passes the largest float.
    q, cc = Fraction(1.5e-300), Fraction(1e-300)
    assert (q + Fraction(1e300)) * q * q > 2 * cc
    assert 2 * cc / q**3 > Fraction(sys.float_info.max)


@pytest.mark.parametrize("command", sorted(VANISHING_CUBE_MESSAGES))
def test_a_vanishing_q0_cube_names_the_coulomb_spring(tmp_path, command):
    cfg = {
        "schema": 1, "preset": vanishing_cube_preset(), "window": [0.0, 1.0], "samples": 5,
        "integrator": {"dt": 0.25}, "initial_state": {"q": [0.1, -0.1], "p": [0.0, 0.0]},
        "output": {"path": str(tmp_path / "cube")},
    }
    proc = run_cli(command, "--config", write_cfg(tmp_path, cfg))
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == [f"preset domain error: {VANISHING_CUBE_MESSAGES[command]}"]


def test_the_coulomb_spring_rate_names_a_vanishing_q0_cube():
    # The rate is -3 k q0dot/q0, so it forms the spring too; q0dot is a float.
    sys_ = presets.build_preset(vanishing_cube_preset())
    with pytest.raises(PresetDomainError, match=r"Coulomb spring 2 Cc/q0\*\*3 overflows at t=0.5"):
        sys_.stiffness_rate(0.5)


SMOOTH_DOWN = {"kind": "smoothstep", "v0": 1.0, "v1": 0.5, "t0": 0.0, "t1": 1.0}
SMOOTH_UP = {"kind": "smoothstep", "v0": 0.0, "v1": 0.1, "t0": 0.0, "t1": 1.0}
FALLING = {"kind": "polynomial", "coeffs": [0.0, -0.1]}

# Ion pairs whose distance, its rate and the Coulomb spring are floats although
# a distance equation solved in q left the float range on the way (each exited
# 3): its scan's sign product underflowed, its bracket overflowed f, or q0**2,
# q0**3, 2 Cc/k or 2 Cc was no float.
FINITE_AT_THE_FLOAT_EDGES = {
    "separation-Cc-1e-300": {"type": "separation", "alpha": SMOOTH_DOWN, "Cc": 1e-300,
                             "beta": {"kind": "linear-ramp", "t0": 0.0, "v0": 0.5, "t1": 1.0,
                                      "v1": 0.6}, "masses": [1.0, 2.0]},
    "separation-Cc-1e300": {"type": "separation", "alpha": SMOOTH_DOWN, "beta": 0.6,
                            "Cc": 1e300, "masses": [1.0, 2.0]},
    # q0 = 4.6e61 and the spring 2 Cc/q0**3 = 2.1e123, though 2 Cc is no float.
    "separation-Cc-1e308": {"type": "separation", "alpha": 1.0, "beta": 1.0, "Cc": 1e308},
    "phase-gate-k0-1e-300": {"type": "phase-gate", "k0": 1e-300, "Cc": 1.0, "F1": SMOOTH_UP,
                             "F2": FALLING, "masses": [1.0, 1.5]},
    "phase-gate-k0-1e300": {"type": "phase-gate", "k0": 1e300, "Cc": 1e-300, "F1": SMOOTH_UP,
                            "F2": FALLING, "masses": [1.0, 1.5]},
    # q0 = 5.8e102, the spring k0 = 1 and Omega^2 = 1 and 3, though 2 Cc is no float.
    "phase-gate-Cc-1e308": {"type": "phase-gate", "k0": 1.0, "Cc": 1e308, "F1": 0.0, "F2": 0.0},
    "phase-gate-q0-cube-1e308": {"type": "phase-gate", "k0": 1e-10, "Cc": 7.5e297,
                                 "F1": -2.5e92, "F2": 0.0},
    # q0 = 1e160: q0**2 is no float, q0dot is, and the spring underflows to 0.
    "phase-gate-q0-square-1e320": {"type": "phase-gate", "k0": 1e-300, "Cc": 1.0, "F2": 0.0,
                                   "F1": {"kind": "linear-ramp", "t0": 0.0, "v0": -1e-140,
                                          "t1": 1.0, "v1": -2e-140}},
    "transport-k-1e300": {"type": "transport", "k": 1e300, "Q0": 0.0, "Cc": 1e-100},
}


@pytest.mark.parametrize("name", sorted(FINITE_AT_THE_FLOAT_EDGES))
def test_an_ion_pair_at_the_float_edges_analyzes_within_its_oracle(tmp_path, capsys, name):
    # analyze exits 0, and every view at its sample times is within the exact
    # per-piece formulas' bounds at the root it solved for.  simulate runs where
    # the state stays below the divergence guard; elsewhere (|q0| > 1e12, or a
    # spring near 1e300) the run's state guard stops it, exit 3 or 4.
    obj = FINITE_AT_THE_FLOAT_EDGES[name]
    cfg = {"schema": 1, "preset": obj, "window": [0.0, 1.0], "samples": 5,
           "integrator": {"dt": 0.25}, "initial_state": {"q": [0.1, -0.1], "p": [0.0, 0.0]},
           "output": {"path": str(tmp_path / "edge")}}
    path = write_cfg(tmp_path, cfg)
    assert main(["analyze", "--config", path]) == 0
    config = presets.preset_config_from_dict(obj)
    sys_, roots = recorded_build(config)
    for t in modes._sample_times(0.0, 1.0, 5):
        for view in ION_PAIR_VIEWS:
            got = getattr(sys_, view)(t)
            q0, = roots
            del roots[:]
            got = (got.k, got.k1, got.k2) if view == "stiffness" else got
            check_ion_pair_view(config, view, t, q0, got)
    capsys.readouterr()
    rc = main(["simulate", "--config", path])
    err = capsys.readouterr().err
    if name == "separation-Cc-1e-300":
        assert rc == 0
    else:
        assert (rc, err.split(" at t=")[0]) in (
            (3, "preset domain error: state overflowed"), (4, "divergence: state exceeded 1e+12"))


@NUMPY_BOOL_REPORT
def test_a_phase_gate_with_a_vanishing_q0_cube_classifies(tmp_path, capsys):
    # q0 is 1.26e-200, and its cube no float; the spring, 2 Cc/q0**3 = 1e300, is.
    cfg = {"schema": 1, "preset": FINITE_AT_THE_FLOAT_EDGES["phase-gate-k0-1e300"],
           "window": [0.0, 1.0], "samples": 5}
    assert main(["classify", "--config", write_cfg(tmp_path, cfg)]) == 0


def test_stiffness_near_the_float_limit_analyzes_and_classifies(tmp_path, capsys):
    # The theta_dot degeneracy test squares nothing, so k1 = 1e300 does not
    # overflow it.
    ramp = {"kind": "linear-ramp", "t0": 0.0, "v0": 0.5, "t1": 1.0, "v1": 1.5}
    cfg = {
        "schema": 1,
        "preset": {"type": "custom", "k": ramp, "k1": 1e300, "k2": 1.0},
        "window": [0.0, 1.0],
        "samples": 5,
        "output": {"path": str(tmp_path / "big")},
    }
    path = write_cfg(tmp_path, cfg)
    assert main(["analyze", "--config", path]) == 0
    with open(tmp_path / "big_analyze.csv", newline="") as fh:
        rates = [float(row["theta_dot"]) for row in csv.DictReader(fh)]
    assert len(rates) == 5 and all(map(math.isfinite, rates))
    capsys.readouterr()
    assert main(["classify", "--config", path]) == 0
    assert math.isfinite(json.loads(capsys.readouterr().out)["max_abs_theta_dot"])


def test_classify_through_an_isotropic_instant(tmp_path, capsys):
    # k ramps through 0 with k1 = k2 and equal masses; 201 samples land on
    # t = 5, where the stiffness is isotropic.  The mode angle never turns.
    ramp = {"kind": "linear-ramp", "t0": 0.0, "v0": -5.0, "t1": 10.0, "v1": 5.0}
    cfg = {
        "schema": 1,
        "preset": {"type": "custom", "k": ramp, "k1": 1.0, "k2": 1.0, "masses": [1.0, 1.0]},
        "window": [0.0, 10.0],
        "output": {"path": str(tmp_path / "iso")},
    }
    path = write_cfg(tmp_path, cfg)
    assert main(["classify", "--config", path, "--samples", "201"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["max_abs_theta_dot"] == 0.0 and report["separable"] is True
    assert report["analytic_case"] == "k1=k2, m1=m2"
    assert main(["analyze", "--config", path, "--samples", "201"]) == 0
    with open(tmp_path / "iso_analyze.csv", newline="") as fh:
        rates = [float(row["theta_dot"]) for row in csv.DictReader(fh)]
    assert len(rates) == 201 and not any(rates)
    capsys.readouterr()


@contextlib.contextmanager
def counted_schedule_reads():
    """{"value": n, "derivative": n}: the schedule evaluations inside the block."""
    counts = {"value": 0, "derivative": 0}

    def counted(meth, fn):
        def wrapper(self, t):
            counts[meth] += 1
            return fn(self, t)
        return wrapper

    with contextlib.ExitStack() as stack:
        for cls in vars(schedules).values():
            if isinstance(cls, type) and issubclass(cls, schedules.ControlSchedule):
                for meth in ("value", "derivative"):
                    if meth in cls.__dict__:
                        stack.enter_context(
                            mock.patch.object(cls, meth, counted(meth, cls.__dict__[meth])))
        yield counts


def test_separation_simulate_work_counts(tmp_path, capsys):
    # Ceilings on the root solves per step, the decompositions and the
    # schedule evaluations of a separation simulate: a regression fails, an
    # improvement passes.  The lab-to-mode map needs no decomposition per
    # sample, and the mode runs thread the mode angle through their stages
    # with no solve of their own per step (3202 solves over the 64 steps).
    # The views read alpha and beta once per time, and their derivatives once
    # per time a rate view asks: per step, two new stage times in each of the
    # four runs and one in the map, so 18.2 values and 8.1 derivatives (1162
    # and 516; once per view, the parent read 6404 and 2048).
    alpha = {"kind": "smoothstep", "v0": 0.7, "v1": -1.2, "t0": 0.1, "t1": 0.9}
    cfg = {
        "schema": 1,
        "preset": {"type": "separation", "alpha": alpha, "beta": 0.6, "Cc": 1.15,
                   "masses": [1.0, 2.0]},
        "window": [0.0, 1.0],
        "integrator": {"dt": 1.0 / 64.0},
        "initial_state": {"q": [0.6, -0.5], "p": [0.1, -0.1]},
        "output": {"path": str(tmp_path / "sep")},
    }
    solves, decompositions = [], []
    solve, decompose = presets.solve_positive_root, dynamics.decompose_at

    def counting_solve(f, fprime, q_max, guess=None):
        solves.append(guess)
        return solve(f, fprime, q_max, guess=guess)

    def counting_decompose(*args, **kwargs):
        decompositions.append(args)
        return decompose(*args, **kwargs)

    with mock.patch.object(presets, "solve_positive_root", counting_solve), \
            mock.patch.object(cli, "decompose_at", counting_decompose), \
            mock.patch.object(dynamics, "decompose_at", counting_decompose), \
            counted_schedule_reads() as reads:
        assert main(["simulate", "--config", write_cfg(tmp_path, cfg)]) == 0
    capsys.readouterr()
    assert len(solves) <= 51 * 64
    assert len(decompositions) == 0
    assert reads["value"] <= 1162 and reads["derivative"] <= 516


# Ceilings for a 64-step rotation simulate --larmor with a table phi, at the
# counts measured when the test was written.  Per step: 17.02 stiffness calls
# (four stages in each of the four runs, plus the map's 65 samples), 9.02
# equilibrium calls (the two lab runs and the map), 8 equilibrium-velocity and
# theta_dot calls (the two mode runs).  The views keep their value per time, so
# a run reads the table once at each of its 2 x 64 + 1 distinct times: 9.08
# values per step (4 x 129 in the runs plus 65 in the map, 581) and 4.03
# derivatives (theta_dot in the two mode runs, 258; the Larmor run takes omega_L
# from its stage's theta_dot).  A mode frame is built once per distinct triple:
# 5.05 per step (2 x 129 in the mode runs plus 65 in the map, 323).
ROTATION_CEILINGS = {
    "solve_positive_root": 0, "integrations": 4,
    "stiffness": 1089, "equilibrium": 577, "equilibrium_velocity": 512, "stiffness_rate": 0,
    "theta_dot_override": 512, "table.value": 581, "table.derivative": 258, "frames": 323,
}


def test_rotation_simulate_work_counts(tmp_path, capsys):
    # The rotation twin of test_separation_simulate_work_counts: a regression
    # fails, an improvement passes.
    times = [i / 8.0 for i in range(9)]
    phi = {"kind": "table", "times": times, "values": [0.3 * t * t for t in times]}
    cfg = {
        "schema": 1,
        "preset": {"type": "rotation", "m": 1.3, "omega1": 2.0, "omega2": 1.1, "phi": phi},
        "window": [0.0, 1.0],
        "integrator": {"dt": 1.0 / 64.0},
        "initial_state": {"q": [0.3, -0.2], "p": [0.1, 0.05]},
        "output": {"path": str(tmp_path / "rot")},
    }
    calls = dict.fromkeys(ROTATION_CEILINGS, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    build = cli.build_preset

    def counting_build(obj):
        sys_ = build(obj)
        for name in ("stiffness", "equilibrium", "equilibrium_velocity", "stiffness_rate",
                     "theta_dot_override"):
            if getattr(sys_, name) is not None:  # as perfbench/tracer.py wraps them
                setattr(sys_, name, counted(name, getattr(sys_, name)))
        return sys_

    table = schedules.SampledTable
    patches = [
        mock.patch.object(cli, "build_preset", counting_build),
        mock.patch.object(presets, "solve_positive_root",
                          counted("solve_positive_root", presets.solve_positive_root)),
        mock.patch.object(table, "value", counted("table.value", table.value)),
        mock.patch.object(table, "derivative", counted("table.derivative", table.derivative)),
        mock.patch.object(modes, "_frame", counted("frames", modes._frame)),
    ] + [
        mock.patch.object(module, name, counted("integrations", getattr(module, name)))
        for module in (cli, dynamics) for name in ("integrate_lab", "integrate_modes")
    ]
    with contextlib.ExitStack() as stack:
        for patch in patches:
            stack.enter_context(patch)
        assert main(["simulate", "--config", write_cfg(tmp_path, cfg), "--larmor"]) == 0
    capsys.readouterr()
    for name, ceiling in ROTATION_CEILINGS.items():
        assert calls[name] <= ceiling, (name, calls[name])


def test_phase_gate_survey_work_counts(tmp_path, capsys):
    # Ceilings on the survey path.  analyze solves for q0 once per view at a
    # sample (stiffness, its rate and the equilibrium), because theta_dot
    # reuses decompose_at's triple; classify_separability reuses its loop's
    # triples for the analytic case; and the phase gate never evaluates the
    # published closed form, which audit_phase_gate_formulas and criterion 06
    # check on their own.  The views read F1 and F2 once per time, and their
    # rates once, so a sample reads 2 values and 2 derivatives (once per view,
    # the parent read 6 values).  classify's numpy sample time and the same
    # float time share one read.  The command-line classify is not used,
    # because it still fails on the phase gate.
    n = 40
    cfg = {
        "schema": 1,
        "preset": {
            "type": "phase-gate", "k0": 1.2, "Cc": 1.0, "masses": [1.0, 1.7],
            "F1": {"kind": "smoothstep", "v0": 0.0, "v1": 0.3, "t0": 1.0, "t1": 5.0},
            "F2": {"kind": "smoothstep", "v0": 0.0, "v1": -0.3, "t0": 2.0, "t1": 6.0},
        },
        "window": [0.0, 8.0],
        "samples": n,
        "output": {"path": str(tmp_path / "pg")},
    }
    solves, audits = [], []
    solve, closed_form = presets.solve_positive_root, presets._phase_gate_forms

    def counting_solve(f, fprime, q_max, guess=None):
        solves.append(guess)
        return solve(f, fprime, q_max, guess=guess)

    def counting_closed_form(*args):
        audits.append(args)
        return closed_form(*args)

    with mock.patch.object(presets, "solve_positive_root", counting_solve), \
            mock.patch.object(presets, "_phase_gate_forms", counting_closed_form):
        with counted_schedule_reads() as reads:
            assert main(["analyze", "--config", write_cfg(tmp_path, cfg)]) == 0
        assert len(solves) <= 3 * n
        assert audits == []
        assert reads["value"] <= 2 * n and reads["derivative"] <= 2 * n
        del solves[:], audits[:]
        with counted_schedule_reads() as reads:
            sys_ = presets.build_preset(cfg["preset"])
            rep = modes.classify_separability(sys_, (0.0, 8.0), n_samples=n)
        assert len(solves) <= 3 * n + 1
        assert audits == []
        assert reads["value"] <= 2 * n and reads["derivative"] <= 2 * n
    capsys.readouterr()
    assert rep.analytic_case is None and len(rep.theta_samples) == n
