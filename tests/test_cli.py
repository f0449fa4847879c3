import contextlib
import csv
import json
import math
import os
import subprocess
import sys
from unittest import mock

import pytest

import dnmodes
from dnmodes import cli, dynamics, modes, presets, schedules
from dnmodes.cli import main
from dnmodes.errors import PresetDomainError


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


def test_sweep_deterministic(tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "sw")
    cfg_obj = transport_cfg(out)
    cfg_obj["sweep"] = {
        "axes": [
            {"path": "preset.k", "values": [1.0, 2.0, 3.0]},
            {"path": "preset.Cc", "values": [0.5, 1.0]},
        ]
    }
    cfg = write_cfg(tmp_path, cfg_obj)
    monkeypatch.setenv("DNM_THREADS", "2")
    assert main(["sweep", "--config", cfg]) == 0
    first = (tmp_path / "sw_sweep.csv").read_bytes()
    assert len(first.decode().splitlines()) == 7  # header + 3*2 grid points
    monkeypatch.setenv("DNM_THREADS", "1")
    assert main(["sweep", "--config", cfg]) == 0
    assert (tmp_path / "sw_sweep.csv").read_bytes() == first
    capsys.readouterr()


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
    "masses": (["analyze"], lambda c: c["preset"].update(masses=[1, "x"])),
    "initial_state": (
        ["simulate"],
        lambda c: c.update(initial_state={"q": "ab", "p": [0.0, 0.0]}),
    ),
    "DNM_THREADS": (["sweep"], sweep_over("preset.k", [1.0, 2.0])),
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
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_values_exit_2_with_one_line(tmp_path, capsys, monkeypatch, case):
    argv, mutate = MALFORMED[case]
    cfg = transport_cfg(str(tmp_path / "x"))
    mutate(cfg)
    if case == "DNM_THREADS":
        monkeypatch.setenv("DNM_THREADS", "abc")
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
    # m1 * m2 is finite, but the mode-angle rate overflows in numpy scalars;
    # numpy's warnings go to stderr, so this needs a separate interpreter.
    ramp = {"kind": "linear-ramp", "t0": 0.0, "v0": 0.5, "t1": 1.0, "v1": 0.6}
    step = {"kind": "smoothstep", "v0": 1.0, "v1": 0.5, "t0": 0.0, "t1": 1.0}
    cfg = {
        "schema": 1,
        "preset": {"type": "separation", "alpha": step, "beta": ramp, "Cc": 1.0,
                   "masses": [1e300, 2.0]},
        "window": [0.0, 1.0],
        "samples": 5,
    }
    proc = run_cli("classify", "--config", write_cfg(tmp_path, cfg))
    assert proc.returncode == 3
    assert proc.stdout == ""
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("preset domain error: ")


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


# A Python float ** that overflows raises OverflowError; the message names
# what overflowed, and for the equilibrium distance q0 the time.
OVERFLOWING_PRESETS = {
    "separation": ({"type": "separation", "alpha": {"kind": "smoothstep", "v0": 1.0, "v1": 0.5,
                                                     "t0": 0.0, "t1": 1.0},
                    "beta": 0.6, "Cc": 1e300, "masses": [1.0, 2.0]},
                   "separation: q0 overflows at t=0.0"),
    "rotation": ({"type": "rotation", "m": 1.0, "omega1": 1e300, "omega2": 1.0, "phi": 0.3},
                 "rotation: omega1**2 or omega2**2 overflows"),
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


def test_analyze_finds_a_root_below_the_scan_grid(tmp_path, capsys):
    # With k0 = 1e300 the cubic's root is about 1.3e-100, below the first
    # point of the root scan's grid (1e-11).
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


# With k0 = 1e300 and Cc = 1e-300 the cubic's root is about 1.26e-200, but
# q**3 underflows inside the cubic, so the search below positive_roots' scan
# grid finds a sign change that is no root: the solver returns 1.3156e-108 at
# t = 0 and at t = 0.5.  Both cubes underflow to 0, so the Coulomb spring
# 2 Cc/q0**3 divides by zero.  classify's root scan runs on numpy times and
# overflows first, on q0.
VANISHING_CUBE_MESSAGES = {
    "analyze": "phase-gate: Coulomb spring 2 Cc/q0**3 overflows at t=0.0",
    "classify": "phase-gate: q0 overflows at t=0.0",
    "simulate": "phase-gate: Coulomb spring 2 Cc/q0**3 overflows at t=0.0",
}


def vanishing_cube_preset() -> dict:
    return {"type": "phase-gate", "k0": 1e300, "Cc": 1e-300, "masses": [1.0, 1.5],
            "F1": {"kind": "smoothstep", "v0": 0.0, "v1": 0.1, "t0": 0.0, "t1": 1.0},
            "F2": {"kind": "polynomial", "coeffs": [0.0, -0.1]}}


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
    # The rate's fallback for q0**4 == 0 divides by q0**3 too.
    sys_ = presets.build_preset(vanishing_cube_preset())
    with pytest.raises(PresetDomainError, match=r"Coulomb spring 2 Cc/q0\*\*3 overflows at t=0.5"):
        sys_.stiffness_rate(0.5)


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
# (four stages in each of the four runs, plus the map), 9.02 equilibrium
# calls (the two lab runs and the map), 8 equilibrium-velocity and theta_dot
# calls (the two mode runs), 17.02 table values and 8 table derivatives (the
# theta_dot calls).  Rotation sets no Larmor rate: the Larmor run takes
# omega_L from its stage's theta_dot, so it reads phidot once per stage.
ROTATION_CEILINGS = {
    "solve_positive_root": 0, "integrations": 4,
    "stiffness": 1089, "equilibrium": 577, "equilibrium_velocity": 512, "stiffness_rate": 0,
    "theta_dot_override": 512, "larmor_rate": 0, "table.value": 1089, "table.derivative": 512,
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
                     "theta_dot_override", "larmor_rate"):
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
    # triples for the analytic case; and the phase gate audits its closed
    # form once per sample time, not once per root solve.  The views read F1
    # and F2 once per time, and their rates once, so a sample reads 2 values
    # and 2 derivatives (once per view, the parent read 6 values).  classify's
    # numpy sample time and the same float time share one read.  The
    # command-line classify is not used, because it still fails on the phase
    # gate.
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
    solve, closed_form = presets.solve_positive_root, presets.phase_gate_equilibria_closed_form

    def counting_solve(f, fprime, q_max, guess=None):
        solves.append(guess)
        return solve(f, fprime, q_max, guess=guess)

    def counting_closed_form(*args):
        audits.append(args)
        return closed_form(*args)

    with mock.patch.object(presets, "solve_positive_root", counting_solve), \
            mock.patch.object(presets, "phase_gate_equilibria_closed_form", counting_closed_form):
        with counted_schedule_reads() as reads:
            assert main(["analyze", "--config", write_cfg(tmp_path, cfg)]) == 0
        assert len(solves) <= 3 * n
        assert len(audits) == n  # every sample time, once
        assert reads["value"] <= 2 * n and reads["derivative"] <= 2 * n
        del solves[:], audits[:]
        with counted_schedule_reads() as reads:
            sys_ = presets.build_preset(cfg["preset"])
            rep = modes.classify_separability(sys_, (0.0, 8.0), n_samples=n)
        assert len(solves) <= 3 * n + 1
        assert len(audits) == n
        assert reads["value"] <= 2 * n and reads["derivative"] <= 2 * n
    capsys.readouterr()
    assert rep.analytic_case is None and len(rep.theta_samples) == n
