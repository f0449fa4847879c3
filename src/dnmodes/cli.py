"""Command-line front end.

    dnm <analyze|classify|simulate|sweep> --config cfg.json [--out base]
        [--larmor] [--dt x] [--samples n]

Configs are JSON with a top-level ``"schema": 1``; unknown fields are
rejected (fail-closed).  Exit codes: 0 success, 2 config error, bad flag or
unwritable output, 3 preset domain error or arithmetic overflow, 4
divergence (partial output kept with a ``.partial`` suffix).  ``analyze`` samples
floats; ``classify`` raises an overflow on its array grid itself, also on the
min(8, CPU count) threads of a sweep.  Output is byte-identical across repeated
runs of the same config.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import math
import os
import sys as _sys
from concurrent.futures import ThreadPoolExecutor

from .dynamics import (
    MAX_SAMPLES,
    IntegratorSpec,
    _csv_rows,
    _fmt,
    frame_equivalence_check,
    integrate_lab,
    integrate_modes,
    write_trajectory_csv,
)
from .errors import ConfigError, DivergenceError, DnmError, PresetDomainError, ScheduleDomainError
from .modes import _sample_times, classify_separability, decompose_at, ellipse_at
from .presets import PRESET_CONFIGS, build_preset
from .quadratic import PhasePoint
from .schedules import SCHEDULE_KINDS, is_finite_number, json_fields

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PRESET = 3
EXIT_DIVERGENCE = 4

_TOP_KEYS = {
    "schema", "preset", "window", "samples", "integrator", "initial_state", "output",
    "tolerances", "sweep",
}
_REQUIRED_KEYS = {"schema", "preset", "window"}


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    validate_config(cfg)
    return cfg


def _require_keys(obj: dict, allowed: set, required: set, where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown fields {sorted(unknown)} in {where}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"missing fields {sorted(missing)} in {where}")


def _is_pair(x) -> bool:
    return isinstance(x, (list, tuple)) and len(x) == 2 and all(map(is_finite_number, x))


def validate_config(cfg: dict) -> None:
    _require_keys(cfg, _TOP_KEYS, _REQUIRED_KEYS, "config")
    if cfg["schema"] != 1:
        raise ConfigError(f"unsupported schema {cfg['schema']!r}; expected 1")
    window = cfg["window"]
    if not _is_pair(window) or not window[0] < window[1]:
        raise ConfigError("window must be [t0, t1] with t0 < t1")
    t0, t1 = cfg["window"] = [float(window[0]), float(window[1])]  # no big ints on classify's grid
    if not math.isfinite(t1 - t0):
        raise ConfigError(f"window span t1 - t0 overflows, got [{t0}, {t1}]")
    samples = cfg.get("samples", 2)
    if type(samples) is not int or not 2 <= samples <= MAX_SAMPLES:
        raise ConfigError(f"samples must be an integer in [2, {MAX_SAMPLES}], got {samples!r}")
    if "integrator" in cfg:
        _require_keys(cfg["integrator"], {"method", "dt"}, {"dt"}, "integrator")
        if not is_finite_number(cfg["integrator"]["dt"]):
            raise ConfigError("integrator dt must be a finite number")
    if "output" in cfg:
        _require_keys(cfg["output"], {"path"}, set(), "output")
        if not isinstance(cfg["output"].get("path", ""), str):
            raise ConfigError("output path must be a string")
    if "tolerances" in cfg:
        _require_keys(cfg["tolerances"], {"tol_sep"}, set(), "tolerances")
        if not is_finite_number(cfg["tolerances"].get("tol_sep", 0.0)):
            raise ConfigError("tolerances tol_sep must be a finite number")
    if "initial_state" in cfg:
        state = cfg["initial_state"]
        if state != "equilibrium":
            _require_keys(state, {"q", "p"}, {"q", "p"}, "initial_state")
            if not (_is_pair(state["q"]) and _is_pair(state["p"])):
                raise ConfigError("initial_state q and p must each be two numbers")
    if "sweep" in cfg:
        _require_keys(cfg["sweep"], {"axes"}, {"axes"}, "sweep")
        axes = cfg["sweep"]["axes"]
        if not isinstance(axes, list) or not 1 <= len(axes) <= 2:
            raise ConfigError("sweep.axes must list one or two axes")
        for ax in axes:
            _require_keys(ax, {"path", "values"}, {"path", "values"}, "sweep axis")
            if not isinstance(ax["path"], str):
                raise ConfigError("sweep axis path must be a dotted string")
            if not isinstance(ax["values"], list) or not ax["values"]:
                raise ConfigError("sweep axis values must be a nonempty list")


def cmd_analyze(cfg: dict, out_base: str) -> int:
    sys_ = build_preset(cfg["preset"])
    rows = []
    branch = None
    for t in _sample_times(*cfg["window"], cfg.get("samples", 200)):
        dec = decompose_at(sys_, t, branch_ref=branch)
        branch = dec.theta
        ell = ellipse_at(dec, sys_, t)
        radii = [float("nan") if r is None else r for r in ell.radii]
        rows.append(
            (t, dec.theta, dec.theta_dot, dec.omega1_sq, dec.omega2_sq, *radii, *ell.center)
        )
    path = out_base + "_analyze.csv"
    header = "t,theta,theta_dot,omega1_sq,omega2_sq,ellipse_r1,ellipse_r2,q1_eq,q2_eq\n"
    with open(path, "w", newline="") as fh:
        fh.write(header + _csv_rows(rows, 9))
    print(path)
    return EXIT_OK


def _classify(cfg: dict):
    """The separability report of a checked config; a sweep point is one too."""
    sys_ = build_preset(cfg["preset"])
    tol_sep = cfg.get("tolerances", {}).get("tol_sep", 1e-9)
    return classify_separability(
        sys_, tuple(cfg["window"]), n_samples=cfg.get("samples", 200), tol_sep=tol_sep
    )


def cmd_classify(cfg: dict) -> int:
    rep = _classify(cfg)
    keys = ("separable", "max_abs_theta_dot", "stability", "analytic_case")
    print(json.dumps({key: getattr(rep, key) for key in keys}, sort_keys=True))
    return EXIT_OK


def _initial_point(cfg: dict, sys_, t0: float) -> PhasePoint:
    state = cfg.get("initial_state", "equilibrium")
    if state == "equilibrium":
        return PhasePoint(t=t0, q=sys_.equilibrium(t0), p=(0.0, 0.0), frame="lab")
    return PhasePoint(t=t0, q=tuple(state["q"]), p=tuple(state["p"]), frame="lab")


def cmd_simulate(cfg: dict, out_base: str, larmor: bool) -> int:
    sys_ = build_preset(cfg["preset"])
    t0, t1 = cfg["window"]
    step = cfg.get("integrator", {}).get("dt", 1e-3)
    method = cfg.get("integrator", {}).get("method", "rk4")
    spec = IntegratorSpec(dt=step, t0=t0, t1=t1, method=method)
    x0 = _initial_point(cfg, sys_, t0)
    mode_spec = IntegratorSpec(dt=step, t0=t0, t1=t1)
    try:
        lab = integrate_lab(sys_, x0, spec)
        # The check's three trajectories go before the last run and the CSV writes.
        report = frame_equivalence_check(sys_, x0, mode_spec)
        X0, deviation, scale = report.mapped.point(0), report.max_deviation, report.scale
        del report
        mode = integrate_modes(sys_, X0, mode_spec, apply_larmor=larmor)
    except DivergenceError as exc:
        write_trajectory_csv(exc.partial, f"{out_base}_{exc.partial.frame}.csv.partial")
        raise
    write_trajectory_csv(lab, out_base + "_lab.csv")
    write_trajectory_csv(mode, out_base + "_mode.csv")
    sidecar = {
        "frame_equivalence_max_deviation": deviation,
        "trajectory_scale": scale,
        "dt": step,
        "larmor": larmor,
    }
    with open(out_base + "_report.json", "w", newline="") as fh:
        fh.write(json.dumps(sidecar, sort_keys=True) + "\n")
    print(out_base + "_report.json")
    return EXIT_OK


def _declared_fields(node: dict) -> dict:
    """The JSON fields of the preset that a config node's ``type`` names, or
    of the schedule its ``kind`` names; none for any other node."""
    for tag, classes in (("type", PRESET_CONFIGS), ("kind", SCHEDULE_KINDS)):
        name = node.get(tag)
        if isinstance(name, str) and name in classes:
            return json_fields(classes[name])
    return {}


def _set_path(cfg: dict, dotted: str, value) -> None:
    """Set the config value at a dotted sweep path: an existing key or list
    index, or a declared field that the preset or schedule left at its default."""
    node = cfg
    parts = dotted.split(".")
    try:
        for key in parts[:-1]:
            node = node[int(key)] if key.lstrip("-").isdigit() else node[key]
        last = parts[-1]
        if last.lstrip("-").isdigit() and isinstance(node, list):
            node[int(last)] = value
        elif isinstance(node, dict) and (last in node or last in _declared_fields(node)):
            node[last] = value
        else:
            raise KeyError(last)
    except (KeyError, IndexError, TypeError):
        raise ConfigError(f"sweep path {dotted!r} not found in config") from None


def _sweep_cell(value) -> str:
    """A sweep value as written: a number as in every output, a string as it
    is, anything else (a schedule object, a list) as compact JSON."""
    if is_finite_number(value):
        return _fmt(value)
    if isinstance(value, str):
        return value
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def cmd_sweep(cfg: dict, out_base: str) -> int:
    if "sweep" not in cfg:
        raise ConfigError("sweep command needs a 'sweep' section in the config")
    axes = cfg["sweep"]["axes"]
    grid = [(i,) for i in range(len(axes[0]["values"]))]
    if len(axes) == 2:
        grid = [(i, j) for (i,) in grid for j in range(len(axes[1]["values"]))]

    def run_point(idx):
        point_cfg = copy.deepcopy(cfg)
        for ax, i in zip(axes, idx):
            _set_path(point_cfg, ax["path"], ax["values"][i])
        validate_config(point_cfg)
        rep = _classify(point_cfg)
        return (
            [ax["values"][i] for ax, i in zip(axes, idx)],
            rep.theta_samples[0][1],
            rep.max_abs_theta_dot,
            rep.separable,
            rep.stability,
        )

    with ThreadPoolExecutor(max_workers=min(8, os.cpu_count() or 1)) as pool:
        results = list(pool.map(run_point, grid))  # in grid order

    path = out_base + "_sweep.csv"
    axis_names = ",".join(ax["path"].replace(",", "_") for ax in axes)
    with open(path, "w", newline="") as fh:
        fh.write(f"{axis_names},theta_t0,max_abs_theta_dot,separable,stability\n")
        writer = csv.writer(fh, lineterminator="\n")  # quotes a cell holding a comma
        for values, theta, rate, sep, stab in results:
            separable = "true" if sep else "false"
            writer.writerow([*map(_sweep_cell, values), _fmt(theta), _fmt(rate), separable, stab])
    print(path)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Bad flags and commands are config errors; subparsers inherit this."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dnm", description="Dynamical normal-mode analysis and simulation")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("analyze", "classify", "simulate", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--samples", type=int, default=None)
        if name == "simulate":
            p.add_argument("--dt", type=float, default=None)
            p.add_argument("--larmor", action="store_true")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = load_config(args.config)
        # Flags override the file and get the same checks as its values.
        if args.samples is not None:
            cfg["samples"] = args.samples
        if getattr(args, "dt", None) is not None:
            cfg["integrator"] = {**cfg.get("integrator", {}), "dt": args.dt}
        validate_config(cfg)
        out_base = args.out or cfg.get("output", {}).get("path", "dnm_out")
        if args.command == "analyze":
            return cmd_analyze(cfg, out_base)
        if args.command == "classify":
            return cmd_classify(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg, out_base, args.larmor)
        return cmd_sweep(cfg, out_base)
    except (ConfigError, OSError) as exc:  # OSError: an output that cannot be written
        print(f"config error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG
    except (PresetDomainError, ScheduleDomainError, ArithmeticError) as exc:
        # ArithmeticError: parameters so large that a closed form or classify's grid overflows.
        print(f"preset domain error: {exc}", file=_sys.stderr)
        return EXIT_PRESET
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=_sys.stderr)
        return EXIT_DIVERGENCE
    except DnmError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
