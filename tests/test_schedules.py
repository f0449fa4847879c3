import os
import subprocess
import sys
import types

import numpy as np
import pytest

import dnmodes
from dnmodes.errors import ConfigError, ScheduleDomainError
from dnmodes.schedules import (
    Constant,
    LinearRamp,
    Polynomial,
    SampledTable,
    Smoothstep,
    as_schedule,
    schedule_from_dict,
)


def test_constant():
    s = Constant(5.0)
    assert s.value(3.2) == 5.0
    assert s.derivative(123.0) == 0.0


def test_linear_ramp():
    s = LinearRamp(t0=0.0, v0=1.0, t1=2.0, v1=3.0)
    assert s.value(1.0) == 2.0
    assert s.derivative(0.7) == 1.0


def test_smoothstep_midpoint_and_rate():
    s = Smoothstep(v0=0.0, v1=1.0, t0=0.0, t1=1.0)
    # quintic 10 s^3 - 15 s^4 + 6 s^5 at s = 1/2
    assert s.value(0.5) == pytest.approx(0.5, abs=1e-15)
    # 30 s^2 - 60 s^3 + 30 s^4 at s = 1/2
    assert s.derivative(0.5) == pytest.approx(1.875, abs=1e-15)


def test_smoothstep_flat_endpoints():
    s = Smoothstep(v0=-2.0, v1=7.0, t0=1.0, t1=4.0)
    assert s.derivative(1.0) == 0.0
    assert s.derivative(4.0) == 0.0
    assert s.value(0.0) == -2.0
    assert s.value(9.0) == 7.0


def test_polynomial():
    s = Polynomial((1.0, -2.0, 3.0))
    assert s.value(2.0) == 1.0 - 4.0 + 12.0
    assert s.derivative(2.0) == -2.0 + 12.0


@pytest.mark.parametrize("h", [1e-3, 1e-4])
def test_analytic_derivative_matches_central_difference(h):
    rng = np.random.default_rng(7)
    for _ in range(20):
        scheds = [
            LinearRamp(0.0, rng.uniform(-2, 2), 1.0 + rng.uniform(0.1, 2), rng.uniform(-2, 2)),
            Polynomial(tuple(rng.uniform(-1, 1, size=4))),
            Smoothstep(rng.uniform(-1, 1), rng.uniform(-1, 1), 0.0, rng.uniform(0.5, 3)),
        ]
        t = rng.uniform(0.1, 0.4)
        for s in scheds:
            fd = (s.value(t + h) - s.value(t - h)) / (2 * h)
            assert abs(s.derivative(t) - fd) <= 50.0 * h * h


def test_table_cubic_derivative_consistency():
    ts = np.linspace(0.0, 2.0, 21)
    vs = np.sin(ts)
    s = SampledTable(ts, vs, interpolation="cubic")
    h = 1e-5
    for t in [0.3, 0.9, 1.5]:
        fd = (s.value(t + h) - s.value(t - h)) / (2 * h)
        assert s.derivative(t) == pytest.approx(fd, abs=1e-8)


def test_table_linear_and_domain_error():
    s = SampledTable([0.0, 1.0, 3.0], [0.0, 2.0, 2.0], interpolation="linear")
    assert s.value(0.5) == 1.0
    assert s.derivative(0.5) == 2.0
    assert s.derivative(2.0) == 0.0
    with pytest.raises(ScheduleDomainError):
        s.value(-0.1)
    with pytest.raises(ScheduleDomainError):
        s.derivative(3.1)


def random_tables(rng, count=50):
    """Seeded tables with uneven spacing, always including the 2-knot case."""
    for i in range(count):
        n = 2 if i < 5 else int(rng.integers(3, 40))
        times = rng.uniform(-3.0, 3.0) + np.cumsum(rng.uniform(0.01, 2.0, size=n))
        yield times, rng.uniform(-5.0, 5.0, size=n)


def query_points(rng, times):
    """Every knot (both ends included) and random interior points."""
    return np.concatenate([times, rng.uniform(times[0], times[-1], size=40)])


def test_table_cubic_matches_scipy_natural_spline():
    from scipy.interpolate import CubicSpline

    rng = np.random.default_rng(11)
    for times, values in random_tables(rng):
        s = SampledTable(times, values, interpolation="cubic")
        ref = CubicSpline(times, values, bc_type="natural")
        ref_d = ref.derivative()
        scale = max(1.0, float(np.abs(values).max()))
        slope_scale = scale / float(np.diff(times).min())
        for t in query_points(rng, times):
            assert abs(s.value(t) - float(ref(t))) <= 1e-12 * scale
            assert abs(s.derivative(t) - float(ref_d(t))) <= 1e-12 * slope_scale


def test_table_linear_matches_interp_and_one_sided_slope():
    rng = np.random.default_rng(12)
    for times, values in random_tables(rng):
        s = SampledTable(times, values, interpolation="linear")
        scale = max(1.0, float(np.abs(values).max()))
        for t in query_points(rng, times):
            assert abs(s.value(t) - float(np.interp(t, times, values))) <= 1e-12 * scale
            # Slope of the segment to the right of t; the last knot uses the
            # last segment.
            i = min(int(np.searchsorted(times, t, side="right")), len(times) - 1) - 1
            slope = (values[i + 1] - values[i]) / (times[i + 1] - times[i])
            assert abs(s.derivative(t) - slope) <= 1e-12 * abs(slope) + 1e-15


@pytest.mark.parametrize("interpolation", ["cubic", "linear"])
def test_table_rejects_times_outside_its_knots(interpolation):
    s = SampledTable([0.5, 1.0, 2.5], [1.0, -1.0, 0.0], interpolation=interpolation)
    for t in (0.5 - 1e-12, 2.5 + 1e-12, -10.0, 10.0):
        with pytest.raises(ScheduleDomainError):
            s.value(t)
        with pytest.raises(ScheduleDomainError):
            s.derivative(t)


def test_table_schedule_does_not_import_scipy():
    # Tables evaluate their own polynomials; scipy is only a test oracle.
    code = (
        "import sys\n"
        "from dnmodes.presets import build_preset\n"
        "phi = {'kind': 'table', 'times': [0, 1, 2, 3], 'values': [0, 0.2, 0.1, 0.5]}\n"
        "sys_ = build_preset({'type': 'rotation', 'm': 1.0, 'omega1': 2.0, 'omega2': 1.0,"
        " 'phi': phi})\n"
        "sys_.stiffness(1.5)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.dirname(os.path.dirname(dnmodes.__file__))
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# A tuple field takes an ndarray only when numpy is loaded, as it is here;
# tests/test_imports.py builds list-valued schedules without loading it.
@pytest.mark.parametrize("container", [list, tuple, np.array], ids=["list", "tuple", "ndarray"])
def test_tuple_fields_store_floats_from_a_list_a_tuple_or_an_ndarray(container):
    poly = Polynomial(container([1, 0.5, -2.0]))
    table = SampledTable(container([0, 0.5, 1.0]), container([0.0, 0.1, 0.3]))
    assert (poly.coeffs, table.times, table.values) == (
        (1.0, 0.5, -2.0), (0.0, 0.5, 1.0), (0.0, 0.1, 0.3))
    assert {type(v) for v in (*poly.coeffs, *table.times, *table.values)} == {float}


def test_tuple_fields_read_a_numpy_that_another_thread_is_importing(monkeypatch):
    # A sweep point's classify imports numpy in one thread while another builds its
    # config: sys.modules then holds a numpy that has no ndarray yet.
    monkeypatch.setitem(sys.modules, "numpy", types.ModuleType("numpy"))
    assert Polynomial([1, 0.5]).coeffs == (1.0, 0.5)


@pytest.mark.parametrize("value", ["0, 1", {"0": 1.0}], ids=["string", "dict"])
def test_tuple_fields_reject_a_string_or_a_dict(value):
    with pytest.raises(ConfigError) as exc:
        Polynomial(value)
    assert str(exc.value) == f"coeffs must be a list of finite numbers, got {value!r}"
    with pytest.raises(ConfigError) as exc:
        SampledTable(value, [0.0, 1.0])
    assert str(exc.value) == f"times must be a list of finite numbers, got {value!r}"
    with pytest.raises(ConfigError) as exc:
        SampledTable([0.0, 1.0], value)
    assert str(exc.value) == f"values must be a list of finite numbers, got {value!r}"


def test_table_requires_increasing_times():
    with pytest.raises(ConfigError):
        SampledTable([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])


def test_from_dict_round_trip_and_rejection():
    s = schedule_from_dict({"kind": "smoothstep", "v0": 0.0, "v1": 1.0, "t0": 0.0, "t1": 2.0})
    assert isinstance(s, Smoothstep)
    assert as_schedule(4) == Constant(4.0)
    with pytest.raises(ConfigError):
        schedule_from_dict({"kind": "smoothstep", "v0": 0, "v1": 1, "t0": 0, "t1": 2, "oops": 1})
    with pytest.raises(ConfigError):
        schedule_from_dict({"kind": "nope"})
