"""Every record type of the package is made by ``schedules.value_class`` and
keeps the contract it had as a dataclass.

Each frozen type is built from fixed field values positionally, by keyword and
with its defaults left out; its ``repr`` is the dataclass form
``Name(f=v, ...)``, given here as fixed strings.  Setting or deleting an
attribute raises ``AttributeError``; equal values compare equal and hash
equal, and an instance of another class with the same values is unequal.
``StiffnessTriple`` keeps its written-out ``__init__`` and its finiteness
check.  ``QuadraticSystem`` is the one assignable type, and its default
``extras`` is read-only.  For every preset ``type`` and schedule ``kind``,
``config_from_dict`` names the unknown and the missing JSON fields as before.
"""

import inspect

import pytest

from dnmodes import dynamics, modes, presets, quadratic, schedules
from dnmodes.dynamics import EnergyAudit, FrameEquivalenceReport, IntegratorSpec, Trajectory
from dnmodes.errors import ConfigError, PresetDomainError
from dnmodes.modes import EllipseGeometry, ModeDecomposition, MomentumShift, SeparabilityReport
from dnmodes.presets import (
    PRESET_CONFIGS,
    CustomConfig,
    PhaseGateAudit,
    PhaseGateConfig,
    RotationConfig,
    SeparationConfig,
    SeparationRampCheck,
    SpringsConfig,
    TransportConfig,
)
from dnmodes.quadratic import MassPair, PhasePoint, QuadraticSystem, StiffnessTriple
from dnmodes.schedules import (
    SCHEDULE_KINDS,
    Constant,
    LinearRamp,
    Polynomial,
    SampledTable,
    Smoothstep,
    config_from_dict,
)

from oracles import replace

POINT = PhasePoint(0.5, (1, 2), (3, 4), "mode")
POINT_REPR = "PhasePoint(t=0.5, q=(1.0, 2.0), p=(3.0, 4.0), frame='mode')"

# (type, field values, repr, number of leading fields without a default, repr
# of the type built from those alone).  Result types hold tuples where they
# would hold arrays, so that every instance hashes.
CASES = [
    (Constant, (2,), "Constant(c=2.0)", 1, None),
    (LinearRamp, (0, 1, 2.0, 3), "LinearRamp(t0=0.0, v0=1.0, t1=2.0, v1=3.0)", 4, None),
    (Polynomial, ([1, 2.5],), "Polynomial(coeffs=(1.0, 2.5))", 1, None),
    (Smoothstep, (0.0, 1.0, 0.0, 2.0), "Smoothstep(v0=0.0, v1=1.0, t0=0.0, t1=2.0)", 4, None),
    (SampledTable, ((0, 1, 2), [2.0, 3.0, 5.0], "linear"),
     "SampledTable(times=(0.0, 1.0, 2.0), values=(2.0, 3.0, 5.0), interpolation='linear')", 2,
     "SampledTable(times=(0.0, 1.0, 2.0), values=(2.0, 3.0, 5.0), interpolation='cubic')"),
    (MassPair, (1, 2.0), "MassPair(m1=1.0, m2=2.0)", 2, None),
    (StiffnessTriple, (1.0, -2.0, 3.0), "StiffnessTriple(k=1.0, k1=-2.0, k2=3.0)", 3, None),
    (PhasePoint, (0.5, (1, 2), (3, 4), "mode"),
     "PhasePoint(t=0.5, q=(1.0, 2.0), p=(3.0, 4.0), frame='mode')", 3,
     "PhasePoint(t=0.5, q=(1.0, 2.0), p=(3.0, 4.0), frame='lab')"),
    (ModeDecomposition, (0.5, 0.1, -0.2, 1.0, 4.0),
     "ModeDecomposition(t=0.5, theta=0.1, theta_dot=-0.2, omega1_sq=1.0, omega2_sq=4.0)", 5, None),
    (SeparabilityReport, ((0.0, 1.0), 0.0, True, ((0.0, 0.0), (1.0, 0.0)), "both-stable", "k=0"),
     "SeparabilityReport(window=(0.0, 1.0), max_abs_theta_dot=0.0, separable=True, "
     "theta_samples=((0.0, 0.0), (1.0, 0.0)), stability='both-stable', analytic_case='k=0')", 5,
     "SeparabilityReport(window=(0.0, 1.0), max_abs_theta_dot=0.0, separable=True, "
     "theta_samples=((0.0, 0.0), (1.0, 0.0)), stability='both-stable', analytic_case=None)"),
    (EllipseGeometry, ((0.0, 1.0), 0.25, (1.0, None)),
     "EllipseGeometry(center=(0.0, 1.0), orientation=0.25, radii=(1.0, None))", 3, None),
    (MomentumShift, (POINT, (0.0, 1.0), (2.0, 3.0), None),
     "MomentumShift(point=PhasePoint(t=0.5, q=(1.0, 2.0), p=(3.0, 4.0), frame='mode'), "
     "P0=(0.0, 1.0), P0_dot=(2.0, 3.0), centers=None)", 4, None),
    (IntegratorSpec, (0.5, 0.0, 1.0, "velocity-verlet"),
     "IntegratorSpec(dt=0.5, t0=0.0, t1=1.0, method='velocity-verlet')", 3,
     "IntegratorSpec(dt=0.5, t0=0.0, t1=1.0, method='rk4')"),
    (Trajectory, ("lab", (0.0, 0.5), ((1.0, 2.0, 3.0, 4.0), (1.5, 2.5, 3.5, 4.5))),
     "Trajectory(frame='lab', times=(0.0, 0.5), "
     "rows=((1.0, 2.0, 3.0, 4.0), (1.5, 2.5, 3.5, 4.5)))", 3, None),
    (FrameEquivalenceReport, (1e-9, 2.0, POINT),
     f"FrameEquivalenceReport(max_deviation=1e-09, scale=2.0, start={POINT_REPR})", 3, None),
    (EnergyAudit, ((0.0, 0.5), (1.0, 1.25), 0.25),
     "EnergyAudit(times=(0.0, 0.5), energies=(1.0, 1.25), max_drift=0.25)", 3, None),
    (TransportConfig, (1, 0.5, 2.0, [1, 2]),
     "TransportConfig(k=Constant(c=1.0), Q0=Constant(c=0.5), Cc=2.0, "
     "masses=MassPair(m1=1.0, m2=2.0))", 2,
     "TransportConfig(k=Constant(c=1.0), Q0=Constant(c=0.5), Cc=1.0, "
     "masses=MassPair(m1=1.0, m2=1.0))"),
    (SeparationConfig, (-1.0, {"kind": "polynomial", "coeffs": [1, 0.5]}, 0.5, MassPair(2, 1)),
     "SeparationConfig(alpha=Constant(c=-1.0), beta=Polynomial(coeffs=(1.0, 0.5)), Cc=0.5, "
     "masses=MassPair(m1=2.0, m2=1.0))", 2,
     "SeparationConfig(alpha=Constant(c=-1.0), beta=Polynomial(coeffs=(1.0, 0.5)), Cc=1.0, "
     "masses=MassPair(m1=1.0, m2=1.0))"),
    (SeparationRampCheck, (True, 1e-12, (1.0, 1.0)),
     "SeparationRampCheck(holds=True, max_rel_deviation=1e-12, ratio_samples=(1.0, 1.0))", 3,
     None),
    (PhaseGateConfig, (3, 0.25, -0.25, 0.5, (1, 1), True),
     "PhaseGateConfig(k0=3.0, F1=Constant(c=0.25), F2=Constant(c=-0.25), Cc=0.5, "
     "masses=MassPair(m1=1.0, m2=1.0), zeroth_order=True)", 3,
     "PhaseGateConfig(k0=3.0, F1=Constant(c=0.25), F2=Constant(c=-0.25), Cc=1.0, "
     "masses=MassPair(m1=1.0, m2=1.0), zeroth_order=False)"),
    (PhaseGateAudit, (1.5, 1.5, 1.25, True, False),
     "PhaseGateAudit(q0_root=1.5, q0_from_individual=1.5, q0_published=1.25, "
     "individual_consistent=True, published_consistent=False)", 5, None),
    (RotationConfig, (2, 1, 3.0, Polynomial((0.0, 0.5))),
     "RotationConfig(m=2.0, omega1=1.0, omega2=3.0, phi=Polynomial(coeffs=(0.0, 0.5)))", 4,
     None),
    (SpringsConfig, (1, 2, 3, 1.5, [2, 3]),
     "SpringsConfig(k=Constant(c=1.0), k1=Constant(c=2.0), k2=Constant(c=3.0), d=1.5, "
     "masses=MassPair(m1=2.0, m2=3.0))", 4,
     "SpringsConfig(k=Constant(c=1.0), k1=Constant(c=2.0), k2=Constant(c=3.0), d=1.5, "
     "masses=MassPair(m1=1.0, m2=1.0))"),
    (CustomConfig, (1, 2, 3, MassPair(1, 4), 0.5, -0.5),
     "CustomConfig(k=Constant(c=1.0), k1=Constant(c=2.0), k2=Constant(c=3.0), "
     "masses=MassPair(m1=1.0, m2=4.0), q1_eq=Constant(c=0.5), q2_eq=Constant(c=-0.5))", 3,
     "CustomConfig(k=Constant(c=1.0), k1=Constant(c=2.0), k2=Constant(c=3.0), "
     "masses=MassPair(m1=1.0, m2=1.0), q1_eq=Constant(c=0.0), q2_eq=Constant(c=0.0))"),
]
ids = [case[0].__name__ for case in CASES]


def test_the_cases_cover_every_value_class():
    found = {obj for module in (dynamics, modes, presets, quadratic, schedules)
             for obj in vars(module).values()
             if inspect.isclass(obj) and "_field_table" in vars(obj)}
    assert found == {case[0] for case in CASES} | {QuadraticSystem}


@pytest.mark.parametrize("cls, values, text, n_required, default_text", CASES, ids=ids)
def test_construction_and_repr(cls, values, text, n_required, default_text):
    names = list(cls.__annotations__)
    obj = cls(*values)
    assert repr(obj) == text
    assert repr(cls(**dict(reversed(list(zip(names, values)))))) == text
    assert repr(cls(*values[:2], **dict(zip(names[2:], values[2:])))) == text
    if default_text is None:
        assert n_required == len(names)
    else:
        assert repr(cls(*values[:n_required])) == default_text
    with pytest.raises(TypeError):
        cls(*values[:n_required - 1])
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls(*values, not_a_field=1)
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})


@pytest.mark.parametrize("cls, values, text, n_required, default_text", CASES, ids=ids)
def test_fields_are_frozen(cls, values, text, n_required, default_text):
    obj = cls(*values)
    for name in [*cls.__annotations__, "not_a_field"]:
        with pytest.raises(AttributeError):
            setattr(obj, name, 0.0)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert repr(obj) == text


@pytest.mark.parametrize("cls, values, text, n_required, default_text", CASES, ids=ids)
def test_equality_and_hash_follow_the_values(cls, values, text, n_required, default_text):
    a, b = cls(*values), cls(*values)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    twin = type(cls.__name__, (cls,), {})(*values)
    assert repr(twin) == text
    assert a != twin and twin != a
    assert a != tuple(getattr(a, name) for name in cls.__annotations__)


def test_stiffness_triple_checks_the_entries_it_is_rebuilt_with():
    tr = StiffnessTriple(1.0, 2.0, 3.0)
    assert replace(tr, k1=-2.0) == StiffnessTriple(1.0, -2.0, 3.0)
    with pytest.raises(PresetDomainError, match="^stiffness k2 must be finite, got nan$"):
        replace(tr, k2=float("nan"))


VIEWS = dict(stiffness=lambda t: StiffnessTriple(1.0, 0.0, 0.0), equilibrium=lambda t: (0.0, t),
             equilibrium_velocity=lambda t: (0.0, 1.0), stiffness_rate=lambda t: (0.0, 0.0, 0.0))


def test_quadratic_system_is_an_assignable_value_class():
    # perfbench/tracer.py wraps each view of a built system with setattr.
    masses = MassPair(1, 2)
    system = QuadraticSystem(masses, *VIEWS.values())
    assert repr(system) == (
        "QuadraticSystem(masses=MassPair(m1=1.0, m2=2.0), "
        + "".join(f"{name}={view!r}, " for name, view in VIEWS.items())
        + "theta_dot_override=None, full_potential=None, label='custom', extras=mappingproxy({}))")
    assert system == QuadraticSystem(masses=masses, **VIEWS)
    assert system != QuadraticSystem(masses, *VIEWS.values(), label="springs")
    with pytest.raises(TypeError):
        QuadraticSystem(masses, *list(VIEWS.values())[:3])
    with pytest.raises(TypeError):
        system.extras["mode_force"] = None
    assert system.extras == {}
    system.stiffness = abs
    assert system.stiffness is abs
    assert system != QuadraticSystem(masses, *VIEWS.values())


UNKNOWN = "unknown fields ['bogus', 'zz'] for {what} {kind!r}"
MISSING = {
    "transport": "preset 'transport' missing fields ['k', 'Q0']",
    "separation": "preset 'separation' missing fields ['alpha', 'beta']",
    "phase-gate": "preset 'phase-gate' missing fields ['k0', 'F1', 'F2']",
    "rotation": "preset 'rotation' missing fields ['m', 'omega1', 'omega2', 'phi']",
    "springs": "preset 'springs' missing fields ['k', 'k1', 'k2', 'd']",
    "custom": "preset 'custom' missing fields ['k', 'k1', 'k2']",
    "constant": "schedule 'constant' missing fields ['value']",
    "linear-ramp": "schedule 'linear-ramp' missing fields ['t0', 'v0', 't1', 'v1']",
    "polynomial": "schedule 'polynomial' missing fields ['coeffs']",
    "smoothstep": "schedule 'smoothstep' missing fields ['v0', 'v1', 't0', 't1']",
    "table": "schedule 'table' missing fields ['times', 'values']",
    "sampled-table": "schedule 'sampled-table' missing fields ['times', 'values']",
}
TAGGED = [("type", PRESET_CONFIGS, "preset", kind) for kind in PRESET_CONFIGS] + [
    ("kind", SCHEDULE_KINDS, "schedule", kind) for kind in SCHEDULE_KINDS]


@pytest.mark.parametrize("tag, classes, what, kind", TAGGED, ids=[case[3] for case in TAGGED])
def test_config_from_dict_names_unknown_and_missing_fields(tag, classes, what, kind):
    with pytest.raises(ConfigError) as unknown:
        config_from_dict({tag: kind, "zz": 2, "bogus": 1}, tag, classes, what)
    assert str(unknown.value) == UNKNOWN.format(what=what, kind=kind)
    with pytest.raises(ConfigError) as missing:
        config_from_dict({tag: kind}, tag, classes, what)
    assert str(missing.value) == MISSING[kind]
