"""Time-dependent scalar control parameters and their first derivatives.

Every time-varying coefficient in the package (spring constants, trap
positions, ramp amplitudes, rotation angles) is a ``ControlSchedule``.
Schedules are immutable after construction and safe to share across threads.
Units are caller-defined natural units.  ``value_class`` makes every record
type of the package; ``config_from_dict`` builds the configs from JSON.
"""

from __future__ import annotations

import functools
import numbers
import sys
import typing
from bisect import bisect_right

from .errors import ConfigError, ScheduleDomainError

__all__ = [
    "ControlSchedule",
    "Constant",
    "LinearRamp",
    "Polynomial",
    "Smoothstep",
    "SampledTable",
    "as_schedule",
    "schedule_from_dict",
    "fd_step",
    "is_finite_number",
    "value_class",
    "check_fields",
    "json_fields",
    "config_from_dict",
    "SCHEDULE_KINDS",
]

_FLOAT_MAX = sys.float_info.max


def fd_step(t: float) -> float:
    """Central-difference step balancing truncation against round-off."""
    return max(1e-6, 1e-6 * abs(t))


class ControlSchedule:
    """Scalar function of time with a first derivative."""

    def value(self, t: float) -> float:
        raise NotImplementedError

    def derivative(self, t: float) -> float:
        raise NotImplementedError


def is_finite_number(x) -> bool:
    """True for a finite real number; bools, strings and ints beyond the
    float range are not numbers here."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and abs(x) <= _FLOAT_MAX


_REQUIRED = object()  # the default of a field that has none


def _values(self) -> tuple:
    return tuple(getattr(self, name) for name, _, _ in self._field_table)


def _init(self, *args, **kwargs):
    cls = type(self)
    for i, (name, _, default) in enumerate(cls._field_table):
        value = args[i] if i < len(args) else kwargs.pop(name, default)
        if value is _REQUIRED:
            raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        object.__setattr__(self, name, value)  # self.__dict__ would lose the inline values
    if kwargs or len(args) > len(cls._field_table):
        raise TypeError(f"{cls.__name__}() got {len(args)} positional arguments and {kwargs}")
    if hasattr(cls, "__post_init__"):
        self.__post_init__()


def _frozen(self, name, *value):
    raise AttributeError(f"cannot assign to or delete field {name!r} of {type(self).__name__}")


_VALUE_METHODS = {
    "__init__": _init, "__setattr__": _frozen, "__delattr__": _frozen,
    "__eq__": lambda self, other: (_values(self) == _values(other)
                                   if other.__class__ is self.__class__ else NotImplemented),
    "__hash__": lambda self: hash(_values(self)),
    "__repr__": lambda self: type(self).__qualname__ + "(" + ", ".join(
        f"{name}={getattr(self, name)!r}" for name, _, _ in self._field_table) + ")",
}


def value_class(cls):
    """``cls`` as a frozen value type of its annotated fields, like a frozen
    dataclass but far cheaper to create; an ``__init__`` or ``__setattr__`` of
    its own stays (``QuadraticSystem`` keeps ``object.__setattr__``).
    ``cls._field_table`` holds (name, JSON key, default) per field: the default
    is the class-level value, if any, and a class's ``_json_keys`` dict renames
    a JSON key."""
    keys = cls.__dict__.get("_json_keys", {})
    cls._field_table = tuple((name, keys.get(name, name), cls.__dict__.get(name, _REQUIRED))
                             for name in cls.__dict__.get("__annotations__", {}))
    for name, method in _VALUE_METHODS.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    return cls


@value_class
class Constant(ControlSchedule):
    c: float
    _json_keys = {"c": "value"}

    def __post_init__(self):
        check_fields(self)

    def value(self, t: float) -> float:
        return self.c

    def derivative(self, t: float) -> float:
        return 0.0


@value_class
class LinearRamp(ControlSchedule):
    """Straight line through (t0, v0) and (t1, v1), unclamped outside [t0, t1]."""

    t0: float
    v0: float
    t1: float
    v1: float

    def __post_init__(self):
        check_fields(self)
        if self.t1 == self.t0:
            raise ConfigError("linear-ramp requires t1 != t0")
        object.__setattr__(self, "slope", (self.v1 - self.v0) / (self.t1 - self.t0))

    def value(self, t: float) -> float:
        return self.v0 + self.slope * (t - self.t0)

    def derivative(self, t: float) -> float:
        return self.slope


@value_class
class Polynomial(ControlSchedule):
    """sum_i coeffs[i] * t**i."""

    coeffs: tuple

    def __post_init__(self):
        check_fields(self)
        if not self.coeffs:
            raise ConfigError("polynomial schedule needs at least one coefficient")

    def value(self, t: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def derivative(self, t: float) -> float:
        acc = 0.0
        for i in range(len(self.coeffs) - 1, 0, -1):
            acc = acc * t + i * self.coeffs[i]
        return acc


@value_class
class Smoothstep(ControlSchedule):
    """Minimal-jerk quintic from v0 to v1 over [t0, t1], held constant outside."""

    v0: float
    v1: float
    t0: float
    t1: float

    def __post_init__(self):
        check_fields(self)
        if self.t1 <= self.t0:
            raise ConfigError("smoothstep requires t1 > t0")
        object.__setattr__(self, "span", self.t1 - self.t0)
        object.__setattr__(self, "rise", self.v1 - self.v0)

    def value(self, t: float) -> float:
        s = (t - self.t0) / self.span
        if not 0.0 < s < 1.0:  # as min(1.0, max(0.0, s)), NaN and -0.0 included
            s = 1.0 if s >= 1.0 else 0.0
        return self.v0 + self.rise * s * s * s * (10.0 + s * (-15.0 + 6.0 * s))

    def derivative(self, t: float) -> float:
        s = (t - self.t0) / self.span
        if s <= 0.0 or s >= 1.0:
            return 0.0
        ds = s * s * (30.0 + s * (-60.0 + 30.0 * s))
        return self.rise * ds / self.span


def _table_segments(t: tuple, y: tuple, cubic: bool) -> list:
    """Per-segment coefficients (y, b, c, d) of the interpolant through
    (t, y): on [t[i], t[i+1]] it is y[i] + b s + c s^2 + d s^3 with
    s = t - t[i].  For the natural cubic spline the knot second derivatives
    m (m[0] = m[n] = 0) solve the tridiagonal continuity system in one
    Thomas sweep; m = 0 everywhere gives the linear interpolant."""
    n = len(t) - 1
    h = [t[i + 1] - t[i] for i in range(n)]
    slope = [(y[i + 1] - y[i]) / h[i] for i in range(n)]
    m = [0.0] * (n + 1)
    if cubic:
        diag = [0.0] * (n + 1)
        rhs = [0.0] * (n + 1)
        for i in range(1, n):
            diag[i] = 2.0 * (h[i - 1] + h[i])
            rhs[i] = 6.0 * (slope[i] - slope[i - 1])
            if i > 1:
                w = h[i - 1] / diag[i - 1]
                diag[i] -= w * h[i - 1]
                rhs[i] -= w * rhs[i - 1]
        for i in range(n - 1, 0, -1):
            m[i] = (rhs[i] - h[i] * m[i + 1]) / diag[i]
    return [
        (y[i], slope[i] - h[i] * (2.0 * m[i] + m[i + 1]) / 6.0, 0.5 * m[i],
         (m[i + 1] - m[i]) / (6.0 * h[i]))
        for i in range(n)
    ]


@value_class
class SampledTable(ControlSchedule):
    """Tabulated schedule over strictly increasing timestamps.

    ``interpolation="cubic"`` fits a natural cubic spline so the derivative
    is analytic; ``"linear"`` interpolates linearly, with the slope of the
    segment to the right at an interior knot.  Both kinds store each
    segment's polynomial coefficients at construction, so an evaluation is
    one inline bisection over the knots and one Horner step.  Evaluation outside
    [times[0], times[-1]] raises :class:`ScheduleDomainError`.
    """

    times: tuple
    values: tuple
    interpolation: str = "cubic"

    def __post_init__(self):
        check_fields(self)
        if len(self.times) != len(self.values) or len(self.times) < 2:
            raise ConfigError("sampled-table needs matching times and values, length >= 2")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ConfigError("sampled-table timestamps must be strictly increasing")
        if self.interpolation not in ("cubic", "linear"):
            raise ConfigError(f"unknown interpolation {self.interpolation!r}")
        segments = _table_segments(self.times, self.values, self.interpolation == "cubic")
        object.__setattr__(self, "_segments", segments)
        object.__setattr__(self, "_n_segments", len(segments))

    def value(self, t: float) -> float:
        knots = self.times
        if t < knots[0] or t > knots[-1]:
            raise ScheduleDomainError(f"t={t} outside table domain [{knots[0]}, {knots[-1]}]")
        i = bisect_right(knots, t, 1, self._n_segments) - 1
        y, b, c, d = self._segments[i]
        s = t - knots[i]
        return y + s * (b + s * (c + s * d))

    def derivative(self, t: float) -> float:
        knots = self.times
        if t < knots[0] or t > knots[-1]:
            raise ScheduleDomainError(f"t={t} outside table domain [{knots[0]}, {knots[-1]}]")
        i = bisect_right(knots, t, 1, self._n_segments) - 1
        _, b, c, d = self._segments[i]
        s = t - knots[i]
        return b + s * (2.0 * c + s * 3.0 * d)


def as_schedule(obj) -> ControlSchedule:
    """Coerce a schedule spec (number, dict, or schedule) to a ControlSchedule."""
    if isinstance(obj, ControlSchedule):
        return obj
    if is_finite_number(obj):
        return Constant(obj)
    if isinstance(obj, dict):
        return schedule_from_dict(obj)
    raise ConfigError(f"cannot interpret {obj!r} as a schedule")


_EXPECTED = {float: "a finite number", tuple: "a list of finite numbers", bool: "true or false",
             str: "a string"}
_field_types = functools.cache(typing.get_type_hints)


def _checked(tp: type, value, name: str):
    """``value`` as taken by a field declared with type ``tp``."""
    if tp is ControlSchedule:
        return as_schedule(value)
    if tp is float:
        if is_finite_number(value):
            return float(value)
    elif tp is tuple:
        # An ndarray exists only once numpy is loaded, so this test never loads it; while
        # another thread (a sweep point's classify) imports numpy it has no ndarray yet.
        array = getattr(sys.modules.get("numpy"), "ndarray", list)
        if isinstance(value, (list, tuple, array)) and all(map(is_finite_number, value)):
            return tuple(map(float, value))
    elif isinstance(value, tp):
        return value
    elif hasattr(tp, "_field_table") and isinstance(value, (list, tuple)) \
            and len(value) == len(tp._field_table):
        return tp(*value)
    expected = _EXPECTED.get(tp) or f"a list of {len(tp._field_table)} numbers"
    raise ConfigError(f"{name} must be {expected}, got {value!r}")


def check_fields(obj, positive: tuple = ()) -> None:
    """Check every field of the frozen config ``obj`` against its declared
    type and store the checked value: ``float`` takes a finite real number
    (not a bool or a string), ``tuple`` a list of them, ``bool`` and ``str``
    their own type, ``ControlSchedule`` whatever :func:`as_schedule` takes,
    and a :func:`value_class` (MassPair) its instance or a list of its fields.
    The fields named in ``positive`` must then be > 0."""
    for name, tp in _field_types(type(obj)).items():
        object.__setattr__(obj, name, _checked(tp, getattr(obj, name), name))
    for name in positive:
        if not getattr(obj, name) > 0:
            raise ConfigError(f"{name} must be positive, got {getattr(obj, name)}")


def json_fields(cls) -> dict:
    """JSON key -> (field name, default) of the value class ``cls``; the
    default of a field that has none is ``_REQUIRED``."""
    return {key: (name, default) for name, key, default in cls._field_table}


def config_from_dict(obj, tag: str, classes: dict, what: str):
    """Build ``classes[obj[tag]]`` from a tagged JSON object whose other keys
    are the JSON keys of the value class's fields (see :func:`json_fields`);
    unknown and missing fields are rejected."""
    if not isinstance(obj, dict) or not isinstance(obj.get(tag), str):
        raise ConfigError(f"{what} must be an object with a string {tag!r}, got {obj!r}")
    kind = obj[tag]
    if kind not in classes:
        raise ConfigError(f"unknown {what} {tag} {kind!r}")
    declared = json_fields(classes[kind])
    extra = set(obj) - set(declared) - {tag}
    if extra:
        raise ConfigError(f"unknown fields {sorted(extra)} for {what} {kind!r}")
    missing = [key for key, (_, default) in declared.items()
               if key not in obj and default is _REQUIRED]
    if missing:
        raise ConfigError(f"{what} {kind!r} missing fields {missing}")
    return classes[kind](**{name: obj[key] for key, (name, _) in declared.items() if key in obj})


SCHEDULE_KINDS = {
    "constant": Constant,
    "linear-ramp": LinearRamp,
    "polynomial": Polynomial,
    "smoothstep": Smoothstep,
    "table": SampledTable,
    "sampled-table": SampledTable,
}


def schedule_from_dict(obj: dict) -> ControlSchedule:
    """Build a schedule from its JSON object form, rejecting unknown fields."""
    return config_from_dict(obj, "kind", SCHEDULE_KINDS, "schedule")
