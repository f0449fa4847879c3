"""Time-dependent scalar control parameters and their first derivatives.

Every time-varying coefficient in the package (spring constants, trap
positions, ramp amplitudes, rotation angles) is a ``ControlSchedule``.
Schedules are immutable after construction and safe to share across threads.
Units are caller-defined natural units.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

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
]


def fd_step(t: float) -> float:
    """Central-difference step balancing truncation against round-off."""
    return max(1e-6, 1e-6 * abs(t))


class ControlSchedule:
    """Scalar function of time with a first derivative."""

    def value(self, t: float) -> float:
        raise NotImplementedError

    def derivative(self, t: float) -> float:
        # O(h^2) central-difference fallback for kinds without an analytic form.
        h = fd_step(t)
        return (self.value(t + h) - self.value(t - h)) / (2.0 * h)


@dataclass(frozen=True)
class Constant(ControlSchedule):
    c: float

    def __post_init__(self):
        if not math.isfinite(self.c):
            raise ConfigError(f"constant schedule value must be finite, got {self.c}")

    def value(self, t: float) -> float:
        return self.c

    def derivative(self, t: float) -> float:
        return 0.0


@dataclass(frozen=True)
class LinearRamp(ControlSchedule):
    """Straight line through (t0, v0) and (t1, v1), unclamped outside [t0, t1]."""

    t0: float
    v0: float
    t1: float
    v1: float

    def __post_init__(self):
        if self.t1 == self.t0:
            raise ConfigError("linear-ramp requires t1 != t0")

    @property
    def slope(self) -> float:
        return (self.v1 - self.v0) / (self.t1 - self.t0)

    def value(self, t: float) -> float:
        return self.v0 + self.slope * (t - self.t0)

    def derivative(self, t: float) -> float:
        return self.slope


@dataclass(frozen=True)
class Polynomial(ControlSchedule):
    """sum_i coeffs[i] * t**i."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
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


@dataclass(frozen=True)
class Smoothstep(ControlSchedule):
    """Minimal-jerk quintic from v0 to v1 over [t0, t1], held constant outside."""

    v0: float
    v1: float
    t0: float
    t1: float

    def __post_init__(self):
        if self.t1 <= self.t0:
            raise ConfigError("smoothstep requires t1 > t0")

    def value(self, t: float) -> float:
        s = (t - self.t0) / (self.t1 - self.t0)
        s = min(1.0, max(0.0, s))
        return self.v0 + (self.v1 - self.v0) * s * s * s * (10.0 + s * (-15.0 + 6.0 * s))

    def derivative(self, t: float) -> float:
        s = (t - self.t0) / (self.t1 - self.t0)
        if s <= 0.0 or s >= 1.0:
            return 0.0
        ds = s * s * (30.0 + s * (-60.0 + 30.0 * s))
        return (self.v1 - self.v0) * ds / (self.t1 - self.t0)


def _table_segments(t: list, y: list, cubic: bool) -> list:
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


class SampledTable(ControlSchedule):
    """Tabulated schedule over strictly increasing timestamps.

    ``interpolation="cubic"`` fits a natural cubic spline so the derivative
    is analytic; ``"linear"`` interpolates linearly, with the slope of the
    segment to the right at an interior knot.  Both kinds store each
    segment's polynomial coefficients at construction, so an evaluation is
    one bisection over the knots and one Horner step.  Evaluation outside
    [times[0], times[-1]] raises :class:`ScheduleDomainError`.
    """

    def __init__(self, times, values, interpolation="cubic"):
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape or times.size < 2:
            raise ConfigError("sampled-table needs matching 1-D times and values, length >= 2")
        if not np.all(np.diff(times) > 0):
            raise ConfigError("sampled-table timestamps must be strictly increasing")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise ConfigError("sampled-table entries must be finite")
        if interpolation not in ("cubic", "linear"):
            raise ConfigError(f"unknown interpolation {interpolation!r}")
        self.times = times
        self.values = values
        self.interpolation = interpolation
        self._knots = times.tolist()
        self._segments = _table_segments(self._knots, values.tolist(), interpolation == "cubic")

    def _segment(self, t: float) -> tuple:
        """The segment holding t (the right one at an interior knot) and t's
        offset into it."""
        knots = self._knots
        if t < knots[0] or t > knots[-1]:
            raise ScheduleDomainError(f"t={t} outside table domain [{knots[0]}, {knots[-1]}]")
        i = min(bisect_right(knots, t), len(self._segments)) - 1
        return self._segments[i], t - knots[i]

    def value(self, t: float) -> float:
        (y, b, c, d), s = self._segment(t)
        return y + s * (b + s * (c + s * d))

    def derivative(self, t: float) -> float:
        (_, b, c, d), s = self._segment(t)
        return b + s * (2.0 * c + s * 3.0 * d)


def as_schedule(obj) -> ControlSchedule:
    """Coerce a schedule spec (number, dict, or schedule) to a ControlSchedule."""
    if isinstance(obj, ControlSchedule):
        return obj
    if isinstance(obj, (int, float)):
        return Constant(float(obj))
    if isinstance(obj, dict):
        return schedule_from_dict(obj)
    raise ConfigError(f"cannot interpret {obj!r} as a schedule")


_KIND_FIELDS = {
    "constant": {"value"},
    "linear-ramp": {"t0", "v0", "t1", "v1"},
    "polynomial": {"coeffs"},
    "smoothstep": {"v0", "v1", "t0", "t1"},
    "table": {"times", "values", "interpolation"},
}


def schedule_from_dict(obj: dict) -> ControlSchedule:
    """Build a schedule from its JSON object form, rejecting unknown fields."""
    if "kind" not in obj:
        raise ConfigError(f"schedule object missing 'kind': {obj!r}")
    kind = obj["kind"]
    if kind == "sampled-table":
        kind = "table"
    if kind not in _KIND_FIELDS:
        raise ConfigError(f"unknown schedule kind {kind!r}")
    extra = set(obj) - _KIND_FIELDS[kind] - {"kind"}
    if extra:
        raise ConfigError(f"unknown fields {sorted(extra)} for schedule kind {kind!r}")
    try:
        if kind == "constant":
            return Constant(float(obj["value"]))
        if kind == "linear-ramp":
            return LinearRamp(float(obj["t0"]), float(obj["v0"]),
                              float(obj["t1"]), float(obj["v1"]))
        if kind == "polynomial":
            return Polynomial(tuple(obj["coeffs"]))
        if kind == "smoothstep":
            return Smoothstep(float(obj["v0"]), float(obj["v1"]),
                              float(obj["t0"]), float(obj["t1"]))
        return SampledTable(obj["times"], obj["values"],
                            obj.get("interpolation", "cubic"))
    except KeyError as exc:
        raise ConfigError(f"schedule kind {kind!r} missing field {exc}") from exc
