"""In-memory tracer for the dnmodes benchmark.

Coarse boundaries (a CLI command, ``build_preset``, an integration, a sweep
point) record *spans*: name, start, end, parent span and thread.  Hot
boundaries (system callables, root solves, schedule evaluations,
``theta_dot_at``) keep only aggregate call counts and times, because they
run hundreds of times per integration step.  Both kinds share one
per-thread stack, so a frame's self time is its duration minus the time of
the frames it called on the same thread.

Everything stays in memory until :meth:`Tracer.export` is called.  The
tracer is thread-safe: each thread keeps its own stack and aggregates,
which are merged on export.
"""

from __future__ import annotations

import functools
import os
import threading
import time

__all__ = ["Tracer", "instrument", "probe_pool"]


class _ThreadState:
    __slots__ = ("stack", "agg", "keys")

    def __init__(self):
        # Each stack entry is a list whose first item is the time spent in
        # callees; span entries add [id, parent, name, start].
        self.stack = []
        self.agg = {}  # name -> [calls, total_s, self_s]
        self.keys = set()  # distinct solver inputs seen on this thread


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.origin = clock()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._states = []
        self._next_id = 0
        self.spans = []
        self.counters = {}
        self.notes = {}

    # -- per-thread state ---------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def _close(self, st: _ThreadState, name: str, frame: list, start: float) -> float:
        dur = self.clock() - start
        st.stack.pop()
        if st.stack:
            st.stack[-1][0] += dur
        a = st.agg.get(name)
        if a is None:
            a = st.agg[name] = [0, 0.0, 0.0]
        a[0] += 1
        a[1] += dur
        a[2] += dur - frame[0]
        return dur

    # -- hot boundaries: counts and self time only --------------------------

    def hot(self, name: str, fn):
        """Wrap ``fn`` so each call adds to ``name``'s count and times."""
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self._state()
            frame = [0.0]
            st.stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(st, name, frame, start)

        return wrapper

    def add_key(self, key) -> None:
        """Record one solver input; distinct keys are counted on export."""
        self._state().keys.add(key)

    # -- coarse boundaries: spans -------------------------------------------

    def current_span(self):
        """Id of the innermost open span on this thread, or None."""
        for frame in reversed(self._state().stack):
            if len(frame) > 1:
                return frame[1]
        return None

    def span(self, name: str, fn, after=None, parent=...):
        """Wrap ``fn`` in a span.  ``after(result, *args, **kwargs)`` runs once
        the span has closed; ``parent`` overrides the enclosing span, which
        is how work handed to another thread keeps its caller as parent."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self._state()
            with self._lock:
                self._next_id += 1
                sid = self._next_id
            par = self.current_span() if parent is ... else parent
            start = self.clock()
            frame = [0.0, sid, par, name, start]
            st.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = self._close(st, name, frame, start)
                record = {
                    "id": sid,
                    "parent": par,
                    "name": name,
                    "thread": threading.current_thread().name,
                    "start_s": start - self.origin,
                    "end_s": start + dur - self.origin,
                    "self_s": dur - frame[0],
                }
                with self._lock:
                    self.spans.append(record)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    # -- plain counters and recorded values ---------------------------------

    def add(self, name: str, n=1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def note(self, name: str, value) -> None:
        with self._lock:
            self.notes.setdefault(name, []).append(value)

    # -- export -------------------------------------------------------------

    def aggregates(self) -> dict:
        """name -> {"calls", "total_s", "self_s"} merged over all threads."""
        merged = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, (calls, total, self_s) in st.agg.items():
                m = merged.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                m["calls"] += calls
                m["total_s"] += total
                m["self_s"] += self_s
        return merged

    def distinct_keys(self) -> int:
        with self._lock:
            states = list(self._states)
        keys = set()
        for st in states:
            keys |= st.keys
        return len(keys)

    def export(self) -> dict:
        return {
            "spans": sorted(self.spans, key=lambda s: s["id"]),
            "aggregates": self.aggregates(),
            "counters": dict(self.counters),
            "notes": {k: list(v) for k, v in self.notes.items()},
        }


# ---------------------------------------------------------------------------
# Wrapping dnmodes.  Modules import by name, so each name is replaced in the
# namespace where it is looked up at call time.
# ---------------------------------------------------------------------------

_SYSTEM_CALLABLES = (
    "stiffness",
    "equilibrium",
    "equilibrium_velocity",
    "stiffness_rate",
    "theta_dot_override",
    "larmor_rate",
)


def _solver_key(f, q_max):
    """What a root solve depends on apart from its guess: the polynomial's
    code and captured coefficients, and the bracket."""
    cells = tuple(c.cell_contents for c in (f.__closure__ or ()))
    return (f.__code__, cells, q_max)


class _Patcher:
    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def probe_pool(cli, sink: list):
    """Record the resolved size of every thread pool ``cli`` creates.
    Returns an undo callable."""
    base = cli.ThreadPoolExecutor

    class _ProbedPool(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sink.append(self._max_workers)

    patch = _Patcher()
    patch.set(cli, "ThreadPoolExecutor", _ProbedPool)
    return patch.restore


def instrument(tracer: Tracer, dnmodes_modules: dict):
    """Install tracing wrappers into the dnmodes modules; returns an undo
    callable.  ``dnmodes_modules`` maps short names (cli, dynamics, modes,
    presets, quadratic, rootfind, schedules) to the imported modules."""
    cli = dnmodes_modules["cli"]
    dyn = dnmodes_modules["dynamics"]
    modes = dnmodes_modules["modes"]
    presets = dnmodes_modules["presets"]
    quadratic = dnmodes_modules["quadratic"]
    rootfind = dnmodes_modules["rootfind"]
    schedules = dnmodes_modules["schedules"]
    patch = _Patcher()

    # cli -------------------------------------------------------------------
    patch.set(cli, "load_config", tracer.span("cli.load_config", cli.load_config))
    base_pool = cli.ThreadPoolExecutor

    class _TracedPool(base_pool):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tracer.note("cli.sweep_workers", self._max_workers)

        def submit(self, fn, /, *args, **kwargs):
            point = tracer.span("cli.sweep_point", fn, parent=tracer.current_span())
            return super().submit(point, *args, **kwargs)

    patch.set(cli, "ThreadPoolExecutor", _TracedPool)

    # presets: the builder, and the callables of every system it returns ---
    def wrap_system(system, *args, **kwargs):
        for attr in _SYSTEM_CALLABLES:
            fn = getattr(system, attr)
            if fn is not None:
                setattr(system, attr, tracer.hot("presets." + attr, fn))

    patch.set(
        cli, "build_preset",
        tracer.span("presets.build_preset", cli.build_preset, after=wrap_system),
    )

    # rootfind --------------------------------------------------------------
    solve = presets.solve_positive_root

    @functools.wraps(solve)
    def keyed_solve(f, fprime, q_max, guess=None):
        tracer.add_key(_solver_key(f, q_max))
        return solve(f, fprime, q_max, guess=guess)

    patch.set(
        presets, "solve_positive_root",
        tracer.hot("rootfind.solve_positive_root", keyed_solve),
    )
    patch.set(
        rootfind, "positive_roots",
        tracer.hot("rootfind.positive_roots", rootfind.positive_roots),
    )

    # schedules: value/derivative on every schedule class -------------------
    for obj in list(vars(schedules).values()):
        if isinstance(obj, type) and issubclass(obj, schedules.ControlSchedule):
            for meth in ("value", "derivative"):
                if meth in obj.__dict__:
                    patch.set(obj, meth, tracer.hot("schedules." + meth, obj.__dict__[meth]))

    # quadratic: finite-difference fallbacks --------------------------------
    qs = quadratic.QuadraticSystem
    for meth, field in (
        ("stiffness_rate_at", "stiffness_rate"),
        ("equilibrium_velocity_at", "equilibrium_velocity"),
    ):
        orig = qs.__dict__[meth]

        def counted(self, t, _orig=orig, _field=field):
            if getattr(self, _field) is None:
                tracer.add("quadratic.fd_fallbacks")
            return _orig(self, t)

        patch.set(qs, meth, functools.wraps(orig)(counted))

    # modes -----------------------------------------------------------------
    theta_dot = tracer.hot("modes.theta_dot_at", modes.theta_dot_at)
    patch.set(modes, "theta_dot_at", theta_dot)
    patch.set(dyn, "theta_dot_at", theta_dot)
    decompose = tracer.hot("modes.decompose_at", modes.decompose_at)
    patch.set(cli, "decompose_at", decompose)
    patch.set(dyn, "decompose_at", decompose)
    patch.set(
        cli, "classify_separability",
        tracer.span("modes.classify_separability", cli.classify_separability),
    )

    # dynamics --------------------------------------------------------------
    def steps_of(kind):
        def after(result, sys_, x0, spec, *args, **kwargs):
            tracer.add(f"dynamics.{kind}_integrations")
            tracer.add(f"dynamics.{kind}_steps", spec.n_steps)
            if spec.method == "rk4":
                tracer.add("dynamics.rk4_steps", spec.n_steps)

        return after

    for kind, attr in (("lab", "integrate_lab"), ("mode", "integrate_modes")):
        wrapped = tracer.span(f"dynamics.{attr}", getattr(dyn, attr), after=steps_of(kind))
        patch.set(cli, attr, wrapped)
        patch.set(dyn, attr, wrapped)

    def mapped_points(result, sys_, traj):
        tracer.add("dynamics.map_points", len(traj))

    patch.set(
        dyn, "map_to_mode_frame",
        tracer.span("dynamics.map_to_mode_frame", dyn.map_to_mode_frame, after=mapped_points),
    )

    def frame_dev(report, *args, **kwargs):
        tracer.note("dynamics.frame_dev", report.max_deviation)

    patch.set(
        cli, "frame_equivalence_check",
        tracer.span(
            "dynamics.frame_equivalence_check", cli.frame_equivalence_check, after=frame_dev
        ),
    )

    def csv_bytes(result, traj, path):
        tracer.add("dynamics.csv_bytes", os.path.getsize(path))

    patch.set(
        cli, "write_trajectory_csv",
        tracer.span("dynamics.write_trajectory_csv", cli.write_trajectory_csv, after=csv_bytes),
    )
    return patch.restore
