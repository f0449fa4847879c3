"""Numerical oracles used by the tests, each of one of two kinds.

References, each used with a stated bound.  Exact ones evaluate a formula in
rationals from the float inputs: the mode frame, the ion pair's views at the
root a view solved for, and the last float below a polynomial's positive
root; their bounds are the library's rounding error (``gamma``).  The others
are independent approximations: bisection, high-order finite differences, a
central difference of the mode angle, a 2x2 eigensolve in floats.

Twins compose the library's own pieces another way, and the library must give
their bits: RK4 on numpy arrays and velocity Verlet as a plain loop, over the
system's own right-hand side, and the ion pair with a fresh build per view.

``replace`` rebuilds a ``value_class`` instance with some fields changed.
"""

import math
import struct
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import numpy as np

from dnmodes import presets
from dnmodes.modes import EPS_DEGENERATE, theta_at
from dnmodes.presets import SeparationConfig, TransportConfig
from dnmodes.schedules import fd_step

U = Fraction(1, 2**53)  # the unit roundoff of a float
TINY = math.ulp(0.0)  # a product or quotient that underflows is off by at most TINY / 2


def replace(obj, **changes):
    return type(obj)(**{name: getattr(obj, name) for name, _, _ in obj._field_table} | changes)


def bisect(f, a, b, iters=200):
    """Plain bisection; assumes a sign change on [a, b]."""
    fa = f(a)
    if fa == 0.0:
        return a
    if fa * f(b) > 0:
        raise ValueError("no sign change")
    for _ in range(iters):
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0:
            return m
        if fa * fm < 0:
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def last_float_below_root(coeffs):
    """The largest float x > 0 where the polynomial with these float
    coefficients (highest power first) is negative, evaluated exactly in
    rationals: its root lies in [x, the next float].  Assumes it is negative
    just above 0 and has one positive root.  Positive floats are ordered as
    their bit patterns, so bisecting those takes 63 steps at any scale."""
    def negative(bits):
        q, value = Fraction(struct.unpack("<d", struct.pack("<q", bits))[0]), Fraction(0)
        for c in coeffs:
            value = value * q + Fraction(c)
        return value < 0

    lo, hi = 0, 0x7FF0000000000000  # the bits of 0.0 and inf
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if negative(mid) else (lo, mid)
    return struct.unpack("<d", struct.pack("<q", lo))[0]


def grad4(f, x, h=1e-4):
    """4th-order central gradient of f: R^n -> R."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (
            f(x - 2 * e) - 8 * f(x - e) + 8 * f(x + e) - f(x + 2 * e)
        ) / (12 * h)
    return g


def _second4(f, x, e, h):
    return (
        -f(x + 2 * e) + 16 * f(x + e) - 30 * f(x) + 16 * f(x - e) - f(x - 2 * e)
    ) / (12 * h * h)


def _mixed2(f, x, ei, ej, h):
    return (
        f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
    ) / (4 * h * h)


def hessian4(f, x, h=1e-3):
    """High-order Hessian: 5-point diagonals, Richardson-extrapolated mixed."""
    x = np.asarray(x, dtype=float)
    n = x.size
    H = np.zeros((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        H[i, i] = _second4(f, x, e, h)
    for i in range(n):
        for j in range(i + 1, n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = h
            ej[j] = h
            coarse = _mixed2(f, x, ei, ej, h)
            fine = _mixed2(f, x, 0.5 * ei, 0.5 * ej, 0.5 * h)
            H[i, j] = H[j, i] = (4 * fine - coarse) / 3
    return H


def theta_dot_fd(sys, t):
    """Central difference of the unwrapped mode angle around theta(t);
    ignores the system's theta_dot_override and stiffness rates."""
    h = fd_step(t)
    th0 = theta_at(sys.stiffness(t), sys.masses)
    thm = theta_at(sys.stiffness(t - h), sys.masses, branch_ref=th0)
    thp = theta_at(sys.stiffness(t + h), sys.masses, branch_ref=th0)
    return (thp - thm) / (2.0 * h)


def eig2_characteristic(K):
    """Eigenvalues of a symmetric 2x2 via the characteristic polynomial."""
    K = np.asarray(K, dtype=float)
    tr = K[0, 0] + K[1, 1]
    det = K[0, 0] * K[1, 1] - K[0, 1] * K[1, 0]
    disc = math.sqrt(max(0.0, tr * tr - 4 * det))
    return (0.5 * (tr - disc), 0.5 * (tr + disc))


def rk4_states(rhs, t0, y0, dt, n_steps, on_step=None):
    """Fixed-step RK4 on numpy arrays: ``rhs(t, y)`` gets a stage time as a
    numpy scalar, the last stage of a step at the next grid time, and returns
    an array; ``on_step`` gets each new grid time.  Returns (times, states).
    The library's float kernel performs the same operations in the same
    order."""
    y = np.asarray(y0, dtype=float).copy()
    times = t0 + dt * np.arange(n_steps + 1)
    states = np.empty((n_steps + 1, y.size))
    states[0] = y
    half = 0.5 * dt
    for i in range(n_steps):
        t = times[i]
        k1 = rhs(t, y)
        k2 = rhs(t + half, y + half * k1)
        k3 = rhs(t + half, y + half * k2)
        k4 = rhs(times[i + 1], y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[i + 1] = y
        if on_step is not None:
            on_step(times[i + 1])
    return times, states


def verlet_states(sys, times, dt, y0):
    """Velocity Verlet on the float grid ``times`` as one plain loop over
    ``sys.force``: kick, drift with dt * h / m, the force at the new time,
    kick.  Returns the states, one row per grid time."""
    m1, m2 = sys.masses.m1, sys.masses.m2
    half = 0.5 * dt
    q1, q2, p1, p2 = y0
    f1, f2 = sys.force(times[0], q1, q2)
    rows = [(q1, q2, p1, p2)]
    for i in range(len(times) - 1):
        h1 = p1 + half * f1
        h2 = p2 + half * f2
        q1 = q1 + dt * h1 / m1
        q2 = q2 + dt * h2 / m2
        f1, f2 = sys.force(times[i + 1], q1, q2)
        p1 = h1 + half * f1
        p2 = h2 + half * f2
        rows.append((q1, q2, p1, p2))
    return np.array(rows)


def gamma(n: int) -> Fraction:
    """gamma_n = n u / (1 - n u).  A float sum of products with at most n roundings on
    each term's path, in any order and grouping, is within gamma_n of the sum of the
    terms' absolute values (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., lemma 3.1 and section 3.1)."""
    return n * U / (1 - n * U)


def check_frame(frame, K, masses, branch_ref=None) -> None:
    """Assert that ``frame`` = (theta, cos, sin, Omega1^2, Omega2^2) is the mode frame
    of the stiffness K within rounding, from k, k1, k2, m1, m2 taken exactly.

    theta: tan(2 theta) = 2k sqrt(m1 m2) / ((m1 - m2) k + m1 k2 - m2 k1), on the branch
    nearest branch_ref, else on (-pi/4, pi/4]; held where the library's degeneracy
    test holds, either verdict passing where rounding could flip it.  In floats
    (num, den) moves by e <= 2 gamma_3 S, S = (m1 + m2)(|k| + |k1| + |k2|), plus
    2 TINY, so 2 theta turns by asin(e / r), r = hypot(num, den); each atan2 adds an
    ulp of pi, the reference's inputs u, and the branch shift 4u (|theta| + pi).

    Omega^2: the roots lo <= hi of the mass-weighted stiffness's characteristic
    polynomial.  Each float Omega^2 is the Rayleigh quotient at theta within
    gamma_10 T + 4 TINY, T = |a| + |b| + |k|(1/m1 + 1/m2) with a = (k + k1)/m1 and
    b = (k + k2)/m2: both lie in [lo, hi] and add up to a + b, and Omega1^2 is lo for
    an even branch shift of the angle of (den, num) halved, hi for an odd one, within
    (hi - lo) sin^2 of theta's bound.  cos and sin are within 4u of theta's."""
    theta, cos, sin, o1, o2 = frame
    k, k1, k2, m1, m2 = map(Fraction, (K.k, K.k1, K.k2, masses.m1, masses.m2))
    num2, den = 4 * k * k * m1 * m2, (m1 - m2) * k + m1 * k2 - m2 * k1
    scale = (m1 + m2) * (abs(k) + abs(k1) + abs(k2))
    e, r, u = float(2 * gamma(3) * scale) + 2 * TINY, math.sqrt(float(num2 + den * den)), float(U)
    held = 0.0 if branch_ref is None else branch_ref
    threshold = EPS_DEGENERATE * float(scale)
    slack = e + 4 * u * r + float(gamma(4)) * threshold  # the library's r and threshold
    assert r + slack >= threshold or theta == held, (theta, held, r, threshold)
    bound = None
    if r - slack > threshold or theta != held:
        phi = math.atan2(math.copysign(math.sqrt(float(num2)), K.k), float(den))
        turn = math.asin(min(1.0, e / (r * (1 - 4 * u)))) + 2 * math.ulp(math.pi) + u
        bound = 0.5 * turn + 4 * u * (abs(theta) + math.pi)
        n = round((theta - 0.5 * phi) / (0.5 * math.pi))
        off = Fraction(theta) - Fraction(phi) / 2 - n * Fraction(math.pi) / 2
        assert abs(off) <= bound, (theta, float(off), bound)
        assert abs(theta - held) <= 0.25 * math.pi + 4 * u * (abs(held) + math.pi)  # the branch
    assert abs(cos - math.cos(theta)) <= 4 * u and abs(sin - math.sin(theta)) <= 4 * u
    a, b = (k + k1) / m1, (k + k2) / m2
    gap = Fraction(math.sqrt(float((a - b) ** 2 + 4 * k * k / (m1 * m2))))  # hi - lo, within u
    lo, hi = (a + b - gap) / 2, (a + b + gap) / 2
    size = abs(a) + abs(b) + abs(k) * (1 / m1 + 1 / m2)
    err = (gamma(10) + U) * size + 4 * Fraction(TINY)
    o1, o2 = Fraction(o1), Fraction(o2)
    assert abs(o1 + o2 - a - b) <= 2 * gamma(10) * size + 8 * Fraction(TINY), (o1, o2, a + b)
    assert lo - err <= min(o1, o2) and max(o1, o2) <= hi + err, (o1, o2, lo, hi)
    if bound is not None:
        first, second = (lo, hi) if n % 2 == 0 else (hi, lo)
        spread = err + gap * Fraction(min(1.0, bound * bound))
        assert abs(o1 - first) <= spread and abs(o2 - second) <= spread, (o1, o2, first, second)


ION_PAIR_VIEWS = ("stiffness", "stiffness_rate", "equilibrium", "equilibrium_velocity")


def ion_pair_reference(cfg, t, q0) -> dict:
    """``{view: [(value, bound), ...]}`` of the ion pair's four views of a transport,
    separation or (full) phase-gate config at t: the per-piece formulas, exact at the
    float distance q0 and the schedules' float values at t.

    f(q) = 3k q - 3 (2 Cc k^2)^(1/3), beta q^5 + 2 alpha q^3 - 2 Cc or k0 q^3 +
    (F1 - F2) q^2 - 2 Cc, and q0dot = -(df/dt) / f'(q0); the spring is 2 Cc/q0^3, its
    rate -3 spring q0dot/q0; the curvature k, 2 alpha + 3 beta q0^2 or k0; the centre
    Q0, 0 or -(F1 + F2)/(2 k0).  A bound is gamma_n times the formula over its terms'
    absolute values, n the roundings on its longest path: 3 for the spring and the
    equilibrium, 4 for kappa, 5 for its rate, 6 for df/dt and f'.  q0dot's quotient
    carries both of those, and its error goes on into the views that use it."""
    q, g6 = Fraction(q0), gamma(6)

    def read(schedule) -> tuple:
        return Fraction(schedule.value(t)), Fraction(schedule.derivative(t))

    if isinstance(cfg, TransportConfig):
        (k, dk), (c, dc) = read(cfg.k), read(cfg.Q0)
        slope, drift = (3 * k, 3 * abs(k)), (dk * q, abs(dk) * q)
        kappa, kappa_rate, coupling = (k, abs(k)), (dk, abs(dk)), 0
        centre, centre_rate = (c, abs(c)), (dc, abs(dc))
    elif isinstance(cfg, SeparationConfig):
        (a, da), (b, db) = read(cfg.alpha), read(cfg.beta)
        slope = (5 * b * q**4 + 6 * a * q**2, 5 * abs(b) * q**4 + 6 * abs(a) * q**2)
        drift = (db * q**5 + 2 * da * q**3, abs(db) * q**5 + 2 * abs(da) * q**3)
        kappa = (2 * a + 3 * b * q**2, 2 * abs(a) + 3 * abs(b) * q**2)
        kappa_rate = (2 * da + 3 * db * q**2, 2 * abs(da) + 3 * abs(db) * q**2)
        coupling, centre, centre_rate = 6 * b * q, (0, 0), (0, 0)
    else:  # phase gate
        (F1, dF1), (F2, dF2), k0 = read(cfg.F1), read(cfg.F2), Fraction(cfg.k0)
        slope = (3 * k0 * q**2 + 2 * (F1 - F2) * q, 3 * k0 * q**2 + 2 * (abs(F1) + abs(F2)) * q)
        drift = (q**2 * (dF1 - dF2), q**2 * (abs(dF1) + abs(dF2)))
        kappa, kappa_rate, coupling = (k0, k0), (0, 0), 0
        centre = (-(F1 + F2) / (2 * k0), (abs(F1) + abs(F2)) / (2 * k0))
        centre_rate = (-(dF1 + dF2) / (2 * k0), (abs(dF1) + abs(dF2)) / (2 * k0))
    assert abs(slope[0]) > g6 * slope[1], "f'(q0) vanishes within rounding: no bound"
    rate = -drift[0] / slope[0]
    rate_err = g6 * (drift[1] + abs(rate) * slope[1]) / (abs(slope[0]) - g6 * slope[1]) \
        + U * abs(rate)
    spring = 2 * Fraction(cfg.Cc) / q**3
    kappa_dot = kappa_rate[0] + coupling * rate
    kappa_bound, kappa_dot_bound = gamma(4) * kappa[1], gamma(5) * (
        kappa_rate[1] + abs(coupling * rate)) + abs(coupling) * (1 + gamma(5)) * rate_err
    at_rest = gamma(3) * (centre[1] + q / 2)
    moving = gamma(3) * (centre_rate[1] + abs(rate) / 2) + (1 + gamma(3)) * rate_err / 2
    # A spring below the normal range is off by TINY/2 more (its one ldexp rounding),
    # and -3 spring q0dot/q0 by that times 3 |q0dot|/q0, plus TINY/2 for each of its
    # three steps that underflows, times what the later steps multiply it by.
    half_tiny = Fraction(TINY) / 2
    rate_tiny = half_tiny * ((4 * (abs(rate) + rate_err) * (1 + gamma(3)) + 1) / q + 1)
    return {
        "stiffness": [(spring, gamma(3) * spring + half_tiny), (kappa[0], kappa_bound),
                      (kappa[0], kappa_bound)],
        "stiffness_rate": [
            (-3 * spring * rate / q,
             3 * spring / q * (g6 * abs(rate) + (1 + g6) * rate_err) + rate_tiny),
            (kappa_dot, kappa_dot_bound), (kappa_dot, kappa_dot_bound)],
        "equilibrium": [(centre[0] + q / 2, at_rest), (centre[0] - q / 2, at_rest)],
        "equilibrium_velocity": [(centre_rate[0] + rate / 2, moving),
                                 (centre_rate[0] - rate / 2, moving)],
    }


def check_ion_pair_view(cfg, view, t, q0, got) -> None:
    """Assert that the values ``got`` of an ion-pair view at t, on the distance q0 it
    solved for, are within the bounds of :func:`ion_pair_reference`."""
    for value, (exact, bound) in zip(got, ion_pair_reference(cfg, t, q0)[view], strict=True):
        assert abs(Fraction(value) - exact) <= bound, (view, t, value, float(exact), float(bound))


@contextmanager
def ion_pair_equations(hook):
    """Ion pairs built inside the block build each time's distance equation as
    ``hook(t, u, equation)`` -> (solve, rate), ``equation`` the builder's own, for as
    long as they live."""
    ion_pair = presets._ion_pair

    def hooked(*args, equation, **kwargs):
        return ion_pair(*args, equation=lambda t, u: hook(t, u, equation), **kwargs)

    with mock.patch.object(presets, "_ion_pair", hooked):
        yield


def ion_pair_solves(hook):
    """Ion pairs built inside the block solve each distance through ``hook(solve,
    guess)`` -> root, ``solve`` the builder's own, for as long as they live."""
    def hooked(t, u, equation):
        solve, rate = equation(t, u)
        return (lambda guess: hook(solve, guess)), rate

    return ion_pair_equations(hooked)


def recorded_build(cfg) -> tuple:
    """(system, roots): the system built from cfg, and the list to which each of its
    distance solves appends the root it returns."""
    roots = []
    with ion_pair_solves(lambda solve, guess: roots.append(solve(guess)) or roots[-1]):
        return presets.build_preset(cfg), roots


def per_view_ion_pair(cfg):
    """``view(name, t)`` of a transport, separation or (full) phase-gate config in the
    per-view form: every call builds the system afresh, so it reads the controls and
    builds its distance equation for that call alone, and solves from the root of the
    call before (None at first).  ``view.roots`` lists the roots."""
    roots = []

    def warm(solve, _):
        roots.append(solve(roots[-1] if roots else None))
        return roots[-1]

    def view(name, t):
        with ion_pair_solves(warm):
            sys = presets.build_preset(cfg)
        return getattr(sys, name)(t)

    view.roots = roots
    return view
