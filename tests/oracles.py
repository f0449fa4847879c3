"""Independent numerical oracles used by the tests.

Kept deliberately separate from the library paths they check: plain
bisection (no Newton), bisection over the floats with the polynomial
evaluated exactly in rationals, the quintic's bracket end with max() calls,
high-order finite differences for gradients and Hessians, a central
difference of the mode angle, a brute-force 2x2 eigendecomposition via the
characteristic polynomial, and fixed-step RK4 on numpy arrays.

Four more write library code a second way, and the library must give their
bits: velocity Verlet as a plain loop over the system's force; the ion pair's
views piece by piece, each schedule read where a piece needs it; the same
views in their per-view form, each call reading the controls afresh and
solving its root from the root before; and the mode frame as a chain: the
tan(2 theta) numerator and denominator, then theta, then cos, sin and the
rotated frequencies.

``replace`` rebuilds a ``value_class`` instance with some fields changed.
"""

import math
import struct
import sys
from fractions import Fraction

import numpy as np

from dnmodes.modes import EPS_DEGENERATE, theta_at
from dnmodes.rootfind import solve_positive_root
from dnmodes.schedules import fd_step


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


def quintic_bracket_max(alpha, beta, Cc):
    """The separation quintic's bracket end q_max, picked with max() calls."""
    estimate = 1.0
    if alpha > 0.0:
        estimate = max(estimate, (Cc / alpha) ** (1.0 / 3.0))
    if beta > 0.0:
        estimate = max(estimate, (2.0 * Cc / beta) ** (1.0 / 5.0))
    q_max = 10.0 * estimate
    if alpha < 0.0 and beta > 0.0:
        q_max = max(q_max, 10.0 * math.sqrt(2.0 * abs(alpha) / beta))
    return q_max


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


def _theta_num_den(K, masses):
    k, k1, k2 = K.k, K.k1, K.k2
    num = 2.0 * k * masses.sqrt12
    den = masses.m1 * (k + k2) - masses.m2 * (k + k1)
    scale = (masses.m1 + masses.m2) * (abs(k) + abs(k1) + abs(k2))
    return num, den, scale


def chain_theta(K, masses, branch_ref=None):
    """The mode angle from the numerator and denominator of tan(2 theta), on
    the branch nearest branch_ref, else on (-pi/4, pi/4]."""
    num, den, scale = _theta_num_den(K, masses)
    if math.hypot(num, den) <= EPS_DEGENERATE * scale:
        return 0.0 if branch_ref is None else branch_ref
    theta = 0.5 * math.atan2(num, den)
    half = 0.5 * math.pi
    if branch_ref is not None:
        return theta + half * round((branch_ref - theta) / half)
    if theta > 0.25 * math.pi:
        theta -= half
    elif theta < -0.25 * math.pi:
        theta += half
    return theta


def chain_rotated_frequencies(K, masses, theta):
    """(cos theta, sin theta, Omega1^2, Omega2^2) for the given theta."""
    k, k1, k2 = K.k, K.k1, K.k2
    a = (k + k1) / masses.m1
    b = (k + k2) / masses.m2
    cross = k / masses.sqrt12
    c = math.cos(theta)
    s = math.sin(theta)
    s2 = math.sin(2.0 * theta)
    return c, s, a * c * c + b * s * s - cross * s2, a * s * s + b * c * c + cross * s2


def chain_frame(K, masses, branch_ref=None):
    """(theta, cos theta, sin theta, Omega1^2, Omega2^2), the angle first."""
    theta = chain_theta(K, masses, branch_ref)
    return (theta, *chain_rotated_frequencies(K, masses, theta))


def ion_pair_views(cfg, t, q0):
    """(stiffness triple, stiffness rate, equilibrium, equilibrium velocity)
    of a transport, separation or (full) phase-gate config at t, from the
    per-piece formulas with each schedule read where a piece uses it.  The
    root-solving presets take their root q0 from the caller; transport's is
    its closed form."""
    Cc = cfg.Cc
    if hasattr(cfg, "Q0"):  # transport
        k = cfg.k.value(t)
        q0 = (2.0 * cfg.Cc / k) ** (1.0 / 3.0)
        q0dot = -q0 * cfg.k.derivative(t) / (3.0 * k)
        kappa, kappa_dot = cfg.k.value(t), cfg.k.derivative(t)
        c, cdot = cfg.Q0.value(t), cfg.Q0.derivative(t)
    elif hasattr(cfg, "alpha"):  # separation
        alpha, beta = cfg.alpha.value, cfg.beta.value
        alpha_dot, beta_dot = cfg.alpha.derivative, cfg.beta.derivative
        q0sq = q0 * q0
        denom = (5.0 * beta(t) * q0sq + 6.0 * alpha(t)) * q0sq
        q0dot = -((beta_dot(t) * q0sq + 2.0 * alpha_dot(t)) * q0sq * q0) / denom
        kappa = 2.0 * alpha(t) + 3.0 * beta(t) * q0sq
        kappa_dot = 2.0 * alpha_dot(t) + 3.0 * beta_dot(t) * q0sq + 6.0 * beta(t) * q0 * q0dot
        c = cdot = 0.0
    else:  # phase gate
        F1, F2, k0 = cfg.F1, cfg.F2, cfg.k0
        d = F1.value(t) - F2.value(t)
        denom = (3.0 * k0 * q0 + 2.0 * d) * q0
        q0dot = -(q0 * q0) * (F1.derivative(t) - F2.derivative(t)) / denom
        kappa, kappa_dot = k0, 0.0
        c = -0.5 * (F1.value(t) + F2.value(t)) / k0
        cdot = -0.5 * (F1.derivative(t) + F2.derivative(t)) / k0
    half, half_dot = 0.5 * q0, 0.5 * q0dot
    cube = q0 * q0 * q0
    # 2 Cc/q0^3, divided by q0 three times where the cube is subnormal
    k = 2.0 * Cc / cube if cube >= sys.float_info.min else 2.0 * Cc / q0 / q0 / q0
    return (
        (k, kappa, kappa),
        (-3.0 * k * q0dot / q0, kappa_dot, kappa_dot),
        (c + half, c - half),
        (cdot + half_dot, cdot - half_dot),
    )


ION_PAIR_VIEWS = ("stiffness", "stiffness_rate", "equilibrium", "equilibrium_velocity")


def per_view_ion_pair(cfg):
    """``view(name, t)`` of a transport, separation or (full) phase-gate config
    in the per-view form: every call reads the controls afresh at its own t,
    builds the root polynomial, its derivative and the bracket for that call,
    and solves from the root of the call before (None at first), then gives
    :func:`ion_pair_views` on that root.  ``view.roots`` lists the roots."""
    Cc = cfg.Cc
    roots = []

    def root(t):
        guess = roots[-1] if roots else None
        if hasattr(cfg, "alpha"):  # separation
            alpha, beta = cfg.alpha.value(t), cfg.beta.value(t)
            q_max = quintic_bracket_max(alpha, beta, Cc)
            roots.append(solve_positive_root(
                lambda q: (beta * (q * q) + 2.0 * alpha) * (q * q) * q - 2.0 * Cc,
                lambda q: (5.0 * beta * (q * q) + 6.0 * alpha) * (q * q), q_max, guess))
        else:  # phase gate
            k0, d = cfg.k0, cfg.F1.value(t) - cfg.F2.value(t)
            q_max = 10.0 * (1.0 + (2.0 * Cc / k0) ** (1.0 / 3.0) + abs(d) / k0)
            roots.append(solve_positive_root(
                lambda q: (k0 * q + d) * q * q - 2.0 * Cc,
                lambda q: (3.0 * k0 * q + 2.0 * d) * q, q_max, guess))
        return roots[-1]

    def view(name, t):
        q0 = None if hasattr(cfg, "Q0") else root(t)  # transport's root is closed form
        return ion_pair_views(cfg, t, q0)[ION_PAIR_VIEWS.index(name)]

    view.roots = roots
    return view
