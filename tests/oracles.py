"""Independent numerical oracles used by the tests.

Kept deliberately separate from the library paths they check: plain
bisection (no Newton), high-order finite differences for gradients and
Hessians, a central difference of the mode angle, a brute-force 2x2
eigendecomposition via the characteristic polynomial, and fixed-step RK4
on numpy arrays.
"""

import math

import numpy as np

from dnmodes.modes import theta_at
from dnmodes.schedules import fd_step


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
    """Fixed-step RK4 on numpy arrays: ``rhs(t, y)`` gets a grid time as a
    numpy scalar and returns an array; ``on_step`` gets each new grid time.
    Returns (times, states).  The library's float kernel performs the same
    operations in the same order."""
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
        k4 = rhs(t + dt, y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[i + 1] = y
        if on_step is not None:
            on_step(times[i + 1])
    return times, states
