"""Bracketed scalar root finding: Newton refinement with a bisection fallback.

Used by the presets for the equilibrium-distance quintic and cubic.  The
scan collects every sign change on a grid over (0, q_max]; the caller picks
a branch by passing the previous root as ``guess`` (continuity), otherwise
the largest positive root is returned.

Newton refinement stops once a step moves x by at most 4 ulp
(``|x_new - x| <= 4 * 2**-52 * |x|``), tested before the bracket check.  After
``MAX_NEWTON`` steps it bisects (geometrically while b > 2a > 0) until no float
lies strictly inside the bracket, so a root far below the midpoint converges.

Warm exit: a guess in (0, q_max] first takes that step alone, returning the
guess if f(guess) == 0 and the step if it converged, as the refine in a
local bracket would first; the result is bit-identical whenever such a
bracket holds a sign change.  Else the refine reuses f and f' at the guess.
Both take the step inline: the presets solve at every RK stage.
"""

from __future__ import annotations

import math

from .errors import PresetDomainError

__all__ = ["newton_refine", "positive_roots", "solve_positive_root"]

_STEP_TOL = 4.0 * 2.0**-52
MAX_NEWTON = 50  # Newton steps before newton_refine bisects to the end
N_SCAN = 512  # intervals of positive_roots' sign-change grid


def _split(a: float, b: float) -> float:  # geometric while b > 2a > 0, else the midpoint
    return math.sqrt(a) * math.sqrt(b) if b > 2.0 * a > 0.0 else 0.5 * (a + b)


def newton_refine(f, fprime, x: float, a: float, b: float, fa: float, fx=None, dx=None) -> float:
    """Newton from x, bisecting [a, b] where a step leaves it or f' vanishes, and
    bisecting to the end after ``MAX_NEWTON`` steps (see the module docstring).
    ``fa`` is f(a); ``fx`` and ``dx`` are f(x) and f'(x) if already evaluated."""
    for _ in range(MAX_NEWTON):
        if fx is None:
            fx = f(x)
        if fx == 0.0:
            return x
        if fa * fx < 0.0:
            b = x
        else:
            a, fa = x, fx
        d = fprime(x) if dx is None else dx
        x_new = x - fx / d if d != 0.0 else math.nan  # NaN where f' vanishes
        if abs(x_new - x) <= _STEP_TOL * abs(x):
            return x_new
        if not (a < x_new < b):
            x_new = _split(a, b)
        x, fx, dx = x_new, None, None
    while a < x < b:
        if (fx := f(x)) == 0.0:
            return x
        a, b = (x, b) if (fx < 0.0) == (fa < 0.0) else (a, x)
        x = _split(a, b)
    return x


def positive_roots(f, fprime, q_max: float) -> list:
    """All roots of f on (0, q_max], from sign changes on a grid whose first
    interval, (2**-1022, eps], reaches below the evenly spaced points."""
    eps = 1e-12 * max(1.0, q_max)
    roots = []
    xs = [2.0**-1022] + [eps + (q_max - eps) * i / N_SCAN for i in range(N_SCAN + 1)]
    fs = [f(x) for x in xs]
    for i in range(N_SCAN + 1):
        if fs[i] == 0.0:
            roots.append(xs[i])
        elif fs[i] * fs[i + 1] < 0.0:
            mid = 0.5 * (xs[i] + xs[i + 1])
            roots.append(newton_refine(f, fprime, mid, xs[i], xs[i + 1], fa=fs[i]))
    if fs[-1] == 0.0:
        roots.append(xs[-1])
    return roots


def solve_positive_root(f, fprime, q_max: float, guess: float | None = None) -> float:
    """The physical positive root: nearest to ``guess`` when given, else largest.

    A guess in (0, q_max] gets the warm exit, then a local bracket around it
    and the refine, before any full scan."""
    if guess is not None and 0.0 < guess <= q_max:
        fx = f(guess)
        if fx == 0.0:
            return guess
        d = fprime(guess)
        x_new = guess - fx / d if d != 0.0 else math.nan
        if abs(x_new - guess) <= _STEP_TOL * guess:
            return x_new
        for half_width in (0.05, 0.2):
            radius = half_width * max(guess, 1e-6)
            a = max(1e-12 * max(1.0, q_max), guess - radius)
            b = min(q_max, guess + radius)
            if a < b:
                fa = f(a)
                if fa * f(b) < 0.0:
                    return newton_refine(f, fprime, guess, a, b, fa=fa, fx=fx, dx=d)
    roots = positive_roots(f, fprime, q_max)
    if not roots:
        raise PresetDomainError("no positive root in the scanned bracket")
    if guess is not None:
        return min(roots, key=lambda r: abs(r - guess))
    return max(roots)
