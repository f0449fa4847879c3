"""Bracketed scalar root finding: Newton refinement with a bisection fallback.

Used by the presets for the equilibrium-distance quintic and cubic.  The
scan collects every sign change on a grid over (0, q_max]; the caller picks
a branch by passing the previous root as ``guess`` (continuity), otherwise
the largest positive root is returned.

Newton refinement stops once a step moves x by at most 4 ulp
(``|x_new - x| <= 4 * 2**-52 * |x|``).  That test comes before the bracket
check, so a converged step that lands on a bracket end is accepted rather
than replaced by the bracket midpoint.
"""

from __future__ import annotations

import math

from .errors import PresetDomainError

__all__ = ["newton_refine", "positive_roots", "solve_positive_root"]

_STEP_TOL = 4.0 * 2.0**-52


def newton_refine(
    f, fprime, x: float, a: float, b: float, maxiter: int = 50, fa: float | None = None
) -> float:
    """Newton iterations from x, falling back to bisection on [a, b] when a
    step leaves the bracket or the derivative vanishes.

    Returns once a Newton step is at most 4 ulp of x, tested before the
    bracket check.  ``fa`` is f(a) when the caller has already evaluated it.
    """
    if fa is None:
        fa = f(a)
    for _ in range(maxiter):
        fx = f(x)
        if fx == 0.0:
            return x
        if fa * fx < 0.0:
            b = x
        else:
            a, fa = x, fx
        d = fprime(x)
        x_new = x - fx / d if d != 0.0 else math.nan
        if abs(x_new - x) <= _STEP_TOL * abs(x):
            return x_new
        if not (a < x_new < b):
            x_new = 0.5 * (a + b)
        x = x_new
    return x


def positive_roots(f, fprime, q_max: float, n_scan: int = 512) -> list:
    """All roots of f on (0, q_max], found by grid sign-change scanning."""
    eps = 1e-12 * max(1.0, q_max)
    roots = []
    xs = [eps + (q_max - eps) * i / n_scan for i in range(n_scan + 1)]
    fs = [f(x) for x in xs]
    for i in range(n_scan):
        if fs[i] == 0.0:
            roots.append(xs[i])
        elif fs[i] * fs[i + 1] < 0.0:
            mid = 0.5 * (xs[i] + xs[i + 1])
            roots.append(newton_refine(f, fprime, mid, xs[i], xs[i + 1], fa=fs[i]))
    if fs[-1] == 0.0:
        roots.append(xs[-1])
    return roots


def _refine_near_guess(f, fprime, guess: float, q_max: float) -> float | None:
    """Cheap continuation: bracket locally around the previous root and refine,
    skipping the full scan.  Returns None when no nearby sign change exists."""
    if not 0.0 < guess <= q_max:
        return None
    for half_width in (0.05, 0.2):
        radius = half_width * max(guess, 1e-6)
        a = max(1e-12 * max(1.0, q_max), guess - radius)
        b = min(q_max, guess + radius)
        if a < b:
            fa = f(a)
            if fa * f(b) < 0.0:
                return newton_refine(f, fprime, guess, a, b, fa=fa)
    return None


def solve_positive_root(f, fprime, q_max: float, guess: float | None = None) -> float:
    """The physical positive root: nearest to ``guess`` when given, else largest."""
    if guess is not None:
        root = _refine_near_guess(f, fprime, guess, q_max)
        if root is not None:
            return root
    roots = positive_roots(f, fprime, q_max)
    if not roots:
        raise PresetDomainError("no positive root in the scanned bracket")
    if guess is not None:
        return min(roots, key=lambda r: abs(r - guess))
    return max(roots)
