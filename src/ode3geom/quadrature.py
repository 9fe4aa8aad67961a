"""Adaptive Simpson quadrature with absolute tolerance control."""
from __future__ import annotations

from typing import Callable


class QuadratureError(ArithmeticError):
    pass


def _simpson(fa: float, fm: float, fb: float, h: float) -> float:
    return h / 6.0 * (fa + 4.0 * fm + fb)


def _rec(f, lo, hi, flo, fmid, fhi, whole, eps, depth):
    mid = 0.5 * (lo + hi)
    lm = 0.5 * (lo + mid)
    rm = 0.5 * (mid + hi)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(flo, flm, fmid, mid - lo)
    right = _simpson(fmid, frm, fhi, hi - mid)
    if depth <= 0:
        raise QuadratureError("adaptive Simpson recursion limit hit")
    delta = left + right - whole
    if abs(delta) <= 15.0 * eps:
        return left + right + delta / 15.0
    return (_rec(f, lo, mid, flo, flm, fmid, left, eps / 2.0, depth - 1)
            + _rec(f, mid, hi, fmid, frm, fhi, right, eps / 2.0, depth - 1))


def integrate(f: Callable[[float], float], a: float, b: float,
              tol: float = 1e-10, max_depth: int = 48) -> float:
    """Integral of f over [a, b] by recursive adaptive Simpson.  The
    recursion is a module function taking f, not a closure over it, so a
    call leaves no reference cycle behind."""
    if a == b:
        return 0.0
    if a > b:
        return -integrate(f, b, a, tol, max_depth)
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = _simpson(fa, fm, fb, b - a)
    return _rec(f, a, b, fa, fm, fb, whole, tol, max_depth)
