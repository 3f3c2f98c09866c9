"""Numerical integration helpers: composite Gauss-Legendre and adaptive Simpson.

``refine_gauss_legendre`` doubles the panels of a composite 10-point
Gauss-Legendre rule until two successive estimates agree.  It integrates
every smooth integrand in this package (the velocity-kick integral over
angle, the complex Gaussian overlap integrand, the loop-phase line
integrals), and it takes real or complex integrands alike.

``adaptive_simpson`` splits an interval until the two-panel and one-panel
estimates agree to 15x the interval's share of the tolerance, and it
accumulates the Richardson-corrected value S2 + (S2 - S1)/15.  No route of
the package calls it any more; it stays exported because the benchmark
tracer (``perfbench/tracer.py``) still patches it by name.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import NumericalError


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    rel_tol: float = 1e-12,
    abs_tol: float = 0.0,
    max_depth: int = 40,
    min_depth: int = 0,
) -> float:
    """Integrate f over [a, b] to max(rel_tol*|I|, abs_tol).

    min_depth forces that many bisection levels before the error estimate is
    trusted; the two-panel/one-panel comparison is only an estimate, and on
    integrands with narrow or oscillatory structure it can agree by accident
    on a coarse grid.  Raises NumericalError with the offending subinterval
    when max_depth bisections are not enough.
    """
    if not (b > a):
        if a == b:
            return 0.0
        raise NumericalError(f"invalid integration interval [{a}, {b}]")
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    tol = max(rel_tol * abs(whole), abs_tol)
    if tol == 0.0:
        # Degenerate tolerance (identically-zero estimate): fall back to a
        # tiny absolute floor so an exactly-zero integrand converges at once.
        tol = 1e-300
    return _simpson_recurse(f, a, fa, b, fb, m, fm, whole, tol, max_depth, min_depth)


def _simpson_recurse(f, a, fa, b, fb, m, fm, whole, tol, depth, force):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if force <= 0 and abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    if depth <= 0:
        raise NumericalError(
            "adaptive Simpson failed to converge on "
            f"[{a!r}, {b!r}]: residual {abs(delta):.3e} exceeds tolerance {tol:.3e} "
            "at maximum depth"
        )
    half = 0.5 * tol
    return _simpson_recurse(
        f, a, fa, m, fm, lm, flm, left, half, depth - 1, force - 1
    ) + _simpson_recurse(f, m, fm, b, fb, rm, frm, right, half, depth - 1, force - 1)


# Plain-float nodes keep downstream arithmetic in Python floats (repr-stable).
_GL_NODES, _GL_WEIGHTS = (
    [float(v) for v in arr] for arr in np.polynomial.legendre.leggauss(10)
)


def composite_gauss_legendre(
    f: Callable[[float], float | complex], a: float, b: float, n_panels: int
) -> float | complex:
    """10-point Gauss-Legendre on n_panels equal panels of [a, b]; f may be complex."""
    total = 0.0
    width = (b - a) / n_panels
    for i in range(n_panels):
        lo = a + i * width
        mid = lo + 0.5 * width
        scale = 0.5 * width
        acc = 0.0
        for node, weight in zip(_GL_NODES, _GL_WEIGHTS):
            acc += weight * f(mid + scale * node)
        total += scale * acc
    return total


def refine_gauss_legendre(
    f: Callable[[float], float | complex],
    a: float,
    b: float,
    rel_tol: float = 1e-10,
    abs_floor: float = 0.0,
    start_panels: int = 8,
    max_doublings: int = 16,
) -> float | complex:
    """Panel-doubling Gauss-Legendre until successive estimates agree.

    Convergence is |I_2n - I_n| <= max(rel_tol*|I_2n|, abs_floor); the
    caller supplies abs_floor as the natural zero scale of the problem so
    integrals that vanish by symmetry still terminate.  f may return
    complex values: the estimate is then complex, and |.| is the complex
    modulus, so one pass converges both parts together.
    """
    n = start_panels
    prev = composite_gauss_legendre(f, a, b, n)
    for _ in range(max_doublings):
        n *= 2
        cur = composite_gauss_legendre(f, a, b, n)
        if abs(cur - prev) <= max(rel_tol * abs(cur), abs_floor):
            return cur
        prev = cur
    raise NumericalError(
        f"Gauss-Legendre refinement did not converge after {n} panels on [{a!r}, {b!r}]; "
        f"last change {abs(cur - prev):.3e}"
    )


def observed_convergence_order(errors: list[float]) -> float:
    """Least order exhibited by a sequence of errors at h, h/2, h/4, ...

    Returns +inf when an error underflows to zero (already converged).
    """
    orders = []
    for e0, e1 in zip(errors, errors[1:]):
        if e1 == 0.0:
            return math.inf
        orders.append(math.log2(e0 / e1))
    return min(orders)
