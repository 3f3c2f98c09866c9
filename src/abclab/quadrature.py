"""Numerical integration helpers: composite Gauss-Legendre and adaptive Simpson.

``refine_gauss_legendre`` doubles the panels of a composite 10-point
Gauss-Legendre rule until two successive estimates agree.  It integrates
every smooth integrand in this package (the velocity-kick integral over
angle, the complex Gaussian overlap integrand, the loop-phase line
integrals), and it takes real or complex integrands alike.  It stops at the
first estimate that is not finite, such as that of an integrand that
overflows, since an inf or NaN estimate never agrees with the next one; its
``NumericalError`` names the interval, the estimate and the panel count.
The ten nodes and weights are float literals equal bit for bit to numpy's
``leggauss(10)``, so this module, and ``abclab run`` and ``abclab sweep``
with it, never imports numpy.

``adaptive_simpson`` splits an interval until the two-panel and one-panel
estimates agree to 15x the interval's share of the tolerance, and it
accumulates the Richardson-corrected value S2 + (S2 - S1)/15.  No route of
the package calls it any more; it stays exported because the benchmark
tracer (``perfbench/tracer.py``) still patches it by name.
"""

from __future__ import annotations

import cmath
from typing import Callable

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


# numpy.polynomial.legendre.leggauss(10), written out bit for bit so that
# importing the package does not import numpy (tests/test_quadrature.py
# compares them with leggauss).
_GL_NODES = tuple(map(float.fromhex, (
    "-0x1.f2a3e062af2d8p-1", "-0x1.bae995e9cb2f3p-1", "-0x1.5bdb9228de198p-1",
    "-0x1.bbcc009016adcp-2", "-0x1.30e507891e27ap-3", "0x1.30e507891e27ap-3",
    "0x1.bbcc009016adcp-2", "0x1.5bdb9228de198p-1", "0x1.bae995e9cb2f3p-1",
    "0x1.f2a3e062af2d8p-1",
)))
_GL_WEIGHTS = tuple(map(float.fromhex, (
    "0x1.1115f8b62dc1fp-4", "0x1.32138c878efdep-3", "0x1.c0b059d00bc30p-3",
    "0x1.13baa7a559c01p-2", "0x1.2e9de7014d6eep-2", "0x1.2e9de7014d6eep-2",
    "0x1.13baa7a559c01p-2", "0x1.c0b059d00bc30p-3", "0x1.32138c878efdep-3",
    "0x1.1115f8b62dc1fp-4",
)))


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


def _finite_estimate(f, a: float, b: float, n_panels: int) -> float | complex:
    """The composite estimate on n_panels, refused when it is not finite: no
    refinement makes an inf or NaN estimate agree with the next one."""
    estimate = composite_gauss_legendre(f, a, b, n_panels)
    if not cmath.isfinite(estimate):
        raise NumericalError(
            f"Gauss-Legendre refinement stopped on [{a!r}, {b!r}]: the estimate at {n_panels} panels is {estimate!r}"
        )
    return estimate


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
    modulus, so one pass converges both parts together.  Raises
    NumericalError at the first estimate that is not finite, and after
    max_doublings doublings that do not converge.
    """
    n = start_panels
    prev = _finite_estimate(f, a, b, n)
    for _ in range(max_doublings):
        n *= 2
        cur = _finite_estimate(f, a, b, n)
        if abs(cur - prev) <= max(rel_tol * abs(cur), abs_floor):
            return cur
        prev = cur
    raise NumericalError(
        f"Gauss-Legendre refinement did not converge after {n} panels on [{a!r}, {b!r}]; "
        f"last change {abs(cur - prev):.3e}"
    )

