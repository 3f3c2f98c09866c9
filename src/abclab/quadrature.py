"""Numerical integration helpers: composite Gauss-Legendre, the periodic
trapezoid rule and adaptive Simpson.

Two refinements double a rule's level until two successive estimates agree:

* ``refine_gauss_legendre`` doubles the panels of a composite 10-point
  Gauss-Legendre rule, from one panel.  It integrates the smooth integrands
  of this package whose periodic extension is not smooth: the velocity-kick
  integral over angle, and each side of a polyline loop phase on its sinh
  map.
* ``refine_periodic_trapezoid`` doubles the points of the trapezoid rule on
  an interval.  It integrates the circle loop phase on its periodic Moebius
  map, whose integrand is smooth and periodic, and the complex Gaussian
  overlap, whose integrand has decayed to e^-72 of its peak at both ends of
  its window, so its periodic extension is smooth to far below any
  tolerance.  On both the rule
  converges geometrically; each level evaluates only the midpoints of the
  last and adds them to its running sum.

Both feed their estimates to one driver, ``_refine``, which holds the
convergence test, the budget and the errors.  The budget is one count of
integrand evaluations, ``MAX_EVALUATIONS``: a rule's finest level is its last
that evaluates the integrand at most that many times, 524,288 panels of 10
Gauss-Legendre nodes or 4,194,304 trapezoid points.  The driver stops at the
first estimate that is not finite, such as that of an integrand that
overflows, since an inf or NaN estimate never agrees with the next one; its
``NumericalError`` names the rule, the interval, the estimate and the level.
Integrands may be real or complex.  The ten Gauss-Legendre nodes and
weights are float literals equal bit for bit to numpy's ``leggauss(10)``, so
this module, and ``abclab run`` and ``abclab sweep`` with it, never imports
numpy.

``adaptive_simpson`` splits an interval until the two-panel and one-panel
estimates agree to 15x the interval's share of the tolerance, and it
accumulates the Richardson-corrected value S2 + (S2 - S1)/15.  No route of
the package calls it any more.  It stays because the benchmark tracer
(``perfbench/tracer.py``) patches ``interferometry.adaptive_simpson`` and
``solenoid.adaptive_simpson``, names those two modules import for it alone.
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


# The budget of either refinement, in integrand evaluations: a rule stops at
# its last level that evaluates the integrand at most this many times, 524,288
# Gauss-Legendre panels (from 1) or 4,194,304 trapezoid points (from 8).
MAX_EVALUATIONS = 5_242_880


def _refine(
    rule: str, unit: str, nodes_per_unit: int, estimates, a: float, b: float, rel_tol: float, abs_floor: float
) -> float | complex:
    """Read (level, estimate) pairs until two successive estimates agree; a
    level of n panels or points evaluates the integrand n*nodes_per_unit times.

    Convergence is |I_2n - I_n| <= max(rel_tol*|I_2n|, abs_floor).  Raises
    NumericalError at the first estimate that is not finite, since no
    refinement makes an inf or NaN estimate agree with the next one, and at
    the last level within MAX_EVALUATIONS if that one does not converge.
    """
    prev = None
    for n, cur in estimates:
        if not cmath.isfinite(cur):
            raise NumericalError(
                f"{rule} refinement stopped on [{a!r}, {b!r}]: the estimate at {n} {unit} is {cur!r}"
            )
        if prev is not None:
            change = abs(cur - prev)
            if change <= max(rel_tol * abs(cur), abs_floor):
                return cur
            if 2 * n * nodes_per_unit > MAX_EVALUATIONS:
                raise NumericalError(
                    f"{rule} refinement did not converge after {n} {unit} on [{a!r}, {b!r}]; "
                    f"last change {change:.3e}"
                )
        prev = cur


def _gauss_legendre_levels(f, a: float, b: float):
    n_panels = 1
    while True:
        yield n_panels, composite_gauss_legendre(f, a, b, n_panels)
        n_panels *= 2


def _trapezoid_levels(f, a: float, b: float, n_points: int):
    """Trapezoid estimates of f, periodic with period b - a, on n_points
    equispaced points of [a, b), then on twice as many, and so on.  Each level
    evaluates only the midpoints of the last one and adds them to its sum."""
    step = (b - a) / n_points
    total = 0.0
    for i in range(n_points):
        total += f(a + i * step)
    while True:
        yield n_points, total * step
        for i in range(n_points):
            total += f(a + (i + 0.5) * step)
        n_points *= 2
        step *= 0.5


def refine_gauss_legendre(
    f: Callable[[float], float | complex],
    a: float,
    b: float,
    rel_tol: float = 1e-10,
    abs_floor: float = 0.0,
) -> float | complex:
    """Panel-doubling composite Gauss-Legendre from one panel until two
    successive estimates agree; ``_refine`` states the test, the budget and
    the errors.

    The caller supplies abs_floor as the natural zero scale of the problem so
    integrals that vanish by symmetry still terminate.  f may return complex
    values: the estimate is then complex, and |.| is the complex modulus, so
    one pass converges both parts together.
    """
    estimates = _gauss_legendre_levels(f, a, b)
    return _refine("Gauss-Legendre", "panels", len(_GL_NODES), estimates, a, b, rel_tol, abs_floor)


def refine_periodic_trapezoid(
    f: Callable[[float], float | complex], a: float, b: float, rel_tol: float, abs_floor: float
) -> float | complex:
    """Point-doubling trapezoid rule from 8 points, for an f that is smooth and
    periodic with period b - a, until successive estimates agree; it converges
    geometrically there, and each level reuses every point of the last.
    Convergence, budget and errors are those of ``refine_gauss_legendre``,
    with levels counted in points.

    An f that is smooth on [a, b] and, with its derivatives, has decayed
    below the tolerance at both ends qualifies too: its periodic extension is
    smooth to within that decay.
    The Gaussian overlap integrand on its window center +- (12 sigma + |dx|/2)
    is one; with u = x - center its exponent is -(2u^2 + dx^2/2)/(4 sigma^2)
    <= -u^2/(2 sigma^2), which is -72 or less at both ends, so the extension
    is smooth to about 5e-32 of the peak."""
    estimates = _trapezoid_levels(f, a, b, 8)
    return _refine("periodic trapezoid", "points", 1, estimates, a, b, rel_tol, abs_floor)
