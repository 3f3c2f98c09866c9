import cmath
import math
import re

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import i0

from abclab import (
    NumericalError,
    adaptive_simpson,
    composite_gauss_legendre,
    quadrature,
    refine_gauss_legendre,
    refine_periodic_trapezoid,
)
from abclab.quadrature import _GL_NODES, _GL_WEIGHTS, MAX_EVALUATIONS


def test_cosine_over_symmetric_interval():
    value = adaptive_simpson(math.cos, -math.pi / 2.0, math.pi / 2.0, rel_tol=1e-12)
    assert value == pytest.approx(2.0, rel=1e-12)


def test_odd_integrand_vanishes():
    value = adaptive_simpson(lambda x: x ** 3, -1.0, 1.0, rel_tol=1e-12, abs_tol=1e-14)
    assert abs(value) <= 1e-14


def test_polynomial_against_antiderivative():
    value = adaptive_simpson(lambda x: 5.0 * x ** 4 - 2.0 * x, 0.0, 2.0, rel_tol=1e-13)
    assert value == pytest.approx(2.0 ** 5 - 2.0 ** 2, rel=1e-13)


def test_gaussian_against_scipy():
    f = lambda x: math.exp(-x * x)
    mine = adaptive_simpson(f, -8.0, 8.0, rel_tol=1e-12)
    ref, _ = quad(f, -8.0, 8.0, epsabs=1e-14, epsrel=1e-13)
    assert mine == pytest.approx(ref, rel=1e-11)
    assert mine == pytest.approx(math.sqrt(math.pi), rel=1e-11)


def test_empty_interval_is_zero():
    assert adaptive_simpson(math.exp, 1.0, 1.0) == 0.0


def test_reversed_interval_rejected():
    with pytest.raises(NumericalError):
        adaptive_simpson(math.exp, 1.0, 0.0)


def test_depth_exhaustion_raises_with_diagnostics():
    # sqrt has an unbounded derivative at zero; three levels cannot reach 1e-12
    with pytest.raises(NumericalError, match="depth"):
        adaptive_simpson(math.sqrt, 0.0, 1.0, rel_tol=1e-12, max_depth=3)


def test_composite_gauss_legendre_sine():
    value = composite_gauss_legendre(math.sin, 0.0, math.pi, 8)
    assert value == pytest.approx(2.0, rel=1e-13)


def test_gauss_legendre_literals_equal_leggauss():
    # the literals stand in for numpy at import time; they must match it bit for bit
    nodes, weights = np.polynomial.legendre.leggauss(10)
    assert [v.hex() for v in _GL_NODES] == [float(v).hex() for v in nodes]
    assert [v.hex() for v in _GL_WEIGHTS] == [float(v).hex() for v in weights]
    assert all(type(v) is float for v in _GL_NODES + _GL_WEIGHTS)


def test_refine_gauss_legendre_converges():
    value = refine_gauss_legendre(lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, rel_tol=1e-12)
    assert value == pytest.approx(math.pi / 4.0, rel=1e-12)


def test_refine_gauss_legendre_complex_integrand():
    value = refine_gauss_legendre(lambda x: cmath.exp(1j * x), 0.0, math.pi, rel_tol=1e-12)
    assert isinstance(value, complex)
    assert abs(value - 2j) <= 1e-13


def test_refine_gauss_legendre_zero_integrand():
    assert refine_gauss_legendre(lambda x: 0.0, 0.0, 1.0, rel_tol=1e-12) == 0.0


@pytest.mark.parametrize("value", [math.inf, math.nan, complex(math.inf, 0.0)], ids=["inf", "nan", "complex-inf"])
def test_refine_gauss_legendre_stops_at_the_first_non_finite_estimate(value):
    calls = []

    def f(x):
        calls.append(x)
        return value

    stopped = r"^Gauss-Legendre refinement stopped on \[0\.0, 2\.0\]: the estimate at 1 panels is "
    with pytest.raises(NumericalError, match=stopped):
        refine_gauss_legendre(f, 0.0, 2.0)
    assert len(calls) == 10  # the first estimate, on one panel, only


def test_refine_gauss_legendre_stops_when_a_refined_estimate_overflows():
    # the last node is 1.99674 on 8 panels of [0, 2] and 1.99837 on 16, and
    # on fewer panels it lies below 1.99674; sin(100 x), 32 periods on the
    # interval, keeps the estimates of 1 to 8 panels apart
    with pytest.raises(NumericalError, match=r"the estimate at 16 panels is inf$"):
        refine_gauss_legendre(lambda x: math.inf if x > 1.998 else math.sin(100.0 * x), 0.0, 2.0)


def _counted_composite(monkeypatch, estimate=None):
    """Record the panel count and estimate of every composite rule that the
    refinement asks for; ``estimate(n_panels)`` replaces the rule's value."""
    levels = []
    real = quadrature.composite_gauss_legendre

    def composite(f, a, b, n_panels):
        value = real(f, a, b, n_panels) if estimate is None else estimate(n_panels)
        levels.append((n_panels, value))
        return value

    monkeypatch.setattr(quadrature, "composite_gauss_legendre", composite)
    return levels


@pytest.mark.parametrize("finest", [2, 4, 8])
def test_refine_gauss_legendre_stops_at_the_finest_level(monkeypatch, finest):
    # a budget of exactly `finest` panels of 10 nodes admits that level and no
    # finer one; refinement starts from one panel, and each estimate is the
    # panel count, so no two of them agree
    monkeypatch.setattr(quadrature, "MAX_EVALUATIONS", finest * len(_GL_NODES))
    levels = _counted_composite(monkeypatch, estimate=float)
    failed = rf"did not converge after {finest} panels on \[0\.0, 1\.0\]; last change {re.escape(f'{finest / 2:.3e}')}$"
    with pytest.raises(NumericalError, match=failed):
        refine_gauss_legendre(math.sin, 0.0, 1.0)
    assert [n for n, _ in levels] == [2**i for i in range(finest.bit_length())]


def test_refine_gauss_legendre_budget_is_524288_panels(monkeypatch):
    # the shipped budget is the level of 524,288 panels of 10 nodes, reached
    # from one panel; each estimate is the panel count, so no two of them agree
    levels = _counted_composite(monkeypatch, estimate=float)
    failed = r"did not converge after 524288 panels on \[0\.0, 1\.0\]; last change 2\.621e\+05$"
    with pytest.raises(NumericalError, match=failed):
        refine_gauss_legendre(math.sin, 0.0, 1.0)
    assert [n for n, _ in levels] == [2 ** i for i in range(20)]
    assert levels[-1][0] * len(_GL_NODES) == MAX_EVALUATIONS == 5_242_880


def test_non_convergence_reports_the_last_change_compared(monkeypatch):
    # a sawtooth of 1e6 teeth does not converge by 64 panels
    monkeypatch.setattr(quadrature, "MAX_EVALUATIONS", 640)
    levels = _counted_composite(monkeypatch)
    with pytest.raises(NumericalError) as failure:
        refine_gauss_legendre(lambda x: (1e6 * x) % 1.0, 0.0, 1.0, rel_tol=1e-15)
    (_, before), (n, last) = levels[-2:]
    change = abs(last - before)
    assert n == 64 and change > 0.0
    assert str(failure.value) == (
        f"Gauss-Legendre refinement did not converge after 64 panels on [0.0, 1.0]; last change {change:.3e}"
    )


@pytest.mark.parametrize("n_points", [8, 16])
@pytest.mark.parametrize("a, b", [(0.0, 1.0), (-1.0, 2.0)])
def test_trapezoid_is_exact_for_trigonometric_polynomials_below_its_point_count(n_points, a, b):
    # on n equispaced points the rule integrates every frequency below n exactly
    rng = np.random.default_rng(n_points)
    mean = float(rng.normal())
    coefficients = [(k, float(c), float(s)) for k, (c, s) in enumerate(rng.normal(size=(n_points - 1, 2)), 1)]
    omega = 2.0 * math.pi / (b - a)

    def f(t):
        return mean + sum(c * math.cos(k * omega * t) + s * math.sin(k * omega * t) for k, c, s in coefficients)

    _, first = next(quadrature._trapezoid_levels(f, a, b, n_points))
    assert first == pytest.approx(mean * (b - a), abs=1e-14 * (b - a) * n_points)
    # frequency n aliases onto the mean at n points, and is resolved at 2n
    levels = quadrature._trapezoid_levels(lambda t: math.cos(n_points * omega * (t - a)), a, b, n_points)
    assert next(levels)[1] == pytest.approx(b - a, rel=1e-13)
    assert next(levels)[1] == pytest.approx(0.0, abs=1e-13)


def test_trapezoid_levels_reuse_every_point():
    points = []

    def f(t):
        points.append(t)
        return math.exp(math.sin(2.0 * math.pi * t))

    levels = quadrature._trapezoid_levels(f, 0.0, 1.0, 8)
    for n in (8, 16, 32):
        assert next(levels)[0] == n
        assert sorted(points) == [i / n for i in range(n)]
    value = refine_periodic_trapezoid(lambda t: math.exp(math.sin(2.0 * math.pi * t)), 0.0, 1.0, 1e-14, 0.0)
    assert value == pytest.approx(i0(1.0), rel=1e-14)  # the mean of exp(sin) over a period


def test_refine_periodic_trapezoid_stops_at_the_finest_level(monkeypatch):
    # the same budget of evaluations as Gauss-Legendre's 524,288 panels ends
    # the trapezoid rule at 4,194,304 points; each estimate is the point
    # count, so no two of them agree
    levels = []

    def counted(f, a, b, n_points):
        while True:
            levels.append(n_points)
            yield n_points, float(n_points)
            n_points *= 2

    monkeypatch.setattr(quadrature, "_trapezoid_levels", counted)
    with pytest.raises(NumericalError) as failure:
        refine_periodic_trapezoid(math.sin, 0.0, 1.0, 1e-10, 0.0)
    assert str(failure.value) == (
        "periodic trapezoid refinement did not converge after 4194304 points on [0.0, 1.0]; last change 2.097e+06"
    )
    assert levels == [8 * 2**i for i in range(20)] and levels[-1] <= MAX_EVALUATIONS < 2 * levels[-1]


def test_refine_periodic_trapezoid_reports_the_last_change_compared(monkeypatch):
    # an isolated spike at t = 0 halves each estimate: it never converges
    monkeypatch.setattr(quadrature, "MAX_EVALUATIONS", 64)
    with pytest.raises(NumericalError) as failure:
        refine_periodic_trapezoid(lambda t: 1.0 if t == 0.0 else 0.0, 0.0, 1.0, 1e-10, 0.0)
    assert str(failure.value) == (
        f"periodic trapezoid refinement did not converge after 64 points on [0.0, 1.0]; last change {1 / 32 - 1 / 64:.3e}"
    )


def test_refine_periodic_trapezoid_stops_at_the_first_non_finite_estimate():
    stopped = r"^periodic trapezoid refinement stopped on \[0\.0, 1\.0\]: the estimate at 16 points is inf$"
    with pytest.raises(NumericalError, match=stopped):
        refine_periodic_trapezoid(lambda t: math.inf if t == 0.0625 else 1.0, 0.0, 1.0, 1e-10, 0.0)
