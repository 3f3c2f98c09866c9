import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad

from abclab import NumericalError, adaptive_simpson, composite_gauss_legendre, refine_gauss_legendre
from abclab.quadrature import _GL_NODES, _GL_WEIGHTS


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

    stopped = r"^Gauss-Legendre refinement stopped on \[0\.0, 2\.0\]: the estimate at 8 panels is "
    with pytest.raises(NumericalError, match=stopped):
        refine_gauss_legendre(f, 0.0, 2.0)
    assert len(calls) == 8 * 10  # the first estimate only


def test_refine_gauss_legendre_stops_when_a_refined_estimate_overflows():
    # the last node is 1.99674 on 8 panels of [0, 2] and 1.99837 on 16
    with pytest.raises(NumericalError, match=r"the estimate at 16 panels is inf$"):
        refine_gauss_legendre(lambda x: math.inf if x > 1.998 else 1.0, 0.0, 2.0)
