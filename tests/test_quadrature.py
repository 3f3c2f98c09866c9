import cmath
import math

import pytest
from scipy.integrate import quad

from abclab import NumericalError, adaptive_simpson, composite_gauss_legendre, refine_gauss_legendre
from abclab.quadrature import observed_convergence_order


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


def test_refine_gauss_legendre_converges():
    value = refine_gauss_legendre(lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, rel_tol=1e-12)
    assert value == pytest.approx(math.pi / 4.0, rel=1e-12)


def test_refine_gauss_legendre_complex_integrand():
    value = refine_gauss_legendre(lambda x: cmath.exp(1j * x), 0.0, math.pi, rel_tol=1e-12)
    assert isinstance(value, complex)
    assert abs(value - 2j) <= 1e-13


def test_refine_gauss_legendre_zero_integrand():
    assert refine_gauss_legendre(lambda x: 0.0, 0.0, 1.0, rel_tol=1e-12) == 0.0


def test_observed_convergence_order():
    assert observed_convergence_order([1.0, 0.25, 0.0625]) == pytest.approx(2.0)
    assert observed_convergence_order([1e-3, 0.0]) == math.inf
