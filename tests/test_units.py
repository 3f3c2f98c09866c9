import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from abclab import (
    ConfigurationError,
    PhysicalConstants,
    ValidationError,
    Vec3,
    cross,
    make_constants,
)

finite_component = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
vectors = st.builds(Vec3, finite_component, finite_component, finite_component)


def test_scaled_unity_is_all_ones():
    k = make_constants("scaled-unity")
    assert (k.e, k.c, k.hbar) == (1.0, 1.0, 1.0)
    assert k.h == 2.0 * math.pi


def test_gaussian_cgs_standard_values():
    k = make_constants("gaussian-cgs")
    assert k.c == 2.99792458e10
    assert k.h == 6.62607015e-27
    # elementary charge from the exact SI value times statC per coulomb
    assert k.e == pytest.approx(1.602176634e-19 * 2.99792458e9, rel=1e-15)


@pytest.mark.parametrize("system", ["gaussian-cgs", "scaled-unity"])
def test_h_is_two_pi_hbar(system):
    k = make_constants(system)
    assert abs(k.h - 2.0 * math.pi * k.hbar) <= 1e-15 * k.h


def test_unknown_system_rejected():
    with pytest.raises(ConfigurationError):
        make_constants("si")


@pytest.mark.parametrize("system", ["gaussian-cgs", "scaled-unity"])
def test_make_constants_bit_for_bit_deterministic(system):
    first = make_constants(system)
    second = make_constants(system)
    assert (first.e, first.c, first.hbar, first.h) == (second.e, second.c, second.hbar, second.h)


def test_constants_must_be_positive():
    with pytest.raises(ValidationError):
        PhysicalConstants(e=-1.0, c=1.0, hbar=1.0)


def test_cross_basis_identity():
    assert cross(Vec3(1, 0, 0), Vec3(0, 1, 0)) == Vec3(0, 0, 1)


def test_cross_self_is_zero():
    a = Vec3(0.3, -1.7, 2.2)
    assert cross(a, a) == Vec3(0.0, 0.0, 0.0)


def test_cross_hand_expanded_determinant():
    # z_hat x (2, 0, 0): determinant expansion gives (0*0-1*0, 1*2-0*0, 0*0-0*2)
    assert cross(Vec3(0, 0, 1), Vec3(2, 0, 0)) == Vec3(0.0, 2.0, 0.0)


@given(vectors, vectors)
def test_cross_antisymmetry(a, b):
    lhs = cross(a, b)
    rhs = cross(b, a)
    assert abs(lhs.x + rhs.x) <= 1e-15
    assert abs(lhs.y + rhs.y) <= 1e-15
    assert abs(lhs.z + rhs.z) <= 1e-15


@given(vectors, vectors)
def test_cross_orthogonal_to_factors(a, b):
    c = cross(a, b)
    for v in (a, b):
        scale = c.norm() * v.norm()
        if scale > 0.0:
            assert abs(c.dot(v)) / scale <= 1e-12


def test_vector_arithmetic():
    a = Vec3(1.0, 2.0, 3.0)
    b = Vec3(-0.5, 4.0, 1.0)
    assert a + b == Vec3(0.5, 6.0, 4.0)
    assert a - b == Vec3(1.5, -2.0, 2.0)
    assert a * 2.0 == Vec3(2.0, 4.0, 6.0)
    assert a.dot(b) == pytest.approx(1.0 * -0.5 + 2.0 * 4.0 + 3.0 * 1.0)
    assert Vec3(3.0, 4.0, 0.0).norm() == pytest.approx(5.0)


def test_require_finite_rejects_nan():
    with pytest.raises(ValidationError):
        Vec3(float("nan"), 0.0, 0.0).require_finite()
    with pytest.raises(ValidationError):
        Vec3(0.0, float("inf"), 0.0).require_finite()
