import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from abclab import (
    ConsistencyError,
    DetectionProbabilities,
    DomainError,
    GaussianPacket,
    TwoPathState,
    ValidationError,
    detector_probabilities,
    overlap_by_quadrature,
    packet_overlap,
    phase_from_path_shift,
    visibility_from_overlap,
)

EXP_MINUS_HALF = 0.6065306597126334  # math.exp(-0.5)


def test_zero_phase_routes_to_a():
    p = detector_probabilities(0.0, 1.0)
    assert p.p_a == pytest.approx(1.0, abs=1e-15)
    assert p.p_b == pytest.approx(0.0, abs=1e-15)


def test_pi_phase_routes_to_b():
    p = detector_probabilities(math.pi, 1.0)
    assert p.p_b == pytest.approx(1.0, abs=1e-15)
    assert p.p_a == pytest.approx(0.0, abs=1e-15)


def test_zero_visibility_erases_interference():
    p = detector_probabilities(math.pi / 2.0, 0.0)
    assert p.p_a == 0.5 and p.p_b == 0.5


@pytest.mark.parametrize("bad", [-0.1, 1.1, 2.0])
def test_visibility_domain(bad):
    with pytest.raises(DomainError):
        detector_probabilities(0.3, bad)


@given(
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_probabilities_sum_to_one(phase, visibility):
    p = detector_probabilities(phase, visibility)
    assert abs(p.p_a + p.p_b - 1.0) <= 1e-15
    assert -1e-15 <= p.p_a <= 1.0 + 1e-15


@given(
    st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_two_pi_periodicity(phase, visibility):
    a = detector_probabilities(phase, visibility)
    b = detector_probabilities(phase + 2.0 * math.pi, visibility)
    assert a.p_a == pytest.approx(b.p_a, abs=1e-12)


def test_half_wavelength_shift_gives_pi():
    assert phase_from_path_shift(0.5, 1.0) == pytest.approx(math.pi, abs=1e-15)


def test_zero_shift_gives_zero():
    assert phase_from_path_shift(0.0, 2.3) == 0.0


def test_full_wavelength_gives_two_pi():
    # linear in the shift: delta_l = lambda doubles the half-wavelength phase
    assert phase_from_path_shift(1.0, 1.0) == pytest.approx(2.0 * math.pi, rel=1e-15)


def test_nonpositive_wavelength_rejected():
    with pytest.raises(DomainError):
        phase_from_path_shift(0.1, 0.0)
    with pytest.raises(DomainError):
        phase_from_path_shift(0.1, -1.0)


def test_detection_probabilities_validate():
    with pytest.raises(ValidationError):
        DetectionProbabilities(0.7, 0.7)


def test_packet_validation():
    with pytest.raises(ValidationError):
        GaussianPacket(x0=0.0, p0=0.0, sigma_x=0.0, mass=1.0)
    with pytest.raises(ValidationError):
        GaussianPacket(x0=0.0, p0=0.0, sigma_x=1.0, mass=-2.0)


def test_momentum_spread_is_minimum_uncertainty():
    packet = GaussianPacket(x0=0.0, p0=0.0, sigma_x=0.25, mass=1.0)
    assert packet.momentum_spread(1.0) == pytest.approx(2.0)


def test_overlap_identity_displacement():
    packet = GaussianPacket(x0=0.7, p0=-0.2, sigma_x=1.1, mass=1.0)
    assert packet_overlap(packet, 0.0, 0.0, 1.0) == 1.0 + 0.0j


def test_overlap_two_sigma_shift():
    packet = GaussianPacket(x0=0.0, p0=0.0, sigma_x=1.4, mass=1.0)
    overlap = packet_overlap(packet, 2.0 * packet.sigma_x, 0.0, 1.0)
    assert abs(overlap) == pytest.approx(EXP_MINUS_HALF, rel=1e-12)


def test_overlap_unit_kick_in_natural_units():
    # delta_p chosen so delta_p * sigma_x / hbar = 1
    packet = GaussianPacket(x0=0.0, p0=0.0, sigma_x=0.6, mass=1.0)
    overlap = packet_overlap(packet, 0.0, 1.0 / packet.sigma_x, 1.0)
    assert abs(overlap) == pytest.approx(EXP_MINUS_HALF, rel=1e-12)


def test_overlap_phase_convention_pure_kick():
    # symmetric ordering: phase is dp*x0/hbar when dx = 0
    packet = GaussianPacket(x0=1.3, p0=0.8, sigma_x=1.0, mass=1.0)
    overlap = packet_overlap(packet, 0.0, 0.9, 1.0)
    assert cmath.phase(overlap) == pytest.approx(0.9 * 1.3, rel=1e-12)


def _overlap_scipy(packet, delta_x, delta_p, hbar):
    """Independent QUADPACK evaluation of the displaced-packet product."""
    x0, p0, sx = packet.x0, packet.p0, packet.sigma_x
    norm2 = 1.0 / math.sqrt(2.0 * math.pi * sx * sx)

    def integrand(x):
        g = math.exp(-((x - x0) ** 2 + (x - delta_x - x0) ** 2) / (4.0 * sx * sx))
        ph = -p0 * delta_x / hbar + delta_p * x / hbar - delta_p * delta_x / (2.0 * hbar)
        return norm2 * g * cmath.exp(1j * ph)

    center = x0 + 0.5 * delta_x
    width = 14.0 * sx + 0.5 * abs(delta_x)
    re, _ = quad(lambda x: integrand(x).real, center - width, center + width, epsabs=1e-13, limit=300)
    im, _ = quad(lambda x: integrand(x).imag, center - width, center + width, epsabs=1e-13, limit=300)
    return complex(re, im)


def test_overlap_closed_form_vs_scipy_quadpack():
    rng = np.random.default_rng(7)
    for _ in range(100):
        sigma = float(np.exp(rng.uniform(np.log(0.3), np.log(3.0))))
        packet = GaussianPacket(
            x0=float(rng.uniform(-2, 2)), p0=float(rng.uniform(-2, 2)), sigma_x=sigma, mass=1.0
        )
        dx = float(rng.uniform(-2.0, 2.0)) * sigma
        dp = float(rng.uniform(-2.0, 2.0)) / sigma
        closed = packet_overlap(packet, dx, dp, 1.0)
        ref = _overlap_scipy(packet, dx, dp, 1.0)
        assert abs(closed - ref) / abs(closed) < 1e-8


def test_overlap_quadrature_route_matches_closed_form():
    cases = [
        (GaussianPacket(x0=0.4, p0=-0.3, sigma_x=1.5, mass=1.0), 1.2, 0.7),
        # The draw of `abclab verify --seed 1549879443` whose overlap has a
        # small real part (-0.024 of |overlap| 0.164): two adaptive-Simpson
        # runs, one per part, accepted a coarse grid there and missed by 6.5e-8.
        (
            GaussianPacket(x0=-0.5804146471623093, p0=-1.113175032087792, sigma_x=0.571512196224127, mass=1.0),
            0.1825149993647618,
            3.312689629266306,
        ),
    ]
    for packet, dx, dp in cases:
        closed = packet_overlap(packet, dx, dp, 1.0)
        numeric = overlap_by_quadrature(packet, dx, dp, 1.0)
        assert abs(closed - numeric) / abs(closed) <= 1e-13


def test_overlap_quadrature_floor_follows_the_integrand():
    # The worst overlap draw of `abclab verify --seed 24`.  A fixed absolute
    # floor of 1e-10 stopped the panel doubling at 8 panels, 1.1e-11 off; the
    # floor 1e-12 * norm2 * (b - a) scales with the integrand instead.
    packet = GaussianPacket(x0=-1.681303764138367, p0=-0.450378576695702, sigma_x=1.9309347193570017, mass=1.0)
    dx, dp = -1.5532197535112873, -0.6845073918713619
    closed = packet_overlap(packet, dx, dp, 1.0)
    assert abs(closed - overlap_by_quadrature(packet, dx, dp, 1.0)) / abs(closed) <= 1e-13


@given(
    st.floats(min_value=-30.0, max_value=30.0, allow_nan=False),
    st.floats(min_value=-30.0, max_value=30.0, allow_nan=False),
)
def test_overlap_magnitude_never_exceeds_one(delta_x, delta_p):
    packet = GaussianPacket(x0=0.0, p0=0.0, sigma_x=0.8, mass=1.0)
    assert abs(packet_overlap(packet, delta_x, delta_p, 1.0)) <= 1.0


def test_overlap_monotone_in_shift_and_kick():
    packet = GaussianPacket(x0=0.0, p0=0.0, sigma_x=1.0, mass=1.0)
    shifts = [0.3 * i for i in range(15)]
    mags = [abs(packet_overlap(packet, s, 0.5, 1.0)) for s in shifts]
    assert all(b <= a for a, b in zip(mags, mags[1:]))
    kicks = [0.3 * i for i in range(15)]
    mags = [abs(packet_overlap(packet, 0.5, q, 1.0)) for q in kicks]
    assert all(b <= a for a, b in zip(mags, mags[1:]))


def test_visibility_passthrough_and_clamp():
    assert visibility_from_overlap(1.0 + 0.0j) == 1.0
    assert visibility_from_overlap(0.0 + 0.0j) == 0.0
    assert visibility_from_overlap(complex(0.0, EXP_MINUS_HALF)) == pytest.approx(EXP_MINUS_HALF)
    # tiny rounding overshoot is clamped, not fatal
    assert visibility_from_overlap(complex(1.0 + 1e-12, 0.0)) == 1.0


def test_visibility_rejects_broken_overlap():
    with pytest.raises(ConsistencyError):
        visibility_from_overlap(complex(1.1, 0.0))


def test_two_path_state_normalization_enforced():
    with pytest.raises(ValidationError):
        TwoPathState(complex(1.0, 0.0), complex(1.0, 0.0))


@pytest.mark.parametrize("phase", [0.0, 0.4, math.pi / 2.0, math.pi, 4.0])
def test_two_path_state_matches_detector_convention(phase):
    probs = TwoPathState.from_phase(phase).probabilities()
    expected = detector_probabilities(phase, 1.0)
    assert probs.p_a == pytest.approx(expected.p_a, abs=1e-12)
    assert probs.p_b == pytest.approx(expected.p_b, abs=1e-12)
