import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from abclab import (
    ConsistencyError,
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
from abclab import interferometry, quadrature

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


def test_non_finite_phase_rejected():
    with pytest.raises(DomainError, match="must be finite"):
        phase_from_path_shift(1e300, 1e-300)
    for phase in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match="must be finite"):
            detector_probabilities(phase, 1.0)


def test_packet_validation():
    with pytest.raises(ValidationError):
        GaussianPacket(x0=0.0, p0=0.0, sigma_x=0.0, mass=1.0)
    with pytest.raises(ValidationError):
        GaussianPacket(x0=0.0, p0=0.0, sigma_x=1.0, mass=-2.0)


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


def _captured_window(monkeypatch):
    """Record the integrand and window of every trapezoid refinement that
    overlap_by_quadrature asks for, and the points each one evaluates."""
    calls = []
    refine = interferometry.refine_periodic_trapezoid

    def spy(f, a, b, rel_tol, abs_floor):
        call = {"f": f, "a": a, "b": b, "points": 0}
        calls.append(call)

        def counted(x):
            call["points"] += 1
            return f(x)

        return refine(counted, a, b, rel_tol, abs_floor)

    monkeypatch.setattr(interferometry, "refine_periodic_trapezoid", spy)
    return calls


@pytest.mark.parametrize("sigma", [0.3, 3.0])
@pytest.mark.parametrize("shift", [-4.0, 0.0, 4.0])
@pytest.mark.parametrize("kick", [-6.0, 0.0, 6.0])
def test_overlap_quadrature_at_the_corners_beyond_the_verify_band(monkeypatch, sigma, shift, kick):
    # dx/sigma and dp*sigma reach twice and three times verify's draw band.
    # The scale is the integral of |integrand|, exp(-dx^2/(8 sigma^2)): at
    # dp*sigma = 6 the overlap is e^-18 of it, so roundoff alone leaves a
    # relative error near 1e-7, for QUADPACK too.  The route is compared
    # with the closed form, QUADPACK and a fixed 64-panel Gauss-Legendre rule
    # on the same window, which no early agreement at 8-32 points can pass.
    calls = _captured_window(monkeypatch)
    packet = GaussianPacket(x0=0.7, p0=-1.1, sigma_x=sigma, mass=1.0)
    dx, dp = shift * sigma, kick / sigma
    scale = math.exp(-dx * dx / (8.0 * sigma * sigma))
    numeric = overlap_by_quadrature(packet, dx, dp, 1.0)
    [call] = calls
    fixed = quadrature.composite_gauss_legendre(call["f"], call["a"], call["b"], 64)
    for reference in (packet_overlap(packet, dx, dp, 1.0), _overlap_scipy(packet, dx, dp, 1.0), fixed):
        assert abs(numeric - reference) <= 1e-13 * scale
    assert call["points"] <= 128


def test_overlap_quadrature_agrees_with_a_fixed_gauss_legendre_rule(monkeypatch):
    # verify's draw band: the trapezoid estimate stops at 64 or 128 points and
    # must equal a 64-panel, 640-node Gauss-Legendre estimate of the same
    # integrand, and the closed form, to 1e-13 of |overlap|
    calls = _captured_window(monkeypatch)
    rng = np.random.default_rng(19)
    for _ in range(60):
        sigma = float(np.exp(rng.uniform(np.log(0.3), np.log(3.0))))
        packet = GaussianPacket(
            x0=float(rng.uniform(-2, 2)), p0=float(rng.uniform(-2, 2)), sigma_x=sigma, mass=1.0
        )
        dx = float(rng.uniform(-2.0, 2.0)) * sigma
        dp = float(rng.uniform(-2.0, 2.0)) / sigma
        numeric = overlap_by_quadrature(packet, dx, dp, 1.0)
        closed = packet_overlap(packet, dx, dp, 1.0)
        call = calls[-1]
        fixed = quadrature.composite_gauss_legendre(call["f"], call["a"], call["b"], 64)
        assert abs(numeric - fixed) <= 1e-13 * abs(closed)
        assert abs(numeric - closed) <= 1e-13 * abs(closed)
    assert {call["points"] for call in calls} <= {64, 128}


def _unit_packet(sigma):
    return GaussianPacket(x0=0.0, p0=0.0, sigma_x=sigma, mass=1.0)


@pytest.mark.parametrize(
    "sigma",
    [1e-170, 1e160, 3e-162],
    ids=["square_underflows", "square_overflows", "square_is_subnormal"],
)
def test_packet_refuses_a_sigma_whose_square_leaves_the_normal_range(sigma):
    # 1e-170 used to raise ZeroDivisionError in both overlap routes; 1e160
    # gave a NaN closed form and an OverflowError in the quadrature; 3e-162
    # ran the quadrature's whole budget, 5.2M evaluations, into a
    # NumericalError
    with pytest.raises(ValidationError, match=r"^sigma_x\^2 = .* at sigma_x = "):
        _unit_packet(sigma)


def test_packet_accepts_the_extremes_of_the_normal_range():
    for sigma in (1.5e-154, 4e153):
        packet = _unit_packet(sigma)
        assert packet_overlap(packet, 0.5 * sigma, 0.0, 1.0) == pytest.approx(math.exp(-1.0 / 32.0), rel=1e-15)


@pytest.mark.parametrize(
    "sigma, delta_x",
    [(1.2e153, 0.0), (1.0, 1e200)],
    ids=["wide_packet", "far_shift"],
)
def test_overlap_quadrature_refuses_a_window_whose_square_overflows(sigma, delta_x):
    # both used to raise OverflowError from the integrand's squares
    with pytest.raises(DomainError, match=r"^overlap window: the squared distance"):
        overlap_by_quadrature(_unit_packet(sigma), delta_x, 0.0, 1.0)


def test_overlap_quadrature_refuses_a_packet_narrower_than_the_float_spacing_at_one():
    # the window's nodes collapse onto a few floats: this used to return 6.64
    packet = GaussianPacket(x0=1.0, p0=0.0, sigma_x=1e-17, mass=1.0)
    with pytest.raises(DomainError, match=r"^overlap window: the float spacing .* near its centre 1\.0 .* sigma_x = 1e-17$"):
        overlap_by_quadrature(packet, 0.0, 0.0, 1.0)


def test_overlap_quadrature_refuses_a_narrow_packet_far_from_the_origin():
    # the float spacing at 1e6 is 1.2e-10, a hundred times sigma_x: this used
    # to return 0j, where the closed form gives 1
    packet = GaussianPacket(x0=1e6, p0=0.0, sigma_x=1e-12, mass=1.0)
    with pytest.raises(DomainError, match=r"near its centre 1000000\.0 .* sigma_x = 1e-12$"):
        overlap_by_quadrature(packet, 0.0, 0.0, 1.0)


def test_overlap_quadrature_resolves_a_packet_just_inside_the_float_spacing_bound():
    # the window is 24.5 sigma_x wide, so the floor is 1e-12 * 24.5/sqrt(2 pi)
    # = 9.8e-12: ulp(6e4 + 12) = 7.3e-12 is within it, ulp(7e4 + 12) = 1.5e-11
    # is not
    floor = 1e-12 * 24.5 / math.sqrt(2.0 * math.pi)
    inside = GaussianPacket(x0=6e4, p0=0.3, sigma_x=1.0, mass=1.0)
    assert abs(overlap_by_quadrature(inside, 0.5, 0.7, 1.0) - packet_overlap(inside, 0.5, 0.7, 1.0)) <= floor
    outside = GaussianPacket(x0=7e4, p0=0.3, sigma_x=1.0, mass=1.0)
    with pytest.raises(DomainError, match=r"near its centre 70000\.25 .* sigma_x = 1\.0$"):
        overlap_by_quadrature(outside, 0.5, 0.7, 1.0)
    # the window reaches 10,012, but the integrand has its weight within 12 of
    # its centre 5,000 (spacing 9.1e-13)
    assert overlap_by_quadrature(_unit_packet(1.0), 1e4, 0.3, 1.0) == packet_overlap(_unit_packet(1.0), 1e4, 0.3, 1.0)


def test_overlap_quadrature_refuses_a_kick_whose_phase_overflows():
    # delta_p * x / hbar is inf at the window's ends: the refinement used to
    # stop on a (nan+nanj) estimate, where the closed form gives 0j
    packet = _unit_packet(1.0)
    assert packet_overlap(packet, 0.0, 1e308, 1.0) == 0j
    with pytest.raises(DomainError, match=r"^overlap window: the phase delta_p\*x/hbar overflows at its end x = 12\.0"):
        overlap_by_quadrature(packet, 0.0, 1e308, 1.0)


def test_overlap_refuses_a_shift_whose_phase_overflows():
    # p0 * delta_x / hbar is inf: a bare ValueError (math domain error) from
    # cmath.exp, no AbclabError
    packet = GaussianPacket(x0=0.0, p0=1.7e308, sigma_x=1.0, mass=1.0)
    with pytest.raises(DomainError, match=r"^overlap phase \(delta_p\*x0 - p0\*delta_x\)/hbar overflows at x0 = 0\.0, p0 = 1\.7e\+308, delta_x = 10\.0"):
        packet_overlap(packet, 10.0, 0.0, 1.0)


def test_overlap_quadrature_refuses_a_shift_whose_phase_overflows():
    # p0 * delta_x / hbar is inf in every integrand value: the refinement used
    # to stop on a (nan+nanj) estimate
    packet = GaussianPacket(x0=0.0, p0=1.7e308, sigma_x=1.0, mass=1.0)
    with pytest.raises(DomainError, match=r"^overlap phase: p0\*delta_x/hbar overflows at p0 = 1\.7e\+308, delta_x = 10\.0"):
        overlap_by_quadrature(packet, 10.0, 0.0, 1.0)


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
