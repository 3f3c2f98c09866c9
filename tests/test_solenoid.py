import math
import re
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from abclab import (
    DomainError,
    GaussianPacket,
    OrbitParams,
    PhysicalConstants,
    SolenoidParams,
    ValidationError,
    ab_phase_direct,
    ab_phase_from_flux,
    cylinder_displacement,
    cylinder_velocity_change,
    de_broglie_wavelength,
    detector_probabilities,
    electron_flux_at_angle,
    local_model_phase,
    long_solenoid_note,
    make_constants,
    packet_overlap,
    solenoid_flux,
    source_momentum_kick,
    velocity_change_by_quadrature,
    velocity_kick_integrand,
    visibility_from_overlap,
)
from abclab import quadrature

K1 = make_constants("scaled-unity")
FOUR_PI = 4.0 * math.pi


def unit_solenoid(**overrides):
    values = dict(r=1.0, L=1.0, M=1.0, Q=1.0, v=1.0)
    values.update(overrides)
    return SolenoidParams(**values)


def random_constants(rng):
    hbar = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))
    return PhysicalConstants(
        e=float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3)))),
        c=float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3)))),
        hbar=hbar,
    )


def random_solenoid(rng):
    draw = lambda: float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))
    return unit_solenoid(r=draw(), L=draw(), M=draw(), Q=draw(), v=draw())


def random_orbit(rng):
    draw = lambda: float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))
    return OrbitParams(R=draw(), u=draw())


def test_unit_flux_is_four_pi():
    assert solenoid_flux(unit_solenoid(), K1) == pytest.approx(FOUR_PI, rel=1e-15)


def test_zero_charge_means_zero_flux():
    assert solenoid_flux(unit_solenoid(Q=0.0), K1) == 0.0


def test_doubling_length_halves_flux():
    base = solenoid_flux(unit_solenoid(), K1)
    assert solenoid_flux(unit_solenoid(L=2.0), K1) == pytest.approx(base / 2.0, rel=1e-15)


def test_phase_from_flux_scaled_substitution():
    assert ab_phase_from_flux(FOUR_PI, K1) == pytest.approx(FOUR_PI, rel=1e-15)
    assert ab_phase_from_flux(0.0, K1) == 0.0


def test_pi_phase_routes_to_detector_b():
    # flux tuned so e*Phi/(c*hbar) = pi sends the electron to B
    probs = detector_probabilities(ab_phase_from_flux(math.pi, K1), 1.0)
    assert probs.p_b == pytest.approx(1.0, abs=1e-12)


def test_direct_phase_unit_parameters():
    assert ab_phase_direct(unit_solenoid(), K1) == pytest.approx(FOUR_PI, rel=1e-15)


def test_phase_linear_in_charge():
    base = ab_phase_direct(unit_solenoid(), K1)
    assert ab_phase_direct(unit_solenoid(Q=2.0), K1) == pytest.approx(2.0 * base, rel=1e-14)


def test_flux_chain_equals_direct_on_random_parameters():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        s = random_solenoid(rng)
        k = random_constants(rng)
        chained = ab_phase_from_flux(solenoid_flux(s, k), k)
        assert abs(chained / ab_phase_direct(s, k) - 1.0) <= 1e-14


def test_electron_flux_vanishes_at_rim():
    s, o = unit_solenoid(), OrbitParams(R=1.0, u=1.0)
    peak = electron_flux_at_angle(0.0, o, s, K1)
    assert abs(electron_flux_at_angle(math.pi / 2.0, o, s, K1)) <= 1e-40
    assert abs(electron_flux_at_angle(-math.pi / 2.0, o, s, K1)) <= 1e-40
    assert peak == pytest.approx(math.pi, rel=1e-15)


def test_electron_flux_even_in_angle():
    s, o = unit_solenoid(), OrbitParams(R=2.0, u=0.7)
    for theta in (0.2, 0.7, 1.2, 1.5):
        assert electron_flux_at_angle(theta, o, s, K1) == electron_flux_at_angle(-theta, o, s, K1)


def test_electron_flux_angle_domain():
    s, o = unit_solenoid(), OrbitParams(R=1.0, u=1.0)
    with pytest.raises(DomainError):
        electron_flux_at_angle(1.7, o, s, K1)
    with pytest.raises(DomainError):
        electron_flux_at_angle(-3.0, o, s, K1)


def test_velocity_change_unit_parameters():
    s, o = unit_solenoid(), OrbitParams(R=1.0, u=1.0)
    assert cylinder_velocity_change(s, o, K1) == pytest.approx(1.0, rel=1e-15)


def test_velocity_change_quadrature_route():
    s, o = unit_solenoid(), OrbitParams(R=1.0, u=1.0)
    quad_value = velocity_change_by_quadrature(s, o, K1)
    assert quad_value == pytest.approx(1.0, rel=1e-9)


def test_velocity_change_quadrature_vs_closed_random():
    rng = np.random.default_rng(13)
    for _ in range(100):
        s, o, k = random_solenoid(rng), random_orbit(rng), random_constants(rng)
        closed = cylinder_velocity_change(s, o, k)
        numeric = velocity_change_by_quadrature(s, o, k)
        assert abs(numeric / closed - 1.0) < 1e-9


def test_velocity_change_quadrature_converges_at_two_panels(monkeypatch):
    # the integrand is a fixed multiple of cos(theta) on [-pi/2, pi/2], which
    # one 10-point panel integrates to ~1e-20: refinement compares 1 panel
    # with 2 and stops
    levels = []
    composite = quadrature.composite_gauss_legendre

    def counted(f, a, b, n_panels):
        levels.append(n_panels)
        return composite(f, a, b, n_panels)

    monkeypatch.setattr(quadrature, "composite_gauss_legendre", counted)
    rng = np.random.default_rng(19)
    for _ in range(100):
        s, o, k = random_solenoid(rng), random_orbit(rng), random_constants(rng)
        levels.clear()
        numeric = velocity_change_by_quadrature(s, o, k)
        assert levels == [1, 2]
        assert abs(numeric / cylinder_velocity_change(s, o, k) - 1.0) <= 1e-14


def test_velocity_change_integrand_against_scipy():
    # third route: QUADPACK on the same printed integrand
    s, o = unit_solenoid(M=2.0), OrbitParams(R=3.0, u=0.8)
    ref, _ = quad(
        lambda th: velocity_kick_integrand(th, s, o, K1),
        -math.pi / 2.0,
        math.pi / 2.0,
        epsabs=1e-14,
        epsrel=1e-13,
    )
    assert ref / s.M == pytest.approx(cylinder_velocity_change(s, o, K1), rel=1e-11)


def test_doubling_mass_halves_velocity_change():
    o = OrbitParams(R=1.0, u=1.0)
    base = cylinder_velocity_change(unit_solenoid(), o, K1)
    assert cylinder_velocity_change(unit_solenoid(M=2.0), o, K1) == pytest.approx(base / 2.0, rel=1e-15)


def test_displacement_unit_parameters():
    assert cylinder_displacement(unit_solenoid(), K1) == pytest.approx(math.pi, rel=1e-15)


def test_displacement_independent_of_orbit():
    # delta_v * (pi*R/u), the route through the kick, gives the same shift for every orbit
    s = unit_solenoid()
    direct = cylinder_displacement(s, K1)
    for o in (OrbitParams(R=1.0, u=1.0), OrbitParams(R=57.0, u=0.003)):
        via_kick = cylinder_velocity_change(s, o, K1) * (math.pi * o.R / o.u)
        assert abs(via_kick / direct - 1.0) <= 1e-14


def test_displacement_zero_for_uncharged_cylinder():
    assert cylinder_displacement(unit_solenoid(Q=0.0), K1) == 0.0


def test_de_broglie_scaled_unit_mass():
    assert de_broglie_wavelength(1.0, 1.0, K1) == pytest.approx(2.0 * math.pi, rel=1e-15)


def test_de_broglie_inverse_in_mass():
    lam = de_broglie_wavelength(1.0, 1.0, K1)
    assert de_broglie_wavelength(2.0, 1.0, K1) == pytest.approx(lam / 2.0, rel=1e-15)


def test_de_broglie_cgs_unit_mass_and_speed():
    k = make_constants("gaussian-cgs")
    assert de_broglie_wavelength(1.0, 1.0, k) == k.h


def test_de_broglie_domain():
    with pytest.raises(DomainError):
        de_broglie_wavelength(0.0, 1.0, K1)
    with pytest.raises(DomainError):
        de_broglie_wavelength(1.0, -1.0, K1)
    # M*v overflows to inf, underflows to 0, or is so small that h/(M*v) overflows
    for mass in (1e200, 1e-200, 1e-160):
        with pytest.raises(DomainError, match="must be positive and finite"):
            de_broglie_wavelength(mass, mass, K1)


@pytest.mark.parametrize(
    "formula, quotient",
    [
        (lambda s, o, k: solenoid_flux(s, k), "4*pi*Q*v*r/(c*L)"),
        (lambda s, o, k: ab_phase_direct(s, k), "4*pi*e*Q*v*r/(c^2*L*hbar)"),
        (cylinder_velocity_change, "u*Q*e*r/(c^2*M*R*L)"),
        (lambda s, o, k: cylinder_displacement(s, k), "pi*Q*e*r/(c^2*M*L)"),
    ],
    ids=["flux", "phase", "velocity_change", "displacement"],
)
def test_closed_form_whose_denominator_underflows_names_its_quotient(formula, quotient):
    # a denominator of 0.0 used to raise ZeroDivisionError
    k = K1._replace(c=1e-200)
    with pytest.raises(DomainError, match="^" + re.escape(quotient) + ": its denominator underflows to 0.0$"):
        formula(unit_solenoid(L=1e-200, M=1e-200), OrbitParams(R=1e-200, u=1.0), k)


def test_momentum_kick_unit_parameters():
    assert source_momentum_kick(unit_solenoid(), OrbitParams(R=1.0, u=1.0), K1) == pytest.approx(1.0)


def test_momentum_kick_mass_independent():
    o = OrbitParams(R=1.5, u=0.7)
    k1 = source_momentum_kick(unit_solenoid(M=1.0), o, K1)
    k2 = source_momentum_kick(unit_solenoid(M=123.0), o, K1)
    assert abs(k1 / k2 - 1.0) <= 1e-14


def test_momentum_kick_zero_for_static_electron():
    assert source_momentum_kick(unit_solenoid(), OrbitParams(R=1.0, u=0.0), K1) == 0.0


def test_local_model_phase_unit_parameters():
    res = local_model_phase(unit_solenoid(), OrbitParams(R=1.0, u=1.0), K1)
    assert res.flux == pytest.approx(FOUR_PI, rel=1e-15)
    assert res.phase_ab == pytest.approx(FOUR_PI, rel=1e-15)
    assert res.phase_local == pytest.approx(FOUR_PI, rel=1e-14)
    assert res.delta_v == pytest.approx(1.0, rel=1e-15)
    assert res.delta_x == pytest.approx(math.pi, rel=1e-15)
    assert res.lambda_db == pytest.approx(2.0 * math.pi, rel=1e-15)


def test_local_model_contributions():
    # four equal terms, one per (cylinder, branch); their sum is exactly 4 terms
    res = local_model_phase(unit_solenoid(), OrbitParams(R=2.0, u=0.5), K1)
    assert res.phase_local == 4.0 * (2.0 * math.pi * res.delta_x / res.lambda_db)


def test_local_model_identity_random_parameters():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        res = local_model_phase(random_solenoid(rng), random_orbit(rng), random_constants(rng))
        assert abs(res.phase_local / res.phase_ab - 1.0) < 1e-12


def test_visibility_pipeline_limits():
    s, o = unit_solenoid(), OrbitParams(R=2.0, u=1.0)
    kick = source_momentum_kick(s, o, K1)
    visibilities = []
    for ratio in (0.05, 0.2, 1.0, 5.0, 50.0):
        sigma_p = ratio * kick
        packet = GaussianPacket(x0=0.0, p0=0.0, sigma_x=K1.hbar / (2.0 * sigma_p))
        visibilities.append(visibility_from_overlap(packet_overlap(packet, 0.0, kick, K1.hbar)))
    assert all(b > a for a, b in zip(visibilities, visibilities[1:]))
    assert visibilities[0] < 1e-10
    assert visibilities[-1] > 0.9999


def test_long_solenoid_note_threshold():
    assert long_solenoid_note(1.0, 2.0) == (
        "aspect ratio r/L = 0.5 exceeds 0.1; the long-solenoid flux formula is strained"
    )
    assert long_solenoid_note(1.0, 20.0) is None  # r/L = 0.05
    assert long_solenoid_note(1.0, 0.0) is None
    assert long_solenoid_note(1.0, math.nan) is None


def test_strained_solenoid_builds_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = SolenoidParams(r=1.0, L=1.0, M=1.0, Q=1.0, v=1.0)
    assert s.r / s.L == 1.0


def test_parameter_validation():
    with pytest.raises(ValidationError):
        unit_solenoid(r=-1.0)
    with pytest.raises(ValidationError):
        unit_solenoid(v=0.0)  # matter wavelength diverges at zero surface speed
    with pytest.raises(ValidationError):
        OrbitParams(R=0.0, u=1.0)
    with pytest.raises(ValidationError):
        OrbitParams(R=1.0, u=-0.5)
