import math
import warnings

import numpy as np
import pytest

from abclab import boyer, interferometry, run_verify_suite, solenoid, verify


def test_uniform_draw_is_generator_uniform_bit_for_bit():
    # verify's draws are lo + (hi - lo) * random(), which is what Generator.uniform
    # computes; a numpy build that fused the multiply-add would fail here
    bounds = np.random.default_rng(2718)
    pairs = [(-20.0, 20.0), (0.0, 1.0), (0.0, 2.0 * math.pi), (math.log(1e-3), math.log(1e3))]
    for _ in range(2000):
        scale = math.exp(float(bounds.uniform(math.log(1e-6), math.log(1e6))))
        lo = float(bounds.uniform(-1.0, 1.0)) * scale
        pairs.append((lo, lo + float(bounds.uniform(1e-3, 2.0)) * scale))
    for seed, (lo, hi) in enumerate(pairs):
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            assert verify._uniform(ours, lo, hi).hex() == float(numpys.uniform(lo, hi)).hex()
            assert ours.random().hex() == numpys.random().hex()  # same stream position


def test_verify_suite_lets_no_warning_escape():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        before = list(warnings.filters)
        report = run_verify_suite(7)
        assert warnings.filters == before
    assert report.all_passed


@pytest.mark.parametrize("flight", [verify._full_law_speed, verify._rk4_order], ids=["full_law", "rk4_order"])
def test_non_finite_flight_fails_its_row(monkeypatch, flight):
    # a flight that goes non-finite is a FAIL row (exit 1); it used to raise
    # ValidationError, which verify reports as invalid input (exit 2)
    monkeypatch.setattr(boyer, "_rk4", lambda *args: (math.nan,) * 4)
    row = flight(np.random.default_rng(0))
    assert not row.passed and math.isnan(row.actual)


def test_scaled_emf_flux_profile_fails_only_the_kick_quadrature(monkeypatch):
    # the kick integrand is built from electron_flux_at_angle, so the
    # quadrature row also judges the profile's magnitude; its shape rows are
    # blind to a uniform scale
    flux = solenoid.electron_flux_at_angle
    monkeypatch.setattr(solenoid, "electron_flux_at_angle", lambda *args: flux(*args) * (1.0 + 1e-6))
    assert [c.name for c in run_verify_suite(42).checks if not c.passed] == ["velocity_kick_quadrature"]


@pytest.mark.parametrize(
    "module, closed_form, row",
    [
        (interferometry, "packet_overlap", "overlap_closed_vs_quadrature"),
        (solenoid, "cylinder_velocity_change", "velocity_kick_quadrature"),
    ],
)
def test_quadrature_row_fails_a_closed_form_off_by_1e_10(monkeypatch, module, closed_form, row):
    # both quadratures converge to a relative 1e-12, and so does each row's
    # tolerance; a closed form off by 1e-10 is a FAIL
    closed = getattr(module, closed_form)
    monkeypatch.setattr(module, closed_form, lambda *args: closed(*args) * (1.0 + 1e-10))
    [check] = [c for c in run_verify_suite(42).checks if c.name == row]
    assert not check.passed and check.actual == pytest.approx(1e-10, rel=1e-3)


def test_force_equals_rate_row_fails_a_full_law_off_by_1e_11(monkeypatch):
    # the row reads exactly 0.0 at every seed tried, so its tolerance is a few
    # ulps, and a full law off by 1e-11 of |F| is a FAIL
    acceleration = boyer._acceleration

    def off(lc, mu_z, inv_c, inv_m, naive, x, y, vx, vy):
        ax, ay = acceleration(lc, mu_z, inv_c, inv_m, naive, x, y, vx, vy)
        if naive:
            return ax, ay
        fx, fy = acceleration(lc, mu_z, inv_c, inv_m, True, x, y, vx, vy)
        return ax + 1e-11 * math.hypot(fx, fy) * inv_m, ay

    monkeypatch.setattr(boyer, "_acceleration", off)
    [row] = [c for c in run_verify_suite(42).checks if c.name == "boyer_force_equals_momentum_rate"]
    assert not row.passed and row.actual == pytest.approx(1e-11, rel=1e-3)


def test_field_residual_never_squares_d():
    # equal to the bit to magnitude/(e/(d*d)) wherever d*d is a normal float;
    # beyond, it is formed from d's mantissa, and an overflowing scaled
    # magnitude reads inf, so the claim FAILs without a traceback
    rng = np.random.default_rng(21)
    for _ in range(200):
        d, e, magnitude = (float(10.0 ** rng.uniform(lo, hi)) for lo, hi in ((-6, 6), (-3, 3), (-20, 3)))
        assert verify.field_residual(magnitude, d, e) == magnitude / (e / (d * d))
    assert verify.field_residual(2.0 ** -600, 2.0 ** 300, 1.0) == 1.0
    assert verify.field_residual(1e308, 1.0, 1.0) == math.inf
