import functools
import math
import warnings

import numpy as np
import pytest

from abclab import boyer, interferometry, run_verify_suite, solenoid, verify
from abclab.errors import ConsistencyError


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


def test_sign_draw_is_generator_choice_bit_for_bit():
    # overlap_magnitude_bound draws each sign as rng.integers(0, 2) indexing
    # (-1.0, 1.0), which is what Generator.choice does with a two-element list
    for seed in range(200):
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(10):
            assert verify._sign(ours).hex() == float(numpys.choice([-1.0, 1.0])).hex()
            assert ours.random().hex() == numpys.random().hex()  # same stream position
        assert ours.bit_generator.state == numpys.bit_generator.state


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
    monkeypatch.setattr(boyer, "step_trajectory", lambda *args: (math.nan,) * 5)
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
    naive, full = verify._UNIT_NAIVE_LAW, verify._UNIT_FULL_LAW

    def off(x, y, vx, vy):
        ax, ay = full(x, y, vx, vy)
        fx, fy = naive(x, y, vx, vy)
        return ax + 1e-11 * math.hypot(fx, fy), ay  # at unit inverse mass, as the row reads it

    monkeypatch.setattr(verify, "_UNIT_FULL_LAW", off)
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


# The claims whose draws read a fixed count of uniforms: (residual, draws, uniforms).
BLOCK_CLAIMS = {
    "cross_antisymmetry": (verify._cross_antisymmetry, 500, 6),
    "cross_orthogonality": (verify._cross_orthogonality, 500, 6),
    "detector_probability_sum": (verify._probability_sum, 500, 2),
    "detector_phase_periodicity": (verify._phase_periodicity, 200, 2),
    "overlap_closed_vs_quadrature": (verify._overlap_quadrature, 120, 5),
    "factor4_identity": (verify._factor4_identity, 1000, 10),
    "velocity_kick_quadrature": (verify._velocity_kick_quadrature, 100, 10),
    "displacement_orbit_invariance": (verify._displacement_invariance, 100, 12),
    "flux_phase_linearity": (verify._flux_phase_linearity, 100, 9),
    "flux_chain_consistency": (verify._flux_chain_consistency, 1000, 8),
    "boyer_force_equals_momentum_rate": (verify._force_equals_rate, 1000, 5),
    "ac_phase_linearity": (verify._ac_phase_linearity, 20, 3),
    "field_free_three_charge": (verify._three_charge, 100, 2),
    "potential_at_electron": (verify._three_charge_potential, 100, 2),
}


def _registered(name, draws, uniforms=None):
    # the check _claim builds for one residual, outside the catalogue
    residual = BLOCK_CLAIMS[name][0]
    catalogue = verify._CHECKS
    verify._CHECKS = []
    try:
        verify._claim(name, draws, uniforms=uniforms)(residual)
        (check,) = verify._CHECKS
    finally:
        verify._CHECKS = catalogue
    return check


@pytest.mark.parametrize("seed", [0, 1, 42, 123456])
def test_block_claims_draw_what_the_generator_draws(monkeypatch, seed):
    # each block claim of the catalogue gives the row that per-draw random()
    # calls give, and leaves the generator in the same state; the claims
    # that take blocks, and their sizes, are the ones declared above
    blocks = []

    class Recorded(verify._Block):
        def __init__(self, doubles):
            blocks.append(len(doubles))
            super().__init__(doubles)

    monkeypatch.setattr(verify, "_Block", Recorded)
    shipped = {}
    for check in verify._CHECKS:
        rng = np.random.default_rng(seed)
        before = len(blocks)
        rows = check(rng)
        for row in rows if isinstance(rows, list) else [rows]:
            shipped[row.name] = row, rng.bit_generator.state, blocks[before:]
    assert {name for name, (_, _, made) in shipped.items() if made} == set(BLOCK_CLAIMS)
    for name, (_, draws, uniforms) in BLOCK_CLAIMS.items():
        row, state, made = shipped[name]
        assert made == [draws * uniforms], name
        rng = np.random.default_rng(seed)
        per_draw = _registered(name, draws)(rng)
        assert repr(row) == repr(per_draw), name  # every field, the residual too, to the bit
        assert state == rng.bit_generator.state, name


@pytest.mark.parametrize("name", ["flux_chain_consistency", "cross_antisymmetry"])
@pytest.mark.parametrize("miscount", [-1, 1])
def test_a_claim_that_misdeclares_its_uniforms_raises_naming_it(name, miscount):
    # a miscount would shift every later draw without a sign; a draw that
    # reads more or fewer than declared raises at once, also past the
    # block's end (one draw)
    _, draws, uniforms = BLOCK_CLAIMS[name]
    for n_draws in (draws, 1):
        check = _registered(name, n_draws, uniforms + miscount)
        with pytest.raises(ConsistencyError, match=name):
            check(np.random.default_rng(0))


def _reference_worst(residuals, floor=0.0):
    # the rule _worst implements: a worst-of-N by verify.worse
    return functools.reduce(lambda worst, r: r if verify.worse(r, worst) else worst, residuals, floor)


@pytest.mark.parametrize(
    "residuals",
    [
        [math.nan, 1.0, 2.0],
        [1.0, math.nan, 2.0],
        [1.0, 2.0, math.nan],
        [math.inf, -math.inf],
        [math.inf, -math.inf, math.nan],
        [math.nan, -math.inf, math.inf],
        [0.0, -0.0],
        [-0.0, 0.0],
        [-0.0, 0.0, -1.0],
        [1.0, 0.5],
        [0.25, 1e308, 1e308, -1.0],
        [],
    ],
)
@pytest.mark.parametrize("floor", [0.0, -0.0, 1.0, -math.inf])
def test_worst_and_least_follow_the_worse_rule(residuals, floor):
    # the fast path ranks as reduce-with-worse does: NaN-sticky, the first
    # of ties (0.0 against -0.0 too), and the floor against a residual equal
    # to it; repr tells NaN and the zeros' signs apart
    assert repr(verify._worst(residuals, floor)) == repr(_reference_worst(residuals, floor))
    assert repr(verify._worst((r for r in residuals), floor)) == repr(_reference_worst(residuals, floor))
    assert repr(verify._least(r for r in residuals)) == repr(-_reference_worst((-r for r in residuals), -math.inf))


def _rk4_variant(divisor=6.0, stage4_from_ax2=False):
    # boyer.step_trajectory's arithmetic, with the weights' divisor and the
    # acceleration that builds stage 4's velocity as parameters
    def rk4(accel, dt, t, x0, y0, vx0, vy0, a1=None):
        half = 0.5 * dt
        ax1, ay1 = accel(x0, y0, vx0, vy0)
        vx2, vy2 = vx0 + ax1 * half, vy0 + ay1 * half
        ax2, ay2 = accel(x0 + vx0 * half, y0 + vy0 * half, vx2, vy2)
        vx3, vy3 = vx0 + ax2 * half, vy0 + ay2 * half
        ax3, ay3 = accel(x0 + vx2 * half, y0 + vy2 * half, vx3, vy3)
        bx, by = (ax2, ay2) if stage4_from_ax2 else (ax3, ay3)
        vx4, vy4 = vx0 + bx * dt, vy0 + by * dt
        ax4, ay4 = accel(x0 + vx3 * dt, y0 + vy3 * dt, vx4, vy4)
        sixth = dt / divisor
        return (
            t + dt,
            x0 + (vx0 + (vx2 + vx3) * 2.0 + vx4) * sixth,
            y0 + (vy0 + (vy2 + vy3) * 2.0 + vy4) * sixth,
            vx0 + (ax1 + (ax2 + ax3) * 2.0 + ax4) * sixth,
            vy0 + (ay1 + (ay2 + ay3) * 2.0 + ay4) * sixth,
        )

    return rk4


@pytest.mark.parametrize(
    "variant, order",
    [({}, 4.0), ({"divisor": 6.01}, 1.0), ({"stage4_from_ax2": True}, 3.0)],
    ids=["rk4", "wrong_weights", "third_order"],
)
def test_rk4_order_row_measures_the_order_of_the_stepper(monkeypatch, variant, order):
    # the order comes from the gaps between endpoints at 128, 256 and 512
    # steps; an RK4 with wrong weights (order 1) or a stage 4 built from
    # the second stage (order 3) FAILs, and the faithful copy reads the
    # shipped row to the bit
    shipped = verify._rk4_order(None)
    monkeypatch.setattr(boyer, "step_trajectory", _rk4_variant(**variant))
    row = verify._rk4_order(None)
    assert row.actual == pytest.approx(order, abs=0.05)
    assert row.passed == (order == 4.0)
    assert (row == shipped) == (order == 4.0)
