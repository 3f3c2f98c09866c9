import functools
import math
import random
import sys
import warnings
from collections import Counter

import numpy as np
import pytest

from abclab import boyer, interferometry, render_csv, render_json, run_verify_suite, solenoid, verify


def test_uniform_draw_is_generator_uniform_bit_for_bit():
    # verify's draws are lo + (hi - lo) * random(), which is what
    # random.Random.uniform computes
    bounds = np.random.default_rng(2718)
    pairs = [(-20.0, 20.0), (0.0, 1.0), (0.0, 2.0 * math.pi), (math.log(1e-3), math.log(1e3))]
    for _ in range(2000):
        scale = math.exp(float(bounds.uniform(math.log(1e-6), math.log(1e6))))
        lo = float(bounds.uniform(-1.0, 1.0)) * scale
        pairs.append((lo, lo + float(bounds.uniform(1e-3, 2.0)) * scale))
    for seed, (lo, hi) in enumerate(pairs):
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(3):
            assert verify._uniform(ours, lo, hi).hex() == theirs.uniform(lo, hi).hex()
            assert ours.random().hex() == theirs.random().hex()  # same stream position


def test_sign_draw_reads_one_random():
    # overlap_magnitude_bound draws each sign from one random(), below or
    # above one half, and nothing else from the generator
    signs = Counter()
    for seed in range(200):
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(10):
            sign = verify._sign(ours)
            assert sign.hex() == (1.0 if theirs.random() < 0.5 else -1.0).hex()
            signs[sign] += 1
        assert ours.getstate() == theirs.getstate()
    assert set(signs) == {-1.0, 1.0}


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
    row = flight(None)
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


def test_full_law_row_fails_a_full_law_off_by_1e_6_in_its_256_steps(monkeypatch):
    # the flight's 256 steps of 0.04 s integrate a broken cancellation into a
    # speed miss of about 4.8e-7, as 10,000 steps of 1e-3 s along the same
    # path do, and the steps it takes are pinned with the miss
    naive, full = verify._UNIT_NAIVE_LAW, verify._UNIT_FULL_LAW

    def off(x, y, vx, vy):
        ax, ay = full(x, y, vx, vy)
        fx, fy = naive(x, y, vx, vy)
        return ax + 1e-6 * fx, ay + 1e-6 * fy

    monkeypatch.setattr(verify, "_UNIT_FULL_LAW", off)
    [row] = [c for c in run_verify_suite(42).checks if c.name == "full_law_no_classical_lag"]
    assert not row.passed and row.actual == pytest.approx(4.8e-7, rel=1e-2)

    step, calls = boyer.step_trajectory, []

    def counted(*args):
        calls.append(None)
        return step(*args)

    monkeypatch.setattr(boyer, "step_trajectory", counted)
    verify._full_law_speed(None)
    assert len(calls) == 256


def test_full_law_bounce_row_reads_a_broken_full_law_at_either_step(monkeypatch):
    # the full-law bounce flies 10 legs of 24 steps of 1/32 s; its kinetic
    # energy drift integrates a broken cancellation along the path, so a full
    # law off by 1e-5 of the naive acceleration FAILs and reads at 1/32 s what
    # it reads at 1/256 s, and the unit law reads 0.0
    callers, step = Counter(), boyer.step_trajectory

    def counted(*args):
        callers[sys._getframe(1).f_code.co_name] += 1
        return step(*args)

    with monkeypatch.context() as patched:
        patched.setattr(boyer, "step_trajectory", counted)
        [row] = verify._full_law_bounce(None)
    assert row.passed and row.actual == 0.0
    # one advance step and one Simpson midpoint per step, and every leg lands
    # on a step boundary, so no landing iterate
    assert callers == {"simulate_bounce_experiment": 240, "_work_over_substep": 240}
    law = boyer.acceleration_law

    def off_by_1e_5(lc, n, name, k):
        accel = law(lc, n, name, k)
        if name != boyer.FULL_LAW:
            return accel
        naive = law(lc, n, boyer.NAIVE_LAW, k)

        def broken(x, y, vx, vy):
            (ax, ay), (fx, fy) = accel(x, y, vx, vy), naive(x, y, vx, vy)
            return ax + 1e-5 * fx, ay + 1e-5 * fy

        return broken

    monkeypatch.setattr(boyer, "acceleration_law", off_by_1e_5)
    [coarse] = [c for c in run_verify_suite(42).checks if c.name == "energy_conserved_full_law"]
    monkeypatch.setattr(verify, "_BOUNCE_DT", 1.0 / 256.0)
    [fine] = verify._full_law_bounce(None)
    assert not coarse.passed and not fine.passed
    assert coarse.actual == pytest.approx(1.459461e-6, rel=1e-6)
    assert coarse.actual == pytest.approx(fine.actual, rel=1e-6)


def test_naive_bounce_work_row_fails_a_second_order_work_rule(monkeypatch):
    # at 1/32 s the truncation errors are large enough that a Simpson work
    # rule whose midpoint is the chord midpoint, the mean of the step's start
    # and RK4 end states, misses the kinetic energy gain (about 2.5e-5); at
    # 1/256 s it reads about 3.9e-7 and passes.  The RK4 half-step midpoint
    # keeps the rule fourth-order and passes, and so does the energy row.
    growth, work = verify._naive_bounce(None)
    assert growth.passed and work.passed

    def chord_midpoint(accel, mass, start, h, a, power_start, power_end):
        end = boyer.step_trajectory(accel, h, *start, a)
        _, x, y, vx, vy = (0.5 * (p + q) for p, q in zip(start, end))
        ax, ay = accel(x, y, vx, vy)
        return h / 6.0 * (power_start + 4.0 * ((ax * vx + ay * vy) * mass) + power_end)

    monkeypatch.setattr(boyer, "_work_over_substep", chord_midpoint)
    growth, work = verify._naive_bounce(None)
    assert growth.passed and not work.passed
    assert work.actual == pytest.approx(2.48e-5, rel=1e-2)


@pytest.mark.parametrize("seed", [0, 42])
def test_log_uniforms_are_log_uniform_draws_bit_for_bit(seed):
    # one list draw gives the doubles that n _log_uniform calls give, in
    # order, and leaves the generator where they leave it
    ours, theirs = random.Random(seed), random.Random(seed)
    for n in [0, 1, 2, 3, 5, 10, 2]:
        drawn = [x.hex() for x in verify._log_uniforms(ours, n)]
        assert drawn == [verify._log_uniform(theirs, 1e-3, 1e3).hex() for _ in range(n)]
        assert ours.getstate() == theirs.getstate()


def test_random_rotation_is_a_proper_rotation_to_a_few_ulps():
    # Shoemake's quaternion gives an orthonormal matrix of determinant +1,
    # with no reflection to undo, at every draw
    rng = random.Random(3)
    for _ in range(10_000):
        rows = verify._random_rotation(rng)
        for i, a in enumerate(rows):
            for j, b in enumerate(rows):
                assert abs(sum(p * q for p, q in zip(a, b)) - (i == j)) < 8 * sys.float_info.epsilon
        (a, b, c), (d, e, f), (g, h, k) = rows
        det = a * (e * k - f * h) - b * (d * k - f * g) + c * (d * h - e * g)
        assert abs(det - 1.0) < 8 * sys.float_info.epsilon


def test_seed_past_64_bits_gives_the_same_report_twice():
    # random.Random takes any non-negative integer seed, whole
    first, second = run_verify_suite(2**64 + 1), run_verify_suite(2**64 + 1)
    assert render_json(first) == render_json(second)
    assert render_csv(first) == render_csv(second)
    assert render_json(first) != render_json(run_verify_suite(1))


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
