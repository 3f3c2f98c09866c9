"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the line per
criterion.  Tolerances are pinned here and nowhere looser.
"""

import cmath
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from abclab import (
    BounceConfig,
    CircleLoop,
    FULL_LAW,
    GaussianPacket,
    LineCharge,
    NAIVE_LAW,
    NeutronModel,
    OrbitParams,
    PhysicalConstants,
    SolenoidParams,
    TrajectoryState,
    Vec3,
    acceleration_law,
    ac_phase,
    cylinder_displacement,
    cylinder_velocity_change,
    detector_probabilities,
    field_at,
    line_field,
    load_scenario,
    local_model_phase,
    make_constants,
    make_three_charge,
    overlap_by_quadrature,
    packet_overlap,
    phase_from_path_shift,
    potential_at,
    render_csv,
    render_json,
    run_scenario,
    run_verify_suite,
    simulate_bounce_experiment,
    source_momentum_kick,
    step_trajectory,
    velocity_change_by_quadrature,
    visibility_from_overlap,
)

K1 = make_constants("scaled-unity")
DATA_DIR = Path(__file__).parent / "data"
SCENARIO_DIR = Path(__file__).parent.parent / "scenarios"


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS  {description}")


def _log_uniform(rng, lo=1e-3, hi=1e3):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def _random_setup(rng):
    s = SolenoidParams(
        r=_log_uniform(rng), L=_log_uniform(rng), M=_log_uniform(rng),
        Q=_log_uniform(rng), v=_log_uniform(rng),
    )
    o = OrbitParams(R=_log_uniform(rng), u=_log_uniform(rng))
    hbar = _log_uniform(rng)
    k = PhysicalConstants(e=_log_uniform(rng), c=_log_uniform(rng), hbar=hbar)
    return s, o, k


def test_criterion_01_local_phase_identity():
    with criterion(1, "local matter-wave phase reproduces the flux phase on 1000 random sets"):
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(1000):
            s, o, k = _random_setup(rng)
            res = local_model_phase(s, o, k)
            worst = max(worst, abs(res.phase_local / res.phase_ab - 1.0))
        assert worst < 1e-12


def test_criterion_02_velocity_kick_quadrature_oracle():
    with criterion(2, "Gauss-Legendre velocity kick matches the closed form (100 sets, < 1 s)"):
        rng = np.random.default_rng(202)
        setups = [_random_setup(rng) for _ in range(100)]
        closed = [cylinder_velocity_change(s, o, k) for s, o, k in setups]
        start = time.perf_counter()
        numeric = [velocity_change_by_quadrature(s, o, k) for s, o, k in setups]
        elapsed = time.perf_counter() - start
        worst = max(abs(n / c - 1.0) for n, c in zip(numeric, closed))
        assert worst < 1e-9
        assert elapsed < 1.0


def test_criterion_03_displacement_orbit_invariance():
    with criterion(3, "cylinder displacement via the kick is independent of orbit radius and speed"):
        rng = np.random.default_rng(303)
        for _ in range(100):
            s, _, k = _random_setup(rng)
            o1 = OrbitParams(R=_log_uniform(rng), u=_log_uniform(rng))
            o2 = OrbitParams(R=_log_uniform(rng), u=_log_uniform(rng))
            direct = cylinder_displacement(s, k)
            for o in (o1, o2):
                via_kick = cylinder_velocity_change(s, o, k) * (math.pi * o.R / o.u)
                assert abs(via_kick / direct - 1.0) <= 1e-14


def test_criterion_04_detector_routing():
    with criterion(4, "phase 0 routes to A, phase pi routes to B, half-wavelength shift is pi"):
        at_zero = detector_probabilities(0.0, 1.0)
        assert abs(at_zero.p_a - 1.0) <= 1e-12
        at_pi = detector_probabilities(math.pi, 1.0)
        assert abs(at_pi.p_b - 1.0) <= 1e-12
        assert abs(phase_from_path_shift(0.5, 1.0) - math.pi) <= 1e-12


def test_criterion_05_force_equals_momentum_rate():
    with criterion(5, "dipole force equals the hidden-momentum rate (1000 samples, FD cross-check)"):
        lc = LineCharge(lambda_c=1.0)
        mu = 1.0

        # the laws the dynamics integrates, at unit inverse mass: the naive
        # law's acceleration is F, the full law's F - (v . grad)p_h
        unit = NeutronModel(mass=1.0, mu_z=mu)
        laws = {naive: acceleration_law(lc, unit, NAIVE_LAW if naive else FULL_LAW, K1) for naive in (True, False)}

        def kernel(naive, pos, vel):
            return Vec3(*laws[naive](pos.x, pos.y, vel.x, vel.y), 0.0)

        rng = np.random.default_rng(505)
        for _ in range(1000):
            rho = _log_uniform(rng, 0.1, 10.0)
            angle = float(rng.uniform(0.0, 2.0 * math.pi))
            pos = Vec3(rho * math.cos(angle), rho * math.sin(angle), float(rng.uniform(-1, 1)))
            vel = Vec3(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)), 0.0)
            force, diff = kernel(True, pos, vel), kernel(False, pos, vel)
            assert max(abs(diff.x), abs(diff.y)) <= 1e-10 * max(force.norm(), 1e-300)

        # independent oracle: central finite differences of the line field,
        # observed order >= 2, with Richardson extrapolation on top
        def fd_force(pos, vel, h):
            d = vel.cross(Vec3(0.0, 0.0, mu)) * (1.0 / K1.c)
            dedx = (line_field(lc, Vec3(pos.x + h, pos.y, 0.0)) - line_field(lc, Vec3(pos.x - h, pos.y, 0.0))) * (
                1.0 / (2.0 * h)
            )
            dedy = (line_field(lc, Vec3(pos.x, pos.y + h, 0.0)) - line_field(lc, Vec3(pos.x, pos.y - h, 0.0))) * (
                1.0 / (2.0 * h)
            )
            return dedx * d.x + dedy * d.y

        for pos, vel in ((Vec3(1.1, 0.7, 0.0), Vec3(0.8, -0.5, 0.0)), (Vec3(-0.9, 1.4, 0.0), Vec3(-0.3, 1.1, 0.0))):
            exact = kernel(True, pos, vel)
            hs = (0.04, 0.02, 0.01)
            errors = [(fd_force(pos, vel, h) - exact).norm() for h in hs]
            orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
            # raw central differences: second order up to the O(h^2) width of
            # the order estimate itself
            assert min(orders) >= 1.99
            rich_errors = [
                ((fd_force(pos, vel, h / 2.0) * 4.0 - fd_force(pos, vel, h)) * (1.0 / 3.0) - exact).norm()
                for h in hs
            ]
            rich_orders = [math.log2(a / b) for a, b in zip(rich_errors, rich_errors[1:])]
            assert min(rich_orders) >= 2.0  # Richardson sequence runs at ~4
            assert rich_errors[-1] <= errors[-1] / 10.0


def _step(lc, neutron, state, dt, law, k) -> TrajectoryState:
    # one RK4 step of a TrajectoryState through the law builder and the float stepper
    return TrajectoryState(*step_trajectory(acceleration_law(lc, neutron, law, k), dt, *state))


def _naive_endpoint(n_steps: int, total_time: float = 1.0) -> TrajectoryState:
    lc = LineCharge(lambda_c=1.0)
    neutron = NeutronModel(mass=1.0, mu_z=1.0)
    state = TrajectoryState(0.0, 2.0, 0.6, -1.0, 0.3)
    dt = total_time / n_steps
    for _ in range(n_steps):
        state = _step(lc, neutron, state, dt, NAIVE_LAW, K1)
    return state


def test_criterion_06_no_classical_lag_and_integrator_order():
    with criterion(6, "corrected law holds speed over 1e4 steps; halving dt cuts error ~16x"):
        lc = LineCharge(lambda_c=1.0)
        neutron = NeutronModel(mass=1.0, mu_z=1.0)
        state = TrajectoryState(0.0, 2.5, 0.8, -1.2, 0.7)
        speed0 = math.hypot(state.vx, state.vy)
        for _ in range(10_000):
            state = _step(lc, neutron, state, 1e-3, FULL_LAW, K1)
        assert abs(math.hypot(state.vx, state.vy) / speed0 - 1.0) < 1e-8

        # The corrected law cancels the force identically, so its drift has no
        # truncation term to converge; fourth order is exhibited on the bare
        # force law, where the error is nonzero.
        reference = _naive_endpoint(4096)

        def error(n_steps):
            end = _naive_endpoint(n_steps)
            return math.hypot(end.x - reference.x, end.y - reference.y) + math.hypot(
                end.vx - reference.vx, end.vy - reference.vy
            )

        ratio = error(128) / error(256)
        assert 12.0 <= ratio <= 20.0


def test_criterion_07_bounce_paradox_and_resolution():
    with criterion(7, "bare force law pumps bounce energy (matching its work integral); corrected law conserves"):
        lc = LineCharge(lambda_c=0.05)
        neutron = NeutronModel(mass=1.0, mu_z=1.0)
        start = TrajectoryState(0.0, 3.0, 0.5, -2.0, 0.0)
        naive = simulate_bounce_experiment(
            lc, neutron, BounceConfig(mirror_a=1.5, mirror_b=3.0, n_bounces=10, dt=1.0 / 256.0, law=NAIVE_LAW),
            start, K1,
        )
        kes = [naive.initial_kinetic_energy, *naive.bounce_kinetic_energies]
        assert len(kes) == 11
        assert all(b > a for a, b in zip(kes, kes[1:]))
        for gain, work in zip(naive.ke_gain_per_leg, naive.work_per_leg):
            assert abs(gain / work - 1.0) < 1e-6
        full = simulate_bounce_experiment(
            lc, neutron, BounceConfig(mirror_a=1.5, mirror_b=3.0, n_bounces=10, dt=1.0 / 256.0, law=FULL_LAW),
            start, K1,
        )
        assert abs(full.bounce_kinetic_energies[-1] / full.initial_kinetic_energy - 1.0) < 1e-6


def test_criterion_08_loop_phase_values():
    with criterion(8, "loop phase is 4 pi mu lambda/(hbar c) at two radii and zero off the line"):
        lc = LineCharge(lambda_c=1.0)
        mu = 1.0
        expected = 4.0 * math.pi * 1.0 * 1.0 / (K1.hbar * K1.c)
        for radius in (0.8, 2.5):
            phase = ac_phase(lc, mu, CircleLoop(center=Vec3(0.0, 0.0, 0.0), radius=radius), K1)
            assert abs(phase / expected - 1.0) < 1e-9
        outside = ac_phase(lc, mu, CircleLoop(center=Vec3(5.0, 0.0, 0.0), radius=1.0), K1)
        assert abs(outside) <= 1e-10


def test_criterion_09_three_charge_configuration():
    with criterion(9, "three-charge fields vanish at every particle; electron potential is 8e/d"):
        rng = np.random.default_rng(909)
        for _ in range(50):
            d = _log_uniform(rng)
            e = _log_uniform(rng)
            cfg = make_three_charge(d, e)
            for i in range(3):
                assert field_at(cfg, i).norm() < 1e-12 * e / d ** 2
            assert abs(potential_at(cfg, 0) / (8.0 * e / d) - 1.0) <= 1e-14


def test_criterion_10_visibility_pipeline():
    with criterion(10, "overlap closed form matches integration; visibility rises with spread/kick"):
        rng = np.random.default_rng(1010)
        for _ in range(100):
            sigma = _log_uniform(rng, 0.3, 3.0)
            packet = GaussianPacket(x0=float(rng.uniform(-2, 2)), p0=float(rng.uniform(-2, 2)), sigma_x=sigma)
            dx = float(rng.uniform(-2.0, 2.0)) * sigma
            dp = float(rng.uniform(-2.0, 2.0)) / sigma
            closed = packet_overlap(packet, dx, dp, 1.0)
            numeric = overlap_by_quadrature(packet, dx, dp, 1.0)
            assert abs(closed - numeric) / abs(closed) < 1e-8

        s = SolenoidParams(r=1.0, L=1.0, M=1.0, Q=1.0, v=1.0)
        kick = source_momentum_kick(s, OrbitParams(R=2.0, u=1.0), K1)
        ratios = [10.0 ** x for x in np.linspace(-2.0, 2.0, 20)]
        visibilities = []
        for ratio in ratios:
            sigma_p = ratio * kick
            packet = GaussianPacket(x0=0.0, p0=0.0, sigma_x=K1.hbar / (2.0 * sigma_p))
            visibilities.append(visibility_from_overlap(packet_overlap(packet, 0.0, kick, K1.hbar)))
        assert all(b >= a for a, b in zip(visibilities, visibilities[1:]))
        assert all(b > a for a, b in zip(visibilities[1:], visibilities[2:]))  # strict once above underflow
        assert visibilities[-1] > 0.999
        assert visibilities[0] < 0.01


def test_criterion_11_determinism_and_golden_file(verify_seed42):
    with criterion(11, "seeded verify reports are byte-identical; golden CSV matches"):
        first = verify_seed42
        second = run_verify_suite(seed=42)
        assert render_json(first) == render_json(second)
        assert render_csv(first) == render_csv(second)
        assert first.all_passed

        report = run_scenario(load_scenario(str(SCENARIO_DIR / "ab_solenoid_unit.yaml")))
        golden = (DATA_DIR / "golden_ab_solenoid.csv").read_bytes()
        assert render_csv(report).encode() == golden
