"""Seeded batch runner for every module's invariants and properties.

``run_verify_suite(seed)`` executes the whole property catalogue with a
deterministic random generator and returns a RunReport whose check rows name
the physics claims they audit.  Identical seeds produce byte-identical
reports; the CLI maps a non-empty failure set to a non-zero exit code.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np

from . import boyer, fieldfree, interferometry, solenoid
from .scenario import CheckRow, RunReport
from .units import GAUSSIAN_CGS, SCALED_UNITY, PhysicalConstants, Vec3, cross, make_constants

_K1 = make_constants(SCALED_UNITY)

# Shared bounce geometry: offset flight line past the charged line, both
# mirrors on the same side of closest approach so the naive force pumps
# energy on every leg.
_BOUNCE_LINE = boyer.LineCharge(lambda_c=0.05)
_BOUNCE_NEUTRON = boyer.NeutronModel(mass=1.0, mu=Vec3(0.0, 0.0, 1.0))
_BOUNCE_START = boyer.TrajectoryState(t=0.0, pos=Vec3(3.0, 0.5, 0.0), vel=Vec3(-2.0, 0.0, 0.0))
_BOUNCE_MIRRORS = (1.5, 3.0)
_BOUNCE_DT = 1.0 / 256.0
_BOUNCE_COUNT = 10


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _random_vec(rng: np.random.Generator, scale: float = 1.0) -> Vec3:
    return Vec3(
        float(rng.uniform(-scale, scale)),
        float(rng.uniform(-scale, scale)),
        float(rng.uniform(-scale, scale)),
    )


def _random_constants(rng: np.random.Generator) -> PhysicalConstants:
    e = _log_uniform(rng, 1e-3, 1e3)
    c = _log_uniform(rng, 1e-3, 1e3)
    hbar = _log_uniform(rng, 1e-3, 1e3)
    return PhysicalConstants(e=e, c=c, hbar=hbar, h=2.0 * math.pi * hbar)


def _random_solenoid(rng: np.random.Generator) -> solenoid.SolenoidParams:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", solenoid.LongSolenoidWarning)
        return solenoid.SolenoidParams(
            r=_log_uniform(rng, 1e-3, 1e3),
            L=_log_uniform(rng, 1e-3, 1e3),
            M=_log_uniform(rng, 1e-3, 1e3),
            Q=_log_uniform(rng, 1e-3, 1e3),
            v=_log_uniform(rng, 1e-3, 1e3),
        )


def _random_orbit(rng: np.random.Generator) -> solenoid.OrbitParams:
    return solenoid.OrbitParams(R=_log_uniform(rng, 1e-3, 1e3), u=_log_uniform(rng, 1e-3, 1e3))


def _check_cross_antisymmetry(rng) -> CheckRow:
    worst = 0.0
    for _ in range(500):
        a, b = _random_vec(rng, 10.0), _random_vec(rng, 10.0)
        residual = cross(a, b) + cross(b, a)
        worst = max(worst, abs(residual.x), abs(residual.y), abs(residual.z))
    return CheckRow("cross_antisymmetry", 0.0, worst, 1e-15, worst <= 1e-15)


def _check_cross_orthogonality(rng) -> CheckRow:
    worst = 0.0
    for _ in range(500):
        a, b = _random_vec(rng, 10.0), _random_vec(rng, 10.0)
        c = cross(a, b)
        norm = c.norm() * a.norm()
        if norm > 0.0:
            worst = max(worst, abs(c.dot(a)) / norm)
        norm = c.norm() * b.norm()
        if norm > 0.0:
            worst = max(worst, abs(c.dot(b)) / norm)
    return CheckRow("cross_orthogonality", 0.0, worst, 1e-12, worst <= 1e-12)


def _check_constants_deterministic(rng) -> CheckRow:
    same = all(
        make_constants(system) == make_constants(system) for system in (GAUSSIAN_CGS, SCALED_UNITY)
    )
    return CheckRow("constants_deterministic", "bit-identical", 0.0 if same else 1.0, 0.0, same)


def _check_probability_sum(rng) -> CheckRow:
    worst = 0.0
    for _ in range(500):
        phase = float(rng.uniform(-20.0, 20.0))
        vis = float(rng.uniform(0.0, 1.0))
        p = interferometry.detector_probabilities(phase, vis)
        worst = max(worst, abs(p.p_a + p.p_b - 1.0))
    return CheckRow("detector_probability_sum", 0.0, worst, 1e-15, worst <= 1e-15)


def _check_phase_periodicity(rng) -> CheckRow:
    worst = 0.0
    for _ in range(200):
        phase = float(rng.uniform(-10.0, 10.0))
        vis = float(rng.uniform(0.0, 1.0))
        p1 = interferometry.detector_probabilities(phase, vis)
        p2 = interferometry.detector_probabilities(phase + 2.0 * math.pi, vis)
        worst = max(worst, abs(p1.p_a - p2.p_a), abs(p1.p_b - p2.p_b))
    return CheckRow("detector_phase_periodicity", 0.0, worst, 1e-12, worst <= 1e-12)


def _check_overlap_identity(rng) -> CheckRow:
    worst = 0.0
    for _ in range(50):
        packet = interferometry.GaussianPacket(
            x0=float(rng.uniform(-2.0, 2.0)),
            p0=float(rng.uniform(-2.0, 2.0)),
            sigma_x=_log_uniform(rng, 0.1, 10.0),
            mass=1.0,
        )
        worst = max(worst, abs(abs(interferometry.packet_overlap(packet, 0.0, 0.0, 1.0)) - 1.0))
    return CheckRow("overlap_identity_is_one", 1.0, 1.0 + worst, 1e-15, worst <= 1e-15)


def _check_overlap_bound(rng) -> CheckRow:
    worst = 0.0
    for _ in range(300):
        packet = interferometry.GaussianPacket(
            x0=float(rng.uniform(-5.0, 5.0)),
            p0=float(rng.uniform(-5.0, 5.0)),
            sigma_x=_log_uniform(rng, 1e-2, 1e2),
            mass=1.0,
        )
        dx = float(rng.choice([-1.0, 1.0])) * _log_uniform(rng, 1e-3, 1e2) * packet.sigma_x
        dp = float(rng.choice([-1.0, 1.0])) * _log_uniform(rng, 1e-3, 1e2) / packet.sigma_x
        worst = max(worst, abs(interferometry.packet_overlap(packet, dx, dp, 1.0)))
    return CheckRow("overlap_magnitude_bound", "< 1 when displaced", worst, 1.0, worst < 1.0)


def _check_overlap_quadrature(rng) -> CheckRow:
    worst = 0.0
    for _ in range(120):
        sigma = _log_uniform(rng, 0.3, 3.0)
        packet = interferometry.GaussianPacket(
            x0=float(rng.uniform(-2.0, 2.0)),
            p0=float(rng.uniform(-2.0, 2.0)),
            sigma_x=sigma,
            mass=1.0,
        )
        dx = float(rng.uniform(-2.0, 2.0)) * sigma
        dp = float(rng.uniform(-2.0, 2.0)) / sigma
        closed = interferometry.packet_overlap(packet, dx, dp, 1.0)
        quad = interferometry.overlap_by_quadrature(packet, dx, dp, 1.0, abs_tol=1e-10)
        worst = max(worst, abs(closed - quad) / abs(closed))
    return CheckRow("overlap_closed_vs_quadrature", 0.0, worst, 1e-8, worst < 1e-8)


def _overlap_monotone(rng, vary_shift: bool) -> float:
    packet = interferometry.GaussianPacket(x0=0.3, p0=-0.7, sigma_x=1.3, mass=1.0)
    worst_rise = -math.inf
    grid = [0.25 * i for i in range(17)]
    previous = None
    for g in grid:
        dx, dp = (g, 0.4) if vary_shift else (0.4, g)
        magnitude = abs(interferometry.packet_overlap(packet, dx, dp, 1.0))
        if previous is not None:
            worst_rise = max(worst_rise, magnitude - previous)
        previous = magnitude
    return worst_rise


def _check_overlap_monotone_shift(rng) -> CheckRow:
    rise = _overlap_monotone(rng, vary_shift=True)
    return CheckRow("overlap_monotone_in_shift", "non-increasing", rise, 0.0, rise <= 0.0)


def _check_overlap_monotone_kick(rng) -> CheckRow:
    rise = _overlap_monotone(rng, vary_shift=False)
    return CheckRow("overlap_monotone_in_kick", "non-increasing", rise, 0.0, rise <= 0.0)


def _check_factor4_identity(rng) -> CheckRow:
    worst = 0.0
    for _ in range(1000):
        s = _random_solenoid(rng)
        o = _random_orbit(rng)
        k = _random_constants(rng)
        res = solenoid.local_model_phase(s, o, k)
        worst = max(worst, abs(res.phase_local / res.phase_ab - 1.0))
    return CheckRow("factor4_identity", 0.0, worst, 1e-12, worst < 1e-12)


def _check_velocity_kick_quadrature(rng) -> CheckRow:
    worst = 0.0
    for _ in range(100):
        s = _random_solenoid(rng)
        o = _random_orbit(rng)
        k = _random_constants(rng)
        closed = solenoid.cylinder_velocity_change(s, o, k, method=solenoid.CLOSED_FORM)
        quad = solenoid.cylinder_velocity_change(s, o, k, method=solenoid.QUADRATURE)
        worst = max(worst, abs(quad / closed - 1.0))
    return CheckRow("velocity_kick_quadrature", 0.0, worst, 1e-9, worst < 1e-9)


def _check_flux_profile_shape(rng) -> CheckRow:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", solenoid.LongSolenoidWarning)
        s = solenoid.SolenoidParams(r=1.0, L=1.0, M=1.0, Q=1.0, v=1.0)
    o = solenoid.OrbitParams(R=2.0, u=1.0)
    peak = solenoid.electron_flux_at_angle(0.0, o, s, _K1)
    worst = 0.0
    for i in range(1, 41):
        theta = i * (math.pi / 2.0) / 40.0
        plus = solenoid.electron_flux_at_angle(theta, o, s, _K1)
        minus = solenoid.electron_flux_at_angle(-theta, o, s, _K1)
        worst = max(worst, abs(plus - minus) / peak)  # even in theta
        worst = max(worst, max(0.0, plus - peak) / peak)  # maximal at zero
    edge = solenoid.electron_flux_at_angle(math.pi / 2.0, o, s, _K1)
    worst = max(worst, abs(edge) / peak)  # vanishes at the rim
    return CheckRow("emf_flux_profile_shape", 0.0, worst, 1e-12, worst <= 1e-12)


def _check_displacement_invariance(rng) -> CheckRow:
    worst = 0.0
    for _ in range(100):
        s = _random_solenoid(rng)
        k = _random_constants(rng)
        o1, o2 = _random_orbit(rng), _random_orbit(rng)
        d1 = solenoid.cylinder_displacement(s, o1, k)
        d2 = solenoid.cylinder_displacement(s, o2, k)
        worst = max(worst, abs(d1 / d2 - 1.0))
    return CheckRow("displacement_orbit_invariance", 0.0, worst, 1e-14, worst <= 1e-14)


def _check_flux_phase_linearity(rng) -> CheckRow:
    worst = 0.0
    for _ in range(100):
        s = _random_solenoid(rng)
        k = _random_constants(rng)
        factor = _log_uniform(rng, 0.1, 10.0)
        base = solenoid.ab_phase_direct(s, k)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", solenoid.LongSolenoidWarning)
            for scaled, expect in (
                (solenoid.SolenoidParams(s.r, s.L, s.M, s.Q * factor, s.v), factor),
                (solenoid.SolenoidParams(s.r, s.L, s.M, s.Q, s.v * factor), factor),
                (solenoid.SolenoidParams(s.r * factor, s.L, s.M, s.Q, s.v), factor),
                (solenoid.SolenoidParams(s.r, s.L * factor, s.M, s.Q, s.v), 1.0 / factor),
            ):
                worst = max(worst, abs(solenoid.ab_phase_direct(scaled, k) / (base * expect) - 1.0))
        ke = dataclasses.replace(k, e=k.e * factor)
        worst = max(worst, abs(solenoid.ab_phase_direct(s, ke) / (base * factor) - 1.0))
    return CheckRow("flux_phase_linearity", 0.0, worst, 1e-12, worst <= 1e-12)


def _check_flux_chain_consistency(rng) -> CheckRow:
    worst = 0.0
    for _ in range(1000):
        s = _random_solenoid(rng)
        k = _random_constants(rng)
        chained = solenoid.ab_phase_from_flux(solenoid.solenoid_flux(s, k), k)
        direct = solenoid.ab_phase_direct(s, k)
        worst = max(worst, abs(chained / direct - 1.0))
    return CheckRow("flux_chain_consistency", 0.0, worst, 1e-14, worst <= 1e-14)


def _check_visibility_pipeline(rng) -> CheckRow:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", solenoid.LongSolenoidWarning)
        s = solenoid.SolenoidParams(r=1.0, L=1.0, M=1.0, Q=1.0, v=1.0)
    o = solenoid.OrbitParams(R=2.0, u=1.0)
    kick = solenoid.source_momentum_kick(s, o, _K1)
    ratios = [10.0 ** (-2.0 + 4.0 * i / 19.0) for i in range(20)]
    visibilities = []
    for ratio in ratios:
        sigma_p = ratio * kick
        sigma_x = _K1.hbar / (2.0 * sigma_p)
        packet = interferometry.GaussianPacket(x0=0.0, p0=0.0, sigma_x=sigma_x, mass=s.M)
        overlap = interferometry.packet_overlap(packet, 0.0, kick, _K1.hbar)
        visibilities.append(interferometry.visibility_from_overlap(overlap))
    monotone = all(b >= a for a, b in zip(visibilities, visibilities[1:]))
    ok = monotone and visibilities[-1] > 0.999 and visibilities[0] < 0.01
    summary = f"V({ratios[0]:g})={visibilities[0]:.3g}, V({ratios[-1]:g})={visibilities[-1]:.6g}"
    return CheckRow("visibility_pipeline_monotone", "0 -> 1 with spread/kick", summary, 0.0, ok)


def _random_offaxis_sample(rng):
    rho = _log_uniform(rng, 0.1, 10.0)
    angle = float(rng.uniform(0.0, 2.0 * math.pi))
    pos = Vec3(rho * math.cos(angle), rho * math.sin(angle), float(rng.uniform(-1.0, 1.0)))
    vel = Vec3(float(rng.uniform(-3.0, 3.0)), float(rng.uniform(-3.0, 3.0)), 0.0)
    return pos, vel


def _check_force_equals_rate(rng) -> CheckRow:
    lc = boyer.LineCharge(lambda_c=1.0)
    mu = Vec3(0.0, 0.0, 1.0)
    worst = 0.0
    for _ in range(1000):
        pos, vel = _random_offaxis_sample(rng)
        force = boyer.boyer_force(lc, pos, vel, mu, _K1)
        rate = boyer.hidden_momentum_rate(lc, pos, vel, mu, _K1)
        scale = max(force.norm(), 1e-300)
        diff = force - rate
        worst = max(worst, max(abs(diff.x), abs(diff.y), abs(diff.z)) / scale)
    return CheckRow("boyer_force_equals_momentum_rate", 0.0, worst, 1e-10, worst < 1e-10)


def _check_full_law_speed(rng) -> CheckRow:
    lc = boyer.LineCharge(lambda_c=1.0)
    n = boyer.NeutronModel(mass=1.0, mu=Vec3(0.0, 0.0, 1.0))
    state = boyer.TrajectoryState(t=0.0, pos=Vec3(2.5, 0.8, 0.0), vel=Vec3(-1.2, 0.7, 0.0))
    speed0 = state.vel.norm()
    direction0 = state.vel * (1.0 / speed0)
    worst = 0.0
    for _ in range(10_000):
        state = boyer.step_trajectory(lc, n, state, 1e-3, boyer.FULL_LAW, _K1)
        worst = max(worst, abs(state.vel.norm() / speed0 - 1.0))
    drift_dir = (state.vel * (1.0 / state.vel.norm()) - direction0).norm()
    worst = max(worst, drift_dir)
    return CheckRow("full_law_no_classical_lag", 0.0, worst, 1e-8, worst < 1e-8)


def _naive_endpoint(n_steps: int, total_time: float) -> boyer.TrajectoryState:
    lc = boyer.LineCharge(lambda_c=1.0)
    n = boyer.NeutronModel(mass=1.0, mu=Vec3(0.0, 0.0, 1.0))
    state = boyer.TrajectoryState(t=0.0, pos=Vec3(2.0, 0.6, 0.0), vel=Vec3(-1.0, 0.3, 0.0))
    dt = total_time / n_steps
    for _ in range(n_steps):
        state = boyer.step_trajectory(lc, n, state, dt, boyer.NAIVE_LAW, _K1)
    return state


def _check_rk4_order(rng) -> CheckRow:
    # The corrected law has identically zero acceleration, so its drift is
    # pure roundoff; fourth-order convergence is measured on the naive law,
    # the one dynamics in scope with a truncation error to converge.
    total_time = 1.0
    reference = _naive_endpoint(4096, total_time)

    def error(n_steps: int) -> float:
        end = _naive_endpoint(n_steps, total_time)
        return (end.pos - reference.pos).norm() + (end.vel - reference.vel).norm()

    ratio = error(128) / error(256)
    order = math.log2(ratio)
    return CheckRow("rk4_order4_convergence", 4.0, order, 0.5, abs(order - 4.0) <= 0.5)


def _bounce(law: str) -> boyer.BounceResult:
    cfg = boyer.BounceConfig(
        mirror_a=_BOUNCE_MIRRORS[0],
        mirror_b=_BOUNCE_MIRRORS[1],
        n_bounces=_BOUNCE_COUNT,
        dt=_BOUNCE_DT,
        law=law,
    )
    return boyer.simulate_bounce_experiment(_BOUNCE_LINE, _BOUNCE_NEUTRON, cfg, _BOUNCE_START, _K1)


def _check_naive_bounce(rng) -> tuple[CheckRow, CheckRow]:
    # One naive-law bounce feeds both the energy-growth and the work checks.
    result = _bounce(boyer.NAIVE_LAW)
    kes = [result.initial_kinetic_energy, *result.bounce_kinetic_energies]
    min_gain = min(b - a for a, b in zip(kes, kes[1:]))
    growth = CheckRow("energy_grows_naive_law", "increasing", min_gain, 0.0, min_gain > 0.0, merge="min")
    worst = max(
        abs(gain / work - 1.0)
        for gain, work in zip(result.ke_gain_per_leg, result.work_per_leg)
    )
    return growth, CheckRow("work_integral_match", 0.0, worst, 1e-6, worst < 1e-6)


def _check_full_energy(rng) -> CheckRow:
    result = _bounce(boyer.FULL_LAW)
    drift = abs(result.final_kinetic_energy / result.initial_kinetic_energy - 1.0)
    return CheckRow("energy_conserved_full_law", 0.0, drift, 1e-6, drift < 1e-6)


def _check_ac_phase_deformation(rng) -> CheckRow:
    lc = boyer.LineCharge(lambda_c=0.7)
    mu = Vec3(0.0, 0.0, 1.3)
    circle = boyer.CircleLoop(center=Vec3(0.3, -0.2, 0.0), radius=1.5)
    square = boyer.PolylineLoop(
        (
            Vec3(1.2, 1.2, 0.0),
            Vec3(-1.2, 1.2, 0.0),
            Vec3(-1.2, -1.2, 0.0),
            Vec3(1.2, -1.2, 0.0),
            Vec3(1.2, 1.2, 0.0),
        )
    )
    phase_circle = boyer.ac_phase(lc, mu, circle, _K1)
    phase_square = boyer.ac_phase(lc, mu, square, _K1)
    residual = abs(phase_square / phase_circle - 1.0)
    return CheckRow("ac_phase_loop_deformation", 0.0, residual, 1e-9, residual < 1e-9)


def _check_ac_phase_linearity(rng) -> CheckRow:
    loop = boyer.CircleLoop(center=Vec3(0.0, 0.0, 0.0), radius=1.0)
    worst = 0.0
    for _ in range(20):
        lam = _log_uniform(rng, 1e-2, 1e2)
        muz = _log_uniform(rng, 1e-2, 1e2)
        factor = _log_uniform(rng, 0.1, 10.0)
        base = boyer.ac_phase(boyer.LineCharge(lambda_c=lam), Vec3(0.0, 0.0, muz), loop, _K1)
        in_lambda = boyer.ac_phase(boyer.LineCharge(lambda_c=lam * factor), Vec3(0.0, 0.0, muz), loop, _K1)
        in_mu = boyer.ac_phase(boyer.LineCharge(lambda_c=lam), Vec3(0.0, 0.0, muz * factor), loop, _K1)
        worst = max(worst, abs(in_lambda / (base * factor) - 1.0), abs(in_mu / (base * factor) - 1.0))
    return CheckRow("ac_phase_linearity", 0.0, worst, 1e-10, worst <= 1e-10)


def _check_three_charge(rng) -> CheckRow:
    worst = 0.0
    for _ in range(100):
        d = _log_uniform(rng, 1e-3, 1e3)
        e = _log_uniform(rng, 1e-3, 1e3)
        cfg = fieldfree.make_three_charge(d, e)
        scale = e / (d * d)
        for i in range(3):
            worst = max(worst, fieldfree.field_at(cfg, i).norm() / scale)
    return CheckRow("field_free_three_charge", 0.0, worst, 1e-12, worst < 1e-12)


def _check_three_charge_potential(rng) -> CheckRow:
    worst = 0.0
    for _ in range(100):
        d = _log_uniform(rng, 1e-3, 1e3)
        e = _log_uniform(rng, 1e-3, 1e3)
        cfg = fieldfree.make_three_charge(d, e)
        worst = max(worst, abs(fieldfree.potential_at(cfg, 0) / (8.0 * e / d) - 1.0))
    return CheckRow("potential_at_electron", 0.0, worst, 1e-14, worst <= 1e-14)


def _random_configuration(rng, count: int) -> fieldfree.ChargeConfiguration:
    charges = []
    while len(charges) < count:
        candidate = fieldfree.PointCharge(
            q=float(rng.uniform(-2.0, 2.0)), pos=_random_vec(rng, 1.0)
        )
        if all((candidate.pos - c.pos).norm() > 0.05 for c in charges):
            charges.append(candidate)
    return fieldfree.ChargeConfiguration(tuple(charges))


def _check_field_covariance(rng) -> CheckRow:
    worst = 0.0
    for _ in range(50):
        cfg = _random_configuration(rng, 4)
        raw = rng.normal(size=(3, 3))
        q_mat, _ = np.linalg.qr(raw)
        if np.linalg.det(q_mat) < 0.0:
            q_mat[:, 0] = -q_mat[:, 0]
        shift = _random_vec(rng, 5.0)

        def transform(v: Vec3) -> Vec3:
            rotated = q_mat @ np.array(v.as_tuple())
            return Vec3(float(rotated[0]), float(rotated[1]), float(rotated[2])) + shift

        moved = fieldfree.ChargeConfiguration(
            tuple(fieldfree.PointCharge(c.q, transform(c.pos)) for c in cfg.charges)
        )
        for i in range(len(cfg.charges)):
            original = fieldfree.field_at(cfg, i)
            rotated = q_mat @ np.array(original.as_tuple())
            expected = Vec3(float(rotated[0]), float(rotated[1]), float(rotated[2]))
            actual = fieldfree.field_at(moved, i)
            scale = max(original.norm(), 1e-300)
            worst = max(worst, (actual - expected).norm() / scale)
    return CheckRow("coulomb_field_rigid_covariance", 0.0, worst, 1e-12, worst <= 1e-12)


def _check_newtons_third_law(rng) -> CheckRow:
    worst = 0.0
    for _ in range(50):
        cfg = _random_configuration(rng, 5)
        total = Vec3(0.0, 0.0, 0.0)
        scale = 0.0
        for i, charge in enumerate(cfg.charges):
            force = fieldfree.field_at(cfg, i) * charge.q
            total = total + force
            scale = max(scale, force.norm())
        worst = max(worst, total.norm() / max(scale, 1e-300))
    return CheckRow("newtons_third_law", 0.0, worst, 1e-10, worst <= 1e-10)


_CHECKS = [
    _check_cross_antisymmetry,
    _check_cross_orthogonality,
    _check_constants_deterministic,
    _check_probability_sum,
    _check_phase_periodicity,
    _check_overlap_identity,
    _check_overlap_bound,
    _check_overlap_quadrature,
    _check_overlap_monotone_shift,
    _check_overlap_monotone_kick,
    _check_factor4_identity,
    _check_velocity_kick_quadrature,
    _check_flux_profile_shape,
    _check_displacement_invariance,
    _check_flux_phase_linearity,
    _check_flux_chain_consistency,
    _check_visibility_pipeline,
    _check_force_equals_rate,
    _check_full_law_speed,
    _check_rk4_order,
    _check_naive_bounce,
    _check_full_energy,
    _check_ac_phase_deformation,
    _check_ac_phase_linearity,
    _check_three_charge,
    _check_three_charge_potential,
    _check_field_covariance,
    _check_newtons_third_law,
]


def run_verify_suite(seed: int = 42) -> RunReport:
    """Run every module invariant with a seeded generator; deterministic."""
    rng = np.random.default_rng(seed)
    checks: list[CheckRow] = []
    for check in _CHECKS:
        rows = check(rng)  # one CheckRow, or a tuple of rows that share their work
        checks.extend(rows if isinstance(rows, tuple) else (rows,))
    return RunReport(
        scenario={"kind": "verify", "seed": seed},
        rows=[],
        checks=checks,
        columns=[],
    )
