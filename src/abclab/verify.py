"""The claim catalogue: each physics check defined once, and its seeded runner.

``run_verify_suite(seed)`` executes the whole catalogue with a deterministic
random generator and returns a RunReport whose check rows name the physics
claims they audit.  Identical seeds produce byte-identical reports; the CLI
maps a non-empty failure set to a non-zero exit code.

``TOLERANCES`` holds the tolerance of every verify and scenario check.  A
residual claim (``claim_row``) passes below it, or at it with ``at_most``, so
NaN fails; the scenario point runners build every row with ``claim_row``.  A
worst-of-N, over a check's draws, a draw's parts or a sweep's points, keeps the
worst residual by ``worse``, under which NaN is worse than any number.

Every uniform draw is ``_uniform(rng, lo, hi) = lo + (hi - lo) * rng.random()``.
numpy's ``Generator.uniform(lo, hi)`` computes ``lo + (hi - lo) * d`` from the
same next double ``d`` that ``random()`` returns, so each draw and the stream
position after it are bit-identical to ``float(rng.uniform(lo, hi))`` at about
a third of the cost; ``tests/test_verify.py`` pins that by ``float.hex``.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import TYPE_CHECKING

from . import boyer, fieldfree, interferometry, solenoid
from .units import GAUSSIAN_CGS, SCALED_UNITY, PhysicalConstants, Vec3, cross, make_constants

if TYPE_CHECKING:
    import numpy as np  # imported where used, so that `abclab run` starts without it

SCHEMA_VERSION = 1


@dataclasses.dataclass
class CheckRow:
    """One named verification against a physics claim."""

    name: str
    expected: object
    actual: object
    tol: float
    passed: bool
    residual: float = dataclasses.field(default=math.nan, compare=False)  # ranked by worse(); not reported

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "expected": self.expected,
            "actual": self.actual,
            "tol": self.tol,
            "pass": self.passed,
        }


@dataclasses.dataclass
class RunReport:
    scenario: dict
    rows: list[dict]
    checks: list[CheckRow]
    columns: list[str]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks) and not any("error" in r and r["error"] for r in self.rows)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "scenario": self.scenario,
            "rows": self.rows,
            "checks": [c.to_dict() for c in self.checks],
        }


# Tolerance of each verify check, then of the claims only scenarios report.
# Residual claims pass below it, or at it with claim_row's at_most; the one
# check with another comparison (visibility_pipeline_monotone) says so.
TOLERANCES = {
    "cross_antisymmetry": 1e-15,
    "cross_orthogonality": 1e-12,
    "constants_deterministic": 0.0,
    "detector_probability_sum": 1e-15,
    "detector_phase_periodicity": 1e-12,
    "overlap_identity_is_one": 1e-15,
    "overlap_magnitude_bound": 1.0,
    "overlap_closed_vs_quadrature": 1e-8,
    "overlap_monotone_in_shift": 0.0,
    "overlap_monotone_in_kick": 0.0,
    "factor4_identity": 1e-12,
    "velocity_kick_quadrature": 1e-9,
    "emf_flux_profile_shape": 1e-12,
    "displacement_orbit_invariance": 1e-14,
    "flux_phase_linearity": 1e-12,
    "flux_chain_consistency": 1e-14,
    "visibility_pipeline_monotone": 0.0,
    "boyer_force_equals_momentum_rate": 1e-10,
    "full_law_no_classical_lag": 1e-8,
    "rk4_order4_convergence": 0.5,
    "energy_grows_naive_law": 0.0,
    "work_integral_match": 1e-6,
    "energy_conserved_full_law": 1e-6,
    "ac_phase_loop_deformation": 1e-9,
    "ac_phase_linearity": 1e-10,
    "field_free_three_charge": 1e-12,
    "potential_at_electron": 1e-14,
    "coulomb_field_rigid_covariance": 1e-12,
    "newtons_third_law": 1e-10,
    "probability_sum": 1e-12,
    "routes_to_A_at_zero_phase": 1e-12,
    "routes_to_B_at_pi_phase": 1e-12,
    "ac_phase_loop_value": 1e-9,
    "ac_phase_radius_independent": 1e-9,
    "field_free_zero_phase_claim": 0.0,
}


def claim_row(name: str, residual: float, expected: object = 0.0, actual: object = None, at_most=False) -> CheckRow:
    """The row of a residual claim: it passes when residual < TOLERANCES[name],
    or <= with ``at_most``.  ``actual`` defaults to the residual; NaN fails."""
    tol = TOLERANCES[name]
    passed = residual <= tol if at_most else residual < tol
    return CheckRow(name, expected, residual if actual is None else actual, tol, passed, residual=residual)


def worse(residual: float, than: float) -> bool:
    """Whether ``residual`` is worse than ``than``: larger, or NaN where ``than``
    is a number.  A worst-of-N by this rule keeps NaN, and the first of ties."""
    return residual > than or (math.isnan(residual) and not math.isnan(than))


def _worst(residuals, floor: float = 0.0) -> float:
    """The worst of some residuals by ``worse``, starting from ``floor`` (the
    value for none): NaN if any is NaN, else the largest above ``floor``."""
    return functools.reduce(lambda worst, residual: residual if worse(residual, worst) else worst, residuals, floor)


def _least(values) -> float:
    """The least of some values, NaN-sticky like ``_worst``."""
    return -_worst((-value for value in values), -math.inf)


def _relative(actual: float, expected: float) -> float:
    """|actual/expected - 1|, or |actual| when the expected value is zero."""
    return abs(actual / expected - 1.0) if expected != 0.0 else abs(actual)


# ---------------------------------------------------------------------------
# residuals of the claims the scenario point runners share


def factor4_residual(res: solenoid.ABResult) -> float:
    """The local-model phase against the AB phase: the factor-4 identity."""
    return _relative(res.phase_local, res.phase_ab)


def flux_chain_residual(s: solenoid.SolenoidParams, k: PhysicalConstants) -> float:
    """The AB phase through the solenoid flux against its direct closed form."""
    return _relative(solenoid.ab_phase_from_flux(solenoid.solenoid_flux(s, k), k), solenoid.ab_phase_direct(s, k))


def three_charge_residual(field_magnitudes, d: float, e: float) -> float:
    """The largest field magnitude at the triple's charges in units of e/d^2."""
    return _worst(field_magnitudes) / (e / (d * d))


def potential_residual(cfg: fieldfree.ChargeConfiguration, d: float, e: float) -> tuple[float, float, float]:
    """(residual, 8e/d, potential) of the electron's potential against 8e/d,
    in the argument order of ``claim_row``."""
    expected = 8.0 * e / d
    potential = fieldfree.potential_at(cfg, 0)
    return _relative(potential, expected), expected, potential


def bounce_checks(result: boyer.BounceResult) -> list[CheckRow]:
    """The energy claims of one bounce run.  The full law conserves kinetic
    energy.  The naive law gains it on every leg, by the work of its force."""
    if result.law == boyer.FULL_LAW:
        drift = _relative(result.final_kinetic_energy, result.initial_kinetic_energy)
        return [claim_row("energy_conserved_full_law", drift)]
    kes = [result.initial_kinetic_energy, *result.bounce_kinetic_energies]
    min_gain = _least(b - a for a, b in zip(kes, kes[1:]))
    growth = claim_row("energy_grows_naive_law", -min_gain, "increasing", min_gain)
    mismatch = _worst(_relative(gain, work) for gain, work in zip(result.ke_gain_per_leg, result.work_per_leg))
    return [growth, claim_row("work_integral_match", mismatch)]


# ---------------------------------------------------------------------------
# the catalogue, registered in report order

_CHECKS: list = []  # check(rng) -> one CheckRow, or a list of rows that share their work


def _check(check):
    _CHECKS.append(check)
    return check


def _claim(name: str, draws: int, expected: object = 0.0):
    """Register ``residual(rng)``, the residual of one random draw, as the
    check ``name``: the worst residual over ``draws`` draws."""

    def register(residual):
        def check(rng) -> CheckRow:
            return claim_row(name, _worst(residual(rng) for _ in range(draws)), expected)

        _CHECKS.append(check)
        return residual

    return register


_K1 = make_constants(SCALED_UNITY)
_UNIT_LINE = boyer.LineCharge(lambda_c=1.0)
_UNIT_NEUTRON = boyer.NeutronModel(mass=1.0, mu_z=1.0)
_UNIT_CIRCLE = boyer.CircleLoop(center=Vec3(0.0, 0.0, 0.0), radius=1.0)


def _uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    """``float(rng.uniform(lo, hi))`` to the bit, at the same stream position
    (see the module docstring), for about a third of its cost."""
    return lo + (hi - lo) * rng.random()


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return math.exp(_uniform(rng, math.log(lo), math.log(hi)))


def _random_vec(rng: np.random.Generator, scale: float = 1.0) -> Vec3:
    return Vec3(*(_uniform(rng, -scale, scale) for _ in range(3)))


def _random_constants(rng: np.random.Generator) -> PhysicalConstants:
    e, c, hbar = (_log_uniform(rng, 1e-3, 1e3) for _ in range(3))
    return PhysicalConstants(e=e, c=c, hbar=hbar, h=2.0 * math.pi * hbar)


def _random_solenoid(rng: np.random.Generator) -> solenoid.SolenoidParams:
    return solenoid.SolenoidParams(*(_log_uniform(rng, 1e-3, 1e3) for _ in range(5)))


def _random_orbit(rng: np.random.Generator) -> solenoid.OrbitParams:
    return solenoid.OrbitParams(R=_log_uniform(rng, 1e-3, 1e3), u=_log_uniform(rng, 1e-3, 1e3))


_UNIT_SOLENOID = solenoid.SolenoidParams(r=1.0, L=1.0, M=1.0, Q=1.0, v=1.0)
_UNIT_ORBIT = solenoid.OrbitParams(R=2.0, u=1.0)


@_claim("cross_antisymmetry", 500)
def _cross_antisymmetry(rng) -> float:
    a, b = _random_vec(rng, 10.0), _random_vec(rng, 10.0)
    residual = cross(a, b) + cross(b, a)
    return _worst(abs(c) for c in residual.as_tuple())


@_claim("cross_orthogonality", 500)
def _cross_orthogonality(rng) -> float:
    a, b = _random_vec(rng, 10.0), _random_vec(rng, 10.0)
    c = cross(a, b)
    return _worst(abs(c.dot(v)) / (c.norm() * v.norm()) for v in (a, b) if c.norm() * v.norm() > 0.0)


@_check
def _constants_deterministic(rng) -> CheckRow:
    same = all(
        make_constants(system) == make_constants(system) for system in (GAUSSIAN_CGS, SCALED_UNITY)
    )
    return claim_row("constants_deterministic", 0.0 if same else 1.0, "bit-identical", at_most=True)


@_claim("detector_probability_sum", 500)
def _probability_sum(rng) -> float:
    phase = _uniform(rng, -20.0, 20.0)
    vis = _uniform(rng, 0.0, 1.0)
    p = interferometry.detector_probabilities(phase, vis)
    return abs(p.p_a + p.p_b - 1.0)


@_claim("detector_phase_periodicity", 200)
def _phase_periodicity(rng) -> float:
    phase = _uniform(rng, -10.0, 10.0)
    vis = _uniform(rng, 0.0, 1.0)
    p1 = interferometry.detector_probabilities(phase, vis)
    p2 = interferometry.detector_probabilities(phase + 2.0 * math.pi, vis)
    return _worst((abs(p1.p_a - p2.p_a), abs(p1.p_b - p2.p_b)))


@_check
def _overlap_identity(rng) -> CheckRow:
    def identity_miss() -> float:
        packet = interferometry.GaussianPacket(
            x0=_uniform(rng, -2.0, 2.0),
            p0=_uniform(rng, -2.0, 2.0),
            sigma_x=_log_uniform(rng, 0.1, 10.0),
            mass=1.0,
        )
        return abs(abs(interferometry.packet_overlap(packet, 0.0, 0.0, 1.0)) - 1.0)

    worst = _worst(identity_miss() for _ in range(50))
    return claim_row("overlap_identity_is_one", worst, expected=1.0, actual=1.0 + worst)


@_claim("overlap_magnitude_bound", 300, expected="< 1 when displaced")
def _overlap_bound(rng) -> float:
    packet = interferometry.GaussianPacket(
        x0=_uniform(rng, -5.0, 5.0),
        p0=_uniform(rng, -5.0, 5.0),
        sigma_x=_log_uniform(rng, 1e-2, 1e2),
        mass=1.0,
    )
    dx = float(rng.choice([-1.0, 1.0])) * _log_uniform(rng, 1e-3, 1e2) * packet.sigma_x
    dp = float(rng.choice([-1.0, 1.0])) * _log_uniform(rng, 1e-3, 1e2) / packet.sigma_x
    return abs(interferometry.packet_overlap(packet, dx, dp, 1.0))


@_claim("overlap_closed_vs_quadrature", 120)
def _overlap_quadrature(rng) -> float:
    sigma = _log_uniform(rng, 0.3, 3.0)
    packet = interferometry.GaussianPacket(
        x0=_uniform(rng, -2.0, 2.0),
        p0=_uniform(rng, -2.0, 2.0),
        sigma_x=sigma,
        mass=1.0,
    )
    dx = _uniform(rng, -2.0, 2.0) * sigma
    dp = _uniform(rng, -2.0, 2.0) / sigma
    closed = interferometry.packet_overlap(packet, dx, dp, 1.0)
    quad = interferometry.overlap_by_quadrature(packet, dx, dp, 1.0)
    return abs(closed - quad) / abs(closed)


def _overlap_monotone(name: str, vary_shift: bool) -> CheckRow:
    # The overlap magnitude never rises along a grid of growing shifts (kicks).
    packet = interferometry.GaussianPacket(x0=0.3, p0=-0.7, sigma_x=1.3, mass=1.0)
    magnitudes = []
    for g in (0.25 * i for i in range(17)):
        dx, dp = (g, 0.4) if vary_shift else (0.4, g)
        magnitudes.append(abs(interferometry.packet_overlap(packet, dx, dp, 1.0)))
    worst_rise = _worst((b - a for a, b in zip(magnitudes, magnitudes[1:])), -math.inf)
    return claim_row(name, worst_rise, "non-increasing", at_most=True)


_check(lambda rng: _overlap_monotone("overlap_monotone_in_shift", vary_shift=True))
_check(lambda rng: _overlap_monotone("overlap_monotone_in_kick", vary_shift=False))


@_claim("factor4_identity", 1000)
def _factor4_identity(rng) -> float:
    s = _random_solenoid(rng)
    o = _random_orbit(rng)
    k = _random_constants(rng)
    return factor4_residual(solenoid.local_model_phase(s, o, k))


@_claim("velocity_kick_quadrature", 100)
def _velocity_kick_quadrature(rng) -> float:
    s = _random_solenoid(rng)
    o = _random_orbit(rng)
    k = _random_constants(rng)
    closed = solenoid.cylinder_velocity_change(s, o, k, method=solenoid.CLOSED_FORM)
    quad = solenoid.cylinder_velocity_change(s, o, k, method=solenoid.QUADRATURE)
    return _relative(quad, closed)


@_check
def _flux_profile_shape(rng) -> CheckRow:
    s, o = _UNIT_SOLENOID, _UNIT_ORBIT
    peak = solenoid.electron_flux_at_angle(0.0, o, s, _K1)
    misses = []
    for i in range(1, 41):
        theta = i * (math.pi / 2.0) / 40.0
        plus = solenoid.electron_flux_at_angle(theta, o, s, _K1)
        minus = solenoid.electron_flux_at_angle(-theta, o, s, _K1)
        misses.append(abs(plus - minus) / peak)  # even in theta
        misses.append((plus - peak) / peak)  # maximal at zero; a fall stays below _worst's 0.0
    edge = solenoid.electron_flux_at_angle(math.pi / 2.0, o, s, _K1)
    misses.append(abs(edge) / peak)  # vanishes at the rim
    return claim_row("emf_flux_profile_shape", _worst(misses))


@_claim("displacement_orbit_invariance", 100)
def _displacement_invariance(rng) -> float:
    s = _random_solenoid(rng)
    k = _random_constants(rng)
    o1, o2 = _random_orbit(rng), _random_orbit(rng)
    return _relative(solenoid.cylinder_displacement(s, o1, k), solenoid.cylinder_displacement(s, o2, k))


@_claim("flux_phase_linearity", 100)
def _flux_phase_linearity(rng) -> float:
    s = _random_solenoid(rng)
    k = _random_constants(rng)
    factor = _log_uniform(rng, 0.1, 10.0)
    base = solenoid.ab_phase_direct(s, k)
    scaled = (
        (solenoid.SolenoidParams(s.r, s.L, s.M, s.Q * factor, s.v), k, factor),
        (solenoid.SolenoidParams(s.r, s.L, s.M, s.Q, s.v * factor), k, factor),
        (solenoid.SolenoidParams(s.r * factor, s.L, s.M, s.Q, s.v), k, factor),
        (solenoid.SolenoidParams(s.r, s.L * factor, s.M, s.Q, s.v), k, 1.0 / factor),
        (s, dataclasses.replace(k, e=k.e * factor), factor),
    )
    return _worst(_relative(solenoid.ab_phase_direct(s2, k2), base * expect) for s2, k2, expect in scaled)


@_claim("flux_chain_consistency", 1000)
def _flux_chain_consistency(rng) -> float:
    s = _random_solenoid(rng)
    k = _random_constants(rng)
    return flux_chain_residual(s, k)


@_check
def _visibility_pipeline(rng) -> CheckRow:
    s, o = _UNIT_SOLENOID, _UNIT_ORBIT
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
    tol = TOLERANCES["visibility_pipeline_monotone"]
    return CheckRow("visibility_pipeline_monotone", "0 -> 1 with spread/kick", summary, tol, ok)


@_claim("boyer_force_equals_momentum_rate", 1000)
def _force_equals_rate(rng) -> float:
    rho = _log_uniform(rng, 0.1, 10.0)
    angle = _uniform(rng, 0.0, 2.0 * math.pi)
    # z is drawn to keep the stream in place; the line field does not depend on it
    pos = Vec3(rho * math.cos(angle), rho * math.sin(angle), _uniform(rng, -1.0, 1.0))
    vel = Vec3(_uniform(rng, -3.0, 3.0), _uniform(rng, -3.0, 3.0), 0.0)
    # The two routes are formed separately; their cancellation is the claim.
    force = boyer.boyer_force(_UNIT_LINE, pos, vel, _UNIT_NEUTRON.mu_z, _K1)
    rate = boyer.hidden_momentum_rate(_UNIT_LINE, pos, vel, _UNIT_NEUTRON.mu_z, _K1)
    diff = force - rate
    return _worst(abs(c) for c in diff.as_tuple()) / max(force.norm(), 1e-300)


# The two unit flights step boyer's float kernel with the arguments that
# step_trajectory(_UNIT_LINE, _UNIT_NEUTRON, state, dt, law, _K1) passes it,
# and build a TrajectoryState only at the end, which rejects a non-finite one.


@_check
def _full_law_speed(rng) -> CheckRow:
    rk4, lc, mu_z, inv_c, inv_m = boyer._rk4, _UNIT_LINE, _UNIT_NEUTRON.mu_z, 1.0 / _K1.c, 1.0 / _UNIT_NEUTRON.mass
    sqrt = math.sqrt
    x, y, vx, vy = 2.5, 0.8, -1.2, 0.7
    speed0 = sqrt(vx * vx + vy * vy)
    ux0, uy0 = vx * (1.0 / speed0), vy * (1.0 / speed0)
    misses = []
    for _ in range(10_000):
        x, y, vx, vy = rk4(lc, mu_z, inv_c, inv_m, False, 1e-3, x, y, vx, vy)
        misses.append(_relative(sqrt(vx * vx + vy * vy), speed0))
    boyer.TrajectoryState(10.0, x, y, vx, vy)  # raises on a non-finite end state
    inv_speed = 1.0 / sqrt(vx * vx + vy * vy)
    dux, duy = vx * inv_speed - ux0, vy * inv_speed - uy0
    misses.append(sqrt(dux * dux + duy * duy))  # direction drift
    return claim_row("full_law_no_classical_lag", _worst(misses))


def _naive_endpoint(n_steps: int) -> boyer.TrajectoryState:
    # where the naive law carries a fixed start after one unit of time
    rk4, lc, mu_z, inv_c, inv_m = boyer._rk4, _UNIT_LINE, _UNIT_NEUTRON.mu_z, 1.0 / _K1.c, 1.0 / _UNIT_NEUTRON.mass
    t, x, y, vx, vy = 0.0, 2.0, 0.6, -1.0, 0.3
    dt = 1.0 / n_steps
    for _ in range(n_steps):
        x, y, vx, vy = rk4(lc, mu_z, inv_c, inv_m, True, dt, x, y, vx, vy)
        t += dt
    return boyer.TrajectoryState(t, x, y, vx, vy)


@_check
def _rk4_order(rng) -> CheckRow:
    # The corrected law has identically zero acceleration, so its drift is
    # pure roundoff; fourth-order convergence is measured on the naive law,
    # the one dynamics in scope with a truncation error to converge.
    reference = _naive_endpoint(4096)

    def error(n_steps: int) -> float:
        end = _naive_endpoint(n_steps)
        dx, dy = end.x - reference.x, end.y - reference.y
        dvx, dvy = end.vx - reference.vx, end.vy - reference.vy
        return math.sqrt(dx * dx + dy * dy) + math.sqrt(dvx * dvx + dvy * dvy)

    order = math.log2(error(128) / error(256))
    return claim_row("rk4_order4_convergence", abs(order - 4.0), expected=4.0, actual=order)


def _bounce(law: str) -> boyer.BounceResult:
    # An offset flight line past the charged line, both mirrors on the same
    # side of closest approach, so the naive force pumps energy on every leg.
    line = boyer.LineCharge(lambda_c=0.05)
    start = boyer.TrajectoryState(t=0.0, x=3.0, y=0.5, vx=-2.0, vy=0.0)
    cfg = boyer.BounceConfig(mirror_a=1.5, mirror_b=3.0, n_bounces=10, dt=1.0 / 256.0, law=law)
    return boyer.simulate_bounce_experiment(line, _UNIT_NEUTRON, cfg, start, _K1)


# One naive-law bounce feeds both the energy-growth and the work checks.
_check(lambda rng: bounce_checks(_bounce(boyer.NAIVE_LAW)))
_check(lambda rng: bounce_checks(_bounce(boyer.FULL_LAW)))


@_check
def _ac_phase_deformation(rng) -> CheckRow:
    lc = boyer.LineCharge(lambda_c=0.7)
    mu_z = 1.3
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
    phase_circle = boyer.ac_phase(lc, mu_z, circle, _K1)
    phase_square = boyer.ac_phase(lc, mu_z, square, _K1)
    return claim_row("ac_phase_loop_deformation", _relative(phase_square, phase_circle))


@_claim("ac_phase_linearity", 20)
def _ac_phase_linearity(rng) -> float:
    lam = _log_uniform(rng, 1e-2, 1e2)
    muz = _log_uniform(rng, 1e-2, 1e2)
    factor = _log_uniform(rng, 0.1, 10.0)

    def phase(lam: float, muz: float) -> float:
        return boyer.ac_phase(boyer.LineCharge(lambda_c=lam), muz, _UNIT_CIRCLE, _K1)

    base = phase(lam, muz)
    return _worst(
        (_relative(phase(lam * factor, muz), base * factor), _relative(phase(lam, muz * factor), base * factor))
    )


def _random_triple(rng) -> tuple[fieldfree.ChargeConfiguration, float, float]:
    d = _log_uniform(rng, 1e-3, 1e3)
    e = _log_uniform(rng, 1e-3, 1e3)
    return fieldfree.make_three_charge(d, e), d, e


@_claim("field_free_three_charge", 100)
def _three_charge(rng) -> float:
    cfg, d, e = _random_triple(rng)
    return three_charge_residual([fieldfree.field_at(cfg, i).norm() for i in range(3)], d, e)


@_claim("potential_at_electron", 100)
def _three_charge_potential(rng) -> float:
    return potential_residual(*_random_triple(rng))[0]


def _random_configuration(rng, count: int) -> fieldfree.ChargeConfiguration:
    charges = []
    while len(charges) < count:
        candidate = fieldfree.PointCharge(
            q=_uniform(rng, -2.0, 2.0), pos=_random_vec(rng, 1.0)
        )
        if all((candidate.pos - c.pos).norm() > 0.05 for c in charges):
            charges.append(candidate)
    return fieldfree.ChargeConfiguration(tuple(charges))


@_claim("coulomb_field_rigid_covariance", 50)
def _field_covariance(rng) -> float:
    import numpy as np

    cfg = _random_configuration(rng, 4)
    raw = rng.normal(size=(3, 3))
    q_mat, _ = np.linalg.qr(raw)
    if np.linalg.det(q_mat) < 0.0:
        q_mat[:, 0] = -q_mat[:, 0]
    shift = _random_vec(rng, 5.0)

    def rotate(v: Vec3) -> Vec3:
        rotated = q_mat @ np.array(v.as_tuple())
        return Vec3(float(rotated[0]), float(rotated[1]), float(rotated[2]))

    moved = fieldfree.ChargeConfiguration(
        tuple(fieldfree.PointCharge(c.q, rotate(c.pos) + shift) for c in cfg.charges)
    )

    def miss(i: int) -> float:
        original = fieldfree.field_at(cfg, i)
        return (fieldfree.field_at(moved, i) - rotate(original)).norm() / max(original.norm(), 1e-300)

    return _worst(miss(i) for i in range(len(cfg.charges)))


@_claim("newtons_third_law", 50)
def _newtons_third_law(rng) -> float:
    cfg = _random_configuration(rng, 5)
    total = Vec3(0.0, 0.0, 0.0)
    scale = 0.0
    for i, charge in enumerate(cfg.charges):
        force = fieldfree.field_at(cfg, i) * charge.q
        total = total + force
        scale = max(scale, force.norm())
    return total.norm() / max(scale, 1e-300)


def run_verify_suite(seed: int = 42) -> RunReport:
    """Run every module invariant with a seeded generator; deterministic."""
    import numpy as np

    rng = np.random.default_rng(seed)
    checks: list[CheckRow] = []
    for check in _CHECKS:
        rows = check(rng)
        checks.extend(rows if isinstance(rows, list) else (rows,))
    return RunReport(
        scenario={"kind": "verify", "seed": seed},
        rows=[],
        checks=checks,
        columns=[],
    )
