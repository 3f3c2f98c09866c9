"""The claim catalogue: each physics check defined once, its seeded runner,
and the reports of verify and of the scenarios with their CSV/JSON emission.

``run_verify_suite(seed)`` executes the whole catalogue with a deterministic
random generator and returns a RunReport whose check rows name the physics
claims they audit.  Identical seeds produce byte-identical reports; the CLI
maps a non-empty failure set to a non-zero exit code.

The rows are the only definition of a report's columns: the CSV header is the
keys of its rows (or of its checks) in order of first appearance, ``error``
last.  A JSON report is exactly ``json.dumps(report.to_dict(), indent=2)``
plus a newline.  CSV cells follow the csv module's rules (RFC-4180 quoting,
LF line endings): None is an empty cell, a float its ``repr`` (the shortest
round-trip decimal) and any other value its ``str``, except that the checks
write ``pass`` as true/false.  This module imports neither PyYAML nor
``scenario``, so ``abclab verify`` loads neither.

``TOLERANCES`` holds the tolerance of every verify and scenario check.  A
residual claim (``claim_row``) passes below it, or at it with ``at_most``, so
NaN fails; every check row, of verify and of the scenarios, is a claim row.
A worst-of-N, over a check's draws, a draw's parts or a sweep's points, keeps
the worst residual by ``worse``, under which NaN is worse than any number.

The draws come from the standard library's ``random.Random(seed)``, the
Mersenne Twister, whose ``random()`` sequence for a given seed Python promises
to keep from version to version ("Notes on Reproducibility" in the ``random``
docs), so a seed gives the same report on any Python and needs no numpy or
BLAS.  Every uniform draw is ``_uniform(rng, lo, hi) = lo + (hi - lo) *
rng.random()``, which is ``rng.uniform(lo, hi)`` to the bit.  A pure-Python
PCG64, numpy's default stream, would cost about ten times as much per double.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
import itertools
import json
import math
import random
import sys

from . import boyer, fieldfree, interferometry, solenoid
from .errors import ValidationError
from .units import GAUSSIAN_CGS, SCALED_UNITY, PhysicalConstants, Vec3, make_constants

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


# ---------------------------------------------------------------------------
# emission


def render_csv(report: RunReport) -> str:
    """CSV text of one table: the rows, or the checks when there are no rows.
    The header is the table's keys in order of first appearance, with ``error``
    last.  The csv module formats each cell: None is empty, a float is its
    ``repr`` and anything else its ``str``; the checks write ``pass`` as
    true/false."""
    if report.rows:
        table = report.rows
    else:
        table = [{**check.to_dict(), "pass": "true" if check.passed else "false"} for check in report.checks]
    columns = list(dict.fromkeys(itertools.chain.from_iterable(table)))
    if "error" in columns:
        columns.remove("error")
        columns.append("error")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(map(row.get, columns) for row in table)
    return buffer.getvalue()


_SCALARS = frozenset({str, int, float, bool, type(None)})


def _flat(members) -> bool:
    return _SCALARS.issuperset(map(type, members))


@functools.cache
def _flat_encoder(inner: str):
    """The C encoder that writes a container's members one per line at the
    indentation ``inner``, as ``json.dumps(indent=2)`` does."""
    return json.JSONEncoder(separators=(",\n" + inner, ": ")).encode


def _json_key(key) -> str:
    """A mapping key as ``json`` writes it: a str as itself, a number or
    constant as its JSON text, in quotes."""
    if not isinstance(key, str):
        if not isinstance(key, (int, float)) and key is not None:
            raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
        key = _flat_encoder("")(key)
    return json.encoder.encode_basestring_ascii(key)


def _json_chunks(value, indent: str, out: list[str]):
    """Append to ``out`` the text of ``value`` as ``json.dumps(value, indent=2)``
    writes it at the nesting whose indentation is ``indent``.  A container of
    scalars is one call of the C encoder, with its brackets moved onto their
    own lines; so is a list of such mappings (a report's rows and checks).
    The C encoder escapes every newline in a string, so a raw newline is only
    ever a separator, and ``"},\n" + deeper + "{"`` only ever joins two of the
    mappings."""
    is_dict = isinstance(value, dict)
    if not (is_dict or isinstance(value, (list, tuple))):
        out.append(_flat_encoder("")(value))
        return
    if not value:
        out.append("{}" if is_dict else "[]")
        return
    inner = indent + "  "
    if _flat(value.values() if is_dict else value):
        text = _flat_encoder(inner)(value)
        out += (text[0], "\n", inner, text[1:-1], "\n", indent, text[-1])
        return
    if not is_dict and all(type(row) is dict and row and _flat(row.values()) for row in value):
        deeper = inner + "  "
        text = _flat_encoder(deeper)(value)[2:-2].replace("},\n" + deeper + "{", f"\n{inner}}},\n{inner}{{\n{deeper}")
        out += ("[\n", inner, "{\n", deeper, text, "\n", inner, "}\n", indent, "]")
        return
    out += ("{" if is_dict else "[", "\n", inner)
    separator = ",\n" + inner
    for i, member in enumerate(value.items() if is_dict else value):
        if i:
            out.append(separator)
        if is_dict:
            key, member = member
            out += (_json_key(key), ": ")
        _json_chunks(member, inner, out)
    out += ("\n", indent, "}" if is_dict else "]")


def render_json(report: RunReport) -> str:
    """The report as ``json.dumps(report.to_dict(), indent=2)`` writes it,
    newline-terminated.  Its chunks are joined once, so a large report is
    copied once."""
    out: list[str] = []
    _json_chunks(report.to_dict(), "", out)
    out.append("\n")
    return "".join(out)


def emit(report: RunReport, format: str, path: str | None):
    """Write the report as CSV or JSON to a file path (or stdout when None)."""
    if format == "csv":
        text = render_csv(report)
    elif format == "json":
        text = render_json(report)
    else:
        raise ValidationError(f"unknown output format {format!r}; expected 'csv' or 'json'")
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise OSError(f"could not write report to {path!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# tolerances and claim rows


# Tolerance of each verify check, then of the claims only scenarios report.
# Residual claims pass below it, or at it with claim_row's at_most.
TOLERANCES = {
    "cross_antisymmetry": 1e-15,
    "cross_orthogonality": 1e-12,
    "constants_deterministic": 0.0,
    "detector_probability_sum": 1e-15,
    "detector_phase_periodicity": 1e-12,
    "overlap_identity_is_one": 1e-15,
    "overlap_magnitude_bound": 1.0,
    "overlap_closed_vs_quadrature": 1e-12,
    "overlap_monotone_in_shift": 0.0,
    "overlap_monotone_in_kick": 0.0,
    "factor4_identity": 1e-12,
    "velocity_kick_quadrature": 1e-12,
    "emf_flux_profile_shape": 1e-12,
    "displacement_orbit_invariance": 1e-14,
    "flux_phase_linearity": 1e-12,
    "flux_chain_consistency": 1e-14,
    "visibility_pipeline_monotone": 0.0,
    "boyer_force_equals_momentum_rate": 1e-15,
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
    value for none): NaN if any is NaN, else the largest above ``floor``.

    Where their sum is not NaN, none is NaN and ``max`` ranks them as
    ``worse`` does, keeping the first of ties (``0.0`` and ``-0.0`` too)."""
    residuals = list(residuals)
    if math.isnan(sum(residuals)):  # a NaN, or inf with -inf
        return functools.reduce(lambda worst, residual: residual if worse(residual, worst) else worst, residuals, floor)
    worst = max(residuals, default=floor)
    return worst if worst > floor else floor


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


def detector_sum_residual(p: interferometry.DetectionProbabilities) -> float:
    """|p_A + p_B - 1|: the two detector probabilities sum to one."""
    return abs(p.p_a + p.p_b - 1.0)


def flux_chain_residual(flux: float, phase_ab: float, k: PhysicalConstants) -> float:
    """The AB phase through a solenoid's flux against its direct closed form
    ``phase_ab``."""
    return _relative(solenoid.ab_phase_from_flux(flux, k), phase_ab)


def field_residual(field_magnitude: float, d: float, e: float) -> float:
    """A field magnitude at one charge of the triple in units of e/d^2.  With
    d = m 2^j, m in [0.5, 1), it is (magnitude 2^2j)/(e/m^2), equal to the bit
    to magnitude/(e/(d*d)) wherever neither overflows nor underflows, so d*d
    is never formed.  NaN, so the claim FAILs, when e/m^2 is not a positive
    finite float; inf when the scaled magnitude overflows."""
    m, j = math.frexp(d)
    unit = e / (m * m)
    if not 0.0 < unit < math.inf:
        return math.nan
    return fieldfree._times_power_of_two(field_magnitude, 2 * j) / unit


def three_charge_residual(field_residuals) -> float:
    """The worst of the ``field_residual``s of the triple's charges."""
    return _worst(field_residuals)


def potential_residual(scaled: tuple[int, float], d: float, e: float) -> tuple[float, float, float]:
    """(residual, 8e/d, potential) of the electron's potential (charge 0 of
    the triple), given as ``fieldfree.coulomb_at``'s (k, s), against 8e/d
    (formed as e/(d/8): d/8 is exact, and 8e cannot overflow), in the order
    of ``claim_row``.  With d = m 2^j and e = n 2^i, m and n in [0.5, 1), the
    residual compares s 2^(j-i-k) with 8n/m: equal to the bit to
    |potential/(8e/d) - 1| wherever neither underflows, and as sharp where
    8e/d has only a few bits below the least normal float.  Where the
    potential or 8e/d overflows, it is |potential/(8e/d) - 1|, at least 1 or
    NaN, so the claim FAILs."""
    k, s = scaled
    potential, expected = fieldfree._times_power_of_two(s, -k), e / (0.125 * d)
    if not (math.isfinite(potential) and math.isfinite(expected)):
        return _relative(potential, expected), expected, potential
    (m, j), (n, i) = math.frexp(d), math.frexp(e)
    return _relative(fieldfree._times_power_of_two(s, j - i - k), 8.0 * n / m), expected, potential


def bounce_checks(result: boyer.BounceResult) -> list[CheckRow]:
    """The energy claims of one bounce run.  The full law conserves kinetic
    energy.  The naive law changes it on every leg, by the work of its force,
    in one direction: along the unperturbed chord y = y0 a leg from mirror a
    to mirror b takes the work (2 |vx| mu_z lambda y0 / c) |1/(a^2 + y0^2) -
    1/(b^2 + y0^2)| to first order in the coupling.  So for mu_z lambda y0 > 0
    ``energy_grows_naive_law`` expects "increasing" and reports the least leg
    gain, and for mu_z lambda y0 < 0 "decreasing" and the largest, the leg
    that most contradicts it; a zero product is judged as "increasing".  The
    sign is the product of the factors' signs, so it survives an underflow.

    The work integral is not fully independent of the kinetic energies: on a
    nearly straight path, RK4 and the Simpson work rule sample the force at
    the same nodes.  So at vanishing coupling ``work_integral_match`` guards
    the energy bookkeeping, not the physics.  At verify's bounce step of
    1/32 s the row can FAIL a second-order work rule: a Simpson rule whose
    midpoint is the mean of a step's start and end states misses by 2.5e-5
    against the tolerance of 1e-6."""
    if result.law == boyer.FULL_LAW:
        drift = _relative(result.bounce_kinetic_energies[-1], result.initial_kinetic_energy)
        return [claim_row("energy_conserved_full_law", drift)]
    gains = result.ke_gain_per_leg
    factors = (result.neutron.mu_z, result.line.lambda_c, result.states[0].y)
    if math.prod((f > 0.0) - (f < 0.0) for f in factors) < 0:
        max_gain = _worst(gains, -math.inf)
        growth = claim_row("energy_grows_naive_law", max_gain, "decreasing", max_gain)
    else:
        min_gain = _least(gains)
        growth = claim_row("energy_grows_naive_law", -min_gain, "increasing", min_gain)
    mismatch = _worst(_relative(gain, work) for gain, work in zip(gains, result.work_per_leg))
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
        _CHECKS.append(lambda rng: claim_row(name, _worst(residual(rng) for _ in range(draws)), expected))
        return residual

    return register


_K1 = make_constants(SCALED_UNITY)
_UNIT_LINE = boyer.LineCharge(lambda_c=1.0)
_UNIT_NEUTRON = boyer.NeutronModel(mass=1.0, mu_z=1.0)
# The unit laws, bound once: at _UNIT_NEUTRON's unit mass the naive law's
# acceleration is F and the full law's F - (v . grad)p_h.
_UNIT_NAIVE_LAW = boyer.acceleration_law(_UNIT_LINE, _UNIT_NEUTRON, boyer.NAIVE_LAW, _K1)
_UNIT_FULL_LAW = boyer.acceleration_law(_UNIT_LINE, _UNIT_NEUTRON, boyer.FULL_LAW, _K1)
_UNIT_CIRCLE = boyer.CircleLoop(center=Vec3(0.0, 0.0, 0.0), radius=1.0)


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    """``rng.uniform(lo, hi)`` to the bit, at the same stream position."""
    return lo + (hi - lo) * rng.random()


@functools.cache
def _log_span(lo: float, hi: float) -> tuple[float, float]:
    # (log lo, log hi - log lo): the bits _uniform forms from the logs
    log_lo = math.log(lo)
    return log_lo, math.log(hi) - log_lo


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    log_lo, width = _log_span(lo, hi)
    return math.exp(log_lo + width * rng.random())  # _uniform(rng, log lo, log hi)


def _sign(rng: random.Random) -> float:
    """-1.0 or 1.0 with equal odds, from one ``random()``."""
    return (-1.0, 1.0)[rng.random() < 0.5]


_PARAMETER_LOG_SPAN = _log_span(1e-3, 1e3)  # the range of every random solenoid, orbit, constant and triple


def _log_uniforms(rng: random.Random, n: int) -> list[float]:
    """n draws of ``_log_uniform(rng, 1e-3, 1e3)``, to the bit and in the
    order that n calls make them."""
    (log_lo, width), exp, draw = _PARAMETER_LOG_SPAN, math.exp, rng.random
    draws = []
    for _ in range(n):
        draws.append(exp(log_lo + width * draw()))
    return draws


def _random_vec(rng: random.Random, scale: float = 1.0) -> Vec3:
    # three _uniform(rng, -scale, scale) draws: hi - lo is scale + scale
    lo, width, draw = -scale, scale + scale, rng.random
    return Vec3(lo + width * draw(), lo + width * draw(), lo + width * draw())


def _random_constants(rng: random.Random) -> PhysicalConstants:
    e, c, hbar = _log_uniforms(rng, 3)
    return PhysicalConstants(e=e, c=c, hbar=hbar)


def _random_solenoid(rng: random.Random) -> solenoid.SolenoidParams:
    return solenoid.SolenoidParams(*_log_uniforms(rng, 5))


def _random_orbit(rng: random.Random) -> solenoid.OrbitParams:
    R, u = _log_uniforms(rng, 2)
    return solenoid.OrbitParams(R=R, u=u)


_UNIT_SOLENOID = solenoid.SolenoidParams(r=1.0, L=1.0, M=1.0, Q=1.0, v=1.0)
_UNIT_ORBIT = solenoid.OrbitParams(R=2.0, u=1.0)


@_claim("cross_antisymmetry", 500)
def _cross_antisymmetry(rng) -> float:
    a, b = _random_vec(rng, 10.0), _random_vec(rng, 10.0)
    residual = a.cross(b) + b.cross(a)
    return _worst(abs(c) for c in residual.as_tuple())


@_claim("cross_orthogonality", 500)
def _cross_orthogonality(rng) -> float:
    a, b = _random_vec(rng, 10.0), _random_vec(rng, 10.0)
    c = a.cross(b)
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
    return detector_sum_residual(interferometry.detector_probabilities(phase, vis))


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
    )
    dx = _sign(rng) * _log_uniform(rng, 1e-3, 1e2) * packet.sigma_x
    dp = _sign(rng) * _log_uniform(rng, 1e-3, 1e2) / packet.sigma_x
    return abs(interferometry.packet_overlap(packet, dx, dp, 1.0))


@_claim("overlap_closed_vs_quadrature", 120)
def _overlap_quadrature(rng) -> float:
    sigma = _log_uniform(rng, 0.3, 3.0)
    packet = interferometry.GaussianPacket(
        x0=_uniform(rng, -2.0, 2.0),
        p0=_uniform(rng, -2.0, 2.0),
        sigma_x=sigma,
    )
    dx = _uniform(rng, -2.0, 2.0) * sigma
    dp = _uniform(rng, -2.0, 2.0) / sigma
    closed = interferometry.packet_overlap(packet, dx, dp, 1.0)
    quad = interferometry.overlap_by_quadrature(packet, dx, dp, 1.0)
    return abs(closed - quad) / abs(closed)


def _overlap_monotone(name: str, vary_shift: bool) -> CheckRow:
    # The overlap magnitude never rises along a grid of growing shifts (kicks).
    packet = interferometry.GaussianPacket(x0=0.3, p0=-0.7, sigma_x=1.3)
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
    return _relative(solenoid.velocity_change_by_quadrature(s, o, k), solenoid.cylinder_velocity_change(s, o, k))


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
    direct = solenoid.cylinder_displacement(s, k)
    # the route through the kick, delta_v * (pi*R/u), against the orbit-free closed form
    return _worst(
        _relative(solenoid.cylinder_velocity_change(s, o, k) * (math.pi * o.R / o.u), direct) for o in (o1, o2)
    )


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
    return flux_chain_residual(solenoid.solenoid_flux(s, k), solenoid.ab_phase_direct(s, k), k)


@_check
def _visibility_pipeline(rng) -> CheckRow:
    s, o = _UNIT_SOLENOID, _UNIT_ORBIT
    kick = solenoid.source_momentum_kick(s, o, _K1)
    ratios = [10.0 ** (-2.0 + 4.0 * i / 19.0) for i in range(20)]
    visibilities = []
    for ratio in ratios:
        sigma_p = ratio * kick
        sigma_x = _K1.hbar / (2.0 * sigma_p)
        packet = interferometry.GaussianPacket(x0=0.0, p0=0.0, sigma_x=sigma_x)
        overlap = interferometry.packet_overlap(packet, 0.0, kick, _K1.hbar)
        visibilities.append(interferometry.visibility_from_overlap(overlap))
    monotone = all(b >= a for a, b in zip(visibilities, visibilities[1:]))
    ok = monotone and visibilities[-1] > 0.999 and visibilities[0] < 0.01
    summary = f"V({ratios[0]:g})={visibilities[0]:.3g}, V({ratios[-1]:g})={visibilities[-1]:.6g}"
    verdict = 0.0 if ok else 1.0
    return claim_row("visibility_pipeline_monotone", verdict, "0 -> 1 with spread/kick", summary, at_most=True)


@_claim("boyer_force_equals_momentum_rate", 1000)
def _force_equals_rate(rng) -> float:
    rho = _log_uniform(rng, 0.1, 10.0)
    angle = _uniform(rng, 0.0, 2.0 * math.pi)
    x, y = rho * math.cos(angle), rho * math.sin(angle)
    _uniform(rng, -1.0, 1.0)  # a z, drawn to keep the stream in place; the line field does not depend on it
    vx, vy = _uniform(rng, -3.0, 3.0), _uniform(rng, -3.0, 3.0)
    # At unit inverse mass the naive law returns F, and the full law returns
    # F - (v . grad)p_h from the two separately formed terms, the expression
    # RK4 integrates; that it cancels is the claim.
    fx, fy = _UNIT_NAIVE_LAW(x, y, vx, vy)
    net_x, net_y = _UNIT_FULL_LAW(x, y, vx, vy)
    return _worst((abs(net_x), abs(net_y))) / max(math.sqrt(fx * fx + fy * fy), 1e-300)


# The two unit flights step the unit laws on plain floats with
# boyer.step_trajectory, looked up at each call, so that the benchmark's
# tracer, which wraps that name, counts their steps.  A stepper that returns a
# non-finite state gives a NaN residual, so its row FAILs; boyer's own raises
# NumericalError first.
#
# The full-law flight runs 10.24 s in 256 steps of 0.04 s.  Closest approach
# takes rho_min/|v| ~ 1.95/1.39 ~ 1.4 s, about 35 steps.  A broken
# cancellation shows as the time integral of the net acceleration, the
# integrated speed miss, not as a count of steps, so finer steps along the
# same path add cost and no evidence: a full law off by 1e-6 of |F| reads
# about 4.8e-7 here and at 10,000 steps of 1e-3 s alike.


@_check
def _full_law_speed(rng) -> CheckRow:
    step, accel, sqrt = boyer.step_trajectory, _UNIT_FULL_LAW, math.sqrt
    t, x, y, vx, vy = 0.0, 2.5, 0.8, -1.2, 0.7
    speed0 = sqrt(vx * vx + vy * vy)
    ux0, uy0 = vx * (1.0 / speed0), vy * (1.0 / speed0)
    misses = []
    for _ in range(256):
        t, x, y, vx, vy = step(accel, 0.04, t, x, y, vx, vy)
        misses.append(abs(sqrt(vx * vx + vy * vy) / speed0 - 1.0))  # _relative, speed0 being nonzero
    inv_speed = 1.0 / sqrt(vx * vx + vy * vy)
    dux, duy = vx * inv_speed - ux0, vy * inv_speed - uy0
    misses.append(sqrt(dux * dux + duy * duy))  # direction drift
    return claim_row("full_law_no_classical_lag", _worst(misses))


def _naive_endpoint(n_steps: int) -> tuple[float, float, float, float]:
    # (x, y, vx, vy) where the naive law carries a fixed start after one unit of time
    step, accel = boyer.step_trajectory, _UNIT_NAIVE_LAW
    t, x, y, vx, vy = 0.0, 2.0, 0.6, -1.0, 0.3
    dt = 1.0 / n_steps
    for _ in range(n_steps):
        t, x, y, vx, vy = step(accel, dt, t, x, y, vx, vy)
    return x, y, vx, vy


@_check
def _rk4_order(rng) -> CheckRow:
    # The corrected law has identically zero acceleration, so its drift is
    # pure roundoff; fourth-order convergence is measured on the naive law,
    # the one dynamics in scope with a truncation error to converge.  The
    # endpoints at 128, 256 and 512 steps differ by C h^p (1 - 2^-p) and
    # C (h/2)^p (1 - 2^-p), so the ratio of the two gaps is 2^p (Richardson),
    # and no finer reference flight is needed.
    def gap(a: tuple, b: tuple) -> float:
        dx, dy, dvx, dvy = (p - q for p, q in zip(a, b))
        return math.sqrt(dx * dx + dy * dy) + math.sqrt(dvx * dvx + dvy * dvy)

    coarse, middle, fine = (_naive_endpoint(n_steps) for n_steps in (128, 256, 512))
    order = math.log2(gap(coarse, middle) / gap(middle, fine))
    return claim_row("rk4_order4_convergence", abs(order - 4.0), expected=4.0, actual=order)


_BOUNCE_DT = 1.0 / 32.0  # s; both laws' bounces, 24 steps a leg


def _bounce(law: str) -> boyer.BounceResult:
    # An offset flight line past the charged line, both mirrors on the same
    # side of closest approach, so the naive force pumps energy on every leg.
    # Each 0.75 s leg ends on a step boundary at _BOUNCE_DT.
    line = boyer.LineCharge(lambda_c=0.05)
    start = boyer.TrajectoryState(t=0.0, x=3.0, y=0.5, vx=-2.0, vy=0.0)
    cfg = boyer.BounceConfig(mirror_a=1.5, mirror_b=3.0, n_bounces=10, dt=_BOUNCE_DT, law=law)
    return boyer.simulate_bounce_experiment(line, _UNIT_NEUTRON, cfg, start, _K1)


# Both bounces fly the same 10 legs at 1/32 s, 24 steps a leg; closest
# approach takes about rho_min/|v| = 1.58/2 ~ 0.79 s, some 25 steps.  The
# full-law row reads the kinetic energy drift, the time integral of a broken
# cancellation along the path, so finer steps add cost and no evidence: a full
# law off by 1e-5 of the naive acceleration reads 1.4594610e-6 here and
# 1.4594609e-6 at 1/256 s.  One naive-law bounce feeds both the energy-growth
# and the work checks.  The coarse step makes the work row stronger: at
# 1/256 s every truncation error is so small that a work rule with a
# second-order midpoint (the mean of a step's start and end states) reads
# 3.9e-7 and passes, while here it reads 2.5e-5 and FAILs.


@_check
def _naive_bounce(rng) -> list[CheckRow]:
    return bounce_checks(_bounce(boyer.NAIVE_LAW))


@_check
def _full_law_bounce(rng) -> list[CheckRow]:
    return bounce_checks(_bounce(boyer.FULL_LAW))


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
    d, e = _log_uniforms(rng, 2)
    return fieldfree.make_three_charge(d, e), d, e


@_claim("field_free_three_charge", 100)
def _three_charge(rng) -> float:
    cfg, d, e = _random_triple(rng)
    return three_charge_residual(field_residual(fieldfree.field_at(cfg, i).norm(), d, e) for i in range(3))


@_claim("potential_at_electron", 100)
def _three_charge_potential(rng) -> float:
    cfg, d, e = _random_triple(rng)
    return potential_residual(fieldfree.coulomb_at(cfg, 0)[1:], d, e)[0]


def _random_configuration(rng, count: int) -> fieldfree.ChargeConfiguration:
    charges, kept = [], []  # kept: the charges' positions as floats
    while len(charges) < count:
        candidate = fieldfree.PointCharge(
            q=_uniform(rng, -2.0, 2.0), pos=_random_vec(rng, 1.0)
        )
        x, y, z = candidate.pos.x, candidate.pos.y, candidate.pos.z
        # each distance as (candidate.pos - c.pos).norm() forms it
        if all(math.sqrt((x - a) * (x - a) + (y - b) * (y - b) + (z - c) * (z - c)) > 0.05 for a, b, c in kept):
            charges.append(candidate)
            kept.append((x, y, z))
    return fieldfree.ChargeConfiguration(tuple(charges))


def _random_rotation(rng: random.Random) -> tuple[tuple[float, float, float], ...]:
    """The rows of a uniformly random rotation, from the unit quaternion
    (w, x, y, z) of three uniforms (K. Shoemake, "Uniform random rotations",
    Graphics Gems III, 1992); its determinant is +1 by construction."""
    u1, u2, u3 = rng.random(), rng.random(), rng.random()
    a, b = math.sqrt(1.0 - u1), math.sqrt(u1)
    w, x = a * math.sin(2.0 * math.pi * u2), a * math.cos(2.0 * math.pi * u2)
    y, z = b * math.sin(2.0 * math.pi * u3), b * math.cos(2.0 * math.pi * u3)
    return (
        (1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)),
        (2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x)),
        (2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)),
    )


@_claim("coulomb_field_rigid_covariance", 50)
def _field_covariance(rng) -> float:
    cfg = _random_configuration(rng, 4)
    (q00, q01, q02), (q10, q11, q12), (q20, q21, q22) = _random_rotation(rng)
    shift = _random_vec(rng, 5.0)

    def rotate(v: Vec3) -> Vec3:
        x, y, z = v.x, v.y, v.z
        return Vec3(q00 * x + q01 * y + q02 * z, q10 * x + q11 * y + q12 * z, q20 * x + q21 * y + q22 * z)

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
    rng = random.Random(seed)
    checks: list[CheckRow] = []
    for check in _CHECKS:
        rows = check(rng)
        checks.extend(rows if isinstance(rows, list) else (rows,))
    return RunReport(scenario={"kind": "verify", "seed": seed}, rows=[], checks=checks)
