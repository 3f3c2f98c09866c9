"""Scenario configuration, execution and sweeps; reports render in ``verify``.

A scenario is a single YAML document.  All physical parameters carry their
unit in the key name, which is the cheapest defence against unit mistakes in
a Gaussian-units code base.

The tables below are the schema reference: ``_SCENARIO`` for the top level
(kind, units, params, sweep, output), ``_SWEEP`` and ``_OUTPUT`` for the
optional blocks, and ``_KINDS``, one entry per kind, for the params block.
Each table maps a key to its type, range included, and says whether it is
required, defaulted or omitted when absent.  A kind's entry adds its
``build``, which applies every rule that spans keys or needs the physics
objects, and its ``measure``, which turns what ``build`` returns into rows
and check rows.  The parse builds the document's own params, so they must
pass every rule of their kind; a run builds each point again, so a swept
point that breaks a rule becomes an error row with the same message.  A
sweep varies one float key of params, named by its dotted path
(``solenoid.v_cm_per_s``), from ``from`` to ``to`` in ``steps`` points;
integer keys cannot be swept.  The parse resolves the path once and checks
every point against the key's type; a point's params copy only the mappings
on that path.

Every check row is a ``verify.claim_row``; a sweep reports each check by the
row of its worst point, kept whole.  Reports are deterministic: identical
scenario plus seed give byte identical CSV/JSON.  ``render_csv``,
``render_json`` and ``emit`` are ``verify``'s, re-exported here with the
report types, so that ``abclab verify`` never imports this module or PyYAML.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import yaml
from yaml.composer import Composer

from . import boyer, fieldfree, interferometry, solenoid, verify
from .errors import AbclabError, DomainError, NumericalError, ScenarioParseError, SingularityError, ValidationError
from .units import GAUSSIAN_CGS, PhysicalConstants, UNIT_SYSTEMS, Vec3, _ValueTuple, make_constants
from .verify import CheckRow, RunReport, emit, render_csv, render_json  # report types and emission, re-exported

KIND_MZI = "mzi"
KIND_AB_SOLENOID = "ab-solenoid"
KIND_AC_BOUNCE = "ac-bounce"
KIND_AC_PHASE = "ac-phase"
KIND_FIELD_FREE = "field-free"
KINDS = (KIND_MZI, KIND_AB_SOLENOID, KIND_AC_BOUNCE, KIND_AC_PHASE, KIND_FIELD_FREE)

@dataclass
class SweepSpec:
    param: str
    start: float
    stop: float
    steps: int
    scale: str = "linear"

    def values(self) -> list[float]:
        if self.scale == "log":
            ratio = self.stop / self.start
            points = [self.start * ratio ** (i / (self.steps - 1)) for i in range(self.steps)]
        else:
            span = self.stop - self.start
            points = [self.start + span * i / (self.steps - 1) for i in range(self.steps)]
        # The formula can round its last point a float step past ``stop``, and
        # so past a closed bound such as visibility 1.0; such a point is
        # ``stop``.  A larger miss, from cancellation when |from| >> |to| in a
        # linear sweep, stays as the formula gives it (perfbench's oracle).
        if math.isclose(points[-1], self.stop, rel_tol=2.0 * sys.float_info.epsilon):
            points[-1] = self.stop
        return points

    def to_dict(self) -> dict:
        return {
            "param": self.param,
            "from": self.start,
            "to": self.stop,
            "steps": self.steps,
            "scale": self.scale,
        }


@dataclass
class OutputSpec:
    format: str = "csv"
    path: str | None = None

    def to_dict(self) -> dict:
        return {"format": self.format, "path": self.path}


@dataclass
class Scenario:
    kind: str
    units: str
    params: dict
    sweep: SweepSpec | None
    output: OutputSpec
    warnings: list[str]

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "units": self.units,
            "params": self.params,
            "sweep": self.sweep.to_dict() if self.sweep else None,
            "output": self.output.to_dict(),
            "warnings": list(self.warnings),
        }


# ---------------------------------------------------------------------------
# parsing
#
# The schema is one table per document level: key -> (type, presence).  A type
# is float, str, a tuple of allowed strings, a nested table, a _Tagged choice
# of tables, or a function that validates the raw value itself and names the
# key in its message (_bounded, _vertices).  A
# presence is REQUIRED, OMITTED (left out of the normalized dict when absent)
# or the default used when absent; a default of None also reads null as None.
# _walk validates a mapping against its table and builds the normalized dict
# in table order.  A rule that no table can state, because it spans keys or
# needs the physics objects and the unit system's constants, is in its kind's
# build (under "kinds"); it names every key it reads.

REQUIRED = object()
OMITTED = object()
_ROOT = "scenario"


class _TaggedFields(NamedTuple):
    tag: str
    tables: dict


class _Tagged(_ValueTuple, _TaggedFields):
    """A block whose ``tag`` key picks the table that validates it.  It is a
    tuple, so ``_field`` tells it from a tuple of allowed strings first."""

    __slots__ = ()


def _required(**kinds) -> dict:
    return {key: (kind, REQUIRED) for key, kind in kinds.items()}


def _number(value, where: str) -> float:
    """A finite float from a YAML int or float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{where}: must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range; too long to quote
        raise ValidationError(f"{where}: must be finite, got an integer beyond the float range") from None
    if not math.isfinite(number):
        raise ValidationError(f"{where}: must be finite, got {value!r}")
    return number


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{where}: must be an integer, got {value!r}")
    return value


def _bounded(holds, rule: str, read=_number):
    """The type of a value from ``read`` for which ``holds``; ``rule`` ends "<key>: must ..."."""

    def check(raw, where: str):
        value = read(raw, where)
        if not holds(value):
            raise ValidationError(f"{where}: must {rule}, got {value!r}")
        return value

    return check


_unit_interval = _bounded(lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]")
_positive = _bounded(lambda v: v > 0.0, "be positive")
_non_negative = _bounded(lambda v: v >= 0.0, "be non-negative")


def _vertices(raw, path: str) -> list:
    if not isinstance(raw, list) or not raw:
        raise ValidationError(f"{path}: required list of [x, y, z] triples")
    for i, item in enumerate(raw):
        if (
            not isinstance(item, list)
            or len(item) != 3
            or any(isinstance(c, bool) or not isinstance(c, (int, float)) for c in item)
        ):
            raise ValidationError(f"{path}[{i}]: must be an [x, y, z] triple")
    return [[_number(c, f"{path}[{i}]") for c in item] for i, item in enumerate(raw)]


_LINE = (_required(lambda_statC_per_cm=float), REQUIRED)
_MAX_CHARGE_UNIT = sys.float_info.max / 4.0  # the field-free triple holds 4e, which must be a finite float
_LOOP_KINDS = ("circle", "polyline")


# ---------------------------------------------------------------------------
# kinds: one build and one measure each, tabled with the params in _KINDS.
# parse_scenario builds the document's params and run_scenario builds and
# measures every point, so a rule refuses both through the same code.


def _keyed(keys: str, exc: AbclabError) -> AbclabError:
    """``exc`` with its message prefixed by the params ``keys`` that set it.
    It is raised from an ``except`` clause, which costs a point nothing
    unless the point raises."""
    return type(exc)(f"{keys}: {exc}")


_ROUTING_WINDOW_RAD = 1e-9  # how near 0 or pi (mod 2 pi) the routing claims apply


def _build_mzi(params: dict, k: PhysicalConstants):
    """(phase, visibility, path_shift): the phase, given or formed from the
    path shift, which is None when the phase is given."""
    shift = params.get("path_shift")
    if shift is not None and "phase_rad" in params:
        raise ValidationError("params: give either phase_rad or path_shift, not both")
    if shift is None:
        if "phase_rad" not in params:
            raise ValidationError("params.phase_rad: required field missing")
        return params["phase_rad"], params["visibility"], None
    try:  # the phase turns on these two keys alone, so its error names both
        phase = interferometry.phase_from_path_shift(shift["delta_l_cm"], shift["wavelength_cm"])
    except DomainError as exc:
        raise _keyed("params.path_shift.delta_l_cm, params.path_shift.wavelength_cm", exc) from None
    return phase, params["visibility"], shift


def _measure_mzi(inputs, k: PhysicalConstants):
    phase, vis, shift = inputs
    probs = interferometry.detector_probabilities(phase, vis)
    rows = [{"phase_rad": phase, "visibility": vis, "p_a": probs.p_a, "p_b": probs.p_b}]
    residual = verify.detector_sum_residual(probs)
    checks = [verify.claim_row("detector_probability_sum", residual, 1.0, probs.p_a + probs.p_b)]
    wrapped = math.remainder(phase, 2.0 * math.pi)
    near_zero = abs(wrapped) < _ROUTING_WINDOW_RAD
    if vis == 1.0 and (near_zero or abs(abs(wrapped) - math.pi) < _ROUTING_WINDOW_RAD):
        # A path shift's port is the parity of 2*delta_l/wavelength, taken
        # from the inputs, so that a wrong phase formula FAILs the row.
        to_a = near_zero if shift is None else round(2.0 * shift["delta_l_cm"] / shift["wavelength_cm"]) % 2 == 0
        name, p = ("routes_to_A_at_zero_phase", probs.p_a) if to_a else ("routes_to_B_at_pi_phase", probs.p_b)
        checks.append(verify.claim_row(name, abs(p - 1.0), 1.0, p))
    return rows, checks


# The params keys that each quantity of the factor-4 chain reads, and the
# inputs whose zero makes it exactly 0.0.
_AB_CHAIN_KEYS = {
    "flux": (("solenoid.r_cm", "solenoid.L_cm", "solenoid.Q_statC", "solenoid.v_cm_per_s"), ("Q",)),
    "phase_ab": (("solenoid.r_cm", "solenoid.L_cm", "solenoid.Q_statC", "solenoid.v_cm_per_s"), ("Q",)),
    "delta_x": (("solenoid.r_cm", "solenoid.L_cm", "solenoid.M_g", "solenoid.Q_statC"), ("Q",)),
    "lambda_db": (("solenoid.M_g", "solenoid.v_cm_per_s"), ()),
    "delta_v": (
        ("solenoid.r_cm", "solenoid.L_cm", "solenoid.M_g", "solenoid.Q_statC", "orbit.R_cm", "orbit.u_cm_per_s"),
        ("Q", "u"),
    ),
}

# The params keys that the denominator of each quotient of the chain reads,
# by the name its underflow error starts with (solenoid._quotient).
_AB_DENOMINATOR_KEYS = {
    "4*pi*Q*v*r/(c*L)": "params.solenoid.L_cm",
    "4*pi*e*Q*v*r/(c^2*L*hbar)": "params.solenoid.L_cm",
    "u*Q*e*r/(c^2*M*R*L)": "params.solenoid.L_cm, params.solenoid.M_g, params.orbit.R_cm",
    "pi*Q*e*r/(c^2*M*L)": "params.solenoid.L_cm, params.solenoid.M_g",
}


def _build_ab(params: dict, k: PhysicalConstants):
    """(chain, visibility): the ``solenoid.local_model_phase`` chain."""
    sol, orbit = params["solenoid"], params["orbit"]
    s = solenoid.SolenoidParams(r=sol["r_cm"], L=sol["L_cm"], M=sol["M_g"], Q=sol["Q_statC"], v=sol["v_cm_per_s"])
    o = solenoid.OrbitParams(R=orbit["R_cm"], u=orbit["u_cm_per_s"])
    if o.R <= s.r:
        raise ValidationError(
            f"params.orbit.R_cm, params.solenoid.r_cm: orbit radius {o.R!r} must exceed the solenoid radius {s.r!r}"
        )
    try:  # h/(M*v) turns on these two keys alone, so its error names both
        solenoid.de_broglie_wavelength(s.M, s.v, k)
    except DomainError as exc:
        raise _keyed("params.solenoid.M_g, params.solenoid.v_cm_per_s", exc) from None
    try:
        res = solenoid.local_model_phase(s, o, k)
    except DomainError as exc:  # a denominator underflows to 0.0
        raise _keyed(_AB_DENOMINATOR_KEYS[str(exc).partition(":")[0]], exc) from None
    # factor4_identity is judged relative to the phase: a quantity of the chain
    # that overflows or loses bits below the normal floats would FAIL it, and
    # the row would print a delta_v that did.  Only Q = 0, or u = 0 for
    # delta_v, makes one exactly 0.0 (each is proportional to them, the other
    # keys are positive); any other 0.0 has underflowed.
    inputs = {"Q": s.Q, "u": o.u}
    for name, (keys, zero_at) in _AB_CHAIN_KEYS.items():
        value = getattr(res, name)
        exact_zero = value == 0.0 and any(inputs[z] == 0.0 for z in zero_at)
        if not (sys.float_info.min <= abs(value) < math.inf or exact_zero):
            where = ", ".join(f"params.{key}" for key in keys)
            exact = " or ".join(f"{z} = 0" for z in zero_at)
            allowed = f"a normal finite float, or 0.0 at {exact}" if zero_at else "a normal finite float"
            raise DomainError(f"{where}: {name} must be {allowed}, got {value!r}")
    return res, params["visibility"]


def _measure_ab(inputs, k: PhysicalConstants):
    res, visibility = inputs
    probs = interferometry.detector_probabilities(res.phase_ab, visibility)
    residual = verify.factor4_residual(res)
    rows = [{
        "flux": res.flux, "phase_ab_rad": res.phase_ab, "delta_v_cm_per_s": res.delta_v, "delta_x_cm": res.delta_x,
        "lambda_db_cm": res.lambda_db, "phase_local_rad": res.phase_local, "p_a": probs.p_a, "p_b": probs.p_b,
        "identity_residual": residual,
    }]
    checks = [
        verify.claim_row("factor4_identity", residual),
        verify.claim_row("flux_chain_consistency", verify.flux_chain_residual(res.flux, res.phase_ab, k)),
    ]
    return rows, checks


def _ab_notes(params: dict) -> list[str]:
    """The long-solenoid strain of an ab-solenoid point, if r/L strains it."""
    note = solenoid.long_solenoid_note(params["solenoid"]["r_cm"], params["solenoid"]["L_cm"])
    return [note] if note else []


def _build_bounce(params: dict, k: PhysicalConstants):
    """(line, neutron, initial state, one BounceConfig per law).  The range
    types leave five rules: distinct mirror planes (BounceConfig), a start
    between them, a first step that moves x off a mirror plane, a finite
    kinetic energy and a start outside the line's neighbourhood (a
    SingularityError, exit 3, as the flight would raise)."""
    lc = boyer.LineCharge(lambda_c=params["line"]["lambda_statC_per_cm"])
    n = boyer.NeutronModel(mass=params["neutron"]["mass_g"], mu_z=params["neutron"]["mu_z_erg_per_G"])
    start = params["start"]
    initial = boyer.TrajectoryState(0.0, start["x_cm"], start["y_cm"], start["vx_cm_per_s"], start["vy_cm_per_s"])
    laws = [params["law"]] if params["law"] != "both" else [boyer.FULL_LAW, boyer.NAIVE_LAW]
    a, b, dt = params["mirrors"]["a_cm"], params["mirrors"]["b_cm"], params["dt_s"]
    try:
        configs = [boyer.BounceConfig(a, b, params["n_bounces"], dt, law) for law in laws]
    except ValidationError as exc:
        raise _keyed("params.mirrors", exc) from None
    try:
        configs[0].check_start(initial.x)
    except ValidationError as exc:
        raise _keyed("params.start.x_cm, params.mirrors.a_cm, params.mirrors.b_cm", exc) from None
    # a step under the float spacing leaves x on the mirror it starts at, and
    # every step would count as a bounce there
    step = abs(initial.vx) * dt
    spacing = math.ulp(max(abs(a), abs(b)))
    if step < spacing:
        raise ValidationError(
            f"params.dt_s, params.start.vx_cm_per_s, params.mirrors.a_cm, params.mirrors.b_cm: "
            f"a step moves x by |vx| * dt = {step!r} cm, "
            f"less than the float spacing {spacing!r} cm at the mirrors, so it cannot leave a mirror plane"
        )
    energy = boyer.kinetic_energy(n, initial)
    if not math.isfinite(energy):
        raise ValidationError(
            f"params.neutron.mass_g, params.start.vx_cm_per_s, params.start.vy_cm_per_s: "
            f"the kinetic energy m (vx^2 + vy^2)/2 must be finite, got {energy!r}"
        )
    try:
        boyer._check_axis(initial.x, initial.y)
    except SingularityError as exc:
        raise _keyed("params.start.x_cm, params.start.y_cm", exc) from None
    return lc, n, initial, configs


def _measure_bounce(inputs, k: PhysicalConstants):
    lc, n, initial, configs = inputs
    rows, checks = [], []
    for cfg in configs:
        result = boyer.simulate_bounce_experiment(lc, n, cfg, initial, k)
        legs = zip(result.bounce_times, result.bounce_kinetic_energies, result.work_per_leg, result.ke_gain_per_leg)
        rows.extend(
            {"law": cfg.law, "bounce_index": i, "t_s": t, "kinetic_energy_erg": ke, "leg_work_erg": work,
             "leg_ke_gain_erg": gain}
            for i, (t, ke, work, gain) in enumerate(legs, 1)
        )
        checks.extend(verify.bounce_checks(result))
    return rows, checks


def _build_ac_phase(params: dict, k: PhysicalConstants):
    """(lc, mu_z, loops, unit): the line, the moment, each loop to integrate
    as (check name, loop, the params keys that place it), and the unit the
    loop phase's residuals are judged in, the per-winding phase
    4*pi*mu_z*lambda/(hbar*c).  A per-winding phase below the normal floats
    would FAIL them on its lost bits, and one that overflows stops the
    quadrature on NaN, so it must be a normal finite float, or 0.0 exactly
    where lambda or mu_z is 0.  Each loop must clear the line
    (``boyer.check_loop_clearance``, a SingularityError)."""
    if "second_radius_cm" in params and params["loop"]["kind"] != "circle":
        raise ValidationError("params.second_radius_cm: only valid with a circle loop")
    lc = boyer.LineCharge(lambda_c=params["line"]["lambda_statC_per_cm"])
    mu_z = params["mu_z_erg_per_G"]
    spec = params["loop"]
    if spec["kind"] == "circle":
        loop = boyer.CircleLoop(Vec3(spec["center_x_cm"], spec["center_y_cm"], spec["z_cm"]), spec["radius_cm"])
    else:
        try:  # fewer than 3 distinct vertices, or an open path
            loop = boyer.PolylineLoop(tuple(Vec3(*v) for v in spec["vertices_cm"]))
        except (ValidationError, DomainError) as exc:
            raise _keyed("params.loop.vertices_cm", exc) from None
    unit = boyer.ac_phase_enclosed_value(lc, mu_z, k, 1)
    exact_zero = unit == 0.0 and (lc.lambda_c == 0.0 or mu_z == 0.0)
    if not (sys.float_info.min <= abs(unit) < math.inf or exact_zero):
        raise DomainError(
            "params.line.lambda_statC_per_cm, params.mu_z_erg_per_G: the per-winding phase "
            "4*pi*mu_z*lambda/(hbar*c) must be a normal finite float, or 0.0 at lambda = 0 or mu_z = 0, "
            f"got {unit!r}"
        )
    loops = [("ac_phase_loop_value", loop, "params.loop")]
    if "second_radius_cm" in params:
        # judged against its own winding, which need not be the first circle's
        second = boyer.CircleLoop(center=loop.center, radius=params["second_radius_cm"])
        loops.append(("ac_phase_radius_independent", second, "params.loop, params.second_radius_cm"))
    for _, path, loop_keys in loops:
        try:
            boyer.check_loop_clearance(path)
        except SingularityError as exc:  # the loop's clearance from the line turns on the loop alone
            raise _keyed(loop_keys, exc) from None
    # residuals are in units of the per-winding phase, absolute when it is 0
    return lc, mu_z, loops, abs(unit) or 1.0


def _describe_loop(loop) -> str:
    if isinstance(loop, boyer.CircleLoop):
        return f"circle r={loop.radius!r} at ({loop.center.x!r}, {loop.center.y!r})"
    return f"polyline with {len(loop.vertices) - 1} segments"


def _measure_ac_phase(inputs, k: PhysicalConstants):
    lc, mu_z, loops, unit = inputs
    rows, checks = [], []
    for name, path, loop_keys in loops:
        winding = boyer.loop_winding_number(path)
        expected = boyer.ac_phase_enclosed_value(lc, mu_z, k, winding)
        try:
            phase = boyer.ac_phase(lc, mu_z, path, k)
        except NumericalError as exc:  # the integrand turns on the line, the moment and the loop
            raise _keyed(f"params.line.lambda_statC_per_cm, params.mu_z_erg_per_G, {loop_keys}", exc) from None
        rows.append({"loop": _describe_loop(path), "winding": winding, "phase_rad": phase, "expected_rad": expected})
        checks.append(verify.claim_row(name, abs(phase - expected) / unit, expected, phase))
    return rows, checks


def _build_field_free(params: dict, k: PhysicalConstants):
    d, e = params["d_cm"], params["e_statC"]
    return d, e, fieldfree.make_three_charge(d, e)


def _measure_field_free(inputs, k: PhysicalConstants):
    d, e, cfg = inputs
    sums = fieldfree.coulomb_all(cfg)
    magnitudes = [field.norm() for field, _, _ in sums]
    residuals = [verify.field_residual(magnitude, d, e) for magnitude in magnitudes]
    rows = [
        {
            "charge_index": i, "q_statC": charge.q, "x_cm": charge.pos.x, "y_cm": charge.pos.y, "z_cm": charge.pos.z,
            "field_statV_per_cm": magnitude, "field_residual": residual,
            "potential_statV": fieldfree._times_power_of_two(s, -power),
        }
        for i, (charge, magnitude, residual, (_, power, s)) in enumerate(zip(cfg.charges, magnitudes, residuals, sums))
    ]
    electron = verify.potential_residual(sums[0][1:], d, e)
    checks = [
        verify.claim_row("field_free_three_charge", verify.three_charge_residual(residuals)),
        verify.claim_row("potential_at_electron", *electron),
        # the corollary (no field at any particle, no phase): stated, not computed
        verify.claim_row("field_free_zero_phase_claim", 0.0, at_most=True),
    ]
    return rows, checks


class _Kind(NamedTuple):
    build: Callable  # build(params, k) -> inputs
    measure: Callable  # measure(inputs, k) -> (rows, checks)
    params: dict  # the params table
    notes: Callable = lambda params: []  # notes(params) -> a point's report notes


_KINDS = {
    KIND_MZI: _Kind(_build_mzi, _measure_mzi, {
        "phase_rad": (float, OMITTED),  # or path_shift, exactly one (_build_mzi)
        "path_shift": (_required(delta_l_cm=float, wavelength_cm=_positive), OMITTED),
        "visibility": (_unit_interval, 1.0),
    }),
    KIND_AB_SOLENOID: _Kind(_build_ab, _measure_ab, {
        "solenoid": (
            _required(r_cm=_positive, L_cm=_positive, M_g=_positive, Q_statC=_non_negative, v_cm_per_s=_positive),
            REQUIRED,
        ),
        "orbit": (_required(R_cm=_positive, u_cm_per_s=_non_negative), REQUIRED),
        "visibility": (_unit_interval, 1.0),
    }, notes=_ab_notes),
    KIND_AC_BOUNCE: _Kind(_build_bounce, _measure_bounce, {
        "line": _LINE,
        "neutron": (_required(mass_g=_positive, mu_z_erg_per_G=float), REQUIRED),
        "start": ({**_required(x_cm=float, y_cm=float, vx_cm_per_s=float), "vy_cm_per_s": (float, 0.0)}, REQUIRED),
        "mirrors": (_required(a_cm=float, b_cm=float), REQUIRED),
        "n_bounces": (_bounded(lambda n: n >= 1, "be >= 1", _integer), REQUIRED),
        "dt_s": (_positive, REQUIRED),
        "law": ((boyer.FULL_LAW, boyer.NAIVE_LAW, "both"), "both"),
    }),
    KIND_AC_PHASE: _Kind(_build_ac_phase, _measure_ac_phase, {
        "line": _LINE,
        "mu_z_erg_per_G": (float, REQUIRED),
        "loop": (
            _Tagged("kind", {
                "circle": {
                    "kind": (_LOOP_KINDS, REQUIRED),
                    "center_x_cm": (float, 0.0),
                    "center_y_cm": (float, 0.0),
                    "z_cm": (float, 0.0),
                    "radius_cm": (_positive, REQUIRED),
                },
                "polyline": {"kind": (_LOOP_KINDS, REQUIRED), "vertices_cm": (_vertices, REQUIRED)},
            }),
            REQUIRED,
        ),
        "second_radius_cm": (_positive, OMITTED),  # circle loops only (_build_ac_phase)
    }),
    KIND_FIELD_FREE: _Kind(_build_field_free, _measure_field_free, _required(
        d_cm=_bounded(lambda v: v > fieldfree.MIN_SEPARATION, f"exceed {fieldfree.MIN_SEPARATION:g}"),
        e_statC=_bounded(lambda v: 0.0 < v <= _MAX_CHARGE_UNIT, f"lie in (0, {_MAX_CHARGE_UNIT!r}]"),
    )),
}

_SWEEP = {
    "param": (str, REQUIRED),  # dotted path to a float key of params
    "from": (float, REQUIRED),
    "to": (float, REQUIRED),
    "steps": (_bounded(lambda n: n >= 2, "be >= 2", _integer), REQUIRED),
    "scale": (("linear", "log"), "linear"),
}

_OUTPUT = {"format": (("csv", "json"), "csv"), "path": (str, OMITTED)}

_SCENARIO = _Tagged("kind", {
    kind: {
        "kind": (KINDS, REQUIRED),
        "units": (UNIT_SYSTEMS, GAUSSIAN_CGS),
        "params": (_KINDS[kind].params, REQUIRED),
        "sweep": (_SWEEP, None),
        "output": (_OUTPUT, None),
    }
    for kind in KINDS
})


def _walk(table, node, path: str) -> dict:
    """Validate a mapping against its table; returns the normalized dict."""
    if not isinstance(node, dict):
        raise ValidationError(f"{path}: expected a mapping, got {type(node).__name__}")
    if isinstance(table, _Tagged):
        table = table.tables[_field(node, table.tag, tuple(table.tables), REQUIRED, path)]
    for key in node:
        if key not in table:
            raise ValidationError(f"{path}.{key}: unknown field")
    out = {}
    for key, (kind, presence) in table.items():
        value = _field(node, key, kind, presence, path)
        if value is not OMITTED:
            out[key] = value
    return out


def _field(node: dict, key: str, kind, presence, path: str):
    """The normalized value of one key, or its presence marker when absent."""
    block = isinstance(kind, (dict, _Tagged))
    # blocks under the document root are named without the root's prefix
    where = key if block and path == _ROOT else f"{path}.{key}"
    if key not in node:
        if presence is not REQUIRED:
            return presence
        if not block:
            raise ValidationError(f"{where}: required field missing")
    value = node.get(key)  # a missing required block reads as null
    if value is None and presence is None:
        return None
    if block:
        return _walk(kind, value, where)
    if not isinstance(kind, (type, tuple)):
        return kind(value, where)
    if kind is float:
        return _number(value, where)
    if not isinstance(value, str):
        raise ValidationError(f"{where}: must be a string, got {value!r}")
    if kind is not str and value not in kind:
        raise ValidationError(f"{where}: must be one of {kind}, got {value!r}")
    return value


def _check_swept_key(params: dict, table: dict, sweep: SweepSpec):
    """Walk ``sweep.param`` through the normalized params and the kind's
    ``table`` together: the path must name a float key, and its ends and every
    point of ``SweepSpec.values()`` must meet that key's type."""
    node, kind = params, table
    for key in sweep.param.split("."):
        if not isinstance(node, dict) or key not in node:
            raise ValidationError(f"sweep.param: path {sweep.param!r} does not exist in params")
        kind = kind[key][0]
        if isinstance(kind, _Tagged):
            kind = kind.tables[node[key][kind.tag]]
        node = node[key]
    # normalized params hold float for float keys and int for int keys
    if isinstance(node, int):
        raise ValidationError(f"sweep.param: {sweep.param!r} is an integer parameter and cannot be swept")
    if not isinstance(node, float):
        raise ValidationError(f"sweep.param: {sweep.param!r} is not a numeric parameter")
    if kind is float:  # every point is finite already (_check_sweep_span)
        return
    for end, value in (("sweep.from", sweep.start), ("sweep.to", sweep.stop)):
        kind(value, f"{end} for params.{sweep.param}")
    # cancellation can put a linear point outside the ends: 1.0 + (1e-20 - 1.0) is 0.0
    for index, value in enumerate(sweep.values()):
        kind(value, f"sweep point {index} for params.{sweep.param}")


def _check_sweep_span(sweep: SweepSpec):
    """Reject a sweep whose points SweepSpec.values() cannot form: a log
    ratio to/from that overflows or underflows to 0, or a linear span
    to - from that overflows when multiplied by the largest point index."""
    if sweep.scale == "log":
        ratio = sweep.stop / sweep.start
        if not (math.isfinite(ratio) and ratio > 0.0):
            raise ValidationError(f"sweep: the ratio to/from of a log sweep must be finite and nonzero, got {ratio!r}")
    elif not math.isfinite((sweep.stop - sweep.start) * (sweep.steps - 1)):
        raise ValidationError(f"sweep: the span to - from of a linear sweep overflows over {sweep.steps} points")


# Sequences and mappings a document may nest; the deepest legal one has 5
# levels: root, params, loop, vertices_cm, vertex.
MAX_NESTING = 32

_SAFE_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)  # SafeLoader has the Composer already


class _ScenarioLoader(*(() if issubclass(_SAFE_LOADER, Composer) else (Composer,)), _SAFE_LOADER):
    """The safe loader on libyaml's C parser, or on PyYAML's pure-Python one
    when PyYAML was built without libyaml, with PyYAML's pure-Python composer
    on both: they build the same objects and name undefined aliases and
    duplicate anchors.  It reads YAML 1.2 exponent floats such as ``5e-2``,
    which YAML 1.1 resolves to strings (it needs a dot and a signed exponent).
    The composer refuses a document at its first sequence or mapping deeper
    than ``MAX_NESTING``, before the parser reads on: libyaml's own composer
    recurses in C, past Python's recursion limit, and scans a deep flow in
    quadratic time."""

    def __init__(self, stream):
        _SAFE_LOADER.__init__(self, stream)
        Composer.__init__(self)  # CSafeLoader's __init__ does not run it
        self.depth = 0

    def _nested(self, compose, anchor):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ScenarioParseError(f"scenario document nests deeper than {MAX_NESTING} levels")
        node = compose(anchor)
        self.depth -= 1
        return node

    def compose_sequence_node(self, anchor):
        return self._nested(super().compose_sequence_node, anchor)

    def compose_mapping_node(self, anchor):
        return self._nested(super().compose_mapping_node, anchor)


_ScenarioLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
)


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document; returns the normalized Scenario."""
    try:
        doc = yaml.load(text, Loader=_ScenarioLoader)
    except (yaml.YAMLError, ValueError) as exc:
        # ValueError: a scalar the loader cannot build, such as an integer
        # past Python's digit limit or an impossible date
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ScenarioParseError(f"malformed scenario document{where}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioParseError("scenario document must be a mapping")
    s = _walk(_SCENARIO, doc, _ROOT)
    kind = _KINDS[s["kind"]]
    kind.build(s["params"], make_constants(s["units"]))
    sweep = None
    if s["sweep"] is not None:
        node = s["sweep"]
        sweep = SweepSpec(node["param"], node["from"], node["to"], node["steps"], node["scale"])
        if sweep.scale == "log" and (sweep.start <= 0.0 or sweep.stop <= 0.0):
            raise ValidationError("sweep: log scale requires positive 'from' and 'to'")
        _check_sweep_span(sweep)
        _check_swept_key(s["params"], kind.params, sweep)
    output = OutputSpec(**(s["output"] or {}))
    return Scenario(s["kind"], s["units"], s["params"], sweep, output, warnings=kind.notes(s["params"]))


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()  # decoded in one piece, so exc.start counts from the first byte
        except UnicodeDecodeError as exc:
            raise ScenarioParseError(f"scenario document is not UTF-8 at byte {exc.start}: {exc.reason}") from exc
    return parse_scenario(text)


# ---------------------------------------------------------------------------
# execution


def _merge_checks(into: dict, new: list[CheckRow]):
    """Keep each check's row from its worst point so far (``verify.worse``),
    whole.  Every point judges a check against the same tolerance, so the
    worst point's verdict is the sweep's."""
    for check in new:
        kept = into.get(check.name)
        if kept is None or verify.worse(check.residual, kept.residual):
            into[check.name] = check


def _with_value(params: dict, keys: list[str], value: float) -> dict:
    """``params`` with the key at the path ``keys`` set to ``value``.  Only the
    mappings on the path are copied; the rest is shared with ``params``, which
    is safe because builds only read their params."""
    top = node = dict(params)
    for key in keys[:-1]:
        node[key] = dict(node[key])
        node = node[key]
    node[keys[-1]] = value
    return top


def run_scenario(s: Scenario) -> RunReport:
    """Execute a scenario (single point or sweep) into a deterministic report."""
    k = make_constants(s.units)
    kind = _KINDS[s.kind]
    build, measure, notes = kind.build, kind.measure, kind.notes
    rows: list[dict] = []
    merged: dict[str, CheckRow] = {}
    scenario = s.to_dict()

    if s.sweep is None:
        prows, pchecks = measure(build(s.params, k), k)
        rows.extend({"sweep_index": 0, **row} for row in prows)
        _merge_checks(merged, pchecks)
    else:
        keys = s.sweep.param.split(".")
        for index, value in enumerate(s.sweep.values()):
            point_params = _with_value(s.params, keys, value)
            try:
                prows, pchecks = measure(build(point_params, k), k)
            except AbclabError as exc:
                error = f"{type(exc).__name__}: {exc}"
                rows.append({"sweep_index": index, s.sweep.param: value, "error": error})
            else:
                # a swept key that is also a row column keeps the swept key's place
                rows.extend({"sweep_index": index, s.sweep.param: value, **row} for row in prows)
                _merge_checks(merged, pchecks)
            # a point's note that the parse already reported is not repeated
            scenario["warnings"].extend(f"sweep_index {index}: {w}" for w in notes(point_params) if w not in s.warnings)
    return RunReport(scenario=scenario, rows=rows, checks=list(merged.values()))
