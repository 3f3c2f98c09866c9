"""Scenario configuration, execution, sweeps, and CSV/JSON emission.

A scenario is a single YAML document.  All physical parameters carry their
unit in the key name, which is the cheapest defence against unit mistakes in
a Gaussian-units code base.  Top-level schema:

    kind: mzi | ab-solenoid | ac-bounce | ac-phase | field-free
    units: gaussian-cgs | scaled-unity        # default gaussian-cgs
    params: { ... kind specific, see below ... }
    sweep:                                     # optional
      param: dotted.path.into.params
      from: <number>
      to: <number>
      steps: <int >= 2>
      scale: linear | log                      # default linear
    output:                                    # optional
      format: csv | json                       # default csv
      path: <file path>                        # default stdout

Kind parameter blocks:

    mzi:         phase_rad  (or path_shift: {delta_l_cm, wavelength_cm}),
                 visibility (default 1.0)
    ab-solenoid: solenoid: {r_cm, L_cm, M_g, Q_statC, v_cm_per_s},
                 orbit: {R_cm, u_cm_per_s}, visibility (default 1.0)
    ac-bounce:   line: {lambda_statC_per_cm},
                 neutron: {mass_g, mu_z_erg_per_G},
                 start: {x_cm, y_cm, vx_cm_per_s, vy_cm_per_s},
                 mirrors: {a_cm, b_cm}, n_bounces, dt_s,
                 law: full | naive-boyer | both (default both)
    ac-phase:    line: {lambda_statC_per_cm}, mu_z_erg_per_G,
                 loop: {kind: circle, center_x_cm, center_y_cm, z_cm, radius_cm}
                   or  {kind: polyline, vertices_cm: [[x, y, z], ...]},
                 second_radius_cm (optional, circle only)
    field-free:  d_cm, e_statC, tol (default 1e-12)

Reports are deterministic: identical scenario plus seed produce byte
identical CSV/JSON output.  Floats are serialized as shortest round-trip
decimals; CSV uses RFC-4180 quoting with LF line endings.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import math
import re
import sys
import warnings
from dataclasses import dataclass, field

import yaml

from . import boyer, fieldfree, interferometry, solenoid
from .errors import (
    AbclabError,
    ScenarioParseError,
    ValidationError,
)
from .units import PhysicalConstants, UNIT_SYSTEMS, Vec3, make_constants

SCHEMA_VERSION = 1

KIND_MZI = "mzi"
KIND_AB_SOLENOID = "ab-solenoid"
KIND_AC_BOUNCE = "ac-bounce"
KIND_AC_PHASE = "ac-phase"
KIND_FIELD_FREE = "field-free"
KINDS = (KIND_MZI, KIND_AB_SOLENOID, KIND_AC_BOUNCE, KIND_AC_PHASE, KIND_FIELD_FREE)

_COLUMNS = {
    KIND_AB_SOLENOID: [
        "flux",
        "phase_ab_rad",
        "delta_v_cm_per_s",
        "delta_x_cm",
        "lambda_db_cm",
        "phase_local_rad",
        "p_a",
        "p_b",
        "identity_residual",
    ],
    KIND_MZI: ["phase_rad", "visibility", "p_a", "p_b"],
    KIND_AC_BOUNCE: [
        "law",
        "bounce_index",
        "t_s",
        "kinetic_energy_erg",
        "leg_work_erg",
        "leg_ke_gain_erg",
    ],
    KIND_AC_PHASE: ["loop", "winding", "phase_rad", "expected_rad"],
    KIND_FIELD_FREE: [
        "charge_index",
        "q_statC",
        "x_cm",
        "y_cm",
        "z_cm",
        "field_statV_per_cm",
        "field_residual",
        "potential_statV",
        "field_free_pass",
    ],
}

CHECK_COLUMNS = ["name", "expected", "actual", "tol", "pass"]


@dataclass
class CheckRow:
    """One named verification against a physics claim."""

    name: str
    expected: object
    actual: object
    tol: float
    passed: bool
    merge: str = field(default="max", compare=False)  # how sweeps aggregate 'actual'

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "expected": self.expected,
            "actual": self.actual,
            "tol": self.tol,
            "pass": self.passed,
        }


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
            return [self.start * ratio ** (i / (self.steps - 1)) for i in range(self.steps)]
        span = self.stop - self.start
        return [self.start + span * i / (self.steps - 1) for i in range(self.steps)]

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


@dataclass
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


# ---------------------------------------------------------------------------
# parsing


def _expect_mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise ValidationError(f"{path}: expected a mapping, got {type(node).__name__}")
    return node


def _reject_unknown(node: dict, allowed: set[str], path: str):
    for key in node:
        if key not in allowed:
            raise ValidationError(f"{path}.{key}: unknown field")


def _get_number(node: dict, key: str, path: str, required: bool = True, default=None):
    if key not in node:
        if required:
            raise ValidationError(f"{path}.{key}: required field missing")
        return default
    value = node[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{path}.{key}: must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValidationError(f"{path}.{key}: must be finite, got {value!r}")
    return float(value)


def _get_int(node: dict, key: str, path: str, required: bool = True, default=None):
    if key not in node:
        if required:
            raise ValidationError(f"{path}.{key}: required field missing")
        return default
    value = node[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{path}.{key}: must be an integer, got {value!r}")
    return value


def _get_str(node: dict, key: str, path: str, choices=None, required: bool = True, default=None):
    if key not in node:
        if required:
            raise ValidationError(f"{path}.{key}: required field missing")
        return default
    value = node[key]
    if not isinstance(value, str):
        raise ValidationError(f"{path}.{key}: must be a string, got {value!r}")
    if choices is not None and value not in choices:
        raise ValidationError(f"{path}.{key}: must be one of {choices}, got {value!r}")
    return value


def _normalize_mzi(params: dict, collected: list[str]) -> dict:
    _reject_unknown(params, {"phase_rad", "path_shift", "visibility"}, "params")
    out: dict = {}
    if "path_shift" in params:
        if "phase_rad" in params:
            raise ValidationError("params: give either phase_rad or path_shift, not both")
        shift = _expect_mapping(params["path_shift"], "params.path_shift")
        _reject_unknown(shift, {"delta_l_cm", "wavelength_cm"}, "params.path_shift")
        out["path_shift"] = {
            "delta_l_cm": _get_number(shift, "delta_l_cm", "params.path_shift"),
            "wavelength_cm": _get_number(shift, "wavelength_cm", "params.path_shift"),
        }
        interferometry.phase_from_path_shift(
            out["path_shift"]["delta_l_cm"], out["path_shift"]["wavelength_cm"]
        )
    else:
        out["phase_rad"] = _get_number(params, "phase_rad", "params")
    out["visibility"] = _get_number(params, "visibility", "params", required=False, default=1.0)
    interferometry.detector_probabilities(0.0, out["visibility"])
    return out


def _normalize_ab_solenoid(params: dict, collected: list[str]) -> dict:
    _reject_unknown(params, {"solenoid", "orbit", "visibility"}, "params")
    sol = _expect_mapping(params.get("solenoid"), "params.solenoid")
    _reject_unknown(sol, {"r_cm", "L_cm", "M_g", "Q_statC", "v_cm_per_s"}, "params.solenoid")
    orb = _expect_mapping(params.get("orbit"), "params.orbit")
    _reject_unknown(orb, {"R_cm", "u_cm_per_s"}, "params.orbit")
    out = {
        "solenoid": {
            "r_cm": _get_number(sol, "r_cm", "params.solenoid"),
            "L_cm": _get_number(sol, "L_cm", "params.solenoid"),
            "M_g": _get_number(sol, "M_g", "params.solenoid"),
            "Q_statC": _get_number(sol, "Q_statC", "params.solenoid"),
            "v_cm_per_s": _get_number(sol, "v_cm_per_s", "params.solenoid"),
        },
        "orbit": {
            "R_cm": _get_number(orb, "R_cm", "params.orbit"),
            "u_cm_per_s": _get_number(orb, "u_cm_per_s", "params.orbit"),
        },
        "visibility": _get_number(params, "visibility", "params", required=False, default=1.0),
    }
    _build_ab_objects(out, collected)
    return out


def _build_ab_objects(params: dict, collected: list[str] | None):
    sol = params["solenoid"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", solenoid.LongSolenoidWarning)
        s = solenoid.SolenoidParams(
            r=sol["r_cm"], L=sol["L_cm"], M=sol["M_g"], Q=sol["Q_statC"], v=sol["v_cm_per_s"]
        )
    if collected is not None:
        for w in caught:
            collected.append(str(w.message))
    o = solenoid.OrbitParams(R=params["orbit"]["R_cm"], u=params["orbit"]["u_cm_per_s"])
    if o.R <= s.r:
        raise ValidationError(
            f"params.orbit.R_cm: orbit radius {o.R!r} must exceed the solenoid radius {s.r!r}"
        )
    return s, o


def _normalize_ac_bounce(params: dict, collected: list[str]) -> dict:
    _reject_unknown(
        params, {"line", "neutron", "start", "mirrors", "n_bounces", "dt_s", "law"}, "params"
    )
    line = _expect_mapping(params.get("line"), "params.line")
    _reject_unknown(line, {"lambda_statC_per_cm"}, "params.line")
    neutron = _expect_mapping(params.get("neutron"), "params.neutron")
    _reject_unknown(neutron, {"mass_g", "mu_z_erg_per_G"}, "params.neutron")
    start = _expect_mapping(params.get("start"), "params.start")
    _reject_unknown(start, {"x_cm", "y_cm", "vx_cm_per_s", "vy_cm_per_s"}, "params.start")
    mirrors = _expect_mapping(params.get("mirrors"), "params.mirrors")
    _reject_unknown(mirrors, {"a_cm", "b_cm"}, "params.mirrors")
    out = {
        "line": {"lambda_statC_per_cm": _get_number(line, "lambda_statC_per_cm", "params.line")},
        "neutron": {
            "mass_g": _get_number(neutron, "mass_g", "params.neutron"),
            "mu_z_erg_per_G": _get_number(neutron, "mu_z_erg_per_G", "params.neutron"),
        },
        "start": {
            "x_cm": _get_number(start, "x_cm", "params.start"),
            "y_cm": _get_number(start, "y_cm", "params.start"),
            "vx_cm_per_s": _get_number(start, "vx_cm_per_s", "params.start"),
            "vy_cm_per_s": _get_number(start, "vy_cm_per_s", "params.start", required=False, default=0.0),
        },
        "mirrors": {
            "a_cm": _get_number(mirrors, "a_cm", "params.mirrors"),
            "b_cm": _get_number(mirrors, "b_cm", "params.mirrors"),
        },
        "n_bounces": _get_int(params, "n_bounces", "params"),
        "dt_s": _get_number(params, "dt_s", "params"),
        "law": _get_str(
            params, "law", "params",
            choices=(boyer.FULL_LAW, boyer.NAIVE_LAW, "both"),
            required=False, default="both",
        ),
    }
    _build_bounce_objects(out)
    return out


def _build_bounce_objects(params: dict):
    lc = boyer.LineCharge(lambda_c=params["line"]["lambda_statC_per_cm"])
    n = boyer.NeutronModel(
        mass=params["neutron"]["mass_g"],
        mu=Vec3(0.0, 0.0, params["neutron"]["mu_z_erg_per_G"]),
    )
    start = params["start"]
    initial = boyer.TrajectoryState(
        t=0.0,
        pos=Vec3(start["x_cm"], start["y_cm"], 0.0),
        vel=Vec3(start["vx_cm_per_s"], start["vy_cm_per_s"], 0.0),
    )
    laws = [params["law"]] if params["law"] != "both" else [boyer.FULL_LAW, boyer.NAIVE_LAW]
    configs = [
        boyer.BounceConfig(
            mirror_a=params["mirrors"]["a_cm"],
            mirror_b=params["mirrors"]["b_cm"],
            n_bounces=params["n_bounces"],
            dt=params["dt_s"],
            law=law,
        )
        for law in laws
    ]
    return lc, n, initial, configs


def _normalize_ac_phase(params: dict, collected: list[str]) -> dict:
    _reject_unknown(params, {"line", "mu_z_erg_per_G", "loop", "second_radius_cm"}, "params")
    line = _expect_mapping(params.get("line"), "params.line")
    _reject_unknown(line, {"lambda_statC_per_cm"}, "params.line")
    loop = _expect_mapping(params.get("loop"), "params.loop")
    loop_kind = _get_str(loop, "kind", "params.loop", choices=("circle", "polyline"))
    out = {
        "line": {"lambda_statC_per_cm": _get_number(line, "lambda_statC_per_cm", "params.line")},
        "mu_z_erg_per_G": _get_number(params, "mu_z_erg_per_G", "params"),
    }
    if loop_kind == "circle":
        _reject_unknown(loop, {"kind", "center_x_cm", "center_y_cm", "z_cm", "radius_cm"}, "params.loop")
        out["loop"] = {
            "kind": "circle",
            "center_x_cm": _get_number(loop, "center_x_cm", "params.loop", required=False, default=0.0),
            "center_y_cm": _get_number(loop, "center_y_cm", "params.loop", required=False, default=0.0),
            "z_cm": _get_number(loop, "z_cm", "params.loop", required=False, default=0.0),
            "radius_cm": _get_number(loop, "radius_cm", "params.loop"),
        }
    else:
        _reject_unknown(loop, {"kind", "vertices_cm"}, "params.loop")
        raw = loop.get("vertices_cm")
        if not isinstance(raw, list) or not raw:
            raise ValidationError("params.loop.vertices_cm: required list of [x, y, z] triples")
        vertices = []
        for i, item in enumerate(raw):
            if (
                not isinstance(item, list)
                or len(item) != 3
                or any(isinstance(c, bool) or not isinstance(c, (int, float)) for c in item)
            ):
                raise ValidationError(f"params.loop.vertices_cm[{i}]: must be an [x, y, z] triple")
            vertices.append([float(c) for c in item])
        out["loop"] = {"kind": "polyline", "vertices_cm": vertices}
    second = _get_number(params, "second_radius_cm", "params", required=False)
    if second is not None:
        if out["loop"]["kind"] != "circle":
            raise ValidationError("params.second_radius_cm: only valid with a circle loop")
        out["second_radius_cm"] = second
    _build_phase_objects(out)
    return out


def _build_phase_objects(params: dict):
    lc = boyer.LineCharge(lambda_c=params["line"]["lambda_statC_per_cm"])
    mu = Vec3(0.0, 0.0, params["mu_z_erg_per_G"])
    spec = params["loop"]
    if spec["kind"] == "circle":
        loop = boyer.CircleLoop(
            center=Vec3(spec["center_x_cm"], spec["center_y_cm"], spec["z_cm"]),
            radius=spec["radius_cm"],
        )
    else:
        loop = boyer.PolylineLoop(tuple(Vec3(*v) for v in spec["vertices_cm"]))
    return lc, mu, loop


def _normalize_field_free(params: dict, collected: list[str]) -> dict:
    _reject_unknown(params, {"d_cm", "e_statC", "tol"}, "params")
    out = {
        "d_cm": _get_number(params, "d_cm", "params"),
        "e_statC": _get_number(params, "e_statC", "params"),
        "tol": _get_number(params, "tol", "params", required=False, default=1e-12),
    }
    fieldfree.make_three_charge(out["d_cm"], out["e_statC"])
    if not out["tol"] > 0.0:
        raise ValidationError(f"params.tol: must be positive, got {out['tol']!r}")
    return out


_NORMALIZERS = {
    KIND_MZI: _normalize_mzi,
    KIND_AB_SOLENOID: _normalize_ab_solenoid,
    KIND_AC_BOUNCE: _normalize_ac_bounce,
    KIND_AC_PHASE: _normalize_ac_phase,
    KIND_FIELD_FREE: _normalize_field_free,
}


def _resolve_path(params: dict, path: str):
    node = params
    keys = path.split(".")
    for key in keys[:-1]:
        if not isinstance(node, dict) or key not in node:
            raise ValidationError(f"sweep.param: path {path!r} does not exist in params")
        node = node[key]
    last = keys[-1]
    if not isinstance(node, dict) or last not in node:
        raise ValidationError(f"sweep.param: path {path!r} does not exist in params")
    if isinstance(node[last], bool) or not isinstance(node[last], (int, float)):
        raise ValidationError(f"sweep.param: {path!r} is not a numeric parameter")
    return node, last


class _ScenarioLoader(yaml.SafeLoader):
    """SafeLoader that also reads YAML 1.2 exponent floats such as ``5e-2`` and
    ``3.0e6``, which YAML 1.1 resolves to strings (it needs a dot and a signed
    exponent)."""


_ScenarioLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
)


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document; returns the normalized Scenario."""
    try:
        doc = yaml.load(text, Loader=_ScenarioLoader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ScenarioParseError(f"malformed scenario document{where}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioParseError("scenario document must be a mapping")
    _reject_unknown(doc, {"kind", "units", "params", "sweep", "output"}, "scenario")
    kind = _get_str(doc, "kind", "scenario", choices=KINDS)
    units = _get_str(doc, "units", "scenario", choices=UNIT_SYSTEMS, required=False, default="gaussian-cgs")
    params_node = _expect_mapping(doc.get("params"), "params")
    collected: list[str] = []
    params = _NORMALIZERS[kind](params_node, collected)

    sweep = None
    if doc.get("sweep") is not None:
        node = _expect_mapping(doc["sweep"], "sweep")
        _reject_unknown(node, {"param", "from", "to", "steps", "scale"}, "sweep")
        sweep = SweepSpec(
            param=_get_str(node, "param", "sweep"),
            start=_get_number(node, "from", "sweep"),
            stop=_get_number(node, "to", "sweep"),
            steps=_get_int(node, "steps", "sweep"),
            scale=_get_str(node, "scale", "sweep", choices=("linear", "log"), required=False, default="linear"),
        )
        if sweep.steps < 2:
            raise ValidationError(f"sweep.steps: must be >= 2, got {sweep.steps!r}")
        if sweep.scale == "log" and (sweep.start <= 0.0 or sweep.stop <= 0.0):
            raise ValidationError("sweep: log scale requires positive 'from' and 'to'")
        _resolve_path(params, sweep.param)

    output = OutputSpec()
    if doc.get("output") is not None:
        node = _expect_mapping(doc["output"], "output")
        _reject_unknown(node, {"format", "path"}, "output")
        output = OutputSpec(
            format=_get_str(node, "format", "output", choices=("csv", "json"), required=False, default="csv"),
            path=_get_str(node, "path", "output", required=False),
        )
    return Scenario(kind=kind, units=units, params=params, sweep=sweep, output=output, warnings=collected)


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scenario(handle.read())


# ---------------------------------------------------------------------------
# execution


def _point_mzi(params: dict, k: PhysicalConstants):
    if "path_shift" in params:
        phase = interferometry.phase_from_path_shift(
            params["path_shift"]["delta_l_cm"], params["path_shift"]["wavelength_cm"]
        )
    else:
        phase = params["phase_rad"]
    vis = params["visibility"]
    probs = interferometry.detector_probabilities(phase, vis)
    rows = [{"phase_rad": phase, "visibility": vis, "p_a": probs.p_a, "p_b": probs.p_b}]
    checks = [
        CheckRow("probability_sum", 1.0, probs.p_a + probs.p_b, 1e-12, abs(probs.p_a + probs.p_b - 1.0) <= 1e-12)
    ]
    wrapped = math.remainder(phase, 2.0 * math.pi)
    if vis == 1.0 and abs(wrapped) < 1e-9:
        checks.append(CheckRow("routes_to_A_at_zero_phase", 1.0, probs.p_a, 1e-12, abs(probs.p_a - 1.0) <= 1e-12))
    if vis == 1.0 and abs(abs(wrapped) - math.pi) < 1e-9:
        checks.append(CheckRow("routes_to_B_at_pi_phase", 1.0, probs.p_b, 1e-12, abs(probs.p_b - 1.0) <= 1e-12))
    return rows, checks


def _point_ab_solenoid(params: dict, k: PhysicalConstants):
    s, o = _build_ab_objects(params, None)
    res = solenoid.local_model_phase(s, o, k)
    probs = interferometry.detector_probabilities(res.phase_ab, params["visibility"])
    if res.phase_ab != 0.0:
        residual = abs(res.phase_local / res.phase_ab - 1.0)
    else:
        residual = abs(res.phase_local)
    chain = solenoid.ab_phase_from_flux(solenoid.solenoid_flux(s, k), k)
    direct = solenoid.ab_phase_direct(s, k)
    chain_residual = abs(chain - direct) / max(abs(direct), 1e-300) if direct != 0.0 else abs(chain)
    rows = [
        {
            "flux": res.flux,
            "phase_ab_rad": res.phase_ab,
            "delta_v_cm_per_s": res.delta_v,
            "delta_x_cm": res.delta_x,
            "lambda_db_cm": res.lambda_db,
            "phase_local_rad": res.phase_local,
            "p_a": probs.p_a,
            "p_b": probs.p_b,
            "identity_residual": residual,
        }
    ]
    checks = [
        CheckRow("factor4_identity", 0.0, residual, 1e-12, residual < 1e-12),
        CheckRow("flux_chain_consistency", 0.0, chain_residual, 1e-14, chain_residual <= 1e-14),
    ]
    return rows, checks


def _point_ac_bounce(params: dict, k: PhysicalConstants):
    lc, n, initial, configs = _build_bounce_objects(params)
    rows = []
    checks = []
    for cfg in configs:
        result = boyer.simulate_bounce_experiment(lc, n, cfg, initial, k)
        ke0 = result.initial_kinetic_energy
        for i, (t, ke, work, gain) in enumerate(
            zip(result.bounce_times, result.bounce_kinetic_energies, result.work_per_leg, result.ke_gain_per_leg)
        ):
            rows.append(
                {
                    "law": cfg.law,
                    "bounce_index": i + 1,
                    "t_s": t,
                    "kinetic_energy_erg": ke,
                    "leg_work_erg": work,
                    "leg_ke_gain_erg": gain,
                }
            )
        if cfg.law == boyer.FULL_LAW:
            drift = abs(result.final_kinetic_energy / ke0 - 1.0)
            checks.append(CheckRow("energy_conserved_full_law", 0.0, drift, 1e-6, drift < 1e-6))
        else:
            kes = [ke0, *result.bounce_kinetic_energies]
            min_gain = min(b - a for a, b in zip(kes, kes[1:]))
            checks.append(
                CheckRow("energy_grows_naive_law", "increasing", min_gain, 0.0, min_gain > 0.0, merge="min")
            )
            mismatch = max(
                abs(gain / work - 1.0) if work != 0.0 else abs(gain - work)
                for gain, work in zip(result.ke_gain_per_leg, result.work_per_leg)
            )
            checks.append(CheckRow("work_integral_match", 0.0, mismatch, 1e-6, mismatch < 1e-6))
    return rows, checks


def _describe_loop(loop) -> str:
    if isinstance(loop, boyer.CircleLoop):
        return f"circle r={loop.radius!r} at ({loop.center.x!r}, {loop.center.y!r})"
    return f"polyline with {len(loop.vertices) - 1} segments"


def _point_ac_phase(params: dict, k: PhysicalConstants):
    lc, mu, loop = _build_phase_objects(params)
    winding = boyer.loop_winding_number(loop, lc)
    expected = boyer.ac_phase_enclosed_value(lc, mu, k, winding)
    phase = boyer.ac_phase(lc, mu, loop, k)
    rows = [
        {"loop": _describe_loop(loop), "winding": winding, "phase_rad": phase, "expected_rad": expected}
    ]
    if expected != 0.0:
        residual = abs(phase / expected - 1.0)
        checks = [CheckRow("ac_phase_loop_value", expected, phase, 1e-9, residual < 1e-9)]
    else:
        checks = [CheckRow("ac_phase_loop_value", 0.0, phase, 1e-10, abs(phase) <= 1e-10)]
    if "second_radius_cm" in params:
        second = boyer.CircleLoop(center=loop.center, radius=params["second_radius_cm"])
        winding2 = boyer.loop_winding_number(second, lc)
        phase2 = boyer.ac_phase(lc, mu, second, k)
        rows.append(
            {
                "loop": _describe_loop(second),
                "winding": winding2,
                "phase_rad": phase2,
                "expected_rad": boyer.ac_phase_enclosed_value(lc, mu, k, winding2),
            }
        )
        if phase != 0.0 and winding == winding2:
            residual = abs(phase2 / phase - 1.0)
        else:
            residual = abs(phase2 - phase)
        checks.append(CheckRow("ac_phase_radius_independent", phase, phase2, 1e-9, residual < 1e-9))
    return rows, checks


def _point_field_free(params: dict, k: PhysicalConstants):
    cfg = fieldfree.make_three_charge(params["d_cm"], params["e_statC"])
    report = fieldfree.verify_field_free(cfg, params["tol"])
    scale = fieldfree.field_scale(cfg)
    natural = params["e_statC"] / params["d_cm"] ** 2
    rows = []
    for entry in report:
        charge = cfg.charges[entry.index]
        rows.append(
            {
                "charge_index": entry.index,
                "q_statC": charge.q,
                "x_cm": charge.pos.x,
                "y_cm": charge.pos.y,
                "z_cm": charge.pos.z,
                "field_statV_per_cm": entry.field_magnitude,
                "field_residual": entry.field_magnitude / scale if scale > 0.0 else 0.0,
                "potential_statV": fieldfree.potential_at(cfg, entry.index),
                "field_free_pass": entry.passed,
            }
        )
    worst = max(e.field_magnitude for e in report) / natural
    v_electron = fieldfree.potential_at(cfg, 0)
    v_expected = 8.0 * params["e_statC"] / params["d_cm"]
    v_residual = abs(v_electron / v_expected - 1.0)
    checks = [
        CheckRow("field_free_three_charge", 0.0, worst, 1e-12, worst < 1e-12),
        CheckRow("potential_at_electron", v_expected, v_electron, 1e-14, v_residual < 1e-14),
        # The qualitative corollary: vanishing fields at every particle mean
        # no phase contribution; recorded as a claim, not computed dynamics.
        CheckRow("field_free_zero_phase_claim", 0.0, 0.0, 0.0, True),
    ]
    return rows, checks


_POINT_RUNNERS = {
    KIND_MZI: _point_mzi,
    KIND_AB_SOLENOID: _point_ab_solenoid,
    KIND_AC_BOUNCE: _point_ac_bounce,
    KIND_AC_PHASE: _point_ac_phase,
    KIND_FIELD_FREE: _point_field_free,
}


def _merge_checks(into: dict, new: list[CheckRow]):
    for check in new:
        if check.name not in into:
            into[check.name] = check
            continue
        existing = into[check.name]
        if isinstance(check.actual, (int, float)) and isinstance(existing.actual, (int, float)):
            pick = max if existing.merge == "max" else min
            existing.actual = pick(existing.actual, check.actual)
        existing.passed = existing.passed and check.passed


def run_scenario(s: Scenario) -> RunReport:
    """Execute a scenario (single point or sweep) into a deterministic report."""
    k = make_constants(s.units)
    point_fn = _POINT_RUNNERS[s.kind]
    columns = ["sweep_index"] + ([s.sweep.param] if s.sweep else []) + list(_COLUMNS[s.kind])
    rows: list[dict] = []
    merged: dict[str, CheckRow] = {}
    had_error = False

    if s.sweep is None:
        prows, pchecks = point_fn(s.params, k)
        for row in prows:
            rows.append({"sweep_index": 0, **row})
        _merge_checks(merged, pchecks)
    else:
        for index, value in enumerate(s.sweep.values()):
            point_params = copy.deepcopy(s.params)
            node, last = _resolve_path(point_params, s.sweep.param)
            node[last] = value
            try:
                prows, pchecks = point_fn(point_params, k)
            except AbclabError as exc:
                had_error = True
                error = f"{type(exc).__name__}: {exc}"
                rows.append({"sweep_index": index, s.sweep.param: value, "error": error})
                continue
            for row in prows:
                rows.append({"sweep_index": index, s.sweep.param: value, **row})
            _merge_checks(merged, pchecks)
    if had_error:
        columns = columns + ["error"]
    return RunReport(scenario=s.to_dict(), rows=rows, checks=list(merged.values()), columns=columns)


# ---------------------------------------------------------------------------
# emission


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_csv(report: RunReport) -> str:
    """CSV text: the row table, or the check table when there are no rows."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    if report.rows:
        writer.writerow(report.columns)
        for row in report.rows:
            writer.writerow([_format_cell(row.get(col)) for col in report.columns])
    else:
        writer.writerow(CHECK_COLUMNS)
        for check in report.checks:
            data = check.to_dict()
            writer.writerow([_format_cell(data[col]) for col in CHECK_COLUMNS])
    return buffer.getvalue()


def render_json(report: RunReport) -> str:
    return json.dumps(report.to_dict(), indent=2) + "\n"


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
