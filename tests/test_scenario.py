import copy
import json
import math
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest
import yaml

import abclab
from abclab import (
    DomainError,
    ScenarioParseError,
    ValidationError,
    boyer,
    load_scenario,
    parse_scenario,
    render_csv,
    render_json,
    run_scenario,
    run_verify_suite,
    solenoid,
    verify,
)
from abclab.cli import main as cli_main
from abclab.scenario import emit

DATA_DIR = Path(__file__).parent / "data"
SCENARIO_DIR = Path(__file__).parent.parent / "scenarios"

AB_UNIT_DOC = """
kind: ab-solenoid
units: scaled-unity
params:
  solenoid: {r_cm: 1.0, L_cm: 1.0, M_g: 1.0, Q_statC: 1.0, v_cm_per_s: 1.0}
  orbit: {R_cm: 2.0, u_cm_per_s: 1.0}
"""


def test_parse_minimal_applies_defaults():
    s = parse_scenario(AB_UNIT_DOC)
    assert s.kind == "ab-solenoid"
    assert s.units == "scaled-unity"
    assert s.params["visibility"] == 1.0
    assert s.sweep is None
    assert s.output.format == "csv" and s.output.path is None


def test_parse_missing_mass_names_field():
    doc = AB_UNIT_DOC.replace("M_g: 1.0, ", "")
    with pytest.raises(ValidationError, match="M_g"):
        parse_scenario(doc)


def test_parse_attaches_long_solenoid_warning():
    doc = AB_UNIT_DOC.replace("r_cm: 1.0, L_cm: 1.0", "r_cm: 1.0, L_cm: 2.0")
    s = parse_scenario(doc)
    assert len(s.warnings) == 1 and "r/L" in s.warnings[0]


def test_parse_malformed_yaml_reports_location():
    with pytest.raises(ScenarioParseError, match="line"):
        parse_scenario("kind: [unclosed")


def test_parse_rejects_unknown_fields():
    with pytest.raises(ValidationError, match="unknown field"):
        parse_scenario(AB_UNIT_DOC + "\nextra: 1\n")
    with pytest.raises(ValidationError, match="unknown field"):
        parse_scenario(AB_UNIT_DOC.replace("visibility", "").replace(
            "orbit: {R_cm: 2.0, u_cm_per_s: 1.0}", "orbit: {R_cm: 2.0, u_cm_per_s: 1.0, tilt: 3}"
        ))


def test_parse_rejects_non_numeric():
    with pytest.raises(ValidationError, match="must be a number"):
        parse_scenario(AB_UNIT_DOC.replace("M_g: 1.0", "M_g: heavy"))


def test_parse_reads_yaml12_exponent_floats():
    # YAML 1.1 leaves 5e-2 and 3.0e6 as strings (no dot, unsigned exponent)
    doc = """
kind: ac-bounce
units: scaled-unity
params:
  line: {lambda_statC_per_cm: %s}
  neutron: {mass_g: 1.0, mu_z_erg_per_G: 1.0}
  start: {x_cm: 3.0, y_cm: 0.5, vx_cm_per_s: -2.0}
  mirrors: {a_cm: 1.5, b_cm: 3.0}
  n_bounces: 3
  dt_s: 0.00390625
sweep: {param: line.lambda_statC_per_cm, from: %s, to: %s, steps: 2}
"""
    exponent = parse_scenario(doc % ("5e-2", "5e-2", "3.0e6"))
    decimal = parse_scenario(doc % ("0.05", "0.05", "3000000.0"))
    assert exponent.params["line"]["lambda_statC_per_cm"] == 0.05
    assert (exponent.sweep.start, exponent.sweep.stop) == (0.05, 3000000.0)
    assert exponent.to_dict() == decimal.to_dict()
    assert parse_scenario(doc % ("-.5E+1", "1_0e-1", "+2e0")).sweep.values() == [1.0, 2.0]
    with pytest.raises(ValidationError, match=r"lambda_statC_per_cm: must be a number, got '5e-2cm'"):
        parse_scenario(doc % ("5e-2cm", "5e-2", "3.0e6"))


def test_parse_refuses_integers_beyond_float_range(tmp_path):
    # such a literal used to escape as OverflowError: a traceback and exit 1
    huge = "1" + "0" * 400
    doc = f"kind: field-free\nparams: {{d_cm: {huge}, e_statC: 1}}\n"
    with pytest.raises(ValidationError, match=r"^params\.d_cm: must be finite") as caught:
        parse_scenario(doc)
    assert huge not in str(caught.value)
    polyline = f"""
kind: ac-phase
params:
  line: {{lambda_statC_per_cm: 1.0}}
  mu_z_erg_per_G: 1.0
  loop: {{kind: polyline, vertices_cm: [[1, 0, 0], [0, {huge}, 0], [-1, 0, 0], [1, 0, 0]]}}
"""
    with pytest.raises(ValidationError, match=r"^params\.loop\.vertices_cm\[1\]: must be finite"):
        parse_scenario(polyline)
    path = tmp_path / "huge.yaml"
    path.write_text(doc)
    assert cli_main(["run", str(path)]) == 2
    # past the interpreter's integer digit limit the loader itself refuses it
    path.write_text(doc.replace(huge, "1" + "0" * 5000))
    assert cli_main(["run", str(path)]) == 2


@pytest.mark.parametrize("doc", [AB_UNIT_DOC, "kind: mzi\nparams:\n  phase_rad: 0.5\n"], ids=["ab-solenoid", "mzi"])
@pytest.mark.parametrize("bad", ["3", "-0.5"])
def test_parse_range_checks_visibility(doc, bad):
    # ab-solenoid used to accept it and fail only inside the point runner
    assert parse_scenario(doc + "  visibility: 0.25\n").params["visibility"] == 0.25
    with pytest.raises(ValidationError, match=rf"^params\.visibility: must lie in \[0, 1\], got {float(bad)!r}$"):
        parse_scenario(doc + f"  visibility: {bad}\n")


BOUNCE_DOC = (SCENARIO_DIR / "ac_bounce.yaml").read_text()
PHASE_DOC = (SCENARIO_DIR / "ac_phase_circle.yaml").read_text()


@pytest.mark.parametrize(
    "text, old, new, key",
    [
        (PHASE_DOC, "radius_cm: 0.8", "radius_cm: 0", "params.loop.radius_cm"),
        (PHASE_DOC, "second_radius_cm: 2.5", "second_radius_cm: 0", "params.second_radius_cm"),
        (BOUNCE_DOC, "n_bounces: 10", "n_bounces: 0", "params.n_bounces"),
        (BOUNCE_DOC, "dt_s: ", "dt_s: 0 #", "params.dt_s"),
        (AB_UNIT_DOC, "Q_statC: 1.0", "Q_statC: -1.0", "params.solenoid.Q_statC"),
        ("kind: field-free\nparams: {d_cm: 1.0, e_statC: 1.0}\n", "d_cm: 1.0", "d_cm: 0", "params.d_cm"),
    ],
    ids=["radius_cm", "second_radius_cm", "n_bounces", "dt_s", "Q_statC", "d_cm"],
)
def test_parse_domain_errors_name_the_key(tmp_path, text, old, new, key):
    # the physics constructors used to raise these without the key
    assert old in text
    with pytest.raises(ValidationError, match="^" + key.replace(".", r"\.") + ": must "):
        parse_scenario(text.replace(old, new))
    path = tmp_path / "bad.yaml"
    path.write_text(text.replace(old, new))
    assert cli_main(["run", str(path)]) == 2


def test_parse_equal_mirrors_name_the_block():
    assert "b_cm: 3.0" in BOUNCE_DOC
    with pytest.raises(ValidationError, match=r"^params\.mirrors: mirror planes must be distinct$"):
        parse_scenario(BOUNCE_DOC.replace("b_cm: 3.0", "b_cm: 1.5"))


SQUARE = "[[1, 1, 0], [-1, 1, 0], [-1, -1, 0], [1, -1, 0], [1, 1, 0]]"
POLYLINE_DOC = f"""
kind: ac-phase
units: scaled-unity
params:
  line: {{lambda_statC_per_cm: 1.0}}
  mu_z_erg_per_G: 1.0
  loop: {{kind: polyline, vertices_cm: {SQUARE}}}
"""


@pytest.mark.parametrize(
    "text, old, new, error, message",
    [
        (
            POLYLINE_DOC, SQUARE, "[[1, 0, 0], [0, 1, 0], [1, 0, 0]]", ValidationError,
            r"params\.loop\.vertices_cm: a closed polyline needs at least 3 distinct vertices",
        ),
        (
            POLYLINE_DOC, SQUARE, "[[1, 1, 0], [-1, 1, 0], [-1, -1, 0], [1, -1, 0]]", DomainError,
            r"params\.loop\.vertices_cm: open path: polyline must end at its starting vertex",
        ),
        (
            BOUNCE_DOC, "x_cm: 3.0", "x_cm: 9.0", ValidationError,
            r"params\.start\.x_cm: initial position x = 9\.0 lies outside the mirrors \[1\.5, 3\.0\]",
        ),
    ],
    ids=["too_few_vertices", "open_polyline", "start_outside_mirrors"],
)
def test_parse_loop_and_start_errors_name_the_key(tmp_path, text, old, new, error, message):
    # these used to read without the key; the start check ran only at run time
    assert parse_scenario(text) and text.count(old) == 1
    with pytest.raises(error, match=f"^{message}$"):
        parse_scenario(text.replace(old, new))
    path = tmp_path / "bad.yaml"
    path.write_text(text.replace(old, new))
    assert cli_main(["run", str(path)]) == 2


def test_swept_start_outside_the_mirrors_fails_per_point():
    doc = BOUNCE_DOC.replace("n_bounces: 10", "n_bounces: 1") + "sweep: {param: start.x_cm, from: 2.0, to: 4.0, steps: 3}\n"
    report = run_scenario(parse_scenario(doc))
    assert [row.get("error") for row in report.rows if row["sweep_index"] == 2] == [
        "ValidationError: params.start.x_cm: initial position x = 4.0 lies outside the mirrors [1.5, 3.0]"
    ]
    assert all("error" not in row for row in report.rows if row["sweep_index"] < 2)


def test_parse_orbit_must_clear_solenoid():
    with pytest.raises(ValidationError, match="R_cm"):
        parse_scenario(AB_UNIT_DOC.replace("R_cm: 2.0", "R_cm: 0.5"))


def test_parse_sweep_validation():
    base = AB_UNIT_DOC + "sweep: {param: solenoid.v_cm_per_s, from: 0.1, to: 1.0, steps: 2}\n"
    assert parse_scenario(base).sweep.steps == 2
    with pytest.raises(ValidationError, match="steps"):
        parse_scenario(base.replace("steps: 2", "steps: 1"))
    with pytest.raises(ValidationError, match="does not exist"):
        parse_scenario(base.replace("solenoid.v_cm_per_s", "solenoid.w_cm_per_s"))
    with pytest.raises(ValidationError, match="log"):
        parse_scenario(base.replace("steps: 2", "steps: 3, scale: log").replace("from: 0.1", "from: -0.1"))


def test_run_ab_solenoid_unit_row():
    report = run_scenario(parse_scenario(AB_UNIT_DOC))
    row = report.rows[0]
    four_pi = 4.0 * math.pi
    assert row["flux"] == pytest.approx(four_pi, rel=1e-15)
    assert row["phase_ab_rad"] == pytest.approx(four_pi, rel=1e-15)
    assert row["phase_local_rad"] == pytest.approx(four_pi, rel=1e-14)
    assert row["p_a"] == pytest.approx(1.0, abs=1e-12)
    assert row["identity_residual"] < 1e-12
    assert {c.name: c.passed for c in report.checks} == {
        "factor4_identity": True,
        "flux_chain_consistency": True,
    }


def test_sweep_crossing_pi_routes_to_b():
    doc = AB_UNIT_DOC + "sweep: {param: solenoid.v_cm_per_s, from: 0.05, to: 0.45, steps: 9}\n"
    report = run_scenario(parse_scenario(doc))
    assert [row["sweep_index"] for row in report.rows] == list(range(9))
    at_pi = report.rows[4]  # v = 0.25 makes the flux phase pi
    assert at_pi["p_b"] == pytest.approx(1.0, abs=1e-12)
    assert report.columns[1] == "solenoid.v_cm_per_s"


def test_sweep_point_failure_isolated():
    # sweeping the orbit radius below the solenoid radius fails those points only
    doc = AB_UNIT_DOC + "sweep: {param: orbit.R_cm, from: 0.5, to: 2.0, steps: 4}\n"
    report = run_scenario(parse_scenario(doc))
    errors = [bool(row.get("error")) for row in report.rows]
    assert errors == [True, True, False, False]
    assert "error" in report.columns
    good = report.rows[2]
    assert good["identity_residual"] < 1e-12


def test_sweep_points_report_their_own_warnings(tmp_path, capsys):
    # r/L passes 0.1 at four of five points; the parsed r_cm = 0.01 does not warn
    doc = AB_UNIT_DOC.replace("r_cm: 1.0", "r_cm: 0.01") + (
        "sweep: {param: solenoid.r_cm, from: 0.01, to: 0.5, steps: 5}\n"
    )
    report = run_scenario(parse_scenario(doc))
    warned = report.to_dict()["scenario"]["warnings"]
    assert [w.split(":")[0] for w in warned] == [f"sweep_index {i}" for i in (1, 2, 3, 4)]
    assert all("r/L" in w for w in warned)
    assert "r/L = 0.5 exceeds" in warned[-1]
    path = tmp_path / "r_sweep.yaml"
    path.write_text(doc)
    assert cli_main(["sweep", str(path), "--output", str(tmp_path / "out.csv")]) == 0
    assert capsys.readouterr().out.count("WARN sweep_index") == 4


def test_mzi_path_shift_run():
    doc = """
kind: mzi
units: scaled-unity
params:
  path_shift: {delta_l_cm: 0.5, wavelength_cm: 1.0}
"""
    report = run_scenario(parse_scenario(doc))
    assert report.rows[0]["p_b"] == pytest.approx(1.0, abs=1e-12)
    names = [c.name for c in report.checks]
    assert "routes_to_B_at_pi_phase" in names


def test_mzi_requires_exactly_one_phase_spec():
    with pytest.raises(ValidationError):
        parse_scenario(
            """
kind: mzi
params:
  phase_rad: 1.0
  path_shift: {delta_l_cm: 0.5, wavelength_cm: 1.0}
"""
        )


def test_ac_bounce_runs_both_laws():
    doc = """
kind: ac-bounce
units: scaled-unity
params:
  line: {lambda_statC_per_cm: 0.05}
  neutron: {mass_g: 1.0, mu_z_erg_per_G: 1.0}
  start: {x_cm: 3.0, y_cm: 0.5, vx_cm_per_s: -2.0}
  mirrors: {a_cm: 1.5, b_cm: 3.0}
  n_bounces: 3
  dt_s: 0.00390625
"""
    report = run_scenario(parse_scenario(doc))
    outcome = {c.name: c.passed for c in report.checks}
    assert outcome == {
        "energy_conserved_full_law": True,
        "energy_grows_naive_law": True,
        "work_integral_match": True,
    }
    laws = {row["law"] for row in report.rows}
    assert laws == {"full", "naive-boyer"}


def test_ac_phase_radius_independence_checks():
    doc = """
kind: ac-phase
units: scaled-unity
params:
  line: {lambda_statC_per_cm: 1.0}
  mu_z_erg_per_G: 1.0
  loop: {kind: circle, radius_cm: 0.8}
  second_radius_cm: 2.5
"""
    report = run_scenario(parse_scenario(doc))
    outcome = {c.name: c.passed for c in report.checks}
    assert outcome == {"ac_phase_loop_value": True, "ac_phase_radius_independent": True}
    assert report.rows[0]["phase_rad"] == pytest.approx(4.0 * math.pi, rel=1e-9)


def test_field_free_scenario_checks():
    doc = """
kind: field-free
units: scaled-unity
params: {d_cm: 1.0, e_statC: 1.0}
"""
    report = run_scenario(parse_scenario(doc))
    outcome = {c.name: c.passed for c in report.checks}
    assert outcome == {
        "field_free_three_charge": True,
        "potential_at_electron": True,
        "field_free_zero_phase_claim": True,
    }
    assert len(report.rows) == 3
    assert report.rows[0]["potential_statV"] == pytest.approx(8.0, rel=1e-14)


def test_sweep_keeps_the_worst_points_row_whole():
    # expected and actual used to come from different points: 4.0 against 8.0
    doc = """
kind: field-free
units: scaled-unity
params: {d_cm: 2.0, e_statC: 1.0}
sweep: {param: d_cm, from: 2.0, to: 1.0, steps: 2}
"""
    report = run_scenario(parse_scenario(doc))
    potential = next(c for c in report.checks if c.name == "potential_at_electron")
    point = next(r for r in report.rows if r["charge_index"] == 0 and r["potential_statV"] == potential.actual)
    assert potential.expected == pytest.approx(8.0 / point["d_cm"], rel=1e-15)
    assert potential.passed


@pytest.mark.parametrize("units", ["gaussian-cgs", "scaled-unity"])
def test_circle_off_the_line_passes(units):
    # its phase of 0 used to be judged against an absolute 1e-10
    doc = f"""
kind: ac-phase
units: {units}
params:
  line: {{lambda_statC_per_cm: 30.0}}
  mu_z_erg_per_G: 20.0
  loop: {{kind: circle, center_x_cm: 5.0, center_y_cm: 1.0, radius_cm: 1.0}}
  second_radius_cm: 2.0
sweep: {{param: loop.radius_cm, from: 1.0, to: 3.0, steps: 7}}
"""
    report = run_scenario(parse_scenario(doc))
    assert {row["winding"] for row in report.rows} == {0}
    assert {c.name: c.passed for c in report.checks} == {
        "ac_phase_loop_value": True,
        "ac_phase_radius_independent": True,
    }


@pytest.mark.parametrize("units", ["gaussian-cgs", "scaled-unity"])
def test_loop_winding_twice_is_judged_per_winding(units):
    # |phase - 2u| / u, with u the per-winding phase: |winding| times stricter
    # than the relative |phase / (2u) - 1| it replaced
    square = "[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]"
    doc = f"""
kind: ac-phase
units: {units}
params:
  line: {{lambda_statC_per_cm: 30.0}}
  mu_z_erg_per_G: 20.0
  loop: {{kind: polyline, vertices_cm: [{square}, {square}, [1.0, 0.0, 0.0]]}}
"""
    report = run_scenario(parse_scenario(doc))
    (row,) = report.rows
    (check,) = report.checks
    assert row["winding"] == 2 and check.name == "ac_phase_loop_value" and check.passed
    assert check.residual == abs(row["phase_rad"] - row["expected_rad"]) / abs(row["expected_rad"] / 2)
    assert check.residual < verify.TOLERANCES["ac_phase_loop_value"]


def test_loop_around_an_uncharged_line_passes():
    # lambda = 0: the per-winding phase is 0, so the residual is absolute
    doc = PHASE_DOC.replace("lambda_statC_per_cm: 1.0", "lambda_statC_per_cm: 0.0")
    report = run_scenario(parse_scenario(doc))
    assert [row["phase_rad"] for row in report.rows] == [0.0, 0.0]
    assert report.all_passed and len(report.checks) == 2


def test_every_check_tolerance_is_catalogued(verify_seed42):
    reports = [verify_seed42] + [run_scenario(load_scenario(str(p))) for p in sorted(SCENARIO_DIR.glob("*.yaml"))]
    for report in reports:
        for check in report.checks:
            assert check.tol == verify.TOLERANCES[check.name], check.name


def test_emit_csv_structure_and_determinism(tmp_path):
    report = run_scenario(parse_scenario(AB_UNIT_DOC))
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    emit(report, "csv", str(first))
    emit(report, "csv", str(second))
    assert first.read_bytes() == second.read_bytes()
    lines = first.read_text().split("\n")
    assert lines[0].startswith("sweep_index,flux,phase_ab_rad")
    assert len([line for line in lines if line]) == 2  # header + one row
    assert "\r" not in first.read_text()


def test_emit_json_round_trip(tmp_path):
    report = run_scenario(parse_scenario(AB_UNIT_DOC))
    path = tmp_path / "report.json"
    emit(report, "json", str(path))
    loaded = json.loads(path.read_text())
    assert loaded == report.to_dict()
    assert loaded["schema_version"] == 1
    assert loaded["scenario"]["params"]["solenoid"]["r_cm"] == 1.0


def test_emit_rejects_unknown_format():
    report = run_scenario(parse_scenario(AB_UNIT_DOC))
    with pytest.raises(ValidationError):
        emit(report, "xml", None)


def test_golden_csv_matches_stored_file(tmp_path):
    scenario = load_scenario(str(SCENARIO_DIR / "ab_solenoid_unit.yaml"))
    report = run_scenario(scenario)
    produced = render_csv(report)
    assert produced.encode() == (DATA_DIR / "golden_ab_solenoid.csv").read_bytes()


def test_golden_bounce_csv_matches_stored_file():
    # pins both laws' bounce times, kinetic energies, work integrals and gains
    report = run_scenario(load_scenario(str(SCENARIO_DIR / "ac_bounce.yaml")))
    assert render_csv(report).encode() == (DATA_DIR / "golden_ac_bounce.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIO_DIR.glob("*.yaml")))
def test_golden_json_matches_stored_file(name):
    # pins the normalized scenario.params next to the rows and checks
    report = run_scenario(load_scenario(str(SCENARIO_DIR / f"{name}.yaml")))
    assert render_json(report).encode() == (DATA_DIR / f"golden_{name}.json").read_bytes()


def _key_paths(node, prefix=()):
    for key, value in node.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


def _mutated_documents():
    """Every shipped scenario with one key deleted, set to a string, set to
    null, or given an unknown sibling: (name, key path, mutation, text)."""
    for path in sorted(SCENARIO_DIR.glob("*.yaml")):
        doc = yaml.safe_load(path.read_text())
        for keys in _key_paths(doc):
            for mutation in ("delete", "string", "null", "unknown"):
                mutated = copy.deepcopy(doc)
                node = mutated
                for key in keys[:-1]:
                    node = node[key]
                if mutation == "delete":
                    del node[keys[-1]]
                elif mutation == "unknown":
                    node["unknown_key"] = 1
                else:
                    node[keys[-1]] = "bogus" if mutation == "string" else None
                yield path.name, keys, mutation, yaml.safe_dump(mutated, sort_keys=False)


def test_validation_messages_name_the_mutated_key():
    invalid = 0
    for name, keys, mutation, text in _mutated_documents():
        try:
            parse_scenario(text)
        except ValidationError as exc:
            invalid += 1
            named = str(exc).split(":")[0].split(".")[-1]
        else:
            continue  # an optional key, or a block that may be absent
        wanted = "unknown_key" if mutation == "unknown" else keys[-1]
        if (name, keys, mutation) == ("mzi_half_wavelength.yaml", ("params", "path_shift"), "delete"):
            wanted = "phase_rad"  # the missing alternative is named
        assert named == wanted, (name, keys, mutation, str(exc))
    assert invalid == 296


def test_sweep_ends_are_validated_against_the_swept_key(tmp_path):
    # a loop radius is positive; the sweep used to fail point by point
    doc = """
kind: ac-phase
units: scaled-unity
params:
  line: {lambda_statC_per_cm: 1.0}
  mu_z_erg_per_G: 1.0
  loop: {kind: circle, radius_cm: 2.0}
sweep: {param: loop.radius_cm, from: -1.0, to: 1.0, steps: 3}
"""
    with pytest.raises(ValidationError, match=r"^sweep\.from for params\.loop\.radius_cm: must be positive"):
        parse_scenario(doc)
    path = tmp_path / "negative_radius.yaml"
    path.write_text(doc)
    assert cli_main(["sweep", str(path)]) == 2
    with pytest.raises(ValidationError, match=r"^sweep\.to for params\.visibility: must lie in \[0, 1\]"):
        parse_scenario(AB_UNIT_DOC + "sweep: {param: visibility, from: 0.5, to: 1.5, steps: 3}\n")


@pytest.mark.parametrize(
    "sweep, message",
    [
        # the span overflows: the points were nan/inf and the mzi point raised ValueError
        ("{param: phase_rad, from: -1.5e308, to: 1.5e308, steps: 3}", "the span to - from of a linear sweep overflows"),
        # the span is finite, but span * 2 is not
        ("{param: phase_rad, from: -8.0e307, to: 8.0e307, steps: 3}", "the span to - from of a linear sweep overflows"),
        # the ratio overflows: the points were inf and the JSON held Infinity
        (
            "{param: path_shift.wavelength_cm, from: 1.0e-300, to: 1.0e300, steps: 3, scale: log}",
            "the ratio to/from of a log sweep must be finite and nonzero, got inf",
        ),
        # the ratio underflows to 0: the last point was 0.0
        (
            "{param: path_shift.wavelength_cm, from: 1.0e300, to: 1.0e-300, steps: 3, scale: log}",
            "the ratio to/from of a log sweep must be finite and nonzero, got 0.0",
        ),
    ],
    ids=["linear-span", "linear-span-times-index", "log-ratio", "log-ratio-underflow"],
)
def test_sweep_whose_points_overflow_is_rejected(tmp_path, sweep, message):
    params = "{path_shift: {delta_l_cm: 0.5, wavelength_cm: 1.0}}" if "path_shift" in sweep else "{phase_rad: 0.3}"
    doc = f"kind: mzi\nparams: {params}\nsweep: {sweep}\n"
    with pytest.raises(ValidationError, match="^sweep: " + re.escape(message)):
        parse_scenario(doc)
    path = tmp_path / "overflow.yaml"
    path.write_text(doc)
    assert cli_main(["sweep", str(path), "--output", str(tmp_path / "out.json")]) == 2


def test_sweep_that_rounds_past_to_ends_on_it(tmp_path):
    # 0.059 + (1.0 - 0.059) * 6 / 6 rounds to 1.0000000000000002, past the closed bound
    doc = "kind: mzi\nparams: {phase_rad: 0.3}\nsweep: {param: visibility, from: 0.059, to: 1.0, steps: 7}\n"
    values = parse_scenario(doc).sweep.values()
    assert values[-1] == 1.0
    assert values[1:-1] == [0.059 + (1.0 - 0.059) * i / 6 for i in range(1, 6)]
    path = tmp_path / "visibility.yaml"
    path.write_text(doc)
    assert cli_main(["sweep", str(path), "--output", str(tmp_path / "out.csv")]) == 0
    # 7.0 * (0.45 / 7.0) rounds to 0.45000000000000007
    log_doc = AB_UNIT_DOC + "sweep: {param: solenoid.v_cm_per_s, from: 7.0, to: 0.45, steps: 4, scale: log}\n"
    assert parse_scenario(log_doc).sweep.values()[-1] == 0.45


def test_sweep_point_with_zero_length_is_an_error_row(tmp_path):
    # 1.0 + (1e-20 - 1.0) * 1 is 0.0: the point is refused, and its note is not computed from r / 0
    doc = AB_UNIT_DOC + "sweep: {param: solenoid.L_cm, from: 1.0, to: 1.0e-20, steps: 2}\n"
    report = run_scenario(parse_scenario(doc))
    assert report.rows[-1]["solenoid.L_cm"] == 0.0
    assert report.rows[-1]["error"] == "ValidationError: L must be positive and finite, got 0.0"
    assert report.to_dict()["scenario"]["warnings"] == parse_scenario(doc).warnings
    path = tmp_path / "zero_length.yaml"
    path.write_text(doc)
    assert cli_main(["sweep", str(path), "--output", str(tmp_path / "out.csv")]) == 1


def test_sweep_of_integer_key_is_refused(tmp_path):
    # a swept value is a float; n_bounces: 1.5 used to run as 2 bounces
    doc = """
kind: ac-bounce
units: scaled-unity
params:
  line: {lambda_statC_per_cm: 0.05}
  neutron: {mass_g: 1.0, mu_z_erg_per_G: 1.0}
  start: {x_cm: 3.0, y_cm: 0.5, vx_cm_per_s: -2.0}
  mirrors: {a_cm: 1.5, b_cm: 3.0}
  n_bounces: 1
  dt_s: 0.00390625
sweep: {param: n_bounces, from: 1, to: 2, steps: 3}
"""
    with pytest.raises(ValidationError, match=r"^sweep\.param: 'n_bounces' is an integer parameter"):
        parse_scenario(doc)
    path = tmp_path / "int_sweep.yaml"
    path.write_text(doc)
    assert cli_main(["sweep", str(path)]) == 2


def test_verify_suite_deterministic_and_green(verify_seed42):
    first = verify_seed42
    second = run_verify_suite(seed=42)
    assert render_json(first) == render_json(second)
    assert render_csv(first) == render_csv(second)
    assert first.all_passed
    names = [c.name for c in first.checks]
    assert "factor4_identity" in names and "newtons_third_law" in names


def test_verify_suite_runs_each_bounce_law_once(monkeypatch):
    laws = []
    simulate = boyer.simulate_bounce_experiment

    def counted(lc, n, cfg, initial, k):
        laws.append(cfg.law)
        return simulate(lc, n, cfg, initial, k)

    monkeypatch.setattr(boyer, "simulate_bounce_experiment", counted)
    names = [c.name for c in run_verify_suite(seed=3).checks]
    assert sorted(laws) == sorted(boyer.LAWS)
    # the shared naive bounce still yields its two checks, in place
    at = names.index("energy_grows_naive_law")
    assert names[at - 1 : at + 3] == [
        "rk4_order4_convergence",
        "energy_grows_naive_law",
        "work_integral_match",
        "energy_conserved_full_law",
    ]
    assert len(names) == 29


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_golden_verify_report_matches_stored_file(fmt, verify_seed42):
    # pins every row of the seed-42 catalogue: names, expected, actual, tol, pass
    render = render_json if fmt == "json" else render_csv
    produced = render(verify_seed42)
    assert produced.encode() == (DATA_DIR / f"golden_verify_seed42.{fmt}").read_bytes()


def test_verify_rows_are_built_by_the_module_check_row(monkeypatch):
    # Per-check timing wraps verify.CheckRow: a check ends when it builds its
    # row, so every row must be built by one call of that module name.
    built = []
    check_row = verify.CheckRow

    def counted(*args, **kwargs):
        built.append(check_row(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(verify, "CheckRow", counted)
    report = run_verify_suite(seed=3)
    assert len(report.checks) == 29
    assert len(built) == 29
    assert all(a is b for a, b in zip(built, report.checks))


def test_verify_check_fails_on_a_nan_draw(monkeypatch):
    # the worst of the draws used to drop a NaN and read as PASS
    calls = []
    direct = solenoid.ab_phase_direct

    def nan_on_seventh_call(s, k):
        calls.append(s)
        return math.nan if len(calls) == 7 else direct(s, k)

    monkeypatch.setattr(solenoid, "ab_phase_direct", nan_on_seventh_call)
    monkeypatch.setattr(verify, "_CHECKS", [])
    verify._claim("flux_chain_consistency", 1000)(verify._flux_chain_consistency)
    (row,) = run_verify_suite(seed=42).checks
    assert row.name == "flux_chain_consistency" and len(calls) == 1000
    assert not row.passed and math.isnan(row.actual)


def test_field_free_overflow_fails_its_checks():
    # e/d^2 overflows: the field residual is NaN and the potential inf, and
    # both claims must FAIL rather than report a clean worst of zero
    doc = """
kind: field-free
units: scaled-unity
params: {d_cm: 1.0e-10, e_statC: 1.0e300}
"""
    checks = {c.name: c for c in run_scenario(parse_scenario(doc)).checks}
    three_charge, potential = checks["field_free_three_charge"], checks["potential_at_electron"]
    assert not three_charge.passed and math.isnan(three_charge.actual)
    assert not potential.passed and potential.actual == math.inf


def test_verify_csv_uses_check_table(verify_seed42):
    lines = render_csv(verify_seed42).split("\n")
    assert lines[0] == "name,expected,actual,tol,pass"


def test_cli_imports_without_numpy():
    # `abclab run` and `abclab sweep` need no numpy; only verify imports it
    src = Path(abclab.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = "import sys, abclab.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_cli_run_exit_codes(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = cli_main(["run", str(SCENARIO_DIR / "ab_solenoid_unit.yaml"), "--output", str(out)])
    assert code == 0
    assert out.exists()
    captured = capsys.readouterr()
    assert "PASS factor4_identity" in captured.out


def test_cli_rejects_run_with_sweep_block():
    assert cli_main(["run", str(SCENARIO_DIR / "ab_solenoid_sweep.yaml")]) == 2


def test_cli_sweep_requires_sweep_block():
    assert cli_main(["sweep", str(SCENARIO_DIR / "ab_solenoid_unit.yaml")]) == 2


def test_cli_sweep_runs(tmp_path):
    out = tmp_path / "sweep.csv"
    code = cli_main(["sweep", str(SCENARIO_DIR / "ab_solenoid_sweep.yaml"), "--output", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 10  # header + 9 points


def test_cli_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("kind: [unclosed")
    assert cli_main(["run", str(bad)]) == 2


def test_cli_bounce_over_step_budget_exits_3(tmp_path, monkeypatch, capsys):
    # vx = -0.02 needs about 19,200 steps for its first leg
    monkeypatch.setattr(boyer, "MAX_STEPS", 500)
    path = tmp_path / "slow.yaml"
    path.write_text(
        (SCENARIO_DIR / "ac_bounce.yaml").read_text().replace("vx_cm_per_s: -2.0", "vx_cm_per_s: -0.02")
    )
    assert cli_main(["run", str(path)]) == 3
    err = capsys.readouterr().err
    assert "law: bounce leg 1 exceeded the run's budget of 500 RK4 steps" in err
    assert "t = " in err and "x = " in err


def test_cli_bounce_over_landing_budget_exits_3(tmp_path, monkeypatch, capsys):
    # a landing step that never moves never reaches the mirror
    step = boyer.step_trajectory

    def stuck(lc, n, state, dt, law, k, *, accel=None):
        if sys._getframe(1).f_code.co_name == "_locate_crossing":
            return boyer.TrajectoryState(state.t + dt, state.x, state.y, state.vx, state.vy)
        return step(lc, n, state, dt, law, k, accel=accel)

    monkeypatch.setattr(boyer, "step_trajectory", stuck)
    path = tmp_path / "stuck.yaml"
    path.write_text((SCENARIO_DIR / "ac_bounce.yaml").read_text().replace("x_cm: 3.0", "x_cm: 2.999"))
    assert cli_main(["run", str(path)]) == 3
    err = capsys.readouterr().err
    assert "law: mirror crossing at x = 1.5 cm not landed within" in err
    assert f"in {boyer.MAX_LANDING_STEPS} RK4 steps (t = " in err and ", x = " in err


def test_cli_bounce_with_huge_n_bounces_exits_3(tmp_path, monkeypatch, capsys):
    # each leg is about 192 steps, so the budget runs out in leg 3, not never
    monkeypatch.setattr(boyer, "MAX_STEPS", 500)
    text = (SCENARIO_DIR / "ac_bounce.yaml").read_text()
    assert "n_bounces: 10\n" in text
    path = tmp_path / "endless.yaml"
    path.write_text(text.replace("n_bounces: 10\n", "n_bounces: 1000000000000000000000000000000\n"))
    assert cli_main(["run", str(path)]) == 3
    err = capsys.readouterr().err
    assert "law: bounce leg 3 exceeded the run's budget of 500 RK4 steps" in err


def test_cli_verify_passes_on_seed_with_small_overlap_real_part(tmp_path):
    # this seed draws an overlap whose real part is small; the quadrature
    # route must still meet the 1e-8 claim there
    path = tmp_path / "v.json"
    assert cli_main(["verify", "--seed", "1549879443", "--output", str(path)]) == 0
    rows = {c["name"]: c for c in json.loads(path.read_text())["checks"]}
    assert rows["overlap_closed_vs_quadrature"]["actual"] < 1e-13


def test_worst_of_n_residuals_keep_nan():
    residual = verify.three_charge_residual([1e-20, math.nan, 0.0], 1.0, 1.0)
    assert math.isnan(residual)
    assert not verify.claim_row("field_free_three_charge", residual).passed
    # a leg whose kinetic energy is NaN fails energy growth, wherever it sits
    naive = types.SimpleNamespace(
        law=boyer.NAIVE_LAW,
        initial_kinetic_energy=1.0,
        bounce_kinetic_energies=[2.0, math.nan, 3.0],
        ke_gain_per_leg=[1.0, math.nan, math.nan],
        work_per_leg=[1.0, 1.0, 1.0],
    )
    growth, work = verify.bounce_checks(naive)
    assert math.isnan(growth.actual) and not growth.passed
    assert math.isnan(work.actual) and not work.passed


def test_cli_verify_deterministic(tmp_path, verify_seed42):
    path = tmp_path / "v.json"
    assert cli_main(["verify", "--seed", "42", "--output", str(path)]) == 0
    assert path.read_bytes() == render_json(verify_seed42).encode()


def test_shipped_scenarios_all_pass():
    for name in (
        "mzi_half_wavelength.yaml",
        "ac_phase_circle.yaml",
        "field_free_triple.yaml",
    ):
        report = run_scenario(load_scenario(str(SCENARIO_DIR / name)))
        assert report.all_passed, name
