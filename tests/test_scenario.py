import copy
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import abclab
from abclab import (
    DomainError,
    ScenarioParseError,
    ValidationError,
    boyer,
    interferometry,
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
from abclab.errors import SingularityError
from abclab.units import Vec3
from abclab.scenario import _ScenarioLoader, emit

DATA_DIR = Path(__file__).parent / "data"
SCENARIO_DIR = Path(__file__).parent.parent / "scenarios"

AB_UNIT_DOC = """
kind: ab-solenoid
units: scaled-unity
params:
  solenoid: {r_cm: 1.0, L_cm: 1.0, M_g: 1.0, Q_statC: 1.0, v_cm_per_s: 1.0}
  orbit: {R_cm: 2.0, u_cm_per_s: 1.0}
"""


def _csv_header(report) -> list[str]:
    return next(csv.reader(io.StringIO(render_csv(report))))


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
    for text, where in [
        ("kind: [unclosed", r"line \d+, column \d+"),  # libyaml: 2, 1; the pure-Python parser: 1, 16
        ("kind: [unclosed\n", "line 2, column 1"),
        ("a: b: c", "line 1, column 5"),
        ("kind: mzi\nparams:\n\tphase_rad: 0.5\n", "line 3, column 1"),  # a tab indent
    ]:
        with pytest.raises(ScenarioParseError, match=rf"^malformed scenario document at {where}: "):
            parse_scenario(text)


@pytest.mark.parametrize("depth", [1200, 100_000])
def test_parse_refuses_deep_nesting(tmp_path, depth):
    # libyaml composes by C recursion, which Python's recursion limit does
    # not bound, and scans a deep flow in quadratic time: the guard refuses
    # the document at its 33rd level, before either runs
    text = "x: " + "[" * depth + "]" * depth + "\n"
    start = time.perf_counter()
    with pytest.raises(ScenarioParseError, match=r"^scenario document nests deeper than 32 levels$"):
        parse_scenario(text)
    assert time.perf_counter() - start < 1.0
    path = tmp_path / "deep.yaml"
    path.write_text(text)
    assert cli_main(["run", str(path)]) == 2


def test_fallback_loader_refuses_deep_nesting():
    # the pure-Python parser, which the loader uses when PyYAML lacks
    # libyaml, is refused at the same level by the same composer
    src = Path(abclab.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = """
import time, yaml
del yaml.CSafeLoader
from abclab import ScenarioParseError, parse_scenario, scenario
assert issubclass(scenario._ScenarioLoader, yaml.SafeLoader)
text = "x: " + "[" * 100_000 + "]" * 100_000 + "\\n"
start = time.perf_counter()
try:
    parse_scenario(text)
except ScenarioParseError as exc:
    print(exc, time.perf_counter() - start < 1.0)
"""
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "scenario document nests deeper than 32 levels True\n"


def test_parse_makes_one_pass_over_the_events(monkeypatch):
    # the loader's composer counts the nesting; no separate walk of the events
    def refuse(*args, **kwargs):
        raise AssertionError("yaml.parse called")

    monkeypatch.setattr(yaml, "parse", refuse)
    assert parse_scenario(AB_UNIT_DOC).kind == "ab-solenoid"


def test_nesting_limit_admits_32_levels():
    # the root mapping is level 1; past the guard the schema judges the document
    with pytest.raises(ValidationError):
        parse_scenario("x: " + "[" * 31 + "]" * 31 + "\n")
    with pytest.raises(ScenarioParseError, match="deeper than 32"):
        parse_scenario("x: " + "[" * 32 + "]" * 32 + "\n")


class _PythonLoader(yaml.SafeLoader):
    """PyYAML's pure-Python safe loader with the scenario loader's resolvers."""

    yaml_implicit_resolvers = _ScenarioLoader.yaml_implicit_resolvers


_EDGE_DOCUMENTS = [
    "a: .inf\nb: -.Inf\nc: .NaN\n",
    "a: 0x10\nb: 0o17\nc: 017\nd: 0b101\n",
    "a: yes\nb: No\nc: on\nd: ~\ne: null\n",
    "a: 1_000\nb: 1_000.5\nc: 5e-2\nd: 1e400\ne: -1e400\nf: 3.0e6\ng: -.5E+1\n",
    "a: 2001-12-14\nb: 2001-12-14t21:59:43.10-05:00\nc: 12:30:00\nd: 190:20:30.15\n",
    "base: &b {x: 1.0, y: [1, 2]}\nuse: *b\nmerged: {<<: *b, z: 3}\n",
    "kind: [unclosed",
    "kind: [unclosed\n",
    "kind: {unclosed: 1\n",
    "a: b: c",
    "kind: mzi\nparams:\n\tphase_rad: 0.5\n",
    "a: 2020-02-30\n",
    "a: !!float x\n",
    "a: !!python/object:os.system x\n",
    "a: 1\n---\nb: 2\n",
]


def _exactly(node):
    """A value that compares equal only for equal types, key order and float bits."""
    if isinstance(node, dict):
        return ("dict", [(_exactly(key), _exactly(value)) for key, value in node.items()])
    if isinstance(node, list):
        return ("list", [_exactly(item) for item in node])
    return (type(node).__name__, node.hex() if isinstance(node, float) else repr(node))


def _loaded(text, loader):
    try:
        return _exactly(yaml.load(text, Loader=loader))
    except (yaml.YAMLError, ValueError) as exc:
        return type(exc)


def test_scenario_loader_matches_the_python_safe_loader():
    shipped = [path.read_text() for path in sorted(SCENARIO_DIR.glob("*.yaml"))]
    corpus = [text for *_, text in _mutated_documents()]
    for text in shipped + corpus + _EDGE_DOCUMENTS:
        assert _loaded(text, _ScenarioLoader) == _loaded(text, _PythonLoader), text


@pytest.mark.parametrize(
    "text, message",
    [
        ("kind: *nope\n", "at line 1, column 7: found undefined alias 'nope'"),
        ("\ufeffkind: mzi\nparams: {phase_rad: [1, *x2_y]}\n", "at line 2, column 25: found undefined alias 'x2_y'"),
        ("a: &x 1\nb: &x 2\n", "at line 2, column 4: found duplicate anchor 'x'; first occurrence"),
    ],
    ids=["plain", "bom-flow", "duplicate-anchor"],
)
def test_undefined_alias_is_named_on_both_loaders(monkeypatch, text, message):
    # libyaml's own composer leaves the name out; the Python composer, which
    # builds the nodes on both loaders, names it
    def first_line():
        with pytest.raises(ScenarioParseError) as caught:
            parse_scenario(text)
        return str(caught.value).splitlines()[0]

    ours = first_line()
    monkeypatch.setattr(abclab.scenario, "_ScenarioLoader", _PythonLoader)
    assert first_line() == ours == f"malformed scenario document {message}"


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
def test_scenario_loader_parses_with_libyaml():
    # the pure-Python parser takes about eight times as long per sweep document
    assert issubclass(_ScenarioLoader, yaml.CSafeLoader)


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
# a rule that reads the mirrors names both keys, with those of the start
MIRROR_KEYS = "params.mirrors.a_cm, params.mirrors.b_cm"
# a step that cannot move x off the mirror it starts at counted as a bounce
# each time, with zero work; at 5e-324 s it exited 2 naming no key
SHORT_STEP_MESSAGE = (
    f"params.dt_s, params.start.vx_cm_per_s, {MIRROR_KEYS}: a step moves x by |vx| * dt = {{}} cm, "
    "less than the float spacing 4.440892098500626e-16 cm at the mirrors, so it cannot leave a mirror plane"
)
# m (vx^2 + vy^2)/2 overflowed: mass_g 1e308 wrote NaN rows and FAILed every
# check, and vx 1e300 exited 3 on an RK4 overflow that named no key
KINETIC_ENERGY_MESSAGE = (
    "params.neutron.mass_g, params.start.vx_cm_per_s, params.start.vy_cm_per_s: "
    "the kinetic energy m (vx^2 + vy^2)/2 must be finite, got inf"
)
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
            re.escape(f"params.start.x_cm, {MIRROR_KEYS}: initial position x = 9.0 lies outside the mirrors [1.5, 3.0]"),
        ),
        (
            BOUNCE_DOC, "dt_s: 0.00390625", "dt_s: 1.0e-17", ValidationError,
            re.escape(SHORT_STEP_MESSAGE.format("2e-17")),
        ),
        (
            BOUNCE_DOC, "dt_s: 0.00390625", "dt_s: 5.0e-324", ValidationError,
            re.escape(SHORT_STEP_MESSAGE.format("1e-323")),
        ),
        (
            BOUNCE_DOC, "vx_cm_per_s: -2.0", "vx_cm_per_s: 1.0e-300", ValidationError,
            re.escape(SHORT_STEP_MESSAGE.format("3.90625e-303")),
        ),
        (BOUNCE_DOC, "mass_g: 1.0", "mass_g: 1.0e308", ValidationError, re.escape(KINETIC_ENERGY_MESSAGE)),
        (BOUNCE_DOC, "vx_cm_per_s: -2.0", "vx_cm_per_s: -1.0e300", ValidationError, re.escape(KINETIC_ENERGY_MESSAGE)),
    ],
    ids=[
        "too_few_vertices", "open_polyline", "start_outside_mirrors",
        "step_under_spacing", "subnormal_dt", "outward_vx_under_spacing",
        "kinetic_energy_of_mass", "kinetic_energy_of_vx",
    ],
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
        f"ValidationError: params.start.x_cm, {MIRROR_KEYS}: initial position x = 4.0 lies outside the mirrors [1.5, 3.0]"
    ]
    assert all("error" not in row for row in report.rows if row["sweep_index"] < 2)


def test_swept_step_too_short_to_leave_a_mirror_fails_per_point():
    sweep = "sweep: {param: dt_s, from: 1.0e-2, to: 1.0e-17, steps: 2, scale: log}\n"
    doc = BOUNCE_DOC.replace("n_bounces: 10", "n_bounces: 1") + sweep
    report = run_scenario(parse_scenario(doc))
    assert [row.get("error") for row in report.rows if row["sweep_index"] == 1] == [
        "ValidationError: " + SHORT_STEP_MESSAGE.format("2e-17")
    ]
    assert all("error" not in row for row in report.rows if row["sweep_index"] == 0)


def test_parse_orbit_must_clear_solenoid():
    message = "params.orbit.R_cm, params.solenoid.r_cm: orbit radius 0.5 must exceed the solenoid radius 1.0"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        parse_scenario(AB_UNIT_DOC.replace("R_cm: 2.0", "R_cm: 0.5"))


@pytest.mark.parametrize(
    "name, old, new, message",
    [
        (
            "ab_solenoid_unit.yaml", "r_cm: 1.0", "r_cm: 1.0e300",
            "params.orbit.R_cm, params.solenoid.r_cm: orbit radius 2.0 must exceed the solenoid radius 1e+300",
        ),
        (
            "ac_bounce.yaml", "b_cm: 3.0", "b_cm: 1.0e-300",
            f"params.start.x_cm, {MIRROR_KEYS}: initial position x = 3.0 lies outside the mirrors [1e-300, 1.5]",
        ),
        (
            "ac_bounce.yaml", "a_cm: 1.5", "a_cm: 1.0e300",
            SHORT_STEP_MESSAGE.replace("4.440892098500626e-16", "1.487016908477783e+284").format("0.0078125"),
        ),
    ],
    ids=["orbit-inside-huge-solenoid", "start-beyond-tiny-mirror", "step-under-huge-mirror-spacing"],
)
def test_rule_that_reads_two_blocks_names_every_key_it_reads(tmp_path, capsys, name, old, new, message):
    # each message named the keys of one block only, though the set key was in the other
    text = (SCENARIO_DIR / name).read_text()
    assert text.count(old) == 1
    path = tmp_path / "bad.yaml"
    path.write_text(text.replace(old, new))
    assert cli_main(["run", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


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
    assert _csv_header(report)[1] == "solenoid.v_cm_per_s"


def test_sweep_point_failure_isolated():
    # sweeping the orbit radius below the solenoid radius fails those points only
    doc = AB_UNIT_DOC + "sweep: {param: orbit.R_cm, from: 0.5, to: 2.0, steps: 4}\n"
    report = run_scenario(parse_scenario(doc))
    errors = [bool(row.get("error")) for row in report.rows]
    assert errors == [True, True, False, False]
    assert "error" in _csv_header(report)
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


def test_mzi_routing_row_takes_its_port_from_the_path_shift(tmp_path, monkeypatch, capsys):
    # With twice the phase, half a wavelength lands at 2 pi and the routing row
    # followed the phase to detector A and PASSed; the parity of
    # 2*delta_l/wavelength expects B, so the wrong phase FAILs
    monkeypatch.setattr(interferometry, "phase_from_path_shift", lambda dl, wl: 4.0 * math.pi * dl / wl)
    path = tmp_path / "mzi.yaml"
    path.write_text((SCENARIO_DIR / "mzi_half_wavelength.yaml").read_text())
    assert cli_main(["run", str(path)]) == 1
    assert "FAIL routes_to_B_at_pi_phase (actual=0.0, tol=1e-12)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "delta_l, routing",
    [("0.5", ["routes_to_B_at_pi_phase"]), ("1.5", ["routes_to_B_at_pi_phase"]),
     ("2.0", ["routes_to_A_at_zero_phase"]), ("0.500000000001", ["routes_to_B_at_pi_phase"]), ("5.0e14", [])],
)
def test_mzi_path_shift_routing_rows(delta_l, routing):
    # the routing row appears where the phase lies within 1e-9 rad of 0 or pi,
    # and 5e14 wavelengths' phase cannot resolve that window
    doc = (SCENARIO_DIR / "mzi_half_wavelength.yaml").read_text().replace("delta_l_cm: 0.5", f"delta_l_cm: {delta_l}")
    report = run_scenario(parse_scenario(doc))
    assert [c.name for c in report.checks] == ["detector_probability_sum", *routing]
    assert all(c.passed for c in report.checks)


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


def test_cli_judges_a_second_circle_against_its_own_winding(tmp_path, capsys):
    # off centre, the second circle no longer encloses the line: both phases
    # came out right, 4 pi and 0, but the second was compared with the
    # first's, and the run exited 1
    text = (SCENARIO_DIR / "ac_phase_circle.yaml").read_text()
    path = tmp_path / "off_centre.yaml"
    path.write_text(text.replace("center_x_cm: 0.0", "center_x_cm: 0.5").replace("second_radius_cm: 2.5", "second_radius_cm: 0.3"))
    assert cli_main(["run", str(path), "--format", "json", "--output", str(tmp_path / "report.json")]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert [row["winding"] for row in report["rows"]] == [1, 0]
    assert [(c["name"], c["expected"], c["pass"]) for c in report["checks"]] == [
        ("ac_phase_loop_value", 4.0 * math.pi, True),
        ("ac_phase_radius_independent", 0.0, True),
    ]


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


MZI_SWEEPS = {
    "visibility": "kind: mzi\nparams: {phase_rad: 0.3}\nsweep: {param: visibility, from: 0.0, to: 1.0, steps: 3}\n",
    "phase_rad": "kind: mzi\nparams: {phase_rad: 0.3}\nsweep: {param: phase_rad, from: 0.0, to: 3.0, steps: 3}\n",
}


@pytest.mark.parametrize("swept", sorted(MZI_SWEEPS))
def test_mzi_sweep_of_a_row_column_names_it_once(swept):
    # the swept key is also an mzi row column; the CSV used to write it twice
    report = run_scenario(parse_scenario(MZI_SWEEPS[swept]))
    header = _csv_header(report)
    assert header == ["sweep_index", swept] + [c for c in ("phase_rad", "visibility", "p_a", "p_b") if c != swept]
    json_rows = json.loads(render_json(report))["rows"]
    assert all(list(row) == header for row in json_rows)
    assert [row[swept] for row in json_rows] == parse_scenario(MZI_SWEEPS[swept]).sweep.values()
    cells = list(csv.reader(io.StringIO(render_csv(report))))[1:]
    assert all(len(line) == len(header) for line in cells)


def test_all_error_sweep_header_names_only_the_error():
    # every orbit lies inside the solenoid (r_cm: 1.0)
    report = run_scenario(parse_scenario(AB_UNIT_DOC + "sweep: {param: orbit.R_cm, from: 0.5, to: 0.8, steps: 3}\n"))
    assert all("error" in row for row in report.rows)
    assert render_csv(report).split("\n")[0] == "sweep_index,orbit.R_cm,error"


def test_sweep_whose_first_point_fails_keeps_error_last():
    report = run_scenario(parse_scenario(AB_UNIT_DOC + "sweep: {param: orbit.R_cm, from: 0.5, to: 2.0, steps: 3}\n"))
    assert "error" in report.rows[0] and "error" not in report.rows[-1]
    header = _csv_header(report)
    assert header[:2] == ["sweep_index", "orbit.R_cm"] and header[-1] == "error"
    assert header[2:-1] == list(report.rows[-1])[2:]


@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIO_DIR.glob("*.yaml")))
def test_csv_header_is_the_json_row_keys(name):
    report = run_scenario(load_scenario(str(SCENARIO_DIR / f"{name}.yaml")))
    header = _csv_header(report)
    assert len(set(header)) == len(header)
    assert all(list(row) == header for row in json.loads(render_json(report))["rows"])


def test_verify_csv_header_is_the_check_keys(verify_seed42):
    header = _csv_header(verify_seed42)
    assert all(list(check) == header for check in json.loads(render_json(verify_seed42))["checks"])


def test_sweep_leaves_the_parsed_params_unchanged():
    # each point copies only the mappings on the swept path
    s = parse_scenario(AB_UNIT_DOC + "sweep: {param: solenoid.v_cm_per_s, from: 0.05, to: 0.45, steps: 3}\n")
    before = copy.deepcopy(s.params)
    report = run_scenario(s)
    assert s.params == before
    assert [row["solenoid.v_cm_per_s"] for row in report.rows] == s.sweep.values()
    assert report.scenario["params"] == before


def test_golden_csv_matches_stored_file(tmp_path):
    scenario = load_scenario(str(SCENARIO_DIR / "ab_solenoid_unit.yaml"))
    report = run_scenario(scenario)
    produced = render_csv(report)
    assert produced.encode() == (DATA_DIR / "golden_ab_solenoid.csv").read_bytes()


def test_golden_bounce_csv_matches_stored_file():
    # pins both laws' bounce times, kinetic energies, work integrals and gains
    report = run_scenario(load_scenario(str(SCENARIO_DIR / "ac_bounce.yaml")))
    assert render_csv(report).encode() == (DATA_DIR / "golden_ac_bounce.csv").read_bytes()


@pytest.mark.parametrize("name", ["ac_bounce_gaussian_cgs", "ac_bounce_strong_coupling", "ac_bounce_far_mirrors"])
def test_golden_bounce_variant_csv_matches_stored_file(name):
    # three more bounces pinned byte for byte: gaussian-cgs units, a coupling
    # near 3e-2 whose bare-force legs shorten, and a cavity 150 cm out
    report = run_scenario(load_scenario(str(DATA_DIR / f"{name}.yaml")))
    assert render_csv(report).encode() == (DATA_DIR / f"golden_{name}.csv").read_bytes()


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
    assert invalid == 293


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


def test_sweep_point_with_zero_length_is_refused_at_parse(tmp_path, capsys):
    # 1.0 + (1e-20 - 1.0) * 1 is 0.0 although both ends are positive; the
    # point used to run into an error row
    doc = AB_UNIT_DOC + "sweep: {param: solenoid.L_cm, from: 1.0, to: 1.0e-20, steps: 2}\n"
    message = "sweep point 1 for params.solenoid.L_cm: must be positive, got 0.0"
    with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
        parse_scenario(doc)
    path = tmp_path / "zero_length.yaml"
    path.write_text(doc)
    assert cli_main(["sweep", str(path), "--output", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


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


@pytest.mark.parametrize("seed", [1, 7, 123456])
def test_golden_verify_reports_at_more_seeds_match_stored_files(seed):
    # seeds 1, 7 and 123456, as the shipped code wrote them, in both formats
    report = run_verify_suite(seed)
    for fmt, render in (("json", render_json), ("csv", render_csv)):
        assert render(report).encode() == (DATA_DIR / f"golden_verify_seed{seed}.{fmt}").read_bytes(), fmt


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


def test_broken_kick_route_fails_its_catalogue_row(monkeypatch):
    # displacement_orbit_invariance audits delta_v * (pi*R/u) against the
    # orbit-free closed form; a kick off by 1e-13 is a FAIL row, not a crash,
    # and stays inside velocity_kick_quadrature's tolerance of 1e-12
    kick = solenoid.cylinder_velocity_change
    monkeypatch.setattr(solenoid, "cylinder_velocity_change", lambda s, o, k: kick(s, o, k) * (1.0 + 1e-13))
    checks = run_verify_suite(seed=42).checks
    assert [c.name for c in checks if not c.passed] == ["displacement_orbit_invariance"]
    assert len(checks) == 29


def test_broken_wavelength_fails_factor4_identity(monkeypatch, tmp_path):
    # a wrong matter wavelength breaks the factor-4 identity: a FAIL row and
    # exit 1, where ABResult used to raise (exit 3)
    wavelength = solenoid.de_broglie_wavelength
    monkeypatch.setattr(solenoid, "de_broglie_wavelength", lambda M, v, k: 2.0 * wavelength(M, v, k))
    checks = {c.name: c for c in run_scenario(load_scenario(SCENARIO_DIR / "ab_solenoid_unit.yaml")).checks}
    assert not checks["factor4_identity"].passed
    assert checks["factor4_identity"].actual == pytest.approx(0.5)
    assert checks["flux_chain_consistency"].passed
    out = tmp_path / "report.csv"
    assert cli_main(["run", str(SCENARIO_DIR / "ab_solenoid_unit.yaml"), "--output", str(out)]) == 1


MZI_OVERFLOW_DOC = """
kind: mzi
units: scaled-unity
params:
  path_shift: {delta_l_cm: 1.0e300, wavelength_cm: 1.0e-300}
  visibility: 1.0
"""


MV_KEYS = "params.solenoid.M_g, params.solenoid.v_cm_per_s: h/(M*v)"  # the message named no key
# the phase's message named no key; a flux that left the normal floats
# FAILed factor4_identity or named no key either
PATH_SHIFT_KEYS = "params.path_shift.delta_l_cm, params.path_shift.wavelength_cm: "
FLUX_KEYS = "params.solenoid.r_cm, params.solenoid.L_cm, params.solenoid.Q_statC, params.solenoid.v_cm_per_s: "
DELTA_X_KEYS = "params.solenoid.r_cm, params.solenoid.L_cm, params.solenoid.M_g, params.solenoid.Q_statC: "
DELTA_V_KEYS = DELTA_X_KEYS.replace(": ", ", params.orbit.R_cm, params.orbit.u_cm_per_s: ")
DELTA_V_NOT_NORMAL = "delta_v must be a normal finite float, or 0.0 at Q = 0 or u = 0, got "
NOT_NORMAL = "must be a normal finite float, or 0.0 at Q = 0, got "
# a subnormal per-winding phase FAILed both loop rows (exit 1), and an
# infinite one stopped the trapezoid rule on NaN, naming no key (exit 3)
AC_PHASE_UNIT = (
    "params.line.lambda_statC_per_cm, params.mu_z_erg_per_G: the per-winding phase 4*pi*mu_z*lambda/(hbar*c) "
    "must be a normal finite float, or 0.0 at lambda = 0 or mu_z = 0, got "
)


def _ac_phase_circle_doc(**values: str) -> str:
    doc = (SCENARIO_DIR / "ac_phase_circle.yaml").read_text()
    for key, value in values.items():
        doc = doc.replace(f"{key}: 1.0\n", f"{key}: {value}\n")
    return doc


def _ab_unit_doc(**values: str) -> str:
    doc = (SCENARIO_DIR / "ab_solenoid_unit.yaml").read_text()
    for key, value in values.items():
        doc = doc.replace(f"{key}: 1.0\n", f"{key}: {value}\n")
    return doc


@pytest.mark.parametrize(
    "doc, message",
    [
        (MZI_OVERFLOW_DOC, PATH_SHIFT_KEYS + "phase 2*pi*delta_l/wavelength must be finite, got inf"),
        (
            MZI_OVERFLOW_DOC.replace("delta_l_cm: 1.0e300", "delta_l_cm: 0.5").replace("1.0e-300", "1.0e-308"),
            PATH_SHIFT_KEYS + "phase 2*pi*delta_l/wavelength must be finite, got inf",
        ),
        (_ab_unit_doc(M_g="1.0e200", v_cm_per_s="1.0e200"), f"{MV_KEYS} must be positive and finite, got 0.0 at M*v = inf"),
        (_ab_unit_doc(M_g="1.0e-200", v_cm_per_s="1.0e-200"), f"{MV_KEYS} must be positive and finite, got inf at M*v = 0.0"),
        (_ab_unit_doc(M_g="1.0e-308"), f"{MV_KEYS} must be positive and finite, got inf at M*v = 1e-308"),
        (_ab_unit_doc(Q_statC="1.0e300", v_cm_per_s="1.0e300"), FLUX_KEYS + "flux " + NOT_NORMAL + "inf"),
        (_ab_unit_doc(L_cm="1.0e-308"), FLUX_KEYS + "flux " + NOT_NORMAL + "inf"),
        (_ab_unit_doc(r_cm="5.0e-324"), FLUX_KEYS + "flux " + NOT_NORMAL + "6.4e-323"),
        (_ab_unit_doc(Q_statC="5.0e-324"), FLUX_KEYS + "flux " + NOT_NORMAL + "6.4e-323"),
        (_ab_unit_doc(Q_statC="1.0e-300", M_g="1.0e14"), DELTA_X_KEYS + "delta_x " + NOT_NORMAL + "3.141592654e-314"),
        (_ab_unit_doc(Q_statC="1.0e-300", M_g="1.0e25"), DELTA_X_KEYS + "delta_x " + NOT_NORMAL + "0.0"),
        (
            _ab_unit_doc(r_cm="1.0e-310").replace("units: scaled-unity", "units: gaussian-cgs"),
            FLUX_KEYS + "flux " + NOT_NORMAL + "4.1917e-320",
        ),
        (
            _ab_unit_doc(L_cm="1.0e-300", M_g="1.0e-30"),
            "u*Q*e*r/(c^2*M*R*L): its denominator underflows to 0.0",
        ),
        (
            _ab_unit_doc(L_cm="1.0e-320", M_g="1.0e-10").replace("units: scaled-unity", "units: gaussian-cgs"),
            "4*pi*e*Q*v*r/(c^2*L*hbar): its denominator underflows to 0.0",
        ),
        # delta_v used to print inf in its column with both checks PASS
        (_ab_unit_doc(u_cm_per_s="1.0e308", M_g="1.0e-10"), DELTA_V_KEYS + DELTA_V_NOT_NORMAL + "inf"),
        (_ac_phase_circle_doc(lambda_statC_per_cm="5.0e-324"), AC_PHASE_UNIT + "6.4e-323"),
        (_ac_phase_circle_doc(mu_z_erg_per_G="5.0e-324"), AC_PHASE_UNIT + "6.4e-323"),
        (_ac_phase_circle_doc(lambda_statC_per_cm="1.0e308"), AC_PHASE_UNIT + "inf"),
        (_ac_phase_circle_doc(mu_z_erg_per_G="1.0e308"), AC_PHASE_UNIT + "inf"),
        (
            _ac_phase_circle_doc(lambda_statC_per_cm="1.0e-300", mu_z_erg_per_G="1.0e-40")
            .replace("units: scaled-unity", "units: gaussian-cgs"),
            AC_PHASE_UNIT + "0.0",
        ),
    ],
    ids=[
        "mzi-phase", "mzi-wavelength", "ab-momentum-inf", "ab-momentum-zero", "ab-mass-tiny", "ab-phase",
        "ab-length-tiny", "ab-radius-subnormal", "ab-charge-subnormal", "ab-shift-subnormal", "ab-shift-zero",
        "ab-flux-subnormal-cgs",
        "ab-kick-underflow", "ab-phase-underflow", "ab-kick-inf",
        "ac-phase-line-subnormal", "ac-phase-moment-subnormal", "ac-phase-line-inf", "ac-phase-moment-inf",
        "ac-phase-underflow-cgs",
    ],
)
def test_run_whose_arithmetic_overflows_exits_2(tmp_path, capsys, doc, message):
    # a math domain error or a division by zero used to end in a traceback, exit 1
    path = tmp_path / "overflow.yaml"
    path.write_text(doc)
    assert cli_main(["run", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_parse_refuses_an_ac_phase_whose_per_winding_phase_is_not_normal():
    # refused with the document, before a loop is integrated; an exact 0.0 parses
    with pytest.raises(DomainError, match="^" + re.escape(AC_PHASE_UNIT + "6.4e-323") + "$"):
        parse_scenario(_ac_phase_circle_doc(lambda_statC_per_cm="5.0e-324"))
    assert parse_scenario(_ac_phase_circle_doc(mu_z_erg_per_G="0.0")).params["mu_z_erg_per_G"] == 0.0


@pytest.mark.parametrize("value", ["1.0e-308", "1.0e300"])
def test_ac_phase_at_a_normal_per_winding_phase_runs(tmp_path, value):
    path = tmp_path / "extreme_line.yaml"
    path.write_text(_ac_phase_circle_doc(lambda_statC_per_cm=value))
    assert cli_main(["run", str(path), "--output", str(tmp_path / "out.csv")]) == 0


@pytest.mark.parametrize("M_g", ["1.0", "1.0e25"])
def test_ab_point_with_zero_charge_runs(tmp_path, M_g):
    # Q = 0 makes flux, phase_ab, delta_x and delta_v exactly 0.0, which the chain guard lets through
    path = tmp_path / "zero_charge.yaml"
    path.write_text(_ab_unit_doc(Q_statC="0.0", M_g=M_g))
    assert cli_main(["run", str(path), "--output", str(tmp_path / "out.csv")]) == 0
    [row] = run_scenario(parse_scenario(path.read_text())).rows
    assert (row["flux"], row["phase_ab_rad"], row["delta_x_cm"], row["delta_v_cm_per_s"]) == (0.0,) * 4


def test_ab_point_with_orbit_at_rest_runs(tmp_path):
    # u = 0, the static limit, makes delta_v exactly 0.0, which the chain guard lets through
    path = tmp_path / "static_orbit.yaml"
    path.write_text(_ab_unit_doc(u_cm_per_s="0.0"))
    assert cli_main(["run", str(path), "--output", str(tmp_path / "out.csv")]) == 0
    [row] = run_scenario(parse_scenario(path.read_text())).rows
    assert row["delta_v_cm_per_s"] == 0.0 and row["flux"] == 4.0 * math.pi


@pytest.mark.parametrize(
    "doc, first_point_rows, error",
    [
        (
            MZI_OVERFLOW_DOC + "sweep: {param: path_shift.delta_l_cm, from: 1.0, to: 1.0e300, steps: 3}\n",
            1,
            "DomainError: " + PATH_SHIFT_KEYS + "phase 2*pi*delta_l/wavelength must be finite, got inf",
        ),
        (
            _ab_unit_doc(M_g="1.0e200") + "sweep: {param: solenoid.v_cm_per_s, from: 1.0, to: 1.0e200, steps: 3}\n",
            1,
            f"DomainError: {MV_KEYS} must be positive and finite, got 0.0 at M*v = inf",
        ),
        (
            _ab_unit_doc() + "sweep: {param: solenoid.Q_statC, from: 1.0, to: 5.0e307, steps: 3}\n",
            1,
            "DomainError: " + FLUX_KEYS + "flux " + NOT_NORMAL + "inf",
        ),
        (
            _ab_unit_doc(M_g="1.0e-10") + "sweep: {param: orbit.u_cm_per_s, from: 1.0, to: 1.0e300, steps: 3}\n",
            1,
            "DomainError: " + DELTA_V_KEYS + DELTA_V_NOT_NORMAL + "inf",
        ),
        (  # one bounce row per law
            BOUNCE_DOC.replace("n_bounces: 10", "n_bounces: 1")
            + "sweep: {param: start.vx_cm_per_s, from: -2.0, to: -1.0e300, steps: 3}\n",
            2,
            "ValidationError: " + KINETIC_ENERGY_MESSAGE,
        ),
        (  # the circle and the second radius
            _ac_phase_circle_doc() + "sweep: {param: mu_z_erg_per_G, from: 1.0, to: 5.0e307, steps: 3}\n",
            2,
            "DomainError: " + AC_PHASE_UNIT + "inf",
        ),
    ],
    ids=["mzi-phase", "ab-momentum-inf", "ab-flux-inf", "ab-kick-inf", "bounce-kinetic-energy", "ac-phase-unit-inf"],
)
def test_sweep_point_whose_arithmetic_overflows_is_an_error_row(tmp_path, doc, first_point_rows, error):
    # the first point runs; the two that overflow become error rows
    report = run_scenario(parse_scenario(doc))
    assert [(row["sweep_index"], row.get("error")) for row in report.rows] == [(0, None)] * first_point_rows + [
        (1, error),
        (2, error),
    ]
    assert all(c.passed for c in report.checks)
    path = tmp_path / "overflow_sweep.yaml"
    path.write_text(doc)
    assert cli_main(["sweep", str(path), "--output", str(tmp_path / "out.csv")]) == 1


def test_sweep_point_whose_denominator_underflows_is_an_error_row(tmp_path):
    # c^2*M*R*L underflows at the last length; it used to crash every point
    doc = _ab_unit_doc(M_g="1.0e-30") + "sweep: {param: solenoid.L_cm, from: 1.0, to: 1.0e-300, steps: 3, scale: log}\n"
    report = run_scenario(parse_scenario(doc))
    assert [row.get("error") for row in report.rows] == [
        None,
        None,
        "DomainError: u*Q*e*r/(c^2*M*R*L): its denominator underflows to 0.0",
    ]
    assert all(c.passed for c in report.checks)
    path = tmp_path / "underflow_sweep.yaml"
    path.write_text(doc)
    assert cli_main(["sweep", str(path), "--output", str(tmp_path / "out.csv")]) == 1


FIELD_FREE_DOC = "kind: field-free\nunits: scaled-unity\nparams: {d_cm: %s, e_statC: %s}\n"


@pytest.mark.parametrize(
    "d, e",
    [("1.0e160", "1.0"), ("1.0e200", "1.0e-300"), ("1.0e-6", "1.0e300")],
    ids=["d2-overflows", "unit-underflows", "terms-overflow"],
)
def test_field_free_past_the_square_of_d_passes_its_checks(tmp_path, d, e):
    # d*d overflows, or e/(d*d) underflows to 0: both claims used to FAIL,
    # on a NaN field residual and a potential of 0.0; on separations and a
    # unit scaled by powers of two both PASS.  Where each field term, about
    # e/d^2 = 1e312, overflows on its own, summing them unscaled gave
    # inf - inf, a NaN field and a FAIL; summed at the nearest charge's scale
    # they cancel to 0.0, and the potential 8e/d = 8e306 is finite
    path = tmp_path / "far.yaml"
    path.write_text(FIELD_FREE_DOC % (d, e))
    out = tmp_path / "out.csv"
    assert cli_main(["run", str(path), "--output", str(out)]) == 0
    checks = {c.name: c for c in run_scenario(load_scenario(str(path))).checks}
    assert checks["field_free_three_charge"].passed and checks["field_free_three_charge"].actual == 0.0
    assert checks["potential_at_electron"].expected == 8.0 * float(e) / float(d)


def test_field_free_sweep_past_the_field_unit_keeps_its_points(tmp_path):
    doc = FIELD_FREE_DOC % ("1.0", "1.0") + "sweep: {param: d_cm, from: 1.0, to: 1.0e160, steps: 3, scale: log}\n"
    report = run_scenario(parse_scenario(doc))
    assert len(report.rows) == 9 and not any("error" in row for row in report.rows)
    assert all(c.passed for c in report.checks)
    path = tmp_path / "far_sweep.yaml"
    path.write_text(doc)
    assert cli_main(["sweep", str(path), "--output", str(tmp_path / "out.csv")]) == 0


@pytest.mark.parametrize(
    "doc, command, message",
    [
        (FIELD_FREE_DOC % ("1.0e-13", "1.0"), "run", "params.d_cm: must exceed 1e-12, got 1e-13"),
        (
            FIELD_FREE_DOC % ("1.0", "1.0") + "sweep: {param: d_cm, from: 1.0, to: 1.0e-13, steps: 3, scale: log}\n",
            "sweep",
            "sweep.to for params.d_cm: must exceed 1e-12, got 1e-13",
        ),
    ],
    ids=["run", "sweep"],
)
def test_field_free_spacing_at_the_separation_floor_names_the_key(tmp_path, capsys, doc, command, message):
    # the charge configuration used to refuse it without a key, and a sweep
    # wrote that text as an error row
    path = tmp_path / "close.yaml"
    path.write_text(doc)
    assert cli_main([command, str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "doc, command, message",
    [
        (
            FIELD_FREE_DOC % ("1.0", "1.0e308"),
            "run",
            "params.e_statC: must lie in (0, 4.4942328371557893e+307], got 1e+308",
        ),
        (
            FIELD_FREE_DOC % ("1.0", "1.0") + "sweep: {param: e_statC, from: 1.0, to: 1.0e308, steps: 3, scale: log}\n",
            "sweep",
            "sweep.to for params.e_statC: must lie in (0, 4.4942328371557893e+307], got 1e+308",
        ),
    ],
    ids=["run", "sweep"],
)
def test_field_free_charge_unit_past_a_quarter_of_the_largest_float_names_the_key(
    tmp_path, capsys, doc, command, message
):
    # the triple's 4e overflowed to inf and the run refused it as "charge
    # must be finite, got inf", without a key; a sweep wrote that text as an
    # error row and exited 0.  The bound itself parses.
    path = tmp_path / "huge_e.yaml"
    path.write_text(doc)
    assert cli_main([command, str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    largest = sys.float_info.max / 4.0
    assert parse_scenario(FIELD_FREE_DOC % ("1.0", repr(largest))).params["e_statC"] == largest


def test_field_free_report_carries_the_catalogue_residual(tmp_path, capsys):
    report = run_scenario(parse_scenario(FIELD_FREE_DOC % ("2.0", "3.0")))
    assert "field_free_pass" not in _csv_header(report)
    assert all("field_free_pass" not in row for row in report.rows)
    for row in report.rows:
        assert row["field_residual"] == verify.field_residual(row["field_statV_per_cm"], 2.0, 3.0)
    assert verify.field_residual(1.5, 2.0, 3.0) == 1.5 / (3.0 / 4.0)
    path = tmp_path / "tol.yaml"
    path.write_text((FIELD_FREE_DOC % ("1.0", "1.0")).replace("}", ", tol: 1.0e-12}"))
    assert cli_main(["run", str(path)]) == 2
    assert capsys.readouterr().err == "error: params.tol: unknown field\n"


def test_mzi_reports_the_catalogue_probability_sum():
    report = run_scenario(load_scenario(str(SCENARIO_DIR / "mzi_half_wavelength.yaml")))
    first = report.checks[0]
    assert first.name == "detector_probability_sum"
    assert first.tol == verify.TOLERANCES["detector_probability_sum"] == 1e-15
    assert "probability_sum" not in verify.TOLERANCES


def test_field_free_overflow_fails_its_checks():
    # e/d^2 overflows: the field terms cancel at their own scale, so the field
    # claim PASSes at 0.0, but the potential 8e/d is inf, and that claim must
    # FAIL rather than report a clean worst of zero
    doc = """
kind: field-free
units: scaled-unity
params: {d_cm: 1.0e-10, e_statC: 1.0e300}
"""
    checks = {c.name: c for c in run_scenario(parse_scenario(doc)).checks}
    three_charge, potential = checks["field_free_three_charge"], checks["potential_at_electron"]
    assert three_charge.passed and three_charge.actual == 0.0
    assert not potential.passed and potential.actual == math.inf


def test_verify_csv_uses_check_table(verify_seed42):
    lines = render_csv(verify_seed42).split("\n")
    assert lines[0] == "name,expected,actual,tol,pass"


def test_cli_imports_without_numpy():
    # no command needs numpy, so importing the CLI loads none
    src = Path(abclab.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = "import sys, abclab.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_cli_verify_runs_without_numpy(tmp_path):
    # verify draws from the standard library's generator and rotates on
    # floats, so a whole `abclab verify` run leaves numpy unloaded; it parses
    # no document, so it leaves PyYAML and the scenario layer unloaded too
    src = Path(abclab.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    wrapper = (
        "import sys; from abclab import cli; code = cli.main(sys.argv[1:]); "
        "print('loaded:', *(name in sys.modules for name in ('numpy', 'yaml', 'abclab.scenario'))); sys.exit(code)"
    )
    args = ["verify", "--seed", "42", "--output", str(tmp_path / "verify.json")]
    out = subprocess.run([sys.executable, "-c", wrapper, *args], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "loaded: False False False"


def test_package_loads_the_scenario_layer_on_first_use():
    # `import abclab` imported PyYAML through abclab.scenario; the scenario
    # names now resolve on first access, to the scenario module's own objects
    src = Path(abclab.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = "import sys, abclab; print('yaml' in sys.modules, 'abclab.scenario' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False False"
    for name in ("Scenario", "SweepSpec", "OutputSpec", "parse_scenario", "load_scenario", "run_scenario"):
        assert getattr(abclab, name) is getattr(abclab.scenario, name)
    assert abclab.render_json is abclab.scenario.render_json
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        abclab.no_such_name


def test_cli_run_exit_codes(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = cli_main(["run", str(SCENARIO_DIR / "ab_solenoid_unit.yaml"), "--output", str(out)])
    assert code == 0
    assert out.exists()
    captured = capsys.readouterr()
    assert "PASS factor4_identity" in captured.out


def test_cli_report_that_cannot_be_written_exits_3(tmp_path, capsys):
    out = tmp_path / "missing" / "out.csv"
    assert cli_main(["run", str(SCENARIO_DIR / "ab_solenoid_unit.yaml"), "--output", str(out)]) == 3
    assert capsys.readouterr().err.startswith(f"error: could not write report to {str(out)!r}")
    assert not out.exists()


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


def test_cli_document_that_is_not_utf8_exits_2(tmp_path, capsys):
    # it ended in a UnicodeDecodeError traceback with exit 1; the offset
    # counts from the file's first byte, past a first read's 8 KiB
    bad = tmp_path / "latin1.yaml"
    text = AB_UNIT_DOC + "# " + "x" * 9000 + "\n"
    bad.write_bytes(text.encode() + b"# caf\xe9\n")
    offset = len(text.encode()) + 5
    message = f"scenario document is not UTF-8 at byte {offset}: invalid continuation byte"
    with pytest.raises(ScenarioParseError, match=f"^{message}$"):
        load_scenario(str(bad))
    assert cli_main(["run", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_verify_negative_seed_exits_2(capsys):
    # numpy's generator refused it with a ValueError traceback and exit 1
    assert cli_main(["verify", "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: --seed must be a non-negative integer, got -1\n"


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


def test_cli_bounce_step_just_over_the_float_spacing_runs_to_its_budget(tmp_path, monkeypatch, capsys):
    # |vx| * dt = 2e-15 cm moves x off the mirror (spacing 4.4e-16 cm there),
    # so the document is valid; its first leg needs about 7.5e14 steps
    monkeypatch.setattr(boyer, "MAX_STEPS", 500)
    path = tmp_path / "short_steps.yaml"
    path.write_text(BOUNCE_DOC.replace("dt_s: 0.00390625", "dt_s: 1.0e-15"))
    assert cli_main(["run", str(path)]) == 3
    assert "law: bounce leg 1 exceeded the run's budget of 500 RK4 steps" in capsys.readouterr().err


def test_cli_bounce_over_landing_budget_exits_3(tmp_path, monkeypatch, capsys):
    # a landing step that never moves never reaches the mirror
    step = boyer.step_trajectory

    def stuck(accel, dt, t, x, y, vx, vy, a1=None):
        if sys._getframe(1).f_code.co_name == "_locate_crossing":
            return t + dt, x, y, vx, vy
        return step(accel, dt, t, x, y, vx, vy, a1)

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


OVERFLOWING_BOUNCE_DOC = (SCENARIO_DIR / "ac_bounce.yaml").read_text().replace(
    "lambda_statC_per_cm: 0.05", "lambda_statC_per_cm: 1.0e100"
)
OVERFLOW_MESSAGE = (
    "naive-boyer law: the RK4 step of dt = 0.00390625 s from t = 0.0 s overflowed: state has non-finite "
    "components: TrajectoryState(t=0.00390625, x=-4.655929839174909e+190, y=-1.9686807810910624e+187, vx=nan, vy=nan)"
)


def test_cli_bounce_whose_step_overflows_exits_3(tmp_path, capsys):
    # the naive law's first step overflows: a numerical failure, not invalid input (it exited 2)
    path = tmp_path / "strong_line.yaml"
    path.write_text(OVERFLOWING_BOUNCE_DOC)
    assert cli_main(["run", str(path)]) == 3
    assert capsys.readouterr().err == f"error: {OVERFLOW_MESSAGE}\n"


@pytest.mark.parametrize(
    "changes, estimate",
    [
        # a finite per-winding phase, 1.3e301, on a circle 1e-5 cm from the line
        ((("lambda_statC_per_cm: 1.0", "lambda_statC_per_cm: 1.0e300"), ("center_x_cm: 0.0", "center_x_cm: 0.80001")), "nan"),
    ],
    ids=["strong-line"],
)
def test_cli_ac_phase_whose_integrand_overflows_exits_3_at_once(tmp_path, capsys, changes, estimate):
    # the integrand is not finite from the first estimate on, so no doubling
    # can converge; the refinement stops there, not at 524,288 points
    text = (SCENARIO_DIR / "ac_phase_circle.yaml").read_text()
    for old, new in changes:
        assert text.count(old) == 1
        text = text.replace(old, new)
    path = tmp_path / "overflowing_loop.yaml"
    path.write_text(text)
    start = time.perf_counter()
    assert cli_main(["run", str(path)]) == 3
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "error: periodic trapezoid refinement stopped on [-1.5707963267948966, 1.5707963267948966]: "
        f"the estimate at 8 points is {estimate}\n"
    )


@pytest.mark.parametrize("radius", ["1.0e160", "1.0e308"])
def test_cli_ac_phase_of_a_circle_whose_squares_overflow_passes(tmp_path, capsys, radius):
    # x*x + y*y overflows beyond about 1.3e154 cm; the loop phase is taken on
    # the circle scaled by a power of two, so it still reads 4*pi, not 0.0
    text = (SCENARIO_DIR / "ac_phase_circle.yaml").read_text()
    path = tmp_path / "huge_circle.yaml"
    path.write_text(text.replace("radius_cm: 0.8", f"radius_cm: {radius}"))
    assert cli_main(["run", str(path), "--format", "json"]) == 0
    first = json.loads(capsys.readouterr().out)["rows"][0]
    assert first["phase_rad"] == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert first["phase_rad"] == first["expected_rad"]


# circles and polylines around the line and beside it, each at least 0.1 cm
# from it at scale 1
_LOOP_SHAPES = {
    "circle around": ((0.3, -0.2), 1.0),
    "circle beside": ((1.5, 1.0), 0.75),
    "square around": [(-1.0, -0.5), (1.5, -0.5), (1.5, 1.0), (-1.0, 1.0), (-1.0, -0.5)],
    "triangle beside": [(0.5, 0.25), (2.0, 0.5), (1.0, 1.5), (0.5, 0.25)],
}


def _scaled_loop(shape, scale: float):
    """The shape scaled, as a loop and as its flow mapping in a document."""
    if isinstance(shape, tuple):
        (x, y), radius = shape
        x, y, radius = x * scale, y * scale, radius * scale
        text = f"{{kind: circle, center_x_cm: {x!r}, center_y_cm: {y!r}, z_cm: 0.0, radius_cm: {radius!r}}}"
        return boyer.CircleLoop(center=Vec3(x, y, 0.0), radius=radius), text
    vertices = [(x * scale, y * scale) for x, y in shape]
    text = "{kind: polyline, vertices_cm: [" + ", ".join(f"[{x!r}, {y!r}, 0.0]" for x, y in vertices) + "]}"
    return boyer.PolylineLoop(tuple(Vec3(x, y, 0.0) for x, y in vertices)), text


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(_LOOP_SHAPES)), st.integers(-900, 900), st.sampled_from(["scaled-unity", "gaussian-cgs"]))
def test_ac_phase_loop_value_passes_at_every_power_of_two_scale(shape, j, units):
    # the phase has degree 0 in length; before the loop was integrated scaled,
    # squares overflowed beyond about 1.3e154 cm and the phase read 0.0
    loop, text = _scaled_loop(_LOOP_SHAPES[shape], 2.0**j)
    doc = (f"kind: ac-phase\nunits: {units}\nparams:\n  line: {{lambda_statC_per_cm: 1.0}}\n"
           f"  mu_z_erg_per_G: 1.0\n  loop: {text}\n")
    scenario = parse_scenario(doc)
    if boyer.path_axis_clearance(loop) < boyer.AXIS_EPSILON:
        with pytest.raises(SingularityError):
            run_scenario(scenario)
    else:
        [check] = run_scenario(scenario).checks
        assert (check.name, check.passed) == ("ac_phase_loop_value", True)


def test_sweep_point_whose_bounce_overflows_is_an_error_row():
    doc = (SCENARIO_DIR / "ac_bounce.yaml").read_text() + (
        "sweep: {param: line.lambda_statC_per_cm, from: 0.05, to: 1.0e100, steps: 2, scale: log}\n"
    )
    report = run_scenario(parse_scenario(doc))
    assert report.rows[-1] == {"sweep_index": 1, "line.lambda_statC_per_cm": 1.0e100,
                               "error": f"NumericalError: {OVERFLOW_MESSAGE}"}
    assert not any("error" in row for row in report.rows[:-1])


def test_cli_verify_passes_on_seed_with_small_overlap_real_part(tmp_path):
    # numpy's stream drew at this seed an overlap whose real part is small,
    # which test_interferometry pins as a direct case; on the standard
    # library's stream the seed must still exit 0 with a clean overlap row
    path = tmp_path / "v.json"
    assert cli_main(["verify", "--seed", "1549879443", "--output", str(path)]) == 0
    rows = {c["name"]: c for c in json.loads(path.read_text())["checks"]}
    assert rows["overlap_closed_vs_quadrature"]["actual"] < 1e-13


def _naive_bounce(gains, lambda_c=1.0, mu_z=1.0, y0=0.5):
    # the fields of a naive-law BounceResult that bounce_checks reads
    return types.SimpleNamespace(
        law=boyer.NAIVE_LAW,
        line=boyer.LineCharge(lambda_c=lambda_c),
        neutron=types.SimpleNamespace(mu_z=mu_z),
        states=[boyer.TrajectoryState(t=0.0, x=3.0, y=y0, vx=-2.0, vy=0.0)],
        ke_gain_per_leg=gains,
        work_per_leg=[1.0] * len(gains),
    )


def test_worst_of_n_residuals_keep_nan():
    residual = verify.three_charge_residual([1e-20, math.nan, 0.0])
    assert math.isnan(residual)
    assert not verify.claim_row("field_free_three_charge", residual).passed
    # a leg whose kinetic energy gain is NaN fails energy growth, wherever it
    # sits, in either direction
    for lambda_c in (1.0, -1.0):
        growth, work = verify.bounce_checks(_naive_bounce([1.0, math.nan, -1.0], lambda_c=lambda_c))
        assert math.isnan(growth.actual) and not growth.passed
        assert math.isnan(work.actual) and not work.passed


@pytest.mark.parametrize(
    "mu_z, lambda_c, y0, expected",
    [
        (1.0, 1.0, 0.5, "increasing"),
        (1.0, -1.0, 0.5, "decreasing"),
        (-1.0, 1.0, 0.5, "decreasing"),
        (1.0, 1.0, -0.5, "decreasing"),
        (-1.0, -1.0, -0.5, "decreasing"),
        (0.0, 1.0, 0.5, "increasing"),
    ],
)
def test_energy_growth_is_judged_in_the_direction_of_mu_lambda_y0(mu_z, lambda_c, y0, expected):
    # the naive law's first-order work per leg has the sign of mu_z*lambda*y0;
    # a zero product keeps the "increasing" verdict
    steady = [0.5, 0.25, 0.75] if expected == "increasing" else [-0.5, -0.25, -0.75]
    for scale in (1.0, 1e-200):  # signs are multiplied: a product that underflows keeps its direction
        factors = (lambda_c * scale, mu_z * scale, y0 * scale)
        growth, _ = verify.bounce_checks(_naive_bounce(steady, *factors))
        assert (growth.expected, growth.actual, growth.passed) == (expected, steady[1], True)
        # the leg that most contradicts the direction is reported
        growth, _ = verify.bounce_checks(_naive_bounce([-g for g in steady], *factors))
        assert (growth.expected, growth.actual, growth.passed) == (expected, -steady[2], False)
        # a zero gain contradicts either direction
        assert not verify.bounce_checks(_naive_bounce([*steady, 0.0], *factors))[0].passed


@pytest.mark.parametrize("name", ["ac_bounce_mirrored_start", "ac_bounce_negative_line"])
def test_mirrored_bounce_loses_energy_steadily_and_passes(tmp_path, name, capsys):
    # ac_bounce.yaml with y0 or lambda negated: the naive law loses kinetic
    # energy on every leg, and energy_grows_naive_law used to FAIL it (exit 1)
    # on a hard-coded "increasing"; the golden rows predate that fix, since
    # no row depends on a verdict
    doc = DATA_DIR / f"{name}.yaml"
    out = tmp_path / "out.csv"
    assert cli_main(["run", str(doc), "--output", str(out)]) == 0
    assert out.read_bytes() == (DATA_DIR / f"golden_{name}.csv").read_bytes()
    report = run_scenario(load_scenario(str(doc)))
    growth = next(c for c in report.checks if c.name == "energy_grows_naive_law")
    gains = [row["leg_ke_gain_erg"] for row in report.rows if row["law"] == boyer.NAIVE_LAW]
    assert len(gains) == 10 and all(g < 0.0 for g in gains)
    assert growth.expected == "decreasing" and growth.actual == max(gains) and growth.passed


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
