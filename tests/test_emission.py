"""The report emitters against the encoders they must reproduce: render_json
against ``json.dumps(indent=2)``, render_csv against a renderer that formats
each cell in Python, as the emitter once did."""

import csv
import io
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from abclab import render_csv, render_json
from abclab.verify import CheckRow, RunReport

_AWKWARD_TEXT = st.sampled_from(["", "é", "日本", "\x00\x1f\x7f", 'a "quoted", cell', "two\nlines", "cr\r\nlf", " ", "},\n    {", "\\"])
_TEXT = st.text(max_size=8) | _AWKWARD_TEXT
_FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308])
_INTS = st.integers() | st.sampled_from([2**64, -(2**100), 10**40])
_SCALARS = st.none() | st.booleans() | _INTS | _FLOATS | _TEXT
_KEYS = _TEXT | st.integers(-5, 5) | _FLOATS | st.booleans() | st.none()
_FLAT_MAPPINGS = st.lists(st.dictionaries(_KEYS, _SCALARS, min_size=1, max_size=4), min_size=1, max_size=4)


def _containers(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(_KEYS, children, max_size=4)
        | _FLAT_MAPPINGS
    )


_VALUES = st.recursive(_SCALARS, _containers, max_leaves=12)
_CELLS = st.none() | _INTS | _FLOATS | _TEXT
_COLUMNS = st.sampled_from(["sweep_index", "x_cm", "loop", "phase_rad", "error"])
_ROWS = st.lists(st.dictionaries(_COLUMNS, _CELLS, max_size=5), max_size=5)
_CHECKS = st.lists(
    st.builds(CheckRow, name=_TEXT, expected=_CELLS, actual=_CELLS, tol=_FLOATS, passed=st.booleans()), max_size=4
)


@settings(max_examples=100, deadline=None)
@given(_VALUES, _FLAT_MAPPINGS | st.just([]), _CHECKS)
def test_render_json_is_json_dumps_with_indent_2(scenario, rows, checks):
    report = RunReport(scenario=scenario, rows=rows, checks=checks)
    assert render_json(report) == json.dumps(report.to_dict(), indent=2) + "\n"


def _reference_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _reference_csv(report: RunReport) -> str:
    table = report.rows or [check.to_dict() for check in report.checks]
    columns = list(dict.fromkeys(key for row in table for key in row))
    if "error" in columns:
        columns.remove("error")
        columns.append("error")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in table:
        writer.writerow([_reference_cell(row.get(column)) for column in columns])
    return buffer.getvalue()


@settings(max_examples=100, deadline=None)
@given(_ROWS, _CHECKS)
def test_render_csv_formats_each_cell_as_the_reference_does(rows, checks):
    # rows hold no bools (no point runner writes one); the checks' pass does
    report = RunReport(scenario={}, rows=rows, checks=checks)
    assert render_csv(report) == _reference_csv(report)


def test_render_csv_quotes_a_single_empty_field():
    for cell in (None, ""):
        report = RunReport(scenario={}, rows=[{"error": cell}], checks=[])
        assert render_csv(report) == _reference_csv(report) == 'error\n""\n'
