"""Tests of the benchmark itself: generators, tracer and runner.

Run with `python3 -m pytest perfbench/tests -q` from the repository root.
"""

import dataclasses
import itertools
import random
import shutil
import subprocess
import sys

import pytest
import yaml

from abclab import scenario
from perfbench import workloads
from perfbench.calibrate import REFERENCE_S, HostSpeed
from perfbench.run import ROOT, Run, tail
from perfbench.tracer import Tracer

COUNTERS = (
    "boyer.step_calls.advance",
    "boyer.step_calls.work_mid",
    "boyer.step_calls.locate",
    "boyer.step_calls.other",
    "boyer.samples",
    "quadrature.simpson_evals",
    "quadrature.gl_panels",
    "scenario.points",
    "scenario.render_bytes",
)


def _first_blocks(workload, seed, n=2):
    return list(itertools.islice(workloads.blocks(workload, seed), n))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_documents(workload):
    assert _first_blocks(workload, 7) == _first_blocks(workload, 7)
    assert _first_blocks(workload, 7) != _first_blocks(workload, 8)


@pytest.mark.parametrize("workload", [workloads.BOUNCE, workloads.SWEEPS])
def test_every_generated_document_parses(workload):
    for block in _first_blocks(workload, 3, n=5):
        for unit in block:
            parsed = scenario.parse_scenario(unit.doc)
            if workload == workloads.SWEEPS:
                assert parsed.sweep.steps == unit.spec["steps"]


def test_sweeps_include_circles_that_do_not_enclose_the_line():
    windings = {
        workloads._winding(unit.spec["params"])
        for block in _first_blocks(workloads.SWEEPS, 3, n=4)
        for unit in block
        if unit.family == "ac-phase-circle"
    }
    assert windings == {0, 1}


def test_bounce_blocks_cover_the_ladder():
    blocks = _first_blocks(workloads.BOUNCE, 11, n=len(workloads.BOUNCE_COUNTS))
    steps = sorted(u.spec["steps_per_leg"] for u in blocks[0])
    for block in blocks:
        assert sorted(u.spec["n_bounces"] for u in block) == sorted(workloads.BOUNCE_COUNTS)
        assert sorted(u.spec["steps_per_leg"] for u in block) == steps
        for unit in block:
            params = yaml.safe_load(unit.doc)["params"]
            gap = abs(params["mirrors"]["b_cm"] - params["mirrors"]["a_cm"])
            # dt does not follow |vx|: the steps per leg grow as 1/|vx|.
            legs = gap / (abs(params["start"]["vx_cm_per_s"]) * params["dt_s"])
            assert legs == pytest.approx(unit.spec["steps_per_leg"])
    lo, hi = workloads.VX_BAND
    assert steps[0] == pytest.approx(workloads.STEPS_AT_V / hi)
    assert steps[-1] == pytest.approx(workloads.STEPS_AT_V / lo)
    # The coupling ladder reaches down into the ill-conditioned regime.
    couplings = [u.spec["coupling"] for block in blocks for u in block]
    assert min(couplings) < 1e-11 and max(couplings) > 3e-3
    assert all(workloads.COUPLING_BAND[0] <= c <= workloads.COUPLING_BAND[1] for c in couplings)


def test_wrappers_are_restored():
    tracer = Tracer()
    patched = [(module, attr, getattr(module, attr)) for module, attr, _ in tracer._wrappers()]
    with pytest.raises(ZeroDivisionError):
        with tracer.installed():
            assert all(getattr(module, attr) is not original for module, attr, original in patched)
            1 / 0
    assert all(getattr(module, attr) is original for module, attr, original in patched)
    run = Run(workloads.SWEEPS, 5, Tracer())
    run.run_block()
    assert all(getattr(module, attr) is original for module, attr, original in patched)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_runs_match_untraced_and_repeat_counters(workload):
    untraced = Run(workload, 21)
    untraced.run_block()
    traced = []
    for _ in range(2):
        run = Run(workload, 21, Tracer())
        run.run_block()
        # Known-defect FAILs repeat; a traced unit that renders other bytes
        # than its untraced run would add a failure.
        assert run.failures == untraced.failures == []
        assert run.known == untraced.known
        assert run.all_units.hexdigest() == untraced.all_units.hexdigest()
        traced.append(run.tracer.layer_metrics(len(run.traced_times), workloads.VERIFY_CHECKS))
    for name in COUNTERS:
        assert traced[0][name] == traced[1][name], name
    if workload != workloads.SWEEPS:
        assert traced[0]["boyer.samples"][0] > 0


def test_shipped_bounce_scenario_step_split():
    # Two RK4 calls per accepted step (advance and Simpson midpoint), plus the
    # mirror-event bisection: the split the step_calls metrics report.
    tracer = Tracer()
    text = (ROOT / "scenarios" / "ac_bounce.yaml").read_text()
    with tracer.installed(), tracer.unit(0):
        scenario.run_scenario(scenario.parse_scenario(text))
    metrics = tracer.layer_metrics(1, ())
    advance = metrics["boyer.step_calls.advance"][0]
    assert advance == metrics["boyer.step_calls.work_mid"][0] == metrics["boyer.samples"][0]
    assert metrics["boyer.step_calls.locate"][0] > 0
    assert metrics["boyer.step_calls.other"][0] == 0


def test_pass_share_counts_report_checks():
    unit = next(u for u in _first_blocks(workloads.BOUNCE, 4, n=1)[0])
    report, texts = workloads.execute(unit)
    failed = sum(not c.passed for c in report.checks)
    assert workloads.graded(unit, report, None) == (3, failed)
    assert workloads.graded(unit, report, "FAIL checks ['work_integral_match']") == (3, failed)
    assert workloads.graded(unit, report, "full-law bounce 1 at t = 0") == (3, 3)
    # A unit that raised loses the checks its report would have carried.
    assert workloads.graded(workloads.Unit("verify", seed=1), None, "raised NumericalError") == (29, 29)
    for unit in _first_blocks(workloads.SWEEPS, 4, n=4)[3]:
        report, _ = workloads.execute(unit)
        assert workloads.graded(unit, None, "raised") == (len(report.checks),) * 2


def test_known_defects_count_against_pass_share_only_inside_their_envelope():
    # The ROADMAP item 4 case: a coupling near 1e-12 FAILs work_integral_match.
    unit = workloads._bounce_unit(random.Random(2), 1.0, 1e-12, 1)
    report, texts = workloads.execute(unit)
    assert workloads.check(unit, report, texts) == (None, ["work_integral_match"])
    assert workloads.graded(unit, report, None) == (3, 1)
    # At a coupling of 1e-12 the naive-law velocity updates can all round
    # away, so a leg gains no kinetic energy at all.
    zero_gain = next(workloads.blocks(workloads.BOUNCE, 4242))[1]
    expected = (None, ["energy_grows_naive_law", "work_integral_match"])
    assert workloads.check(zero_gain, *workloads.execute(zero_gain)) == expected
    # The same FAIL at a coupling where the check is well conditioned fails the unit.
    strong = dataclasses.replace(unit, spec=dict(unit.spec, coupling=1e-3))
    assert workloads.check(strong, report, texts) == ("FAIL checks ['work_integral_match']", [])
    row = next(c for c in report.checks if c.name == "work_integral_match")
    verify_unit = workloads.Unit("verify", seed=1)
    overlap = dataclasses.replace(row, name="overlap_closed_vs_quadrature", actual=6.5e-8)
    assert workloads.known_defect(verify_unit, overlap)
    assert not workloads.known_defect(verify_unit, dataclasses.replace(overlap, actual=1e-3))
    assert not workloads.known_defect(verify_unit, dataclasses.replace(overlap, name="factor4_identity"))


def test_tail_keeps_ten_units_beyond():
    values = [float(i) for i in range(100)]
    assert tail(values, 99) == (89.0, 90)
    assert tail(values[:12], 99) == (5.5, 50)
    assert tail(values, 75) == (74.0, 75)


def test_host_speed_scaling():
    speed = HostSpeed()
    speed.starts = [0.0, 1.0, 2.0, 3.0]
    speed.kernels = [REFERENCE_S, 2 * REFERENCE_S, 2 * REFERENCE_S, REFERENCE_S]
    # Kernel runs inside the interval are not unit time; a host at half speed
    # halves the rest.
    assert speed.scaled(0.5, 2.5) == pytest.approx((2.0 - 4 * REFERENCE_S) * 4 / 6)
    assert speed.scaled(3.2, 3.4) == pytest.approx(0.2)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workloads.SWEEPS, "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
