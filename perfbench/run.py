"""abclab benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload for S seconds as a single closed-loop client in one
process and one thread, checks every unit's output, and prints the metrics
by name and unit.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  A unit fails when it
raises or its output differs from the benchmark's own expectations, or when
its report carries a FAIL check that is not a known defect
(workloads.known_defect); correct means no unit failed.  --trace 0 reports the
end-to-end metrics; --trace 1 runs each unit untraced and then traced and
reports the per-layer metrics.  METRICS.md describes every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
if not __package__:  # run as a script: make the perfbench package importable
    sys.path.insert(0, str(ROOT))

from perfbench.calibrate import REFERENCE_S, HostSpeed, kernel_seconds  # noqa: E402

SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 15
IMPORT_PROBE = "import time; t = time.perf_counter(); import abclab.cli; print(time.perf_counter() - t)"
WORK_NAMES = {"verify-catalogue": "checks", "bounce-cavity": "bounce legs", "scenario-sweeps": "sweep points"}


def _load_program() -> None:
    """Put this checkout's src/ first on the path; exit non-zero when abclab is not there."""
    package = SRC / "abclab"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no abclab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import abclab

    if Path(abclab.__file__).resolve().parent != package:
        sys.exit(f"perfbench: imported abclab from {abclab.__file__}, not from {package}")


def _fresh_interpreter(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=120
    )


def setup_seconds() -> tuple[float, float]:
    """Median time of `import abclab.cli` in a fresh interpreter, scaled to
    the reference host speed by kernel runs just before and after each
    import, and the raw median wall time."""
    _fresh_interpreter("-c", IMPORT_PROBE)  # compile the bytecode cache once
    kernels = [kernel_seconds()]
    walls = []
    for _ in range(SETUP_REPEATS):
        walls.append(float(_fresh_interpreter("-c", IMPORT_PROBE).stdout))
        kernels.append(kernel_seconds())
    scaled = [wall * 2.0 * REFERENCE_S / (k0 + k1) for wall, k0, k1 in zip(walls, kernels, kernels[1:])]
    return statistics.median(scaled), statistics.median(walls)


def import_split() -> dict[str, float]:
    """Medians of `python -X importtime` cumulative times: numpy, yaml, and
    the rest of `import abclab.cli`."""
    samples = defaultdict(list)
    for _ in range(SETUP_REPEATS):
        cumulative = {}
        for line in _fresh_interpreter("-X", "importtime", "-c", "import abclab.cli").stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                cumulative.setdefault(fields[2].strip(), int(fields[1]) * 1e-6)
        numpy, yaml = cumulative.get("numpy", 0.0), cumulative.get("yaml", 0.0)
        samples["setup.numpy_import_s"].append(numpy)
        samples["setup.yaml_import_s"].append(yaml)
        samples["setup.abclab_import_s"].append(cumulative["abclab.cli"] - numpy - yaml)
    return {name: statistics.median(values) for name, values in samples.items()}


def tail(values: list[float], ceiling: int) -> tuple[float, int]:
    """Nearest-rank value at the highest whole percentile, up to `ceiling`,
    with at least ten units beyond it, or the median when that percentile is
    not above 50; returns (value, percentile)."""
    n = len(values)
    pct = min(ceiling, math.floor(100 * (n - 10) / n))
    if pct <= 50:
        return statistics.median(values), 50
    return sorted(values)[math.ceil(pct * n / 100) - 1], pct


class Run:
    """Closed loop over whole blocks of one workload's units, so that every
    run sees complete cost ladders."""

    def __init__(self, workload: str, seed: int, tracer=None):
        from perfbench import workloads

        self.workloads = workloads
        self.workload = workload
        self.tracer = tracer
        self.speed = HostSpeed()
        self.units: list[tuple[int, int, float, float]] = []  # (block, work, start, end), untraced
        self.traced_times: list[float] = []
        self.failures: list[str] = []
        self.known: dict[str, int] = defaultdict(int)  # known-defect FAIL check -> units
        self.results = 0  # report checks, for pass_share
        self.wrong = 0
        self.first_block = hashlib.sha256()
        self.all_units = hashlib.sha256()
        self._blocks = workloads.blocks(workload, seed)
        self.blocks_done = 0

    @property
    def times(self) -> list[float]:
        return [end - start for _, _, start, end in self.units]

    def run_block(self) -> None:
        for unit in next(self._blocks):
            self._one(unit)
        self.blocks_done += 1

    def run_for(self, seconds: float) -> None:
        """Whole blocks until `seconds` have passed, at least one.  Untraced
        runs sample the host speed meanwhile."""
        deadline = perf_counter() + seconds
        if self.tracer is not None:
            self._loop(deadline)
            return
        with self.speed:
            self._loop(deadline)

    def _loop(self, deadline: float) -> None:
        self.run_block()
        while perf_counter() < deadline:
            self.run_block()

    def _timed(self, unit):
        start = perf_counter()
        try:
            report, texts = self.workloads.execute(unit)
        except Exception as exc:  # a unit that raises is a failed unit; keep measuring
            return start, perf_counter(), None, [], f"raised {type(exc).__name__}: {exc}"
        return start, perf_counter(), report, texts, None

    def _one(self, unit) -> None:
        index = len(self.units)
        start, end, report, texts, error = self._timed(unit)
        if self.tracer is not None:
            with self.tracer.installed(), self.tracer.unit(index):
                traced_start, traced_end, _, traced_texts, traced_error = self._timed(unit)
            self.traced_times.append(traced_end - traced_start)
            if error is None and (traced_error or traced_texts != texts):
                error = traced_error or "traced run rendered different bytes"
        known = []
        if error is None:
            error, known = self.workloads.check(unit, report, texts)
        for name in known:
            self.known[name] += 1
        results, wrong = self.workloads.graded(unit, report, error)
        self.results += results
        self.wrong += wrong
        work = 0 if report is None else self.workloads.work_done(unit, report)
        if error is not None:
            self.failures.append(f"unit {index} ({unit.family}): {error}")
        self.units.append((self.blocks_done, work, start, end))
        for text in texts:
            encoded = text.encode() + b"\0"
            self.all_units.update(encoded)
            if self.blocks_done == 0:
                self.first_block.update(encoded)

    def known_line(self) -> str:
        known = ", ".join(f"{name} in {n}" for name, n in sorted(self.known.items())) or "none"
        return f"known-defect FAIL checks: {known}; units failed: {len(self.failures)}"

    def digest_line(self) -> str:
        first = sum(1 for block, *_ in self.units if block == 0)
        return (
            f"digest {self.workload}: first block ({first} units) {self.first_block.hexdigest()[:16]}, "
            f"all {len(self.units)} units {self.all_units.hexdigest()[:16]}"
        )


def end_to_end(run: Run, setup: tuple[float, float]) -> tuple[dict, list[str]]:
    """End-to-end metrics; timings in seconds at the reference host speed."""
    times = [run.speed.scaled(start, end) for _, _, start, end in run.units]
    attempted = len(times)
    unit_tail, pct = tail(times, run.workloads.TAIL_PERCENTILE[run.workload])
    work = sum(work for _, work, _, _ in run.units)
    metrics = {
        "setup_s": (setup[0], "s"),
        "unit_p50_s": (statistics.median(times), "s"),
        "unit_tail_s": (unit_tail, "s"),
        "work_per_s": (work / sum(times), "1/s"),
        "pass_share": (1.0 - run.wrong / run.results, "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} fresh `import abclab.cli`; raw wall {setup[1]:.4g} s",
        "unit_p50_s": f"median of {attempted} units; raw wall {statistics.median(run.times):.4g} s",
        "unit_tail_s": f"p{pct}, {attempted - math.ceil(pct * attempted / 100)} units beyond",
        "work_per_s": f"{work} {WORK_NAMES[run.workload]} in {run.blocks_done} blocks",
        "pass_share": f"{run.results - run.wrong} of {run.results} report checks right; {run.known_line()}",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    lines = [f"{name} {value!r} {unit}  ({notes[name]})" for name, (value, unit) in metrics.items()]
    lines.append(f"host speed {run.speed.speed():.3f} of reference ({len(run.speed.kernels)} kernel samples)")
    return metrics, lines


def per_layer(run: Run, split: dict[str, float]) -> dict:
    metrics = {name: (value, "s") for name, value in split.items()}
    metrics.update(run.tracer.layer_metrics(len(run.traced_times), run.workloads.VERIFY_CHECKS))
    overhead = statistics.median(run.traced_times) / statistics.median(run.times) - 1.0
    metrics["trace.overhead_share"] = (overhead, "share")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORK_NAMES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _load_program()
    # Sweeps must take the default sequential path.
    os.environ.pop("ABCLAB_MAX_WORKERS", None)
    # Keep the run, its calibration and its child interpreters on one vCPU:
    # the vCPUs of the reference host change speed independently.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    from perfbench.tracer import Tracer

    if args.trace:
        split = import_split()
        run = Run(args.workload, args.seed, Tracer())
        run.run_for(args.seconds)
        metrics = per_layer(run, split)
        OUT.mkdir(exist_ok=True)
        run.tracer.write(OUT / f"spans-{args.workload}.jsonl")
        lines = [f"{name} {value!r} {unit}" for name, (value, unit) in metrics.items()]
        lines.append(run.known_line())
    else:
        setup = setup_seconds()
        run = Run(args.workload, args.seed)
        run.run_for(args.seconds)
        metrics, lines = end_to_end(run, setup)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("\n".join(lines))
    print(run.digest_line())
    for failure in run.failures[:5]:
        print(failure, file=sys.stderr)
    result = {
        "correct": not run.failures,
        "attempted": len(run.units),
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
