"""Outside-in tracer: wraps public abclab functions from the benchmark's side.

Each wrapper is set on the module attribute through which its caller looks
the name up (``boyer.refine_gauss_legendre``, not ``quadrature.``), only while
``installed()`` is active; the originals are put back on exit.  Layer
boundaries become spans with name, start, end, parent and unit id.  Hot leaf
calls (RK4 steps, quadrature panels, field evaluations) are not spans: they
add a call count and busy time to their parent span instead.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from abclab import boyer, fieldfree, interferometry, quadrature, scenario, solenoid, verify

# step_trajectory's callers inside boyer, by function name; a renamed or new
# caller is counted as "other".
STEP_CALLERS = {
    "simulate_bounce_experiment": "advance",
    "_work_over_substep": "work_mid",
    "_locate_crossing": "locate",
}
STEP_KINDS = ("advance", "work_mid", "locate", "other")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, unit, name, start, end)
        # (parent span, leaf name) -> [calls, busy s, busy s of outermost leaf calls]
        self.leaves: dict[tuple, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[tuple, int] = defaultdict(int)  # (span, name) -> count
        self._stack: list[int] = []
        self._next_id = 0
        self._leaf_depth = 0
        self._unit = None
        self._check = None  # the open verify.check span, closed by the next CheckRow
        self._saved: list[tuple] = []

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> tuple[int, float]:
        sid = self._next_id
        self._next_id += 1
        self._stack.append(sid)
        return sid, perf_counter()

    def close(self, sid: int, start: float, name: str) -> None:
        end = perf_counter()
        if self._stack.pop() != sid:
            raise RuntimeError(f"span {name} closed out of order")
        parent = self._stack[-1] if self._stack else None
        self.spans.append((sid, parent, self._unit, name, start, end))

    def count(self, name: str, n: int, span: int | None = None) -> None:
        if span is None:
            span = self._stack[-1] if self._stack else None
        self.counters[(span, name)] += n

    @contextmanager
    def unit(self, index: int):
        """Root span of one traced unit."""
        self._unit = index
        sid, start = self.open("unit")
        try:
            yield
        finally:
            self.close(sid, start, "unit")
            self._unit = None

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            sid, start = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid, start, name)
            if after is not None:
                after(sid, args, result)
            return result

        return wrapper

    def _leaf_call(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        outermost = self._leaf_depth == 0
        self._leaf_depth += 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            busy = perf_counter() - start
            self._leaf_depth -= 1
            acc = self.leaves[(parent, name)]
            acc[0] += 1
            acc[1] += busy
            if outermost:
                acc[2] += busy

    def _leaf(self, name, fn):
        def wrapper(*args, **kwargs):
            return self._leaf_call(name, fn, args, kwargs)

        return wrapper

    def _wrappers(self) -> list[tuple]:
        """(module, attribute, wrapper) for every patched name."""
        leaf_call = self._leaf_call

        def step(*args, **kwargs):
            kind = STEP_CALLERS.get(sys._getframe(1).f_code.co_name, "other")
            return leaf_call("boyer.step." + kind, boyer_step, args, kwargs)

        def gl_composite(*args, **kwargs):
            self.count("quadrature.gl_panels", args[3] if len(args) > 3 else kwargs["n_panels"])
            return leaf_call("quadrature.gl_composite", composite, args, kwargs)

        def simpson(name, original):
            def wrapper(f, *args, **kwargs):
                evals = 0

                def counted(x):
                    nonlocal evals
                    evals += 1
                    return f(x)

                try:
                    return leaf_call(name, original, (counted, *args), kwargs)
                finally:
                    self.count("quadrature.simpson_evals", evals)

            return wrapper

        real_check_row = verify.CheckRow

        def check_row(*args, **kwargs):
            row = real_check_row(*args, **kwargs)
            if self._check is not None:
                # A check ends when it builds its row; the next one starts there.
                self.close(*self._check, "verify.check." + row.name)
                self._check = self.open("verify.check")
            return row

        def suite(*args, **kwargs):
            sid, start = self.open("verify.suite")
            self._check = self.open("verify.check")
            try:
                return run_suite(*args, **kwargs)
            finally:
                # Drop the span opened after the last check's row.
                self._stack.pop()
                self._check = None
                self.close(sid, start, "verify.suite")

        def after_run(sid, args, report):
            sweep = args[0].sweep
            self.count("scenario.points", sweep.steps if sweep is not None else 1, sid)

        def after_render(sid, args, text):
            self.count("scenario.render_bytes", len(text.encode()), sid)

        def after_bounce(sid, args, result):
            self.count("boyer.samples", len(result.samples) - 1, sid)

        boyer_step = boyer.step_trajectory
        composite = quadrature.composite_gauss_legendre
        run_suite = verify.run_verify_suite
        return [
            (scenario, "parse_scenario", self._span("scenario.parse", scenario.parse_scenario)),
            (scenario, "run_scenario", self._span("scenario.run", scenario.run_scenario, after_run)),
            (scenario, "render_csv", self._span("scenario.render", scenario.render_csv, after_render)),
            (scenario, "render_json", self._span("scenario.render", scenario.render_json, after_render)),
            (verify, "run_verify_suite", suite),
            (verify, "CheckRow", check_row),
            (boyer, "simulate_bounce_experiment",
             self._span("boyer.bounce", boyer.simulate_bounce_experiment, after_bounce)),
            (boyer, "step_trajectory", step),
            (boyer, "ac_phase", self._span("boyer.ac_phase", boyer.ac_phase)),
            (boyer, "refine_gauss_legendre", self._leaf("quadrature.gl_refine", boyer.refine_gauss_legendre)),
            (quadrature, "composite_gauss_legendre", gl_composite),
            (interferometry, "overlap_by_quadrature",
             self._span("interferometry.overlap_quadrature", interferometry.overlap_by_quadrature)),
            (interferometry, "adaptive_simpson",
             simpson("quadrature.simpson.interferometry", interferometry.adaptive_simpson)),
            (solenoid, "adaptive_simpson", simpson("quadrature.simpson.solenoid", solenoid.adaptive_simpson)),
            (fieldfree, "field_at", self._leaf("fieldfree.field_at", fieldfree.field_at)),
        ]

    @contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block, then restore."""
        if self._saved:
            raise RuntimeError("tracer wrappers are already installed")
        patches = self._wrappers()
        self._saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
        try:
            for module, attr, wrapper in patches:
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in self._saved:
                setattr(module, attr, original)
            self._saved = []

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time covered by child spans and leaf calls."""
        covered: dict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        for (parent, _), (_, _, outer) in self.leaves.items():
            covered[parent] += outer
        return {sid: end - start - covered[sid] for sid, _, _, _, start, end in self.spans}

    def write(self, path) -> None:
        """Write spans, leaf aggregates and counters as JSON lines."""
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as out:
            for sid, parent, unit, name, start, end in self.spans:
                row = {"id": sid, "parent": parent, "unit": unit, "name": name,
                       "start": start, "end": end, "self_s": own[sid]}
                out.write(json.dumps(row) + "\n")
            for (parent, name), (calls, busy, _) in sorted(self.leaves.items(), key=str):
                out.write(json.dumps({"parent": parent, "leaf": name, "calls": calls, "busy_s": busy}) + "\n")
            for (span, name), value in sorted(self.counters.items(), key=str):
                out.write(json.dumps({"span": span, "counter": name, "value": value}) + "\n")

    def layer_metrics(self, units: int, check_names) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as means per traced unit, except the step ratio."""
        own = self.self_times()
        span_s: dict[str, float] = defaultdict(float)
        span_self: dict[str, float] = defaultdict(float)
        span_calls: dict[str, int] = defaultdict(int)
        names = {}
        for sid, _, _, name, start, end in self.spans:
            names[sid] = name
            span_s[name] += end - start
            span_self[name] += own[sid]
            span_calls[name] += 1
        leaf_calls: dict[str, int] = defaultdict(int)
        leaf_s: dict[str, float] = defaultdict(float)
        steps_in_bounce = 0
        for (parent, name), (calls, busy, _) in self.leaves.items():
            leaf_calls[name] += calls
            leaf_s[name] += busy
            if name.startswith("boyer.step.") and names.get(parent) == "boyer.bounce":
                steps_in_bounce += calls
        counts: dict[str, int] = defaultdict(int)
        for (_, name), value in self.counters.items():
            counts[name] += value

        n = max(units, 1)
        simpson = ("quadrature.simpson.interferometry", "quadrature.simpson.solenoid")
        step_names = ["boyer.step." + kind for kind in STEP_KINDS]
        out = {
            "scenario.parse_s": (span_s["scenario.parse"] / n, "s"),
            "scenario.parse_calls": (span_calls["scenario.parse"] / n, "count"),
            "scenario.run_self_s": (span_self["scenario.run"] / n, "s"),
            "scenario.points": (counts["scenario.points"] / n, "count"),
            "scenario.render_s": (span_s["scenario.render"] / n, "s"),
            "scenario.render_bytes": (counts["scenario.render_bytes"] / n, "bytes"),
            "boyer.bounce_s": (span_s["boyer.bounce"] / n, "s"),
            "boyer.bounce_self_s": (span_self["boyer.bounce"] / n, "s"),
            "boyer.step_s": (sum(leaf_s[s] for s in step_names) / n, "s"),
            "boyer.step_calls": (sum(leaf_calls[s] for s in step_names) / n, "count"),
        }
        for kind in STEP_KINDS:
            out["boyer.step_calls." + kind] = (leaf_calls["boyer.step." + kind] / n, "count")
        samples = counts["boyer.samples"]
        out.update({
            "boyer.samples": (samples / n, "count"),
            "boyer.step_calls_per_sample": (steps_in_bounce / samples if samples else 0.0, "ratio"),
            "boyer.ac_phase_s": (span_s["boyer.ac_phase"] / n, "s"),
            "boyer.ac_phase_calls": (span_calls["boyer.ac_phase"] / n, "count"),
            "quadrature.gl_refine_calls": (leaf_calls["quadrature.gl_refine"] / n, "count"),
            "quadrature.gl_panels": (counts["quadrature.gl_panels"] / n, "count"),
            "quadrature.gl_s": (leaf_s["quadrature.gl_refine"] / n, "s"),
            "quadrature.simpson_calls": (sum(leaf_calls[s] for s in simpson) / n, "count"),
            "quadrature.simpson_evals": (counts["quadrature.simpson_evals"] / n, "count"),
            "quadrature.simpson_s": (sum(leaf_s[s] for s in simpson) / n, "s"),
            "interferometry.overlap_quadrature_s": (span_s["interferometry.overlap_quadrature"] / n, "s"),
            "interferometry.overlap_quadrature_calls": (span_calls["interferometry.overlap_quadrature"] / n, "count"),
            "solenoid.kick_quadrature_s": (leaf_s["quadrature.simpson.solenoid"] / n, "s"),
            "solenoid.kick_quadrature_calls": (leaf_calls["quadrature.simpson.solenoid"] / n, "count"),
            "fieldfree.field_at_calls": (leaf_calls["fieldfree.field_at"] / n, "count"),
            "fieldfree.field_at_s": (leaf_s["fieldfree.field_at"] / n, "s"),
        })
        for check in check_names:
            out[f"verify.check.{check}_s"] = (span_s["verify.check." + check] / n, "s")
        return out
