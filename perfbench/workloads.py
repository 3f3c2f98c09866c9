"""Seeded inputs, unit execution and output checks for the three workloads.

A unit is one closed-loop request: the next one starts only after the
previous one has returned.  Units come in blocks, and every block of a
workload covers the same ladder of cost classes, so two seeds produce the same
mix of cheap and expensive units and the medians of two runs are comparable.
Within a class the physical inputs are drawn freely across decades.
"""

from __future__ import annotations

import copy
import csv
import io
import itertools
import json
import math
import random
from dataclasses import dataclass, field

import yaml

from abclab import scenario, verify
from abclab.units import GAUSSIAN_CGS, SCALED_UNITY, make_constants

VERIFY = "verify-catalogue"
BOUNCE = "bounce-cavity"
SWEEPS = "scenario-sweeps"
WORKLOADS = (VERIFY, BOUNCE, SWEEPS)

# Stable check names of the verify report, in report order.
VERIFY_CHECKS = (
    "cross_antisymmetry",
    "cross_orthogonality",
    "constants_deterministic",
    "detector_probability_sum",
    "detector_phase_periodicity",
    "overlap_identity_is_one",
    "overlap_magnitude_bound",
    "overlap_closed_vs_quadrature",
    "overlap_monotone_in_shift",
    "overlap_monotone_in_kick",
    "factor4_identity",
    "velocity_kick_quadrature",
    "emf_flux_profile_shape",
    "displacement_orbit_invariance",
    "flux_phase_linearity",
    "flux_chain_consistency",
    "visibility_pipeline_monotone",
    "boyer_force_equals_momentum_rate",
    "full_law_no_classical_lag",
    "rk4_order4_convergence",
    "energy_grows_naive_law",
    "work_integral_match",
    "energy_conserved_full_law",
    "ac_phase_loop_deformation",
    "ac_phase_linearity",
    "field_free_three_charge",
    "potential_at_electron",
    "coulomb_field_rigid_covariance",
    "newtons_third_law",
)

# One bounce-cavity block: nine units with these bounce counts.  Each unit has
# a length scale L and a speed scale V, drawn across decades up to the
# ill-conditioned case of ROADMAP item 4 (the shipped ac_bounce.yaml with
# lengths and speeds times 1e5).  dt makes a leg of one gap at speed V take
# STEPS_AT_V steps, as in ac_bounce.yaml (gap 1.5 cm, vx = -2 cm/s,
# dt = 2**-8 s).  |vx| / V takes nine log-spaced rungs across VX_BAND, so a
# unit's cost grows as 1/|vx|: the band is vx = -8 to -0.25 on ac_bounce.yaml,
# where 4 bounces take about 0.09 s and 2.0 s on the reference host (see
# calibrate.py).  |vx| is bounded away from 0 because a bounce has no step
# budget (ROADMAP item 4).  With the bounce counts a
# block holds units of about 260 to 12,400 RK4 calls in six cost groups.  The
# median falls inside the 2,300-2,700 group and the tail (TAIL_PERCENTILE)
# inside the 12,200-12,400 group, not between two.
BOUNCE_COUNTS = (2, 3, 1, 3, 2, 1, 3, 2, 1)
LENGTH_BAND = (1e-2, 1e5)  # cm
SPEED_BAND = (1e-2, 1e5)  # cm/s
STEPS_AT_V = 192
VX_BAND = (0.125, 4.0)  # |vx| / V

# The dimensionless coupling lambda*mu/(c m L |vx|) is stratified
# log-uniformly over this band too.  ac_bounce.yaml sits near 0.017, and the
# ROADMAP item 4 case near 1.7e-12, where work_integral_match compares a
# kinetic-energy difference at roundoff and FAILs.  Units below about 3e-10
# FAIL that check, units between 3e-10 and 3e-8 FAIL it or not depending on
# their roundoff; both count against pass_share.
COUPLING_BAND = (1e-12, 5e-2)

UNIT_SYSTEMS = (SCALED_UNITY, GAUSSIAN_CGS)

# Ladder offsets follow golden- and silver-ratio sequences over the block
# index, not the seed: any run, however many blocks it completes, covers each
# range evenly, so runs with different seeds see the same mix of sweep sizes
# and of ill-conditioned bounce units.
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SILVER = math.sqrt(2.0) - 1.0

# Highest tail percentile reported per workload: the one that still leaves
# ten units beyond it when the host runs at half speed (verify-catalogue
# completes about ten units, bounce-cavity 54-120, scenario-sweeps 500-1,200).
# A fixed percentile keeps the tail comparable between fast and slow runs.
# On verify-catalogue no percentile above the median leaves ten units, so its
# tail is its median.
TAIL_PERCENTILE = {VERIFY: 50, BOUNCE: 83, SWEEPS: 95}


@dataclass(frozen=True)
class Unit:
    """One generated request.  ``spec`` holds the generated values that the
    output checks recompute their expectations from."""

    family: str
    seed: int = 0
    doc: str = ""
    spec: dict = field(default_factory=dict)


def blocks(workload: str, seed: int):
    """Endless iterator of unit blocks; the same (workload, seed) gives the same units."""
    make = {VERIFY: _verify_block, BOUNCE: _bounce_block, SWEEPS: _sweep_block}[workload]
    rng = random.Random(f"{workload}/{seed}")
    for index in itertools.count():
        yield make(rng, index)


def execute(unit: Unit):
    """Run one unit through the public API; returns the report and the rendered texts.

    Every call goes through a module attribute so that the tracer's wrappers
    see it.
    """
    if unit.family == "verify":
        report = verify.run_verify_suite(unit.seed)
        return report, [scenario.render_json(report)]
    report = scenario.run_scenario(scenario.parse_scenario(unit.doc))
    texts = [scenario.render_csv(report)]
    if unit.family != "bounce":
        texts.append(scenario.render_json(report))
    return report, texts


def work_done(unit: Unit, report) -> int:
    """Checks (verify), bounce legs over both laws, or sweep points in a
    report, whether its checks pass or not."""
    if unit.family == "verify":
        return len(report.checks)
    if unit.family == "bounce":
        return len(report.rows)
    return unit.spec["steps"]


# Checks in the report of a unit of each family; a sweep's are merged over its
# points.  ac-phase circles carry one more when they have a second radius,
# which is also when they render two rows a point.
REPORT_CHECKS = {"verify": len(VERIFY_CHECKS), "bounce": 3, "mzi": 1, "ab-solenoid": 2, "field-free": 3,
                 "ac-phase-polyline": 1}


def graded(unit: Unit, report, error: str | None) -> tuple[int, int]:
    """(results, wrong results) of one unit for pass_share.  The results are
    the checks of its report, and its FAIL checks, known defects or not, are
    wrong.  Any other fault (it raised, an error row, output that differs from
    the benchmark's expectations) makes all of them wrong."""
    if report is None:
        n = REPORT_CHECKS.get(unit.family) or unit.spec["rows_per_point"]
        return n, n
    n = len(report.checks)
    if error is None or error.startswith("FAIL"):
        return n, sum(not c.passed for c in report.checks)
    return n, n


def check(unit: Unit, report, texts: list[str]) -> tuple[str | None, list[str]]:
    """Return (why the unit failed or None, the known-defect FAIL checks of
    its report).  The benchmark's own expectations come first.  A FAIL check
    outside the known defects fails the unit and reads "FAIL checks [...]"."""
    problem = _compare(unit, report, texts)
    if problem is not None:
        return problem, []
    failed = [c for c in report.checks if not c.passed]
    unknown = [c.name for c in failed if not known_defect(unit, c)]
    if unknown:
        return f"FAIL checks {unknown}", []
    return None, [c.name for c in failed]


# Known defects of the program's own checks (METRICS.md, Known failures).  Each
# FAILs a check whose tolerance does not fit the numbers it compares, while
# the outputs meet the benchmark's own expectations.  A FAIL verdict counts
# against pass_share, and fails the unit only outside the envelope below.
OVERLAP_ENVELOPE = 1e-6  # overlap_closed_vs_quadrature asks 1e-8 of a quadrature run to abs_tol 1e-10
ILL_CONDITIONED_COUPLING = 1e-6  # work_integral_match FAILs by roundoff below about 3e-8
# Both compare kinetic-energy gains, which vanish into roundoff at tiny couplings.
KINETIC_ENERGY_GAIN_CHECKS = ("work_integral_match", "energy_grows_naive_law")
CIRCLE_ZERO_PHASE_CHECKS = ("ac_phase_loop_value", "ac_phase_radius_independent")


def known_defect(unit: Unit, row) -> bool:
    """Whether a FAIL check row is one of the known defects, inside its envelope."""
    if unit.family == "verify":
        return row.name == "overlap_closed_vs_quadrature" and row.actual < OVERLAP_ENVELOPE
    if unit.family == "bounce":
        return row.name in KINETIC_ENERGY_GAIN_CHECKS and unit.spec["coupling"] < ILL_CONDITIONED_COUPLING
    if unit.family == "ac-phase-circle":
        # A circle that does not enclose the line: its phase of 0 is checked
        # against an absolute 1e-10, and radius independence as a relative
        # difference of two roundoff values.  _check_sweep bounds the phase.
        return row.name in CIRCLE_ZERO_PHASE_CHECKS and _winding(unit.spec["params"]) == 0
    return False


def _compare(unit: Unit, report, texts: list[str]) -> str | None:
    errors = [r["error"] for r in report.rows if r.get("error")]
    if errors:
        return f"error rows {errors[:3]}"
    if unit.family == "verify":
        names = tuple(c["name"] for c in json.loads(texts[0])["checks"])
        return None if names == VERIFY_CHECKS else f"verify checks differ: {names}"
    rows = list(csv.DictReader(io.StringIO(texts[0])))
    if unit.family == "bounce":
        return _check_bounce(unit.spec, rows)
    if len(json.loads(texts[1])["rows"]) != len(rows):
        return "CSV and JSON row counts differ"
    return _check_sweep(unit.spec, rows)


# ---------------------------------------------------------------------------
# generators


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _doc(kind: str, units: str, params: dict, sweep: dict | None = None) -> str:
    doc = {"kind": kind, "units": units, "params": params}
    if sweep is not None:
        doc["sweep"] = sweep
    return yaml.safe_dump(doc, sort_keys=False)


def _verify_block(rng: random.Random, index: int) -> list[Unit]:
    return [Unit("verify", seed=rng.randrange(2**31))]


def _bounce_block(rng: random.Random, index: int) -> list[Unit]:
    n = len(BOUNCE_COUNTS)
    # Slot i has the i-th of nine log-spaced |vx| rungs and the i-th
    # bounce count, so every block has the same step counts and a run's
    # percentiles do not depend on how many blocks it completes.  The coupling
    # ladder has its own offset per block and turns by one slot a block, so
    # nine blocks pair every |vx| rung with every coupling stratum.
    coupling_offset = index * SILVER % 1.0
    units = [
        _bounce_unit(
            rng,
            _ladder(VX_BAND, i / (n - 1)),
            _ladder(COUPLING_BAND, ((i + index) % n + coupling_offset) / n),
            n_bounces,
        )
        for i, n_bounces in enumerate(BOUNCE_COUNTS)
    ]
    rng.shuffle(units)
    return units


def _ladder(band: tuple[float, float], u: float) -> float:
    lo, hi = band
    return lo * (hi / lo) ** u


def _bounce_unit(rng: random.Random, vx_ratio: float, coupling: float, n_bounces: int) -> Unit:
    units = rng.choice(UNIT_SYSTEMS)
    length = _log_uniform(rng, *LENGTH_BAND)
    speed_scale = _log_uniform(rng, *SPEED_BAND)
    speed = vx_ratio * speed_scale
    mass = _log_uniform(rng, 0.1, 10.0)
    mu = _log_uniform(rng, 0.1, 10.0)
    lam = coupling * make_constants(units).c * mass * length * speed / mu
    near = length * rng.uniform(1.0, 2.0)
    gap = length * rng.uniform(0.5, 2.0)
    x0 = near + gap * rng.uniform(0.2, 0.8)
    vx = speed if rng.random() < 0.5 else -speed
    mirrors = [near, near + gap]
    rng.shuffle(mirrors)
    params = {
        "line": {"lambda_statC_per_cm": lam},
        "neutron": {"mass_g": mass, "mu_z_erg_per_G": mu},
        "start": {"x_cm": x0, "y_cm": length * rng.uniform(0.25, 1.0), "vx_cm_per_s": vx},
        "mirrors": {"a_cm": mirrors[0], "b_cm": mirrors[1]},
        "n_bounces": n_bounces,
        "dt_s": gap / (speed_scale * STEPS_AT_V),
        "law": "both",
    }
    spec = {
        "mass": mass, "x0": x0, "vx": vx, "lo": near, "hi": near + gap, "n_bounces": n_bounces,
        "coupling": coupling, "steps_per_leg": STEPS_AT_V / vx_ratio,
    }
    return Unit("bounce", doc=_doc("ac-bounce", units, params), spec=spec)


def _sweep(rng: random.Random, param: str, lo: float, hi: float, steps: int, log_ok: bool = True) -> dict:
    scale = "log" if log_ok and rng.random() < 0.5 else "linear"
    start, stop = (lo, hi) if rng.random() < 0.5 else (hi, lo)
    return {"param": param, "from": start, "to": stop, "steps": steps, "scale": scale}


def _mzi(rng: random.Random, steps: int, index: int):
    vis = rng.uniform(0.0, 1.0)
    if rng.random() < 0.5:
        params = {"phase_rad": rng.uniform(-10.0, 10.0), "visibility": vis}
        if rng.random() < 0.5:
            sweep = _sweep(rng, "phase_rad", rng.uniform(-10.0, 0.0), rng.uniform(0.0, 10.0), steps, False)
        else:
            sweep = _sweep(rng, "visibility", rng.uniform(0.01, 0.5), rng.uniform(0.5, 1.0), steps)
    else:
        wavelength = _log_uniform(rng, 1e-6, 1e2)
        params = {
            "path_shift": {"delta_l_cm": rng.uniform(-3.0, 3.0) * wavelength, "wavelength_cm": wavelength},
            "visibility": vis,
        }
        if rng.random() < 0.5:
            sweep = _sweep(
                rng, "path_shift.delta_l_cm", -3.0 * wavelength, 3.0 * wavelength * rng.random(), steps, False
            )
        else:
            sweep = _sweep(rng, "path_shift.wavelength_cm", wavelength / 10.0, wavelength * 10.0, steps)
    return "mzi", params, sweep, 1


def _ab_solenoid(rng: random.Random, steps: int, index: int):
    r = _log_uniform(rng, 1e-2, 1.0)
    big_r = r * _log_uniform(rng, 1.5, 100.0)
    params = {
        "solenoid": {
            "r_cm": r,
            "L_cm": r * _log_uniform(rng, 10.0, 1000.0),
            "M_g": _log_uniform(rng, 1e-3, 1e3),
            "Q_statC": _log_uniform(rng, 1e-3, 1e3),
            "v_cm_per_s": _log_uniform(rng, 1e-3, 1e3),
        },
        "orbit": {"R_cm": big_r, "u_cm_per_s": _log_uniform(rng, 1e-3, 1e3)},
        "visibility": rng.uniform(0.0, 1.0),
    }
    param = rng.choice(
        ["solenoid.v_cm_per_s", "solenoid.Q_statC", "solenoid.M_g", "solenoid.L_cm", "orbit.u_cm_per_s", "orbit.R_cm"]
    )
    if param == "orbit.R_cm":
        sweep = _sweep(rng, param, r * 1.5, r * 100.0, steps)
    else:
        group, key = param.split(".")
        value = params[group][key]
        sweep = _sweep(rng, param, value / 10.0, value * 10.0, steps)
    return "ab-solenoid", params, sweep, 1


def _field_free(rng: random.Random, steps: int, index: int):
    params = {"d_cm": _log_uniform(rng, 1e-3, 1e3), "e_statC": _log_uniform(rng, 1e-3, 1e3)}
    key = rng.choice(["d_cm", "e_statC"])
    sweep = _sweep(rng, key, params[key] / 100.0, params[key] * 100.0, steps)
    return "field-free", params, sweep, 3


def _ac_phase_common(rng: random.Random) -> dict:
    return {
        "line": {"lambda_statC_per_cm": _log_uniform(rng, 1e-3, 1e3)},
        "mu_z_erg_per_G": _log_uniform(rng, 1e-3, 1e3),
    }


def _ac_phase_circle(rng: random.Random, steps: int, index: int):
    # Radii stay within [scale, 3 scale] and the centre within half a scale of
    # the line, so the circle encloses it, or, in every other pair of blocks,
    # 3.5-4 scales away, so it does not and the loop phase is 0.  Either way
    # the clearance is at least half a scale.
    scale = _log_uniform(rng, 1e-2, 1e2)
    offset = scale * (rng.uniform(0.0, 0.5) if index // 2 % 2 == 0 else rng.uniform(3.5, 4.0))
    angle = rng.uniform(0.0, 2.0 * math.pi)
    params = _ac_phase_common(rng)
    params["loop"] = {
        "kind": "circle",
        "center_x_cm": offset * math.cos(angle),
        "center_y_cm": offset * math.sin(angle),
        "z_cm": rng.uniform(-1.0, 1.0) * scale,
        "radius_cm": scale * rng.uniform(1.0, 2.0),
    }
    rows = 1
    if index % 2:
        params["second_radius_cm"] = scale * rng.uniform(1.0, 3.0)
        rows = 2
    param = rng.choice(
        ["line.lambda_statC_per_cm", "mu_z_erg_per_G", "loop.radius_cm"]
        + (["second_radius_cm"] if rows == 2 else [])
    )
    if param in ("loop.radius_cm", "second_radius_cm"):
        sweep = _sweep(rng, param, scale, scale * 3.0, steps)
    else:
        value = params["line"]["lambda_statC_per_cm"] if param.startswith("line") else params["mu_z_erg_per_G"]
        sweep = _sweep(rng, param, value / 10.0, value * 10.0, steps)
    return "ac-phase", params, sweep, rows


def _ac_phase_polyline(rng: random.Random, steps: int, index: int):
    # A star-shaped polygon around the line, counter-clockwise or clockwise.
    n = 4 + index % 5
    scale = _log_uniform(rng, 1e-2, 1e2)
    z = rng.uniform(-1.0, 1.0) * scale
    vertices = []
    for i in range(n):
        angle = 2.0 * math.pi * (i + rng.uniform(-0.15, 0.15)) / n
        radius = scale * rng.uniform(0.7, 1.5)
        vertices.append([radius * math.cos(angle), radius * math.sin(angle), z])
    if rng.random() < 0.5:
        vertices.reverse()
    vertices.append(list(vertices[0]))
    params = _ac_phase_common(rng)
    params["loop"] = {"kind": "polyline", "vertices_cm": vertices}
    if rng.random() < 0.5:
        value = params["line"]["lambda_statC_per_cm"]
        sweep = _sweep(rng, "line.lambda_statC_per_cm", value / 10.0, value * 10.0, steps)
    else:
        value = params["mu_z_erg_per_G"]
        sweep = _sweep(rng, "mu_z_erg_per_G", value / 10.0, value * 10.0, steps)
    return "ac-phase", params, sweep, 1


# family -> (document generator, most points in one sweep).  The caps keep the costliest
# family (loop-phase quadrature) from dominating a block.
SWEEP_FAMILIES = {
    "mzi": (_mzi, 300),
    "ab-solenoid": (_ab_solenoid, 300),
    "field-free": (_field_free, 300),
    "ac-phase-circle": (_ac_phase_circle, 60),
    "ac-phase-polyline": (_ac_phase_polyline, 30),
}
SMALL_SWEEP = 12  # a block has one sweep of 2..12 points and one of 12..cap per family


def _sweep_block(rng: random.Random, index: int) -> list[Unit]:
    units = []
    for k, (family, (build, cap)) in enumerate(SWEEP_FAMILIES.items()):
        for half, (lo, hi) in enumerate(((2, SMALL_SWEEP), (SMALL_SWEEP, cap))):
            # Polygon sizes and second radii also follow the block index.
            u = (index * GOLDEN + k / len(SWEEP_FAMILIES) + half / 2) % 1.0
            steps = round(lo * (hi / lo) ** u)
            kind, params, sweep, rows = build(rng, steps, index)
            system = rng.choice(UNIT_SYSTEMS)
            spec = {"params": params, "sweep": sweep, "units": system, "steps": steps, "rows_per_point": rows}
            units.append(Unit(family, doc=_doc(kind, system, params, sweep), spec=spec))
    rng.shuffle(units)
    return units


# ---------------------------------------------------------------------------
# output checks: expectations recomputed from the generated inputs


def _close(actual: str, expected: float, rel: float, floor: float = 0.0) -> bool:
    return abs(float(actual) - expected) <= max(rel * abs(expected), floor)


def _check_bounce(spec: dict, rows: list[dict]) -> str | None:
    nb = spec["n_bounces"]
    if [r["law"] for r in rows] != ["full"] * nb + ["naive-boyer"] * nb:
        return f"expected {nb} bounce rows per law, got {[r['law'] for r in rows]}"
    # Under the corrected law the velocity never changes, so the bounce times
    # and the kinetic energy follow from the start state alone.
    speed = abs(spec["vx"])
    gap = spec["hi"] - spec["lo"]
    first = (spec["hi"] - spec["x0"]) if spec["vx"] > 0 else (spec["x0"] - spec["lo"])
    ke = 0.5 * spec["mass"] * speed * speed
    for i, row in enumerate(rows[:nb]):
        t = (first + i * gap) / speed
        if not _close(row["t_s"], t, 1e-8):
            return f"full-law bounce {i + 1} at t = {row['t_s']}, expected {t!r}"
        if not _close(row["kinetic_energy_erg"], ke, 1e-9):
            return f"full-law kinetic energy {row['kinetic_energy_erg']}, expected {ke!r}"
    return None


def _sweep_values(sweep: dict) -> list[float]:
    start, stop, n = sweep["from"], sweep["to"], sweep["steps"]
    if sweep["scale"] == "log":
        return [start * (stop / start) ** (i / (n - 1)) for i in range(n)]
    return [start + (stop - start) * i / (n - 1) for i in range(n)]


def _with_value(params: dict, path: str, value: float) -> dict:
    out = copy.deepcopy(params)
    node = out
    *parents, last = path.split(".")
    for key in parents:
        node = node[key]
    node[last] = value
    return out


def _expect_mzi(p: dict) -> dict:
    if "path_shift" in p:
        phase = 2.0 * math.pi * p["path_shift"]["delta_l_cm"] / p["path_shift"]["wavelength_cm"]
    else:
        phase = p["phase_rad"]
    c = p["visibility"] * math.cos(phase)
    return {"phase_rad": (phase, 1e-12, 1e-300), "p_a": (0.5 * (1.0 + c), 0.0, 1e-12), "p_b": (0.5 * (1.0 - c), 0.0, 1e-12)}


def _expect_ab(p: dict, k) -> dict:
    s = p["solenoid"]
    phase = 4.0 * math.pi * k.e * s["Q_statC"] * s["v_cm_per_s"] * s["r_cm"] / (k.c**2 * s["L_cm"] * k.hbar)
    c = p["visibility"] * math.cos(phase)
    floor = 1e-12 * max(1.0, abs(phase))
    return {
        "phase_ab_rad": (phase, 1e-12, 1e-300),
        "phase_local_rad": (phase, 1e-10, 1e-300),
        "p_a": (0.5 * (1.0 + c), 0.0, floor),
    }


def _expect_field_free(p: dict) -> list[dict]:
    d, e = p["d_cm"], p["e_statC"]
    return [
        {"q_statC": (-e, 1e-15, 0.0), "x_cm": (0.0, 0.0, 0.0), "potential_statV": (8.0 * e / d, 1e-13, 0.0)},
        {"q_statC": (4.0 * e, 1e-15, 0.0), "x_cm": (d, 1e-15, 0.0)},
        {"q_statC": (4.0 * e, 1e-15, 0.0), "x_cm": (-d, 1e-15, 0.0)},
    ]


def _winding(p: dict) -> int:
    loop = p["loop"]
    if loop["kind"] == "circle":
        return int(math.hypot(loop["center_x_cm"], loop["center_y_cm"]) < loop["radius_cm"])
    turn = 0.0
    for a, b in zip(loop["vertices_cm"], loop["vertices_cm"][1:]):
        delta = math.atan2(b[1], b[0]) - math.atan2(a[1], a[0])
        turn += (delta + math.pi) % (2.0 * math.pi) - math.pi
    return round(turn / (2.0 * math.pi))


def _expect_ac_phase(p: dict, k) -> dict:
    w = _winding(p)
    enclosed = 4.0 * math.pi * p["mu_z_erg_per_G"] * p["line"]["lambda_statC_per_cm"] / (k.hbar * k.c)
    return {
        "winding": (w, 0.0, 0.0),
        "phase_rad": (w * enclosed, 0.0, 1e-9 * enclosed),
        "expected_rad": (w * enclosed, 1e-12, 0.0),
    }


def _check_sweep(spec: dict, rows: list[dict]) -> str | None:
    sweep, per_point = spec["sweep"], spec["rows_per_point"]
    if len(rows) != sweep["steps"] * per_point:
        return f"expected {sweep['steps'] * per_point} rows, got {len(rows)}"
    k = make_constants(spec["units"])
    for i, value in enumerate(_sweep_values(sweep)):
        point = rows[i * per_point : (i + 1) * per_point]
        if any(int(r["sweep_index"]) != i for r in point):
            return f"sweep_index out of order at point {i}"
        if not _close(point[0][sweep["param"]], value, 1e-12):
            return f"point {i}: swept value {point[0][sweep['param']]}, expected {value!r}"
        params = _with_value(spec["params"], sweep["param"], value)
        if "loop" in params:
            wanted = [_expect_ac_phase(params, k)] * per_point
        elif "d_cm" in params:
            wanted = _expect_field_free(params)
        elif "solenoid" in params:
            wanted = [_expect_ab(params, k)]
        else:
            wanted = [_expect_mzi(params)]
        for row, columns in zip(point, wanted):
            for column, (expected, rel, floor) in columns.items():
                if not _close(row[column], expected, rel, floor):
                    return f"point {i}: {column} = {row[column]}, expected {expected!r}"
    return None
