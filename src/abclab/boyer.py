"""Current-loop magnetic moment near a charged line: forces, hidden momentum,
mirror-bounce dynamics, and the moment-around-charge phase.

Geometry: the charged line is the z axis, the moment mu_z points along it,
and the moment moves in the x-y plane, the planar setup in which the
Aharonov-Casher phase is topological.  A trajectory state is (t, x, y, vx,
vy) and a moment is the one float mu_z; the field has no z component and no
z dependence, so a loop's z coordinates drop out.  A moving current loop
acquires an electric dipole d = (v x mu)/c and therefore feels the gradient
force (d . grad)E in the line's field.  The loop also carries a hidden
mechanical momentum p_h = (mu x E)/c, and in this geometry the force equals
the convective rate (v . grad)p_h at every point.  Two laws of motion are
offered:

* ``full``: m dv/dt = F - (v . grad)p_h, the corrected law.  The right side
  cancels identically, so the kinetic velocity never changes and a bouncing
  moment conserves its energy.
* ``naive-boyer``: m dv/dt = F alone.  Because the induced dipole flips with
  the velocity, the force keeps feeding energy to a moment bouncing between
  two mirrors, which is exactly the perpetual-motion absurdity the corrected
  law removes.

The phase accumulated by a moment carried around the line is computed as the
loop integral of the hidden momentum, (1/hbar) contour_integral p_h . dl.
That integral form is this artifact's definition (the underlying claim is
only that the local field at the moment is responsible for the phase); it
evaluates to 4*pi*mu*lambda/(hbar*c) per winding and is path independent at
fixed winding number.

Everything runs on plain floats.  ``_acceleration`` computes the axis check,
the field Jacobian (three distinct entries), the induced-dipole force F and
the convective rate (v . grad)p_h in one function body, and the full law
subtracts the two terms; ``_rk4`` steps (x, y, vx, vy) with it, and
``_hidden_momentum`` gives (px, py) to the loop integrands and the bounce
samples.  These are the only implementations of the two force terms and of
p_h: the catalogue row ``boyer_force_equals_momentum_rate`` reads F and
F - (v . grad)p_h from ``_acceleration`` itself, at unit inverse mass.

Contract: each body is the Vec3 formulation with mu = (0, 0, mu_z) and
position and velocity in the x-y plane, less the terms that vanish in this
geometry, with every other operation in its order (sums left to right, x
before y, reciprocals 1/c and 1/m multiplied).  So every step, loop phase
and report is bit-identical to that formulation, which
``tests/test_boyer.py`` keeps as the reference.  A
dropped term is a signed zero, so a force term, acceleration or integrand
value that is itself zero may differ from the reference in its sign only.  A
step shows that only when it starts from a velocity component of -0.0; a
loop phase never does, since its quadrature sums start from 0.0.

A TrajectoryState is a validated tuple of five floats: building one checks
that every component is finite and then costs one tuple allocation.
``step_trajectory`` validates its input, unpacks the state, hands the floats
to ``_rk4`` and builds the next state from the four it returns.  The verify
flights (``verify._full_law_speed`` and ``verify._naive_endpoint``) call
``_rk4`` directly.  The bounce loop still calls ``step_trajectory`` from its
three functions, whose calls the benchmark's tracer counts by caller name.

The bounce loop evaluates each state's acceleration once.  That one
evaluation is stage 1 of the advance step, of the Simpson-midpoint half-step
and of every mirror-landing iterate (``step_trajectory(..., accel=...)``),
and its power m a.v ends one work panel and starts the next; only a reflected
state, whose velocity changed, is evaluated afresh.  A stage-1 acceleration
handed in is the very tuple the step would compute, so sharing it changes no
bit of any step or report (``tests/test_boyer.py`` checks both laws).

A step that lands on or beyond a mirror ends the leg.  ``_locate_crossing``
then solves x(h) = plane for the substep length h by Newton's method with
slope vx(h), from the straight-line guess and inside the bracket [0, dt],
bisecting whenever an iterate leaves it.  The hit is within two float
spacings of the plane, a bound that holds at any distance of the cavity from
the origin; it usually takes one to three RK4 steps, and at most
MAX_LANDING_STEPS.  The loop keeps only the TrajectoryState tuple of each
step and each reflection: ``BounceResult.samples`` builds the BounceSample
tuples from them when it is read.

The loop phase integrates each segment on a map about its point nearest the
line (``_loop_integrands``), which spreads the segment's 1/clearance peak over
a width of order one in the map's variable.  A circle takes the periodic
Moebius map tan(phi/2) = alpha tan(h), alpha = min(1, sqrt(clearance/R)),
phi its angle from the nearest point, and a polyline side the sinh map
t = tau + d sinh(u) about its foot, d its clearance over its length.  Each
integrand closes over floats and returns p_h . tangent, so no Vec3 is built
per quadrature node, and forms its points as small offsets from an anchor
next to the line.  A circle's periodic integrand gets the periodic trapezoid
rule from 8 points, a polyline side's composite Gauss-Legendre from 1 panel
(``_loop_rule``), to one absolute floor for every segment (``ac_phase``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Union

from .errors import DomainError, NumericalError, SingularityError, ValidationError
from .quadrature import refine_gauss_legendre, refine_periodic_trapezoid
from .units import PhysicalConstants, Vec3

FULL_LAW = "full"
NAIVE_LAW = "naive-boyer"
LAWS = (FULL_LAW, NAIVE_LAW)

# Positions closer than this to the line axis are treated as singular (cm).
AXIS_EPSILON = 1e-9
_AXIS_EPSILON2 = AXIS_EPSILON * AXIS_EPSILON

# A circle that passes closer to the line than this fraction of its radius is
# singular too.  Its loop phase takes about 80/sqrt(clearance/R) trapezoid
# points on the map of ``_loop_integrands``: 2,097,152 at 1e-8 R outside the
# line, all 4,194,304 of the refinement's budget at 3e-9 R, and more than that
# at 1e-9 R.
CIRCLE_AXIS_RATIO = 1e-8

# A bounce run that needs more RK4 advance steps than this, counted over all
# its legs, raises NumericalError (the steps that land on a mirror do not
# count).  A run's cost grows as n_bounces/|vx|.
MAX_STEPS = 1_000_000

# A mirror landing that needs more RK4 steps than this raises NumericalError.
# Newton takes one to three; bisection alone resolves the substep to the float
# spacing of x within about 54 halvings.
MAX_LANDING_STEPS = 64

# Relative tolerance of each segment integral in ac_phase.
AC_PHASE_REL_TOL = 1e-10


def _check_law(law: str):
    if law not in LAWS:
        raise ValidationError(f"unknown law {law!r}; expected one of {LAWS}")


@dataclass(frozen=True, slots=True)
class LineCharge:
    """Infinite straight line of charge along the z axis, density lambda_c
    (statC/cm).  Positions closer than AXIS_EPSILON to it are singular."""

    lambda_c: float

    def __post_init__(self):
        if not math.isfinite(self.lambda_c):
            raise ValidationError(f"lambda_c must be finite, got {self.lambda_c!r}")


@dataclass(frozen=True, slots=True)
class NeutronModel:
    """Current-loop model of the neutron: mass (g) and magnetic moment mu_z
    (erg/G) along the line axis."""

    mass: float
    mu_z: float

    def __post_init__(self):
        if not (math.isfinite(self.mass) and self.mass > 0.0):
            raise ValidationError(f"mass must be positive, got {self.mass!r}")
        if not math.isfinite(self.mu_z):
            raise ValidationError(f"mu_z must be finite, got {self.mu_z!r}")


class _StateFields(NamedTuple):
    t: float
    x: float
    y: float
    vx: float
    vy: float


class TrajectoryState(_StateFields):
    """Integrator state: time t (s), position (x, y) (cm), kinetic velocity
    (vx, vy) (cm/s).

    A validated tuple: every way of building one (the constructor, ``_make``,
    ``_replace``, copy and pickle) rejects a non-finite component, and
    building one costs a single tuple allocation.  It equals a plain tuple of
    the same floats, and it iterates, unpacks, hashes and orders like one."""

    __slots__ = ()

    def __new__(cls, t: float, x: float, y: float, vx: float, vy: float):
        state = tuple.__new__(cls, (t, x, y, vx, vy))
        isfinite = math.isfinite
        if not (isfinite(t) and isfinite(x) and isfinite(y) and isfinite(vx) and isfinite(vy)):
            raise ValidationError(f"state has non-finite components: {state!r}")
        return state

    @classmethod
    def _make(cls, iterable) -> TrajectoryState:
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self)


@dataclass(frozen=True, slots=True)
class BounceConfig:
    """Mirror planes perpendicular to the x flight axis at mirror_a and
    mirror_b (cm), number of reflections to simulate, RK4 step dt (s),
    and the law of motion."""

    mirror_a: float
    mirror_b: float
    n_bounces: int
    dt: float
    law: str = FULL_LAW

    def __post_init__(self):
        if self.mirror_a == self.mirror_b:
            raise ValidationError("mirror planes must be distinct")
        if self.n_bounces < 1:
            raise ValidationError(f"n_bounces must be >= 1, got {self.n_bounces!r}")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValidationError(f"dt must be positive, got {self.dt!r}")
        _check_law(self.law)

    def check_start(self, x: float):
        """Reject a start position x (cm) outside the mirror planes."""
        lo, hi = sorted((self.mirror_a, self.mirror_b))
        if not (lo <= x <= hi):
            raise ValidationError(f"initial position x = {x!r} lies outside the mirrors [{lo!r}, {hi!r}]")


def _axis_error(x: float, y: float) -> SingularityError:
    return SingularityError(f"position ({x!r}, {y!r}) lies within {AXIS_EPSILON:g} cm of the charged line")


def _check_axis(x: float, y: float) -> float:
    # rho^2 of (x, y), rejected inside the axis neighbourhood
    rho2 = x * x + y * y
    if rho2 < _AXIS_EPSILON2:
        raise _axis_error(x, y)
    return rho2


def _hidden_momentum(lc: LineCharge, mu_z: float, inv_c: float, x: float, y: float) -> tuple[float, float]:
    # (mu x E)/c.  One body, no helper calls: this is the loop-phase hot path.
    rho2 = x * x + y * y  # _check_axis, inlined
    if rho2 < _AXIS_EPSILON2:
        raise _axis_error(x, y)
    s = 2.0 * lc.lambda_c / rho2
    return (0.0 - mu_z * (s * y)) * inv_c, mu_z * (s * x) * inv_c


def _acceleration(
    lc: LineCharge,
    mu_z: float,
    inv_c: float,
    inv_m: float,
    naive: bool,
    x: float,
    y: float,
    vx: float,
    vy: float,
):
    """Acceleration (F - (v . grad)p_h)/m under the full law, F/m under the
    naive law.  One body, no helper calls: this is the RK4 hot path (see the
    module docstring for its bit-identity contract)."""
    x2 = x * x
    y2 = y * y
    rho2 = x2 + y2  # _check_axis, inlined
    if rho2 < _AXIS_EPSILON2:
        raise _axis_error(x, y)
    # Jacobian entries: exx = dEx/dx, exy = dEx/dy = dEy/dx, eyy = dEy/dy.
    pref = 2.0 * lc.lambda_c / (rho2 * rho2)
    exx = pref * (y2 - x2)
    exy = pref * (-2.0 * (x * y))
    eyy = pref * (x2 - y2)
    # F = (d . grad)E with d = (v x mu)/c.
    dx = vy * mu_z * inv_c
    dy = (0.0 - vx * mu_z) * inv_c
    fx = exx * dx + exy * dy
    fy = exy * dx + eyy * dy
    if naive:
        return fx * inv_m, fy * inv_m
    # (v . grad)[(mu x E)/c] = mu x [(v . grad)E] / c.
    ex = exx * vx + exy * vy
    ey = exy * vx + eyy * vy
    qx = (0.0 - mu_z * ey) * inv_c
    qy = mu_z * ex * inv_c
    # The full law subtracts the two independently formed terms; it never
    # short-circuits to zero, since their cancellation is the claim under test.
    return (fx - qx) * inv_m, (fy - qy) * inv_m


def line_field(lc: LineCharge, pos: Vec3) -> Vec3:
    """Electric field 2*lambda_c/rho radially outward from the line (statV/cm)."""
    s = 2.0 * lc.lambda_c / _check_axis(pos.x, pos.y)
    return Vec3(s * pos.x, s * pos.y, 0.0)


def _rk4(
    lc: LineCharge,
    mu_z: float,
    inv_c: float,
    inv_m: float,
    naive: bool,
    dt: float,
    x0: float,
    y0: float,
    vx0: float,
    vy0: float,
    accel: tuple[float, float] | None = None,
) -> tuple[float, float, float, float]:
    """One RK4 step of the state (x, y, vx, vy) on plain floats; the
    arguments before ``dt`` are _acceleration's.  ``accel`` is the stage-1
    acceleration when the caller holds it.  Raises SingularityError when a
    stage or the landing point is inside the axis neighbourhood."""
    half = 0.5 * dt
    if accel is None:
        accel = _acceleration(lc, mu_z, inv_c, inv_m, naive, x0, y0, vx0, vy0)
    ax1, ay1 = accel
    vx2, vy2 = vx0 + ax1 * half, vy0 + ay1 * half
    ax2, ay2 = _acceleration(lc, mu_z, inv_c, inv_m, naive, x0 + vx0 * half, y0 + vy0 * half, vx2, vy2)
    vx3, vy3 = vx0 + ax2 * half, vy0 + ay2 * half
    ax3, ay3 = _acceleration(lc, mu_z, inv_c, inv_m, naive, x0 + vx2 * half, y0 + vy2 * half, vx3, vy3)
    vx4, vy4 = vx0 + ax3 * dt, vy0 + ay3 * dt
    ax4, ay4 = _acceleration(lc, mu_z, inv_c, inv_m, naive, x0 + vx3 * dt, y0 + vy3 * dt, vx4, vy4)
    sixth = dt / 6.0
    x = x0 + (vx0 + (vx2 + vx3) * 2.0 + vx4) * sixth
    y = y0 + (vy0 + (vy2 + vy3) * 2.0 + vy4) * sixth
    if x * x + y * y < _AXIS_EPSILON2:  # _check_axis, inlined: reject landings inside the neighbourhood
        raise _axis_error(x, y)
    return (
        x,
        y,
        vx0 + (ax1 + (ax2 + ax3) * 2.0 + ax4) * sixth,
        vy0 + (ay1 + (ay2 + ay3) * 2.0 + ay4) * sixth,
    )


def step_trajectory(
    lc: LineCharge,
    n: NeutronModel,
    state: TrajectoryState,
    dt: float,
    law: str,
    k: PhysicalConstants,
    *,
    accel: tuple[float, float] | None = None,
) -> TrajectoryState:
    """Advance one fixed RK4 step under the selected law.

    ``accel`` is the stage-1 acceleration at ``state``, as ``_acceleration``
    returns it, when the caller already holds it; by default the step
    evaluates it.  Either way the result is the same to the bit.

    Any stage that reaches the axis neighbourhood raises SingularityError and
    the step is rejected (the input state is returned unchanged by virtue of
    never being mutated).  A step whose result is not finite raises
    NumericalError.
    """
    if not (dt > 0.0 and math.isfinite(dt)):
        raise DomainError(f"dt must be positive, got {dt!r}")
    _check_law(law)
    t, x, y, vx, vy = state
    x, y, vx, vy = _rk4(lc, n.mu_z, 1.0 / k.c, 1.0 / n.mass, law == NAIVE_LAW, dt, x, y, vx, vy, accel)
    try:
        return TrajectoryState(t + dt, x, y, vx, vy)
    except ValidationError as exc:  # the step overflowed, from a finite state
        raise NumericalError(
            f"{law} law: the RK4 step of dt = {dt!r} s from t = {t!r} s overflowed: {exc}"
        ) from None


def kinetic_energy(n: NeutronModel, state: TrajectoryState) -> float:
    return 0.5 * n.mass * (state.vx * state.vx + state.vy * state.vy)


class BounceSample(NamedTuple):
    """A TrajectoryState's floats, its kinetic energy and its hidden momentum (px, py)."""

    t: float
    x: float
    y: float
    vx: float
    vy: float
    kinetic_energy: float
    hidden_momentum: tuple[float, float]


@dataclass(frozen=True, slots=True)
class BounceResult:
    """One bounce run: the state after every step and every reflection, and
    per leg the bounce time, kinetic energy, work integral and energy gain."""

    law: str
    states: tuple[TrajectoryState, ...]
    bounce_times: tuple[float, ...]
    bounce_kinetic_energies: tuple[float, ...]
    work_per_leg: tuple[float, ...]
    ke_gain_per_leg: tuple[float, ...]
    line: LineCharge
    neutron: NeutronModel
    constants: PhysicalConstants

    @property
    def samples(self) -> tuple[BounceSample, ...]:
        """One BounceSample per state, built anew on each access."""
        inv_c = 1.0 / self.constants.c
        return tuple(_bounce_sample(self.line, self.neutron, inv_c, st) for st in self.states)

    @property
    def initial_kinetic_energy(self) -> float:
        return kinetic_energy(self.neutron, self.states[0])

    @property
    def final_kinetic_energy(self) -> float:
        return kinetic_energy(self.neutron, self.states[-1])


# The bounce loop evaluates each state's acceleration once and hands it to
# every consumer: stage 1 of the advance step, of the Simpson half-step and of
# each landing iterate, and the panel-end powers.  ``kernel`` is the
# leading argument tuple of _acceleration: (lc, mu_z, 1/c, 1/m, naive).


def _evaluate(kernel: tuple, mass: float, st: TrajectoryState) -> tuple[tuple[float, float], float]:
    # Acceleration at st and the rate of work m a.v of the net force.
    lc, mu_z, inv_c, inv_m, naive = kernel
    _, x, y, vx, vy = st
    accel = _acceleration(lc, mu_z, inv_c, inv_m, naive, x, y, vx, vy)
    ax, ay = accel
    return accel, (ax * vx + ay * vy) * mass


def _work_over_substep(
    lc: LineCharge,
    n: NeutronModel,
    start: TrajectoryState,
    h: float,
    law: str,
    k: PhysicalConstants,
    kernel: tuple,
    accel: tuple[float, float],
    power_start: float,
    power_end: float,
) -> float:
    # Simpson in time with an RK4 half-step midpoint; O(h^4) globally, and a
    # route to the energy gain independent of the kinetic-energy bookkeeping.
    mid = step_trajectory(lc, n, start, 0.5 * h, law, k, accel=accel)
    power_mid = _evaluate(kernel, n.mass, mid)[1]
    return h / 6.0 * (power_start + 4.0 * power_mid + power_end)


def _locate_crossing(
    lc: LineCharge,
    n: NeutronModel,
    start: TrajectoryState,
    end: TrajectoryState,
    dt: float,
    plane: float,
    inside_sign: float,
    law: str,
    k: PhysicalConstants,
    accel: tuple[float, float],
) -> tuple[float, TrajectoryState]:
    # Land the step from start, whose full length dt reaches end on or beyond
    # the plane, within two float spacings of the plane: safeguarded Newton
    # on x(h) = plane with slope vx(h).  The spacing is that of the larger of
    # plane and start x, since x is their sum with the step's increment.
    tol = 2.0 * math.ulp(max(abs(plane), abs(start.x)))
    if abs(end.x - plane) <= tol:
        return dt, end
    lo, hi = 0.0, dt
    h, hit = 0.0, start  # the first Newton step is the straight-line guess
    for _ in range(MAX_LANDING_STEPS):
        vx = hit.vx
        h = h - (hit.x - plane) / vx if vx else lo
        if not lo < h < hi:  # outside the bracket: bisect
            h = 0.5 * (lo + hi)
        hit = step_trajectory(lc, n, start, h, law, k, accel=accel)
        offset = hit.x - plane
        if abs(offset) <= tol:
            return h, hit
        if offset * inside_sign > 0.0:  # still inside the cavity
            lo = h
        else:
            hi = h
    raise NumericalError(
        f"{law} law: mirror crossing at x = {plane!r} cm not landed within {tol!r} cm in "
        f"{MAX_LANDING_STEPS} RK4 steps (t = {hit.t!r} s, x = {hit.x!r} cm)"
    )


def _bounce_sample(lc: LineCharge, n: NeutronModel, inv_c: float, st: TrajectoryState) -> BounceSample:
    x, y = st.x, st.y
    p_h = _hidden_momentum(lc, n.mu_z, inv_c, x, y)
    return BounceSample(st.t, x, y, st.vx, st.vy, kinetic_energy(n, st), p_h)


def simulate_bounce_experiment(
    lc: LineCharge,
    n: NeutronModel,
    cfg: BounceConfig,
    initial: TrajectoryState,
    k: PhysicalConstants,
) -> BounceResult:
    """Bounce a polarized moment between two elastic mirrors near the line.

    Mirrors are planes perpendicular to the x axis; an elastic reflection
    flips the x velocity component (the hidden momentum depends only on
    position, so it is continuous across a bounce).  A step that lands on or
    beyond a mirror ends the leg: its substep is shortened by safeguarded
    Newton until the hit is within two float spacings of the plane, and a run
    whose landing needs more than MAX_LANDING_STEPS RK4 steps raises
    NumericalError.  The result keeps the state after every step and every
    reflection; per-leg work integrals of the net force are accumulated with
    a Simpson rule as an independent oracle for the kinetic-energy change.  A
    run that needs more than MAX_STEPS RK4 steps over all its legs raises
    NumericalError.
    """
    cfg.check_start(initial.x)
    lo_mirror, hi_mirror = sorted((cfg.mirror_a, cfg.mirror_b))
    if initial.vx == 0.0:
        raise ValidationError("initial velocity needs a component along the flight (x) axis")
    center = 0.5 * (lo_mirror + hi_mirror)
    law, dt, max_steps = cfg.law, cfg.dt, MAX_STEPS
    kernel = (lc, n.mu_z, 1.0 / k.c, 1.0 / n.mass, law == NAIVE_LAW)

    state = initial
    states = [state]
    accel, power = _evaluate(kernel, n.mass, state)
    bounce_times: list[float] = []
    bounce_kes: list[float] = []
    work_per_leg: list[float] = []
    gain_per_leg: list[float] = []
    leg_work = 0.0
    leg_ke_start = kinetic_energy(n, state)
    steps = 0

    while len(bounce_times) < cfg.n_bounces:
        if steps == max_steps:
            raise NumericalError(
                f"{law} law: bounce leg {len(bounce_times) + 1} exceeded the run's budget of "
                f"{max_steps} RK4 steps (t = {state.t!r} s, x = {state.x!r} cm)"
            )
        steps += 1
        nxt = step_trajectory(lc, n, state, dt, law, k, accel=accel)
        x = nxt.x
        if lo_mirror < x < hi_mirror:
            accel_next, power_next = _evaluate(kernel, n.mass, nxt)
            leg_work += _work_over_substep(lc, n, state, dt, law, k, kernel, accel, power, power_next)
            state, accel, power = nxt, accel_next, power_next
            states.append(state)
            continue
        plane = hi_mirror if x >= hi_mirror else lo_mirror
        inside_sign = math.copysign(1.0, center - plane)
        h_hit, hit = _locate_crossing(lc, n, state, nxt, dt, plane, inside_sign, law, k, accel)
        power_hit = _evaluate(kernel, n.mass, hit)[1]
        leg_work += _work_over_substep(lc, n, state, h_hit, law, k, kernel, accel, power, power_hit)
        # The reflected velocity changes the acceleration: evaluate afresh.
        state = TrajectoryState(hit.t, hit.x, hit.y, -hit.vx, hit.vy)
        accel, power = _evaluate(kernel, n.mass, state)
        states.append(state)
        ke_now = kinetic_energy(n, state)
        bounce_times.append(state.t)
        bounce_kes.append(ke_now)
        work_per_leg.append(leg_work)
        gain_per_leg.append(ke_now - leg_ke_start)
        leg_work = 0.0
        leg_ke_start = ke_now
    return BounceResult(
        law=law,
        states=tuple(states),
        bounce_times=tuple(bounce_times),
        bounce_kinetic_energies=tuple(bounce_kes),
        work_per_leg=tuple(work_per_leg),
        ke_gain_per_leg=tuple(gain_per_leg),
        line=lc,
        neutron=n,
        constants=k,
    )


@dataclass(frozen=True, slots=True)
class CircleLoop:
    """Counterclockwise circle of given radius around (center.x, center.y);
    center.z, the plane of the circle, does not enter the phase."""

    center: Vec3
    radius: float

    def __post_init__(self):
        self.center.require_finite("center")
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise ValidationError(f"radius must be positive, got {self.radius!r}")


@dataclass(frozen=True, slots=True)
class PolylineLoop:
    """Closed polyline; the last vertex must repeat the first."""

    vertices: tuple[Vec3, ...]

    def __post_init__(self):
        if len(self.vertices) < 4:
            raise ValidationError("a closed polyline needs at least 3 distinct vertices")
        for v in self.vertices:
            v.require_finite("vertex")
        scale = max(1.0, max(abs(c) for v in self.vertices for c in v.as_tuple()))
        if (self.vertices[0] - self.vertices[-1]).norm() > 1e-12 * scale:
            raise DomainError("open path: polyline must end at its starting vertex")


LoopPath = Union[CircleLoop, PolylineLoop]


def _side_foot(a: Vec3, b: Vec3) -> tuple[float, float, float, float, float, float]:
    """(vx, vy, ex, ey, tau, gap) of the side [a, b] in the x-y plane: v is the
    vertex nearer the side's point closest to the line, e the edge from v to
    the other vertex, v + tau*e that point (tau in [0, 1], measured from v so
    that a foot near a vertex keeps its digits) and gap its distance from the
    line."""
    vx, vy, ex, ey = a.x, a.y, b.x - a.x, b.y - a.y
    len2 = ex * ex + ey * ey
    if len2 == 0.0:
        return vx, vy, ex, ey, 0.0, math.hypot(vx, vy)
    tau = min(1.0, max(0.0, -(vx * ex + vy * ey) / len2))
    if tau > 0.5:
        vx, vy, ex, ey = b.x, b.y, -ex, -ey
        tau = min(1.0, max(0.0, -(vx * ex + vy * ey) / len2))
    return vx, vy, ex, ey, tau, math.hypot(vx + tau * ex, vy + tau * ey)


def _loop_integrands(
    loop: LoopPath, lc: LineCharge, mu_z: float, inv_c: float
) -> list[tuple[Callable[[float], float], float, float]]:
    """One (integrand, lo, hi) per segment: p_h(point) . direction times the
    map's Jacobian, on a map of the segment about its point nearest the line,
    over [lo, hi].

    A circle of radius R, centre c, takes phi, the angle from its nearest
    point N = c^ (|c| - R), through the periodic Moebius map
    tan(phi/2) = alpha tan(h) with alpha = min(1, sqrt(clearance/R)), for h in
    [-pi/2, pi/2).  With a = alpha sin(h), b = cos(h) and q = 1/(a^2 + b^2),
    the point is N + 2R a q (a c^ + b t^), t^ the tangent at N, the direction
    rot90(point - c) and the Jacobian dphi/dh = 2 alpha q.  A polyline side of
    length L is anchored at its foot F = v + tau e (``_side_foot``); with
    d = gap/L the point is F + sinh(u) (d e), the direction (b - a) d and the
    Jacobian cosh(u), for u from asinh(-tau/d) to asinh((1 - tau)/d).  Either
    way each point is a small offset from an anchor next to the line, never a
    far vertex or the centre plus a whole edge or radius, so the points near
    the line keep their digits."""
    if isinstance(loop, CircleLoop):
        cx, cy, rad = loop.center.x, loop.center.y, loop.radius
        rc = math.hypot(cx, cy)
        ux, uy = (cx / rc, cy / rc) if rc else (1.0, 0.0)
        gap = rc - rad  # negative when the circle encloses the line
        nx, ny = gap * ux, gap * uy
        alpha = min(1.0, math.sqrt(abs(gap) / rad))
        alpha2, r2ux, r2uy = 2.0 * alpha, 2.0 * rad * ux, 2.0 * rad * uy
        cos, sin = math.cos, math.sin

        def circle(h: float) -> float:
            a, b = alpha * sin(h), cos(h)
            q = 1.0 / (a * a + b * b)
            aq = a * q
            x = nx + aq * (a * r2ux + b * r2uy)
            y = ny + aq * (a * r2uy - b * r2ux)
            px, py = _hidden_momentum(lc, mu_z, inv_c, x, y)
            return (px * (cy - y) + py * (x - cx)) * (alpha2 * q)

        return [(circle, -0.5 * math.pi, 0.5 * math.pi)]
    if isinstance(loop, PolylineLoop):
        segments = []
        cosh, sinh, asinh = math.cosh, math.sinh, math.asinh
        for a, b in zip(loop.vertices, loop.vertices[1:]):
            vx, vy, ex, ey, tau, gap = _side_foot(a, b)
            length = math.hypot(ex, ey)
            if length == 0.0:  # a repeated vertex: no side
                continue
            d = gap / length
            fx, fy, dex, dey = vx + tau * ex, vy + tau * ey, d * ex, d * ey

            def side(u: float, fx=fx, fy=fy, dex=dex, dey=dey, tx=(b.x - a.x) * d, ty=(b.y - a.y) * d) -> float:
                sh = sinh(u)
                px, py = _hidden_momentum(lc, mu_z, inv_c, fx + sh * dex, fy + sh * dey)
                return (px * tx + py * ty) * cosh(u)

            segments.append((side, asinh(-tau / d), asinh((1.0 - tau) / d)))
        return segments
    raise ValidationError(f"unsupported loop path {loop!r}")


def _loop_rule(loop: LoopPath) -> Callable[..., float]:
    """The refinement that integrates each of the loop's mapped integrands:
    the periodic trapezoid rule for a circle, whose one integrand is periodic
    in h, and Gauss-Legendre from 1 panel for a polyline side.  It reads
    ``refine_gauss_legendre`` from this module at each call, so that the
    benchmark tracer's wrapper of that name sees every polyline side."""
    if isinstance(loop, CircleLoop):
        return refine_periodic_trapezoid
    return partial(refine_gauss_legendre, start_panels=1)


def path_axis_clearance(loop: LoopPath) -> float:
    """Minimum distance from the loop to the charged line (in the x-y plane)."""
    if isinstance(loop, CircleLoop):
        return abs(math.hypot(loop.center.x, loop.center.y) - loop.radius)
    return min(_side_foot(a, b)[5] for a, b in zip(loop.vertices, loop.vertices[1:]))


def ac_phase(lc: LineCharge, mu_z: float, loop: LoopPath, k: PhysicalConstants) -> float:
    """Phase (1/hbar) contour_integral (mu x E)/c . dl around a closed path.

    Each segment is integrated on its map about its point nearest the line
    (``_loop_integrands``) to AC_PHASE_REL_TOL, a circle by the point-doubling
    periodic trapezoid rule and each polyline side by panel-doubling
    composite Gauss-Legendre.  The absolute floor, for loops that enclose no
    charge, is AC_PHASE_REL_TOL * 1e-3 * 2 pi * 2|lambda mu_z|/c, capped at the
    largest float: p_h . dl = (2 lambda mu_z/c) dphi exactly, phi the azimuth
    about the line, so no segment's |integrand| integrates past that bound,
    whatever its clearance.  A loop closer to the line than AXIS_EPSILON, or a
    circle closer than CIRCLE_AXIS_RATIO of its radius, is a SingularityError.
    """
    clearance = path_axis_clearance(loop)
    if clearance < AXIS_EPSILON:
        raise SingularityError(
            f"loop path comes within {clearance:.3e} cm of the charged line "
            f"(minimum clearance {AXIS_EPSILON:g} cm)"
        )
    if isinstance(loop, CircleLoop) and clearance < CIRCLE_AXIS_RATIO * loop.radius:
        raise SingularityError(
            f"circle of radius {loop.radius:.3e} cm comes within {clearance:.3e} cm of the charged line "
            f"(minimum clearance {CIRCLE_AXIS_RATIO:g} R)"
        )
    inv_c = 1.0 / k.c
    bound = 2.0 * math.pi * abs(2.0 * lc.lambda_c * mu_z * inv_c)
    abs_floor = AC_PHASE_REL_TOL * min(bound, math.nextafter(math.inf, 0.0)) * 1e-3
    refine = _loop_rule(loop)
    total = 0.0
    for f, lo, hi in _loop_integrands(loop, lc, mu_z, inv_c):
        total += refine(f, lo, hi, rel_tol=AC_PHASE_REL_TOL, abs_floor=abs_floor)
    return total / k.hbar


def ac_phase_enclosed_value(lc: LineCharge, mu_z: float, k: PhysicalConstants, winding: int = 1) -> float:
    """Analytic per-winding value 4*pi*mu_z*lambda_c/(hbar*c) of the loop phase."""
    return winding * 4.0 * math.pi * mu_z * lc.lambda_c / (k.hbar * k.c)


def loop_winding_number(loop: LoopPath) -> int:
    """Winding number of the loop around the charged line."""
    if isinstance(loop, CircleLoop):
        return 1 if math.hypot(loop.center.x, loop.center.y) < loop.radius else 0
    total = 0.0
    for a, b in zip(loop.vertices, loop.vertices[1:]):
        ang_a = math.atan2(a.y, a.x)
        ang_b = math.atan2(b.y, b.x)
        delta = ang_b - ang_a
        while delta > math.pi:
            delta -= 2.0 * math.pi
        while delta < -math.pi:
            delta += 2.0 * math.pi
        total += delta
    return round(total / (2.0 * math.pi))
