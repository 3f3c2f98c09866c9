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

Everything runs on plain floats.  ``acceleration_law(lc, n, law, k)``
validates the law once and returns the law of motion as a closure
``accel(x, y, vx, vy)`` over 2 lambda, mu_z, 1/c and 1/m.  Its one body
computes the axis check, the field Jacobian (three distinct entries), the
induced-dipole force F and the convective rate (v . grad)p_h, and the full
law subtracts the two terms; ``_hidden_momentum`` gives (px, py) to the loop
integrands.  These are the only implementations of the two force terms and
of p_h: the catalogue row ``boyer_force_equals_momentum_rate`` reads F and
F - (v . grad)p_h from laws that ``acceleration_law`` built, at unit inverse
mass.

Contract: each body is the Vec3 formulation with mu = (0, 0, mu_z) and
position and velocity in the x-y plane, less the terms that vanish in this
geometry, with every other operation in its order (sums left to right, x
before y, reciprocals 1/c and 1/m multiplied; 2 lambda is the product that
formulation forms first, and mu_z and 1/c stay two factors).  So every step,
loop phase and report is bit-identical to that formulation, which
``tests/test_boyer.py`` keeps as the reference.  A
dropped term is a signed zero, so a force term, acceleration or integrand
value that is itself zero may differ from the reference in its sign only.  A
step shows that only when it starts from a velocity component of -0.0; a
loop phase never does, since its quadrature sums start from 0.0.

``step_trajectory(accel, dt, t, x, y, vx, vy, a1=None)`` is the one RK4
stepper: it takes a state's five floats and returns the next five, checked
one by one, so that a step that overflows raises NumericalError and every
state it returns is finite.  A TrajectoryState is a validated tuple of five
floats: building one from outside checks every component, and the bounce
loop, whose states the stepper has checked, builds one by ``tuple.__new__``
only for each state it keeps.  Each flight binds its law once: a bounce run
on entry, and verify's free flights, force row and bounce flights through
laws built at import or by the bounce run.  Every step goes through the
module attribute ``step_trajectory``, looked up at call time, whose calls
the benchmark's tracer counts by caller name: the bounce loop's three
functions, and verify's free flights as "other".

The bounce loop evaluates each state's acceleration once.  That one
evaluation is stage 1 (``a1``) of the advance step, of the Simpson-midpoint
half-step and of every mirror-landing iterate, and its power m a.v ends one
work panel and starts the next; only a reflected state, whose velocity
changed, is evaluated afresh.  A stage-1 acceleration handed in is the very
tuple the step would compute, so sharing it changes no bit of any step or
report (``tests/test_boyer.py`` checks both laws).

A step that lands on or beyond a mirror ends the leg.  ``_locate_crossing``
then solves x(h) = plane for the substep length h by Newton's method with
slope vx(h), from the straight-line guess and inside the bracket [0, dt],
bisecting whenever an iterate leaves it.  The hit is within two float
spacings of the plane, a bound that holds at any distance of the cavity from
the origin; it usually takes one to three RK4 steps, and at most
MAX_LANDING_STEPS.  The loop keeps only the TrajectoryState tuple of each
step and each reflection.

The loop phase integrates each segment on a map about its point nearest the
line (``_loop_integrands``), which spreads the segment's 1/clearance peak over
a width of order one in the map's variable.  A circle takes the periodic
Moebius map tan(phi/2) = alpha tan(h), alpha = min(1, sqrt(clearance/R)),
phi its angle from the nearest point, and a polyline side the sinh map
t = tau + d sinh(u) about its foot, d its clearance over its length.  A side
whose d is below the normal floats, where the map's ends asinh(1/d) would
overflow, is cut about its foot into pieces of normal d first
(``_split_at_foot``).  Each integrand closes over floats and returns
p_h . tangent, so no Vec3 is built per quadrature node, and forms its points
as small offsets from an anchor next to the line.  A circle or a polyline
side too large for the squares of its distances is scaled by an exact power
of two first.  A circle's periodic integrand gets the periodic trapezoid rule
from 8 points, a polyline side's composite Gauss-Legendre from 1 panel, to
one absolute floor for every segment (``ac_phase``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
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

_INF = math.inf
_FLOAT_MIN = sys.float_info.min  # the smallest normal float

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
    building one costs a single tuple allocation.  The bounce loop builds its
    kept states by ``tuple.__new__`` from floats that ``step_trajectory`` has
    checked.  It equals a plain tuple of the same floats, and it iterates,
    unpacks, hashes and orders like one."""

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
    # No axis check: a bounce state has passed _acceleration's, and ac_phase
    # checks its loop's clearance before it integrates the loop, which may be
    # scaled nearer to the line than AXIS_EPSILON.
    s = 2.0 * lc.lambda_c / (x * x + y * y)
    return (0.0 - mu_z * (s * y)) * inv_c, mu_z * (s * x) * inv_c


def acceleration_law(
    lc: LineCharge, n: NeutronModel, law: str, k: PhysicalConstants
) -> Callable[[float, float, float, float], tuple[float, float]]:
    """The selected law of motion as ``accel(x, y, vx, vy) -> (ax, ay)``:
    (F - (v . grad)p_h)/m under the full law, F/m under the naive law, each
    at the position (x, y) (cm) and kinetic velocity (vx, vy) (cm/s).

    The law is validated here, once; the returned function carries its name
    as ``accel.law``, which the stepper's errors quote.  ``accel`` raises
    SingularityError inside the axis neighbourhood.  Its body is the one
    implementation of both force terms (see the module docstring for its
    bit-identity contract)."""
    _check_law(law)
    naive = law == NAIVE_LAW
    two_lambda, mu_z, inv_c, inv_m = 2.0 * lc.lambda_c, n.mu_z, 1.0 / k.c, 1.0 / n.mass

    def accel(x: float, y: float, vx: float, vy: float) -> tuple[float, float]:
        # One body, no helper calls: this is the RK4 hot path.
        x2 = x * x
        y2 = y * y
        rho2 = x2 + y2  # _check_axis, inlined
        if rho2 < _AXIS_EPSILON2:
            raise _axis_error(x, y)
        # Jacobian entries: exx = dEx/dx, exy = dEx/dy = dEy/dx, eyy = dEy/dy.
        pref = two_lambda / (rho2 * rho2)
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

    accel.law = law
    return accel


def line_field(lc: LineCharge, pos: Vec3) -> Vec3:
    """Electric field 2*lambda_c/rho radially outward from the line (statV/cm)."""
    s = 2.0 * lc.lambda_c / _check_axis(pos.x, pos.y)
    return Vec3(s * pos.x, s * pos.y, 0.0)


def step_trajectory(
    accel: Callable[[float, float, float, float], tuple[float, float]],
    dt: float,
    t: float,
    x0: float,
    y0: float,
    vx0: float,
    vy0: float,
    a1: tuple[float, float] | None = None,
) -> tuple[float, float, float, float, float]:
    """One fixed RK4 step of the state (t, x, y, vx, vy) under the law
    ``accel`` (``acceleration_law``); returns the next state's five floats.

    ``a1`` is the stage-1 acceleration ``accel(x0, y0, vx0, vy0)`` when the
    caller already holds it; by default the step evaluates it.  Either way
    the result is the same to the bit.

    A dt that is not a positive finite float raises DomainError.  Any stage
    that reaches the axis neighbourhood raises SingularityError, and so does
    a landing point inside it.  A step from a finite state whose result has
    a non-finite component raises NumericalError: the result is checked
    component by component, so it is a TrajectoryState's worth of finite
    floats whenever it is returned.
    """
    if not 0.0 < dt < _INF:
        raise DomainError(f"dt must be positive, got {dt!r}")
    half = 0.5 * dt
    if a1 is None:
        a1 = accel(x0, y0, vx0, vy0)
    ax1, ay1 = a1
    vx2, vy2 = vx0 + ax1 * half, vy0 + ay1 * half
    ax2, ay2 = accel(x0 + vx0 * half, y0 + vy0 * half, vx2, vy2)
    vx3, vy3 = vx0 + ax2 * half, vy0 + ay2 * half
    ax3, ay3 = accel(x0 + vx2 * half, y0 + vy2 * half, vx3, vy3)
    vx4, vy4 = vx0 + ax3 * dt, vy0 + ay3 * dt
    ax4, ay4 = accel(x0 + vx3 * dt, y0 + vy3 * dt, vx4, vy4)
    sixth = dt / 6.0
    x = x0 + (vx0 + (vx2 + vx3) * 2.0 + vx4) * sixth
    y = y0 + (vy0 + (vy2 + vy3) * 2.0 + vy4) * sixth
    if x * x + y * y < _AXIS_EPSILON2:  # _check_axis, inlined: reject landings inside the neighbourhood
        raise _axis_error(x, y)
    vx = vx0 + (ax1 + (ax2 + ax3) * 2.0 + ax4) * sixth
    vy = vy0 + (ay1 + (ay2 + ay3) * 2.0 + ay4) * sixth
    t1 = t + dt
    isfinite = math.isfinite  # each component on its own: a sum of finite floats can overflow
    if not (isfinite(t1) and isfinite(x) and isfinite(y) and isfinite(vx) and isfinite(vy)):
        state = tuple.__new__(TrajectoryState, (t1, x, y, vx, vy))
        raise NumericalError(
            f"{accel.law} law: the RK4 step of dt = {dt!r} s from t = {t!r} s overflowed: "
            f"state has non-finite components: {state!r}"
        )
    return t1, x, y, vx, vy


def kinetic_energy(n: NeutronModel, state: TrajectoryState) -> float:
    return 0.5 * n.mass * (state.vx * state.vx + state.vy * state.vy)


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

    @property
    def samples(self) -> tuple[TrajectoryState, ...]:
        # The states, under the name the benchmark tracer counts them by;
        # ROADMAP item 1 moves that count into the result.
        return self.states

    @property
    def initial_kinetic_energy(self) -> float:
        return kinetic_energy(self.neutron, self.states[0])


# The bounce loop binds its law once per flight and steps 5-tuples of floats
# (t, x, y, vx, vy), as step_trajectory returns them.  It evaluates each
# state's acceleration once and hands it to every consumer: stage 1 of the
# advance step, of the Simpson half-step and of each landing iterate, and the
# panel-end powers m a.v.


def _work_over_substep(
    accel: Callable[[float, float, float, float], tuple[float, float]],
    mass: float,
    start: tuple,
    h: float,
    a: tuple[float, float],
    power_start: float,
    power_end: float,
) -> float:
    # Simpson in time with an RK4 half-step midpoint; O(h^4) globally, and a
    # route to the energy gain independent of the kinetic-energy bookkeeping.
    t, x, y, vx, vy = start
    _, x, y, vx, vy = step_trajectory(accel, 0.5 * h, t, x, y, vx, vy, a)
    ax, ay = accel(x, y, vx, vy)
    return h / 6.0 * (power_start + 4.0 * ((ax * vx + ay * vy) * mass) + power_end)


def _locate_crossing(
    accel: Callable[[float, float, float, float], tuple[float, float]],
    start: tuple,
    end: tuple,
    dt: float,
    plane: float,
    inside_sign: float,
    a: tuple[float, float],
) -> tuple[float, tuple]:
    # Land the step from start, whose full length dt reaches end on or beyond
    # the plane, within two float spacings of the plane: safeguarded Newton
    # on x(h) = plane with slope vx(h).  The spacing is that of the larger of
    # plane and start x, since x is their sum with the step's increment.
    t, x, y, vx, vy = start
    tol = 2.0 * math.ulp(max(abs(plane), abs(x)))
    if abs(end[1] - plane) <= tol:
        return dt, end
    lo, hi = 0.0, dt
    h, hit = 0.0, start  # the first Newton step is the straight-line guess
    for _ in range(MAX_LANDING_STEPS):
        hit_vx = hit[3]
        h = h - (hit[1] - plane) / hit_vx if hit_vx else lo
        if not lo < h < hi:  # outside the bracket: bisect
            h = 0.5 * (lo + hi)
        hit = step_trajectory(accel, h, t, x, y, vx, vy, a)
        offset = hit[1] - plane
        if abs(offset) <= tol:
            return h, hit
        if offset * inside_sign > 0.0:  # still inside the cavity
            lo = h
        else:
            hi = h
    raise NumericalError(
        f"{accel.law} law: mirror crossing at x = {plane!r} cm not landed within {tol!r} cm in "
        f"{MAX_LANDING_STEPS} RK4 steps (t = {hit[0]!r} s, x = {hit[1]!r} cm)"
    )


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
    law, dt, n_bounces, max_steps, mass = cfg.law, cfg.dt, cfg.n_bounces, MAX_STEPS, n.mass
    accel = acceleration_law(lc, n, law, k)
    new_tuple = tuple.__new__  # a kept state: step_trajectory has checked its floats

    state = initial
    states = [state]
    t, x, y, vx, vy = state
    ax, ay = a = accel(x, y, vx, vy)
    power = (ax * vx + ay * vy) * mass
    bounce_times: list[float] = []
    bounce_kes: list[float] = []
    work_per_leg: list[float] = []
    gain_per_leg: list[float] = []
    leg_work = 0.0
    leg_ke_start = kinetic_energy(n, state)
    steps = 0

    while len(bounce_times) < n_bounces:
        if steps == max_steps:
            raise NumericalError(
                f"{law} law: bounce leg {len(bounce_times) + 1} exceeded the run's budget of "
                f"{max_steps} RK4 steps (t = {t!r} s, x = {x!r} cm)"
            )
        steps += 1
        nxt = step_trajectory(accel, dt, t, x, y, vx, vy, a)
        t, x, y, vx, vy = nxt
        if lo_mirror < x < hi_mirror:
            ax, ay = a_next = accel(x, y, vx, vy)
            power_next = (ax * vx + ay * vy) * mass
            leg_work += _work_over_substep(accel, mass, state, dt, a, power, power_next)
            state, a, power = nxt, a_next, power_next
            states.append(new_tuple(TrajectoryState, nxt))
            continue
        plane = hi_mirror if x >= hi_mirror else lo_mirror
        inside_sign = math.copysign(1.0, center - plane)
        h_hit, hit = _locate_crossing(accel, state, nxt, dt, plane, inside_sign, a)
        t, x, y, vx, vy = hit
        ax, ay = accel(x, y, vx, vy)
        leg_work += _work_over_substep(accel, mass, state, h_hit, a, power, (ax * vx + ay * vy) * mass)
        # The reflected velocity changes the acceleration: evaluate afresh.
        vx = -vx
        state = new_tuple(TrajectoryState, (t, x, y, vx, vy))
        ax, ay = a = accel(x, y, vx, vy)
        power = (ax * vx + ay * vy) * mass
        states.append(state)
        ke_now = kinetic_energy(n, state)
        bounce_times.append(t)
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


def _side_foot(ax: float, ay: float, bx: float, by: float) -> tuple[float, float, float, float, float, float]:
    """(vx, vy, ex, ey, tau, gap) of the side from (ax, ay) to (bx, by) in the
    x-y plane: v is the vertex nearer the side's point closest to the line, e
    the edge from v to the other vertex, v + tau*e that point (tau in [0, 1],
    measured from v so that a foot near a vertex keeps its digits) and gap its
    distance from the line."""
    vx, vy, ex, ey = ax, ay, bx - ax, by - ay
    len2 = ex * ex + ey * ey
    if len2 == 0.0:
        return vx, vy, ex, ey, 0.0, math.hypot(vx, vy)
    tau = min(1.0, max(0.0, -(vx * ex + vy * ey) / len2))
    if tau > 0.5:
        vx, vy, ex, ey = bx, by, -ex, -ey
        tau = min(1.0, max(0.0, -(vx * ex + vy * ey) / len2))
    return vx, vy, ex, ey, tau, math.hypot(vx + tau * ex, vy + tau * ey)


def _loop_scale(size: float) -> float:
    """The largest power of two at most 1 that brings ``size``, the largest
    |coordinate| of a circle or a polyline side, below 2**509, where no square
    of a distance on it overflows: 1.0 for a smaller one, so that its floats
    are kept, and no smaller than it must be for a larger one, so that its
    clearance keeps as much of the float range as it can."""
    return math.ldexp(1.0, min(0, 509 - math.frexp(size)[1]))


def _scaled_side(a: Vec3, b: Vec3) -> tuple[float, float, float, float, float]:
    """(scale, ax, ay, bx, by): the side's ``_loop_scale`` and the (x, y) of
    its ends times it."""
    scale = _loop_scale(max(abs(a.x), abs(a.y), abs(b.x), abs(b.y)))
    return scale, a.x * scale, a.y * scale, b.x * scale, b.y * scale


def _split_at_foot(a: Vec3, b: Vec3, scale: float, foot: tuple) -> list[tuple[Vec3, Vec3]]:
    """The side from a to b cut into two or three pieces, in order from a to
    b: a middle piece of half-width sqrt(gap * length) about its foot (one cut
    when the foot is within that of its nearer vertex) and the rest on either
    side.  ``foot`` is the side's ``_side_foot`` tuple scaled by ``scale``
    (``_scaled_side``), and the cuts come back in unscaled cm, so that each
    piece takes its own scale.  Each piece's clearance over its length is at
    least sqrt(gap/length)/2, a normal float, so that its map's ends
    asinh(.../d) stay finite and cosh stays far below its overflow at about
    710."""
    vx, vy, ex, ey, tau, gap = foot
    w = math.sqrt(gap) / math.sqrt(math.hypot(ex, ey))  # the half-width over the length, a fraction of e
    fx, fy = vx + tau * ex, vy + tau * ey
    cuts = [Vec3((fx + w * ex) / scale, (fy + w * ey) / scale, 0.0)]
    if tau > w:
        cuts.insert(0, Vec3((fx - w * ex) / scale, (fy - w * ey) / scale, 0.0))
    if (vx, vy) != (a.x * scale, a.y * scale):  # v is the end b: the cuts run from b towards a
        cuts.reverse()
    points = [a, *cuts, b]
    return list(zip(points, points[1:]))


def _loop_integrands(
    loop: LoopPath, lc: LineCharge, mu_z: float, inv_c: float
) -> list[tuple[Callable[[float], float], float, float]]:
    """One (integrand, lo, hi) per segment, in the loop's order: p_h(point) .
    direction times the map's Jacobian, on a map of the segment about its
    point nearest the line, over [lo, hi].  A segment is the circle, a
    polyline side, or a piece of a side that ``_split_at_foot`` cut.

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
    the line keep their digits.

    A circle or a polyline side whose largest |x| or |y| reaches 2**509, where
    the square of a distance on it can overflow, is integrated scaled by the
    power of two that brings that coordinate into [2**508, 2**509)
    (``_loop_scale``): its integral has degree 0 in length and the scaling is
    exact.  Each side takes its own scale, so a short side near the line keeps
    its floats beside a far vertex.  A smaller circle or side keeps its
    floats, whose squares neither overflow nor, at a clearance of at least
    AXIS_EPSILON, underflow.  A side whose d is below the normal floats,
    where asinh(1/d) overflows and d e loses its digits, is cut about its foot
    (``_split_at_foot``), and each piece takes its own scale and map."""
    if isinstance(loop, CircleLoop):
        cx, cy, rad = loop.center.x, loop.center.y, loop.radius
        scale = _loop_scale(max(abs(cx), abs(cy), rad))
        cx, cy, rad = cx * scale, cy * scale, rad * scale
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
        # A stack of sides (a, b) with the next one on top, so that the sides,
        # and a split side's pieces, are integrated and summed in order.
        sides = list(zip(loop.vertices, loop.vertices[1:]))[::-1]
        while sides:
            a, b = sides.pop()
            scale, ax, ay, bx, by = _scaled_side(a, b)
            foot = vx, vy, ex, ey, tau, gap = _side_foot(ax, ay, bx, by)
            length = math.hypot(ex, ey)
            if length == 0.0:  # a repeated vertex: no side
                continue
            d = gap / length
            if d < _FLOAT_MIN:  # subnormal: the map's ends would overflow
                sides.extend(_split_at_foot(a, b, scale, foot)[::-1])
                continue
            fx, fy, dex, dey = vx + tau * ex, vy + tau * ey, d * ex, d * ey

            def side(u: float, fx=fx, fy=fy, dex=dex, dey=dey, tx=(bx - ax) * d, ty=(by - ay) * d) -> float:
                sh = sinh(u)
                px, py = _hidden_momentum(lc, mu_z, inv_c, fx + sh * dex, fy + sh * dey)
                return (px * tx + py * ty) * cosh(u)

            segments.append((side, asinh(-tau / d), asinh((1.0 - tau) / d)))
        return segments
    raise ValidationError(f"unsupported loop path {loop!r}")


def path_axis_clearance(loop: LoopPath) -> float:
    """Minimum distance from the loop to the charged line (in the x-y plane).
    A polyline side is measured scaled (``_scaled_side``), so that a side too
    long for the square of its length keeps its foot."""
    if isinstance(loop, CircleLoop):
        return abs(math.hypot(loop.center.x, loop.center.y) - loop.radius)
    sides = (_scaled_side(a, b) for a, b in zip(loop.vertices, loop.vertices[1:]))
    return min(_side_foot(ax, ay, bx, by)[5] / scale for scale, ax, ay, bx, by in sides)


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
    # Both rules are read from this module at each call, so the benchmark
    # tracer's wrapper of refine_gauss_legendre sees every polyline side.
    refine = refine_periodic_trapezoid if isinstance(loop, CircleLoop) else refine_gauss_legendre
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
