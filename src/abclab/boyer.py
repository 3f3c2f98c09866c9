"""Current-loop magnetic moment near a charged line: forces, hidden momentum,
mirror-bounce dynamics, and the moment-around-charge phase.

Geometry (v1): the charged line runs along z through ``axis_point``, the
moment is polarized along z, and motion stays in the x-y plane.  A moving
current loop acquires an electric dipole d = (v x mu)/c and therefore feels
the gradient force (d . grad)E in the line's field.  The loop also carries a
hidden mechanical momentum p_h = (mu x E)/c, and in this geometry the force
equals the convective rate (v . grad)p_h at every point.  Two laws of motion
are offered:

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

The RK4 stepper runs on a scalar kernel rather than on Vec3 objects.  The
line field is planar (no z component, no z dependence), so its Jacobian has
three distinct entries.  ``_acceleration`` computes the axis check, the
Jacobian, the induced-dipole force F and the convective hidden-momentum rate
(v . grad)p_h from plain floats in one function body, and the full law
subtracts the two terms; ``line_field_gradient``, ``boyer_force`` and
``hidden_momentum_rate`` are Vec3 wrappers over the same body.  The kernel
still carries every z component (a nonzero pos.z or vel.z, or the tiny
transverse mu that NeutronModel admits, propagates as before).  Contract:
each scalar expression evaluates in the order of the Vec3 expression it
replaced (sums left to right, x then y then z, zero Jacobian entries kept as
0.0 factors, reciprocals 1/c and 1/m multiplied), so steps, bounce reports
and verify reports are bit-identical to the Vec3 formulation;
``tests/test_boyer.py`` keeps that formulation as the reference.

The RK4 update is written once, in ``_rk4``, which steps plain floats
(x, y, z, vx, vy, vz) and rejects a landing point inside the axis
neighbourhood.  ``step_trajectory`` validates its input and wraps ``_rk4`` in
TrajectoryState and Vec3 objects.  The verify flights (``verify._full_law_speed``
and ``verify._naive_endpoint``) call ``_rk4`` directly and build objects only
at the end.  The bounce loop still calls ``step_trajectory`` from its three
functions, whose calls the benchmark's tracer counts by caller name; moving
it onto ``_rk4`` waits for the benchmark to count those calls another way.

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
MAX_LANDING_STEPS.  The loop keeps only the TrajectoryState of each step and
each reflection: ``BounceResult.samples`` builds the BounceSample series from
them when it is read.

The loop phase integrates plain floats too.  ``_loop_integrands`` gives one
function of t per segment: a circle computes its angle, cosine and sine once
per node, and a polyline segment closes over its start vertex and its edge
vector as floats.  Each calls ``_hidden_momentum`` (one flat body, axis check
inlined, so p_h is formed in one place) and returns p_h . tangent, so no Vec3
is built per quadrature node.  Contract: every operation keeps the order of
the Vec3 integrand it replaced, hidden_momentum(point(t)).dot(tangent(t)),
including the circle's pz * 0.0 term and the polyline's pz * dz term, so
every loop phase and every report is bit-identical to it;
``tests/test_boyer.py`` keeps that integrand as the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

from .errors import DomainError, NumericalError, SingularityError, ValidationError
from .quadrature import refine_gauss_legendre
from .units import ZERO3, PhysicalConstants, Vec3, cross

FULL_LAW = "full"
NAIVE_LAW = "naive-boyer"
LAWS = (FULL_LAW, NAIVE_LAW)

# Positions closer than this to the line axis are treated as singular (cm).
AXIS_EPSILON = 1e-9

# A bounce run that needs more RK4 advance steps than this, counted over all
# its legs, raises NumericalError (the steps that land on a mirror do not
# count).  A run's cost grows as n_bounces/|vx|.
MAX_STEPS = 1_000_000

# A mirror landing that needs more RK4 steps than this raises NumericalError.
# Newton takes one to three; bisection alone resolves the substep to the float
# spacing of x within about 54 halvings.
MAX_LANDING_STEPS = 64


def _check_law(law: str):
    if law not in LAWS:
        raise ValidationError(f"unknown law {law!r}; expected one of {LAWS}")


@dataclass(frozen=True, slots=True)
class LineCharge:
    """Infinite straight line of charge: density lambda_c (statC/cm), running
    along +z through axis_point.  Positions closer than axis_epsilon to the
    line are treated as singular."""

    lambda_c: float
    axis_point: Vec3 = Vec3(0.0, 0.0, 0.0)
    axis_epsilon: float = AXIS_EPSILON

    def __post_init__(self):
        if not math.isfinite(self.lambda_c):
            raise ValidationError(f"lambda_c must be finite, got {self.lambda_c!r}")
        self.axis_point.require_finite("axis_point")
        if not (math.isfinite(self.axis_epsilon) and self.axis_epsilon > 0.0):
            raise ValidationError(f"axis_epsilon must be positive, got {self.axis_epsilon!r}")


@dataclass(frozen=True, slots=True)
class NeutronModel:
    """Current-loop model of the neutron: mass (g) and magnetic moment mu
    (erg/G), restricted in v1 to polarization along the line axis (+-z)."""

    mass: float
    mu: Vec3

    def __post_init__(self):
        if not (math.isfinite(self.mass) and self.mass > 0.0):
            raise ValidationError(f"mass must be positive, got {self.mass!r}")
        self.mu.require_finite("mu")
        transverse = math.hypot(self.mu.x, self.mu.y)
        if transverse > 1e-12 * self.mu.norm():
            raise ValidationError(
                "v1 requires mu parallel to the line axis (z); "
                f"got transverse component {transverse!r}"
            )


@dataclass(frozen=True, slots=True)
class TrajectoryState:
    """Integrator state: time t (s), position (cm), kinetic velocity (cm/s)."""

    t: float
    pos: Vec3
    vel: Vec3

    def __post_init__(self):
        p, v = self.pos, self.vel
        isfinite = math.isfinite
        if not (
            isfinite(p.x) and isfinite(p.y) and isfinite(p.z)
            and isfinite(v.x) and isfinite(v.y) and isfinite(v.z)
        ):
            p.require_finite("pos")  # builds the message
            v.require_finite("vel")


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


def _axis_error(lc: LineCharge, x: float, y: float) -> SingularityError:
    return SingularityError(
        f"position ({x!r}, {y!r}) lies within {lc.axis_epsilon:g} cm of the charged line"
    )


def _radial(lc: LineCharge, x: float, y: float) -> tuple[float, float, float]:
    rx = x - lc.axis_point.x
    ry = y - lc.axis_point.y
    rho2 = rx * rx + ry * ry
    if rho2 < lc.axis_epsilon * lc.axis_epsilon:
        raise _axis_error(lc, x, y)
    return rx, ry, rho2


def _line_field(lc: LineCharge, x: float, y: float) -> tuple[float, float]:
    rx, ry, rho2 = _radial(lc, x, y)
    s = 2.0 * lc.lambda_c / rho2
    return s * rx, s * ry


def _hidden_momentum(lc: LineCharge, mu: Vec3, inv_c: float, x: float, y: float) -> tuple[float, float, float]:
    # (mu x E)/c; E.z = 0.0 is kept as a factor.  One body, no helper calls:
    # this is the loop-phase hot path (see the module docstring).
    rx = x - lc.axis_point.x  # _radial's axis check, inlined
    ry = y - lc.axis_point.y
    rho2 = rx * rx + ry * ry
    if rho2 < lc.axis_epsilon * lc.axis_epsilon:
        raise _axis_error(lc, x, y)
    s = 2.0 * lc.lambda_c / rho2
    ex = s * rx
    ey = s * ry
    return (
        (mu.y * 0.0 - mu.z * ey) * inv_c,
        (mu.z * ex - mu.x * 0.0) * inv_c,
        (mu.x * ey - mu.y * ex) * inv_c,
    )


def _acceleration(
    lc: LineCharge,
    mu: Vec3,
    inv_c: float,
    inv_m: float,
    naive: bool,
    x: float,
    y: float,
    vx: float,
    vy: float,
    vz: float,
    terms: bool = False,
):
    """Acceleration (F - (v . grad)p_h)/m under the full law, F/m under the
    naive law.  With terms=True and naive False it returns the Jacobian
    entries (exx, exy, eyy), F and (v . grad)p_h instead, for the Vec3
    wrappers.  One body, no helper calls: this is the RK4 hot path (see the
    module docstring for its bit-identity contract)."""
    rx = x - lc.axis_point.x  # _radial's axis check, inlined
    ry = y - lc.axis_point.y
    rho2 = rx * rx + ry * ry
    if rho2 < lc.axis_epsilon * lc.axis_epsilon:
        raise _axis_error(lc, x, y)
    # Jacobian entries: exx = dEx/dx, exy = dEx/dy = dEy/dx, eyy = dEy/dy.
    pref = 2.0 * lc.lambda_c / (rho2 * rho2)
    x2 = rx * rx
    y2 = ry * ry
    xy = rx * ry
    exx = pref * (y2 - x2)
    exy = pref * (-2.0 * xy)
    eyy = pref * (x2 - y2)
    # F = (d . grad)E with d = (v x mu)/c; d.z meets dE/dz = 0 and drops out.
    dx = (vy * mu.z - vz * mu.y) * inv_c
    dy = (vz * mu.x - vx * mu.z) * inv_c
    fx = exx * dx + exy * dy
    fy = exy * dx + eyy * dy
    fz = 0.0 * dx + 0.0 * dy
    if naive:
        return fx * inv_m, fy * inv_m, fz * inv_m
    # (v . grad)[(mu x E)/c] = mu x [(v . grad)E] / c; v.z meets dE/dz = 0.
    ex = exx * vx + exy * vy
    ey = exy * vx + eyy * vy
    ez = 0.0 * vx + 0.0 * vy
    qx = (mu.y * ez - mu.z * ey) * inv_c
    qy = (mu.z * ex - mu.x * ez) * inv_c
    qz = (mu.x * ey - mu.y * ex) * inv_c
    if terms:
        return (exx, exy, eyy), (fx, fy, fz), (qx, qy, qz)
    # The full law subtracts the two independently formed terms; it never
    # short-circuits to zero, since their cancellation is the claim under test.
    return (fx - qx) * inv_m, (fy - qy) * inv_m, (fz - qz) * inv_m


def _terms(lc: LineCharge, pos: Vec3, vel: Vec3, mu: Vec3, inv_c: float):
    return _acceleration(lc, mu, inv_c, 1.0, False, pos.x, pos.y, vel.x, vel.y, vel.z, True)


def line_field(lc: LineCharge, pos: Vec3) -> Vec3:
    """Electric field 2*lambda_c/rho radially outward from the line (statV/cm)."""
    ex, ey = _line_field(lc, pos.x, pos.y)
    return Vec3(ex, ey, 0.0)


def line_field_gradient(lc: LineCharge, pos: Vec3) -> tuple[Vec3, Vec3]:
    """Columns dE/dx and dE/dy of the field Jacobian (dE/dz vanishes)."""
    (exx, exy, eyy), _, _ = _terms(lc, pos, ZERO3, ZERO3, 1.0)
    return Vec3(exx, exy, 0.0), Vec3(exy, eyy, 0.0)


def induced_dipole(vel: Vec3, mu: Vec3, k: PhysicalConstants) -> Vec3:
    """Electric dipole (v x mu)/c induced on a moving magnetic moment."""
    return cross(vel, mu) * (1.0 / k.c)


def boyer_force(lc: LineCharge, pos: Vec3, vel: Vec3, mu: Vec3, k: PhysicalConstants) -> Vec3:
    """Gradient force (d . grad)E on the induced dipole (dyn)."""
    return Vec3(*_terms(lc, pos, vel, mu, 1.0 / k.c)[1])


def hidden_momentum(lc: LineCharge, pos: Vec3, mu: Vec3, k: PhysicalConstants) -> Vec3:
    """Hidden mechanical momentum (mu x E)/c of a current loop in the line field."""
    return Vec3(*_hidden_momentum(lc, mu, 1.0 / k.c, pos.x, pos.y))


def hidden_momentum_rate(
    lc: LineCharge, pos: Vec3, vel: Vec3, mu: Vec3, k: PhysicalConstants
) -> Vec3:
    """Convective rate (v . grad)[(mu x E)/c] along a trajectory through pos."""
    return Vec3(*_terms(lc, pos, vel, mu, 1.0 / k.c)[2])


def _rk4(
    lc: LineCharge,
    mu: Vec3,
    inv_c: float,
    inv_m: float,
    naive: bool,
    dt: float,
    x0: float,
    y0: float,
    z0: float,
    vx0: float,
    vy0: float,
    vz0: float,
    accel: tuple[float, float, float] | None = None,
) -> tuple[float, float, float, float, float, float]:
    """One RK4 step of the state (x, y, z, vx, vy, vz) on plain floats; the
    arguments before ``dt`` are _acceleration's.  ``accel`` is the stage-1
    acceleration when the caller holds it.  Raises SingularityError when a
    stage or the landing point is inside the axis neighbourhood."""
    half = 0.5 * dt
    if accel is None:
        accel = _acceleration(lc, mu, inv_c, inv_m, naive, x0, y0, vx0, vy0, vz0)
    ax1, ay1, az1 = accel
    vx2, vy2, vz2 = vx0 + ax1 * half, vy0 + ay1 * half, vz0 + az1 * half
    ax2, ay2, az2 = _acceleration(lc, mu, inv_c, inv_m, naive, x0 + vx0 * half, y0 + vy0 * half, vx2, vy2, vz2)
    vx3, vy3, vz3 = vx0 + ax2 * half, vy0 + ay2 * half, vz0 + az2 * half
    ax3, ay3, az3 = _acceleration(lc, mu, inv_c, inv_m, naive, x0 + vx2 * half, y0 + vy2 * half, vx3, vy3, vz3)
    vx4, vy4, vz4 = vx0 + ax3 * dt, vy0 + ay3 * dt, vz0 + az3 * dt
    ax4, ay4, az4 = _acceleration(lc, mu, inv_c, inv_m, naive, x0 + vx3 * dt, y0 + vy3 * dt, vx4, vy4, vz4)
    sixth = dt / 6.0
    x = x0 + (vx0 + (vx2 + vx3) * 2.0 + vx4) * sixth
    y = y0 + (vy0 + (vy2 + vy3) * 2.0 + vy4) * sixth
    _radial(lc, x, y)  # reject steps that land inside the axis neighbourhood
    return (
        x,
        y,
        z0 + (vz0 + (vz2 + vz3) * 2.0 + vz4) * sixth,
        vx0 + (ax1 + (ax2 + ax3) * 2.0 + ax4) * sixth,
        vy0 + (ay1 + (ay2 + ay3) * 2.0 + ay4) * sixth,
        vz0 + (az1 + (az2 + az3) * 2.0 + az4) * sixth,
    )


def step_trajectory(
    lc: LineCharge,
    n: NeutronModel,
    state: TrajectoryState,
    dt: float,
    law: str,
    k: PhysicalConstants,
    *,
    accel: tuple[float, float, float] | None = None,
) -> TrajectoryState:
    """Advance one fixed RK4 step under the selected law.

    ``accel`` is the stage-1 acceleration at ``state``, as ``_acceleration``
    returns it, when the caller already holds it; by default the step
    evaluates it.  Either way the result is the same to the bit.

    Any stage that reaches the axis neighbourhood raises SingularityError and
    the step is rejected (the input state is returned unchanged by virtue of
    never being mutated).
    """
    if not (dt > 0.0 and math.isfinite(dt)):
        raise DomainError(f"dt must be positive, got {dt!r}")
    _check_law(law)
    p, v = state.pos, state.vel
    x, y, z, vx, vy, vz = _rk4(
        lc, n.mu, 1.0 / k.c, 1.0 / n.mass, law == NAIVE_LAW, dt, p.x, p.y, p.z, v.x, v.y, v.z, accel
    )
    return TrajectoryState(state.t + dt, Vec3(x, y, z), Vec3(vx, vy, vz))


def kinetic_energy(n: NeutronModel, state: TrajectoryState) -> float:
    v = state.vel
    return 0.5 * n.mass * (v.x * v.x + v.y * v.y + v.z * v.z)


@dataclass(frozen=True, slots=True)
class BounceSample:
    t: float
    pos: Vec3
    vel: Vec3
    kinetic_energy: float
    hidden_momentum: Vec3


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
# leading argument tuple of _acceleration: (lc, mu, 1/c, 1/m, naive).


def _evaluate(kernel: tuple, mass: float, st: TrajectoryState) -> tuple[tuple[float, float, float], float]:
    # Acceleration at st and the rate of work m a.v of the net force.
    pos, vel = st.pos, st.vel
    accel = _acceleration(*kernel, pos.x, pos.y, vel.x, vel.y, vel.z)
    ax, ay, az = accel
    return accel, (ax * vel.x + ay * vel.y + az * vel.z) * mass


def _work_over_substep(
    lc: LineCharge,
    n: NeutronModel,
    start: TrajectoryState,
    h: float,
    law: str,
    k: PhysicalConstants,
    kernel: tuple,
    accel: tuple[float, float, float],
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
    accel: tuple[float, float, float],
) -> tuple[float, TrajectoryState]:
    # Land the step from start, whose full length dt reaches end on or beyond
    # the plane, within two float spacings of the plane: safeguarded Newton
    # on x(h) = plane with slope vx(h).  The spacing is that of the larger of
    # plane and start x, since x is their sum with the step's increment.
    tol = 2.0 * math.ulp(max(abs(plane), abs(start.pos.x)))
    if abs(end.pos.x - plane) <= tol:
        return dt, end
    lo, hi = 0.0, dt
    h, hit = 0.0, start  # the first Newton step is the straight-line guess
    for _ in range(MAX_LANDING_STEPS):
        vx = hit.vel.x
        h = h - (hit.pos.x - plane) / vx if vx else lo
        if not lo < h < hi:  # outside the bracket: bisect
            h = 0.5 * (lo + hi)
        hit = step_trajectory(lc, n, start, h, law, k, accel=accel)
        offset = hit.pos.x - plane
        if abs(offset) <= tol:
            return h, hit
        if offset * inside_sign > 0.0:  # still inside the cavity
            lo = h
        else:
            hi = h
    raise NumericalError(
        f"{law} law: mirror crossing at x = {plane!r} cm not landed within {tol!r} cm in "
        f"{MAX_LANDING_STEPS} RK4 steps (t = {hit.t!r} s, x = {hit.pos.x!r} cm)"
    )


def _bounce_sample(lc: LineCharge, n: NeutronModel, inv_c: float, st: TrajectoryState) -> BounceSample:
    pos = st.pos
    p_h = _hidden_momentum(lc, n.mu, inv_c, pos.x, pos.y)
    return BounceSample(st.t, pos, st.vel, kinetic_energy(n, st), Vec3(*p_h))


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
    cfg.check_start(initial.pos.x)
    lo_mirror, hi_mirror = sorted((cfg.mirror_a, cfg.mirror_b))
    if initial.vel.x == 0.0:
        raise ValidationError("initial velocity needs a component along the flight (x) axis")
    center = 0.5 * (lo_mirror + hi_mirror)
    law, dt, max_steps = cfg.law, cfg.dt, MAX_STEPS
    kernel = (lc, n.mu, 1.0 / k.c, 1.0 / n.mass, law == NAIVE_LAW)

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
                f"{max_steps} RK4 steps (t = {state.t!r} s, x = {state.pos.x!r} cm)"
            )
        steps += 1
        nxt = step_trajectory(lc, n, state, dt, law, k, accel=accel)
        x = nxt.pos.x
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
        state = TrajectoryState(hit.t, hit.pos, Vec3(-hit.vel.x, hit.vel.y, hit.vel.z))
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
    """Counterclockwise circle of given radius in the plane z = center.z."""

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


def _loop_integrands(
    loop: LoopPath, lc: LineCharge, mu: Vec3, inv_c: float
) -> list[Callable[[float], float]]:
    """One integrand p_h(point(t)) . tangent(t) per segment, each over t in [0, 1]."""
    if isinstance(loop, CircleLoop):
        cx, cy, rad = loop.center.x, loop.center.y, loop.radius
        two_pi = 2.0 * math.pi
        speed = rad * two_pi  # |d point/dt|; -speed is (-rad) * two_pi to the bit
        cos, sin = math.cos, math.sin

        def circle(t: float) -> float:
            ang = two_pi * t
            c, s = cos(ang), sin(ang)
            px, py, pz = _hidden_momentum(lc, mu, inv_c, cx + rad * c, cy + rad * s)
            return px * (-speed * s) + py * (speed * c) + pz * 0.0

        return [circle]
    if isinstance(loop, PolylineLoop):
        segments = []
        for a, b in zip(loop.vertices, loop.vertices[1:]):

            def segment(t: float, ax=a.x, ay=a.y, dx=b.x - a.x, dy=b.y - a.y, dz=b.z - a.z) -> float:
                px, py, pz = _hidden_momentum(lc, mu, inv_c, ax + dx * t, ay + dy * t)
                return px * dx + py * dy + pz * dz

            segments.append(segment)
        return segments
    raise ValidationError(f"unsupported loop path {loop!r}")


def _point_segment_clearance(a: Vec3, b: Vec3, px: float, py: float) -> float:
    # distance in the x-y plane from (px, py) to the segment [a, b]
    ax, ay = a.x - px, a.y - py
    bx, by = b.x - px, b.y - py
    dx, dy = bx - ax, by - ay
    len2 = dx * dx + dy * dy
    if len2 == 0.0:
        return math.hypot(ax, ay)
    t = min(1.0, max(0.0, -(ax * dx + ay * dy) / len2))
    return math.hypot(ax + t * dx, ay + t * dy)


def path_axis_clearance(loop: LoopPath, lc: LineCharge) -> float:
    """Minimum distance from the loop to the charged line (in the x-y plane)."""
    px, py = lc.axis_point.x, lc.axis_point.y
    if isinstance(loop, CircleLoop):
        return abs(math.hypot(loop.center.x - px, loop.center.y - py) - loop.radius)
    return min(
        _point_segment_clearance(a, b, px, py)
        for a, b in zip(loop.vertices, loop.vertices[1:])
    )


def ac_phase(
    lc: LineCharge,
    mu: Vec3,
    loop: LoopPath,
    k: PhysicalConstants,
    rel_tol: float = 1e-10,
) -> float:
    """Phase (1/hbar) contour_integral (mu x E)/c . dl around a closed path.

    Evaluated per segment by panel-doubling composite Gauss-Legendre to
    rel_tol, with an absolute floor tied to the integrand magnitude so loops
    that enclose no charge (integral zero by symmetry) still converge.
    """
    clearance = path_axis_clearance(loop, lc)
    if clearance < lc.axis_epsilon:
        raise SingularityError(
            f"loop path comes within {clearance:.3e} cm of the charged line "
            f"(minimum clearance {lc.axis_epsilon:g} cm)"
        )
    integrands = _loop_integrands(loop, lc, mu, 1.0 / k.c)

    # Natural zero scale: peak |p_h| x loop scale, probed on a coarse grid.
    probe = 0.0
    for f in integrands:
        for i in range(8):
            probe = max(probe, abs(f((i + 0.5) / 8)))
    abs_floor = rel_tol * probe * 1e-3

    total = 0.0
    for f in integrands:
        total += refine_gauss_legendre(f, 0.0, 1.0, rel_tol=rel_tol, abs_floor=abs_floor)
    return total / k.hbar


def ac_phase_enclosed_value(lc: LineCharge, mu: Vec3, k: PhysicalConstants, winding: int = 1) -> float:
    """Analytic per-winding value 4*pi*mu_z*lambda_c/(hbar*c) of the loop phase."""
    return winding * 4.0 * math.pi * mu.z * lc.lambda_c / (k.hbar * k.c)


def loop_winding_number(loop: LoopPath, lc: LineCharge) -> int:
    """Winding number of the loop around the charged line."""
    if isinstance(loop, CircleLoop):
        offset = math.hypot(
            loop.center.x - lc.axis_point.x, loop.center.y - lc.axis_point.y
        )
        return 1 if offset < loop.radius else 0
    total = 0.0
    for a, b in zip(loop.vertices, loop.vertices[1:]):
        ang_a = math.atan2(a.y - lc.axis_point.y, a.x - lc.axis_point.x)
        ang_b = math.atan2(b.y - lc.axis_point.y, b.x - lc.axis_point.x)
        delta = ang_b - ang_a
        while delta > math.pi:
            delta -= 2.0 * math.pi
        while delta < -math.pi:
            delta += 2.0 * math.pi
        total += delta
    return round(total / (2.0 * math.pi))
