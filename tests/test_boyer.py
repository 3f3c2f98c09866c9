import copy
import math
import pickle
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from abclab import (
    BounceConfig,
    CircleLoop,
    DomainError,
    FULL_LAW,
    LineCharge,
    NAIVE_LAW,
    NeutronModel,
    NumericalError,
    PolylineLoop,
    SingularityError,
    TrajectoryState,
    ValidationError,
    Vec3,
    acceleration_law,
    ac_phase,
    ac_phase_enclosed_value,
    boyer,
    kinetic_energy,
    line_field,
    load_scenario,
    loop_winding_number,
    make_constants,
    quadrature,
    run_scenario,
    simulate_bounce_experiment,
    step_trajectory,
    verify,
)

K1 = make_constants("scaled-unity")
LINE = LineCharge(lambda_c=1.0)
MU_Z = 1.0
NEUTRON = NeutronModel(mass=1.0, mu_z=MU_Z)


def test_line_field_unit_distance():
    assert line_field(LINE, Vec3(1.0, 0.0, 0.0)) == Vec3(2.0, 0.0, 0.0)


def test_line_field_zero_charge():
    assert line_field(LineCharge(lambda_c=0.0), Vec3(0.3, -0.4, 2.0)) == Vec3(0.0, 0.0, 0.0)


def test_line_field_inverse_distance():
    near = line_field(LINE, Vec3(1.0, 0.0, 0.0)).norm()
    far = line_field(LINE, Vec3(2.0, 0.0, 0.0)).norm()
    assert far == pytest.approx(near / 2.0, rel=1e-15)


def test_line_field_singularity():
    with pytest.raises(SingularityError):
        line_field(LINE, Vec3(0.0, 0.0, 5.0))
    with pytest.raises(SingularityError):
        line_field(LINE, Vec3(1e-10, 0.0, 0.0))


def test_neutron_model_validation():
    with pytest.raises(ValidationError):
        NeutronModel(mass=0.0, mu_z=MU_Z)
    with pytest.raises(ValidationError, match=r"^mu_z must be finite, got nan$"):
        NeutronModel(mass=1.0, mu_z=math.nan)


# The force terms and p_h at unit inverse mass, from the laws the dynamics
# integrates: the naive law's acceleration is F, the full law's F - (v . grad)p_h.
_force = acceleration_law(LINE, NEUTRON, NAIVE_LAW, K1)
_net_force = acceleration_law(LINE, NEUTRON, FULL_LAW, K1)


def _step(lc, n, state, dt, law, k):
    # one RK4 step of a TrajectoryState through the law builder and the float stepper
    return TrajectoryState(*step_trajectory(acceleration_law(lc, n, law, k), dt, *state))


def _p_h(x, y, mu_z=MU_Z):
    return boyer._hidden_momentum(2.0 * LINE.lambda_c, mu_z, 1.0 / K1.c, x, y)


def test_induced_dipole_x_cross_z():
    # at (1, 0) the field Jacobian is diag(-2, 2), so F = (-2 d_x, 2 d_y)
    # reads the dipole d = (v x mu)/c: v = 5 x-hat gives d = -5 y-hat
    assert _force(1.0, 0.0, 5.0, 0.0) == (0.0, -10.0)


def test_induced_dipole_flips_with_velocity():
    # the dipole, and with it the force, is odd in the velocity
    fwd = _force(1.3, -0.4, 2.0, -1.0)
    back = _force(1.3, -0.4, -2.0, 1.0)
    assert back == (-fwd[0], -fwd[1]) and fwd != (0.0, 0.0)


def test_boyer_force_closed_form_anchor():
    fx, fy = _force(1.0, 0.0, 0.0, 1.0)
    assert fx == pytest.approx(-2.0, rel=1e-15)
    assert abs(fy) <= 1e-15


def test_boyer_force_zero_velocity():
    assert _force(1.0, 2.0, 0.0, 0.0) == (0.0, 0.0)


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1]


def test_boyer_force_accelerates_in_bounce_orientation():
    # approach along the flight line offset from the charged line: the force
    # has a positive component along the velocity, and reversing the velocity
    # (which reverses the induced dipole too) keeps the power positive
    assert _dot(_force(3.0, 0.5, -2.0, 0.0), (-2.0, 0.0)) > 0.0
    assert _dot(_force(3.0, 0.5, 2.0, 0.0), (2.0, 0.0)) > 0.0


def test_boyer_force_radial_power_vanishes():
    # head-on radial motion: the induced dipole is azimuthal and the force is
    # exactly perpendicular to the velocity
    force = _force(2.0, 0.0, -1.0, 0.0)
    assert _dot(force, (-1.0, 0.0)) == 0.0
    assert force[1] > 0.0


def _fd_force(lc, pos, vel, mu, k, h):
    d = vel.cross(Vec3(0.0, 0.0, mu)) * (1.0 / k.c)
    dedx = (line_field(lc, Vec3(pos.x + h, pos.y, pos.z)) - line_field(lc, Vec3(pos.x - h, pos.y, pos.z))) * (
        1.0 / (2.0 * h)
    )
    dedy = (line_field(lc, Vec3(pos.x, pos.y + h, pos.z)) - line_field(lc, Vec3(pos.x, pos.y - h, pos.z))) * (
        1.0 / (2.0 * h)
    )
    return dedx * d.x + dedy * d.y


def test_boyer_force_matches_finite_differences():
    pos, vel = Vec3(1.1, 0.7, 0.0), Vec3(0.8, -0.5, 0.0)
    exact = Vec3(*_force(pos.x, pos.y, vel.x, vel.y), 0.0)
    errors = [(_fd_force(LINE, pos, vel, MU_Z, K1, h) - exact).norm() for h in (0.04, 0.02, 0.01)]
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    # second order up to the O(h^2) width of the order estimate itself
    assert min(orders) >= 1.99
    rich = (_fd_force(LINE, pos, vel, MU_Z, K1, 0.01) * 4.0 - _fd_force(LINE, pos, vel, MU_Z, K1, 0.02)) * (
        1.0 / 3.0
    )
    assert (rich - exact).norm() <= 1e-7 * exact.norm()


def test_hidden_momentum_anchor():
    assert _p_h(1.0, 0.0) == (0.0, 2.0)


def test_hidden_momentum_zero_moment():
    assert _p_h(1.0, 0.0, mu_z=0.0) == (0.0, 0.0)


def test_hidden_momentum_magnitude_azimuth_independent():
    # |p_h| = 2 mu lambda / (c rho) around the line
    rho = 1.7
    for angle in (0.0, 0.9, 2.3, 4.0):
        assert math.hypot(*_p_h(rho * math.cos(angle), rho * math.sin(angle))) == pytest.approx(2.0 / rho, rel=1e-14)


def test_momentum_rate_equals_force_anchor():
    force, net = _force(1.0, 0.0, 0.0, 1.0), _net_force(1.0, 0.0, 0.0, 1.0)
    assert force[0] == pytest.approx(-2.0, rel=1e-15)
    assert math.hypot(*net) <= 1e-15


def test_momentum_rate_zero_velocity():
    assert _net_force(0.5, 0.5, 0.0, 0.0) == (0.0, 0.0)


def test_directional_difference_of_hidden_momentum_converges_to_force():
    # (p_h(r + v h) - p_h(r - v h)) / 2h -> (v . grad)p_h at second order; its
    # limit is the naive-law force F, a route that shares no code with the
    # kernel's Jacobian
    x, y, vx, vy = 0.9, -1.3, 0.6, 0.4
    fx, fy = _force(x, y, vx, vy)
    errors = []
    for h in (0.02, 0.01, 0.005):
        (ax, ay), (bx, by) = _p_h(x + vx * h, y + vy * h), _p_h(x - vx * h, y - vy * h)
        errors.append(math.hypot((ax - bx) / (2.0 * h) - fx, (ay - by) / (2.0 * h) - fy))
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert min(orders) >= 1.99
    assert errors[-1] <= 1e-5 * math.hypot(fx, fy)


def test_force_equals_momentum_rate_randomized():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        rho = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        angle = float(rng.uniform(0.0, 2.0 * math.pi))
        x, y = rho * math.cos(angle), rho * math.sin(angle)
        rng.uniform(-1, 1)  # a z; the line field does not depend on it
        vx, vy = float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))
        force, net = _force(x, y, vx, vy), _net_force(x, y, vx, vy)
        assert max(abs(net[0]), abs(net[1])) <= 1e-10 * max(math.hypot(*force), 1e-300)


def _speed(state):
    return math.hypot(state.vx, state.vy)


def test_full_law_preserves_speed_over_many_steps():
    state = TrajectoryState(0.0, 2.5, 0.8, -1.2, 0.7)
    speed0 = _speed(state)
    for _ in range(10_000):
        state = _step(LINE, NEUTRON, state, 1e-3, FULL_LAW, K1)
    assert abs(_speed(state) / speed0 - 1.0) < 1e-8


def test_naive_law_speeds_up_during_approach():
    # Fig-geometry orientation: every step gains speed while closing in
    state = TrajectoryState(0.0, 3.0, 0.5, -2.0, 0.0)
    speed = _speed(state)
    for _ in range(200):
        state = _step(LINE, NEUTRON, state, 1e-3, NAIVE_LAW, K1)
        assert _speed(state) > speed
        speed = _speed(state)


def test_naive_law_speeds_up_from_pure_radial_start():
    # even head on, the growing azimuthal velocity makes each full step gain
    state = TrajectoryState(0.0, 2.0, 0.0, -1.0, 0.0)
    speed = _speed(state)
    for _ in range(100):
        state = _step(LINE, NEUTRON, state, 1e-2, NAIVE_LAW, K1)
        assert _speed(state) > speed
        speed = _speed(state)


def test_zero_charge_trajectories_agree_between_laws():
    empty = LineCharge(lambda_c=0.0)
    full = TrajectoryState(0.0, 2.0, 0.5, -1.0, 0.4)
    naive = full
    for _ in range(500):
        full = _step(empty, NEUTRON, full, 1e-2, FULL_LAW, K1)
        naive = _step(empty, NEUTRON, naive, 1e-2, NAIVE_LAW, K1)
        assert math.hypot(full.x - naive.x, full.y - naive.y) <= 1e-12


def test_step_rejected_on_axis_entry():
    # a stage evaluation inside the axis neighbourhood rejects the whole step
    state = TrajectoryState(0.0, 2e-9, 0.0, -1.0, 0.0)
    with pytest.raises(SingularityError):
        _step(LINE, NEUTRON, state, 4e-9, FULL_LAW, K1)


def test_step_validates_inputs():
    state = TrajectoryState(0.0, 1.0, 0.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        _step(LINE, NEUTRON, state, 0.0, FULL_LAW, K1)
    with pytest.raises(ValidationError):
        _step(LINE, NEUTRON, state, 0.1, "symplectic", K1)


def test_trajectory_state_rejects_non_finite_components():
    with pytest.raises(ValidationError, match=r"^state has non-finite components: TrajectoryState\(t=0\.0, x=nan"):
        TrajectoryState(0.0, math.nan, 0.5, -2.0, 0.0)
    with pytest.raises(ValidationError):
        TrajectoryState(0.0, 3.0, 0.5, -2.0, math.inf)


def test_trajectory_state_rejects_a_non_finite_time():
    # a NaN time used to pass, and a naive-law bounce from it reported its
    # bounce times as (nan, nan) without raising
    with pytest.raises(ValidationError, match=r"^state has non-finite components: TrajectoryState\(t=nan, x=3\.0"):
        TrajectoryState(math.nan, 3.0, 0.5, -2.0, 0.0)
    with pytest.raises(ValidationError, match=r"^state has non-finite components: TrajectoryState\(t=-inf"):
        TrajectoryState(-math.inf, 3.0, 0.5, -2.0, 0.0)


STATE_FIELDS = ("t", "x", "y", "vx", "vy")
STATE_FLOATS = (0.25, 3.0, 0.5, -2.0, 0.0)


def _forged(floats):
    # a state that skipped validation, as the stock NamedTuple _make builds one
    return tuple.__new__(TrajectoryState, floats)


STATE_BUILDERS = {
    "positional": lambda floats: TrajectoryState(*floats),
    "keyword": lambda floats: TrajectoryState(**dict(zip(STATE_FIELDS, floats))),
    "_make": lambda floats: TrajectoryState._make(iter(floats)),
    "_replace": lambda floats: TrajectoryState(*STATE_FLOATS)._replace(**dict(zip(STATE_FIELDS, floats))),
    "copy": lambda floats: copy.copy(_forged(floats)),
    "deepcopy": lambda floats: copy.deepcopy(_forged(floats)),
    **{
        f"pickle{protocol}": lambda floats, protocol=protocol: pickle.loads(pickle.dumps(_forged(floats), protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    },
}


@pytest.mark.parametrize("build", STATE_BUILDERS.values(), ids=STATE_BUILDERS)
def test_every_way_of_building_a_state_validates(build):
    state = build(STATE_FLOATS)
    assert type(state) is TrajectoryState and state == STATE_FLOATS
    for i in range(5):
        for bad in (math.nan, math.inf, -math.inf):
            floats = STATE_FLOATS[:i] + (bad,) + STATE_FLOATS[i + 1 :]
            fields = ", ".join(f"{name}={value!r}" for name, value in zip(STATE_FIELDS, floats))
            with pytest.raises(ValidationError) as caught:
                build(floats)
            assert str(caught.value) == f"state has non-finite components: TrajectoryState({fields})"


def test_trajectory_state_is_an_immutable_tuple_that_reprs_and_hashes_as_before():
    # the repr and hash are those the frozen dataclass it replaced gave
    state = TrajectoryState(*STATE_FLOATS)
    assert repr(state) == "TrajectoryState(t=0.25, x=3.0, y=0.5, vx=-2.0, vy=0.0)"
    assert hash(state) == hash(STATE_FLOATS) == hash(TrajectoryState(*STATE_FLOATS))
    assert state == TrajectoryState(*STATE_FLOATS) == STATE_FLOATS != TrajectoryState(0.25, 3.0, 0.5, -2.0, 1.0)
    for name in (*STATE_FIELDS, "z"):
        with pytest.raises(AttributeError):
            setattr(state, name, 1.0)
    assert state == STATE_FLOATS


# Reference: the Vec3 formulation of the field Jacobian, the two force terms,
# the acceleration and the RK4 step that the planar kernel replaced, on the
# geometry the kernel supports: the line on the z axis, mu = (0, 0, mu_z) and
# z = vz = 0.  The kernel must reproduce every step bit for bit, and every
# force term up to the sign of a zero (see the boyer module docstring).


def _ref_gradient(lc, pos):
    rx = pos.x
    ry = pos.y
    rho2 = rx * rx + ry * ry
    if rho2 < boyer.AXIS_EPSILON * boyer.AXIS_EPSILON:
        raise SingularityError("reference: inside the axis neighbourhood")
    pref = 2.0 * lc.lambda_c / (rho2 * rho2)
    x2 = rx * rx
    y2 = ry * ry
    xy = rx * ry
    dedx = Vec3(pref * (y2 - x2), pref * (-2.0 * xy), 0.0)
    dedy = Vec3(pref * (-2.0 * xy), pref * (x2 - y2), 0.0)
    return dedx, dedy


def _ref_force(lc, pos, vel, mu, k):
    d = vel.cross(mu) * (1.0 / k.c)
    dedx, dedy = _ref_gradient(lc, pos)
    return dedx * d.x + dedy * d.y


def _ref_rate(lc, pos, vel, mu, k):
    dedx, dedy = _ref_gradient(lc, pos)
    de_along = dedx * vel.x + dedy * vel.y
    return mu.cross(de_along) * (1.0 / k.c)


def _ref_acceleration(lc, mass, mu, pos, vel, law, k):
    force = _ref_force(lc, pos, vel, mu, k)
    if law == NAIVE_LAW:
        return force * (1.0 / mass)
    rate = _ref_rate(lc, pos, vel, mu, k)
    return (force - rate) * (1.0 / mass)


def _ref_step(lc, mass, mu, state, dt, law, k):
    """One RK4 step of (t, pos, vel) Vec3 triples."""
    t, p0, v0 = state
    half = 0.5 * dt
    a1 = _ref_acceleration(lc, mass, mu, p0, v0, law, k)
    p2 = p0 + v0 * half
    v2 = v0 + a1 * half
    a2 = _ref_acceleration(lc, mass, mu, p2, v2, law, k)
    p3 = p0 + v2 * half
    v3 = v0 + a2 * half
    a3 = _ref_acceleration(lc, mass, mu, p3, v3, law, k)
    p4 = p0 + v3 * dt
    v4 = v0 + a3 * dt
    a4 = _ref_acceleration(lc, mass, mu, p4, v4, law, k)
    sixth = dt / 6.0
    pos = p0 + (v0 + (v2 + v3) * 2.0 + v4) * sixth
    vel = v0 + (a1 + (a2 + a3) * 2.0 + a4) * sixth
    _ref_gradient(lc, pos)
    return t + dt, pos, vel


def _bits(*values):
    # float.hex also tells -0.0 from 0.0, which == does not
    return tuple(v.hex() for v in values)


def _bits_but_zero_sign(*values):
    return tuple("0" if v == 0.0 else v.hex() for v in values)


def _state_bits(state):
    return _bits(state.t, state.x, state.y, state.vx, state.vy)


def _ref_state_bits(ref):
    t, pos, vel = ref
    assert pos.z == 0.0 and vel.z == 0.0
    return _bits(t, pos.x, pos.y, vel.x, vel.y)


def _random_case(rng, near_axis):
    """A line, a moment mu_z, an off-axis state in the plane z = 0 and a step
    length.  Each of lambda, mu_z, y and vy is exactly 0.0 in one case in
    six, where a dropped 0.0 factor could flip a zero's sign.  Near the axis
    the case is scaled down so that the axis neighbourhood AXIS_EPSILON
    plays the part of a 0.05 cm radius."""
    scale = boyer.AXIS_EPSILON / 0.05 if near_axis else 1.0

    def draw(value):
        return 0.0 if rng.integers(0, 6) == 0 else value

    lam = draw(float(rng.choice([-1.0, 1.0]) * np.exp(rng.uniform(np.log(1e-3), np.log(10.0)))))
    mu_z = draw(float(rng.choice([-1.0, 1.0]) * np.exp(rng.uniform(np.log(0.1), np.log(10.0)))))
    mass = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
    rho = float(rng.uniform(0.05, 0.3)) if near_axis else float(np.exp(rng.uniform(np.log(0.2), np.log(5.0))))
    phi = float(rng.uniform(0.0, 2.0 * math.pi))
    x, y = scale * rho * math.cos(phi), draw(scale * rho * math.sin(phi))
    vx, vy = float(rng.uniform(-3, 3)), draw(float(rng.uniform(-3, 3)))
    dt = scale * (0.2 if near_axis else 0.01) * float(np.exp(rng.uniform(np.log(0.1), np.log(1.0))))
    k = K1 if rng.integers(0, 2) else make_constants("gaussian-cgs")
    state = TrajectoryState(float(rng.uniform(0, 5)), x, y, vx, vy)
    return LineCharge(lambda_c=scale * lam), NeutronModel(mass=mass, mu_z=mu_z), state, dt, k


def _ref_state(state):
    return state.t, Vec3(state.x, state.y, 0.0), Vec3(state.vx, state.vy, 0.0)


@pytest.mark.parametrize("law", [FULL_LAW, NAIVE_LAW])
def test_scalar_kernel_matches_vec3_reference_bit_for_bit(law):
    rng = np.random.default_rng(2024)
    zeros = set()
    for _ in range(400):
        lc, neutron, state, dt, k = _random_case(rng, near_axis=False)
        mu = Vec3(0.0, 0.0, neutron.mu_z)
        zeros.update(name for name, v in (("lambda", lc.lambda_c), ("mu_z", mu.z), ("y", state.y), ("vy", state.vy))
                     if v == 0.0)
        ours, ref = state, _ref_state(state)
        for _ in range(3):
            # stage 1 handed in, as the bounce loop does, must not change a bit
            accel_law = acceleration_law(lc, neutron, law, k)
            accel = accel_law(ours.x, ours.y, ours.vx, ours.vy)
            floats = [step_trajectory(accel_law, dt, *ours, a) for a in (None, accel)]
            shared = TrajectoryState(*floats[1])
            ref_accel = _ref_acceleration(lc, neutron.mass, mu, ref[1], ref[2], law, k)
            assert _bits_but_zero_sign(*accel) == _bits_but_zero_sign(ref_accel.x, ref_accel.y)
            ours = _step(lc, neutron, ours, dt, law, k)
            ref = _ref_step(lc, neutron.mass, mu, ref, dt, law, k)
            assert _state_bits(ours) == _ref_state_bits(ref)
            assert _state_bits(shared) == _state_bits(ours)
            assert [_bits(*f) for f in floats] == [_state_bits(ours)] * 2
        # at unit inverse mass: F, F - (v . grad)p_h, and the Jacobian's
        # columns as F at the unit dipoles d = (1, 0) and d = (0, 1), where
        # mu_z = 1 and 1/c = 1 (K1)
        x, y, vx, vy = state.x, state.y, state.vx, state.vy
        pos, vel = _ref_state(state)[1:]
        unit = NeutronModel(mass=1.0, mu_z=mu.z)
        ref_force = _ref_force(lc, pos, vel, mu, k)
        assert _bits(*acceleration_law(lc, unit, NAIVE_LAW, k)(x, y, vx, vy)) == _bits(ref_force.x, ref_force.y)
        ref_net = ref_force - _ref_rate(lc, pos, vel, mu, k)
        net = acceleration_law(lc, unit, FULL_LAW, k)(x, y, vx, vy)
        assert _bits_but_zero_sign(*net) == _bits_but_zero_sign(ref_net.x, ref_net.y)
        column = acceleration_law(lc, NEUTRON, NAIVE_LAW, K1)
        columns = [column(x, y, *v) for v in ((0.0, 1.0), (-1.0, 0.0))]
        assert [_bits_but_zero_sign(*c) for c in columns] == [
            _bits_but_zero_sign(c.x, c.y) for c in _ref_gradient(lc, pos)
        ]
    assert zeros == {"lambda", "mu_z", "y", "vy"}


@pytest.mark.parametrize("law", [FULL_LAW, NAIVE_LAW])
def test_scalar_kernel_rejects_the_same_near_axis_steps(law):
    rng = np.random.default_rng(77)
    outcomes = set()
    for _ in range(300):
        lc, neutron, state, dt, k = _random_case(rng, near_axis=True)
        mu = Vec3(0.0, 0.0, neutron.mu_z)
        try:
            ref = _ref_state_bits(_ref_step(lc, neutron.mass, mu, _ref_state(state), dt, law, k))
        except SingularityError:
            ref = "singular"
        try:
            ours = _state_bits(_step(lc, neutron, state, dt, law, k))
        except SingularityError:
            ours = "singular"
        try:
            floats = _bits(*step_trajectory(acceleration_law(lc, neutron, law, k), dt, *state))
        except SingularityError:
            floats = "singular"
        assert ours == ref
        assert floats == ref
        outcomes.add(ref == "singular")
    assert outcomes == {True, False}


def test_verify_unit_flight_matches_step_trajectory_bit_for_bit():
    # verify steps its own unit law, built at import; it must land where a
    # law built here does
    state = TrajectoryState(0.0, 2.0, 0.6, -1.0, 0.3)
    for _ in range(128):
        state = _step(LINE, NEUTRON, state, 1.0 / 128, NAIVE_LAW, K1)
    assert _bits(*verify._naive_endpoint(128)) == _state_bits(state)[1:]


BOUNCE_LINE = LineCharge(lambda_c=0.05)
BOUNCE_START = TrajectoryState(0.0, 3.0, 0.5, -2.0, 0.0)


def bounce(law, n_bounces=10, dt=1.0 / 256.0, lc=BOUNCE_LINE, start=BOUNCE_START):
    cfg = BounceConfig(mirror_a=1.5, mirror_b=3.0, n_bounces=n_bounces, dt=dt, law=law)
    return simulate_bounce_experiment(lc, NEUTRON, cfg, start, K1)


def test_bounce_config_validation():
    with pytest.raises(ValidationError):
        BounceConfig(mirror_a=1.0, mirror_b=1.0, n_bounces=3, dt=0.1)
    with pytest.raises(ValidationError):
        BounceConfig(mirror_a=1.0, mirror_b=2.0, n_bounces=0, dt=0.1)
    with pytest.raises(ValidationError):
        BounceConfig(mirror_a=1.0, mirror_b=2.0, n_bounces=3, dt=-0.1)


def test_bounce_requires_start_between_mirrors():
    cfg = BounceConfig(mirror_a=1.5, mirror_b=3.0, n_bounces=1, dt=0.01)
    outside = TrajectoryState(0.0, 5.0, 0.5, -1.0, 0.0)
    with pytest.raises(ValidationError):
        simulate_bounce_experiment(BOUNCE_LINE, NEUTRON, cfg, outside, K1)


def test_free_particle_bounce_period():
    # lambda_c = 0: exact constant kinetic energy, round trip 2*gap/|v|
    start = TrajectoryState(0.0, 2.0, 0.5, -1.5, 0.0)
    result = bounce(FULL_LAW, n_bounces=5, dt=0.01, lc=LineCharge(lambda_c=0.0), start=start)
    kes = {kinetic_energy(NEUTRON, s) for s in result.states}
    assert kes == {result.initial_kinetic_energy}
    round_trip = result.bounce_times[2] - result.bounce_times[0]
    assert round_trip == pytest.approx(2.0 * 1.5 / 1.5, abs=1e-10)


def test_full_law_conserves_bounce_energy():
    result = bounce(FULL_LAW)
    assert abs(result.bounce_kinetic_energies[-1] / result.initial_kinetic_energy - 1.0) < 1e-6


def test_naive_law_energy_strictly_grows():
    result = bounce(NAIVE_LAW)
    kes = [result.initial_kinetic_energy, *result.bounce_kinetic_energies]
    assert len(result.bounce_kinetic_energies) == 10
    assert all(b > a for a, b in zip(kes, kes[1:]))


def test_naive_law_gain_matches_work_integral():
    result = bounce(NAIVE_LAW)
    for gain, work in zip(result.ke_gain_per_leg, result.work_per_leg):
        assert abs(gain / work - 1.0) < 1e-6


def test_bounce_samples_carry_hidden_momentum():
    # p_h at a kept state is the Vec3 reference's, bit for bit
    st = bounce(FULL_LAW, n_bounces=2).states[10]
    expected = _ref_hidden_momentum(BOUNCE_LINE, Vec3(st.x, st.y, 0.0), Vec3(0.0, 0.0, MU_Z), K1)
    p_h = boyer._hidden_momentum(2.0 * BOUNCE_LINE.lambda_c, MU_Z, 1.0 / K1.c, st.x, st.y)
    assert _bits(*p_h) == _bits(expected.x, expected.y)


def test_bounce_leg_step_budget(monkeypatch):
    # the first leg's 192nd step lands on x = 1.5, and that step is the hit
    monkeypatch.setattr(boyer, "MAX_STEPS", 192)
    assert len(bounce(FULL_LAW, n_bounces=1).bounce_times) == 1
    monkeypatch.setattr(boyer, "MAX_STEPS", 191)
    with pytest.raises(
        NumericalError,
        match=r"^full law: bounce leg 1 exceeded the run's budget of 191 RK4 steps "
        r"\(t = 0\.74609375 s, x = 1\.5078125 cm\)",
    ):
        bounce(FULL_LAW, n_bounces=1)


def test_bounce_step_budget_counts_all_legs(monkeypatch):
    # two legs take 192 steps each; the budget is one count over both
    monkeypatch.setattr(boyer, "MAX_STEPS", 384)
    assert len(bounce(FULL_LAW, n_bounces=2).bounce_times) == 2
    monkeypatch.setattr(boyer, "MAX_STEPS", 383)
    with pytest.raises(NumericalError, match=r"^full law: bounce leg 2 exceeded the run's budget of 383 RK4 steps"):
        bounce(FULL_LAW, n_bounces=2)


def test_ac_bounce_scenario_evaluates_each_state_once(monkeypatch):
    # Each accepted state's acceleration serves as stage 1 of the advance step,
    # of the Simpson half-step and of every landing iterate, and as both
    # panel-end powers; 44,143 evaluations before that sharing, 32,183 with it
    # and a 200-step mirror bisection, 30,285 with the Newton landing.  Every
    # evaluation goes through a law that acceleration_law built.
    calls = 0
    build = boyer.acceleration_law

    def counted_law(*args):
        accel = build(*args)

        def counted(*xy):
            nonlocal calls
            calls += 1
            return accel(*xy)

        counted.law = accel.law
        return counted

    monkeypatch.setattr(boyer, "acceleration_law", counted_law)
    scenarios = Path(__file__).parent.parent / "scenarios"
    run_scenario(load_scenario(str(scenarios / "ac_bounce.yaml")))
    assert calls == 30_285


def test_ac_bounce_scenario_step_split(monkeypatch):
    # one advance step and one Simpson half-step per accepted step, and 21
    # landing iterates over the 20 crossings, counted by caller name as the
    # benchmark's tracer counts them
    callers = Counter()
    step = boyer.step_trajectory

    def counted_step(*args):
        callers[sys._getframe(1).f_code.co_name] += 1
        return step(*args)

    monkeypatch.setattr(boyer, "step_trajectory", counted_step)
    scenarios = Path(__file__).parent.parent / "scenarios"
    run_scenario(load_scenario(str(scenarios / "ac_bounce.yaml")))
    assert callers == {"simulate_bounce_experiment": 3_775, "_work_over_substep": 3_775, "_locate_crossing": 21}


def _count_landing_steps(monkeypatch) -> list[int]:
    """Patch boyer so that each _locate_crossing call appends the number of
    RK4 steps it makes to the returned list."""
    per_crossing: list[int] = []
    step, locate = boyer.step_trajectory, boyer._locate_crossing

    def counted_step(*args, **kwargs):
        if sys._getframe(1).f_code.co_name == "_locate_crossing":
            per_crossing[-1] += 1
        return step(*args, **kwargs)

    def counted_locate(*args, **kwargs):
        per_crossing.append(0)
        return locate(*args, **kwargs)

    monkeypatch.setattr(boyer, "step_trajectory", counted_step)
    monkeypatch.setattr(boyer, "_locate_crossing", counted_locate)
    return per_crossing


def _hits(result):
    # a reflected state keeps the position of its hit
    times = set(result.bounce_times)
    return [s for s in result.states if s.t in times]


@pytest.mark.parametrize("law", [FULL_LAW, NAIVE_LAW])
@pytest.mark.parametrize("offset", [1.5e4, 1.5e5])
def test_mirror_landing_far_from_the_origin(monkeypatch, law, offset):
    # ac_bounce.yaml's cavity moved to x = offset: the float spacing there is
    # 1.8e-12 or 2.9e-11 cm, so an absolute landing tolerance cannot be met
    per_crossing = _count_landing_steps(monkeypatch)
    lo, hi = offset, offset + 1.5
    cfg = BounceConfig(mirror_a=lo, mirror_b=hi, n_bounces=4, dt=1.0 / 256.0, law=law)
    start = TrajectoryState(0.0, hi, 0.5, -2.0, 0.0)
    result = simulate_bounce_experiment(BOUNCE_LINE, NEUTRON, cfg, start, K1)
    hits = _hits(result)
    assert len(hits) == 4
    for st, plane in zip(hits, [lo, hi, lo, hi]):
        assert abs(st.x - plane) <= 2.0 * math.ulp(plane)
    assert len(per_crossing) == 4
    assert max(per_crossing) <= 4


@pytest.mark.parametrize("law", [FULL_LAW, NAIVE_LAW])
def test_mirror_landing_on_a_plane_at_the_origin(law):
    # Two float spacings of 0.0 are subnormal, out of reach of a sum x0 + dx;
    # there the landing works to the spacing of the start x instead.  The
    # flight line y = 0.5 keeps the moment 0.5 cm or more from the line.
    cfg = BounceConfig(mirror_a=0.0, mirror_b=1.5, n_bounces=6, dt=1.0 / 256.0, law=law)
    start = TrajectoryState(0.0, 1.499, 0.5, -2.0, 0.0)
    hits = _hits(simulate_bounce_experiment(BOUNCE_LINE, NEUTRON, cfg, start, K1))
    assert len(hits) == 6
    for st, plane in zip(hits, [0.0, 1.5] * 3):
        assert abs(st.x - plane) <= (1e-17 if plane == 0.0 else 2.0 * math.ulp(plane))


def test_ac_bounce_scenario_lands_on_the_mirrors(monkeypatch):
    # Under the full law the 192nd step of a leg lands on the mirror, so every
    # hit is a whole number of steps; the naive law lands by Newton.  The
    # 200-step bisection made 627 landing steps here.
    per_crossing = _count_landing_steps(monkeypatch)
    scenarios = Path(__file__).parent.parent / "scenarios"
    report = run_scenario(load_scenario(str(scenarios / "ac_bounce.yaml")))
    full = [row["t_s"] for row in report.rows if row["law"] == FULL_LAW]
    assert full == [0.75 * k for k in range(1, 11)]
    assert len(per_crossing) == 20
    assert sum(per_crossing) <= 60
    assert max(per_crossing) <= 4


def test_mirror_landing_budget(monkeypatch):
    # a landing step that never moves never reaches the plane
    step = boyer.step_trajectory

    def stuck(accel, dt, t, x, y, vx, vy, a1=None):
        if sys._getframe(1).f_code.co_name == "_locate_crossing":
            return t + dt, x, y, vx, vy
        return step(accel, dt, t, x, y, vx, vy, a1)

    monkeypatch.setattr(boyer, "step_trajectory", stuck)
    start = TrajectoryState(0.0, 2.999, 0.5, -2.0, 0.0)
    with pytest.raises(
        NumericalError,
        match=r"^full law: mirror crossing at x = 1\.5 cm not landed within 4\.44\d*e-16 cm in 64 RK4 steps "
        r"\(t = 0\.7\d* s, x = 1\.50\d* cm\)$",
    ):
        bounce(FULL_LAW, n_bounces=1, start=start)


@pytest.mark.parametrize("law", [FULL_LAW, NAIVE_LAW])
def test_bounce_samples_match_an_eager_per_step_build(law):
    # Re-step every accepted state from its predecessor, as a loop that keeps
    # each step would; reflected states are the result's own.
    result = bounce(law, n_bounces=4)
    states, times = result.states, set(result.bounce_times)
    stepped = [i for i, st in enumerate(states) if i and st.t not in times]
    assert len(stepped) == len(states) - 1 - 4
    for i in stepped:
        eager = _step(BOUNCE_LINE, NEUTRON, states[i - 1], 1.0 / 256.0, law, K1)
        assert _state_bits(eager) == _state_bits(states[i])


@pytest.mark.parametrize("law", [FULL_LAW, NAIVE_LAW])
def test_bounce_hidden_momentum_is_continuous_across_each_bounce(law):
    # The reflection flips vx but keeps the position, so p_h moves across a
    # bounce by no more than across a step, while the velocity jumps.
    result = bounce(law, n_bounces=4)
    states, times = result.states, set(result.bounce_times)
    bounces = [i for i, s in enumerate(states) if s.t in times]
    assert len(bounces) == 4
    p_h = [boyer._hidden_momentum(2.0 * BOUNCE_LINE.lambda_c, MU_Z, 1.0 / K1.c, s.x, s.y) for s in states]
    jumps = [math.dist(a, b) for a, b in zip(p_h, p_h[1:])]
    in_leg = max(j for i, j in enumerate(jumps) if i + 1 not in bounces and i not in bounces)
    for i in bounces:
        assert states[i].vx * states[i - 1].vx < 0.0
        assert jumps[i - 1] <= 2.0 * in_leg
        if i < len(jumps):
            assert jumps[i] <= 2.0 * in_leg


def test_bounce_kinetic_energies_build_no_samples():
    for law in (FULL_LAW, NAIVE_LAW):
        result = bounce(law, n_bounces=2)
        assert result.initial_kinetic_energy == kinetic_energy(NEUTRON, BOUNCE_START)
        assert result.bounce_kinetic_energies[-1] == kinetic_energy(NEUTRON, result.states[-1])


def test_ac_phase_circle_analytic_value():
    expected = ac_phase_enclosed_value(LINE, MU_Z, K1)
    assert expected == pytest.approx(4.0 * math.pi, rel=1e-15)
    for radius in (0.8, 2.5):
        loop = CircleLoop(center=Vec3(0.0, 0.0, 0.0), radius=radius)
        assert ac_phase(LINE, MU_Z, loop, K1) == pytest.approx(expected, rel=1e-9)


def test_ac_phase_non_enclosing_loop_vanishes():
    loop = CircleLoop(center=Vec3(5.0, 0.0, 0.0), radius=1.0)
    assert abs(ac_phase(LINE, MU_Z, loop, K1)) <= 1e-10


def test_ac_phase_zero_charge():
    loop = CircleLoop(center=Vec3(0.0, 0.0, 0.0), radius=1.0)
    assert ac_phase(LineCharge(lambda_c=0.0), MU_Z, loop, K1) == 0.0


def test_ac_phase_deformation_invariance():
    off_center = CircleLoop(center=Vec3(0.3, -0.2, 0.0), radius=1.5)
    square = PolylineLoop(
        (
            Vec3(1.2, 1.2, 0.0),
            Vec3(-1.2, 1.2, 0.0),
            Vec3(-1.2, -1.2, 0.0),
            Vec3(1.2, -1.2, 0.0),
            Vec3(1.2, 1.2, 0.0),
        )
    )
    a = ac_phase(LINE, MU_Z, off_center, K1)
    b = ac_phase(LINE, MU_Z, square, K1)
    assert abs(a / b - 1.0) < 1e-9


def test_ac_phase_linear_in_moment_and_charge():
    loop = CircleLoop(center=Vec3(0.0, 0.0, 0.0), radius=1.0)
    base = ac_phase(LINE, MU_Z, loop, K1)
    assert ac_phase(LineCharge(lambda_c=3.0), MU_Z, loop, K1) == pytest.approx(3.0 * base, rel=1e-10)
    assert ac_phase(LINE, 2.0, loop, K1) == pytest.approx(2.0 * base, rel=1e-10)


def test_ac_phase_open_path_rejected():
    with pytest.raises(DomainError):
        PolylineLoop((Vec3(1.0, 0.0, 0.0), Vec3(0.0, 1.0, 0.0), Vec3(-1.0, 0.0, 0.0), Vec3(0.0, -1.0, 0.0)))


def test_ac_phase_path_through_axis_rejected():
    square_through_origin = PolylineLoop(
        (
            Vec3(1.0, 0.0, 0.0),
            Vec3(0.0, 0.0, 0.0) + Vec3(0.0, 1e-12, 0.0),
            Vec3(-1.0, 0.0, 0.0),
            Vec3(0.0, -1.0, 0.0),
            Vec3(1.0, 0.0, 0.0),
        )
    )
    with pytest.raises(SingularityError):
        ac_phase(LINE, MU_Z, square_through_origin, K1)


# The Vec3 loop-phase integrand that the float integrands replaced,
# p_h(point(u)).dot(direction(u)) * jacobian(u) with p_h = (mu x E)/c, at the
# point, direction and Jacobian of each node of the segment's map
# (``boyer._loop_integrands``) formed in Vec3 arithmetic, and ac_phase built
# on it.  On loops around the line on the z axis with mu = (0, 0, mu_z), the
# float integrands must reproduce it up to the sign of a zero value, and
# ac_phase bit for bit.


def _ref_hidden_momentum(lc, pos, mu, k):
    rho2 = pos.x * pos.x + pos.y * pos.y
    if rho2 < boyer.AXIS_EPSILON * boyer.AXIS_EPSILON:
        raise SingularityError("reference: inside the axis neighbourhood")
    s = 2.0 * lc.lambda_c / rho2
    return mu.cross(Vec3(s * pos.x, s * pos.y, 0.0)) * (1.0 / k.c)


def _ref_loop_segments(loop):
    """(point(u), direction(u), jacobian(u), lo, hi) per segment."""
    if isinstance(loop, CircleLoop):
        c, rad = loop.center, loop.radius
        rc = math.hypot(c.x, c.y)
        unit = Vec3(c.x / rc, c.y / rc, 0.0) if rc else Vec3(1.0, 0.0, 0.0)
        gap = rc - rad
        nearest = Vec3(gap * unit.x, gap * unit.y, c.z)
        alpha = min(1.0, math.sqrt(abs(gap) / rad))
        radial, along = unit * (2.0 * rad), Vec3(unit.y, -unit.x, 0.0) * (2.0 * rad)

        def half_angle(h):
            a, b = alpha * math.sin(h), math.cos(h)
            return a, b, 1.0 / (a * a + b * b)

        def point(h):
            a, b, q = half_angle(h)
            return nearest + (radial * a + along * b) * (a * q)

        def direction(h):
            p = point(h)
            return Vec3(c.y - p.y, p.x - c.x, 0.0)

        return [(point, direction, lambda h: (2.0 * alpha) * half_angle(h)[2], -0.5 * math.pi, 0.5 * math.pi)]
    segments = []
    for a, b in zip(loop.vertices, loop.vertices[1:]):
        vx, vy, ex, ey, tau, gap = boyer._side_foot(a.x, a.y, b.x, b.y)
        d = gap / math.hypot(ex, ey)
        foot, step, edge = Vec3(vx + tau * ex, vy + tau * ey, a.z), Vec3(ex, ey, 0.0) * d, (b - a) * d
        segments.append(
            (
                lambda u, foot=foot, step=step: foot + step * math.sinh(u),
                lambda u, edge=edge: edge,
                math.cosh,
                math.asinh(-tau / d),
                math.asinh((1.0 - tau) / d),
            )
        )
    return segments


def _ref_integrands(lc, mu, loop, k):
    return [
        (lambda u, p=point, t=direction, j=jacobian: _ref_hidden_momentum(lc, p(u), mu, k).dot(t(u)) * j(u), lo, hi)
        for point, direction, jacobian, lo, hi in _ref_loop_segments(loop)
    ]


def _ref_ac_phase(lc, mu, loop, k, rel_tol=1e-10):
    abs_floor = rel_tol * (2.0 * math.pi * abs(2.0 * lc.lambda_c * mu.z * (1.0 / k.c))) * 1e-3
    refine = boyer.refine_periodic_trapezoid if isinstance(loop, CircleLoop) else boyer.refine_gauss_legendre
    total = 0.0
    for f, lo, hi in _ref_integrands(lc, mu, loop, k):
        total += refine(f, lo, hi, rel_tol=rel_tol, abs_floor=abs_floor)
    return total / k.hbar


def _random_loop_case(rng):
    """A line (one in four uncharged), a moment mu_z (one in four zero), and a
    circle or a closed polyline at least 0.05 cm from the line; half of the
    polylines leave the plane z = 0."""
    magnitude = float(np.exp(rng.uniform(np.log(1e-3), np.log(10.0)))) if rng.integers(0, 4) else 0.0
    lc = LineCharge(lambda_c=float(rng.choice([-1.0, 1.0])) * magnitude)
    mu_z = float(rng.choice([-1.0, 1.0]) * np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
    mu_z = mu_z if rng.integers(0, 4) else 0.0
    k = K1 if rng.integers(0, 2) else make_constants("gaussian-cgs")
    while True:
        center = Vec3(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)), float(rng.uniform(-2, 2)))
        if rng.integers(0, 2):
            loop = CircleLoop(center=center, radius=float(rng.uniform(0.2, 4.0)))
        else:
            has_z = bool(rng.integers(0, 2))
            angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=int(rng.integers(3, 7))))
            ring = [
                Vec3(
                    center.x + r * math.cos(a), center.y + r * math.sin(a),
                    float(rng.uniform(-2, 2)) if has_z else 0.0,
                )
                for a, r in zip(angles, rng.uniform(0.5, 3.0, size=len(angles)))
            ]
            loop = PolylineLoop(tuple(ring + ring[:1]))
        if boyer.path_axis_clearance(loop) > 0.05:
            return lc, mu_z, loop, k


def test_loop_integrands_match_vec3_reference_bit_for_bit():
    rng = np.random.default_rng(8)
    # on each segment's interval: both ends, every trapezoid point up to 32
    # points and every Gauss-Legendre node of 1, 2 and 4 panels
    fractions = [1.0] + [i / 32 for i in range(32)] + [
        (i + 0.5 + 0.5 * node) / panels for panels in (1, 2, 4) for i in range(panels) for node in quadrature._GL_NODES
    ]
    kinds = set()
    for _ in range(80):
        lc, mu_z, loop, k = _random_loop_case(rng)
        mu = Vec3(0.0, 0.0, mu_z)
        ours = boyer._loop_integrands(loop, lc, mu_z, 1.0 / k.c)
        ref = _ref_integrands(lc, mu, loop, k)
        assert [(lo, hi) for _, lo, hi in ours] == [(lo, hi) for _, lo, hi in ref]
        for (f, lo, hi), (g, _, _) in zip(ours, ref):
            nodes = [lo + (hi - lo) * x for x in fractions]
            assert [_bits_but_zero_sign(f(u)) for u in nodes] == [_bits_but_zero_sign(g(u)) for u in nodes]
        assert ac_phase(lc, mu_z, loop, k).hex() == _ref_ac_phase(lc, mu, loop, k).hex()
        kinds.add((type(loop).__name__, k.c == 1.0, any(v.z for v in getattr(loop, "vertices", ()))))
        kinds.update(name for name, v in (("lambda", lc.lambda_c), ("mu_z", mu_z)) if v == 0.0)
    assert {("CircleLoop", True, False), ("PolylineLoop", False, True), "lambda", "mu_z"} <= kinds


def _fixed_gauss_legendre_phase(lc, mu_z, loop, k, panels):
    integrands = boyer._loop_integrands(loop, lc, mu_z, 1.0 / k.c)
    return sum(quadrature.composite_gauss_legendre(f, lo, hi, panels) for f, lo, hi in integrands) / k.hbar


def _near_line_loops():
    # the line 1e-2 R and 1e-3 R inside and outside a circle of radius R = 1.5
    # cm, and 1e-2 L and 1e-3 L from a side of a square of side L = 2 cm that
    # does or does not enclose it, with the fixed Gauss-Legendre panels that
    # resolve each mapped integrand to 1e-13 of 4*pi
    radius = 1.5
    for gap, panels in ((1e-2, 256), (1e-3, 1024)):
        for side in (-1.0, 1.0):
            yield CircleLoop(center=Vec3(0.0, radius * (1.0 + side * gap), 0.0), radius=radius), panels
            # counterclockwise; the side x = 2 * gap passes its nearest point
            # to the line at 35% of its length
            near, far = 2.0 * gap, 2.0 * gap + 2.0 * side
            corners = [(near, -0.7), (near, 1.3), (far, 1.3), (far, -0.7)][:: int(-side)]
            yield PolylineLoop(tuple(Vec3(x, y, 0.0) for x, y in corners + corners[:1])), panels


def test_ac_phase_agrees_with_a_fixed_gauss_legendre_rule():
    # the adaptive rules (trapezoid on circles, Gauss-Legendre from 1 panel
    # on polyline sides) stop at the first two estimates that agree; a fixed
    # fine rule on the same mapped integrands checks that no loop stops at a
    # false early agreement
    rng = np.random.default_rng(18)
    cases = [(*_random_loop_case(rng), 256) for _ in range(40)]
    near = [(LINE, MU_Z, loop, K1, panels) for loop, panels in _near_line_loops()]
    kinds = set()
    for lc, mu_z, loop, k, panels in cases + near:
        scale = abs(ac_phase_enclosed_value(lc, mu_z, k))
        reference = _fixed_gauss_legendre_phase(lc, mu_z, loop, k, panels)
        assert abs(ac_phase(lc, mu_z, loop, k) - reference) <= 1e-12 * scale
        kinds.add((type(loop).__name__, loop_winding_number(loop), scale > 0.0))
    assert {(kind, winding, True) for kind in ("CircleLoop", "PolylineLoop") for winding in (0, 1)} <= kinds
    assert [loop_winding_number(loop) for _, _, loop, _, _ in near] == [1, 1, 0, 0] * 2
    assert [round(boyer.path_axis_clearance(loop), 6) for _, _, loop, _, _ in near] == [
        round(gap * scale, 6) for gap in (1e-2, 1e-3) for _ in (0, 1) for scale in (1.5, 2.0)
    ]


@pytest.mark.parametrize("gap", [2e-5, 3e-5, 5e-5, 1e-6, -1e-6, 1e-7, -1e-7])
def test_ac_phase_integrates_circles_just_around_the_line(gap):
    # the line gap R inside the circle, or -gap R outside it: the trapezoid
    # rule on the map about the nearest point takes up to 262,144 points at
    # 1e-7 R, where the rule on the bare angle ran out of its 4,194,304 below
    # 1e-5 R
    radius = 1.5
    loop = CircleLoop(center=Vec3(0.0, radius * (1.0 - gap), 0.0), radius=radius)
    expected = ac_phase_enclosed_value(LINE, MU_Z, K1) * loop_winding_number(loop)
    assert loop_winding_number(loop) == int(gap > 0.0)
    assert abs(ac_phase(LINE, MU_Z, loop, K1) - expected) <= 1e-12 * 4.0 * math.pi


def test_ac_phase_builds_no_vec3_per_node(monkeypatch):
    square = PolylineLoop(
        (Vec3(1.0, 1.0, 0.5), Vec3(-1.0, 1.0, 0.0), Vec3(-1.0, -1.0, 0.0), Vec3(1.0, -1.0, 0.0), Vec3(1.0, 1.0, 0.5))
    )
    circle = CircleLoop(center=Vec3(0.3, -0.2, 1.0), radius=1.5)
    mu = 1.0
    expected = [ac_phase(LINE, mu, loop, K1) for loop in (square, circle)]

    def forbidden(*args, **kwargs):
        raise AssertionError("a Vec3 was built inside ac_phase")

    monkeypatch.setattr(boyer, "Vec3", forbidden)
    assert [ac_phase(LINE, mu, loop, K1) for loop in (square, circle)] == expected


def test_ac_phase_evaluates_its_integrands_only_inside_the_refinements(monkeypatch):
    # a circle's integrand is evaluated once per point of the trapezoid rule's
    # last level, a polyline side's once per Gauss-Legendre node of every
    # level it read; no evaluation goes into the zero scale
    evaluations = []  # per integrand of the last _loop_integrands call
    levels = []  # per refinement: (evaluations per level unit, levels read)
    integrands, refine = boyer._loop_integrands, quadrature._refine

    def counted(f, i):
        def g(t):
            evaluations[i] += 1
            return f(t)

        return g

    def counted_integrands(*args):
        fs = integrands(*args)
        evaluations[:] = [0] * len(fs)
        return [(counted(f, i), lo, hi) for i, (f, lo, hi) in enumerate(fs)]

    def recorded(rule, unit, nodes_per_unit, estimates, *rest):
        read = []
        levels.append((nodes_per_unit, read))

        def tapped():
            for n, estimate in estimates:
                read.append(n)
                yield n, estimate

        return refine(rule, unit, nodes_per_unit, tapped(), *rest)

    monkeypatch.setattr(boyer, "_loop_integrands", counted_integrands)
    monkeypatch.setattr(quadrature, "_refine", recorded)
    rng = np.random.default_rng(20)
    cases = [(LINE, MU_Z, loop, K1) for loop, _ in _near_line_loops()] + [_random_loop_case(rng) for _ in range(12)]
    kinds = set()
    for lc, mu_z, loop, k in cases:
        levels.clear()
        ac_phase(lc, mu_z, loop, k)
        circle = isinstance(loop, CircleLoop)
        assert len(levels) == len(evaluations) == (1 if circle else len(loop.vertices) - 1)
        for count, (nodes, read) in zip(evaluations, levels):
            assert (nodes, count) == ((1, read[-1]) if circle else (10, 10 * sum(read)))
        kinds.add(type(loop).__name__)
    assert kinds == {"CircleLoop", "PolylineLoop"}


_CENTRED_CIRCLE = CircleLoop(center=Vec3(0.0, 0.0, 0.0), radius=1.0)
_SQUARE = PolylineLoop(tuple(Vec3(x, y, 0.0) for x, y in [(1, 1), (-1, 1), (-1, -1), (1, -1), (1, 1)]))
# a unit circle 3e-5 R outside the line, its nearest point at 1 rad
_GRAZING_CIRCLE = CircleLoop(
    center=Vec3((1.0 + 3e-5) * math.cos(1.0), (1.0 + 3e-5) * math.sin(1.0), 0.0), radius=1.0
)
_HALF_PI = "1.5707963267948966"


@pytest.mark.parametrize("units", ["scaled-unity", "gaussian-cgs"])
@pytest.mark.parametrize(
    "lambda_c, mu_z, loop, outcome",
    [
        (1e300, 1e10, _CENTRED_CIRCLE, f"periodic trapezoid refinement stopped on [-{_HALF_PI}, {_HALF_PI}]: the estimate at 8 points is inf"),
        (1e300, 1e10, _SQUARE, "Gauss-Legendre refinement stopped on [-0.881373587019543, 0.881373587019543]: the estimate at 1 panels is nan"),
        (1e-300, 1e-100, _CENTRED_CIRCLE, 0.0),
        (1e-300, 1e-100, _SQUARE, 0.0),
        # the map puts a node on the nearest point, where p_h overflows, so
        # the refinement stops at its first level
        (1e300, 1e3, _GRAZING_CIRCLE, f"periodic trapezoid refinement stopped on [-{_HALF_PI}, {_HALF_PI}]: the estimate at 8 points is -inf"),
    ],
    ids=["huge_circle", "huge_square", "tiny_circle", "tiny_square", "huge_grazing_circle"],
)
def test_ac_phase_zero_scale_adds_no_overflow_or_underflow(units, lambda_c, mu_z, loop, outcome):
    # each outcome is the one ac_phase gave with the zero scale probed from 8
    # integrand values a segment, on the interval and from the start level of
    # the segment's map
    k = make_constants(units)
    if isinstance(outcome, str):
        with pytest.raises(NumericalError) as caught:
            ac_phase(LineCharge(lambda_c=lambda_c), mu_z, loop, k)
        assert str(caught.value) == outcome
    else:
        assert ac_phase(LineCharge(lambda_c=lambda_c), mu_z, loop, k) == outcome


def _square_beside_the_line(half_side, gap):
    # counterclockwise square whose right side is the line x = gap
    corners = [(gap, -half_side), (gap, half_side), (-half_side, half_side), (-half_side, -half_side)]
    return PolylineLoop(tuple(Vec3(x, y, 0.0) for x, y in corners + corners[:1]))


def test_ac_phase_measures_a_huge_polyline_on_its_scaled_sides():
    # the square of a 2e200 cm side overflows: its foot was lost and the side
    # measured by its vertices, so a square through the line passed the
    # clearance check and integrated to 0.0
    through = _square_beside_the_line(1e200, 0.0)
    assert boyer.path_axis_clearance(through) == 0.0
    with pytest.raises(SingularityError):
        ac_phase(LINE, MU_Z, through, K1)
    # a side scaled only below 2**509 keeps 1e-9 cm of 1e200 cm resolved
    grazing = _square_beside_the_line(1e200, 1e-9)
    assert boyer.path_axis_clearance(grazing) == 1e-9
    assert ac_phase(LINE, MU_Z, grazing, K1) == pytest.approx(ac_phase_enclosed_value(LINE, MU_Z, K1), rel=1e-14)


@pytest.mark.parametrize("exponent", range(505, 521))
def test_ac_phase_of_a_huge_square_keeps_a_fixed_clearance(exponent):
    # a side 1e-3 cm from the line: unscaled, the squares overflow beyond
    # about 2**511.5 cm; scaled much below 2**509, the nearest squared
    # distance falls below the normal range and the phase reads NaN
    loop = _square_beside_the_line(2.0**exponent, 1e-3)
    assert ac_phase(LINE, MU_Z, loop, K1) == pytest.approx(ac_phase_enclosed_value(LINE, MU_Z, K1), rel=1e-14)


def test_ac_phase_scales_each_polyline_side_on_its_own():
    # a 1 cm side 1e-9 cm from the line, and a vertex 1e300 cm away: scaled
    # with the whole loop, that side's squared distances underflow; unscaled,
    # the far sides' squares overflow and the phase read 3/4 of its value
    corners = [(1e-9, -0.5), (1e-9, 0.5), (-1e300, 0.0)]
    loop = PolylineLoop(tuple(Vec3(x, y, 0.0) for x, y in corners + corners[:1]))
    assert ac_phase(LINE, MU_Z, loop, K1) == pytest.approx(ac_phase_enclosed_value(LINE, MU_Z, K1), rel=1e-14)


@pytest.mark.parametrize("reverse", [False, True], ids=["ccw", "cw"])
@pytest.mark.parametrize(
    "corners, splits",
    [
        ([(1e-9, -1e300), (1e-9, 1e300), (-1e300, 1e300), (-1e300, -1e300)], 1),
        ([(1e-9, -0.5), (1e-9, 0.5), (-1e308, 0.0)], 2),
        ([(1e-9, -1e-3), (1e-9, 1e300), (-1e300, 1e300), (-1e300, -1e-3)], 1),
    ],
    ids=["square", "triangle", "foot-next-to-a-vertex"],
)
def test_ac_phase_splits_a_side_whose_clearance_over_length_is_subnormal(monkeypatch, corners, splits, reverse):
    # clearance/length below the normal floats: the side's map ran to
    # asinh(1/d) = inf, or cosh overflowed, and the phase stopped on a NaN
    # estimate (exit 3); cut about its foot, each piece has a normal d.
    # Only those sides are cut.
    split = boyer._split_at_foot
    calls = []
    monkeypatch.setattr(boyer, "_split_at_foot", lambda *args: calls.append(args) or split(*args))
    points = [Vec3(x, y, 0.0) for x, y in corners + corners[:1]]
    loop = PolylineLoop(tuple(points[::-1] if reverse else points))
    winding = loop_winding_number(loop)
    assert winding == (-1 if reverse else 1)
    expected = ac_phase_enclosed_value(LINE, MU_Z, K1, winding)
    assert ac_phase(LINE, MU_Z, loop, K1) == pytest.approx(expected, rel=1e-14)
    assert len(calls) == splits


def test_ac_phase_caps_a_floor_that_overflows():
    # 2 pi * 2|lambda mu|/c = 2.5e308 overflows while every integrand value is
    # finite: an infinite floor accepted the 16-point estimate, 5.8e300 off a
    # phase of 0; capped at the largest float, the floor is 1.8e295 and the
    # refinement goes on until it is met
    loop = CircleLoop(center=Vec3(3.0, 0.0, 0.0), radius=1.0)
    assert abs(ac_phase(LineCharge(lambda_c=1e300), 2e7, loop, K1)) <= 1e-13 * sys.float_info.max


def _square_past_the_line(gap, encloses):
    # counterclockwise 2 cm square whose side x = gap passes the line at 35% of
    # its length, enclosing it or not
    far = gap - 2.0 if encloses else gap + 2.0
    corners = [(gap, -0.7), (gap, 1.3), (far, 1.3), (far, -0.7)][:: 1 if encloses else -1]
    return PolylineLoop(tuple(Vec3(x, y, 0.0) for x, y in corners + corners[:1]))


def _circle_past_the_line(gap, encloses):
    # unit circle whose edge passes gap R from the line, its nearest point at 1 rad
    r = 1.0 - gap if encloses else 1.0 + gap
    return CircleLoop(center=Vec3(r * math.cos(1.0), r * math.sin(1.0), 0.0), radius=1.0)


@pytest.mark.parametrize("encloses", [False, True])
@pytest.mark.parametrize(
    "loop_of, gap, most",
    [(_square_past_the_line, 1e-8, 4 * 2000), (_circle_past_the_line, 1e-7, 300_000)],
    ids=["square", "circle"],
)
def test_ac_phase_integrates_segments_grazing_the_line(loop_of, gap, most, encloses, monkeypatch):
    # a square's side 5e-9 of its length from the line, a circle 1e-7 R: on
    # the bare parameter no budget resolved their 1/rho peak, and they were
    # refused; on the map about the nearest point each passes in a few
    # hundred evaluations a side, or under 300,000 points
    loop = loop_of(gap, encloses)
    evaluations = [0]
    integrands = boyer._loop_integrands

    def counted(*args):
        def tally(f):
            def g(u):
                evaluations[0] += 1
                return f(u)

            return g

        return [(tally(f), lo, hi) for f, lo, hi in integrands(*args)]

    monkeypatch.setattr(boyer, "_loop_integrands", counted)
    expected = ac_phase_enclosed_value(LINE, MU_Z, K1) * loop_winding_number(loop)
    assert loop_winding_number(loop) == int(encloses)
    assert abs(ac_phase(LINE, MU_Z, loop, K1) - expected) <= 1e-12 * 4.0 * math.pi
    assert evaluations[0] <= most


@pytest.mark.parametrize("encloses", [False, True])
def test_ac_phase_refuses_a_circle_inside_its_relative_axis_neighbourhood(encloses):
    # a circle closer to the line than CIRCLE_AXIS_RATIO of its radius would
    # need more trapezoid points than the budget holds: refused before any
    # integrand is evaluated (at 1e-9 R the rule ran its budget out in 6 s)
    assert boyer.CIRCLE_AXIS_RATIO == 1e-8
    loop = _circle_past_the_line(0.9e-8, encloses)
    start = time.perf_counter()
    with pytest.raises(SingularityError, match=r"comes within 9\.000e-09 cm of the charged line \(minimum clearance 1e-08 R\)$"):
        ac_phase(LINE, MU_Z, loop, K1)
    assert time.perf_counter() - start < 0.1


def test_ac_phase_skips_a_side_of_zero_length():
    # a repeated vertex makes a side of length 0, whose map has no width
    corners = [(1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0), (1.0, 1.0)]
    loop = PolylineLoop(tuple(Vec3(x, y, 0.0) for x, y in corners))
    assert len(boyer._loop_integrands(loop, LINE, MU_Z, 1.0)) == 4
    assert ac_phase(LINE, MU_Z, loop, K1) == ac_phase(LINE, MU_Z, _SQUARE, K1)


@pytest.mark.parametrize("encloses", [False, True])
@pytest.mark.parametrize("orientation", [1, -1])
def test_ac_phase_anchors_a_side_at_the_vertex_nearer_its_foot(encloses, orientation):
    # a 200 cm triangle with one vertex 2e-8 cm from the line, its side's foot
    # 3e-10 of its length from that vertex: with the foot formed from the far
    # vertex, the side's points near the line lost their digits, and the
    # phase missed by 2e-8 to 1e-7 of a winding
    th, gap, length = 0.7, 2e-8, 200.0
    ex, ey = math.cos(th), math.sin(th)
    near = (-gap * ey - 3e-10 * length * ex, gap * ex - 3e-10 * length * ey)
    far = (near[0] + length * ex, near[1] + length * ey)
    side = -length if encloses else length
    apex = (near[0] + 0.5 * length * ex - side * ey, near[1] + 0.5 * length * ey + side * ex)
    corners = [far, near, apex, far][::orientation]
    loop = PolylineLoop(tuple(Vec3(x, y, 0.0) for x, y in corners))
    winding = loop_winding_number(loop)
    assert winding == orientation * int(encloses)
    expected = ac_phase_enclosed_value(LINE, MU_Z, K1) * winding
    assert abs(ac_phase(LINE, MU_Z, loop, K1) - expected) <= 1e-12 * 4.0 * math.pi


@pytest.mark.parametrize("encloses", [False, True])
def test_ac_phase_floors_each_segment_by_its_own_clearance(encloses):
    # a 1 x 100 cm rectangle whose short side passes 1e-4 cm from the line: a
    # floor from that clearance and the 100 cm sides accepted their integrals
    # 2e-10 off; the one floor from the bound 2 pi * 2|lambda mu|/c on every
    # segment's integral does not
    gap = -1e-4 if encloses else 1e-4
    corners = [(-0.5, gap), (0.5, gap), (0.5, 100.0), (-0.5, 100.0)]
    loop = PolylineLoop(tuple(Vec3(x, y, 0.0) for x, y in corners + corners[:1]))
    expected = ac_phase_enclosed_value(LINE, MU_Z, K1) * loop_winding_number(loop)
    assert loop_winding_number(loop) == int(encloses)
    assert abs(ac_phase(LINE, MU_Z, loop, K1) - expected) <= 1e-13 * 4.0 * math.pi


def test_loop_winding_numbers():
    assert loop_winding_number(CircleLoop(center=Vec3(0.0, 0.0, 0.0), radius=1.0)) == 1
    assert loop_winding_number(CircleLoop(center=Vec3(5.0, 0.0, 0.0), radius=1.0)) == 0
    square = PolylineLoop(
        (
            Vec3(1.0, 1.0, 0.0),
            Vec3(-1.0, 1.0, 0.0),
            Vec3(-1.0, -1.0, 0.0),
            Vec3(1.0, -1.0, 0.0),
            Vec3(1.0, 1.0, 0.0),
        )
    )
    assert loop_winding_number(square) == 1
    reversed_square = PolylineLoop(tuple(reversed(square.vertices)))
    assert loop_winding_number(reversed_square) == -1
