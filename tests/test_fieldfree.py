import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from abclab import (
    ChargeConfiguration,
    DomainError,
    PointCharge,
    ValidationError,
    Vec3,
    field_at,
    fieldfree,
    make_three_charge,
    parse_scenario,
    potential_at,
    run_scenario,
    verify,
)
from abclab.cli import main as cli_main

DATA_DIR = Path(__file__).parent / "data"


def test_three_charge_layout():
    cfg = make_three_charge(1.0, 1.0)
    assert [c.q for c in cfg.charges] == [-1.0, 4.0, 4.0]
    assert cfg.charges[1].pos == Vec3(1.0, 0.0, 0.0)
    assert cfg.charges[2].pos == Vec3(-1.0, 0.0, 0.0)


def test_field_vanishes_at_all_three():
    cfg = make_three_charge(1.0, 1.0)
    for i in range(3):
        assert field_at(cfg, i).norm() <= 1e-12  # scale e/d^2 = 1 here


def test_side_charge_cancellation_arithmetic():
    # at a side charge: e/d^2 from the electron balances 4e/(2d)^2 from the far charge
    d, e = 2.0, 3.0
    cfg = make_three_charge(d, e)
    assert field_at(cfg, 1).norm() <= 1e-12 * e / d ** 2
    assert 4.0 * e / (2.0 * d) ** 2 == pytest.approx(e / d ** 2)


def test_field_scales_with_parameters():
    rng = np.random.default_rng(3)
    for _ in range(50):
        d = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))
        e = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))
        cfg = make_three_charge(d, e)
        for i in range(3):
            assert field_at(cfg, i).norm() < 1e-12 * e / d ** 2


def test_potential_at_electron():
    cfg = make_three_charge(1.0, 1.0)
    assert potential_at(cfg, 0) == pytest.approx(8.0, rel=1e-14)


def test_potential_scaling():
    base = potential_at(make_three_charge(1.0, 1.0), 0)
    assert potential_at(make_three_charge(2.0, 1.0), 0) == pytest.approx(base / 2.0, rel=1e-14)


def test_single_source_coulomb_potential():
    cfg = ChargeConfiguration(
        (PointCharge(1.0, Vec3(0.0, 0.0, 0.0)), PointCharge(5.0, Vec3(0.0, 2.0, 0.0)))
    )
    assert potential_at(cfg, 0) == pytest.approx(5.0 / 2.0)


def test_midpoint_between_equal_charges():
    cfg = ChargeConfiguration(
        (
            PointCharge(0.0, Vec3(0.0, 0.0, 0.0)),  # probe
            PointCharge(2.0, Vec3(1.0, 0.0, 0.0)),
            PointCharge(2.0, Vec3(-1.0, 0.0, 0.0)),
        )
    )
    assert field_at(cfg, 0).norm() == 0.0


def test_make_three_charge_domain():
    with pytest.raises(DomainError):
        make_three_charge(0.0, 1.0)
    with pytest.raises(DomainError):
        make_three_charge(1.0, -1.0)


def test_coincident_charges_rejected_at_construction():
    with pytest.raises(ValidationError):
        ChargeConfiguration(
            (PointCharge(1.0, Vec3(0.0, 0.0, 0.0)), PointCharge(2.0, Vec3(0.0, 0.0, 0.0)))
        )


def test_index_domain():
    cfg = make_three_charge(1.0, 1.0)
    with pytest.raises(DomainError):
        field_at(cfg, 3)
    with pytest.raises(DomainError):
        potential_at(cfg, -1)


def test_field_at_detects_perturbation():
    d, e = 1.0, 1.0
    cfg = ChargeConfiguration(
        (
            PointCharge(-e, Vec3(0.0, 0.0, 0.0)),
            PointCharge(4.0 * e, Vec3(d * 1.01, 0.0, 0.0)),  # 1 percent off
            PointCharge(4.0 * e, Vec3(-d, 0.0, 0.0)),
        )
    )
    # residual field at the center from the hand expansion 4e/d^2 - 4e/(1.01 d)^2
    expected = 4.0 * e / d ** 2 - 4.0 * e / (1.01 * d) ** 2
    assert field_at(cfg, 0).norm() == pytest.approx(expected, rel=1e-12)


def test_field_at_single_charge_is_zero():
    assert field_at(ChargeConfiguration((PointCharge(1.0, Vec3(0.0, 0.0, 0.0)),)), 0).norm() == 0.0


def test_field_translation_rotation_covariance():
    rng = np.random.default_rng(5)
    cfg = ChargeConfiguration(
        tuple(
            PointCharge(float(rng.uniform(-2, 2)), Vec3(*(float(x) for x in rng.uniform(-1, 1, 3))))
            for _ in range(4)
        )
    )
    raw = rng.normal(size=(3, 3))
    q_mat, _ = np.linalg.qr(raw)
    if np.linalg.det(q_mat) < 0:
        q_mat[:, 0] = -q_mat[:, 0]
    shift = Vec3(0.7, -1.2, 3.0)

    def transform(v):
        r = q_mat @ np.array(v)
        return Vec3(float(r[0]), float(r[1]), float(r[2])) + shift

    moved = ChargeConfiguration(tuple(PointCharge(c.q, transform(c.pos)) for c in cfg.charges))
    for i in range(4):
        original = field_at(cfg, i)
        rotated = q_mat @ np.array(original)
        expected = Vec3(float(rotated[0]), float(rotated[1]), float(rotated[2]))
        assert (field_at(moved, i) - expected).norm() <= 1e-12 * max(original.norm(), 1e-300)


def test_newtons_third_law_zero_total_internal_force():
    rng = np.random.default_rng(9)
    for _ in range(20):
        charges = []
        while len(charges) < 5:
            candidate = PointCharge(
                float(rng.uniform(-2, 2)), Vec3(*(float(x) for x in rng.uniform(-1, 1, 3)))
            )
            if all((candidate.pos - c.pos).norm() > 0.05 for c in charges):
                charges.append(candidate)
        cfg = ChargeConfiguration(tuple(charges))
        total = Vec3(0.0, 0.0, 0.0)
        scale = 0.0
        for i, charge in enumerate(cfg.charges):
            force = field_at(cfg, i) * charge.q
            total = total + force
            scale = max(scale, force.norm())
        assert total.norm() <= 1e-10 * scale


@settings(max_examples=150, deadline=None)
@given(
    st.floats(min_value=1e-12, max_value=1e300, exclude_min=True),
    st.floats(min_value=1e-3, max_value=1e3),
)
def test_field_free_claims_pass_at_every_spacing(d, e):
    # beyond d = 1.3e154 the squared separation overflowed: the field's
    # residual read NaN and the potential 0.0, and both claims FAILed
    doc = f"kind: field-free\nunits: scaled-unity\nparams: {{d_cm: {d!r}, e_statC: {e!r}}}\n"
    report = run_scenario(parse_scenario(doc))
    assert {c.name: c.passed for c in report.checks if c.name != "field_free_zero_phase_claim"} == {
        "field_free_three_charge": True,
        "potential_at_electron": True,
    }


def test_scaled_separation_keeps_every_bit_of_a_finite_one():
    # the overflow guard is one comparison: a finite separation is scaled
    # exactly as before, so field_at and potential_at keep their bits
    rng = np.random.default_rng(11)

    def point() -> Vec3:
        return Vec3(*(float(m * 10.0**p) for m, p in zip(rng.normal(size=3), rng.uniform(-100, 100, 3))))

    for _ in range(500):
        a, b = point(), point()
        sep = a - b
        # coulomb_all reads only cfg.charges; a stand-in keeps the pairs
        # that ChargeConfiguration refuses as closer than MIN_SEPARATION
        pair = types.SimpleNamespace(charges=(PointCharge(1.0, a), PointCharge(1.0, b)))
        (field, k, s), (reverse_field, reverse_k, reverse_s) = fieldfree.coulomb_all(pair)
        assert k == reverse_k == math.frexp(max(abs(c) for c in sep))[1]
        # the unit source's field and potential formed on sep 2^-k itself
        x, y, z = (math.ldexp(c, -k) for c in sep)
        r = math.sqrt(x * x + y * y + z * z)
        scale = 1.0 / (r * r * r)
        expected = [fieldfree._times_power_of_two(scale * c, -2 * k) for c in (x, y, z)]
        assert [c.hex() for c in field] == [c.hex() for c in expected]
        assert [c.hex() for c in reverse_field] == [(-c).hex() for c in expected]
        assert s.hex() == reverse_s.hex() == (1.0 / r).hex()


def test_field_free_triple_just_below_the_largest_float(tmp_path):
    # the side charges sit 2d = 2e308 cm apart, a separation that overflowed:
    # both read a NaN field and a potential of -1e-308 statV, and the run exited 1
    cfg = make_three_charge(1e308, 1.0)
    for i in (1, 2):
        assert field_at(cfg, i) == Vec3(0.0, 0.0, 0.0)
        assert potential_at(cfg, i) == 1e-308  # -e/d + 4e/(2d)
    out = tmp_path / "report.csv"
    assert cli_main(["run", str(DATA_DIR / "field_free_huge_d.yaml"), "--format", "csv", "--output", str(out)]) == 0
    assert out.read_bytes() == (DATA_DIR / "golden_field_free_huge_d.csv").read_bytes()


def test_field_free_triple_with_charges_near_the_largest_float(tmp_path):
    # the side charges carry 4e = 8e307 statC: summed at full scale each
    # potential term 4e/d overflowed and the field's terms turned NaN, and
    # 8e/m = 3.2e308 overflowed where 8e/d = 1.6e308 is finite; the run
    # exited 1.  The sums put the charges below 2^1000 statC.
    cfg = make_three_charge(1.0, 2e307)
    for i in range(3):
        assert field_at(cfg, i) == Vec3(0.0, 0.0, 0.0)
    assert [potential_at(cfg, i) for i in range(3)] == [1.6e308, 2e307, 2e307]
    residual, expected, potential = verify.potential_residual(fieldfree.coulomb_at(cfg, 0)[1:], 1.0, 2e307)
    assert (residual, expected, potential) == (0.0, 1.6e308, 1.6e308)
    out = tmp_path / "report.csv"
    assert cli_main(["run", str(DATA_DIR / "field_free_huge_e.yaml"), "--format", "csv", "--output", str(out)]) == 0
    assert out.read_bytes() == (DATA_DIR / "golden_field_free_huge_e.csv").read_bytes()


def test_field_free_point_makes_one_coulomb_pass_per_charge(monkeypatch):
    # every charge's field and potential come from one coulomb_all pass over
    # the triple's pairs: one pass a point, not one a charge
    passes = []
    coulomb_all = fieldfree.coulomb_all

    def counted(cfg):
        passes.append(len(cfg.charges))
        return coulomb_all(cfg)

    monkeypatch.setattr(fieldfree, "coulomb_all", counted)
    doc = "kind: field-free\nunits: scaled-unity\nparams: {d_cm: 1.0, e_statC: 1.0}\n"
    run_scenario(parse_scenario(doc))
    assert passes == [3]
    run_scenario(parse_scenario(doc + "sweep: {param: d_cm, from: 1.0, to: 2.0, steps: 4}\n"))
    assert passes == [3] * 5


def test_potential_below_the_least_normal_float_is_judged_at_the_separation_scale(tmp_path):
    # 8e/d = 8e-311 at d = 1e308, e = 1e-3: each term 4e/d is subnormal, and
    # summed and judged unscaled the potential read 7.9999999999996e-311,
    # a FAIL (exit 1); summed and judged at the nearest separation's scale it
    # reads 8e-311 and PASSes (exit 0)
    cfg = make_three_charge(1e308, 1e-3)
    assert potential_at(cfg, 0) == 8e-311
    out = tmp_path / "report.csv"
    doc = DATA_DIR / "field_free_subnormal_potential.yaml"
    assert cli_main(["run", str(doc), "--format", "csv", "--output", str(out)]) == 0
    assert out.read_bytes() == (DATA_DIR / "golden_field_free_subnormal_potential.csv").read_bytes()
    # a potential one subnormal spacing from 8e/d as that quotient rounds
    # (a FAIL at 1.02e-14 when judged unscaled) agrees with 8e/m at the
    # separation's scale
    d, e = 1.66807032058591e308, 1e-2
    residual, expected, potential = verify.potential_residual(fieldfree.coulomb_at(make_three_charge(d, e), 0)[1:], d, e)
    assert residual == 0.0 and potential - expected == 5e-324
    # the electron's potential passes over the top decades of d, where 8e/d
    # at e = 1e-3 falls through the subnormal range
    for d in np.geomspace(1e300, 1.7e308, 200).tolist():
        for e in (1e-3, 1.0, 1e3):
            scaled = fieldfree.coulomb_at(make_three_charge(d, e), 0)[1:]
            assert verify.potential_residual(scaled, d, e)[0] < verify.TOLERANCES["potential_at_electron"], (d, e)


# fieldfree's separations, fields and potentials as they were formed before
# coulomb_all read the positions' floats in one pass over the pairs: each
# target's separations on Vec3s, every pair formed from both ends, the
# reference that the float route must equal to the bit


def _reference_scaled(a: Vec3, b: Vec3) -> tuple[int, float, float, float, float]:
    sx, sy, sz = a.x - b.x, a.y - b.y, a.z - b.z
    big = max(abs(sx), abs(sy), abs(sz))
    halved = big == math.inf
    if halved:
        sx, sy, sz = 0.5 * a.x - 0.5 * b.x, 0.5 * a.y - 0.5 * b.y, 0.5 * a.z - 0.5 * b.z
        big = max(abs(sx), abs(sy), abs(sz))
    k = math.frexp(big)[1]
    x, y, z = math.ldexp(sx, -k), math.ldexp(sy, -k), math.ldexp(sz, -k)
    return k + halved, x, y, z, math.sqrt(x * x + y * y + z * z)


def _reference_charge_scale(cfg: ChargeConfiguration, target_index: int) -> int:
    # c: q 2^-c brings the largest |q| among the target's sources inside
    # 2^-1000..2^1000, 0 where it lies there already
    top = max(abs(source.q) for j, source in enumerate(cfg.charges) if j != target_index)
    e = math.frexp(top)[1]
    return e - min(max(e, -1000), 1000)


def _reference_field_at(cfg: ChargeConfiguration, target_index: int) -> Vec3:
    target, c = cfg.charges[target_index], _reference_charge_scale(cfg, target_index)
    terms = []
    for j, source in enumerate(cfg.charges):
        if j != target_index:
            k, x, y, z, dist = _reference_scaled(target.pos, source.pos)
            scale = math.ldexp(source.q, -c) / (dist * dist * dist)
            terms.append((k, scale * x, scale * y, scale * z))
    near = min((term[0] for term in terms), default=0)
    ex = ey = ez = 0.0
    for k, x, y, z in terms:
        shift = 2 * (near - k)
        ex += math.ldexp(x, shift)
        ey += math.ldexp(y, shift)
        ez += math.ldexp(z, shift)
    return Vec3(*(fieldfree._times_power_of_two(v, c - 2 * near) for v in (ex, ey, ez)))


def _reference_potential_at(cfg: ChargeConfiguration, target_index: int) -> tuple[float, bool]:
    """(potential, normal): the potential summed term by term at full scale,
    and whether every term and partial sum is 0 or a finite normal float
    both at full scale and at the nearest source's scale, where coulomb_all
    sums.  Where one is not, each rounds on its own grid and the two may
    differ."""
    target, c = cfg.charges[target_index], _reference_charge_scale(cfg, target_index)
    terms = []
    for j, source in enumerate(cfg.charges):
        if j != target_index:
            k, _, _, _, dist = _reference_scaled(target.pos, source.pos)
            terms.append((k, math.ldexp(source.q, -c) / dist))
    near = min(k for k, _ in terms)
    total = scaled_total = 0.0
    values = []
    for k, term in terms:
        unscaled, scaled = fieldfree._times_power_of_two(term, c - k), math.ldexp(term, near - k)
        total += unscaled
        scaled_total += scaled
        values += [(term, unscaled), (term, scaled), (total, total), (scaled_total, scaled_total)]
    normal = all(
        value == 0.0 if exact == 0.0 else sys.float_info.min <= abs(value) < math.inf for exact, value in values
    )
    return total, normal


_magnitude = st.floats(min_value=1e-300, max_value=1e300) | st.floats(min_value=8e307, max_value=1.7e308) | st.just(0.0)
_coordinate = st.builds(lambda sign, magnitude: sign * magnitude, st.sampled_from([-1.0, 1.0]), _magnitude)
# charges inside 2^-1000..2^1000 statC, and beyond it on both sides
_charge_magnitude = (
    st.floats(min_value=1e-3, max_value=1e3)
    | st.floats(min_value=5e-324, max_value=1e-302)
    | st.floats(min_value=1e302, max_value=1.7e308)
)
_charge = st.builds(
    lambda sign, q, x, y, z: PointCharge(sign * q, Vec3(x, y, z)),
    st.sampled_from([-1.0, 1.0]),
    _charge_magnitude,
    _coordinate,
    _coordinate,
    _coordinate,
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_charge, min_size=2, max_size=5))
@example([PointCharge(q, Vec3(x, 0.0, 0.0)) for q, x in ((4.0, 1.5e308), (-1.0, 0.0), (4.0, -1.5e308))])
@example([PointCharge(1.0, Vec3(1e-300, 2e300, 0.0)), PointCharge(-2.0, Vec3(-1e300, 0.0, 3e-300))])
@example([PointCharge(q, Vec3(x, 0.0, 0.0)) for q, x in ((1.6e308, 1.7e308), (-4e307, 0.0), (1.6e308, -1.7e308))])
@example([PointCharge(q, Vec3(x, 1.0, 0.0)) for q, x in ((4e-310, 1.7e308), (-1e-320, 0.0), (3e-302, -1.7e308))])
@example([PointCharge(q, Vec3(x, 0.0, 0.0)) for q, x in ((1e308, 1.0), (-1e-3, 0.0), (1e-310, -1.0), (2.0, 3.0))])
def test_float_fields_and_potentials_equal_the_vec3_reference(charges):
    # one pass over the pairs forms every separation once, the reverse
    # pair's as its negation, as the reference forms it from each end, the
    # halved route of separations past the largest float and the scaling of
    # charges outside 2^-1000..2^1000 statC included, so each charge's field
    # keeps every bit; each potential does too wherever no term or partial
    # sum leaves the finite normal floats.  The pair check refuses the
    # configurations that Vec3.norm finds too close.
    too_close = any(
        (a.pos - b.pos).norm() <= fieldfree.MIN_SEPARATION for i, a in enumerate(charges) for b in charges[i + 1 :]
    )
    try:
        cfg = ChargeConfiguration(tuple(charges))
    except ValidationError:
        assert too_close
        assume(False)
    assert not too_close
    sums = fieldfree.coulomb_all(cfg)
    assert len(sums) == len(cfg.charges)
    for i, (field, k, s) in enumerate(sums):
        reference_field = _reference_field_at(cfg, i)
        assert [c.hex() for c in field] == [c.hex() for c in reference_field]
        reference, normal = _reference_potential_at(cfg, i)
        potential = fieldfree._times_power_of_two(s, -k)
        if normal:
            assert potential.hex() == reference.hex()
        assert field_at(cfg, i) == field and potential_at(cfg, i) == potential
