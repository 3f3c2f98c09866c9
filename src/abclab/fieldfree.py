"""Point-charge configurations whose fields vanish at every particle.

The canonical example puts an electron of charge -e at the origin and two
charges +4e at +-d on a straight line: the field from any two particles
cancels at the third (4e/(2d)^2 balances e/d^2), while the potential at the
electron stays at a healthy 8e/d.  This module only computes fields and
potentials, both at once (``coulomb_at``); the catalogue rows
``field_free_three_charge`` and ``potential_at_electron`` in ``verify`` judge
the claim.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError, ValidationError
from .units import Vec3, _ValueTuple

MIN_SEPARATION = 1e-12  # cm
_NO_SCALE = 1 << 30  # above every separation's power of two


class _ChargeFields(NamedTuple):
    q: float
    pos: Vec3


class PointCharge(_ValueTuple, _ChargeFields):
    """A point charge q (statC) at pos (cm)."""

    __slots__ = ()

    def __new__(cls, q: float, pos: Vec3):
        if not math.isfinite(q):
            raise ValidationError(f"charge must be finite, got {q!r}")
        pos.require_finite("charge position")
        return tuple.__new__(cls, (q, pos))


class _ConfigurationFields(NamedTuple):
    charges: tuple[PointCharge, ...]


class ChargeConfiguration(_ValueTuple, _ConfigurationFields):
    """Point charges at distinct positions; ``len(cfg.charges)`` counts them."""

    __slots__ = ()

    def __new__(cls, charges: tuple[PointCharge, ...]):
        if not charges:
            raise ValidationError("configuration needs at least one charge")
        # each pair's |a - b| as Vec3.norm forms it, on the positions' floats
        positions = [pos for _, pos in charges]
        for i, (ax, ay, az) in enumerate(positions):
            for j in range(i + 1, len(positions)):
                bx, by, bz = positions[j]
                dx, dy, dz = ax - bx, ay - by, az - bz
                if math.sqrt(dx * dx + dy * dy + dz * dz) <= MIN_SEPARATION:
                    raise ValidationError(f"charges {i} and {j} are closer than {MIN_SEPARATION:g} cm")
        return tuple.__new__(cls, (charges,))


def _check_index(cfg: ChargeConfiguration, target_index: int):
    if not (0 <= target_index < len(cfg.charges)):
        raise DomainError(f"target_index {target_index!r} out of range for {len(cfg.charges)} charges")


def _scaled_terms(cfg: ChargeConfiguration, target_index: int) -> tuple[int, int, list[tuple]]:
    """(near, c, terms): a term (q, k, x, y, z, r) for each charge but the
    target, near, the least k (0 for a lone charge), and c, 0 unless the
    largest |q| lies outside 2^-1000..2^1000, where q 2^-c brings it to the
    edge: that leaves room for 2^21 field terms of up to 4|q| each, and
    keeps the nearest source's terms 19 bits above the least normal float.
    A term holds the charge q, its separation from the target (target
    minus source) times 2^-k, whose largest component lies in [0.5, 1), and
    that separation's length r.  Multiplying by a power of two is exact, so
    r 2^k is the separation's length to the bit wherever squaring the
    separation itself neither overflows nor underflows.  A separation that
    overflows (positions nearly 2^1024 cm apart) is formed from both
    positions halved, exact for normal floats, and k counts the halving.
    The separations are formed on the positions' floats, with no Vec3 per
    pair."""
    _check_index(cfg, target_index)
    tx, ty, tz = cfg.charges[target_index].pos
    frexp, ldexp, sqrt = math.frexp, math.ldexp, math.sqrt
    terms = []
    near, top = _NO_SCALE, 0.0
    for j, (q, (px, py, pz)) in enumerate(cfg.charges):
        if j == target_index:
            continue
        sx, sy, sz = tx - px, ty - py, tz - pz
        big = max(abs(sx), abs(sy), abs(sz))
        halved = big == math.inf
        if halved:
            sx, sy, sz = 0.5 * tx - 0.5 * px, 0.5 * ty - 0.5 * py, 0.5 * tz - 0.5 * pz
            big = max(abs(sx), abs(sy), abs(sz))
        k = frexp(big)[1]
        x, y, z = ldexp(sx, -k), ldexp(sy, -k), ldexp(sz, -k)
        k += halved
        if k < near:
            near = k
        if abs(q) > top:
            top = abs(q)
        terms.append((q, k, x, y, z, sqrt(x * x + y * y + z * z)))
    e = frexp(top)[1]
    return (near if terms else 0), e - min(max(e, -1000), 1000), terms


def _times_power_of_two(value: float, n: int) -> float:
    # value * 2^n, inf where that overflows, as a float product would be
    try:
        return math.ldexp(value, n)
    except OverflowError:
        return math.copysign(math.inf, value)


def coulomb_at(cfg: ChargeConfiguration, target_index: int) -> tuple[Vec3, int, float]:
    """(field, k, s): the Coulomb field at charge i from all the others
    (statV/cm) and their potential s 2^-k statV, from one ``_scaled_terms``
    pass.  Each term, q sep/|sep|^3 or q/|sep|, is formed on the separation
    times 2^-k and the charge times 2^-c, so none overflows.  The terms are
    summed at the scale of the nearest source (the least k) and the field is
    scaled back once, so terms that cancel do so even where each alone would
    overflow, and a potential far below the least normal float keeps its
    bits in s.  Scaling by a power of two commutes with rounding, so a sum
    whose terms neither overflow nor underflow is the plain one to the bit."""
    near, c, terms = _scaled_terms(cfg, target_index)
    ldexp = math.ldexp
    ex = ey = ez = total = 0.0
    for q, k, x, y, z, dist in terms:
        q = ldexp(q, -c)
        shift = near - k  # <= 0, so no term overflows
        scale = q / (dist * dist * dist)
        ex += ldexp(scale * x, 2 * shift)
        ey += ldexp(scale * y, 2 * shift)
        ez += ldexp(scale * z, 2 * shift)
        total += ldexp(q / dist, shift)
    back = c - 2 * near
    field = Vec3(_times_power_of_two(ex, back), _times_power_of_two(ey, back), _times_power_of_two(ez, back))
    return field, near - c, total


def field_at(cfg: ChargeConfiguration, target_index: int) -> Vec3:
    """Coulomb field at charge i from all the others (statV/cm)."""
    return coulomb_at(cfg, target_index)[0]


def potential_at(cfg: ChargeConfiguration, target_index: int) -> float:
    """Coulomb potential at charge i from all the others (statV)."""
    _, k, s = coulomb_at(cfg, target_index)
    return _times_power_of_two(s, -k)


def make_three_charge(d: float, e: float) -> ChargeConfiguration:
    """The field-free triple: -e at the origin, +4e at +-d on the x axis."""
    if not (d > 0.0 and math.isfinite(d)):
        raise DomainError(f"spacing d must be positive, got {d!r}")
    if not (e > 0.0 and math.isfinite(e)):
        raise DomainError(f"charge unit e must be positive, got {e!r}")
    return ChargeConfiguration(
        (
            PointCharge(-e, Vec3(0.0, 0.0, 0.0)),
            PointCharge(4.0 * e, Vec3(d, 0.0, 0.0)),
            PointCharge(4.0 * e, Vec3(-d, 0.0, 0.0)),
        )
    )
