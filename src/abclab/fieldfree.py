"""Point-charge configurations whose fields vanish at every particle.

The canonical example puts an electron of charge -e at the origin and two
charges +4e at +-d on a straight line: the field from any two particles
cancels at the third (4e/(2d)^2 balances e/d^2), while the potential at the
electron stays at a healthy 8e/d.  This module only computes fields and
potentials: a configuration's fields and potentials at every charge come from
one pass over its pairs (``coulomb_all``).  A ``coulomb_at``, ``field_at`` or
``potential_at`` call pays for that whole pass, so a caller that wants every
charge calls ``coulomb_all`` once.  The catalogue rows
``field_free_three_charge`` and ``potential_at_electron`` in ``verify`` judge
the claim.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError, ValidationError
from .units import Vec3, _ValueTuple, _new

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


def _times_power_of_two(value: float, n: int) -> float:
    # value * 2^n, inf where that overflows, as a float product would be
    try:
        return math.ldexp(value, n)
    except OverflowError:
        return math.copysign(math.inf, value)


def coulomb_all(cfg: ChargeConfiguration) -> list[tuple[Vec3, int, float]]:
    """(field, k, s) at each charge: the Coulomb field there from all the
    others (statV/cm) and their potential s 2^-k statV, from one pass over
    the pairs.  A pair's separation is formed once on the positions' floats,
    times 2^-k so that its largest component lies in [0.5, 1), with its
    length r; the reverse pair's is its exact negation.  A separation that
    overflows (positions nearly 2^1024 cm apart) is formed from both
    positions halved, exact for normal floats, and k counts the halving.
    Each term, q sep/|sep|^3 or q/|sep|, is formed on that scaled separation
    and on q 2^-c.  c is 0 unless the largest |q| among the target's sources
    lies outside 2^-1000..2^1000, and q 2^-c then brings that charge to the
    edge: room for 2^21 field terms of up to 4|q| each, with the nearest
    source's terms 19 bits above the least normal float.  A target's terms are summed in source order at the scale
    of its nearest source (the least k) and the field is scaled back once,
    so terms that cancel do so even where each alone would overflow, and a
    potential far below the least normal float keeps its bits in s.  Scaling
    by a power of two commutes with rounding, so a sum whose terms neither
    overflow nor underflow is the plain one to the bit; a scaling by 2^0,
    exact, is skipped."""
    charges = cfg.charges
    frexp, ldexp, sqrt = math.frexp, math.ldexp, math.sqrt
    count = len(charges)
    terms = [[] for _ in range(count)]  # each target's (q, k, x, y, z, r, r^3), in source order
    near = [_NO_SCALE if count > 1 else 0] * count
    magnitudes = [abs(q) for q, _ in charges]
    first, second, *_ = sorted(magnitudes, reverse=True) + [0.0]  # a target's largest source is one of these
    for i, (qi, (tx, ty, tz)) in enumerate(charges):
        for j in range(i + 1, count):
            qj, (px, py, pz) = charges[j]
            sx, sy, sz = tx - px, ty - py, tz - pz
            big = max(abs(sx), abs(sy), abs(sz))
            halved = big == math.inf
            if halved:
                sx, sy, sz = 0.5 * tx - 0.5 * px, 0.5 * ty - 0.5 * py, 0.5 * tz - 0.5 * pz
                big = max(abs(sx), abs(sy), abs(sz))
            k = frexp(big)[1]
            x, y, z = ldexp(sx, -k), ldexp(sy, -k), ldexp(sz, -k)
            k += halved
            r = sqrt(x * x + y * y + z * z)
            cube = r * r * r
            terms[i].append((qj, k, x, y, z, r, cube))
            terms[j].append((qi, k, -x, -y, -z, r, cube))
            if k < near[i]:
                near[i] = k
            if k < near[j]:
                near[j] = k
    sums = []
    for target_terms, nearest, magnitude in zip(terms, near, magnitudes):
        e = frexp(second if magnitude == first else first)[1]
        c = e - min(max(e, -1000), 1000)
        ex = ey = ez = total = 0.0
        for q, k, x, y, z, r, cube in target_terms:
            if c:
                q = ldexp(q, -c)
            shift = nearest - k  # <= 0, so no term overflows
            scale = q / cube
            if shift:
                ex += ldexp(scale * x, 2 * shift)
                ey += ldexp(scale * y, 2 * shift)
                ez += ldexp(scale * z, 2 * shift)
                total += ldexp(q / r, shift)
            else:
                ex += scale * x
                ey += scale * y
                ez += scale * z
                total += q / r
        back = c - 2 * nearest
        if back:
            ex, ey, ez = _times_power_of_two(ex, back), _times_power_of_two(ey, back), _times_power_of_two(ez, back)
        sums.append((_new(Vec3, (ex, ey, ez)), nearest - c, total))
    return sums


def coulomb_at(cfg: ChargeConfiguration, target_index: int) -> tuple[Vec3, int, float]:
    """``coulomb_all``'s entry for charge i, at the cost of the whole pass."""
    if not (0 <= target_index < len(cfg.charges)):
        raise DomainError(f"target_index {target_index!r} out of range for {len(cfg.charges)} charges")
    return coulomb_all(cfg)[target_index]


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
