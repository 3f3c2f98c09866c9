"""Point-charge configurations whose fields vanish at every particle.

The canonical example puts an electron of charge -e at the origin and two
charges +4e at +-d on a straight line: the field from any two particles
cancels at the third (4e/(2d)^2 balances e/d^2), while the potential at the
electron stays at a healthy 8e/d.  This module only computes fields and
potentials; the catalogue rows ``field_free_three_charge`` and
``potential_at_electron`` in ``verify`` judge the claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, ValidationError
from .units import Vec3

MIN_SEPARATION = 1e-12  # cm


@dataclass(frozen=True, slots=True)
class PointCharge:
    q: float
    pos: Vec3

    def __post_init__(self):
        if not math.isfinite(self.q):
            raise ValidationError(f"charge must be finite, got {self.q!r}")
        self.pos.require_finite("charge position")


@dataclass(frozen=True, slots=True)
class ChargeConfiguration:
    charges: tuple[PointCharge, ...]

    def __post_init__(self):
        if not self.charges:
            raise ValidationError("configuration needs at least one charge")
        for i, a in enumerate(self.charges):
            for j in range(i + 1, len(self.charges)):
                if (a.pos - self.charges[j].pos).norm() <= MIN_SEPARATION:
                    raise ValidationError(f"charges {i} and {j} are closer than {MIN_SEPARATION:g} cm")

    def __len__(self) -> int:
        return len(self.charges)


def _check_index(cfg: ChargeConfiguration, target_index: int):
    if not (0 <= target_index < len(cfg.charges)):
        raise DomainError(f"target_index {target_index!r} out of range for {len(cfg.charges)} charges")


def _scaled(sep: Vec3) -> tuple[int, float, float, float, float]:
    """(k, x, y, z, r): the separation times 2^-k, whose largest component
    lies in [0.5, 1), and its length r.  Multiplying by a power of two is
    exact, so r 2^k is the separation's length to the bit wherever squaring
    the separation itself neither overflows nor underflows."""
    k = math.frexp(max(abs(sep.x), abs(sep.y), abs(sep.z)))[1]
    x, y, z = math.ldexp(sep.x, -k), math.ldexp(sep.y, -k), math.ldexp(sep.z, -k)
    return k, x, y, z, math.sqrt(x * x + y * y + z * z)


def _times_power_of_two(value: float, n: int) -> float:
    # value * 2^n, inf where that overflows, as a float product would be
    try:
        return math.ldexp(value, n)
    except OverflowError:
        return math.copysign(math.inf, value)


def field_at(cfg: ChargeConfiguration, target_index: int) -> Vec3:
    """Coulomb field at charge i from all the others (statV/cm).  Each term
    q sep/|sep|^3 is formed on the separation scaled by 2^-k (``_scaled``), so
    no separation's square or cube overflows.  The terms are summed at the
    scale 2^-2k of the nearest source (the least k), and the sum is scaled
    back once, so terms that cancel do so even where each alone would
    overflow.  Scaling by a power of two commutes with rounding, so a field
    whose terms neither overflow nor underflow is the plain sum to the bit."""
    _check_index(cfg, target_index)
    target = cfg.charges[target_index]
    terms = []
    for j, source in enumerate(cfg.charges):
        if j != target_index:
            k, x, y, z, dist = _scaled(target.pos - source.pos)
            scale = source.q / (dist * dist * dist)
            terms.append((k, scale * x, scale * y, scale * z))
    near = min((term[0] for term in terms), default=0)  # a lone charge: no terms, no field
    ex = ey = ez = 0.0
    for k, x, y, z in terms:
        shift = 2 * (near - k)  # <= 0, so no term overflows
        ex += math.ldexp(x, shift)
        ey += math.ldexp(y, shift)
        ez += math.ldexp(z, shift)
    return Vec3(*(_times_power_of_two(c, -2 * near) for c in (ex, ey, ez)))


def potential_at(cfg: ChargeConfiguration, target_index: int) -> float:
    """Coulomb potential at charge i from all the others (statV), with each
    distance from the scaled separation (``_scaled``)."""
    _check_index(cfg, target_index)
    target = cfg.charges[target_index]
    total = 0.0
    for j, source in enumerate(cfg.charges):
        if j == target_index:
            continue
        k, _, _, _, dist = _scaled(target.pos - source.pos)
        total += _times_power_of_two(source.q / dist, -k)
    return total


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
