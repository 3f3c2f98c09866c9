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


def field_at(cfg: ChargeConfiguration, target_index: int) -> Vec3:
    """Coulomb field at charge i from all the others (statV/cm)."""
    _check_index(cfg, target_index)
    target = cfg.charges[target_index]
    ex = ey = ez = 0.0
    for j, source in enumerate(cfg.charges):
        if j == target_index:
            continue
        sep = target.pos - source.pos
        dist = sep.norm()
        scale = source.q / (dist * dist * dist)
        ex += scale * sep.x
        ey += scale * sep.y
        ez += scale * sep.z
    return Vec3(ex, ey, ez)


def potential_at(cfg: ChargeConfiguration, target_index: int) -> float:
    """Coulomb potential at charge i from all the others (statV)."""
    _check_index(cfg, target_index)
    target = cfg.charges[target_index]
    total = 0.0
    for j, source in enumerate(cfg.charges):
        if j == target_index:
            continue
        total += source.q / (target.pos - source.pos).norm()
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
