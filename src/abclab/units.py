"""Physical constants, unit-system selection, and 3-vector utilities.

Everything downstream works in Gaussian (CGS) units: charge in statC,
length in cm, field in statV/cm, so factors of c appear explicitly in the
formulas and no vacuum permittivity ever shows up.  A scaled system with
e = c = hbar = 1 is provided for algebra-level property checks where the
physical magnitudes would only obscure the identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError, ValidationError

GAUSSIAN_CGS = "gaussian-cgs"
SCALED_UNITY = "scaled-unity"

UNIT_SYSTEMS = (GAUSSIAN_CGS, SCALED_UNITY)

# SI-2019 exact values converted to Gaussian CGS (CODATA).
_C_CM_PER_S = 2.99792458e10
_E_STATC = 1.602176634e-19 * 2.99792458e9  # elementary charge: C -> statC
_H_ERG_S = 6.62607015e-27


@dataclass(frozen=True, slots=True)
class PhysicalConstants:
    """e (statC), c (cm/s), hbar (erg s); all strictly positive.  h = 2*pi*hbar."""

    e: float
    c: float
    hbar: float

    def __post_init__(self):
        e, c, hbar, isfinite = self.e, self.c, self.hbar, math.isfinite
        if not (
            isinstance(e, (int, float)) and isfinite(e) and e > 0.0
            and isinstance(c, (int, float)) and isfinite(c) and c > 0.0
            and isinstance(hbar, (int, float)) and isfinite(hbar) and hbar > 0.0
        ):
            for name, value in (("e", e), ("c", c), ("hbar", hbar)):
                if not (isinstance(value, (int, float)) and isfinite(value) and value > 0.0):
                    raise ValidationError(f"constant {name} must be finite and positive, got {value!r}")

    @property
    def h(self) -> float:
        return 2.0 * math.pi * self.hbar


def make_constants(system: str = GAUSSIAN_CGS) -> PhysicalConstants:
    """Return the constants of a unit system id ('gaussian-cgs' or 'scaled-unity')."""
    if system == GAUSSIAN_CGS:
        return PhysicalConstants(e=_E_STATC, c=_C_CM_PER_S, hbar=_H_ERG_S / (2.0 * math.pi))
    if system == SCALED_UNITY:
        return PhysicalConstants(e=1.0, c=1.0, hbar=1.0)
    raise ConfigurationError(
        f"unknown unit system {system!r}; expected one of {', '.join(UNIT_SYSTEMS)}"
    )


@dataclass(frozen=True, slots=True)
class Vec3:
    """Immutable 3-vector; component units depend on context."""

    x: float
    y: float
    z: float

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Vec3":
        return Vec3(-self.x, -self.y, -self.z)

    def __mul__(self, s: float) -> "Vec3":
        return Vec3(self.x * s, self.y * s, self.z * s)

    __rmul__ = __mul__

    def dot(self, other: "Vec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "Vec3") -> "Vec3":
        return Vec3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def norm2(self) -> float:
        return self.dot(self)

    def norm(self) -> float:
        return math.sqrt(self.norm2())

    def is_finite(self) -> bool:
        return math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)

    def require_finite(self, label: str = "vector") -> "Vec3":
        if not self.is_finite():
            raise ValidationError(f"{label} has non-finite components: {self}")
        return self

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)

