"""Physical constants, unit-system selection, and 3-vector utilities.

Everything downstream works in Gaussian (CGS) units: charge in statC,
length in cm, field in statV/cm, so factors of c appear explicitly in the
formulas and no vacuum permittivity ever shows up.  A scaled system with
e = c = hbar = 1 is provided for algebra-level property checks where the
physical magnitudes would only obscure the identities.

Every value type of the package (``Vec3``, ``PhysicalConstants``, the solenoid,
packet, charge and bounce parameters, their results and ``TrajectoryState``)
is an immutable ``typing.NamedTuple`` on one private base, ``_ValueTuple``.  A
type whose fields have rules checks them in its ``__new__``, and the base
routes ``_make``, and so ``_replace``, copy, deepcopy and pickle, through the
constructor, so that every way of building one validates.  Building one costs
a single tuple allocation plus its checks.  A value equals the plain tuple of
its fields, and it iterates, unpacks, hashes and orders like one; its repr is
``Name(field=value, ...)``.  A field read costs about twice a slot's, so no
loop reads fields per quadrature node or integration step: each binds the
floats it needs once.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ConfigurationError, ValidationError

GAUSSIAN_CGS = "gaussian-cgs"
SCALED_UNITY = "scaled-unity"

UNIT_SYSTEMS = (GAUSSIAN_CGS, SCALED_UNITY)

# SI-2019 exact values converted to Gaussian CGS (CODATA).
_C_CM_PER_S = 2.99792458e10
_E_STATC = 1.602176634e-19 * 2.99792458e9  # elementary charge: C -> statC
_H_ERG_S = 6.62607015e-27

_INF = math.inf


class _ValueTuple:
    """The base of every value type: placed before the type's NamedTuple of
    fields, it builds ``_make`` (which ``_replace`` calls), copies and
    unpickled values with the type's own constructor, so that its checks run
    on every route.  The stock ``_make`` and ``__reduce__`` call
    ``tuple.__new__`` and would skip them."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self)


class _ConstantsFields(NamedTuple):
    e: float
    c: float
    hbar: float


class PhysicalConstants(_ValueTuple, _ConstantsFields):
    """e (statC), c (cm/s), hbar (erg s); all strictly positive.  h = 2*pi*hbar."""

    __slots__ = ()

    def __new__(cls, e: float, c: float, hbar: float):
        # three positive finite floats pass in one test; anything else is
        # checked field by field, and the first bad field is named
        if not (
            type(e) is float and type(c) is float and type(hbar) is float
            and 0.0 < e < _INF and 0.0 < c < _INF and 0.0 < hbar < _INF
        ):
            for name, value in (("e", e), ("c", c), ("hbar", hbar)):
                if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0.0):
                    raise ValidationError(f"constant {name} must be finite and positive, got {value!r}")
        return tuple.__new__(cls, (e, c, hbar))

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


class _Vec3Fields(NamedTuple):
    x: float
    y: float
    z: float


class Vec3(_ValueTuple, _Vec3Fields):
    """Immutable 3-vector; component units depend on context."""

    __slots__ = ()

    def __add__(self, other: "Vec3") -> "Vec3":
        x, y, z = self
        ox, oy, oz = other
        return _new(Vec3, (x + ox, y + oy, z + oz))

    def __sub__(self, other: "Vec3") -> "Vec3":
        x, y, z = self
        ox, oy, oz = other
        return _new(Vec3, (x - ox, y - oy, z - oz))

    def __neg__(self) -> "Vec3":
        x, y, z = self
        return _new(Vec3, (-x, -y, -z))

    def __mul__(self, s: float) -> "Vec3":
        x, y, z = self
        return _new(Vec3, (x * s, y * s, z * s))

    __rmul__ = __mul__

    def dot(self, other: "Vec3") -> float:
        x, y, z = self
        ox, oy, oz = other
        return x * ox + y * oy + z * oz

    def cross(self, other: "Vec3") -> "Vec3":
        x, y, z = self
        ox, oy, oz = other
        return _new(Vec3, (y * oz - z * oy, z * ox - x * oz, x * oy - y * ox))

    def norm2(self) -> float:
        x, y, z = self
        return x * x + y * y + z * z

    def norm(self) -> float:
        x, y, z = self
        return math.sqrt(x * x + y * y + z * z)

    def is_finite(self) -> bool:
        x, y, z = self
        return math.isfinite(x) and math.isfinite(y) and math.isfinite(z)

    def require_finite(self, label: str = "vector") -> "Vec3":
        if not self.is_finite():
            raise ValidationError(f"{label} has non-finite components: {self}")
        return self


_new = tuple.__new__  # a Vec3 has no field rules: its operations build results directly
