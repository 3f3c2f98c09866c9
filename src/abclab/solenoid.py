"""Quantized-source solenoid model and the local account of the flux phase.

The flux source is a pair of coaxial cylinders (radius r, length L, mass M)
carrying surface charges +Q and -Q and spinning in opposite directions with
surface speed v; together they behave as a solenoid of flux 4*pi*Q*v*r/(c*L).
An electron circles it at radius R with speed u in a superposition of the two
half-circles.  The electron's own magnetic field threads the solenoid cross
sections (a cos^3 profile in the viewing angle), the induced EMF changes the
cylinder surface speed by delta_v, and the accumulated displacement delta_x of
each cylinder, measured against its matter-wave wavelength h/(M*v), reproduces
the enclosed-flux phase e*Phi/(c*hbar) exactly.  Four equal contributions
(two cylinders, shifted oppositely in the two electron branches) add
constructively; the sign bookkeeping lives in ``local_model_phase`` so it can
be audited term by term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError, ConsistencyError, DomainError, ValidationError
from .quadrature import adaptive_simpson  # noqa: F401  (perfbench's tracer patches this name)
from .quadrature import refine_gauss_legendre
from .units import PhysicalConstants

CLOSED_FORM = "closed-form"
QUADRATURE = "quadrature"

# r/L above this is outside the long-solenoid regime the flux formula assumes.
LONG_SOLENOID_ASPECT = 0.1


def long_solenoid_note(r: float, L: float) -> str | None:
    """The note a report carries when r/L strains the long-solenoid flux
    formula, or None inside the regime.  The formulas stay evaluable either way.
    An L that is not positive gives None: such a solenoid does not build."""
    if L > 0.0 and r / L > LONG_SOLENOID_ASPECT:
        return (
            f"aspect ratio r/L = {r / L:.3g} exceeds {LONG_SOLENOID_ASPECT:g}; "
            "the long-solenoid flux formula is strained"
        )
    return None


def _require_positive(name: str, value: float, allow_zero: bool = False):
    ok = math.isfinite(value) and (value >= 0.0 if allow_zero else value > 0.0)
    if not ok:
        kind = "non-negative" if allow_zero else "positive"
        raise ValidationError(f"{name} must be {kind} and finite, got {value!r}")


@dataclass(frozen=True, slots=True)
class SolenoidParams:
    """Two-cylinder solenoid: radius r (cm), length L (cm), mass M (g),
    charge magnitude Q per cylinder (statC), surface speed v (cm/s).

    Q = 0 is accepted as the switched-off source limit.  Any aspect ratio
    builds; ``long_solenoid_note`` says when r/L strains the flux formula.
    """

    r: float
    L: float
    M: float
    Q: float
    v: float

    def __post_init__(self):
        _require_positive("r", self.r)
        _require_positive("L", self.L)
        _require_positive("M", self.M)
        _require_positive("Q", self.Q, allow_zero=True)
        _require_positive("v", self.v)


@dataclass(frozen=True, slots=True)
class OrbitParams:
    """Electron orbit: radius R (cm), speed u (cm/s).  u = 0 is the static limit."""

    R: float
    u: float

    def __post_init__(self):
        _require_positive("R", self.R)
        _require_positive("u", self.u, allow_zero=True)


@dataclass(frozen=True, slots=True)
class PhaseContribution:
    """One signed matter-wave phase term, labelled by cylinder and branch."""

    cylinder: str
    branch: str
    phase_rad: float


@dataclass(frozen=True, slots=True)
class ABResult:
    flux: float
    phase_ab: float
    delta_v: float
    delta_x: float
    lambda_db: float
    phase_local: float
    per_contribution: tuple[PhaseContribution, ...]

    def __post_init__(self):
        total = sum(c.phase_rad for c in self.per_contribution)
        scale = max(abs(self.phase_local), abs(self.phase_ab))
        if abs(total - self.phase_local) > 1e-12 * max(scale, 1e-300):
            raise ConsistencyError("phase_local does not equal the sum of its contributions")
        if abs(self.phase_local - self.phase_ab) > 1e-10 * max(scale, 1e-300):
            raise ConsistencyError(
                f"local-model phase {self.phase_local!r} disagrees with flux phase {self.phase_ab!r}"
            )


def solenoid_flux(s: SolenoidParams, k: PhysicalConstants) -> float:
    """Magnetic flux 4*pi*Q*v*r/(c*L) of the two counter-rotating cylinders (G cm^2)."""
    return 4.0 * math.pi * s.Q * s.v * s.r / (k.c * s.L)


def ab_phase_from_flux(flux: float, k: PhysicalConstants) -> float:
    """Relative phase e*Phi/(c*hbar) acquired around an enclosed flux."""
    return k.e * flux / (k.c * k.hbar)


def ab_phase_direct(s: SolenoidParams, k: PhysicalConstants) -> float:
    """The same phase written out: 4*pi*e*Q*v*r/(c^2*L*hbar)."""
    return 4.0 * math.pi * k.e * s.Q * s.v * s.r / (k.c ** 2 * s.L * k.hbar)


def electron_flux_at_angle(
    theta: float, o: OrbitParams, s: SolenoidParams, k: PhysicalConstants
) -> float:
    """Electron-sourced flux through the solenoid cross section seen at angle theta.

    pi*r^2*e*u*cos^3(theta)/(c*R^2); theta is restricted to [-pi/2, pi/2],
    the half-plane in front of the electron.
    """
    if not (-math.pi / 2.0 <= theta <= math.pi / 2.0):
        raise DomainError(f"theta must lie in [-pi/2, pi/2], got {theta!r}")
    return math.pi * s.r ** 2 * k.e * o.u * math.cos(theta) ** 3 / (k.c * o.R ** 2)


def velocity_kick_integrand(
    theta: float, s: SolenoidParams, o: OrbitParams, k: PhysicalConstants
) -> float:
    """Angular integrand behind the cylinder velocity change, factor by factor:
    EMF flux profile, per-circumference share, path stretch R/cos^2, full
    circumference, and charge per unit length."""
    return (
        math.pi * s.r ** 2 * k.e * o.u * math.cos(theta) ** 3 / (k.c ** 2 * o.R ** 2)
        * (1.0 / (2.0 * math.pi * s.r))
        * (o.R / math.cos(theta) ** 2)
        * (2.0 * math.pi * s.r)
        * (s.Q / (2.0 * math.pi * s.r * s.L))
    )


def cylinder_velocity_change(
    s: SolenoidParams,
    o: OrbitParams,
    k: PhysicalConstants,
    method: str = CLOSED_FORM,
) -> float:
    """Net change u*Q*e*r/(c^2*M*R*L) of the cylinder surface speed (cm/s).

    method='closed-form' evaluates the printed result; method='quadrature'
    integrates ``velocity_kick_integrand`` over [-pi/2, pi/2] with
    panel-doubling Gauss-Legendre (rel tol 1e-12) as the independent route.
    """
    if method == CLOSED_FORM:
        return o.u * s.Q * k.e * s.r / (k.c ** 2 * s.M * o.R * s.L)
    if method == QUADRATURE:
        integral = refine_gauss_legendre(
            lambda theta: velocity_kick_integrand(theta, s, o, k),
            -math.pi / 2.0,
            math.pi / 2.0,
            rel_tol=1e-12,
            start_panels=4,
        )
        return integral / s.M
    raise ConfigurationError(f"unknown method {method!r}; expected '{CLOSED_FORM}' or '{QUADRATURE}'")


def cylinder_displacement(s: SolenoidParams, o: OrbitParams, k: PhysicalConstants) -> float:
    """Cylinder wave-packet shift pi*Q*e*r/(c^2*M*L) over the electron's half circle.

    Also derivable as delta_v * (pi*R/u); the two routes are cross-checked to
    1e-14 relative (the orbit radius and speed cancel).
    """
    direct = math.pi * s.Q * k.e * s.r / (k.c ** 2 * s.M * s.L)
    if o.u > 0.0:
        via_kick = cylinder_velocity_change(s, o, k) * (math.pi * o.R / o.u)
        if abs(via_kick - direct) > 1e-14 * max(abs(direct), 1e-300):
            raise ConsistencyError(
                f"displacement routes disagree: {via_kick!r} (via delta_v) vs {direct!r}"
            )
    return direct


def de_broglie_wavelength(M: float, v: float, k: PhysicalConstants) -> float:
    """Matter-wave wavelength h/(M*v) in cm."""
    if not (M > 0.0 and math.isfinite(M)):
        raise DomainError(f"mass must be positive, got {M!r}")
    if not (v > 0.0 and math.isfinite(v)):
        raise DomainError(f"speed must be positive, got {v!r}")
    return k.h / (M * v)


def source_momentum_kick(s: SolenoidParams, o: OrbitParams, k: PhysicalConstants) -> float:
    """Transient momentum shift M*delta_v = u*Q*e*r/(c^2*R*L) of each cylinder (g cm/s)."""
    return s.M * cylinder_velocity_change(s, o, k)


def local_model_phase(s: SolenoidParams, o: OrbitParams, k: PhysicalConstants) -> ABResult:
    """Assemble the full local-model chain and its per-term bookkeeping.

    Each of the four (cylinder, branch) combinations contributes one
    matter-wave phase of magnitude 2*pi*delta_x/lambda; both cylinders shift,
    and they shift oppositely in the two branches, so with the orientation
    fixed here all four add and the total equals the enclosed-flux phase.
    """
    flux = solenoid_flux(s, k)
    phase_ab = ab_phase_direct(s, k)
    delta_v = cylinder_velocity_change(s, o, k)
    delta_x = cylinder_displacement(s, o, k)
    lambda_db = de_broglie_wavelength(s.M, s.v, k)
    term = 2.0 * math.pi * delta_x / lambda_db
    per = (
        PhaseContribution("+Q", "left", term),
        PhaseContribution("+Q", "right", term),
        PhaseContribution("-Q", "left", term),
        PhaseContribution("-Q", "right", term),
    )
    phase_local = sum(c.phase_rad for c in per)
    return ABResult(
        flux=flux,
        phase_ab=phase_ab,
        delta_v=delta_v,
        delta_x=delta_x,
        lambda_db=lambda_db,
        phase_local=phase_local,
        per_contribution=per,
    )
