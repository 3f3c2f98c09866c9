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
constructively, so ``local_model_phase`` is four times one term.

The closed forms divide by products of the inputs.  When such a product
underflows to 0.0 the formula raises a DomainError that names its quotient,
as ``de_broglie_wavelength`` does for h/(M*v), rather than dividing by zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, ValidationError
from .quadrature import adaptive_simpson  # noqa: F401  (perfbench's tracer patches this name)
from .quadrature import refine_gauss_legendre
from .units import PhysicalConstants

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
class ABResult:
    flux: float
    phase_ab: float
    delta_v: float
    delta_x: float
    lambda_db: float
    phase_local: float


def _quotient(name: str, numerator: float, denominator: float) -> float:
    """numerator/denominator, or a DomainError naming the quotient ``name``
    when its denominator, a product of positive inputs, underflows to 0.0."""
    if denominator == 0.0:
        raise DomainError(f"{name}: its denominator underflows to 0.0")
    return numerator / denominator


def solenoid_flux(s: SolenoidParams, k: PhysicalConstants) -> float:
    """Magnetic flux 4*pi*Q*v*r/(c*L) of the two counter-rotating cylinders (G cm^2)."""
    return _quotient("4*pi*Q*v*r/(c*L)", 4.0 * math.pi * s.Q * s.v * s.r, k.c * s.L)


def ab_phase_from_flux(flux: float, k: PhysicalConstants) -> float:
    """Relative phase e*Phi/(c*hbar) acquired around an enclosed flux."""
    return k.e * flux / (k.c * k.hbar)


def ab_phase_direct(s: SolenoidParams, k: PhysicalConstants) -> float:
    """The same phase written out: 4*pi*e*Q*v*r/(c^2*L*hbar)."""
    return _quotient("4*pi*e*Q*v*r/(c^2*L*hbar)", 4.0 * math.pi * k.e * s.Q * s.v * s.r, k.c ** 2 * s.L * k.hbar)


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
    EMF flux profile ``electron_flux_at_angle``/c, per-circumference share,
    path stretch R/cos^2, full circumference, and charge per unit length."""
    return (
        electron_flux_at_angle(theta, o, s, k) / k.c
        * (1.0 / (2.0 * math.pi * s.r))
        * (o.R / math.cos(theta) ** 2)
        * (2.0 * math.pi * s.r)
        * (s.Q / (2.0 * math.pi * s.r * s.L))
    )


def cylinder_velocity_change(s: SolenoidParams, o: OrbitParams, k: PhysicalConstants) -> float:
    """Net change u*Q*e*r/(c^2*M*R*L) of the cylinder surface speed (cm/s),
    the printed closed form.  ``velocity_change_by_quadrature`` is the
    independent route; the catalogue row velocity_kick_quadrature compares them."""
    return _quotient("u*Q*e*r/(c^2*M*R*L)", o.u * s.Q * k.e * s.r, k.c ** 2 * s.M * o.R * s.L)


def velocity_change_by_quadrature(s: SolenoidParams, o: OrbitParams, k: PhysicalConstants) -> float:
    """Same velocity change by integrating ``velocity_kick_integrand`` over
    [-pi/2, pi/2] with panel-doubling Gauss-Legendre (rel tol 1e-12) from one
    panel.  The integrand, cos^3(theta) times the stretch R/cos^2(theta), is
    a fixed multiple of cos(theta), which one 10-point panel integrates to
    about 1e-20, so the refinement stops at two panels."""
    integral = refine_gauss_legendre(
        lambda theta: velocity_kick_integrand(theta, s, o, k),
        -math.pi / 2.0,
        math.pi / 2.0,
        rel_tol=1e-12,
    )
    return integral / s.M


def cylinder_displacement(s: SolenoidParams, k: PhysicalConstants) -> float:
    """Cylinder wave-packet shift pi*Q*e*r/(c^2*M*L) over the electron's half
    circle, the same for every orbit.  It equals delta_v * (pi*R/u), where the
    orbit radius and speed cancel; the catalogue row
    displacement_orbit_invariance checks that route against this one to 1e-14."""
    return _quotient("pi*Q*e*r/(c^2*M*L)", math.pi * s.Q * k.e * s.r, k.c ** 2 * s.M * s.L)


def de_broglie_wavelength(M: float, v: float, k: PhysicalConstants) -> float:
    """Matter-wave wavelength h/(M*v) in cm."""
    if not (M > 0.0 and math.isfinite(M)):
        raise DomainError(f"mass must be positive, got {M!r}")
    if not (v > 0.0 and math.isfinite(v)):
        raise DomainError(f"speed must be positive, got {v!r}")
    momentum = M * v  # may overflow to inf or underflow to 0
    wavelength = k.h / momentum if momentum > 0.0 else math.inf
    if not (0.0 < wavelength < math.inf):
        raise DomainError(f"h/(M*v) must be positive and finite, got {wavelength!r} at M*v = {momentum!r}")
    return wavelength


def source_momentum_kick(s: SolenoidParams, o: OrbitParams, k: PhysicalConstants) -> float:
    """Transient momentum shift M*delta_v = u*Q*e*r/(c^2*R*L) of each cylinder (g cm/s)."""
    return s.M * cylinder_velocity_change(s, o, k)


def local_model_phase(s: SolenoidParams, o: OrbitParams, k: PhysicalConstants) -> ABResult:
    """Assemble the full local-model chain.

    Each of the four (cylinder, branch) combinations contributes one
    matter-wave phase of magnitude 2*pi*delta_x/lambda; both cylinders shift,
    and they shift oppositely in the two branches, so with the orientation
    fixed here all four add and the total equals the enclosed-flux phase.
    """
    flux = solenoid_flux(s, k)
    phase_ab = ab_phase_direct(s, k)
    delta_v = cylinder_velocity_change(s, o, k)
    delta_x = cylinder_displacement(s, k)
    lambda_db = de_broglie_wavelength(s.M, s.v, k)
    term = 2.0 * math.pi * delta_x / lambda_db
    return ABResult(
        flux=flux,
        phase_ab=phase_ab,
        delta_v=delta_v,
        delta_x=delta_x,
        lambda_db=lambda_db,
        phase_local=4.0 * term,
    )
