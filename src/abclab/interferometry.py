"""Two-path Mach-Zehnder interference engine.

Conventions
-----------
* Detector probabilities follow p_A = (1 + V cos(phi))/2 and
  p_B = (1 - V cos(phi))/2, so a relative phase of zero sends the particle
  to detector A with certainty and a phase of pi switches it to B.
* ``packet_overlap`` evaluates <chi| D(dx, dp) |chi> for a 1D Gaussian
  packet chi with the symmetric-ordering displacement operator
  D(dx, dp) = exp(i (dp x - dx p) / hbar).  The closed form is

      exp(-dx^2/(8 sx^2) - dp^2 sx^2 / (2 hbar^2))
      * exp(i (dp x0 - p0 dx) / hbar)

  so the phase reduces to dp*x0/hbar when dx = 0.  Other displacement
  orderings differ only by a phase dx*dp/(2 hbar); the magnitude, which is
  all the visibility calculus consumes, is convention independent.
* Fringe visibility equals the magnitude of the overlap between the source
  states correlated with the two paths: orthogonal source states mark the
  path completely and kill the fringes.
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import NamedTuple

from .errors import ConsistencyError, DomainError, ValidationError
from .quadrature import adaptive_simpson  # noqa: F401  (perfbench's tracer patches this name)
from .quadrature import refine_periodic_trapezoid
from .units import _ValueTuple

# Tolerated overflow of |overlap| above 1 before we declare the upstream
# computation broken.
OVERLAP_MAGNITUDE_SLACK = 1e-9

# Relative tolerance of overlap_by_quadrature; its absolute floor is this
# times the integrand's peak norm2 times the integration interval.
OVERLAP_QUADRATURE_REL_TOL = 1e-12


class _PacketFields(NamedTuple):
    x0: float
    p0: float
    sigma_x: float


class GaussianPacket(_ValueTuple, _PacketFields):
    """1D Gaussian wave packet: center x0 (cm), mean momentum p0 (g cm/s),
    position spread sigma_x (cm).  The overlaps need no mass: a packet is
    displaced and kicked, never evolved."""

    __slots__ = ()

    def __new__(cls, x0: float, p0: float, sigma_x: float):
        sx = sigma_x
        if not (math.isfinite(sx) and sx > 0.0):
            raise ValidationError(f"sigma_x must be positive, got {sx!r}")
        # The overlap routes divide by sigma_x^2 times 2*pi, 4 or 8; each of
        # these must be a normal float, neither 0.0, subnormal nor inf.
        if not (sys.float_info.min <= sx * sx and 8.0 * sx * sx < math.inf):
            raise ValidationError(
                f"sigma_x^2 = {sx * sx!r} at sigma_x = {sx!r}: the overlap routes need it normal and 8*sigma_x^2 finite"
            )
        if not (math.isfinite(x0) and math.isfinite(p0)):
            raise ValidationError("packet center and momentum must be finite")
        return tuple.__new__(cls, (x0, p0, sigma_x))


class _ProbabilityFields(NamedTuple):
    p_a: float
    p_b: float


class DetectionProbabilities(_ValueTuple, _ProbabilityFields):
    """The probabilities of detectors A and B (``detector_probabilities``)."""

    __slots__ = ()


def detector_probabilities(phase: float, visibility: float = 1.0) -> DetectionProbabilities:
    """Detector probabilities for a relative phase (rad) and fringe visibility in [0, 1]."""
    if not (0.0 <= visibility <= 1.0):
        raise DomainError(f"visibility must lie in [0, 1], got {visibility!r}")
    if not math.isfinite(phase):
        raise DomainError(f"phase must be finite, got {phase!r}")
    c = visibility * math.cos(phase)
    return DetectionProbabilities(0.5 * (1.0 + c), 0.5 * (1.0 - c))


def phase_from_path_shift(delta_l: float, wavelength: float) -> float:
    """Relative phase 2*pi*delta_l/wavelength produced by lengthening one arm."""
    if not (wavelength > 0.0):
        raise DomainError(f"wavelength must be positive, got {wavelength!r}")
    phase = 2.0 * math.pi * delta_l / wavelength
    if not math.isfinite(phase):
        raise DomainError(f"phase 2*pi*delta_l/wavelength must be finite, got {phase!r}")
    return phase


def packet_overlap(packet: GaussianPacket, delta_x: float, delta_p: float, hbar: float) -> complex:
    """Overlap of a Gaussian packet with its displaced/kicked copy (closed
    form).  A phase (delta_p*x0 - p0*delta_x)/hbar that overflows is a
    DomainError."""
    sx = packet.sigma_x
    decay = delta_x * delta_x / (8.0 * sx * sx) + delta_p * delta_p * sx * sx / (2.0 * hbar * hbar)
    phase = (delta_p * packet.x0 - packet.p0 * delta_x) / hbar
    if not math.isfinite(phase):
        raise DomainError(
            f"overlap phase (delta_p*x0 - p0*delta_x)/hbar overflows at x0 = {packet.x0!r}, "
            f"p0 = {packet.p0!r}, delta_x = {delta_x!r}, delta_p = {delta_p!r}, hbar = {hbar!r}"
        )
    return cmath.exp(complex(-decay, phase))


def overlap_by_quadrature(
    packet: GaussianPacket,
    delta_x: float,
    delta_p: float,
    hbar: float,
) -> complex:
    """Same overlap evaluated by direct numerical integration.

    This is the independent route used to audit ``packet_overlap``: it
    builds the displaced wavefunction explicitly and integrates the complex
    product conj(chi(x)) * (D chi)(x) in one pass of the point-doubling
    trapezoid rule (``refine_periodic_trapezoid``) on the window
    [a, b] = center +- (12 sigma_x + |delta_x|/2), to
    OVERLAP_QUADRATURE_REL_TOL times max(|I|, norm2 * (b - a)): the floor is
    the integrand's peak norm2 times the interval, a scale taken from the
    integrand, never from the closed form.  The integrand is e^-72 of its
    peak or less at both ends, so the rule converges geometrically, at 64 or
    128 points over verify's draws.  It samples the integrand as built; no
    Gaussian envelope is taken analytically.  A window whose squared reach
    from the packet centres overflows is a DomainError.

    So is a window whose nodes floats cannot resolve.  The integrand keeps
    weight above e^-72 of its peak only within 12 sigma_x of the centre, where
    |x| <= m = |center| + 12 sigma_x, so each node there is rounded by up to
    about ulp(m).  A node off by d changes the log of the Gaussian factor by
    d*|x - center|/sigma_x^2, about d/sigma_x where the packet has its weight,
    and the phase by d*|delta_p|/hbar, of the same order for
    |delta_p|*sigma_x/hbar <= 2 (the verify band).  Since the integrand's
    modulus integrates to at most 1, every level's estimate carries an error
    of about ulp(m)/sigma_x (0.6 ulp(m)/sigma_x measured at x0 = 6e4, sigma_x
    = 1, delta_p = 0.7).  The refinement accepts a change up to max(rel_tol
    |I|, floor), floor = rel_tol * norm2 * (b - a), and |I| <= 1 keeps the
    floor the larger (about 9.6 rel_tol at delta_x = 0).  So no level meets
    the tolerance by resolution unless ulp(m) <= floor * sigma_x; beyond that
    the window is refused.  A phase delta_p*x/hbar that overflows at an end
    of the window, or p0*delta_x/hbar that overflows, is a DomainError as
    well.
    """
    x0, p0, sx = packet
    norm2 = 1.0 / math.sqrt(2.0 * math.pi * sx * sx)  # |chi|^2 normalization

    # The terms that do not depend on x, formed once.  Each keeps the order
    # of its operations, on which the overlap's last bits depend.
    four_var = 4.0 * sx * sx
    shift_phase = -p0 * delta_x / hbar
    kick_phase = delta_p * delta_x / (2.0 * hbar)

    def integrand(x: float) -> complex:
        # conj(chi(x)) chi(x - dx) with the symmetric-ordering phase factors.
        g = math.exp(-((x - x0) ** 2 + (x - delta_x - x0) ** 2) / four_var)
        ph = shift_phase + delta_p * x / hbar - kick_phase
        return norm2 * g * cmath.exp(1j * ph)

    center = x0 + 0.5 * delta_x
    half_width = 12.0 * sx + 0.5 * abs(delta_x)
    # The window's ends lie up to this far from either packet centre, and the
    # integrand squares that distance.
    reach = 12.0 * sx + abs(delta_x)
    if not reach * reach < math.inf:
        raise DomainError(
            "overlap window: the squared distance (12*sigma_x + |delta_x|)^2 of its ends from the "
            f"packet centres overflows at sigma_x = {sx!r}, delta_x = {delta_x!r}"
        )
    a, b = center - half_width, center + half_width
    rel_tol = OVERLAP_QUADRATURE_REL_TOL
    floor = rel_tol * norm2 * (b - a)
    spacing = math.ulp(abs(center) + 12.0 * sx)
    if spacing > floor * sx:
        raise DomainError(
            f"overlap window: the float spacing {spacing!r} near its centre {center!r} exceeds "
            f"sigma_x times the tolerance floor {floor!r}, so its nodes cannot resolve the packet "
            f"of sigma_x = {sx!r}"
        )
    far = max(abs(a), abs(b))
    if not abs(delta_p) * far / hbar < math.inf:
        raise DomainError(
            f"overlap window: the phase delta_p*x/hbar overflows at its end x = {far!r}, "
            f"delta_p = {delta_p!r}, hbar = {hbar!r}"
        )
    if not abs(shift_phase) < math.inf:
        raise DomainError(
            f"overlap phase: p0*delta_x/hbar overflows at p0 = {p0!r}, delta_x = {delta_x!r}, hbar = {hbar!r}"
        )
    return refine_periodic_trapezoid(integrand, a, b, rel_tol, floor)


def visibility_from_overlap(overlap: complex) -> float:
    """Fringe visibility = |overlap| of the source states, clamped to [0, 1]."""
    magnitude = abs(overlap)
    if magnitude > 1.0 + OVERLAP_MAGNITUDE_SLACK:
        raise ConsistencyError(
            f"|overlap| = {magnitude!r} exceeds 1; the upstream overlap computation is broken"
        )
    return min(max(magnitude, 0.0), 1.0)
