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
from dataclasses import dataclass

from .errors import ConsistencyError, DomainError, ValidationError
from .quadrature import adaptive_simpson  # noqa: F401  (perfbench's tracer patches this name)
from .quadrature import refine_gauss_legendre

# Tolerated overflow of |overlap| above 1 before we declare the upstream
# computation broken.
OVERLAP_MAGNITUDE_SLACK = 1e-9

# Relative tolerance of overlap_by_quadrature; its absolute floor is this
# times the integrand's peak norm2 times the integration interval.
OVERLAP_QUADRATURE_REL_TOL = 1e-12


@dataclass(frozen=True, slots=True)
class GaussianPacket:
    """1D Gaussian wave packet: center x0 (cm), mean momentum p0 (g cm/s),
    position spread sigma_x (cm), mass (g)."""

    x0: float
    p0: float
    sigma_x: float
    mass: float

    def __post_init__(self):
        if not (math.isfinite(self.sigma_x) and self.sigma_x > 0.0):
            raise ValidationError(f"sigma_x must be positive, got {self.sigma_x!r}")
        if not (math.isfinite(self.mass) and self.mass > 0.0):
            raise ValidationError(f"mass must be positive, got {self.mass!r}")
        if not (math.isfinite(self.x0) and math.isfinite(self.p0)):
            raise ValidationError("packet center and momentum must be finite")

    def momentum_spread(self, hbar: float) -> float:
        """Minimum-uncertainty momentum spread sigma_p = hbar/(2 sigma_x)."""
        return hbar / (2.0 * self.sigma_x)


@dataclass(frozen=True, slots=True)
class DetectionProbabilities:
    p_a: float
    p_b: float

    def __post_init__(self):
        for name, p in (("p_a", self.p_a), ("p_b", self.p_b)):
            if not (-1e-12 <= p <= 1.0 + 1e-12):
                raise ValidationError(f"{name} out of [0, 1]: {p!r}")
        if abs(self.p_a + self.p_b - 1.0) > 1e-12:
            raise ValidationError(f"probabilities must sum to 1, got {self.p_a + self.p_b!r}")


@dataclass(frozen=True, slots=True)
class TwoPathState:
    """Normalized amplitudes on the upper and lower interferometer arms."""

    amp_upper: complex
    amp_lower: complex

    def __post_init__(self):
        norm = abs(self.amp_upper) ** 2 + abs(self.amp_lower) ** 2
        if abs(norm - 1.0) > 1e-12:
            raise ValidationError(f"two-path state is not normalized: |a|^2+|b|^2 = {norm!r}")

    @classmethod
    def from_phase(cls, phase: float) -> "TwoPathState":
        """Balanced superposition with relative phase on the lower arm."""
        s = 1.0 / math.sqrt(2.0)
        return cls(complex(s, 0.0), cmath.exp(1j * phase) * s)

    def probabilities(self) -> DetectionProbabilities:
        """Recombine on a balanced splitter: A gets (u+l)/sqrt(2), B gets (u-l)/sqrt(2)."""
        p_a = 0.5 * abs(self.amp_upper + self.amp_lower) ** 2
        p_b = 0.5 * abs(self.amp_upper - self.amp_lower) ** 2
        return DetectionProbabilities(p_a, p_b)


def detector_probabilities(phase: float, visibility: float = 1.0) -> DetectionProbabilities:
    """Detector probabilities for a relative phase (rad) and fringe visibility in [0, 1]."""
    if not (0.0 <= visibility <= 1.0):
        raise DomainError(f"visibility must lie in [0, 1], got {visibility!r}")
    c = visibility * math.cos(phase)
    return DetectionProbabilities(0.5 * (1.0 + c), 0.5 * (1.0 - c))


def phase_from_path_shift(delta_l: float, wavelength: float) -> float:
    """Relative phase 2*pi*delta_l/wavelength produced by lengthening one arm."""
    if not (wavelength > 0.0):
        raise DomainError(f"wavelength must be positive, got {wavelength!r}")
    return 2.0 * math.pi * delta_l / wavelength


def packet_overlap(packet: GaussianPacket, delta_x: float, delta_p: float, hbar: float) -> complex:
    """Overlap of a Gaussian packet with its displaced/kicked copy (closed form)."""
    sx = packet.sigma_x
    decay = delta_x * delta_x / (8.0 * sx * sx) + delta_p * delta_p * sx * sx / (2.0 * hbar * hbar)
    phase = (delta_p * packet.x0 - packet.p0 * delta_x) / hbar
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
    product conj(chi(x)) * (D chi)(x) in one pass of panel-doubling
    Gauss-Legendre (``refine_gauss_legendre``) on [a, b], to
    OVERLAP_QUADRATURE_REL_TOL times max(|I|, norm2 * (b - a)): the floor is
    the integrand's peak norm2 times the interval, a scale taken from the
    integrand, never from the closed form.
    """
    x0, p0, sx = packet.x0, packet.p0, packet.sigma_x
    norm2 = 1.0 / math.sqrt(2.0 * math.pi * sx * sx)  # |chi|^2 normalization

    def integrand(x: float) -> complex:
        # conj(chi(x)) chi(x - dx) with the symmetric-ordering phase factors.
        g = math.exp(-((x - x0) ** 2 + (x - delta_x - x0) ** 2) / (4.0 * sx * sx))
        ph = (
            -p0 * delta_x / hbar
            + delta_p * x / hbar
            - delta_p * delta_x / (2.0 * hbar)
        )
        return norm2 * g * cmath.exp(1j * ph)

    center = x0 + 0.5 * delta_x
    half_width = 12.0 * sx + 0.5 * abs(delta_x)
    a, b = center - half_width, center + half_width
    rel_tol = OVERLAP_QUADRATURE_REL_TOL
    return refine_gauss_legendre(integrand, a, b, rel_tol=rel_tol, abs_floor=rel_tol * norm2 * (b - a), start_panels=4)


def visibility_from_overlap(overlap: complex) -> float:
    """Fringe visibility = |overlap| of the source states, clamped to [0, 1]."""
    magnitude = abs(overlap)
    if magnitude > 1.0 + OVERLAP_MAGNITUDE_SLACK:
        raise ConsistencyError(
            f"|overlap| = {magnitude!r} exceeds 1; the upstream overlap computation is broken"
        )
    return min(max(magnitude, 0.0), 1.0)
