"""abclab: flux-phase interferometry and hidden-momentum dynamics lab.

Library layout:

* :mod:`abclab.units` - Gaussian CGS constants, scaled units, 3-vectors.
* :mod:`abclab.interferometry` - two-path detector statistics, Gaussian
  packet overlaps, which-path visibility.
* :mod:`abclab.solenoid` - the two-cylinder quantized flux source and the
  local matter-wave account of the enclosed-flux phase.
* :mod:`abclab.boyer` - current-loop moment near a charged line: dipole
  force, hidden momentum, mirror-bounce dynamics, loop phase.
* :mod:`abclab.fieldfree` - point-charge configurations with vanishing
  fields at every particle.
* :mod:`abclab.scenario` / :mod:`abclab.verify` / :mod:`abclab.cli` - the
  operational surface: YAML scenarios, sweeps, the seeded invariant suite,
  CSV/JSON reports.

The scenario layer's own names (``Scenario``, ``SweepSpec``, ``OutputSpec``,
``parse_scenario``, ``load_scenario``, ``run_scenario``) load on first use,
so that importing the package, or running ``abclab verify``, imports neither
:mod:`abclab.scenario` nor PyYAML.
"""

from .boyer import (
    AXIS_EPSILON,
    BounceConfig,
    BounceResult,
    CircleLoop,
    FULL_LAW,
    LineCharge,
    NAIVE_LAW,
    NeutronModel,
    PolylineLoop,
    TrajectoryState,
    acceleration_law,
    ac_phase,
    ac_phase_enclosed_value,
    kinetic_energy,
    line_field,
    loop_winding_number,
    path_axis_clearance,
    simulate_bounce_experiment,
    step_trajectory,
)
from .errors import (
    AbclabError,
    ConfigurationError,
    ConsistencyError,
    DomainError,
    NumericalError,
    ScenarioParseError,
    SingularityError,
    ValidationError,
)
from .fieldfree import (
    ChargeConfiguration,
    PointCharge,
    field_at,
    make_three_charge,
    potential_at,
)
from .interferometry import (
    DetectionProbabilities,
    GaussianPacket,
    detector_probabilities,
    overlap_by_quadrature,
    packet_overlap,
    phase_from_path_shift,
    visibility_from_overlap,
)
from .quadrature import adaptive_simpson, composite_gauss_legendre, refine_gauss_legendre, refine_periodic_trapezoid
from .solenoid import (
    ABResult,
    OrbitParams,
    SolenoidParams,
    ab_phase_direct,
    ab_phase_from_flux,
    cylinder_displacement,
    cylinder_velocity_change,
    de_broglie_wavelength,
    electron_flux_at_angle,
    local_model_phase,
    long_solenoid_note,
    solenoid_flux,
    source_momentum_kick,
    velocity_change_by_quadrature,
    velocity_kick_integrand,
)
from .units import (
    GAUSSIAN_CGS,
    PhysicalConstants,
    SCALED_UNITY,
    Vec3,
    make_constants,
)
from .verify import CheckRow, RunReport, emit, render_csv, render_json, run_verify_suite

__version__ = "0.1.0"

_SCENARIO_NAMES = frozenset({"OutputSpec", "Scenario", "SweepSpec", "load_scenario", "parse_scenario", "run_scenario"})


def __getattr__(name: str):
    # PEP 562: called only for names the module does not hold
    if name in _SCENARIO_NAMES:
        from . import scenario

        return getattr(scenario, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
