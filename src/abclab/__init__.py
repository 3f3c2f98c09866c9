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
    TwoPathState,
    detector_probabilities,
    overlap_by_quadrature,
    packet_overlap,
    phase_from_path_shift,
    visibility_from_overlap,
)
from .quadrature import adaptive_simpson, composite_gauss_legendre, refine_gauss_legendre
from .scenario import (
    CheckRow,
    OutputSpec,
    RunReport,
    Scenario,
    SweepSpec,
    emit,
    load_scenario,
    parse_scenario,
    render_csv,
    render_json,
    run_scenario,
)
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
    cross,
    make_constants,
)
from .verify import run_verify_suite

__version__ = "0.1.0"
