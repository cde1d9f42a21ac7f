"""Mean-field simulator for a two-sided cavity holding a two-level atom and a
pumped second-order nonlinear crystal: steady states, bistability and fold
structure, perfect-absorption operating points, and time evolution.

All quantities are in units of the atomic linewidth gamma unless stated
otherwise.
"""

from .errors import (
    AsymmetricMirrors,
    CpasimError,
    Infeasible,
    IoError,
    MalformedCurve,
    NonPositiveBeta,
    ParametricRegimeWarning,
    ParametricSingularity,
    ParseError,
    StepFailure,
    ValidationError,
)
from .model import (
    Stability,
    SteadyState,
    SystemParams,
    atomic_expectations,
    balanced_input_fields,
    drive_for_input_intensity,
    input_intensity_for_drive,
    intracavity_field,
    output_fields,
    parametric_denominator,
    saturation_denominator,
    soc_effective_params,
)
from .steady import (
    SelfConsistencyPolynomial,
    StabilityReport,
    bare_threshold_margin,
    build_polynomial,
    classify_stability,
    jacobian,
    solve_steady_states,
)
from .cpa import (
    BranchLocation,
    CPAReport,
    cooperativity,
    cpa_cavity_detuning,
    cpa_input_amplitude,
    cpa_photon_number,
    critical_coupling,
    critical_detuning,
    verify_cpa,
)
from .dynamics import TimeTrace, integrate, mean_field_rhs, vacuum_state
from .sweep import (
    BoundaryMap,
    CPAMarker,
    CurvePoint,
    HysteresisCurve,
    PatternClass,
    boundary_map,
    classify_pattern,
    follow_sweep,
    scan_folds,
    trace_hysteresis,
)
from .io import RunConfig, emit_csv, emit_svg, parse_config, read_csv

__version__ = "0.1.0"

__all__ = [
    "AsymmetricMirrors", "CpasimError", "Infeasible", "IoError",
    "MalformedCurve", "NonPositiveBeta", "ParametricRegimeWarning",
    "ParametricSingularity", "ParseError", "StepFailure", "ValidationError",
    "Stability", "SteadyState", "SystemParams",
    "atomic_expectations", "balanced_input_fields", "drive_for_input_intensity",
    "input_intensity_for_drive", "intracavity_field",
    "output_fields", "parametric_denominator", "saturation_denominator",
    "soc_effective_params",
    "SelfConsistencyPolynomial", "StabilityReport", "bare_threshold_margin",
    "build_polynomial", "classify_stability", "jacobian", "solve_steady_states",
    "BranchLocation", "CPAReport", "cooperativity", "cpa_cavity_detuning",
    "cpa_input_amplitude", "cpa_photon_number",
    "critical_coupling", "critical_detuning", "verify_cpa",
    "TimeTrace", "integrate", "mean_field_rhs", "vacuum_state",
    "BoundaryMap", "CPAMarker", "CurvePoint", "HysteresisCurve", "PatternClass",
    "boundary_map", "classify_pattern", "follow_sweep", "scan_folds",
    "trace_hysteresis",
    "RunConfig", "emit_csv", "emit_svg", "parse_config", "read_csv",
    "__version__",
]
