"""Nonreciprocal transmission in a two-cavity optomechanical network.

Two tunnel-coupled optical cavities share a mechanical mode; a bosonized
atomic ensemble couples to one cavity and, through a complex (dissipative)
coupling, to the mechanics. The relative phases of the coupling loops break
reciprocity: probe light can transmit fully one way and not at all the
other. This package computes the nonlinear steady state, the linearized
4x4 probe response, both-direction transmission spectra, analytical
coupling designs for perfect isolation, and the parameter sweeps behind
the reference figure datasets.
"""

from .design import (
    DegenerateQuadratic,
    DesignCandidate,
    DivisionByZero,
    IsolatorDesign,
    NoValidDesign,
    RCoefficients,
    ZeroJ3,
    design_isolator,
    design_to_dict,
    j2_literal,
    j3_roots,
    nonreal_residue,
    r_coefficients,
)
from .params import (
    BareParams,
    Drives,
    InvalidParams,
    ModelParams,
    RateUnit,
    SteadyState,
    TransmissionPoint,
    convert_unit,
    model_params_from_dict,
    model_params_to_dict,
    wrap_phase,
)
from .response import (
    ResponseSolution,
    SingularMatrix,
    build_system_matrix,
    solve_response,
)
from .steady import (
    NonConvergence,
    ResonanceMisaligned,
    SingularJacobian,
    SolverConfig,
    ZeroAmplitude,
    effective_couplings,
    linearized_params,
    solve_steady_state,
    steady_residual,
)
from .sweep import (
    Axis,
    InvalidParameterPath,
    SweepSpec,
    SweepTable,
    UnknownFigure,
    figure_ids,
    figure_preset,
    phasemap_spec,
    reproduce_figure,
    spectrum_spec,
    sweep,
    write_csv,
    write_json,
)
from .transmission import (
    Direction,
    IsolationMetrics,
    isolation_metrics,
    transmission_grid,
    transmission_pair,
)

__version__ = "0.1.0"

__all__ = [
    "Axis", "BareParams", "DegenerateQuadratic",
    "DesignCandidate", "Direction", "DivisionByZero", "Drives",
    "InvalidParameterPath", "InvalidParams", "IsolationMetrics",
    "IsolatorDesign", "ModelParams", "NoValidDesign", "NonConvergence",
    "RCoefficients", "RateUnit", "ResonanceMisaligned", "ResponseSolution",
    "SingularJacobian", "SingularMatrix", "SolverConfig", "SteadyState",
    "SweepSpec", "SweepTable",
    "TransmissionPoint", "UnknownFigure", "ZeroAmplitude", "ZeroJ3",
    "build_system_matrix", "convert_unit",
    "design_isolator", "design_to_dict", "effective_couplings",
    "figure_ids", "figure_preset",
    "isolation_metrics", "j2_literal", "j3_roots", "linearized_params",
    "model_params_from_dict", "model_params_to_dict",
    "nonreal_residue", "phasemap_spec", "r_coefficients",
    "reproduce_figure",
    "solve_response", "solve_steady_state", "spectrum_spec",
    "steady_residual", "sweep", "transmission_grid", "transmission_pair",
    "wrap_phase", "write_csv", "write_json",
]
