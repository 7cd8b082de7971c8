"""Robust output regulation for semilinear contraction systems.

Numerical forwarding design: Gram-weighted state spaces, IMEX evolution of
semilinear plants, quadrature evaluation of the forwarding map and its
adjoint derivative, the integrator-plus-forwarding feedback loop, and a
verification battery for the standing assumptions.
"""

__version__ = "0.1.0"

from .spaces import SpaceSpec, adjoint, weighted_singular_values
from .evolution import (
    OperatorSolver,
    Plant,
    Trajectory,
    adjoint_tangent_flow,
    contraction_check,
    estimate_alpha,
    flow,
    tangent_flow,
)
from .forwarding import (
    ForwardingMap,
    StateEvaluation,
    assemble_feedback_matrix,
    build_forwarding,
    functional_equation_residual,
    linear_forwarding,
    uniform_coercivity_check,
)
from .regulator import (
    EquilibriumResult,
    RegulationReport,
    RunResult,
    Scenario,
    convergence_report,
    feedback,
    find_equilibrium,
    find_equilibrium_along,
    find_equilibrium_recorded,
    simulate,
)
from .plants import (
    SineGordonParams,
    WilsonCowanParams,
    compute_M_ks,
    make_linear_benchmark,
    make_scalar_linear,
    make_sine_gordon,
    make_wilson_cowan,
)
from .verify import (
    CheckResult,
    FDCheckTable,
    LinearOracle,
    VerificationReport,
    contraction_samples,
    dense_linear_oracle,
    dissipation_constant,
    fd_check_dM,
    linearized_decay_samples,
    run_battery,
    smooth_sample,
)

__all__ = [
    "__version__",
    # spaces
    "SpaceSpec", "adjoint", "weighted_singular_values",
    # evolution
    "OperatorSolver", "Plant", "Trajectory", "adjoint_tangent_flow",
    "contraction_check", "estimate_alpha", "flow", "tangent_flow",
    # forwarding
    "ForwardingMap", "StateEvaluation", "assemble_feedback_matrix",
    "build_forwarding", "functional_equation_residual", "linear_forwarding",
    "uniform_coercivity_check",
    # regulator
    "EquilibriumResult", "RegulationReport", "RunResult", "Scenario",
    "convergence_report", "feedback", "find_equilibrium", "find_equilibrium_along",
    "find_equilibrium_recorded", "simulate",
    # plants
    "SineGordonParams", "WilsonCowanParams", "compute_M_ks",
    "make_linear_benchmark", "make_scalar_linear", "make_sine_gordon",
    "make_wilson_cowan",
    # verify
    "CheckResult", "FDCheckTable", "LinearOracle", "VerificationReport",
    "contraction_samples", "dense_linear_oracle", "dissipation_constant",
    "fd_check_dM", "linearized_decay_samples", "run_battery", "smooth_sample",
]
