"""Adaptive stochastic mirror descent for constrained convex optimization
over the probability simplex.

The package couples pluggable proximal geometries (Euclidean and entropy)
with exact and sampling first-order oracles, an adaptive-stepsize solver
with a fixed-stepsize baseline, instance generation and storage, and a CLI
for benchmarks and statistical validation.
"""

from .geometry import (
    Geometry,
    bregman,
    dgf_gradient,
    dgf_minimizer,
    dgf_value,
    dual_norm,
    interior_clamp,
    on_simplex,
    project_simplex,
    prox_map,
)
from .oracle import (
    LinearObjective,
    MaxLinearConstraint,
    QuadraticObjective,
    RngStream,
    sample_simplex_index,
    unbiasedness_report,
)
from .problems import (
    InstanceFormatError,
    InstanceValidationError,
    ProblemInstance,
    generate_instance,
    load_problem,
    problem_from_document,
    problem_to_document,
    reference_optimum,
    save_problem,
    uniform_subgradient_bound,
)
from .solver import (
    ADAPTIVE,
    CAP_REACHED,
    CRITERION_MET,
    FIXED,
    InfeasibleRunError,
    RunResult,
    SolverConfig,
    min_step_residual,
    mirror_descent_steps,
    mirror_step_residual,
    solve_adaptive,
    solve_fixed,
    step_size,
    stepsum_gap,
    stopping_criterion,
    telescoping_bound_check,
    worst_case_iterations,
)

__version__ = "0.1.0"

__all__ = [
    "ADAPTIVE",
    "CAP_REACHED",
    "CRITERION_MET",
    "FIXED",
    "Geometry",
    "InfeasibleRunError",
    "InstanceFormatError",
    "InstanceValidationError",
    "LinearObjective",
    "MaxLinearConstraint",
    "ProblemInstance",
    "QuadraticObjective",
    "RngStream",
    "RunResult",
    "SolverConfig",
    "bregman",
    "dgf_gradient",
    "dgf_minimizer",
    "dgf_value",
    "dual_norm",
    "generate_instance",
    "interior_clamp",
    "load_problem",
    "min_step_residual",
    "mirror_descent_steps",
    "mirror_step_residual",
    "on_simplex",
    "problem_from_document",
    "problem_to_document",
    "project_simplex",
    "prox_map",
    "reference_optimum",
    "sample_simplex_index",
    "save_problem",
    "solve_adaptive",
    "solve_fixed",
    "step_size",
    "stepsum_gap",
    "stopping_criterion",
    "telescoping_bound_check",
    "unbiasedness_report",
    "uniform_subgradient_bound",
    "worst_case_iterations",
]
