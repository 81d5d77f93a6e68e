"""Adaptive stochastic mirror descent for constrained convex optimization
over the probability simplex.

The package couples pluggable proximal geometries (Euclidean and entropy)
with exact and sampling first-order oracles, an adaptive-stepsize solver
with a fixed-stepsize baseline, instance generation and storage, and a CLI
for benchmarks and statistical validation. The names below are what a
caller of the solvers needs; the analysis checks and their checked
references are in ``asmd.checks``, which this package does not import.
"""

from .geometry import Geometry
from .oracle import LinearObjective, MaxLinearConstraint, QuadraticObjective
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
    solve_adaptive,
    solve_fixed,
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
    "RunResult",
    "SolverConfig",
    "generate_instance",
    "load_problem",
    "problem_from_document",
    "problem_to_document",
    "reference_optimum",
    "save_problem",
    "solve_adaptive",
    "solve_fixed",
    "uniform_subgradient_bound",
    "worst_case_iterations",
]
