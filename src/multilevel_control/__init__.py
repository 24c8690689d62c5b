"""Staircase (multilevel) null controls for linear systems by convex duality.

Minimizing a dual functional built from a piecewise-linear convex
penalization of the adjoint observation yields piecewise-constant controls
whose levels are the penalization's chord slopes and whose jumps only move
between adjacent levels.
"""

from .lti import (
    AdjointPropagator,
    DynamicsClass,
    LtiSystem,
    Trajectory,
    adjoint_state,
    classify_dynamics,
    exp_action_integral,
    kalman_rank,
    mat_exp,
    simulate_forward,
)
from .pwl import (
    ConvexProfile,
    Partition,
    PwlConvex,
    SubdiffInterval,
    barrier_constants,
    build_penalization,
    conjugate,
    interp_error_bound,
    quadratic_profile,
    slopes,
    subdifferential,
)
from .dual import (
    DualProblem,
    FunctionalKind,
    OptimizerSettings,
    QuadratureGrid,
    SolveReport,
    SolveStatus,
    eval_functional,
    eval_subgradient,
    minimize,
    subgradient_box,
)
from .extract import (
    ChannelControl,
    DegenerateAdjointError,
    MultilevelControl,
    extract_control,
    find_switchings,
    quadratic_control,
    verify_staircase,
)
from .fenchel import (
    DiscretePrimal,
    GapReport,
    InfeasiblePrimalError,
    PrimalSolution,
    build_discrete_primal,
    duality_gap,
    optimality_fraction,
    solve_primal,
)
from .solvable import SolvableBoundReport, solvable_bound
from .config import ChecksConfig, ConfigError, ExperimentConfig, load_config
from .experiments import ExperimentReport, convergence_study, run_scenario

__version__ = "0.1.0"

__all__ = [
    "AdjointPropagator",
    "ChannelControl",
    "ChecksConfig",
    "ConfigError",
    "ConvexProfile",
    "DegenerateAdjointError",
    "DiscretePrimal",
    "DualProblem",
    "DynamicsClass",
    "ExperimentConfig",
    "ExperimentReport",
    "FunctionalKind",
    "GapReport",
    "InfeasiblePrimalError",
    "LtiSystem",
    "MultilevelControl",
    "OptimizerSettings",
    "Partition",
    "PrimalSolution",
    "PwlConvex",
    "QuadratureGrid",
    "SolvableBoundReport",
    "SolveReport",
    "SolveStatus",
    "SubdiffInterval",
    "Trajectory",
    "adjoint_state",
    "barrier_constants",
    "build_discrete_primal",
    "build_penalization",
    "classify_dynamics",
    "conjugate",
    "convergence_study",
    "duality_gap",
    "eval_functional",
    "eval_subgradient",
    "exp_action_integral",
    "extract_control",
    "find_switchings",
    "interp_error_bound",
    "kalman_rank",
    "load_config",
    "mat_exp",
    "minimize",
    "optimality_fraction",
    "quadratic_control",
    "quadratic_profile",
    "run_scenario",
    "simulate_forward",
    "slopes",
    "solvable_bound",
    "solve_primal",
    "subdifferential",
    "subgradient_box",
    "verify_staircase",
]
