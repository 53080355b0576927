"""Finite-horizon age-of-information scheduling over unreliable channels.

Exact dynamic-programming solutions, index policies, Monte Carlo evaluation,
and numeric self-checks for a multi-source status-update system with
single-packet buffers and a limited number of parallel channels.
"""

from .config import ConfigError, GridPoint, SweepConfig, grid_point_seed, load_config
from .dp import (
    DPTable,
    GapReport,
    InvalidDepth,
    StateSpaceTooLarge,
    bound_constants,
    evaluate_policy,
    gap_report,
    gap_tables,
    optimality_gap,
    solve_optimal,
)
from .model import (
    EMPTY,
    Action,
    InvalidState,
    ModelParams,
    SystemState,
    cost,
    enumerate_actions,
    format_state,
    fresh_state,
    new_state,
    norm_inf,
    parse_state,
    success_probs,
)
from .policies import (
    POLICY_NAMES,
    DeltaPolicy,
    OptimalPolicy,
    PIPolicy,
    RRPolicy,
    StateNotInTable,
    StrictRRPolicy,
    make_policy,
    schedule_margin,
)
from .simulate import (
    ExperimentSummary,
    PolicyComparison,
    compare_policies,
    improvement_pct,
)
from .verify import CheckResult, run_suite

__version__ = "0.1.0"

__all__ = [
    "EMPTY",
    "Action",
    "CheckResult",
    "ConfigError",
    "DPTable",
    "DeltaPolicy",
    "ExperimentSummary",
    "GapReport",
    "GridPoint",
    "InvalidDepth",
    "InvalidState",
    "ModelParams",
    "OptimalPolicy",
    "PIPolicy",
    "POLICY_NAMES",
    "PolicyComparison",
    "RRPolicy",
    "StateNotInTable",
    "StateSpaceTooLarge",
    "StrictRRPolicy",
    "SweepConfig",
    "SystemState",
    "bound_constants",
    "compare_policies",
    "cost",
    "enumerate_actions",
    "evaluate_policy",
    "format_state",
    "fresh_state",
    "gap_report",
    "gap_tables",
    "grid_point_seed",
    "improvement_pct",
    "load_config",
    "make_policy",
    "new_state",
    "norm_inf",
    "optimality_gap",
    "parse_state",
    "run_suite",
    "schedule_margin",
    "solve_optimal",
    "success_probs",
]
