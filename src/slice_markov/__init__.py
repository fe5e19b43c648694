"""Markov-chain analytics for synchronous network-slice admission control.

The model: a shared resource pool serves slices of a few fixed types;
tenants file creation and release requests that queue up during each
operations period and are decided in timestamp order at the period end. The
feasible slice-count vectors form a finite admissibility region, and a valid
decision strategy turns the boundary-to-boundary state process into a finite
Markov chain. This package enumerates regions and strategies, builds the
chain's transition matrix under a truncation bound on per-period creation
counts, simulates the real request process for ground truth, and ships the
comparison experiments as a CLI.
"""

from .arrivals import (
    DemandScenario,
    arrival_pmf,
    creation_pmf,
    multiset_prob,
    release_pmf,
    request_kinds,
    sequence_prob,
)
from .domain import (
    FEASIBILITY_TOL,
    AdmissibilityRegion,
    ResourceModel,
    Strategy,
    always_accept_strategy,
    apply_request,
    apply_sequence,
    check_feasible,
    decline_all_strategy,
    enumerate_region,
    enumerate_valid_strategies,
    state_label,
    strategy_from_table,
)
from .errors import (
    ConfigError,
    DegenerateModelError,
    GuardExceededError,
    InvalidStrategyError,
    ReducibleChainError,
    SliceMarkovError,
)
from .experiments import (
    ExperimentConfig,
    Figure2Protocol,
    Figure3Protocol,
    default_config_path,
    figure2_document,
    figure3_document,
    load_config,
    parse_config,
    resolve_strategy,
)
from .markov import (
    TransitionMatrix,
    brute_force_transition_matrix,
    build_transition_matrix,
    occupancy_mean,
    stationary_distribution,
    truncation_tail_bound,
)
from .simulate import (
    EmpiricalMatrix,
    SimConfig,
    estimate_empirical_matrix,
    markov_order_test,
    rmse,
    run_episode,
    run_rng,
    simulate_episodes,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityRegion",
    "ConfigError",
    "DegenerateModelError",
    "DemandScenario",
    "EmpiricalMatrix",
    "ExperimentConfig",
    "FEASIBILITY_TOL",
    "Figure2Protocol",
    "Figure3Protocol",
    "GuardExceededError",
    "InvalidStrategyError",
    "ReducibleChainError",
    "ResourceModel",
    "SimConfig",
    "SliceMarkovError",
    "Strategy",
    "TransitionMatrix",
    "always_accept_strategy",
    "apply_request",
    "apply_sequence",
    "arrival_pmf",
    "brute_force_transition_matrix",
    "build_transition_matrix",
    "check_feasible",
    "creation_pmf",
    "decline_all_strategy",
    "default_config_path",
    "enumerate_region",
    "enumerate_valid_strategies",
    "estimate_empirical_matrix",
    "figure2_document",
    "figure3_document",
    "load_config",
    "markov_order_test",
    "multiset_prob",
    "occupancy_mean",
    "parse_config",
    "release_pmf",
    "request_kinds",
    "resolve_strategy",
    "rmse",
    "run_episode",
    "run_rng",
    "sequence_prob",
    "simulate_episodes",
    "state_label",
    "stationary_distribution",
    "strategy_from_table",
    "truncation_tail_bound",
]
