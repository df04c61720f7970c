"""Dynamic signaling-game simulator for model-based incident handling.

A defender watches a finite Markov decision process whose inputs come from a
sender of hidden type (benign or malicious), updates a Bayesian belief on the
type from observed states, and both sides play receding-horizon equilibrium
strategies. The package simulates this closed loop, solves the per-step
windowed games exactly, and verifies the asymptotic-security diagnostics
(belief drift, convergence, action agreement) at desk scale.
"""

from .beliefs import BeliefState, InconsistentObservationError
from .diagnostics import (
    Classification,
    ConvergenceReport,
    agreement_series,
    convergence_report,
    kl_decay_estimate,
    random_walk_belief,
    submartingale_margin,
)
from .equilibrium import (
    EnumerationLimitError,
    EquilibriumResult,
    NoPureEquilibriumError,
    RecedingHorizonPolicy,
    StrategyTree,
    expected_utilities,
    solve_bne,
)
from .model import (
    BENIGN,
    MALICIOUS,
    TYPES,
    Alphabets,
    Scenario,
    TransitionKernel,
    UtilityTables,
    check_distinguishability,
    sample_transition,
    validate_kernel,
)
from .scenario_io import (
    load_scenario,
    read_trajectory,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    write_batch,
    write_trajectory,
)
from .simulate import BatchSummary, Trajectory, derive_episode_seed, run_batch, run_episode

__version__ = "0.1.0"

__all__ = [
    "Alphabets",
    "BatchSummary",
    "BeliefState",
    "BENIGN",
    "Classification",
    "ConvergenceReport",
    "EnumerationLimitError",
    "EquilibriumResult",
    "InconsistentObservationError",
    "MALICIOUS",
    "NoPureEquilibriumError",
    "RecedingHorizonPolicy",
    "Scenario",
    "StrategyTree",
    "Trajectory",
    "TransitionKernel",
    "TYPES",
    "UtilityTables",
    "agreement_series",
    "check_distinguishability",
    "convergence_report",
    "derive_episode_seed",
    "expected_utilities",
    "kl_decay_estimate",
    "load_scenario",
    "random_walk_belief",
    "read_trajectory",
    "run_batch",
    "run_episode",
    "sample_transition",
    "save_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "solve_bne",
    "submartingale_margin",
    "validate_kernel",
    "write_batch",
    "write_trajectory",
]
