"""Closed-loop episode generation and batch Monte Carlo.

Each step queries the receding-horizon policy at the current (belief, state),
records both types' prescribed actions plus the reaction, advances the state
with the true type's action, and updates the belief from the realized
successor. Episodes are bit-reproducible functions of (scenario, seed);
batches derive one independent seed per episode with a fixed mixing function
so any parallel split of the work produces identical results.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .beliefs import coefficient_value, posterior_malicious
from .diagnostics import Classification, agreement_series, convergence_report
from .equilibrium import RecedingHorizonPolicy
from .model import MALICIOUS, Scenario, sample_transition

_MASK64 = (1 << 64) - 1
ERROR_TALLY = "ERROR"


def derive_episode_seed(base_seed: int, index: int) -> int:
    """Per-episode seed: one SplitMix64 step of base_seed + (index+1)*phi64.

    phi64 = 0x9E3779B97F4A7C15 is the 64-bit golden-ratio increment. The mix
    is documented so external tools can reproduce any single episode of a
    batch without running the others.
    """
    z = (base_seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass
class Trajectory:
    """One recorded episode; entry k-1 of each list describes step k.

    ``states[k-1]`` is the state at which the step-k decision was taken,
    ``beliefs[k-1]`` the belief after observing the step-k successor, and
    ``coefficients[k-1]`` the Bayes factor of the true type for that same
    observation, so beliefs[k] = coefficients[k] * beliefs[k-1] on the true
    type's coordinate. ``agreement[k-1]`` is 0 exactly when both types'
    prescriptions coincide. At an endpoint belief (0 or 1) the update is
    absorbing and the recorded factor is 1.
    """

    true_type: str | None
    prior: float
    seed: int
    states: list[str] = field(default_factory=list)
    actions_benign: list[str] = field(default_factory=list)
    actions_malicious: list[str] = field(default_factory=list)
    applied_actions: list[str] = field(default_factory=list)
    reactions: list[str] = field(default_factory=list)
    beliefs: list[float] = field(default_factory=list)
    coefficients: list[float] = field(default_factory=list)
    agreement: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.states)


@dataclass
class BatchSummary:
    """Aggregated diagnostics of a batch; classification tallies (including
    the error bucket) always sum to the episode count."""

    n_episodes: int
    true_type: str
    base_seed: int
    window: int
    tol: float
    terminal_beliefs: list[float | None]
    limit_estimates: list[float | None]
    oscillations: list[float | None]
    agreement_steps: list[int | None]
    classifications: dict[str, int]
    errors: list[tuple[int, str]]


def run_episode(
    scenario: Scenario, seed: int, policy: RecedingHorizonPolicy | None = None
) -> Trajectory:
    """Simulate one episode of ``scenario.episode_length`` steps.

    A shared policy may be passed to reuse its solve cache across episodes;
    results do not depend on that reuse.
    """
    if policy is None:
        policy = RecedingHorizonPolicy(scenario)
    rng = np.random.default_rng(seed)
    malicious = scenario.true_type == MALICIOUS
    traj = Trajectory(true_type=scenario.true_type, prior=scenario.prior, seed=seed)
    x = scenario.initial_state
    pi = scenario.prior
    state_index = scenario.alphabets.state_index
    kernel = scenario.kernel
    for _ in range(scenario.episode_length):
        a_b, a_m, reaction = policy.decide(pi, x)
        applied = a_m if malicious else a_b
        x_next = sample_transition(kernel, x, applied, reaction, rng)
        j = state_index(x_next)
        p_b = kernel.row(x, a_b, reaction)[j]
        p_m = kernel.row(x, a_m, reaction)[j]
        if 0.0 < pi < 1.0:
            # The realized successor has positive probability under the
            # applied action, so the mixture cannot vanish here.
            f = coefficient_value(pi, p_b, p_m, malicious)
            pi_next = posterior_malicious(pi, p_b, p_m)
        else:
            f = 1.0
            pi_next = pi
        traj.states.append(x)
        traj.actions_benign.append(a_b)
        traj.actions_malicious.append(a_m)
        traj.applied_actions.append(applied)
        traj.reactions.append(reaction)
        traj.beliefs.append(pi_next)
        traj.coefficients.append(f)
        traj.agreement.append(0 if a_b == a_m else 1)
        x = x_next
        pi = pi_next
    return traj


def _run_chunk(
    args: tuple[Scenario, int, list[int]]
) -> list[tuple[int, Trajectory | None, str | None]]:
    """Run consecutive episodes, numbered from ``start``, with one shared
    policy; each failure is recorded against its episode index."""
    scenario, start, seeds = args
    policy = RecedingHorizonPolicy(scenario)
    out: list[tuple[int, Trajectory | None, str | None]] = []
    for index, seed in enumerate(seeds, start):
        try:
            out.append((index, run_episode(scenario, seed, policy), None))
        except Exception as err:  # recorded, not fatal to the batch
            out.append((index, None, str(err)))
    return out


def run_batch(
    scenario: Scenario,
    n_episodes: int,
    base_seed: int,
    *,
    window: int = 20,
    tol: float = 0.01,
    workers: int = 1,
) -> tuple[BatchSummary, list[Trajectory | None]]:
    """Run ``n_episodes`` independent episodes and aggregate diagnostics.

    Episode i uses derive_episode_seed(base_seed, i). With ``workers`` > 1
    the episodes are split into that many contiguous chunks, each run in a
    separate process with one policy shared across the chunk; trajectories
    are reassembled in episode order, so the summary is identical at any
    parallelism degree.
    Per-episode failures, such as a worker's exception, are recorded in the
    summary against their episode index instead of aborting the batch.
    """
    if n_episodes < 1:
        raise ValueError(f"n_episodes must be >= 1, got {n_episodes}")
    seeds = [derive_episode_seed(base_seed, i) for i in range(n_episodes)]
    results: list[Trajectory | None] = [None] * n_episodes
    errors: list[tuple[int, str]] = []
    if workers > 1:
        bounds = [n_episodes * k // workers for k in range(workers + 1)]
        tasks = [(scenario, lo, seeds[lo:hi]) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = [item for chunk in pool.map(_run_chunk, tasks) for item in chunk]
    else:
        outcomes = _run_chunk((scenario, 0, seeds))
    for index, traj, err in outcomes:
        results[index] = traj
        if err is not None:
            errors.append((index, err))
    terminal: list[float | None] = []
    limits: list[float | None] = []
    oscillations: list[float | None] = []
    agreements: list[int | None] = []
    tallies = {c.value: 0 for c in Classification}
    tallies[ERROR_TALLY] = 0
    for traj in results:
        if traj is None:
            terminal.append(None)
            limits.append(None)
            oscillations.append(None)
            agreements.append(None)
            tallies[ERROR_TALLY] += 1
            continue
        report = convergence_report(traj, window=window, tol=tol)
        _, sustained = agreement_series(traj)
        terminal.append(traj.beliefs[-1])
        limits.append(report.limit_estimate)
        oscillations.append(report.oscillation)
        agreements.append(sustained)
        tallies[report.classification.value] += 1
    summary = BatchSummary(
        n_episodes=n_episodes,
        true_type=scenario.true_type,
        base_seed=base_seed,
        window=window,
        tol=tol,
        terminal_beliefs=terminal,
        limit_estimates=limits,
        oscillations=oscillations,
        agreement_steps=agreements,
        classifications=tallies,
        errors=errors,
    )
    return summary, results
