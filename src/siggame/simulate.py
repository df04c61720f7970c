"""Closed-loop episode generation and batch Monte Carlo.

Each step queries the receding-horizon policy at the current (belief, state),
records both types' prescribed actions plus the reaction, advances the state
with the true type's action, and updates the belief from the realized
successor. An episode draws its ``episode_length`` uniforms at once from a
PCG64 generator seeded with the episode seed; they are the doubles that as
many successive ``rng.random()`` calls would give. Step k samples its
successor from uniform k by ``sample_transition``'s rule: the first state
whose running sum of the applied row, left to right from 0.0, exceeds the
uniform, else the last state of positive probability. The policy is
queried once per (belief, state) while the belief holds: the loop keeps each
state's step until the belief moves. A still step, at belief 0 or 1 or where
both types pool on a row whose positive entries all exceed ``MIN_MIXTURE``,
records (belief, 1.0) without a Bayes call. On a pooled row that is what the
call returns; at belief 0 or 1 it is the absorbing convention of
``Trajectory``, since ``coefficient_value`` there gives a malicious true type
at belief 0 the factor p_m/p_b, or raises where p_b is 0, and a benign one at
belief 1 the mirror factor.
Episodes are bit-reproducible functions of (scenario, seed); batches derive one
independent seed per episode with a fixed mixing function so any parallel
split of the work produces identical results.
"""

from __future__ import annotations

import logging
from bisect import bisect_right
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .beliefs import MIN_MIXTURE, coefficient_value, posterior_malicious
from .diagnostics import (
    DEFAULT_TOL,
    DEFAULT_WINDOW,
    Classification,
    agreement_series,
    check_window,
    convergence_report,
)
from .equilibrium import RecedingHorizonPolicy
from .model import MALICIOUS, Scenario
# Not called here; bound so that bench/tracing.py can patch it in this module.
from .model import sample_transition

_MASK64 = (1 << 64) - 1
ERROR_TALLY = "ERROR"

_log = logging.getLogger(__name__)


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
    type's coordinate. At an endpoint belief (0 or 1) the update is
    absorbing and the recorded factor is 1. The applied actions and the
    agreement series are derived from the stored columns, not stored. A
    trajectory read back from CSV has no ``prior`` or ``seed`` (None).
    """

    true_type: str | None
    prior: float | None
    seed: int | None
    states: list[str] = field(default_factory=list)
    actions_benign: list[str] = field(default_factory=list)
    actions_malicious: list[str] = field(default_factory=list)
    reactions: list[str] = field(default_factory=list)
    beliefs: list[float] = field(default_factory=list)
    coefficients: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.states)

    @property
    def applied_actions(self) -> list[str]:
        """The true type's prescribed actions; with the type unknown every
        step pools, so both columns are equal."""
        return list(self.actions_malicious if self.true_type == MALICIOUS else self.actions_benign)

    @property
    def agreement(self) -> list[int]:
        """Per step, 0 when both types' prescriptions coincide and 1 when
        they differ."""
        return [0 if b == m else 1 for b, m in zip(self.actions_benign, self.actions_malicious)]


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

    Steps record one row each, in ``Trajectory``'s column order. The policy
    is queried once per (belief, state) while the belief holds, and a still
    step records (belief, 1.0) without a Bayes call (see the module
    docstring). A shared policy may be passed to reuse its certified belief
    intervals across episodes; results do not depend on that reuse.
    """
    if policy is None:
        policy = RecedingHorizonPolicy(scenario)
    malicious = scenario.true_type == MALICIOUS
    states = scenario.alphabets.states
    kernel = scenario.kernel
    table = kernel.table
    uniforms = np.random.default_rng(seed).random(scenario.episode_length).tolist()
    x = scenario.initial_state
    pi = scenario.prior
    rows = []
    steps = {}  # state -> its step at belief pi
    for u in uniforms:
        step = steps.get(x)
        if step is None:
            a_b, a_m, reaction = policy.decide(pi, x)
            applied = a_m if malicious else a_b
            # Pooled play on a row with a positive entry at MIN_MIXTURE or
            # less is not still: drawing that entry fails the Bayes step.
            still = not 0.0 < pi < 1.0 or (
                a_b == a_m and min(p for p in table[x, applied, reaction] if p > 0.0) > MIN_MIXTURE
            )
            step = steps[x] = (
                kernel.cuts(x, applied, reaction),
                table[x, a_b, reaction],
                table[x, a_m, reaction],
                (x, a_b, a_m, reaction, pi, 1.0),
                still,
            )
        cuts, row_b, row_m, row, still = step
        j = bisect_right(cuts, u)
        if still:
            rows.append(row)
        else:
            # The mixture can still be MIN_MIXTURE or less (belief 1e-301, a
            # successor only a_m reaches); the Bayes step then fails the episode.
            p_b = row_b[j]
            p_m = row_m[j]
            f = coefficient_value(pi, p_b, p_m, malicious)
            pi_next = posterior_malicious(pi, p_b, p_m)
            rows.append((*row[:4], pi_next, f))
            if pi_next != pi:
                steps.clear()
                pi = pi_next
        x = states[j]
    return Trajectory(scenario.true_type, scenario.prior, seed, *map(list, zip(*rows)))


def _run_chunk(
    args: tuple[Scenario, list[int]]
) -> tuple[list[tuple[Trajectory | None, str | None]], dict[str, int]]:
    """Run one episode per seed, in order, with one shared policy. Returns
    each episode's outcome, its trajectory or else None and the error that
    failed it, and the policy's ``counts``."""
    scenario, seeds = args
    policy = RecedingHorizonPolicy(scenario)
    out: list[tuple[Trajectory | None, str | None]] = []
    for seed in seeds:
        try:
            out.append((run_episode(scenario, seed, policy), None))
        except Exception as err:  # recorded, not fatal to the batch
            out.append((None, str(err)))
    return out, policy.counts


def run_batch(
    scenario: Scenario,
    n_episodes: int,
    base_seed: int,
    *,
    window: int = DEFAULT_WINDOW,
    tol: float = DEFAULT_TOL,
    workers: int = 1,
) -> tuple[BatchSummary, list[Trajectory | None]]:
    """Run ``n_episodes`` independent episodes and aggregate diagnostics.

    Episode i uses derive_episode_seed(base_seed, i). With ``workers`` > 1
    the episodes are split into that many contiguous chunks, or one per
    episode if there are fewer episodes, each run in a separate process with
    one policy shared across the chunk; the pool has one process per chunk.
    The chunks come back in order, so their outcomes, concatenated, are in
    episode order and the summary is identical at any parallelism degree.
    Per-episode failures, such as a worker's exception, are recorded in the
    summary against their episode index instead of aborting the batch. A
    ``workers`` below 1, a ``base_seed`` outside [0, 2**64), a ``window``
    that the episodes cannot fill, or a ``tol`` outside (0, 1) is a
    ValueError before any episode runs. The chunk policies' ``counts``,
    summed, are logged at INFO level on the ``siggame.simulate`` logger.
    """
    if n_episodes < 1:
        raise ValueError(f"n_episodes must be >= 1, got {n_episodes}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if not 0 <= base_seed < 2**64:
        raise ValueError("base seed must fit in an unsigned 64-bit integer")
    check_window(window, tol, scenario.episode_length)
    seeds = [derive_episode_seed(base_seed, i) for i in range(n_episodes)]
    n_chunks = min(workers, n_episodes)
    bounds = [n_episodes * k // n_chunks for k in range(n_chunks + 1)]
    tasks = [(scenario, seeds[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=len(tasks)) as pool:
            chunks = list(pool.map(_run_chunk, tasks))
    else:
        chunks = list(map(_run_chunk, tasks))
    counts: Counter[str] = Counter()
    outcomes: list[tuple[Trajectory | None, str | None]] = []
    for chunk_outcomes, chunk_counts in chunks:
        counts.update(chunk_counts)
        outcomes += chunk_outcomes
    results = [traj for traj, _ in outcomes]
    errors = [(index, err) for index, (_, err) in enumerate(outcomes) if err is not None]
    work = " ".join(f"{key}={n}" for key, n in counts.items())
    _log.info("%d episodes, %d policies: %s", n_episodes, len(chunks), work)
    tallies = {c.value: 0 for c in Classification}
    tallies[ERROR_TALLY] = 0
    # per episode: terminal belief, limit, oscillation, sustained-agreement step
    episodes: list[tuple] = []
    for traj in results:
        if traj is None:
            episodes.append((None, None, None, None))
            tallies[ERROR_TALLY] += 1
            continue
        report = convergence_report(traj, window=window, tol=tol)
        _, sustained = agreement_series(traj)
        episodes.append((traj.beliefs[-1], report.limit_estimate, report.oscillation, sustained))
        tallies[report.classification.value] += 1
    terminal, limits, oscillations, agreements = map(list, zip(*episodes))
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
