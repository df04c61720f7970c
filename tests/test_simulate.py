import statistics
from collections import defaultdict
from dataclasses import asdict, replace

import pytest

from siggame.equilibrium import RecedingHorizonPolicy
from siggame.model import MALICIOUS
from siggame.simulate import derive_episode_seed, run_batch, run_episode


@pytest.fixture(scope="module")
def short_table1(table1):
    return replace(table1, episode_length=80)


@pytest.fixture(scope="module")
def episode(short_table1):
    return run_episode(short_table1, seed=717)


class TestRunEpisode:
    def test_length_and_fields(self, short_table1, episode):
        n = short_table1.episode_length
        assert len(episode) == n
        assert len(episode.beliefs) == n
        assert episode.states[0] == short_table1.initial_state
        assert episode.prior == short_table1.prior

    def test_same_seed_is_bit_identical(self, short_table1, episode):
        again = run_episode(short_table1, seed=717)
        assert asdict(again) == asdict(episode)

    def test_shared_policy_does_not_change_result(self, short_table1, episode):
        policy = RecedingHorizonPolicy(short_table1)
        run_episode(short_table1, seed=1)  # warm unrelated seed through a fresh policy
        shared = run_episode(short_table1, seed=717, policy=policy)
        assert asdict(shared) == asdict(episode)

    def test_applied_action_is_true_type_action(self, episode):
        assert episode.true_type == MALICIOUS
        assert episode.applied_actions == episode.actions_malicious

    def test_agreement_is_action_equality(self, episode):
        for a_b, a_m, d in zip(episode.actions_benign, episode.actions_malicious, episode.agreement):
            assert d == (0 if a_b == a_m else 1)

    def test_recorded_coefficients_chain_the_beliefs(self, episode):
        prev = episode.prior
        for pi, f in zip(episode.beliefs, episode.coefficients):
            assert f * prev == pytest.approx(pi, abs=1e-12)
            prev = pi

    def test_beliefs_stay_in_unit_interval(self, episode):
        assert all(0.0 <= b <= 1.0 for b in episode.beliefs)

    def test_pooling_freezes_belief(self, episode):
        # after the last disagreement the observation is uninformative
        last = max((i for i, d in enumerate(episode.agreement) if d), default=-1)
        tail = episode.beliefs[last + 1 :]
        assert len(tail) > 1
        assert all(b == tail[0] for b in tail)
        assert all(f == 1.0 for f in episode.coefficients[last + 1 :])


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_episode_seed(123, 5) == derive_episode_seed(123, 5)

    def test_distinct_across_indices(self):
        seeds = {derive_episode_seed(123, i) for i in range(200)}
        assert len(seeds) == 200

    def test_u64_range(self):
        for i in range(50):
            assert 0 <= derive_episode_seed(2**64 - 1, i) < 2**64


class TestRunBatch:
    def test_single_episode_matches_direct_run(self, short_table1):
        summary, trajectories = run_batch(short_table1, 1, base_seed=99)
        direct = run_episode(short_table1, derive_episode_seed(99, 0))
        assert asdict(trajectories[0]) == asdict(direct)
        assert summary.n_episodes == 1
        assert sum(summary.classifications.values()) == 1

    def test_same_base_seed_identical_summaries(self, short_table1):
        first, _ = run_batch(short_table1, 6, base_seed=5)
        second, _ = run_batch(short_table1, 6, base_seed=5)
        assert asdict(first) == asdict(second)

    def test_tallies_sum_to_episode_count(self, short_table1):
        summary, _ = run_batch(short_table1, 9, base_seed=31)
        assert sum(summary.classifications.values()) == 9
        assert len(summary.terminal_beliefs) == 9
        assert len(summary.agreement_steps) == 9

    def test_parallel_matches_sequential(self, table1):
        # 7 episodes over 3 workers: uneven contiguous chunks of 2, 2 and 3
        scenario = replace(table1, episode_length=40)
        sequential, seq_trajs = run_batch(scenario, 7, base_seed=11, workers=1)
        parallel, par_trajs = run_batch(scenario, 7, base_seed=11, workers=3)
        assert asdict(sequential) == asdict(parallel)
        for a, b in zip(seq_trajs, par_trajs):
            assert asdict(a) == asdict(b)

    def test_rejects_empty_batch(self, short_table1):
        with pytest.raises(ValueError):
            run_batch(short_table1, 0, base_seed=1)

    def test_episode_failure_recorded_without_aborting(self, table1, monkeypatch):
        # the serial batch runs episode 1's steps as decide calls 40..79;
        # failing the first of them fails that episode only
        scenario = replace(table1, episode_length=40)
        calls = []
        decide = RecedingHorizonPolicy.decide

        def failing_decide(self, pi_m, state):
            calls.append(None)
            if len(calls) == 41:
                raise RuntimeError("injected decide failure")
            return decide(self, pi_m, state)

        monkeypatch.setattr(RecedingHorizonPolicy, "decide", failing_decide)
        summary, trajectories = run_batch(scenario, 3, base_seed=2)
        assert summary.errors == [(1, "injected decide failure")]
        assert summary.classifications["ERROR"] == 1
        assert sum(summary.classifications.values()) == 3
        assert trajectories[1] is None and summary.terminal_beliefs[1] is None
        assert all(len(trajectories[i]) == 40 for i in (0, 2))
        assert summary.terminal_beliefs[2] == trajectories[2].beliefs[-1]


class TestAgreementAbsorption:
    def test_agreement_above_threshold_persists(self, table1):
        """Once the prescriptions agree at a belief above the largest
        state-wise switching threshold, they agree for the rest of the run."""
        policy = RecedingHorizonPolicy(table1)
        threshold = 0.0
        for state in table1.alphabets.states:
            for i in range(1, 1000):
                a_b, a_m, _ = policy.decide(i / 1000, state)
                if a_b != a_m:
                    threshold = max(threshold, i / 1000)
        assert 0.0 < threshold < 1.0
        scenario = replace(table1, episode_length=120)
        absorbed = 0
        for seed in range(20):
            traj = run_episode(scenario, derive_episode_seed(scenario.base_seed, seed), policy)
            start = None
            for i, (d, belief) in enumerate(zip(traj.agreement, traj.beliefs)):
                if d == 0 and belief > threshold:
                    start = i
                    break
            if start is None:
                continue
            assert all(d == 0 for d in traj.agreement[start:])
            absorbed += 1
        assert absorbed >= 5


class TestFullLengthBatchLimits:
    def test_factor_pins_to_one_with_belief_below_one(self, table1):
        """At the default episode length nearly every malicious-type episode
        ends with the Bayes factor pinned at one and a belief limit short of
        certainty: deception settles without the defender ever being sure."""
        summary, _ = run_batch(table1, 50, base_seed=table1.base_seed)
        assert summary.classifications["F_TO_ONE"] >= 45
        assert all(limit is not None and limit < 0.99 for limit in summary.limit_estimates)


class TestEmpiricalSubmartingale:
    def test_belief_drift_nonnegative_per_cell(self, table1):
        """Mean one-step belief change, binned by (belief, state), stays above
        -3 standard errors wherever a cell has at least 30 samples."""
        scenario = replace(table1, episode_length=100)
        _, trajectories = run_batch(scenario, 50, base_seed=13)
        cells = defaultdict(list)
        for traj in trajectories:
            prev = traj.prior
            for state, belief in zip(traj.states, traj.beliefs):
                cells[(round(prev, 1), state)].append(belief - prev)
                prev = belief
        checked = 0
        for deltas in cells.values():
            if len(deltas) < 30:
                continue
            mean = statistics.fmean(deltas)
            stderr = statistics.pstdev(deltas) / len(deltas) ** 0.5
            assert mean >= -3 * stderr
            checked += 1
        assert checked >= 3
