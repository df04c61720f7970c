import logging
import math
import re
import statistics
from collections import Counter, defaultdict
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import build_binary_scenario, labelled_alphabets, random_scenario
from siggame import simulate
from siggame.beliefs import InconsistentObservationError, coefficient_value, posterior_malicious
from siggame.equilibrium import EnumerationLimitError, RecedingHorizonPolicy
from siggame.model import BENIGN, MALICIOUS, TransitionKernel, sample_transition
from siggame.simulate import Trajectory, derive_episode_seed, run_batch, run_episode


@pytest.fixture(scope="module")
def short_table1(table1):
    return replace(table1, episode_length=80)


@pytest.fixture(scope="module")
def episode(short_table1):
    return run_episode(short_table1, seed=717)


@pytest.fixture
def inline_pool(monkeypatch):
    """Make the batch's process pool a stand-in that runs the chunks inline,
    so no process is started whatever ``workers`` asks for. Returns the list
    of the pool sizes asked for."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(simulate, "ProcessPoolExecutor", InlinePool)
    return sizes


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

    def test_policy_queried_once_per_state_while_the_belief_holds(self, table1, monkeypatch):
        # at horizon 1 both types pool at every step, so the belief never moves
        decided = Counter()
        bayes_calls = []

        class CountingPolicy(RecedingHorizonPolicy):
            def decide(self, pi_m, state):
                decided[pi_m, state] += 1
                return super().decide(pi_m, state)

        def counted(fn):
            def wrapper(*args):
                bayes_calls.append(fn.__name__)
                return fn(*args)

            return wrapper

        monkeypatch.setattr(simulate, "RecedingHorizonPolicy", CountingPolicy)
        monkeypatch.setattr(simulate, "posterior_malicious", counted(posterior_malicious))
        monkeypatch.setattr(simulate, "coefficient_value", counted(coefficient_value))
        scenario = replace(table1, horizon=1, episode_length=300)
        traj = run_episode(scenario, derive_episode_seed(scenario.base_seed, 0))
        assert len(traj) == 300 and traj.beliefs == [scenario.prior] * 300
        assert decided == Counter({(scenario.prior, x): 1 for x in scenario.alphabets.states})
        assert set(traj.states) == set(scenario.alphabets.states)
        assert bayes_calls == []

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

    @pytest.mark.parametrize("prior, true_type", [(0.0, MALICIOUS), (1.0, BENIGN)])
    def test_endpoint_belief_is_absorbing(self, prior, true_type):
        # a_b always leads to x_n and a_m to x_a; each type strictly prefers
        # its own action, so the realised successor has probability 0 under
        # the other type's action, and Bayes' rule at the endpoint belief
        # would divide by a zero mixture
        leads_to = {"a_b": (1.0, 0.0), "a_m": (0.0, 1.0)}
        rows = {(x, a): row for x in ("x_n", "x_a") for a, row in leads_to.items()}
        scenario = build_binary_scenario(
            rows,
            lambda t, x, a, r: float(a == ("a_m" if t == MALICIOUS else "a_b")),
            lambda t, x, a, r: 0.0,
            prior=prior,
            true_type=true_type,
            episode_length=20,
        )
        traj = run_episode(scenario, seed=5)
        kernel, index = scenario.kernel, scenario.alphabets.state_index
        steps = zip(
            traj.states, traj.actions_benign, traj.actions_malicious, traj.reactions, traj.states[1:]
        )
        zeros = sum(
            min(kernel.row(x, a_b, r)[index(nxt)], kernel.row(x, a_m, r)[index(nxt)]) == 0.0
            for x, a_b, a_m, r, nxt in steps
        )
        assert zeros > 0
        assert traj.beliefs == [prior] * 20
        assert traj.coefficients == [1.0] * 20


def replay_episode(scenario, seed):
    """The closed loop one scalar draw at a time, as an oracle for
    ``run_episode``: decide, then ``sample_transition`` on the next
    ``rng.random()``, then the Bayes step on the rows' likelihoods."""
    policy = RecedingHorizonPolicy(scenario)
    rng = np.random.default_rng(seed)
    malicious = scenario.true_type == MALICIOUS
    kernel, index = scenario.kernel, scenario.alphabets.state_index
    traj = Trajectory(true_type=scenario.true_type, prior=scenario.prior, seed=seed)
    x, pi = scenario.initial_state, scenario.prior
    for _ in range(scenario.episode_length):
        a_b, a_m, reaction = policy.decide(pi, x)
        x_next = sample_transition(kernel, x, a_m if malicious else a_b, reaction, rng)
        p_b = kernel.row(x, a_b, reaction)[index(x_next)]
        p_m = kernel.row(x, a_m, reaction)[index(x_next)]
        if 0.0 < pi < 1.0:
            f = coefficient_value(pi, p_b, p_m, malicious)
            pi_next = posterior_malicious(pi, p_b, p_m)
        else:
            f, pi_next = 1.0, pi
        traj.states.append(x)
        traj.actions_benign.append(a_b)
        traj.actions_malicious.append(a_m)
        traj.reactions.append(reaction)
        traj.beliefs.append(pi_next)
        traj.coefficients.append(f)
        x, pi = x_next, pi_next
    return traj


def outcome(run, scenario, seed):
    """An episode's trajectory repr, or the belief error that failed it."""
    try:
        return repr(run(scenario, seed))
    except InconsistentObservationError as err:
        return f"{type(err).__name__}: {err}"


class _FixedUniforms:
    """A generator stand-in whose every draw is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None):
        return self.u if size is None else np.full(size, self.u)


_SHORT = 0.5 - 5e-10  # rows ending in it sum to 1 - 5e-10, inside ROW_SUM_TOL

# (row, uniform, index of the state drawn) at the sampling rule's edges
_EDGES = [
    # a uniform equal to a running sum draws the next state
    ((0.25, 0.5, 0.25), 0.25, 1),
    ((0.25, 0.5, 0.25), 0.75, 2),
    ((0.25, 0.5, 0.25), 0.0, 0),
    # a zero-probability state is never drawn, wherever it sits
    ((0.0, 0.5, 0.5), 0.0, 1),
    ((0.5, 0.0, 0.5), math.nextafter(0.5, 0.0), 0),
    ((0.5, 0.0, 0.5), 0.5, 2),
    ((0.5, 0.5, 0.0), math.nextafter(1.0, 0.0), 1),
    # at or above a last running sum short of 1, the last state
    ((0.25, 0.25, _SHORT), 0.25 + 0.25 + _SHORT, 2),
    ((0.25, 0.25, _SHORT), math.nextafter(1.0, 0.0), 2),
    ((0.5, _SHORT), math.nextafter(1.0, 0.0), 1),
    # above a last running sum short of 1, the last state of positive probability
    ((0.5, _SHORT, 0.0), math.nextafter(1.0, 0.0), 1),
]


class TestSamplingRule:
    """``sample_transition`` and the closed loop draw the first state whose
    running sum of the row exceeds the uniform, else the last state of
    positive probability."""

    @pytest.mark.parametrize("row, u, expected", _EDGES)
    def test_edges(self, monkeypatch, row, u, expected):
        al = labelled_alphabets(len(row), 1, 1)
        table = {(x, "a0", "r0"): row for x in al.states}
        scenario = replace(
            random_scenario(al, 1, np.random.default_rng(0)),
            kernel=TransitionKernel(alphabets=al, table=table),
            episode_length=2,
        )
        assert row[expected] > 0.0
        drawn = sample_transition(scenario.kernel, "x0", "a0", "r0", _FixedUniforms(u))
        assert drawn == al.states[expected]
        monkeypatch.setattr(np.random, "default_rng", lambda seed: _FixedUniforms(u))
        assert run_episode(scenario, seed=0).states == ["x0", al.states[expected]]


class TestScalarReplay:
    @pytest.mark.parametrize("seed", [0, 12345, 2**64 - 1])
    def test_block_draw_equals_successive_draws(self, seed):
        rng = np.random.default_rng(seed)
        successive = [rng.random() for _ in range(1000)]
        assert np.random.default_rng(seed).random(1000).tolist() == successive

    @pytest.mark.parametrize("config", ["table1", "table4"])
    @pytest.mark.parametrize("horizon", [1, 2])
    def test_bundled_tables(self, request, config, horizon):
        scenario = replace(request.getfixturevalue(config), horizon=horizon)
        for i in range(3):
            seed = derive_episode_seed(scenario.base_seed, i)
            assert repr(run_episode(scenario, seed)) == repr(replay_episode(scenario, seed))

    @pytest.mark.parametrize("config", ["table1", "table4"])
    @pytest.mark.parametrize("horizon", [1, 2])
    @pytest.mark.parametrize(
        "prior, true_type",  # at priors 0 and 1 every step is still
        [(0.0, MALICIOUS), (1.0, MALICIOUS), (0.0, BENIGN), (1.0, BENIGN), (0.1, BENIGN)],
    )
    def test_bundled_tables_other_priors_and_types(
        self, request, config, horizon, prior, true_type
    ):
        scenario = replace(
            request.getfixturevalue(config), horizon=horizon, prior=prior, true_type=true_type
        )
        for i in range(3):
            seed = derive_episode_seed(scenario.base_seed, i)
            assert repr(run_episode(scenario, seed)) == repr(replay_episode(scenario, seed))

    @settings(max_examples=30, deadline=None)
    @given(
        horizon=st.sampled_from([1, 2]),
        shape=st.sampled_from([(2, 2, 2), (3, 2, 2), (2, 3, 2), (3, 2, 3)]),
        draw=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**64 - 1),
        prior=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
        true_type=st.sampled_from([MALICIOUS, BENIGN]),
    )
    def test_random_scenarios_with_zero_entries(
        self, horizon, shape, draw, seed, prior, true_type
    ):
        scenario = random_scenario(labelled_alphabets(*shape), horizon, np.random.default_rng(draw))
        scenario = replace(scenario, episode_length=60, prior=prior, true_type=true_type)
        assume(any(0.0 in row for row in scenario.kernel.table.values()))
        assert outcome(run_episode, scenario, seed) == outcome(replay_episode, scenario, seed)

    def test_pooled_row_with_an_entry_at_the_mixture_guard(self, monkeypatch):
        # one action, so both types pool; the last entry is drawn, and at
        # 1e-301 <= MIN_MIXTURE its Bayes step has no defined posterior
        al = labelled_alphabets(2, 1, 1)
        row = (1.0 - 5e-10, 1e-301)  # sums to 1 - 5e-10, inside ROW_SUM_TOL
        scenario = replace(
            random_scenario(al, 1, np.random.default_rng(0)),
            kernel=TransitionKernel(alphabets=al, table={(x, "a0", "r0"): row for x in al.states}),
            episode_length=3,
        )
        monkeypatch.setattr(
            np.random, "default_rng", lambda seed: _FixedUniforms(math.nextafter(1.0, 0.0))
        )
        expected = (
            "InconsistentObservationError: observation impossible under belief 0.5"
            " with likelihoods (1e-301, 1e-301)"
        )
        assert outcome(run_episode, scenario, 0) == outcome(replay_episode, scenario, 0) == expected


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_episode_seed(123, 5) == derive_episode_seed(123, 5)

    def test_distinct_across_indices(self):
        seeds = {derive_episode_seed(123, i) for i in range(200)}
        assert len(seeds) == 200

    def test_u64_range(self):
        for i in range(50):
            assert 0 <= derive_episode_seed(2**64 - 1, i) < 2**64


def fail_decide_in_episode(monkeypatch, seed):
    """Make ``decide`` raise while the episode of ``seed`` runs: its first
    call fails that episode, and no other episode sees the failure."""
    running = []
    episode, decide = simulate.run_episode, RecedingHorizonPolicy.decide

    def marked_episode(scenario, episode_seed, policy=None):
        running.append(episode_seed)
        return episode(scenario, episode_seed, policy)

    def failing_decide(self, pi_m, state):
        if running[-1] == seed:
            raise RuntimeError("injected decide failure")
        return decide(self, pi_m, state)

    monkeypatch.setattr(simulate, "run_episode", marked_episode)
    monkeypatch.setattr(RecedingHorizonPolicy, "decide", failing_decide)


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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_batch_logs_summed_policy_counts(self, table1, caplog, workers):
        # 5 episodes: one policy, or chunks of 2 and 3 episodes with a policy each
        scenario = replace(table1, episode_length=40)
        _, quiet = run_batch(scenario, 5, base_seed=3, workers=workers)
        with caplog.at_level(logging.INFO, logger="siggame.simulate"):
            _, logged = run_batch(scenario, 5, base_seed=3, workers=workers)
        assert logged == quiet
        (record,) = [r for r in caplog.records if r.name == "siggame.simulate"]
        seeds = [derive_episode_seed(3, i) for i in range(5)]
        expected = Counter()
        for chunk in [seeds] if workers == 1 else [seeds[:2], seeds[2:]]:
            policy = RecedingHorizonPolicy(scenario)
            for seed in chunk:
                run_episode(scenario, seed, policy)
            expected.update(policy.counts)
        assert expected["scans"] > 0
        work = " ".join(f"{key}={n}" for key, n in expected.items())
        assert record.getMessage() == f"5 episodes, {workers} policies: {work}"

    def test_rejects_empty_batch(self, short_table1):
        with pytest.raises(ValueError):
            run_batch(short_table1, 0, base_seed=1)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_checked_before_any_episode(self, short_table1, monkeypatch, workers):
        def no_episodes(args):
            raise AssertionError("an episode ran")

        monkeypatch.setattr(simulate, "_run_chunk", no_episodes)
        with pytest.raises(ValueError, match=f"^workers must be >= 1, got {workers}$"):
            run_batch(short_table1, 3, base_seed=1, workers=workers)

    @pytest.mark.parametrize("base_seed", [-1, 2**64])
    def test_base_seed_checked_before_any_episode(self, short_table1, monkeypatch, base_seed):
        # derive_episode_seed masks to 64 bits, so 2**64 would replay seed 0
        def no_episodes(args):
            raise AssertionError("an episode ran")

        monkeypatch.setattr(simulate, "_run_chunk", no_episodes)
        with pytest.raises(ValueError, match="^base seed must fit in an unsigned 64-bit integer$"):
            run_batch(short_table1, 3, base_seed)

    def test_largest_base_seed_runs(self, short_table1):
        summary, trajectories = run_batch(short_table1, 3, 2**64 - 1)
        assert summary.base_seed == 2**64 - 1
        assert [t.seed for t in trajectories] == [derive_episode_seed(2**64 - 1, i) for i in range(3)]

    @pytest.mark.parametrize("n_episodes, workers, pool_size", [(2, 4000, 2), (7, 3, 3)])
    def test_pool_never_larger_than_chunk_count(
        self, table1, inline_pool, caplog, n_episodes, workers, pool_size
    ):
        scenario = replace(table1, episode_length=30)
        serial, serial_trajs = run_batch(scenario, n_episodes, base_seed=4)
        with caplog.at_level(logging.INFO, logger="siggame.simulate"):
            pooled, pooled_trajs = run_batch(scenario, n_episodes, base_seed=4, workers=workers)
        assert inline_pool == [pool_size]
        (record,) = [r for r in caplog.records if r.name == "siggame.simulate"]
        assert record.getMessage().startswith(f"{n_episodes} episodes, {pool_size} policies: ")
        assert asdict(pooled) == asdict(serial)
        assert [asdict(t) for t in pooled_trajs] == [asdict(t) for t in serial_trajs]

    @pytest.mark.parametrize(
        "window, message",
        [(0, "window must be >= 1, got 0"), (80, "80 steps is too short for window 80")],
    )
    def test_window_checked_before_any_episode(self, short_table1, monkeypatch, window, message):
        def no_episodes(args):
            raise AssertionError("an episode ran")

        monkeypatch.setattr(simulate, "_run_chunk", no_episodes)
        with pytest.raises(ValueError, match=message):
            run_batch(short_table1, 3, base_seed=1, window=window)

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, 1.0, 5.0])
    def test_tol_checked_before_any_episode(self, short_table1, monkeypatch, tol):
        def no_episodes(args):
            raise AssertionError("an episode ran")

        monkeypatch.setattr(simulate, "_run_chunk", no_episodes)
        with pytest.raises(ValueError, match=re.escape(f"tol must lie in (0, 1), got {tol!r}")):
            run_batch(short_table1, 3, base_seed=1, tol=tol)

    def test_later_chunk_failure_recorded_at_its_index(self, table1, inline_pool, monkeypatch):
        # 7 episodes over 3 workers run inline as chunks of 2, 2 and 3, so
        # episode 5 is the last chunk's second
        scenario = replace(table1, episode_length=30)
        serial, serial_trajs = run_batch(scenario, 7, base_seed=4)
        fail_decide_in_episode(monkeypatch, derive_episode_seed(4, 5))
        summary, trajectories = run_batch(scenario, 7, base_seed=4, workers=3)
        assert inline_pool == [3]
        assert summary.errors == [(5, "injected decide failure")]
        assert summary.classifications["ERROR"] == 1
        assert trajectories[5] is None and summary.terminal_beliefs[5] is None
        for i in (0, 1, 2, 3, 4, 6):
            assert asdict(trajectories[i]) == asdict(serial_trajs[i])
            assert summary.terminal_beliefs[i] == serial.terminal_beliefs[i]

    def test_episode_failure_recorded_without_aborting(self, table1, monkeypatch):
        # failing the first decide of episode 1 fails that episode only
        scenario = replace(table1, episode_length=40)
        fail_decide_in_episode(monkeypatch, derive_episode_seed(2, 1))
        summary, trajectories = run_batch(scenario, 3, base_seed=2)
        assert summary.errors == [(1, "injected decide failure")]
        assert summary.classifications["ERROR"] == 1
        assert sum(summary.classifications.values()) == 3
        assert trajectories[1] is None and summary.terminal_beliefs[1] is None
        assert all(len(trajectories[i]) == 40 for i in (0, 2))
        assert summary.terminal_beliefs[2] == trajectories[2].beliefs[-1]

    def test_oversized_window_fails_the_batch(self, table1, monkeypatch):
        # the policy refuses the window when it is built, so the batch raises
        # before any episode instead of recording one error per episode
        def no_episodes(*args):
            raise AssertionError("an episode ran")

        monkeypatch.setattr(simulate, "run_episode", no_episodes)
        with pytest.raises(EnumerationLimitError, match="exceed the exhaustive-scan limit"):
            run_batch(replace(table1, horizon=13), 3, base_seed=1)

    def test_vanishing_mixture_fails_its_episodes(self):
        # a_b never reaches x_a and a_m reaches it half the time; at a belief
        # of 1e-301 or below the mixture of reaching it, 0.5 times the belief,
        # is below MIN_MIXTURE, so the Bayes step raises on the successor the
        # malicious sender's own action drew, and each episode is an error
        leads_to = {"a_b": (1.0, 0.0), "a_m": (0.5, 0.5)}
        rows = {(x, a): row for x in ("x_n", "x_a") for a, row in leads_to.items()}
        scenario = build_binary_scenario(
            rows,
            lambda t, x, a, r: float(a == ("a_m" if t == MALICIOUS else "a_b")),
            lambda t, x, a, r: 0.0,
            prior=1e-301,
            episode_length=60,
        )
        summary, trajectories = run_batch(scenario, 3, base_seed=5)
        assert trajectories == [None] * 3
        assert summary.classifications["ERROR"] == 3
        assert [index for index, _ in summary.errors] == [0, 1, 2]
        for _, err in summary.errors:
            assert re.fullmatch(
                r"observation impossible under belief \S+ with likelihoods \(0\.0, 0\.5\)", err
            )


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
