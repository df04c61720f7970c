import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siggame.beliefs import BeliefState
from siggame.equilibrium import (
    EnumerationLimitError,
    NoPureEquilibriumError,
    RecedingHorizonPolicy,
    StrategyTree,
    _Enumeration,
    _Tables,
    _value_matrices,
    enumerate_strategy_trees,
    expected_utilities,
    joint_profile_count,
    solve_bne,
)
from siggame.model import (
    BENIGN,
    MALICIOUS,
    TYPES,
    Alphabets,
    Scenario,
    TransitionKernel,
    UtilityTables,
)


def one_step_profile(action_b, action_m, reaction):
    return StrategyTree(
        depth=1,
        sender={BENIGN: {(): action_b}, MALICIOUS: {(): action_m}},
        receiver={(): reaction},
    )


class TestEnumeration:
    def test_counts_depth_one(self):
        al = Alphabets(states=("x_n", "x_a"), actions=("a_b", "a_m"), reactions=("r_b", "r_m"))
        sender, receiver = enumerate_strategy_trees(al, 1)
        assert len(sender[BENIGN]) == 2
        assert len(sender[MALICIOUS]) == 2
        assert len(receiver) == 2

    def test_counts_depth_two(self):
        al = Alphabets(states=("x_n", "x_a"), actions=("a_b", "a_m"), reactions=("r_b", "r_m"))
        sender, receiver = enumerate_strategy_trees(al, 2)
        # 3 nodes (root plus one per state), binary labels
        assert len(sender[BENIGN]) == 8
        assert len(receiver) == 8
        assert len({tuple(sorted(t.items())) for t in receiver}) == 8

    def test_branch_node_counts(self):
        al = Alphabets(states=("x_n", "x_a"), actions=("a_b", "a_m"), reactions=("r_b", "r_m"))
        for horizon in (1, 2, 3):
            sender, receiver = enumerate_strategy_trees(al, horizon)
            expected_nodes = sum(2**d for d in range(horizon))
            assert all(len(branch) == expected_nodes for branch in sender[BENIGN])
            assert all(len(branch) == expected_nodes for branch in receiver)

    def test_zero_horizon_rejected(self):
        al = Alphabets(states=("x",), actions=("a",), reactions=("r",))
        with pytest.raises(ValueError, match=">= 1"):
            enumerate_strategy_trees(al, 0)

    def test_combinatorial_guard(self):
        al = Alphabets(states=("x_n", "x_a"), actions=("a_b", "a_m"), reactions=("r_b", "r_m"))
        assert joint_profile_count(al, 12) > 10**7
        with pytest.raises(EnumerationLimitError, match="exceed"):
            enumerate_strategy_trees(al, 12)


class TestExpectedUtilities:
    def test_benign_single_step_value(self, table1):
        for reaction in ("r_b", "r_m"):
            profile = one_step_profile("a_b", "a_m", reaction)
            scenario = _with_horizon(table1, 1)
            v_b, _, _ = expected_utilities(scenario, profile, BeliefState(0.1), "x_n")
            assert v_b == 1.0

    def test_malicious_single_step_value(self, table1):
        scenario = _with_horizon(table1, 1)
        _, v_m, _ = expected_utilities(
            scenario, one_step_profile("a_b", "a_m", "r_b"), BeliefState(0.1), "x_a"
        )
        assert v_m == 2.0

    def test_receiver_single_step_value_is_belief_mix(self, table1):
        scenario = _with_horizon(table1, 1)
        for pi in (0.0, 0.1, 0.45, 0.9):
            _, _, v_r = expected_utilities(
                scenario, one_step_profile("a_b", "a_m", "r_b"), BeliefState(pi), "x_n"
            )
            assert v_r == pytest.approx(1.0 - pi, abs=1e-12)

    def test_path_weights_sum_to_one(self, scenario_builder):
        # constant unit sender utilities turn the value into the total path mass
        scenario = scenario_builder(
            rows={
                ("x_n", "a_b"): (0.9, 0.1),
                ("x_a", "a_b"): (0.8, 0.2),
                ("x_n", "a_m"): (0.8, 0.2),
                ("x_a", "a_m"): (0.7, 0.3),
            },
            sender_util=lambda t, x, a, r: 1.0,
            receiver_util=lambda t, x, a, r: 0.0,
            horizon=3,
        )
        nodes = [()] + [(s,) for s in ("x_n", "x_a")] + [
            (s1, s2) for s1 in ("x_n", "x_a") for s2 in ("x_n", "x_a")
        ]
        profile = StrategyTree(
            depth=3,
            sender={
                BENIGN: {n: "a_b" for n in nodes},
                MALICIOUS: {n: "a_m" for n in nodes},
            },
            receiver={n: "r_b" for n in nodes},
        )
        v_b, v_m, _ = expected_utilities(scenario, profile, BeliefState(0.2), "x_n")
        assert v_b == pytest.approx(1.0, abs=1e-12)
        assert v_m == pytest.approx(1.0, abs=1e-12)

    def test_depth_mismatch_rejected(self, table1):
        with pytest.raises(ValueError, match="depth"):
            expected_utilities(table1, one_step_profile("a_b", "a_m", "r_b"), BeliefState(0.1), "x_n")


def _with_horizon(scenario, horizon):
    from dataclasses import replace

    return replace(scenario, horizon=horizon)


class TestSolve:
    def test_low_belief_separating_equilibrium(self, table1):
        result = solve_bne(table1, BeliefState(0.1), "x_n")
        assert result.profile.root_prescriptions() == ("a_b", "a_m", "r_b")
        # benign and malicious leaf assignments are payoff-irrelevant here,
        # so 4 x 4 tree variants tie; the receiver branch is unique
        assert result.multiplicity == 16
        assert result.tie_broken
        assert result.sender_value_benign == pytest.approx(0.95, abs=1e-12)
        assert result.sender_value_malicious == pytest.approx(1.1, abs=1e-12)

    def test_high_belief_pooling_equilibrium(self, table1):
        result = solve_bne(table1, BeliefState(0.95), "x_a")
        assert result.profile.root_prescriptions() == ("a_b", "a_b", "r_m")

    def test_above_half_pooling_at_normal_state(self, table1):
        result = solve_bne(table1, BeliefState(0.55), "x_n")
        a_b, a_m, _ = result.profile.root_prescriptions()
        assert a_b == "a_b"
        assert a_m == "a_b"

    def test_best_response_property(self, table1):
        for pi, state in ((0.1, "x_n"), (0.15, "x_a"), (0.7, "x_n"), (0.95, "x_a")):
            result = solve_bne(table1, BeliefState(pi), state)
            _assert_mutual_best_response(table1, result, pi, state)

    def test_constant_shift_leaves_roots_unchanged(self, table1):
        from dataclasses import replace

        base = solve_bne(table1, BeliefState(0.1), "x_n").profile.root_prescriptions()
        shifted_sender = {
            k: (v + 17.5 if k[0] == MALICIOUS else v)
            for k, v in table1.utilities.sender.items()
        }
        shifted = replace(
            table1,
            utilities=type(table1.utilities)(
                sender=shifted_sender, receiver=table1.utilities.receiver
            ),
        )
        assert solve_bne(shifted, BeliefState(0.1), "x_n").profile.root_prescriptions() == base

    def test_two_step_receiver_value_matches_rational_oracle(self, table1):
        # hand derivation for separating roots with r_b everywhere at
        # (0.1, x_n): step 1 contributes 9/10; step 2 contributes
        # 0.9*(81/89) + 0.1*(9/11) through the benign hypothesis only
        result = solve_bne(table1, BeliefState(0.1), "x_n")
        expected = float((Fraction(9, 10) + Fraction(9, 10) * Fraction(81, 89) + Fraction(1, 10) * Fraction(9, 11)) / 2)
        assert result.receiver_value == pytest.approx(expected, abs=1e-12)

    def test_no_pure_equilibrium_in_mid_belief_window(self, table1):
        with pytest.raises(NoPureEquilibriumError) as info:
            solve_bne(table1, BeliefState(0.35), "x_n")
        err = info.value
        # the defender-anchored approximation pools the malicious root
        assert err.fallback_profile.root_prescriptions() == ("a_b", "a_b", "r_b")
        assert err.fallback_regret == pytest.approx(0.05, abs=1e-9)

    def test_equilibrium_set_matches_direct_scan(self, table1):
        """Count mutual best responses by scanning every joint tree through
        the public evaluator; the solver must agree on existence and count."""
        for pi, state, expected in ((0.1, "x_n", 16), (0.35, "x_n", 0)):
            count = _direct_equilibrium_count(table1, pi, state)
            assert count == expected
            if expected:
                assert solve_bne(table1, BeliefState(pi), state).multiplicity == expected
            else:
                with pytest.raises(NoPureEquilibriumError):
                    solve_bne(table1, BeliefState(pi), state)


def _direct_equilibrium_count(scenario, pi, state):
    belief = BeliefState(pi)
    sender_trees, receiver_trees = enumerate_strategy_trees(scenario.alphabets, scenario.horizon)
    values = {}
    for ib, branch_b in enumerate(sender_trees[BENIGN]):
        for im, branch_m in enumerate(sender_trees[MALICIOUS]):
            for ir, branch_r in enumerate(receiver_trees):
                profile = StrategyTree(
                    depth=scenario.horizon,
                    sender={BENIGN: branch_b, MALICIOUS: branch_m},
                    receiver=branch_r,
                )
                values[(ib, im, ir)] = expected_utilities(scenario, profile, belief, state)
    nb, nr = len(sender_trees[BENIGN]), len(receiver_trees)
    count = 0
    for (ib, im, ir), (vb, vm, vr) in values.items():
        if any(values[(alt, im, ir)][0] > vb for alt in range(nb)):
            continue
        if any(values[(ib, alt, ir)][1] > vm for alt in range(nb)):
            continue
        if any(values[(ib, im, alt)][2] > vr for alt in range(nr)):
            continue
        count += 1
    return count


def _assert_mutual_best_response(scenario, result, pi, state):
    belief = BeliefState(pi)
    sender_trees, receiver_trees = enumerate_strategy_trees(scenario.alphabets, scenario.horizon)
    profile = result.profile
    v_b, v_m, v_r = expected_utilities(scenario, profile, belief, state)
    for branch in sender_trees[BENIGN]:
        alt = StrategyTree(
            depth=profile.depth,
            sender={BENIGN: branch, MALICIOUS: profile.sender[MALICIOUS]},
            receiver=profile.receiver,
        )
        assert expected_utilities(scenario, alt, belief, state)[0] <= v_b + 1e-12
    for branch in sender_trees[MALICIOUS]:
        alt = StrategyTree(
            depth=profile.depth,
            sender={BENIGN: profile.sender[BENIGN], MALICIOUS: branch},
            receiver=profile.receiver,
        )
        assert expected_utilities(scenario, alt, belief, state)[1] <= v_m + 1e-12
    for branch in receiver_trees:
        alt = StrategyTree(depth=profile.depth, sender=profile.sender, receiver=branch)
        assert expected_utilities(scenario, alt, belief, state)[2] <= v_r + 1e-12


def _labelled_alphabets(n_states, n_actions, n_reactions):
    return Alphabets(
        states=tuple(f"x{i}" for i in range(n_states)),
        actions=tuple(f"a{i}" for i in range(n_actions)),
        reactions=tuple(f"r{i}" for i in range(n_reactions)),
    )


# (states, actions, reactions) label counts per horizon, 2-3 labels each,
# kept to windows of at most 2**21 joint profiles
_SHAPES = {
    horizon: [
        shape
        for shape in itertools.product((2, 3), repeat=3)
        if joint_profile_count(_labelled_alphabets(*shape), horizon) <= 2**21
    ]
    for horizon in (1, 2, 3)
}


@st.composite
def random_windows(draw):
    """A random scenario with a (belief, state) point to solve it at.

    Kernel rows come from small integer weights, so zero probabilities
    (vanishing paths) and equal likelihoods under both actions are common.
    """
    horizon = draw(st.sampled_from(sorted(_SHAPES)))
    al = _labelled_alphabets(*draw(st.sampled_from(_SHAPES[horizon])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = {}
    for key in itertools.product(al.states, al.actions, al.reactions):
        weights = rng.integers(0, 3, size=len(al.states)).astype(float)
        if weights.sum() == 0.0:
            weights[rng.integers(len(weights))] = 1.0
        table[key] = tuple(weights / weights.sum())
    keys = list(itertools.product(TYPES, al.states, al.actions, al.reactions))
    utilities = UtilityTables(
        sender={k: float(rng.uniform(-5, 5)) for k in keys},
        receiver={k: float(rng.uniform(-5, 5)) for k in keys},
    )
    scenario = Scenario(
        alphabets=al,
        kernel=TransitionKernel(alphabets=al, table=table),
        utilities=utilities,
        initial_state=al.states[0],
        prior=0.5,
        true_type=MALICIOUS,
        horizon=horizon,
    )
    pi = draw(st.one_of(st.sampled_from([0.0, 1.0, 1e-300]), st.floats(0.0, 1.0)))
    state = draw(st.sampled_from(al.states))
    return scenario, pi, state, rng


class TestValueMatricesAgainstOracle:
    """The solver's vectorised value path against ``expected_utilities``."""

    @settings(max_examples=60, deadline=None)
    @given(random_windows())
    def test_entries_equal_oracle(self, window):
        scenario, pi, state, rng = window
        al = scenario.alphabets
        enum = _Enumeration(al, scenario.horizon)
        V_b, V_m, V_r = _value_matrices(_Tables(scenario), enum, pi, al.state_index(state))
        nb, nr = V_b.shape
        picks = [(0, 0, 0), (nb - 1, nb - 1, nr - 1)] + [
            (int(rng.integers(nb)), int(rng.integers(nb)), int(rng.integers(nr))) for _ in range(12)
        ]
        # both paths add the same float terms in the same order: exact equality
        for ib, im, ir in picks:
            oracle = expected_utilities(scenario, enum.profile(ib, im, ir), BeliefState(pi), state)
            assert (V_b[ib, ir], V_m[im, ir], V_r[ib, im, ir]) == oracle

    def test_horizon_three_solve_matches_oracle(self, table1):
        scenario = _with_horizon(table1, 3)
        for pi, state in ((0.1, "x_n"), (0.15, "x_a"), (0.7, "x_n"), (0.95, "x_a")):
            belief = BeliefState(pi)
            result = solve_bne(scenario, belief, state)
            values = (
                result.sender_value_benign,
                result.sender_value_malicious,
                result.receiver_value,
            )
            assert values == expected_utilities(scenario, result.profile, belief, state)


class TestBruteForceCrossCheck:
    """Single-step games against an independently coded direct argmax."""

    @staticmethod
    def brute_force(scenario, pi, x):
        """The first pure equilibrium in enumeration order (or None), plus
        the defender-anchored fallback: among receiver-best profiles, the
        first that minimises the larger sender deviation gain, with that gain."""
        al = scenario.alphabets
        us, ur = scenario.utilities.sender, scenario.utilities.receiver
        equilibrium = fallback = None
        least = float("inf")
        for a_b in al.actions:
            for a_m in al.actions:
                for r in al.reactions:
                    vb = us[(BENIGN, x, a_b, r)]
                    vm = us[(MALICIOUS, x, a_m, r)]
                    vr = (1 - pi) * ur[(BENIGN, x, a_b, r)] + pi * ur[(MALICIOUS, x, a_m, r)]
                    if any(
                        (1 - pi) * ur[(BENIGN, x, a_b, alt)] + pi * ur[(MALICIOUS, x, a_m, alt)]
                        > vr
                        for alt in al.reactions
                    ):
                        continue
                    gain_b = max(us[(BENIGN, x, alt, r)] for alt in al.actions) - vb
                    gain_m = max(us[(MALICIOUS, x, alt, r)] for alt in al.actions) - vm
                    if max(gain_b, gain_m) < least:
                        fallback, least = (a_b, a_m, r), max(gain_b, gain_m)
                    if equilibrium is not None:
                        continue
                    if any(us[(BENIGN, x, alt, r)] > vb for alt in al.actions):
                        continue
                    if any(us[(MALICIOUS, x, alt, r)] > vm for alt in al.actions):
                        continue
                    equilibrium = (a_b, a_m, r)
        return equilibrium, fallback, least

    def test_agreement_on_random_tables(self, scenario_builder):
        rng = np.random.default_rng(2718)
        hits = {"eq": 0, "none": 0}
        # 60 draws include fallbacks with both sender gains positive (draws
        # 31 and 54), where the larger gain differs from, say, their sum
        for _ in range(60):
            sender_vals = {}
            receiver_vals = {}
            scenario = scenario_builder(
                rows={
                    ("x_n", "a_b"): (0.9, 0.1),
                    ("x_a", "a_b"): (0.8, 0.2),
                    ("x_n", "a_m"): (0.8, 0.2),
                    ("x_a", "a_m"): (0.7, 0.3),
                },
                sender_util=lambda t, x, a, r: sender_vals.setdefault(
                    (t, x, a, r), rng.uniform(-5, 5)
                ),
                receiver_util=lambda t, x, a, r: receiver_vals.setdefault(
                    (t, x, a, r), rng.uniform(-5, 5)
                ),
                horizon=1,
            )
            pi = float(rng.uniform(0.05, 0.95))
            x = "x_n" if rng.random() < 0.5 else "x_a"
            expected, fallback, least = self.brute_force(scenario, pi, x)
            try:
                got = solve_bne(scenario, BeliefState(pi), x).profile.root_prescriptions()
                hits["eq"] += 1
            except NoPureEquilibriumError as err:
                got = None
                hits["none"] += 1
                assert err.fallback_profile.root_prescriptions() == fallback
                assert err.fallback_regret == least > 0.0
            assert got == expected
        # the random draw should exercise both outcomes
        assert hits["eq"] > 0
        assert hits["none"] > 0


class TestRecedingHorizonPolicy:
    def test_matches_solve_roots(self, table1):
        policy = RecedingHorizonPolicy(table1)
        assert policy.decide(0.1, "x_n") == ("a_b", "a_m", "r_b")
        assert policy.decide(0.95, "x_a") == ("a_b", "a_b", "r_m")

    def test_repeated_queries_identical(self, table1):
        policy = RecedingHorizonPolicy(table1)
        first = policy.decide(0.3141592653589793, "x_a")
        assert policy.decide(0.3141592653589793, "x_a") == first

    def test_fallback_resolves_gap(self, table1):
        policy = RecedingHorizonPolicy(table1)
        assert policy.decide(0.35, "x_n") == ("a_b", "a_b", "r_b")
