import itertools
import json
import logging
import math
import tracemalloc
from bisect import bisect_right
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import labelled_alphabets, random_scenario
from siggame import equilibrium
from siggame.beliefs import BeliefState
from siggame.equilibrium import (
    EnumerationLimitError,
    NoPureEquilibriumError,
    RecedingHorizonPolicy,
    StrategyTree,
    _Enumeration,
    _RegionTable,
    _WindowScan,
    expected_utilities,
    joint_profile_count,
    solve_bne,
)
from siggame.model import BENIGN, MALICIOUS, Alphabets
from siggame.simulate import derive_episode_seed, run_batch, run_episode


def one_step_profile(action_b, action_m, reaction):
    return StrategyTree(
        depth=1,
        sender={BENIGN: {(): action_b}, MALICIOUS: {(): action_m}},
        receiver={(): reaction},
    )


class TestEnumeration:
    def test_counts_depth_one(self):
        al = Alphabets(states=("x_n", "x_a"), actions=("a_b", "a_m"), reactions=("r_b", "r_m"))
        enum = _Enumeration(al, 1)
        assert len(enum.sender_branches) == 2
        assert len(enum.receiver_branches) == 2

    def test_counts_depth_two(self):
        al = Alphabets(states=("x_n", "x_a"), actions=("a_b", "a_m"), reactions=("r_b", "r_m"))
        enum = _Enumeration(al, 2)
        # 3 nodes (root plus one per state), binary labels
        assert len(enum.sender_branches) == 8
        assert len(enum.receiver_branches) == 8
        assert len(set(enum.receiver_branches)) == 8

    def test_branch_node_counts(self):
        al = Alphabets(states=("x_n", "x_a"), actions=("a_b", "a_m"), reactions=("r_b", "r_m"))
        for horizon in (1, 2, 3):
            enum = _Enumeration(al, horizon)
            expected_nodes = sum(2**d for d in range(horizon))
            trees = ((enum.sender_branches, al.actions), (enum.receiver_branches, al.reactions))
            for branches, labels in trees:
                assert all(len(enum.tree(b, labels)) == expected_nodes for b in branches)
            n_sender, n_receiver = len(enum.sender_branches), len(enum.receiver_branches)
            assert joint_profile_count(al, horizon) == n_sender**2 * n_receiver

    def test_combinatorial_guard(self):
        al = Alphabets(states=("x_n", "x_a"), actions=("a_b", "a_m"), reactions=("r_b", "r_m"))
        assert joint_profile_count(al, 12) > 10**7
        with pytest.raises(EnumerationLimitError, match="exceed"):
            _Enumeration(al, 12)

    @pytest.mark.parametrize("horizon", [13, 20, 10**9])
    def test_oversized_window_refused_from_its_node_count(self, horizon):
        # from horizon 13 on the count has more digits than Python formats
        # by default; the guard builds and prints it only below 64 nodes
        al = Alphabets(states=("x_n", "x_a"), actions=("a_b", "a_m"), reactions=("r_b", "r_m"))
        with pytest.raises(
            EnumerationLimitError,
            match=r"^at least 8\*\*64 joint profiles exceed the exhaustive-scan limit of 10000000$",
        ):
            _Enumeration(al, horizon)

    def test_exact_count_printed_below_64_nodes(self):
        al = Alphabets(states=("x_n", "x_a"), actions=("a_b", "a_m"), reactions=("r_b", "r_m"))
        with pytest.raises(EnumerationLimitError, match=f"^{8**15} joint profiles exceed"):
            _Enumeration(al, 4)

    def test_single_labels_are_never_refused(self):
        # one joint profile however deep the window
        enum = _Enumeration(Alphabets(states=("x",), actions=("a",), reactions=("r",)), 70)
        assert len(enum.sender_branches) == len(enum.receiver_branches) == 1


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

    def test_missing_node_named(self, table1):
        # a depth-2 profile without the node ("x_a",): the oracle names it
        # when the path through x_a reaches it
        nodes = [(), ("x_n",)]
        profile = StrategyTree(
            depth=2,
            sender={BENIGN: dict.fromkeys(nodes, "a_b"), MALICIOUS: dict.fromkeys(nodes, "a_m")},
            receiver=dict.fromkeys(nodes, "r_b"),
        )
        with pytest.raises(ValueError, match=r"^profile has no prescription at node \('x_a',\)$"):
            expected_utilities(_with_horizon(table1, 2), profile, BeliefState(0.1), "x_n")

    @pytest.mark.parametrize(
        "x_now, leaf, message",
        [
            ("x_z", ("a_b", "a_m", "r_b"), "unknown state label 'x_z'"),
            ("x_n", ("a_b", "a_z", "r_b"), "unknown action label 'a_z'"),
            ("x_n", ("a_b", "a_m", "r_z"), "unknown reaction label 'r_z'"),
        ],
        ids=["state", "action", "reaction"],
    )
    def test_unknown_label_named(self, table1, x_now, leaf, message):
        # the bad action or reaction sits at a depth-1 node, below the root
        a_b, a_m, r = leaf
        nodes = [(), ("x_n",), ("x_a",)]
        profile = StrategyTree(
            depth=2,
            sender={
                BENIGN: {n: a_b if n == ("x_a",) else "a_b" for n in nodes},
                MALICIOUS: {n: a_m if n == ("x_a",) else "a_m" for n in nodes},
            },
            receiver={n: r if n == ("x_a",) else "r_b" for n in nodes},
        )
        with pytest.raises(ValueError, match=message):
            expected_utilities(_with_horizon(table1, 2), profile, BeliefState(0.1), x_now)


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
    enum = _Enumeration(scenario.alphabets, scenario.horizon)
    nb, nr = len(enum.sender_branches), len(enum.receiver_branches)
    values = {}
    for ib, im, ir in itertools.product(range(nb), range(nb), range(nr)):
        values[(ib, im, ir)] = expected_utilities(scenario, enum.profile(ib, im, ir), belief, state)
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
    al = scenario.alphabets
    enum = _Enumeration(al, scenario.horizon)
    sender_trees = [enum.tree(branch, al.actions) for branch in enum.sender_branches]
    receiver_trees = [enum.tree(branch, al.reactions) for branch in enum.receiver_branches]
    profile = result.profile
    v_b, v_m, v_r = expected_utilities(scenario, profile, belief, state)
    for branch in sender_trees:
        alt = StrategyTree(
            depth=profile.depth,
            sender={BENIGN: branch, MALICIOUS: profile.sender[MALICIOUS]},
            receiver=profile.receiver,
        )
        assert expected_utilities(scenario, alt, belief, state)[0] <= v_b + 1e-12
    for branch in sender_trees:
        alt = StrategyTree(
            depth=profile.depth,
            sender={BENIGN: profile.sender[BENIGN], MALICIOUS: branch},
            receiver=profile.receiver,
        )
        assert expected_utilities(scenario, alt, belief, state)[1] <= v_m + 1e-12
    for branch in receiver_trees:
        alt = StrategyTree(depth=profile.depth, sender=profile.sender, receiver=branch)
        assert expected_utilities(scenario, alt, belief, state)[2] <= v_r + 1e-12


# (states, actions, reactions) label counts per horizon, 2-3 labels each,
# kept to windows of at most 2**21 joint profiles
_SHAPES = {
    horizon: [
        shape
        for shape in itertools.product((2, 3), repeat=3)
        if joint_profile_count(labelled_alphabets(*shape), horizon) <= 2**21
    ]
    for horizon in (1, 2, 3)
}


beliefs = st.one_of(st.sampled_from([0.0, 1.0, 1e-300]), st.floats(0.0, 1.0))


@st.composite
def random_windows(draw, integer=False):
    """A ``random_scenario`` with a (belief, state) point to solve it at."""
    horizon = draw(st.sampled_from(sorted(_SHAPES)))
    al = labelled_alphabets(*draw(st.sampled_from(_SHAPES[horizon])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scenario = random_scenario(al, horizon, rng, integer)
    return scenario, draw(beliefs), draw(st.sampled_from(al.states)), rng


def receiver_tensor(window, spreads):
    """The whole receiver tensor, assembled from ``_blocks``' reused buffer."""
    nb = window.shape[0]
    return np.concatenate([block.copy() for _, block in window._blocks(spreads, range(nb))])


def counting_blocks(blocks, read, record=len):
    """``blocks``, a ``_WindowScan._blocks``, appending ``record`` of each
    block's row numbers, by default their count, to ``read`` as the block is
    handed out."""

    def counted(*args):
        for rows, block in blocks(*args):
            read.append(record(rows))
            yield rows, block

    return counted


class TestValueMatricesAgainstOracle:
    """The solver's vectorised value path against ``expected_utilities``."""

    @settings(max_examples=60, deadline=None)
    @given(random_windows(), beliefs)
    def test_entries_equal_oracle(self, drawn, other_pi):
        scenario, pi, state, rng = drawn
        window = _WindowScan(scenario, state)
        enum = window.enum
        nb, nr = window.V_b.shape
        picks = [(0, 0, 0), (nb - 1, nb - 1, nr - 1)] + [
            (int(rng.integers(nb)), int(rng.integers(nb)), int(rng.integers(nr))) for _ in range(12)
        ]
        # one object, two beliefs: only the receiver pass is re-run, and both
        # paths add the same float terms in the same order: exact equality
        for belief in (pi, other_pi):
            spreads, choice, value, _, _ = window.scan(belief)
            V_r = receiver_tensor(window, spreads)
            assert value == V_r[choice]
            for ib, im, ir in picks:
                oracle = expected_utilities(
                    scenario, enum.profile(ib, im, ir), BeliefState(belief), state
                )
                assert (window.V_b[ib, ir], window.V_m[im, ir], V_r[ib, im, ir]) == oracle
        # the reused object has scanned two beliefs; a fresh one agrees at the
        # second in the receiver tensor's bits, the choice, its receiver value,
        # its regret and the zero count
        fresh_window = _WindowScan(scenario, state)
        fresh = fresh_window.scan(other_pi)
        reused = window.scan(other_pi)
        assert (
            receiver_tensor(window, reused[0]).tobytes()
            == receiver_tensor(fresh_window, fresh[0]).tobytes()
        )
        assert reused[1:] == fresh[1:]

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


class TestRegretStep:
    """``scan``'s choice, least regret and zero count against the whole
    regret tensor, built here from its definition."""

    @staticmethod
    def assert_scan_matches_definition(window, pi):
        spreads, choice, value, least, zeros = window.scan(pi)
        V_r = receiver_tensor(window, spreads)
        assert value == V_r[choice]
        gain_b = window.V_b.max(axis=0) - window.V_b
        gain_m = window.V_m.max(axis=0) - window.V_m
        responds = V_r >= V_r.max(axis=2, keepdims=True)
        regret = np.where(responds, np.maximum(gain_b[:, None, :], gain_m[None, :, :]), np.inf)
        assert choice == np.unravel_index(int(np.argmin(regret)), regret.shape)
        assert least == regret.min()
        assert zeros == np.count_nonzero(regret == 0.0)
        return choice, least, zeros

    @settings(max_examples=60, deadline=None)
    @given(
        random_windows() | random_windows(integer=True),
        st.sampled_from([8, equilibrium._BLOCK_BYTES]),
    )
    def test_random_windows(self, drawn, block_bytes):
        # integer utilities make rows share bounds, profiles share the least
        # regret and zero regrets come in numbers; blocks of one row make the
        # scan's stop and its tie rule between blocks act at every row
        scenario, pi, state, _ = drawn
        window = _WindowScan(scenario, state)
        with mock.patch.object(equilibrium, "_BLOCK_BYTES", block_bytes):
            self.assert_scan_matches_definition(window, pi)

    def test_choice_in_last_row_of_bound_order(self):
        # found by search: row 0's bound is 1/6 and every other row's is 0;
        # the least regret, 1/6, lies in row 0 alone, which is read last
        al = labelled_alphabets(2, 2, 2)
        scenario = random_scenario(al, 2, np.random.default_rng(177), integer=True)
        window = _WindowScan(scenario, "x0")
        assert window.row_order[-1] == 0
        read = []
        with mock.patch.object(equilibrium, "_BLOCK_BYTES", 8):  # one row per block
            with mock.patch.object(window, "_blocks", counting_blocks(window._blocks, read)):
                _, choice, _, least, _ = window.scan(0.25)
            self.assert_scan_matches_definition(window, 0.25)
        assert choice[0] == 0 and least == window.row_bounds[0] > 0.0
        assert read == [1] * window.shape[0]

    @pytest.mark.parametrize("block_bytes", [8, equilibrium._BLOCK_BYTES])
    def test_least_regret_tie_goes_to_first_row(self, block_bytes):
        # found by search: the least regret, 1, lies in row 0, of bound 3/4,
        # and in rows 1 and 3, of bound 0, which are read before it, in the
        # same block or in blocks of their own
        al = labelled_alphabets(2, 2, 2)
        scenario = random_scenario(al, 2, np.random.default_rng(16), integer=True)
        window = _WindowScan(scenario, "x0")
        assert window.row_bounds[[0, 1, 3]].tolist() == [0.75, 0.0, 0.0]
        with mock.patch.object(equilibrium, "_BLOCK_BYTES", block_bytes):
            choice, least, _ = self.assert_scan_matches_definition(window, 0.5)
        assert choice[0] == 0 and least == 1.0

    def test_horizon_three_scan_reads_few_rows(self, table1, table4, monkeypatch):
        # the benchmark's pinned horizon-3 points, exact and fallback: each
        # scan reads fewer than all 128 benign rows and solves as pinned
        golden = Path(__file__).resolve().parents[1] / "bench" / "golden.json"
        points = json.loads(golden.read_text())["solve_h3"]
        scenarios = {"table1": _with_horizon(table1, 3), "table4": _with_horizon(table4, 3)}
        blocks = _WindowScan._blocks
        for pinned in points.values():
            read = []
            monkeypatch.setattr(_WindowScan, "_blocks", counting_blocks(blocks, read))
            point = {k: pinned[k] for k in ("config", "state", "belief")}
            scenario = scenarios[point["config"]]
            try:
                result = solve_bne(scenario, BeliefState(point["belief"]), point["state"])
            except NoPureEquilibriumError as err:
                point |= {
                    "kind": "fallback",
                    "roots": list(err.fallback_profile.root_prescriptions()),
                    "fallback_regret": err.fallback_regret,
                }
            else:
                point |= {
                    "kind": "exact",
                    "roots": list(result.profile.root_prescriptions()),
                    "values": [
                        result.sender_value_benign,
                        result.sender_value_malicious,
                        result.receiver_value,
                    ],
                    "multiplicity": result.multiplicity,
                }
            assert point == pinned
            assert 0 < sum(read) < 128
        assert {p["kind"] for p in points.values()} == {"exact", "fallback"}

    def test_equal_receiver_utilities(self, table1):
        # every receiver value is 0, so every receiver branch responds
        from dataclasses import replace

        flat = dict.fromkeys(table1.utilities.receiver, 0.0)
        scenario = replace(
            _with_horizon(table1, 3),
            utilities=type(table1.utilities)(sender=table1.utilities.sender, receiver=flat),
        )
        window = _WindowScan(scenario, "x_n")
        assert not receiver_tensor(window, window.scan(0.3)[0]).any()
        self.assert_scan_matches_definition(window, 0.3)

    def test_equilibrium_multiplicity(self, table1):
        window = _WindowScan(table1, "x_n")
        assert self.assert_scan_matches_definition(window, 0.1)[2] == 16

    @staticmethod
    def traced_peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_horizon_three_solve_memory(self, table1):
        # a scan keeps no receiver tensor: its largest arrays are the path
        # spreads and one block of rows
        scenario = _with_horizon(table1, 3)
        receiver_bytes = 8 * joint_profile_count(scenario.alphabets, 3)
        peak = self.traced_peak(lambda: solve_bne(scenario, BeliefState(0.1), "x_n"))
        assert peak < receiver_bytes / 2

    def test_horizon_three_decide_memory(self, table4):
        # a fresh policy, which builds every state's window, a scan and its
        # proofs; the proofs check hundreds of thousands of close profiles, a
        # chunk at a time
        scenario = _with_horizon(table4, 3)
        receiver_bytes = 8 * joint_profile_count(scenario.alphabets, 3)

        def build_and_decide():
            policy = RecedingHorizonPolicy(scenario)
            policy.decide(0.36, "x_n")
            assert policy.counts["scans"] == 1

        assert self.traced_peak(build_and_decide) < 2 * receiver_bytes


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

    def test_narrow_region_inside_one_bracket_cell(self):
        # ("a0", "a1", "r1") holds on [0.1622480228173348, 0.16827916664225406),
        # strictly inside the 40-cell bracket cell [0.15, 0.175) whose ends
        # both play ("a1", "a1", "r0"): a table compiled from cell ends misses it
        scenario = random_scenario(labelled_alphabets(2, 2, 2), 2, np.random.default_rng(1))
        inside, outside = ("a0", "a1", "r1"), ("a1", "a1", "r0")
        lo, hi = 0.1622480228173348, 0.16827916664225406
        policy = RecedingHorizonPolicy(scenario)
        assert policy.decide(0.15, "x0") == outside
        assert policy.decide(0.165, "x0") == inside
        assert policy.decide(0.175, "x0") == outside
        # the edges sit between adjacent doubles, asked after the table has
        # grown around them and again of a fresh policy
        for policy in (policy, RecedingHorizonPolicy(scenario)):
            assert policy.decide(math.nextafter(lo, 0.0), "x0") == outside
            assert policy.decide(lo, "x0") == inside
            assert policy.decide(math.nextafter(hi, 0.0), "x0") == inside
            assert policy.decide(hi, "x0") == outside

    def test_batch_decisions_equal_fresh_solves(self, table1, table4):
        # one policy serves each whole serial batch; every (belief, state) it
        # was asked is scanned again by a fresh window of that state, and the
        # certified intervals leave at most 24 (table1) and 22 (table4)
        # beliefs to scan
        for scenario, max_scans in ((_with_horizon(table1, 2), 24), (_with_horizon(table4, 2), 22)):
            policy = RecedingHorizonPolicy(scenario)
            decisions = {}
            for i in range(100):
                traj = run_episode(scenario, derive_episode_seed(scenario.base_seed, i), policy)
                before = [traj.prior] + traj.beliefs[:-1]
                played = zip(traj.actions_benign, traj.actions_malicious, traj.reactions)
                for key, roots in zip(zip(before, traj.states), played):
                    assert decisions.setdefault(key, roots) == roots
            assert len(decisions) > 2000
            scan_roots = _fresh_scan_roots(scenario)
            for (pi, state), roots in decisions.items():
                assert scan_roots(pi, state) == roots
            assert policy.counts["scans"] <= max_scans

    @pytest.mark.parametrize(
        "config, horizon, episodes, counts, intervals",
        [
            ("table1", 2, 50, (20, 109, 40, 0), {"x_a": 3, "x_n": 2}),
            ("table4", 2, 50, (21, 134, 42, 0), {"x_a": 2, "x_n": 3}),
            ("table1", 3, 5, (29, 168, 56, 1), {"x_a": 6, "x_n": 6}),
            ("table4", 3, 3, (19, 133, 38, 0), {"x_a": 3, "x_n": 3}),
        ],
    )
    def test_pinned_counts(self, request, config, horizon, episodes, counts, intervals):
        # one policy over the episodes of a one-worker ``run_batch``; the
        # counts were recorded when every rung was proven by a walk of its
        # own, so a ladder proven in groups tries and accepts the same rungs
        scenario = _with_horizon(request.getfixturevalue(config), horizon)
        policy = RecedingHorizonPolicy(scenario)
        for i in range(episodes):
            run_episode(scenario, derive_episode_seed(scenario.base_seed, i), policy)
        keys = ("scans", "proofs_tried", "proofs_accepted", "uncovered")
        assert policy.counts == dict(zip(keys, counts))
        assert {s: len(t.edges) // 2 for s, t in policy._regions.items()} == intervals

    def test_debug_logging_leaves_trajectories_unchanged(self, table1, caplog):
        scenario = _with_horizon(table1, 2)
        _, quiet = run_batch(scenario, 5, scenario.base_seed)
        with caplog.at_level(logging.DEBUG, logger="siggame.equilibrium"):
            _, logged = run_batch(scenario, 5, scenario.base_seed)
        assert logged == quiet
        stored = [r.getMessage() for r in caplog.records if r.name == "siggame.equilibrium"]
        assert stored and all("plays" in line and "least regret" in line for line in stored)

    def test_counters(self, table1):
        policy = RecedingHorizonPolicy(table1)
        assert set(policy.counts.values()) == {0}
        policy.decide(0.1, "x_n")
        policy.decide(0.1, "x_n")
        for pi in (0.0, 1.0, 0.0, 1.0):
            policy.decide(pi, "x_n")
        counts = policy.counts
        assert counts["scans"] == 3  # beliefs 0 and 1 are stored after one scan each
        assert counts["uncovered"] == 0
        assert 1 <= counts["proofs_accepted"] <= counts["proofs_tried"]

    def test_uncovered_belief_stored_alone(self, table1):
        # the receiver is within the margin of indifferent at 0.2 in x_n, so
        # no proof is tried there, and the scan's answer is stored as a point
        policy = RecedingHorizonPolicy(table1)
        first = policy.decide(0.2, "x_n")
        assert [policy.decide(0.2, "x_n") for _ in range(3)] == [first] * 3
        assert policy.counts["scans"] == policy.counts["uncovered"] == 1
        assert policy._regions["x_n"].edges == [0.2, math.nextafter(0.2, 1.0)]

    def test_uncovered_beliefs_past_the_cap_are_scanned_each_time(self, table1, monkeypatch):
        monkeypatch.setattr(equilibrium, "MAX_INTERVALS", 2)
        policy = RecedingHorizonPolicy(table1)
        for pi in (0.2, 0.5, 0.2000000000000002, 0.2000000000000002):
            policy.decide(pi, "x_n")
        assert policy.counts["scans"] == policy.counts["uncovered"] == 4
        table = policy._regions["x_n"]
        assert table.edges == [0.2, math.nextafter(0.2, 1.0), 0.5, math.nextafter(0.5, 1.0)]
        assert policy.decide(0.2000000000000002, "x_n") == _fresh_scan_roots(table1)(
            0.2000000000000002, "x_n"
        )

    def test_unknown_state_label_raises(self, table1):
        policy = RecedingHorizonPolicy(table1)
        with pytest.raises(ValueError, match="^unknown state label 'x_q'$"):
            policy.decide(0.1, "x_q")
        assert policy.counts["scans"] == 0

    def test_oversized_window_refused_by_the_constructor(self, table1):
        with pytest.raises(EnumerationLimitError, match="exceed the exhaustive-scan limit"):
            RecedingHorizonPolicy(_with_horizon(table1, 13))

    def test_every_state_has_a_window_from_the_start(self, table1):
        policy = RecedingHorizonPolicy(table1)
        assert list(policy._regions) == list(table1.alphabets.states)
        assert all(table.edges == [] for table in policy._regions.values())

    @pytest.mark.parametrize("pi", [math.nan, 1.5, -0.25, math.inf])
    def test_belief_outside_unit_interval_raises(self, table1, pi):
        policy = RecedingHorizonPolicy(table1)
        with pytest.raises(ValueError, match=r"belief .* in state 'x_n' is not in \[0, 1\]"):
            policy.decide(pi, "x_n")
        assert policy.counts["scans"] == 0
        assert policy._regions["x_n"].edges == []

    def test_reaction_indifferent_state_is_covered(self, scenario_builder):
        # the kernel and the receiver's utility in x_a ignore the reaction, so
        # reaction sequences that differ only there tie exactly and every
        # scanned belief is still proven inside an interval
        policy = RecedingHorizonPolicy(_reaction_indifferent(scenario_builder))
        for pi in np.random.default_rng(3).uniform(size=100):
            for state in ("x_n", "x_a"):
                policy.decide(float(pi), state)
        assert policy.counts["uncovered"] == 0
        assert policy.counts["scans"] <= 40


def _reaction_indifferent(build, horizon=2):
    """``table1``'s kernel and sender utilities; the receiver's utilities in
    ``x_a`` do not depend on the reaction."""
    rows = {("x_n", "a_b"): (0.9, 0.1), ("x_n", "a_m"): (0.8, 0.2)}
    rows |= {("x_a", "a_b"): (0.8, 0.2), ("x_a", "a_m"): (0.7, 0.3)}

    def sender(t, x, a, r):
        if t == BENIGN:
            return 1.0 if x == "x_n" else 0.0
        return 0.0 if r == "r_m" else (1.0 if x == "x_n" else 2.0)

    def receiver(t, x, a, r):
        if x == "x_a":
            return 0.5 if t == BENIGN else 0.25
        return float((t == BENIGN) == (r == "r_b"))

    return build(rows, sender, receiver, horizon=horizon)


def _fresh_scan_roots(scenario):
    """Root labels of ``_WindowScan.scan`` on windows built apart from any
    policy, one per state."""
    windows = {}

    def roots(pi, state):
        if state not in windows:
            windows[state] = _WindowScan(scenario, state)
        _, choice, _, _, _ = windows[state].scan(pi)
        return windows[state].enum.profile(*choice).root_prescriptions()

    return roots


# horizon-1 and -2 shapes of at most 2**15 joint profiles, so that a fresh
# scan per queried belief stays cheap
_POLICY_SHAPES = {
    horizon: [
        shape
        for shape in _SHAPES[horizon]
        if joint_profile_count(labelled_alphabets(*shape), horizon) <= 2**15
    ]
    for horizon in (1, 2)
}


@st.composite
def policy_queries(draw):
    """A ``random_scenario`` at horizon 1 or 2 and beliefs to ask its policy:
    uniform draws, tight clusters and the endpoints."""
    horizon = draw(st.sampled_from(sorted(_POLICY_SHAPES)))
    al = labelled_alphabets(*draw(st.sampled_from(_POLICY_SHAPES[horizon])))
    scenario = random_scenario(al, horizon, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    uniform = draw(st.lists(st.floats(0.0, 1.0), max_size=40))
    clusters = []
    for centre, spread in draw(
        st.lists(st.tuples(st.floats(0.0, 1.0), st.sampled_from([1e-3, 1e-7, 1e-13])), max_size=3)
    ):
        offsets = draw(st.lists(st.integers(-50, 50), min_size=1, max_size=15))
        clusters += [min(1.0, max(0.0, centre + spread * k)) for k in offsets]
    return scenario, uniform + clusters + [0.0, 1.0, 1e-300]


class TestRegionTable:
    def test_gaps_lookups_and_merges(self):
        def up(x):
            return math.nextafter(x, 1.0)

        def down(x):
            return math.nextafter(x, 0.0)

        table = _RegionTable(window=None)
        a, b = ("a0", "a0", "r0"), ("a1", "a1", "r0")
        assert table.gap(0.5) == (math.ulp(0.0), down(1.0))
        table.insert(0.2, 0.3, (a, 0.0))
        assert table.gap(0.1) == (math.ulp(0.0), down(0.2))
        assert table.gap(0.5) == (up(0.3), down(1.0))
        table.insert(up(0.3), 0.4, (a, 0.0))  # touches with equal roots and regret: merged
        table.insert(0.1, down(0.2), (b, 0.0))  # other roots: kept apart
        table.insert(up(0.4), 0.5, (a, 0.5))  # other regret: kept apart
        assert table.edges == [0.1, 0.2, 0.2, up(0.4), up(0.4), up(0.5)]
        regrets = [entry and entry[1] for entry in table.entries]
        assert regrets == [None, 0.0, None, 0.0, None, 0.5, None]
        lookups = [down(0.1), 0.1, down(0.2), 0.2, 0.4, up(0.4), 0.5, up(0.5)]
        expected = [None, b, b, a, a, a, a, None]
        entries = [table.entries[bisect_right(table.edges, pi)] for pi in lookups]
        assert [entry and entry[0] for entry in entries] == expected

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_random_inserts_match_an_interval_list(self, data):
        # Sorted cuts, some 1-2 ulps apart, split [0, 1] into segments; each
        # segment is a gap or an interval [cut, next cut) with an entry from a
        # small set, so points and touching intervals with equal entries occur.
        cuts = set()
        for x, steps in data.draw(
            st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(0, 2)), min_size=1, max_size=8)
        ):
            for _ in range(steps + 1):
                cuts.add(x)
                x = math.nextafter(x, 2.0)
        cuts = sorted(cuts)
        choices = [None] + [(roots, regret) for roots in ("a", "b") for regret in (0.0, 0.5)]
        slots = data.draw(
            st.lists(st.sampled_from(choices), min_size=len(cuts) - 1, max_size=len(cuts) - 1)
        )
        covered = [(lo, end, e) for lo, end, e in zip(cuts, cuts[1:], slots) if e is not None]

        table = _RegionTable(window=None)
        for lo, end, entry in data.draw(st.permutations(covered)):
            table.insert(lo, math.nextafter(end, 0.0), entry)

        # touching intervals merge exactly when their entries are equal
        merged = []
        for lo, end, entry in covered:
            if merged and merged[-1][1] == lo and merged[-1][2] == entry:
                merged[-1][1] = end
            else:
                merged.append([lo, end, entry])
        assert table.edges == [edge for lo, end, _ in merged for edge in (lo, end)]
        assert table.entries == [None] + [slot for *_, e in merged for slot in (e, None)]
        assert all(lo < end for lo, end, _ in merged)
        assert all(a[1] <= b[0] for a, b in zip(merged, merged[1:]))

        def brute(pi):
            return next((e for lo, end, e in covered if lo <= pi < end), None)

        probes = {0.5}
        for edge in table.edges:
            probes |= {math.nextafter(edge, 0.0), edge, math.nextafter(edge, 2.0)}
        for a, b in zip(table.edges, table.edges[1:]):
            probes.add((a + b) / 2)
        for pi in sorted(probes):
            entry = table.entries[bisect_right(table.edges, pi)]
            assert entry == brute(pi)
            if entry is None and 0.0 < pi < 1.0:
                # the ends of the uncovered stretch of (0, 1) around pi
                lo = max([end for _, end, _ in covered if end <= pi], default=math.ulp(0.0))
                hi = min([lo for lo, _, _ in covered if lo > pi], default=1.0)
                assert table.gap(pi) == (lo, math.nextafter(hi, 0.0))


def _ladder(pi, end, rungs):
    """At most ``rungs`` ends from ``end`` back toward ``pi``, the reach
    halved at each while it is at least ``MIN_REACH``, as
    ``RecedingHorizonPolicy._certify`` builds one side's ladder."""
    reach, ends = abs(end - pi), []
    while reach >= equilibrium.MIN_REACH and len(ends) < rungs:
        ends.append(max(end, pi - reach) if end < pi else min(end, pi + reach))
        reach /= 2.0
    return ends


def _receiver_terms(window, pi):
    """Each grid cell's receiver term at belief ``pi``, summed over
    ``_walk`` as ``_WindowScan.scan`` sums it."""
    r_b_sum = r_m_sum = 0.0
    for g_b, g_m, beta in window._walk(pi):
        r_b_sum = r_b_sum + g_b * (1.0 - beta)
        r_m_sum = r_m_sum + g_m * beta
    return (window.w_b * r_b_sum + window.w_m * r_m_sum) / window.horizon


def _ahead_reference(window, ib, im, ir):
    """The profiles ahead of (ib, im, ir), as a mask of the window's shape,
    read off the whole tensor of scan keys: the larger sender gain, then the
    flat index."""
    nb, _, nr = window.shape
    key = np.maximum(window.gain_b[:, None], window.gain_m).ravel()
    c = (ib * nb + im) * nr + ir
    ahead = key < key[c]
    ahead[:c] |= key[:c] == key[c]
    return ahead.reshape(window.shape)


class TestCertifiedIntervals:
    @settings(max_examples=40, deadline=None)
    @given(random_windows(), beliefs, st.lists(st.floats(0.0, 1.0), max_size=6))
    def test_term_bounds_bracket_scan_terms(self, drawn, other_pi, fractions):
        scenario, pi, state, _ = drawn
        window = _WindowScan(scenario, state)
        ends = _ladder(pi, other_pi, 6)
        lower, upper = window._term_bounds(pi, ends)
        # the proofs need the bounds good to within their margin, on every
        # rung: the guarded Bayes step is monotone also at a zero likelihood
        margin = window._margin
        for end, rung_lower, rung_upper in zip(ends, lower, upper):
            lo, hi = sorted((pi, end))
            for belief in [lo, hi] + [min(hi, lo + f * (hi - lo)) for f in fractions]:
                terms = _receiver_terms(window, belief)
                assert np.all(rung_lower - margin <= terms)
                assert np.all(terms <= rung_upper + margin)

    @settings(max_examples=40, deadline=None)
    @given(random_windows(), st.lists(beliefs, min_size=1, max_size=9))
    def test_grouped_ends_keep_their_bounds(self, drawn, ends):
        # one walk from pi and many ends, on both sides of it, gives each end
        # the bytes of a walk from pi and that end alone
        scenario, pi, state, _ = drawn
        window = _WindowScan(scenario, state)
        lower, upper = window._term_bounds(pi, ends)
        assert lower.shape == upper.shape == (len(ends), *window.dead.shape)
        for end, rung_lower, rung_upper in zip(ends, lower, upper):
            alone_lower, alone_upper = window._term_bounds(pi, [end])
            assert rung_lower.tobytes() == alone_lower[0].tobytes()
            assert rung_upper.tobytes() == alone_upper[0].tobytes()

    @settings(max_examples=40, deadline=None)
    @given(random_windows(), beliefs)
    def test_ladder_takes_its_first_rung_proven_alone(self, drawn, other_pi):
        # the certifier proves a ladder a group of rungs at a time; the rung
        # it takes is the first that a ladder of that rung alone proves
        scenario, pi, state, _ = drawn
        window = _WindowScan(scenario, state)
        spreads, choice, _, _, _ = window.scan(pi)
        first_proven = window.certifier(spreads, choice, pi)
        if first_proven is None:
            return  # a value difference is within the margin at pi: no proof is tried
        ladder = _ladder(pi, other_pi, 3 * equilibrium._RUNGS_PER_WALK)
        alone = [first_proven([end]) == 0 for end in ladder]
        assert first_proven(ladder) == (alone.index(True) if any(alone) else None)

    @settings(max_examples=40, deadline=None)
    @given(random_windows())
    def test_cells_without_difference_have_equal_terms(self, drawn):
        # ``_cells`` calls two cells tied when their inputs are equal or both
        # are dead; the certifier then adds exactly 0, which holds at any belief
        scenario, pi, state, rng = drawn
        window = _WindowScan(scenario, state)
        nb, _, nr = window.shape
        window.scan(pi)
        assert "_differs" not in vars(window)  # a scan builds no tie table
        ib, im = rng.integers(nb, size=64), rng.integers(nb, size=64)
        x, y, differ = window._cells(ib, im, rng.integers(nr, size=64), rng.integers(nr, size=64))
        x, y = x[~differ], y[~differ]
        for belief in (0.0, 1.0, pi):
            terms = _receiver_terms(window, belief)
            assert np.all(terms[window.dead] == 0.0)  # zeros of either sign
            assert np.all(terms.ravel()[x] == terms.ravel()[y])

    @settings(max_examples=40, deadline=None)
    @given(random_windows())
    def test_ahead_follows_the_scan_key(self, drawn):
        # the mask, scattered over every row, is the reference; its rows are
        # those that hold a profile ahead, and the choice's own
        scenario, pi, state, rng = drawn
        window = _WindowScan(scenario, state)
        nb, _, nr = window.shape
        picks = [window.scan(pi)[1]] + [
            (int(rng.integers(nb)), int(rng.integers(nb)), int(rng.integers(nr))) for _ in range(8)
        ]
        for ib, im, ir in picks:
            reference = _ahead_reference(window, ib, im, ir)
            rows, mask = window._ahead(ib, im, ir)
            assert mask.shape == (len(rows), nb, nr)
            held = set(np.flatnonzero(reference.any(axis=(1, 2))).tolist())
            assert rows.tolist() == sorted(held | {ib})
            full = np.zeros(window.shape, bool)
            full[rows] = mask
            assert np.array_equal(full, reference)

    @settings(max_examples=40, deadline=None)
    @given(random_windows())
    def test_certifier_refills_only_rows_ahead(self, drawn):
        # the certifier fills again, in ascending order, the rows that hold a
        # profile ahead of the choice, and the choice's own: no other row
        scenario, pi, state, _ = drawn
        window = _WindowScan(scenario, state)
        spreads, choice, _, _, _ = window.scan(pi)
        read = []
        refills = counting_blocks(window._blocks, read, np.ndarray.tolist)
        with mock.patch.object(window, "_blocks", refills):
            window.certifier(spreads, choice, pi)
        reference = _ahead_reference(window, *choice)
        held = set(np.flatnonzero(reference.any(axis=(1, 2))).tolist())
        assert [row for rows in read for row in rows] == sorted(held | {choice[0]})

    def test_distinct_cells_with_equal_inputs_tie(self, scenario_builder):
        # two reaction sequences that differ only in x_a give bit-equal terms,
        # and ``_cells`` reports no difference for them
        scenario = _reaction_indifferent(scenario_builder)
        window = _WindowScan(scenario, "x_n")
        nb, _, nr = window.shape
        ib, im, r_x, r_y = (a.ravel() for a in np.indices((nb, nb, nr, nr)))
        x, y, differ = window._cells(ib, im, r_x, r_y)
        tied = (x != y) & ~differ
        assert tied.any()
        for belief in (0.0, 0.3, 1.0):
            terms = _receiver_terms(window, belief).ravel()
            assert np.all(terms[x[tied]] == terms[y[tied]])

    @settings(max_examples=40, deadline=None)
    @given(random_windows())
    def test_walk_keeps_beliefs_zero_and_one(self, drawn):
        # Bayes' rule returns both ends exactly, so the walk needs no mask for them
        scenario, _, state, _ = drawn
        window = _WindowScan(scenario, state)
        for _, _, beta in window._walk(np.array([0.0, 1.0])[:, None, None, None, None]):
            zero, one = np.broadcast_to(beta, (2, *window.dead.shape))
            assert np.all(zero == 0.0) and not np.signbit(zero).any()
            assert np.all(one == 1.0)

    @settings(max_examples=40, deadline=None)
    @given(policy_queries(), st.integers(0, 2**32 - 1))
    def test_answers_equal_fresh_scans(self, drawn, seed):
        scenario, queried = drawn
        policy = RecedingHorizonPolicy(scenario)
        scan_roots = _fresh_scan_roots(scenario)
        states = scenario.alphabets.states
        for pi in queried:
            for state in states:
                assert policy.decide(pi, state) == scan_roots(pi, state)
        # inside every stored interval: the doubles 1 to 8 ulps inside each
        # end and three random points, all answered without a scan
        scans = policy.counts["scans"]
        rng = np.random.default_rng(seed)
        for state, table in policy._regions.items():
            edges = list(table.edges)
            for k in range(0, len(edges), 2):
                lo, hi = edges[k], math.nextafter(edges[k + 1], 0.0)
                inside = rng.uniform(lo, hi, size=3).tolist()
                up, down = lo, hi
                for _ in range(8):
                    up, down = math.nextafter(up, 1.0), math.nextafter(down, 0.0)
                    inside += [up, down]
                for pi in inside:
                    if lo <= pi <= hi:
                        assert policy.decide(pi, state) == scan_roots(pi, state)
        assert policy.counts["scans"] == scans
        # the doubles on both sides of every stored interval end
        for state, table in policy._regions.items():
            for edge in list(table.edges):
                # belief 1's interval ends one double above 1, which is no belief
                for pi in (math.nextafter(edge, 0.0), min(edge, 1.0)):
                    assert policy.decide(pi, state) == scan_roots(pi, state)
        # beliefs 0 and 1, queried above, were stored after one scan each
        scans = policy.counts["scans"]
        for state in states:
            for pi in (0.0, 1.0):
                assert policy.decide(pi, state) == scan_roots(pi, state)
        assert policy.counts["scans"] == scans

    def test_zero_likelihood_cell_is_proven_from_the_lowest_beliefs(self):
        # a live, moving cell of this window has a zero likelihood, so its
        # mixture at 1e-300 is below MIN_MIXTURE; the guarded Bayes step is
        # still monotone, and the first rung, up to the end of the stretch,
        # is proven
        scenario = random_scenario(labelled_alphabets(2, 2, 2), 2, np.random.default_rng(2))
        policy = RecedingHorizonPolicy(scenario)
        roots = policy.decide(1e-300, "x0")
        keys = ("scans", "proofs_tried", "proofs_accepted", "uncovered")
        assert policy.counts == dict(zip(keys, (1, 1, 1, 0)))
        assert policy._regions["x0"].edges == [1e-300, 1.0]
        inside = [1e-300, math.nextafter(1e-300, 1.0), 1e-150, 0.5, math.nextafter(1.0, 0.0)]
        inside += (10.0 ** np.random.default_rng(0).uniform(-300.0, 0.0, size=30)).tolist()
        scan_roots = _fresh_scan_roots(scenario)
        for pi in inside:
            assert policy.decide(pi, "x0") == roots == scan_roots(pi, "x0")
        assert policy.counts["scans"] == 1

    @pytest.mark.parametrize("small, infinite", [(1e-301, True), (2e-300, True), (3e-300, False)])
    def test_likelihood_near_the_mixture_guard_proves_nothing(
        self, scenario_builder, small, infinite
    ):
        # at x_n the two actions move the belief on the path back to x_n by
        # the likelihoods (small, 1e-295); a positive one at most
        # 2 * MIN_MIXTURE can reorder two beliefs, so no bound is trusted
        rows = {("x_n", "a_b"): (small, 1.0 - small), ("x_n", "a_m"): (1e-295, 1.0 - 1e-295)}
        rows |= {("x_a", "a_b"): (0.5, 0.5), ("x_a", "a_m"): (0.4, 0.6)}

        def sender(t, x, a, r):
            return float(a == "a_m") + float(r == "r_b")

        def receiver(t, x, a, r):
            return float((t == BENIGN) == (r == "r_b"))

        scenario = scenario_builder(rows, sender, receiver, horizon=2)
        window = _WindowScan(scenario, "x_n")
        assert (window._margin == math.inf) == infinite
        policy = RecedingHorizonPolicy(scenario)
        scan_roots = _fresh_scan_roots(scenario)
        for pi in (0.3, 0.7):
            assert policy.decide(pi, "x_n") == scan_roots(pi, "x_n")
        if infinite:
            assert policy.counts["proofs_accepted"] == 0

    def test_horizon_three_intervals_equal_fresh_scans(self, table1, table4):
        # a window has 2**21 joint profiles at horizon 3; every stored
        # interval's two ends and midpoint are scanned again by a fresh window
        for scenario in (_with_horizon(table1, 3), _with_horizon(table4, 3)):
            policy = RecedingHorizonPolicy(scenario)
            for state in scenario.alphabets.states:
                for pi in (0.1, 0.3, 0.7):
                    policy.decide(pi, state)
            scan_roots = _fresh_scan_roots(scenario)
            profiles = joint_profile_count(scenario.alphabets, scenario.horizon)
            checked = 0
            for state, table in policy._regions.items():
                edges = table.edges
                for k in range(0, len(edges), 2):
                    lo, hi = edges[k], math.nextafter(edges[k + 1], 0.0)
                    for pi in (lo, (lo + hi) / 2, hi):
                        assert scan_roots(pi, state) == table.entries[k + 1][0]
                        checked += 1
                # a window keeps nothing with one entry per joint profile
                assert all(a.size < profiles for a in _arrays(vars(table.window)))
            assert checked >= 12


def _arrays(node):
    """Every numpy array held in ``node``, through dicts, lists and tuples."""
    if isinstance(node, np.ndarray):
        yield node
    elif isinstance(node, dict):
        for value in node.values():
            yield from _arrays(value)
    elif isinstance(node, (list, tuple)):
        for value in node:
            yield from _arrays(value)
