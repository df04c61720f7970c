import math
import re
from bisect import bisect_right
from dataclasses import replace

import numpy as np
import pytest

from siggame.beliefs import BeliefState
from siggame.equilibrium import NoPureEquilibriumError, expected_utilities, solve_bne
from siggame.model import (
    Alphabets,
    Scenario,
    TransitionKernel,
    UtilityTables,
    cdf_cuts,
    check_distinguishability,
    sample_transition,
    validate_kernel,
)


def binary_alphabets():
    return Alphabets(states=("x_n", "x_a"), actions=("a_b", "a_m"), reactions=("r_b", "r_m"))


def reaction_independent_kernel(rows):
    al = binary_alphabets()
    table = {}
    for (x, a), vec in rows.items():
        for r in al.reactions:
            table[(x, a, r)] = tuple(vec)
    return TransitionKernel(alphabets=al, table=table)


TABLE1_ROWS = {
    ("x_n", "a_b"): (0.9, 0.1),
    ("x_a", "a_b"): (0.8, 0.2),
    ("x_n", "a_m"): (0.8, 0.2),
    ("x_a", "a_m"): (0.7, 0.3),
}

TABLE4_ROWS = {
    ("x_n", "a_b"): (0.9, 0.1),
    ("x_a", "a_b"): (0.8, 0.2),
    ("x_n", "a_m"): (0.85, 0.15),
    ("x_a", "a_m"): (0.79, 0.21),
}


class TestAlphabets:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            Alphabets(states=("x", "x"), actions=("a",), reactions=("r",))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            Alphabets(states=(), actions=("a",), reactions=("r",))

    def test_type_set_is_fixed(self):
        with pytest.raises(TypeError, match="types"):
            Alphabets(
                states=("x",), actions=("a",), reactions=("r",), types=("good", "bad")
            )

    def test_label_indexing(self):
        al = binary_alphabets()
        assert al.state_index("x_a") == 1
        with pytest.raises(ValueError, match="unknown state"):
            al.state_index("x_q")


def kernel_defects(kernel):
    """The defects that validate_kernel lists in its one error."""
    with pytest.raises(ValueError, match="^kernel validation failed: ") as info:
        validate_kernel(kernel)
    return str(info.value).removeprefix("kernel validation failed: ").split("; ")


class TestValidateKernel:
    def test_table1_passes(self):
        assert validate_kernel(reaction_independent_kernel(TABLE1_ROWS)) is None

    def test_row_sum_violation(self):
        rows = dict(TABLE1_ROWS)
        rows[("x_n", "a_b")] = (0.5, 0.6)
        defects = kernel_defects(reaction_independent_kernel(rows))
        assert "row ('x_n', 'a_b', 'r_b') sums to 1.1, not 1" in defects

    def test_negative_entry(self):
        # NaN compares False both ways, so it must fail both checks; a row
        # holding both infinities sums to NaN and must be reported, not raise
        for row, kinds in (
            ((-0.1, 1.1), {"not >= 0"}),
            ((float("nan"), 1.0), {"not >= 0", "sums to"}),
            ((float("inf"), float("-inf")), {"not >= 0", "sums to"}),
        ):
            rows = dict(TABLE1_ROWS)
            rows[("x_a", "a_m")] = row
            defects = kernel_defects(reaction_independent_kernel(rows))
            assert {k for k in ("not >= 0", "sums to") for d in defects if k in d} == kinds
            assert all(d.startswith("row ('x_a', 'a_m', ") for d in defects)

    def test_missing_row_is_structural(self):
        al = binary_alphabets()
        table = {("x_n", "a_b", "r_b"): (0.9, 0.1)}
        defects = kernel_defects(TransitionKernel(alphabets=al, table=table))
        assert len(defects) == 7
        assert all(d.startswith("no row for ") for d in defects)

    def test_wrong_length_is_structural(self):
        rows = dict(TABLE1_ROWS)
        rows[("x_n", "a_b")] = (1.0,)
        defects = kernel_defects(reaction_independent_kernel(rows))
        assert "row ('x_n', 'a_b', 'r_b') has 1 entries, expected 2" in defects

    def test_row_sum_tolerance(self):
        # 1e-10 below unity is inside the tolerance; 1e-8 is not.
        rows = dict(TABLE1_ROWS)
        rows[("x_n", "a_b")] = (0.9, 0.1 - 1e-10)
        validate_kernel(reaction_independent_kernel(rows))
        rows[("x_n", "a_b")] = (0.9, 0.1 - 1e-8)
        with pytest.raises(ValueError, match="sums to"):
            validate_kernel(reaction_independent_kernel(rows))


NB = ("x_n", "a_b", "r_b")


def _edit_row(key, row):
    def edit(fields):
        table = dict(fields["kernel"].table)
        if row is None:
            del table[key]
        else:
            table[key] = row
        fields["kernel"] = TransitionKernel(alphabets=fields["kernel"].alphabets, table=table)

    return edit


def _edit_utility(name, key, value):
    def edit(fields):
        tables = {"sender": fields["utilities"].sender, "receiver": fields["utilities"].receiver}
        tables[name] = {**tables[name], key: value}
        fields["utilities"] = UtilityTables(**tables)

    return edit


class TestScenarioConstruction:
    @pytest.mark.parametrize(
        "edit, message",
        [
            (_edit_row(NB, (math.nan, 1.0)), f"row {NB} has entry nan"),
            (_edit_row(NB, (1.0,)), f"row {NB} has 1 entries"),
            (_edit_row(("x_q", "a_b", "r_b"), (0.9, 0.1)), "row ('x_q', 'a_b', 'r_b') uses labels"),
            (_edit_row(("x_a", "a_m", "r_m"), None), "no row for ('x_a', 'a_m', 'r_m')"),
            # _WindowScan takes its horizon from a Scenario and relies on this
            (lambda fields: fields.update(horizon=0), "horizon must be >= 1, got 0"),
            (lambda fields: fields.update(initial_state="x_q"), "initial state 'x_q' not in"),
            (lambda fields: fields.update(prior=1.5), "prior must lie in [0, 1], got 1.5"),
            (lambda fields: fields.update(true_type="neutral"), "true type must be one of"),
            (lambda fields: fields.update(episode_length=0), "episode length must be >= 1, got 0"),
            (lambda fields: fields.update(base_seed=2**64), "base seed must fit in an unsigned"),
            (
                _edit_utility("sender", ("malicious", *NB), math.nan),
                f"sender utility not finite at ('malicious', {NB[0]!r}",
            ),
            (
                _edit_utility("receiver", ("benign", *NB), math.inf),
                "receiver utility not finite at ('benign', ",
            ),
            (
                _edit_utility("sender", ("malicious", "x_n", "a_m", "r_typo"), 99.0),
                "sender utility ('malicious', 'x_n', 'a_m', 'r_typo') uses labels outside the "
                "alphabets",
            ),
        ],
        ids=[
            "nan-entry",
            "short-row",
            "unknown-state",
            "missing-row",
            "horizon-0",
            "initial-state",
            "prior",
            "true-type",
            "episode-length-0",
            "base-seed",
            "sender-utility-nan",
            "receiver-utility-inf",
            "utility-outside-alphabets",
        ],
    )
    def test_defect_raises_naming_it(self, table1, edit, message):
        fields = dict(vars(table1))
        edit(fields)
        with pytest.raises(ValueError, match=re.escape(message)):
            Scenario(**fields)

    def test_reordered_kernel_is_a_consistent_scenario(self, table1):
        al = table1.alphabets
        swapped = Alphabets(states=al.states[::-1], actions=al.actions, reactions=al.reactions)
        table = {
            key: tuple(row[al.state_index(x)] for x in swapped.states)
            for key, row in table1.kernel.table.items()
        }
        scenario = replace(table1, kernel=TransitionKernel(alphabets=swapped, table=table))
        assert scenario.alphabets is scenario.kernel.alphabets
        assert scenario.alphabets.states == ("x_a", "x_n")
        assert "alphabets" not in Scenario.__dataclass_fields__
        for pi in (0.1, 0.5, 0.9):
            belief = BeliefState(pi)
            result, original = solve_bne(scenario, belief, "x_n"), solve_bne(table1, belief, "x_n")
            values = (result.sender_value_benign, result.sender_value_malicious, result.receiver_value)
            assert values == expected_utilities(scenario, result.profile, belief, "x_n")
            assert result.profile.root_prescriptions() == original.profile.root_prescriptions()
            assert result.multiplicity == original.multiplicity
        # at 0.3 neither order has a pure equilibrium, and both fall back alike
        errors = []
        for sc in (scenario, table1):
            with pytest.raises(NoPureEquilibriumError) as caught:
                solve_bne(sc, BeliefState(0.3), "x_n")
            errors.append(caught.value)
        assert errors[0].fallback_regret == errors[1].fallback_regret
        assert len({err.fallback_profile.root_prescriptions() for err in errors}) == 1


class TestDistinguishability:
    def test_table1_distinguishable(self):
        ok, witnesses = check_distinguishability(reaction_independent_kernel(TABLE1_ROWS))
        assert ok
        assert witnesses == []

    def test_table4_distinguishable(self):
        ok, _ = check_distinguishability(reaction_independent_kernel(TABLE4_ROWS))
        assert ok

    def test_identical_rows_yield_full_witness_list(self):
        rows = {
            ("x_n", "a_b"): (0.9, 0.1),
            ("x_a", "a_b"): (0.8, 0.2),
            ("x_n", "a_m"): (0.9, 0.1),
            ("x_a", "a_m"): (0.8, 0.2),
        }
        ok, witnesses = check_distinguishability(reaction_independent_kernel(rows))
        assert not ok
        # every (state, reaction) pair is a witness for the single action pair
        assert set(witnesses) == {
            (x, r, "a_b", "a_m") for x in ("x_n", "x_a") for r in ("r_b", "r_m")
        }

    def test_independent_of_action_label_order(self):
        al = Alphabets(states=("x_n", "x_a"), actions=("a_m", "a_b"), reactions=("r_b", "r_m"))
        table = {}
        for (x, a), vec in TABLE1_ROWS.items():
            for r in al.reactions:
                table[(x, a, r)] = vec
        ok_swapped, _ = check_distinguishability(TransitionKernel(alphabets=al, table=table))
        ok_plain, _ = check_distinguishability(reaction_independent_kernel(TABLE1_ROWS))
        assert ok_swapped == ok_plain


class TestSampleTransition:
    def test_degenerate_row(self):
        rows = dict(TABLE1_ROWS)
        rows[("x_n", "a_b")] = (1.0, 0.0)
        kernel = reaction_independent_kernel(rows)
        rng = np.random.default_rng(0)
        assert all(
            sample_transition(kernel, "x_n", "a_b", "r_b", rng) == "x_n" for _ in range(200)
        )

    def test_same_generator_state_same_draw(self):
        kernel = reaction_independent_kernel(TABLE1_ROWS)
        a = [sample_transition(kernel, "x_n", "a_b", "r_b", np.random.default_rng(42))
             for _ in range(5)]
        assert len(set(a)) == 1

    def test_empirical_frequency_matches_row(self):
        kernel = reaction_independent_kernel(TABLE1_ROWS)
        rng = np.random.default_rng(123)
        n = 10**5
        hits = sum(
            sample_transition(kernel, "x_n", "a_b", "r_b", rng) == "x_a" for _ in range(n)
        )
        # three-sigma band around p = 0.1 is ~0.0028 wide; 0.01 is generous
        assert abs(hits / n - 0.1) < 0.01

    def test_empirical_frequency_all_rows(self):
        kernel = reaction_independent_kernel(TABLE1_ROWS)
        n = 10**4
        for (x, a), vec in TABLE1_ROWS.items():
            rng = np.random.default_rng(hash((x, a)) % 2**32)
            hits = sum(sample_transition(kernel, x, a, "r_m", rng) == "x_n" for _ in range(n))
            sigma = math.sqrt(vec[0] * (1 - vec[0]) / n)
            assert abs(hits / n - vec[0]) < 4 * sigma


class TestCdfCuts:
    def test_bisection_matches_running_sum_scan(self):
        # the left-to-right scan that sample_transition's rule is stated as,
        # on rows with zero entries and at uniforms equal to running sums
        rng = np.random.default_rng(3)
        for _ in range(2000):
            weights = rng.integers(0, 3, size=rng.integers(1, 6)).astype(float)
            if weights.sum() == 0.0:
                weights[-1] = 1.0
            row = tuple(weights / weights.sum())
            u = rng.choice([rng.random(), *np.cumsum(row)[:-1]])
            # else the last state of positive probability
            acc, scan = 0.0, max(i for i, p in enumerate(row) if p > 0.0)
            for i, p in enumerate(row):
                acc += p
                if u < acc:
                    scan = i
                    break
            assert bisect_right(cdf_cuts(row), u) == scan
