import math

import numpy as np
import pytest

from siggame.model import (
    Alphabets,
    TransitionKernel,
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


class TestValidateKernel:
    def test_table1_passes(self):
        report = validate_kernel(reaction_independent_kernel(TABLE1_ROWS))
        assert report.passed
        assert report.violations == ()

    def test_row_sum_violation(self):
        rows = dict(TABLE1_ROWS)
        rows[("x_n", "a_b")] = (0.5, 0.6)
        report = validate_kernel(reaction_independent_kernel(rows))
        assert not report.passed
        assert any("sums to" in v.message and v.kind == "sum" for v in report.violations)
        assert any(v.key == ("x_n", "a_b", "r_b") for v in report.violations)

    def test_negative_entry(self):
        # NaN compares False both ways, so it must fail both checks; a row
        # holding both infinities sums to NaN and must be reported, not raise
        for row, kinds in (
            ((-0.1, 1.1), {"negative"}),
            ((float("nan"), 1.0), {"negative", "sum"}),
            ((float("inf"), float("-inf")), {"negative", "sum"}),
        ):
            rows = dict(TABLE1_ROWS)
            rows[("x_a", "a_m")] = row
            report = validate_kernel(reaction_independent_kernel(rows))
            assert not report.passed
            assert {v.kind for v in report.violations} == kinds
            assert {v.key[:2] for v in report.violations} == {("x_a", "a_m")}

    def test_missing_row_is_structural(self):
        al = binary_alphabets()
        table = {("x_n", "a_b", "r_b"): (0.9, 0.1)}
        report = validate_kernel(TransitionKernel(alphabets=al, table=table))
        assert not report.passed
        assert report.structural
        assert all(v.kind == "missing" for v in report.structural)

    def test_wrong_length_is_structural(self):
        rows = dict(TABLE1_ROWS)
        rows[("x_n", "a_b")] = (1.0,)
        report = validate_kernel(reaction_independent_kernel(rows))
        assert any(v.kind == "length" for v in report.violations)

    def test_row_sum_tolerance(self):
        # 1e-10 below unity is inside the tolerance; 1e-8 is not.
        rows = dict(TABLE1_ROWS)
        rows[("x_n", "a_b")] = (0.9, 0.1 - 1e-10)
        assert validate_kernel(reaction_independent_kernel(rows)).passed
        rows[("x_n", "a_b")] = (0.9, 0.1 - 1e-8)
        assert not validate_kernel(reaction_independent_kernel(rows)).passed


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
