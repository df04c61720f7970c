import itertools
import math
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import labelled_alphabets, random_scenario
from siggame.beliefs import MIN_MIXTURE, InconsistentObservationError
from siggame.diagnostics import (
    Classification,
    agreement_series,
    convergence_report,
    kl_decay_estimate,
    random_walk_belief,
    submartingale_margin,
)
from siggame.model import BENIGN, MALICIOUS, TYPES
from siggame.simulate import Trajectory, run_batch, run_episode


def series_trajectory(beliefs, coefficients=None, agreement=None):
    n = len(beliefs)
    if coefficients is None:
        prev = 0.5
        coefficients = []
        for b in beliefs:
            coefficients.append(b / prev if prev else 1.0)
            prev = b
    if agreement is None:
        agreement = [0] * n
    return Trajectory(
        true_type=MALICIOUS,
        prior=0.5,
        seed=0,
        states=["x_n"] * n,
        actions_benign=["a_b"] * n,
        actions_malicious=["a_m" if d else "a_b" for d in agreement],
        reactions=["r_b"] * n,
        beliefs=list(beliefs),
        coefficients=list(coefficients),
    )


class TestSubmartingaleMargin:
    def test_pooling_profile_has_zero_margin(self, table1):
        margin = submartingale_margin(table1, ("a_b", "a_b", "r_b"), "x_n", 0.1)
        assert margin == pytest.approx(0.0, abs=1e-15)

    def test_separating_profile_known_value(self, table1):
        # exact two-successor enumeration:
        # 0.8 * (0.08/0.89) + 0.2 * (0.02/0.11) - 0.1 = 81/9790
        margin = submartingale_margin(table1, ("a_b", "a_m", "r_b"), "x_n", 0.1)
        expected = float(
            Fraction(8, 10) * Fraction(8, 89) + Fraction(2, 10) * Fraction(2, 11) - Fraction(1, 10)
        )
        assert margin == pytest.approx(expected, abs=1e-12)
        assert margin == pytest.approx(0.0082737, abs=1e-7)

    def test_certain_belief_has_zero_margin(self, table1, scenario_builder):
        # on the zero-entry kernel a successor only the malicious type reaches
        # has mixture 0 at belief 0, as does one only the benign type reaches
        # at belief 1: both beliefs stay put, as in the closed loop
        rows = {("x_n", "a_b"): (1.0, 0.0), ("x_n", "a_m"): (0.0, 1.0)}
        rows.update({("x_a", a): (0.5, 0.5) for a in ("a_b", "a_m")})
        scenarios = [table1] + [
            scenario_builder(rows, lambda *k: 0.0, lambda *k: 0.0, true_type=t) for t in TYPES
        ]
        for scenario in scenarios:
            for roots in itertools.product(("a_b", "a_m"), ("a_b", "a_m"), ("r_b", "r_m")):
                for state in ("x_n", "x_a"):
                    for pi in (0.0, 1.0):
                        assert submartingale_margin(scenario, roots, state, pi) == 0.0

    def test_vanishing_mixture_raises(self, scenario_builder):
        # x_a is reached by the malicious type only; at belief 1e-300 its
        # mixture 0.5e-300 is below MIN_MIXTURE, so Bayes' rule is undefined
        rows = {(x, "a_b"): (1.0, 0.0) for x in ("x_n", "x_a")}
        rows.update({(x, "a_m"): (0.5, 0.5) for x in ("x_n", "x_a")})
        scenario = scenario_builder(rows, lambda *k: 0.0, lambda *k: 0.0)
        with pytest.raises(InconsistentObservationError):
            submartingale_margin(scenario, ("a_b", "a_m", "r_b"), "x_n", 1e-300)
        assert submartingale_margin(scenario, ("a_b", "a_m", "r_b"), "x_n", 1e-3) >= 0.0

    def test_unknown_action_names_the_missing_kernel_row(self, table1):
        message = re.escape("kernel has no row for (x='x_n', a='a_x', r='r_b')")
        with pytest.raises(ValueError, match=f"^{message}$"):
            submartingale_margin(table1, ("a_b", "a_x", "r_b"), "x_n", 0.3)

    @pytest.mark.parametrize("belief", [math.nan, 1.5, -0.2, math.inf])
    def test_belief_outside_unit_interval_raises(self, table1, belief):
        message = re.escape(f"belief must lie in [0, 1], got {belief}")
        with pytest.raises(ValueError, match=message):
            submartingale_margin(table1, ("a_b", "a_m", "r_b"), "x_n", belief)

    def test_benign_true_type_margin(self, table1):
        scenario = replace(table1, true_type=BENIGN)
        margin = submartingale_margin(scenario, ("a_b", "a_m", "r_b"), "x_n", 0.1)
        assert margin >= -1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(list(itertools.product((2, 3), repeat=3))),
        st.integers(0, 2**32 - 1),
        st.sampled_from(TYPES),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_nonnegative_for_any_play(self, shape, seed, true_type, belief):
        # claim 1 at one step: for any roots, E[p_m / D] >= 1 by Cauchy-Schwarz,
        # where D is the mixture, whenever Bayes' rule is defined on every
        # successor the true type reaches
        rng = np.random.default_rng(seed)
        scenario = replace(random_scenario(labelled_alphabets(*shape), 1, rng), true_type=true_type)
        al = scenario.alphabets
        roots = tuple(str(rng.choice(labels)) for labels in (al.actions, al.actions, al.reactions))
        state = str(rng.choice(al.states))
        row_b = scenario.kernel.row(state, roots[0], roots[2])
        row_m = scenario.kernel.row(state, roots[1], roots[2])
        reached = zip(row_b, row_m, row_m if true_type == MALICIOUS else row_b)
        assume(all(p_b * (1 - belief) + p_m * belief > MIN_MIXTURE for p_b, p_m, w in reached if w))
        assert submartingale_margin(scenario, roots, state, belief) >= -1e-12

    @pytest.mark.parametrize("config", ["table1", "table4"])
    def test_nonnegative_along_closed_loop(self, config, request):
        # the roots the policy played, at the belief it played them at
        scenario = request.getfixturevalue(config)
        _, trajectories = run_batch(scenario, 20, scenario.base_seed)
        checked = 0
        for traj in trajectories:
            before = [traj.prior] + traj.beliefs[:-1]
            plays = zip(traj.actions_benign, traj.actions_malicious, traj.reactions)
            for roots, state, pi in zip(plays, traj.states, before):
                assert submartingale_margin(scenario, roots, state, pi) >= -1e-12
                checked += 1
        assert checked == 20 * scenario.episode_length


class TestConvergenceReport:
    def test_constant_series(self):
        traj = series_trajectory([0.4] * 30, coefficients=[1.0] * 30)
        report = convergence_report(traj, window=20, tol=0.01)
        assert report.limit_estimate == pytest.approx(0.4)
        assert report.oscillation == 0.0
        assert report.classification is Classification.F_TO_ONE

    def test_geometric_decay_classifies_pi_to_zero(self):
        beliefs = [2.0 ** -(k + 1) for k in range(40)]
        traj = series_trajectory(beliefs, coefficients=[0.5] * 40)
        report = convergence_report(traj, window=20, tol=0.01)
        assert report.classification is Classification.PI_TO_ZERO

    def test_joint_event_prefers_f_to_one(self):
        traj = series_trajectory([0.0] * 30, coefficients=[1.0] * 30)
        report = convergence_report(traj, window=20, tol=0.01)
        assert report.classification is Classification.F_TO_ONE
        assert report.pi_to_zero_also

    def test_oscillating_series_undecided(self):
        beliefs = [0.5 + 0.2 * (-1) ** k for k in range(40)]
        coeffs = [beliefs[0] / 0.5] + [beliefs[k] / beliefs[k - 1] for k in range(1, 40)]
        report = convergence_report(series_trajectory(beliefs, coeffs), window=20, tol=0.01)
        assert report.classification is Classification.UNDECIDED
        assert report.oscillation > 0.05

    def test_constant_tail_appended_keeps_class(self):
        base = [0.8 - 0.7 * 2.0 ** -k for k in range(30)]
        coeffs = [1.0] * 30
        first = convergence_report(series_trajectory(base, coeffs), window=10, tol=0.01)
        extended = base + [base[-1]] * 15
        second = convergence_report(
            series_trajectory(extended, coeffs + [1.0] * 15), window=10, tol=0.01
        )
        assert second.classification is first.classification

    def test_short_trajectory_rejected(self):
        with pytest.raises(ValueError, match="window"):
            convergence_report(series_trajectory([0.5] * 10), window=20)

    @pytest.mark.parametrize("window", [0, -5])
    def test_window_below_one_rejected(self, window):
        with pytest.raises(ValueError, match=f"window must be >= 1, got {window}"):
            convergence_report(series_trajectory([0.5] * 30), window=window)

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, 1.0, 5.0])
    def test_tol_outside_unit_interval_rejected(self, tol):
        message = re.escape(f"tol must lie in (0, 1), got {tol!r}")
        with pytest.raises(ValueError, match=message):
            convergence_report(series_trajectory([0.5] * 30), window=20, tol=tol)

    def test_trajectory_of_exactly_window_steps_rejected(self):
        # the oscillation over the window needs the belief before it too
        too_short = "20 steps is too short for window 20: needs at least 21"
        with pytest.raises(ValueError, match=too_short):
            convergence_report(series_trajectory([0.5] * 20), window=20)
        report = convergence_report(series_trajectory([0.5] * 21), window=20)
        assert report.oscillation == 0.0

    def test_table1_episode_classifies_f_to_one(self, table1):
        traj = run_episode(table1, seed=404)
        report = convergence_report(traj, window=20, tol=0.05)
        assert report.classification is Classification.F_TO_ONE
        assert report.limit_estimate < 1.0

    def test_benign_episode_decays_with_joint_events(self, table1):
        # under a benign sender the belief decays; a vanishing belief forces
        # the true-type Bayes factor toward one, so both limit events hold
        # and the factor event wins with the joint flag set
        scenario = replace(table1, true_type=BENIGN)
        traj = run_episode(scenario, seed=11)
        assert traj.applied_actions == traj.actions_benign
        report = convergence_report(traj, window=20, tol=0.01)
        assert report.limit_estimate < 0.01
        assert report.classification is Classification.F_TO_ONE
        assert report.pi_to_zero_also


class TestAgreementSeries:
    def test_pooling_from_first_step(self):
        traj = series_trajectory([0.5] * 10, agreement=[0] * 10)
        series, sustained = agreement_series(traj)
        assert series == [0] * 10
        assert sustained == 1

    def test_trailing_disagreement_gives_none(self):
        traj = series_trajectory([0.5] * 6, agreement=[0, 1, 0, 1, 0, 1])
        _, sustained = agreement_series(traj)
        assert sustained is None

    def test_mid_trajectory_switch(self):
        traj = series_trajectory([0.5] * 8, agreement=[1, 1, 1, 0, 0, 0, 0, 0])
        _, sustained = agreement_series(traj)
        assert sustained == 4


class TestKlDecayEstimate:
    def test_identical_distributions(self):
        assert kl_decay_estimate((0.3, 0.7), (0.3, 0.7)) == 0.0

    def test_known_value(self):
        expected = 0.8 * math.log(8 / 9) + 0.2 * math.log(2)
        assert kl_decay_estimate((0.8, 0.2), (0.9, 0.1)) == pytest.approx(expected, abs=1e-15)
        assert kl_decay_estimate((0.8, 0.2), (0.9, 0.1)) == pytest.approx(0.0444028, abs=1e-6)

    def test_support_mismatch_flags_infinity(self):
        assert kl_decay_estimate((0.5, 0.5), (1.0, 0.0)) == math.inf

    def test_zero_mass_terms_drop_out(self):
        assert kl_decay_estimate((1.0, 0.0), (0.5, 0.5)) == pytest.approx(math.log(2))

    def test_rejects_non_distributions(self):
        with pytest.raises(ValueError, match="sum"):
            kl_decay_estimate((0.5, 0.6), (0.5, 0.5))
        with pytest.raises(ValueError, match="negative"):
            kl_decay_estimate((-0.1, 1.1), (0.5, 0.5))
        with pytest.raises(ValueError, match="length"):
            kl_decay_estimate((1.0,), (0.5, 0.5))

    def test_rejects_nan_entries(self):
        for first, second in [((math.nan, 1.0), (0.5, 0.5)), ((0.5, 0.5), (1.0, math.nan))]:
            with pytest.raises(ValueError, match="NaN"):
                kl_decay_estimate(first, second)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            p = rng.random(3) + 1e-9
            q = rng.random(3) + 1e-9
            p, q = p / p.sum(), q / q.sum()
            assert kl_decay_estimate(tuple(p), tuple(q)) >= 0.0


class TestRandomWalkBelief:
    def test_uninformative_walk_returns_prior_exactly(self):
        for pi0 in [i / 10 for i in range(1, 10)]:
            assert random_walk_belief(0.5, 3, pi0) == pi0

    def test_known_values(self):
        assert random_walk_belief(0.25, 1, 0.1) == pytest.approx(0.1 / 0.775, abs=1e-12)
        assert random_walk_belief(0.25, 1, 0.1) == pytest.approx(0.1290323, abs=1e-6)
        assert random_walk_belief(0.25, 2, 0.1) == pytest.approx(0.1649485, abs=1e-6)

    def test_strictly_exceeds_prior_off_half(self):
        for p in [0.05 * i for i in range(1, 20) if abs(0.05 * i - 0.5) > 1e-9]:
            for k in (1, 2, 5):
                for pi0 in (0.1, 0.5, 0.9):
                    assert random_walk_belief(p, k, pi0) > pi0

    def test_monotone_in_excursion_count(self):
        # alpha shrinks with k, so the belief grows
        values = [random_walk_belief(0.3, k, 0.2) for k in range(1, 6)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            random_walk_belief(1.5, 1, 0.1)
        with pytest.raises(ValueError):
            random_walk_belief(0.3, 0, 0.1)
        with pytest.raises(ValueError):
            random_walk_belief(0.3, 1, 0.0)
