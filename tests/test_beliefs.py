from fractions import Fraction

import pytest

from siggame.beliefs import (
    BeliefState,
    InconsistentObservationError,
    coefficient_value,
    posterior_malicious,
)


def exact_posterior(pi, p_b, p_m):
    """Rational-arithmetic oracle on the exact binary values of the inputs."""
    pi, p_b, p_m = Fraction(pi), Fraction(p_b), Fraction(p_m)
    denom = p_b * (1 - pi) + p_m * pi
    return float(p_m * pi / denom)


GRID = [i / 10 for i in range(11)]


class TestBayesUpdate:
    def test_known_value_low(self):
        out = posterior_malicious(0.1, 0.9, 0.8)
        assert out == pytest.approx(0.08 / 0.89, abs=1e-12)

    def test_known_value_high(self):
        out = posterior_malicious(0.1, 0.1, 0.2)
        assert out == pytest.approx(0.02 / 0.11, abs=1e-12)

    def test_equal_likelihoods_fix_point(self):
        assert posterior_malicious(0.1, 0.7, 0.7) == 0.1

    def test_zero_prior_absorbing(self):
        assert posterior_malicious(0.0, 0.9, 0.8) == 0.0

    def test_one_prior_absorbing(self):
        assert posterior_malicious(1.0, 0.9, 0.8) == 1.0

    def test_inconsistent_observation_raises(self):
        with pytest.raises(InconsistentObservationError):
            posterior_malicious(0.5, 0.0, 0.0)
        with pytest.raises(InconsistentObservationError):
            posterior_malicious(1.0, 0.9, 0.0)

    def test_matches_rational_oracle_on_grid(self):
        for pi in GRID:
            for p_b in GRID:
                for p_m in GRID:
                    if p_b * (1 - pi) + p_m * pi == 0:
                        continue
                    got = posterior_malicious(pi, p_b, p_m)
                    assert got == pytest.approx(exact_posterior(pi, p_b, p_m), abs=1e-12)

    def test_monotone_in_likelihood_ratio(self):
        for pi in (0.1, 0.3, 0.5, 0.9):
            up = posterior_malicious(pi, 0.2, 0.4)
            down = posterior_malicious(pi, 0.4, 0.2)
            assert up > pi > down


class TestCoefficientValue:
    def test_pooled_likelihoods_give_unit_factor(self):
        assert coefficient_value(0.3, 0.6, 0.6, malicious=False) == pytest.approx(1.0, abs=1e-15)
        assert coefficient_value(0.3, 0.6, 0.6, malicious=True) == pytest.approx(1.0, abs=1e-15)

    def test_known_values(self):
        f_m = coefficient_value(0.1, 0.9, 0.8, malicious=True)
        f_b = coefficient_value(0.1, 0.9, 0.8, malicious=False)
        assert f_m == pytest.approx(0.8 / 0.89, abs=1e-12)
        assert f_b == pytest.approx(0.9 / 0.89, abs=1e-12)

    def test_chain_rule_against_update(self):
        # f * pi must reproduce the update on both coordinates across the grid
        for pi in GRID[1:-1]:
            for p_b in GRID:
                for p_m in GRID:
                    if p_b * (1 - pi) + p_m * pi == 0:
                        continue
                    updated = posterior_malicious(pi, p_b, p_m)
                    f_m = coefficient_value(pi, p_b, p_m, malicious=True)
                    f_b = coefficient_value(pi, p_b, p_m, malicious=False)
                    assert f_m * pi == pytest.approx(updated, abs=1e-12)
                    assert f_b * (1 - pi) == pytest.approx(1 - updated, abs=1e-12)


class TestValidation:
    def test_belief_range(self):
        with pytest.raises(ValueError):
            BeliefState(1.5)
        with pytest.raises(ValueError):
            BeliefState(-0.1)
