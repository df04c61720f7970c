"""Bayes-rule tracking of the defender's belief that the sender is malicious.

The belief is a single scalar (probability of the malicious type); the benign
coordinate is its complement. Updates follow Bayes' rule whenever the mixed
observation likelihood exceeds ``MIN_MIXTURE`` and raise otherwise: an
observation that is impossible under the current belief mixture has no
defined posterior, and a silently invented one would corrupt every downstream
diagnostic. ``posterior_malicious`` is the one scalar Bayes step; the closed
loop and the one-step drift check both update through it.
"""

from __future__ import annotations

from dataclasses import dataclass

# Below this mixed likelihood the update is treated as undefined.
MIN_MIXTURE = 1e-300


class InconsistentObservationError(ValueError):
    """The observation has probability ~0 under the current belief mixture."""


@dataclass(frozen=True)
class BeliefState:
    """Probability assigned to the malicious type; benign gets the rest."""

    pi_m: float

    def __post_init__(self):
        if not 0.0 <= self.pi_m <= 1.0:
            raise ValueError(f"belief must lie in [0, 1], got {self.pi_m}")


def _mixture(pi_m: float, p_b: float, p_m: float) -> float:
    """Predictive probability of the observation under the belief mixture;
    raises when it is at most ``MIN_MIXTURE``. Equal likelihoods give the
    common value exactly, not re-rounded through (1 - pi) + pi; the callers
    return early when that value is above ``MIN_MIXTURE``."""
    denom = p_b if p_b == p_m else p_b * (1.0 - pi_m) + p_m * pi_m
    if denom <= MIN_MIXTURE:
        raise InconsistentObservationError(
            f"observation impossible under belief {pi_m} with likelihoods ({p_b}, {p_m})"
        )
    return denom


def posterior_malicious(pi_m: float, p_b: float, p_m: float) -> float:
    """Scalar core of the Bayes update; raises on an impossible observation.

    An uninformative observation (equal likelihoods) returns the belief
    bit-identically, so pooled play freezes the belief exactly.
    """
    if p_b == p_m and p_b > MIN_MIXTURE:
        return pi_m
    return p_m * pi_m / _mixture(pi_m, p_b, p_m)


def coefficient_value(pi_m: float, p_b: float, p_m: float, malicious: bool) -> float:
    """Multiplicative Bayes factor for one hypothesized type: the updated
    belief equals it times the current one on that type's coordinate."""
    if p_b == p_m and p_b > MIN_MIXTURE:
        return 1.0
    return (p_m if malicious else p_b) / _mixture(pi_m, p_b, p_m)
