"""Convergence, agreement, and drift diagnostics over recorded trajectories.

These checks make the asymptotic claims about the closed loop measurable at
desk scale: the belief on the true type should drift upward (an exact
one-step inequality for any root triple, checked by enumeration through the
closed loop's own Bayes step), settle without oscillation, and
either the Bayes factor pins to one or the belief decays to zero. The KL-rate
estimate is a heuristic predictor of how fast a belief decays between
distinguishable regimes; it is reported, never asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Sequence

from .beliefs import BeliefState, posterior_malicious
from .model import MALICIOUS, Scenario

if TYPE_CHECKING:
    from .simulate import Trajectory

DEFAULT_WINDOW = 20
DEFAULT_TOL = 0.01


class Classification(str, Enum):
    """Trailing-window verdict for one trajectory."""

    F_TO_ONE = "F_TO_ONE"
    PI_TO_ZERO = "PI_TO_ZERO"
    UNDECIDED = "UNDECIDED"


@dataclass(frozen=True)
class ConvergenceReport:
    limit_estimate: float
    oscillation: float
    classification: Classification
    # Both events can hold at once; F_TO_ONE takes precedence and this flag
    # keeps the joint occurrence visible.
    pi_to_zero_also: bool = False


def submartingale_margin(
    scenario: Scenario, roots: tuple[str, str, str], state: str, belief: float
) -> float:
    """One-step conditional drift of the belief on the true type.

    ``roots`` is the (benign action, malicious action, reaction) triple played
    in ``state`` and ``belief`` the probability of the malicious type. Exact
    enumeration of the successors the true type reaches, each updated by
    ``posterior_malicious``: expected updated belief minus the current one, on
    the true type's coordinate and under its transition law. Beliefs 0 and 1
    stay put, as in the closed loop, so their drift is exactly 0. A reached
    successor whose mixture is at most ``MIN_MIXTURE`` raises
    ``InconsistentObservationError``, and a belief outside [0, 1], or NaN,
    raises ValueError.
    """
    BeliefState(belief)  # NaN too
    if belief in (0.0, 1.0):
        return 0.0
    a_b, a_m, reaction = roots
    row_b = scenario.kernel.row(state, a_b, reaction)
    row_m = scenario.kernel.row(state, a_m, reaction)
    malicious = scenario.true_type == MALICIOUS
    expected = 0.0
    for p_b, p_m in zip(row_b, row_m):
        weight = p_m if malicious else p_b
        if weight > 0.0:
            posterior = posterior_malicious(belief, p_b, p_m)
            expected += weight * (posterior if malicious else 1.0 - posterior)
    return expected - (belief if malicious else 1.0 - belief)


def check_window(window: int, tol: float, length: int | None = None) -> None:
    """Raise ValueError unless ``window`` is at least 1, the classification
    tolerance ``tol`` lies in (0, 1) and, given a ``length``, a trailing
    window of ``window`` steps fits a trajectory of that many steps, the
    oscillation spanning window + 1 beliefs."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if not 0.0 < tol < 1.0:  # NaN too
        raise ValueError(f"tol must lie in (0, 1), got {tol!r}")
    if length is not None and length <= window:
        raise ValueError(
            f"trajectory of {length} steps is too short for window {window}: "
            f"needs at least {window + 1}"
        )


def convergence_report(
    trajectory: "Trajectory", window: int = DEFAULT_WINDOW, tol: float = DEFAULT_TOL
) -> ConvergenceReport:
    """Trailing-window statistics of one episode's belief path.

    ``limit_estimate`` is the mean belief over the last ``window`` steps,
    ``oscillation`` the total variation over the same stretch. The episode is
    classified F_TO_ONE when the mean |f - 1| over the window is below
    ``tol``, PI_TO_ZERO when the limit estimate is, UNDECIDED otherwise.
    A ``tol`` outside (0, 1), or NaN, is a ValueError.
    """
    beliefs = trajectory.beliefs
    coefficients = trajectory.coefficients
    check_window(window, tol, len(beliefs))
    tail = beliefs[-window:]
    limit = math.fsum(tail) / window
    span = beliefs[-(window + 1):]
    oscillation = math.fsum(abs(b - a) for a, b in zip(span, span[1:]))
    f_flat = math.fsum(abs(f - 1.0) for f in coefficients[-window:]) / window < tol
    pi_zero = limit < tol
    if f_flat:
        classification = Classification.F_TO_ONE
    elif pi_zero:
        classification = Classification.PI_TO_ZERO
    else:
        classification = Classification.UNDECIDED
    return ConvergenceReport(
        limit_estimate=limit,
        oscillation=oscillation,
        classification=classification,
        pi_to_zero_also=f_flat and pi_zero,
    )


def agreement_series(trajectory: "Trajectory") -> tuple[list[int], int | None]:
    """Per-step action disagreement and the first sustained-agreement step.

    Returns the 0/1 distance series between the two types' prescriptions and
    the smallest 1-based step K such that the prescriptions agree from K to
    the end of the recording, or None when the last step still disagrees.
    """
    series = trajectory.agreement
    if series and series[-1]:
        return series, None
    trailing = series[::-1].index(1) if 1 in series else len(series)
    return series, len(series) - trailing + 1


def kl_decay_estimate(p_malicious: Sequence[float], p_benign: Sequence[float]) -> float:
    """KL divergence of the malicious next-state law from the benign one.

    Heuristic rate at which observations accumulate evidence against the
    hypothesis generating ``p_benign`` when data follow ``p_malicious``.
    Returns math.inf when the malicious law puts mass where the benign one
    has none (no absolute continuity), rather than raising.
    """
    p_m = [float(v) for v in p_malicious]
    p_b = [float(v) for v in p_benign]
    if len(p_m) != len(p_b) or not p_m:
        raise ValueError("distributions must be non-empty and of equal length")
    for name, dist in (("first", p_m), ("second", p_b)):
        # both checks are written so that a NaN entry fails them
        if not all(v >= 0.0 for v in dist):
            raise ValueError(f"{name} distribution has a negative or NaN entry")
        if not abs(math.fsum(dist) - 1.0) <= 1e-9:
            raise ValueError(f"{name} distribution does not sum to 1")
    total = 0.0
    for q_m, q_b in zip(p_m, p_b):
        if q_m == 0.0:
            continue
        if q_b == 0.0:
            return math.inf
        total += q_m * math.log(q_m / q_b)
    return total


def random_walk_belief(p: float, k: int, pi0: float) -> float:
    """Closed-form belief after k balanced excursions of a two-state walk.

    With one type moving uniformly and the other with switch probability p,
    the belief at a time the empirical state counts balance equals
    pi0 / (alpha * (1 - pi0) + pi0) with alpha = (4 p (1 - p))**k. For any
    p != 1/2 this strictly exceeds pi0, so the belief cannot decay to zero
    along such walks.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    if not 0.0 < pi0 < 1.0:
        raise ValueError(f"pi0 must lie strictly inside (0, 1), got {pi0}")
    alpha = (4.0 * p * (1.0 - p)) ** k
    if alpha == 1.0:
        # p = 1/2 makes the walk uninformative; return the prior untouched.
        return pi0
    return pi0 / (alpha * (1.0 - pi0) + pi0)
