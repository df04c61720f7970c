"""Finite-alphabet Markov decision process primitives.

The controlled plant is a time-homogeneous Markov chain over a finite state
set. A sender, who is either benign or malicious, picks an action each step;
the defender picks a reaction; the (state, action, reaction) triple indexes a
transition row. Everything here is immutable after construction and pure
given an explicit random generator, so values can be shared freely across
threads and processes.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

BENIGN = "benign"
MALICIOUS = "malicious"
TYPES = (BENIGN, MALICIOUS)

# Row sums are checked to 1e-9 absolute; rows count as indistinguishable when
# every entry differs by at most 1e-12. Both are compatible with tables typed
# in as short decimals.
ROW_SUM_TOL = 1e-9
ROW_EQUAL_TOL = 1e-12


@dataclass(frozen=True)
class Alphabets:
    """Ordered label sets for states, sender actions and defender reactions.

    Ordering matters: every enumeration and tie-break downstream follows the
    order given here. The sender type set is fixed to ``TYPES``.
    """

    states: tuple[str, ...]
    actions: tuple[str, ...]
    reactions: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "actions", tuple(self.actions))
        object.__setattr__(self, "reactions", tuple(self.reactions))
        for name in ("states", "actions", "reactions"):
            labels = getattr(self, name)
            if not labels:
                raise ValueError(f"{name} must be non-empty")
            if len(set(labels)) != len(labels):
                raise ValueError(f"duplicate {name} labels: {labels}")
        object.__setattr__(self, "_state_pos", {s: i for i, s in enumerate(self.states)})

    def state_index(self, label: str) -> int:
        try:
            return self._state_pos[label]
        except KeyError:
            raise ValueError(f"unknown state label {label!r}") from None


@dataclass(frozen=True)
class TransitionKernel:
    """Transition rows p(x'|x,a,r): one probability vector over states per
    (state, action, reaction) triple."""

    alphabets: Alphabets
    table: dict[tuple[str, str, str], tuple[float, ...]]

    def __post_init__(self):
        clean = {tuple(k): tuple(float(p) for p in v) for k, v in self.table.items()}
        object.__setattr__(self, "table", clean)
        object.__setattr__(self, "_cuts", {})

    def row(self, x: str, a: str, r: str) -> tuple[float, ...]:
        try:
            return self.table[(x, a, r)]
        except KeyError:
            raise ValueError(f"kernel has no row for (x={x!r}, a={a!r}, r={r!r})") from None

    def cuts(self, x: str, a: str, r: str) -> list[float]:
        """``cdf_cuts`` of the row (x, a, r), computed on its first use and
        kept for the kernel's lifetime; the rows never change."""
        cuts = self._cuts.get((x, a, r))
        if cuts is None:
            cuts = self._cuts[x, a, r] = cdf_cuts(self.row(x, a, r))
        return cuts


@dataclass(frozen=True)
class UtilityTables:
    """Instantaneous utilities.

    ``sender`` is keyed by (true type, state, action, reaction) and
    ``receiver`` by (hypothesized type, state, action, reaction). Each must
    cover exactly the product of the alphabets, with finite values.
    """

    sender: dict[tuple[str, str, str, str], float]
    receiver: dict[tuple[str, str, str, str], float]

    def __post_init__(self):
        object.__setattr__(self, "sender", {tuple(k): float(v) for k, v in self.sender.items()})
        object.__setattr__(self, "receiver", {tuple(k): float(v) for k, v in self.receiver.items()})

    def validate(self, alphabets: Alphabets) -> None:
        expected = dict.fromkeys(
            itertools.product(TYPES, alphabets.states, alphabets.actions, alphabets.reactions)
        )
        for name, table in (("sender", self.sender), ("receiver", self.receiver)):
            for key in expected:
                if key not in table:
                    raise ValueError(f"{name} utility missing entry for {key}")
                if not math.isfinite(table[key]):
                    raise ValueError(f"{name} utility not finite at {key}: {table[key]}")
            # every expected key is present, so any further key is a stray
            if len(table) > len(expected):
                stray = next(key for key in table if key not in expected)
                raise ValueError(f"{name} utility {stray} uses labels outside the alphabets")


@dataclass(frozen=True)
class Scenario:
    """Complete game description, checked when it is built: a kernel that is
    not a valid stochastic kernel over its own alphabets (``validate_kernel``),
    or utilities that do not cover exactly those alphabets with finite values,
    raise ValueError.

    ``prior`` is the initial probability assigned to the malicious type.
    ``horizon`` is the lookahead window of the receding-horizon solve;
    ``episode_length`` the number of recorded closed-loop steps.
    """

    kernel: TransitionKernel
    utilities: UtilityTables
    initial_state: str
    prior: float
    true_type: str
    horizon: int = 2
    episode_length: int = 300
    base_seed: int = 0

    def __post_init__(self):
        if self.initial_state not in self.alphabets.states:
            raise ValueError(f"initial state {self.initial_state!r} not in state alphabet")
        if not 0.0 <= self.prior <= 1.0:
            raise ValueError(f"prior must lie in [0, 1], got {self.prior}")
        if self.true_type not in TYPES:
            raise ValueError(f"true type must be one of {TYPES}, got {self.true_type!r}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.episode_length < 1:
            raise ValueError(f"episode length must be >= 1, got {self.episode_length}")
        if not 0 <= self.base_seed < 2**64:
            raise ValueError("base seed must fit in an unsigned 64-bit integer")
        validate_kernel(self.kernel)
        self.utilities.validate(self.alphabets)

    @property
    def alphabets(self) -> Alphabets:
        """The kernel's alphabets, the one ordering of every label set."""
        return self.kernel.alphabets


def validate_kernel(kernel: TransitionKernel) -> None:
    """Check that every (x, a, r) triple has a probability row.

    Raises one ValueError that lists every defect by row: rows for labels
    outside the alphabets, missing rows, rows of the wrong length, negative
    or NaN entries, and row sums off unity by more than ROW_SUM_TOL.
    """
    al = kernel.alphabets
    expected = list(itertools.product(al.states, al.actions, al.reactions))
    known = set(expected)
    defects = [
        f"row {key} uses labels outside the alphabets" for key in kernel.table if key not in known
    ]
    for key in expected:
        row = kernel.table.get(key)
        if row is None:
            defects.append(f"no row for {key}")
            continue
        if len(row) != len(al.states):
            defects.append(f"row {key} has {len(row)} entries, expected {len(al.states)}")
            continue
        # Both checks are written so that a NaN entry fails them.
        for state, p in zip(al.states, row):
            if not p >= 0.0:
                defects.append(f"row {key} has entry {p} at {state!r}, not >= 0")
        # fsum raises on a row holding both infinities; sum gives NaN there.
        total = math.fsum(row) if all(map(math.isfinite, row)) else sum(row)
        if not abs(total - 1.0) <= ROW_SUM_TOL:
            defects.append(f"row {key} sums to {total!r}, not 1")
    if defects:
        raise ValueError("kernel validation failed: " + "; ".join(defects))


def check_distinguishability(
    kernel: TransitionKernel,
) -> tuple[bool, list[tuple[str, str, str, str]]]:
    """Check that distinct actions always shift the transition row.

    Returns (ok, witnesses). A witness (x, r, a, a') records a state/reaction
    pair at which the two actions produce entrywise-identical rows (within
    ROW_EQUAL_TOL), i.e. the actions cannot be told apart from that state.
    The result is symmetric in the action pair and independent of label order.
    """
    al = kernel.alphabets
    witnesses: list[tuple[str, str, str, str]] = []
    for x in al.states:
        for r in al.reactions:
            for a, a2 in itertools.combinations(al.actions, 2):
                row_a = kernel.row(x, a, r)
                row_b = kernel.row(x, a2, r)
                if all(abs(p - q) <= ROW_EQUAL_TOL for p, q in zip(row_a, row_b)):
                    witnesses.append((x, r, a, a2))
    return (not witnesses, witnesses)


def cdf_cuts(row: tuple[float, ...]) -> list[float]:
    """A transition row's running sums, summed left to right from 0.0, up to
    and not including its last positive entry: the cut points of inverse-CDF
    sampling.

    ``bisect_right(cdf_cuts(row), u)`` is the one sampling rule of
    ``sample_transition`` and the closed loop: the index of the first state
    whose running sum exceeds ``u``, else the last state of positive
    probability, also when rounding leaves the sums short of 1. A validated
    row has no negative entry, so its sums do not decrease and the bisection
    finds that state; a state of probability 0 is never drawn.
    """
    last = len(row) - 1
    while row[last] == 0.0:  # a validated row has a positive entry
        last -= 1
    return list(itertools.accumulate(row[:last]))


def sample_transition(
    kernel: TransitionKernel, x: str, a: str, r: str, rng: np.random.Generator
) -> str:
    """Draw the next state from the row (x, a, r).

    Inverse-CDF sampling on a single uniform draw u = ``rng.random()``: the
    next state is the first whose running sum of the row exceeds u, else the
    last state of positive probability (``cdf_cuts``). The result is a
    deterministic function of the generator state, and the generator
    advances by exactly one draw.
    """
    return kernel.alphabets.states[bisect_right(kernel.cuts(x, a, r), rng.random())]
