"""Finite-horizon strategy trees, expected utilities, and equilibrium search.

A strategy tree assigns an action (per sender type) and a reaction to every
history node of a depth-T window; a node is the tuple of states realized below
the window root, so the root node is the empty tuple. Values of a joint tree
are exact expectations over all length-T state sequences from the current
state. The solver scans every joint pure profile for a mutual best response
and is re-run each step, receding-horizon style, applying only the root
prescriptions.

Within a window the sender's value for type t is the average of its
instantaneous utilities along type-t play; the receiver's value sums, over
both hypothesized types, path-probability-weighted utilities further weighted
by the belief trajectory, where the belief starts at the supplied value and is
propagated by Bayes' rule under the candidate profile itself.

The solver gets these values for all joint profiles at once from the
vectorised path in ``_value_matrices``: per state path it walks every
(benign, malicious, reaction) label sequence in one numpy grid and gathers
each branch's sequence terms. ``expected_utilities`` values a single profile
with a separate scalar walk and serves as the independent oracle; both add
the same terms in the same order, so they agree bit for bit.

Tie-breaking is lexicographic in enumeration order: trees are enumerated by
assigning labels (in alphabet order) to nodes ordered by depth then state
order, and joint profiles are scanned as (benign tree, malicious tree,
receiver tree) in that nesting. The same order decides which of several
equilibria is reported; multiplicity is never collapsed silently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from .beliefs import BeliefState, MIN_MIXTURE
from .model import BENIGN, MALICIOUS, Alphabets, Scenario

# Refuse exhaustive scans beyond this many joint profiles.
JOINT_PROFILE_LIMIT = 10_000_000


class EnumerationLimitError(ValueError):
    """The joint profile space is too large to scan exhaustively."""


class NoPureEquilibriumError(RuntimeError):
    """No joint pure profile is a mutual best response.

    Carries the defender-anchored approximate profile: among profiles where
    the receiver is exactly best-responding, the one minimizing the larger
    sender deviation gain (ties broken in enumeration order).
    ``fallback_regret`` is that gain. It would be zero at a pure equilibrium,
    so its positive value is the certificate that none exists.
    """

    def __init__(self, message, fallback_profile, fallback_regret):
        super().__init__(message)
        self.fallback_profile = fallback_profile
        self.fallback_regret = fallback_regret


@dataclass(frozen=True)
class StrategyTree:
    """Complete depth-T prescriptions: node -> action per sender type, and
    node -> reaction for the receiver."""

    depth: int
    sender: Mapping[str, Mapping[tuple[str, ...], str]]
    receiver: Mapping[tuple[str, ...], str]

    def root_prescriptions(self) -> tuple[str, str, str]:
        return (self.sender[BENIGN][()], self.sender[MALICIOUS][()], self.receiver[()])


@dataclass(frozen=True)
class EquilibriumResult:
    profile: StrategyTree
    sender_value_benign: float
    sender_value_malicious: float
    receiver_value: float
    multiplicity: int
    tie_broken: bool


def window_nodes(states: Iterable[str], depth: int) -> list[tuple[str, ...]]:
    """History nodes of a depth-``depth`` window, ordered by depth then state
    order; the root (empty history) comes first."""
    states = tuple(states)
    nodes: list[tuple] = []
    for d in range(depth):
        nodes.extend(itertools.product(states, repeat=d))
    return nodes


def joint_profile_count(alphabets: Alphabets, horizon: int) -> int:
    n_nodes = len(window_nodes(alphabets.states, horizon))
    return (len(alphabets.actions) ** n_nodes) ** 2 * len(alphabets.reactions) ** n_nodes


def enumerate_strategy_trees(
    alphabets: Alphabets, horizon: int
) -> tuple[dict[str, list[dict[tuple[str, ...], str]]], list[dict[tuple[str, ...], str]]]:
    """Exhaustive, duplicate-free tree sets: one list of sender branches per
    type and the list of receiver branches."""
    enum = _Enumeration(alphabets, horizon)
    sender = [enum.tree(branch, alphabets.actions) for branch in enum.sender_branches]
    receiver = [enum.tree(branch, alphabets.reactions) for branch in enum.receiver_branches]
    return {BENIGN: sender, MALICIOUS: list(sender)}, receiver


class _Tables:
    """Index-form kernel and utility lookups for one scenario."""

    def __init__(self, scenario: Scenario):
        al = scenario.alphabets
        self.alphabets = al
        self.horizon = scenario.horizon
        ns, na, nr = len(al.states), len(al.actions), len(al.reactions)
        self.n_states = ns
        kernel = scenario.kernel
        self.P = [
            [
                [list(kernel.row(x, a, r)) for r in al.reactions]
                for a in al.actions
            ]
            for x in al.states
        ]
        def util(table, t):
            return [
                [[table[(t, x, a, r)] for r in al.reactions] for a in al.actions]
                for x in al.states
            ]

        self.US_b = util(scenario.utilities.sender, BENIGN)
        self.US_m = util(scenario.utilities.sender, MALICIOUS)
        self.UR_b = util(scenario.utilities.receiver, BENIGN)
        self.UR_m = util(scenario.utilities.receiver, MALICIOUS)
        # The same floats as arrays, for the vectorised value path.
        self.arrays = tuple(
            np.array(t, dtype=float) for t in (self.P, self.US_b, self.US_m, self.UR_b, self.UR_m)
        )


def _path_terms(tab, x0, pi, path, seq_b, seq_m, seq_r):
    """Contribution of one state path under one action/reaction assignment.

    This scalar walk is the body of the ``expected_utilities`` oracle;
    ``_path_term_grids`` repeats it on whole sequence grids for the solver.

    Returns (w_b, mean_u_b, w_m, mean_u_m, receiver_term): the path weight and
    average sender utility per type, and the already-weighted receiver term.
    The belief is propagated along the path; endpoint beliefs are absorbing,
    and a vanishing mixture with the belief strictly inside (0, 1) implies
    both weights are zero, so the frozen belief never touches the value.
    """
    T = tab.horizon
    P, US_b, US_m, UR_b, UR_m = tab.P, tab.US_b, tab.US_m, tab.UR_b, tab.UR_m
    w_b = w_m = 1.0
    beta = pi
    u_b = u_m = 0.0
    r_b_sum = r_m_sum = 0.0
    x = x0
    for i in range(T):
        a_b = seq_b[i]
        a_m = seq_m[i]
        r = seq_r[i]
        u_b += US_b[x][a_b][r]
        u_m += US_m[x][a_m][r]
        r_b_sum += UR_b[x][a_b][r] * (1.0 - beta)
        r_m_sum += UR_m[x][a_m][r] * beta
        if i + 1 < T:
            nxt = path[i]
            p_b = P[x][a_b][r][nxt]
            p_m = P[x][a_m][r][nxt]
            w_b *= p_b
            w_m *= p_m
            if w_b == 0.0 and w_m == 0.0:
                return 0.0, 0.0, 0.0, 0.0, 0.0
            if p_b != p_m and 0.0 < beta < 1.0:
                denom = p_b * (1.0 - beta) + p_m * beta
                if denom > MIN_MIXTURE:
                    beta = p_m * beta / denom
            x = nxt
    return w_b, u_b / T, w_m, u_m / T, (w_b * r_b_sum + w_m * r_m_sum) / T


def _profile_sequences(profile, alphabets, path_labels, horizon):
    node_keys = [path_labels[:i] for i in range(horizon)]
    try:
        seq_b = tuple(alphabets.action_index(profile.sender[BENIGN][n]) for n in node_keys)
        seq_m = tuple(alphabets.action_index(profile.sender[MALICIOUS][n]) for n in node_keys)
        seq_r = tuple(alphabets.reaction_index(profile.receiver[n]) for n in node_keys)
    except KeyError as missing:
        raise ValueError(f"profile has no prescription at node {missing}") from None
    return seq_b, seq_m, seq_r


def expected_utilities(
    scenario: Scenario, profile: StrategyTree, belief: BeliefState, x_now: str
) -> tuple[float, float, float]:
    """Exact window values of one joint profile from (belief, x_now).

    Sums over every state sequence of length ``horizon`` starting at
    ``x_now``; each sequence is weighted by its kernel probability under the
    type-specific actions, the averaging divisor is the horizon, and the
    receiver sum weights each step by the belief propagated along the path.
    """
    if profile.depth != scenario.horizon:
        raise ValueError(
            f"profile depth {profile.depth} does not match scenario horizon {scenario.horizon}"
        )
    al = scenario.alphabets
    tab = _Tables(scenario)
    x0 = al.state_index(x_now)
    pi = belief.pi_m
    T = scenario.horizon
    v_b = v_m = v_r = 0.0
    for path in itertools.product(range(tab.n_states), repeat=T - 1):
        labels = tuple(al.states[i] for i in path)
        seq_b, seq_m, seq_r = _profile_sequences(profile, al, labels, T)
        w_b, mean_b, w_m, mean_m, recv = _path_terms(tab, x0, pi, path, seq_b, seq_m, seq_r)
        v_b += w_b * mean_b
        v_m += w_m * mean_m
        v_r += recv
    return v_b, v_m, v_r


class _Enumeration:
    """Index-form tree sets plus per-path projections, reusable across solves.

    Label sequences of length ``horizon`` are numbered in
    ``itertools.product`` order. For every state path, ``path_sequences``
    holds the number of the sequence each sender branch and each receiver
    branch plays along that path.
    """

    def __init__(self, alphabets: Alphabets, horizon: int):
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        total = joint_profile_count(alphabets, horizon)
        if total > JOINT_PROFILE_LIMIT:
            raise EnumerationLimitError(
                f"{total} joint profiles exceed the exhaustive-scan limit of {JOINT_PROFILE_LIMIT}"
            )
        self.alphabets = alphabets
        self.horizon = horizon
        ns, na, nr = len(alphabets.states), len(alphabets.actions), len(alphabets.reactions)
        self.nodes = window_nodes(range(ns), horizon)
        self.label_nodes = [tuple(alphabets.states[i] for i in node) for node in self.nodes]
        node_pos = {node: i for i, node in enumerate(self.nodes)}
        n_nodes = len(self.nodes)
        self.sender_branches = list(itertools.product(range(na), repeat=n_nodes))
        self.receiver_branches = list(itertools.product(range(nr), repeat=n_nodes))
        self.paths = list(itertools.product(range(ns), repeat=horizon - 1))

        def digits(n_labels):
            return np.array(list(itertools.product(range(n_labels), repeat=horizon)))

        # step i's label in every sequence, shaped to broadcast over the
        # (benign sequence, malicious sequence, reaction sequence) grid
        steps_a, steps_r = digits(na), digits(nr)
        self.grid_steps = [
            (steps_a[:, i, None, None], steps_a[None, :, i, None], steps_r[None, None, :, i])
            for i in range(horizon)
        ]

        path_pos = np.array([[node_pos[path[:i]] for i in range(horizon)] for path in self.paths])

        def sequences(branches, n_labels):
            place = n_labels ** np.arange(horizon - 1, -1, -1)
            return np.array(branches)[:, path_pos] @ place

        seq_s = sequences(self.sender_branches, na)
        seq_r = sequences(self.receiver_branches, nr)
        self.path_sequences = [(seq_s[:, p], seq_r[:, p]) for p in range(len(self.paths))]

    def tree(self, branch, labels) -> dict[tuple[str, ...], str]:
        """Label-form node -> label map of one index branch."""
        return {n: labels[i] for n, i in zip(self.label_nodes, branch)}

    def profile(self, ib: int, im: int, ir: int) -> StrategyTree:
        actions = self.alphabets.actions
        return StrategyTree(
            depth=self.horizon,
            sender={
                BENIGN: self.tree(self.sender_branches[ib], actions),
                MALICIOUS: self.tree(self.sender_branches[im], actions),
            },
            receiver=self.tree(self.receiver_branches[ir], self.alphabets.reactions),
        )


def _path_term_grids(tab, enum, x0, pi, path):
    """Vectorised twin of ``_path_terms`` over every sequence triple.

    Repeats the scalar walk op for op, in the same order, on grids indexed by
    (benign sequence, malicious sequence, reaction sequence). Returns the
    benign term w_b * mean_u_b over (benign, reaction) sequences, the
    malicious term over (malicious, reaction) sequences and the receiver term
    over the full grid. The scalar walk's early return on a vanishing path
    becomes the ``dead`` mask on the receiver term; the sender terms there
    are already zero, since both weights are.
    """
    P, US_b, US_m, UR_b, UR_m = tab.arrays
    T = tab.horizon
    w_b = w_m = 1.0
    beta = pi
    u_b = u_m = 0.0
    r_b_sum = r_m_sum = 0.0
    x = x0
    for i, (a_b, a_m, r) in enumerate(enum.grid_steps):
        u_b = u_b + US_b[x, a_b, r]
        u_m = u_m + US_m[x, a_m, r]
        r_b_sum = r_b_sum + UR_b[x, a_b, r] * (1.0 - beta)
        r_m_sum = r_m_sum + UR_m[x, a_m, r] * beta
        if i + 1 < T:
            nxt = path[i]
            p_b = P[x, a_b, r, nxt]
            p_m = P[x, a_m, r, nxt]
            w_b = w_b * p_b
            w_m = w_m * p_m
            with np.errstate(all="ignore"):
                denom = p_b * (1.0 - beta) + p_m * beta
                step = (p_b != p_m) & (0.0 < beta) & (beta < 1.0) & (denom > MIN_MIXTURE)
                beta = np.where(step, p_m * beta / denom, beta)
            x = nxt
    dead = (w_b == 0.0) & (w_m == 0.0)
    t_r = np.where(dead, 0.0, (w_b * r_b_sum + w_m * r_m_sum) / T)
    return (w_b * (u_b / T))[:, 0, :], (w_m * (u_m / T))[0], t_r


def _value_matrices(tab, enum, pi, x0):
    """Fill the sender value matrices and the receiver value tensor.

    Per state path, one vectorised walk yields the terms of every sequence
    triple, and each branch gathers the terms of the sequences it plays
    along that path, one axis at a time so that only the last gather is as
    large as the receiver tensor. Paths are added in enumeration order from
    zero, as ``expected_utilities`` adds them, so every entry equals that
    scalar oracle's value for the same profile bit for bit.
    """
    nb = len(enum.sender_branches)
    nr = len(enum.receiver_branches)
    V_b = np.zeros((nb, nr))
    V_m = np.zeros((nb, nr))
    V_r = np.zeros((nb, nb, nr))
    for path, (seq_s, seq_r) in zip(enum.paths, enum.path_sequences):
        t_b, t_m, t_r = _path_term_grids(tab, enum, x0, pi, path)
        V_b += t_b.take(seq_s, 0).take(seq_r, 1)
        V_m += t_m.take(seq_s, 0).take(seq_r, 1)
        V_r += t_r.take(seq_s, 0).take(seq_s, 1).take(seq_r, 2)
    return V_b, V_m, V_r


def _scan(tab, enum, pi, x0):
    """Value every joint profile and find the first of least regret.

    Regret is the larger sender deviation gain where the receiver branch is
    a best response, and infinite elsewhere. Zero regret is a pure
    equilibrium; with none, the first minimizer is the defender-anchored
    fallback. Returns the value tensors, the regret tensor and that profile.
    """
    V_b, V_m, V_r = _value_matrices(tab, enum, pi, x0)
    regret = np.full(V_r.shape, np.inf)
    np.maximum(
        (V_b.max(axis=0) - V_b)[:, None, :],
        (V_m.max(axis=0) - V_m)[None, :, :],
        out=regret,
        where=V_r >= V_r.max(axis=2, keepdims=True),
    )
    first = np.unravel_index(int(np.argmin(regret)), regret.shape)
    return (V_b, V_m, V_r), regret, tuple(int(i) for i in first)


def solve_bne(scenario: Scenario, belief: BeliefState, x_now: str) -> EquilibriumResult:
    """Scan all joint pure profiles for a mutual best response.

    Each sender type's branch must be an argmax against the fixed receiver
    branch, and the receiver branch an argmax against the fixed sender
    branches, with every deviation valued by ``expected_utilities`` at the
    same (belief, x_now). The lexicographically first equilibrium in
    enumeration order is returned together with the total count found.

    Raises NoPureEquilibriumError when no profile passes; the error carries
    the defender-anchored fallback profile and its least regret, which is
    positive and so certifies non-existence.
    """
    tab = _Tables(scenario)
    enum = _Enumeration(scenario.alphabets, scenario.horizon)
    (V_b, V_m, V_r), regret, (ib, im, ir) = _scan(
        tab, enum, belief.pi_m, scenario.alphabets.state_index(x_now)
    )
    least = float(regret[ib, im, ir])
    if least > 0.0:
        raise NoPureEquilibriumError(
            f"no pure mutual best response among {regret.size} joint profiles "
            f"(least sender regret {least:.6g})",
            fallback_profile=enum.profile(ib, im, ir),
            fallback_regret=least,
        )
    count = int(np.count_nonzero(regret == 0.0))
    return EquilibriumResult(
        profile=enum.profile(ib, im, ir),
        sender_value_benign=float(V_b[ib, ir]),
        sender_value_malicious=float(V_m[im, ir]),
        receiver_value=float(V_r[ib, im, ir]),
        multiplicity=count,
        tie_broken=count > 1,
    )


class RecedingHorizonPolicy:
    """Per-step decision rule: solve the window at (belief, state), keep roots.

    Results are memoized on the exact (belief, state) pair; the belief key is
    the full double, no quantization. The roots are those of the first
    least-regret profile: the first pure equilibrium when one exists, else
    the defender-anchored fallback (receiver exactly best-responding, sender
    regret minimized) that ``solve_bne`` attaches to its error.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self._tables = _Tables(scenario)
        self._enum = _Enumeration(scenario.alphabets, scenario.horizon)
        al = scenario.alphabets
        # a branch's first entry is its root label
        self._sender_roots = [al.actions[b[0]] for b in self._enum.sender_branches]
        self._receiver_roots = [al.reactions[b[0]] for b in self._enum.receiver_branches]
        self._x_index: Callable[[str], int] = al.state_index
        self._cache: dict[tuple[float, str], tuple[str, str, str]] = {}

    def decide(self, pi_m: float, state: str) -> tuple[str, str, str]:
        """Root prescriptions (benign action, malicious action, reaction)."""
        key = (pi_m, state)
        roots = self._cache.get(key)
        if roots is None:
            _, _, (ib, im, ir) = _scan(self._tables, self._enum, pi_m, self._x_index(state))
            roots = (self._sender_roots[ib], self._sender_roots[im], self._receiver_roots[ir])
            self._cache[key] = roots
        return roots
