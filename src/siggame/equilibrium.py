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

The solver gets these values for all joint profiles at once from
``_WindowScan``, built per root state: it reads the scenario's kernel and
utility tables into index arrays, then runs one numpy walk over every (state
path, benign, malicious, reaction) label sequence, after which each branch
gathers its sequence terms path by path. Only the receiver's values depend on
the belief, so the walk is split there: the path weights, sender values and
sender deviation gains are built once per state, and each new belief re-runs
only the belief walk and the receiver pass. That pass fills the receiver
values into one reused, cache-sized block of benign rows at a time and takes
each block's best responses and least regret before moving on. No regret in a
benign row is below the row's least benign deviation gain, a belief-free
bound, so the pass reads the rows in order of that bound and stops once no
row left can beat the least regret found. No receiver tensor is kept, and
the pass builds no array with one entry per joint profile; a proof fills
again only the rows it reads.
``expected_utilities`` values a single profile with a separate scalar walk
over the scenario's label-keyed tables and serves as the independent oracle;
both add the same terms in the same order, so they agree bit for bit.

The receding-horizon policy scans only where it has not proven the answer.
The scan's choice is the first profile, in a belief-free order by regret and
then flat index, whose receiver branch is a best response, and the belief
moves the receiver values only. The guarded Bayes step is monotone in the
belief, so the scan's own belief walk, run from the scanned belief and from
an interval's other end, bounds every receiver term over the interval. From
those bounds, path by path, ``_WindowScan.prove`` proves that the choice
stays a best response and that no profile ahead of it becomes one. It tries a
ladder of ever shorter intervals on each side, several rungs to one walk.
Each state keeps the intervals proven so far, and a belief inside one is
answered by a bisect.

Tie-breaking is lexicographic in enumeration order: trees are enumerated by
assigning labels (in alphabet order) to nodes ordered by depth then state
order, and joint profiles are scanned as (benign tree, malicious tree,
receiver tree) in that nesting. The same order decides which of several
equilibria is reported; multiplicity is never collapsed silently.
"""

from __future__ import annotations

import itertools
import logging
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .beliefs import BeliefState, MIN_MIXTURE
from .model import BENIGN, MALICIOUS, Scenario

# Refuse exhaustive scans beyond this many joint profiles.
JOINT_PROFILE_LIMIT = 10_000_000

# A certified interval reaches at least this far to one side of its scanned
# belief. A belief closer than that to a region edge on both sides is stored
# as an interval of its own, while its state's table holds fewer than
# MAX_INTERVALS intervals.
MIN_REACH = 2.0**-20
MAX_INTERVALS = 1024

# A scan fills and reads this many bytes of receiver values at a time, so that
# they are still in a core's cache; a proof's index arrays are no larger.
_BLOCK_BYTES = 2**19

# A proof walks the belief from its scanned belief and up to this many rung
# ends at once: they share the walk's numpy calls, and a larger group walks
# more rungs past the first one that holds.
_RUNGS_PER_WALK = 4

_log = logging.getLogger(__name__)


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


def _path_terms(scenario, profile, pi, x0, path):
    """Contribution of one state path under one joint profile.

    This scalar walk is the body of the ``expected_utilities`` oracle. It
    reads the scenario's label-keyed kernel rows and utility tables, and the
    profile's prescription at each node ``path[:i]``; ``_WindowScan`` repeats
    it on whole sequence grids for the solver.

    Returns (w_b, mean_u_b, w_m, mean_u_m, receiver_term): the path weight and
    average sender utility per type, and the already-weighted receiver term.
    The belief is propagated along the path; endpoint beliefs are absorbing,
    and a vanishing mixture with the belief strictly inside (0, 1) implies
    both weights are zero, so the frozen belief never touches the value.
    """
    T = scenario.horizon
    row, US, UR = scenario.kernel.row, scenario.utilities.sender, scenario.utilities.receiver
    w_b = w_m = 1.0
    beta = pi
    u_b = u_m = 0.0
    r_b_sum = r_m_sum = 0.0
    x = x0
    for i in range(T):
        node = path[:i]
        try:
            a_b = profile.sender[BENIGN][node]
            a_m = profile.sender[MALICIOUS][node]
            r = profile.receiver[node]
        except KeyError:
            raise ValueError(f"profile has no prescription at node {node}") from None
        u_b += US[(BENIGN, x, a_b, r)]
        u_m += US[(MALICIOUS, x, a_m, r)]
        r_b_sum += UR[(BENIGN, x, a_b, r)] * (1.0 - beta)
        r_m_sum += UR[(MALICIOUS, x, a_m, r)] * beta
        if i + 1 < T:
            nxt = path[i]
            j = scenario.alphabets.state_index(nxt)
            p_b = row(x, a_b, r)[j]
            p_m = row(x, a_m, r)[j]
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


def expected_utilities(
    scenario: Scenario, profile: StrategyTree, belief: BeliefState, x_now: str
) -> tuple[float, float, float]:
    """Exact window values of one joint profile from (belief, x_now).

    Sums over every state sequence of length ``horizon`` starting at
    ``x_now``; each sequence is weighted by its kernel probability under the
    type-specific actions, the averaging divisor is the horizon, and the
    receiver sum weights each step by the belief propagated along the path.
    A state, action or reaction label outside the alphabets is a ValueError
    that names it.
    """
    if profile.depth != scenario.horizon:
        raise ValueError(
            f"profile depth {profile.depth} does not match scenario horizon {scenario.horizon}"
        )
    al = scenario.alphabets
    # name a label outside the alphabets before a table lookup meets it
    al.state_index(x_now)
    for tree, kind, labels in (
        (profile.sender[BENIGN], "action", al.actions),
        (profile.sender[MALICIOUS], "action", al.actions),
        (profile.receiver, "reaction", al.reactions),
    ):
        for label in tree.values():
            if label not in labels:
                raise ValueError(f"unknown {kind} label {label!r}")
    v_b = v_m = v_r = 0.0
    for path in itertools.product(al.states, repeat=scenario.horizon - 1):
        w_b, mean_b, w_m, mean_m, recv = _path_terms(scenario, profile, belief.pi_m, x_now, path)
        v_b += w_b * mean_b
        v_m += w_m * mean_m
        v_r += recv
    return v_b, v_m, v_r


class _WindowScan:
    """The window game at one root state, split at the belief.

    Path weights and sender values, and so the sender deviation gains, do not
    depend on the belief; only the receiver values do, through the belief
    propagated along each state path. The constructor runs the belief-free
    half of the walk once. It keeps each path's weights, its dead mask and its
    receiver-utility and likelihood grids, and fills ``V_b``, ``V_m`` and the
    gains. From the benign gains it takes each benign row's least gain,
    ``row_bounds``, which no regret in the row is below at any belief, and
    ``row_order``, the rows sorted by bound and then by row. ``_walk`` is the
    belief walk: ``scan`` runs it at one belief and then fills the receiver
    values block by block (``_blocks``) in ``row_order``, finding the least
    regret, until no row left can hold a smaller one. ``prove`` builds a
    ladder of belief intervals on each side of the scanned belief, the
    rungs, and proves the scan's choice on the longest rung it can;
    ``_term_bounds`` runs one walk from the scanned belief and a group of
    rung ends, and ``_cells`` reads which grid cells tie off the tie table,
    ``_differs``, built once per window.

    The constructor refuses a window of more than ``JOINT_PROFILE_LIMIT``
    joint profiles before it builds anything; the horizon is a Scenario's, so
    at least 1. It then lays out the trees. History nodes, ``label_nodes``,
    are ordered by depth, then state order, with the root first; a branch
    gives each node a label number, and ``sender_branches`` and
    ``receiver_branches`` list the branches in ``itertools.product`` order,
    which ``profile`` reads back into labels. Label sequences of length
    ``horizon`` are numbered in ``itertools.product`` order too:
    ``sequences`` holds two arrays, indexed (state path, sender branch) and
    (state path, receiver branch), of the number of the sequence each branch
    plays along that path. The constructor reads the scenario's kernel rows
    and utility tables into index arrays, ``P[x, a, r, x']`` and one
    (x, a, r) grid per utility table and type. The walk runs on grids indexed
    by (state path, benign sequence, malicious sequence, reaction sequence)
    and repeats the arithmetic of ``_path_terms`` op for op, in the same
    order, on the same floats, so every entry equals that scalar oracle's
    value for the same profile bit for bit.
    The scalar walk's early return on a vanishing path needs no mask: both
    weights of a ``dead`` cell are zero, so its terms are zeros, which sums
    that start from +0 add without changing a bit. A sender value gathers,
    path by path, the terms of the sequences its branches play; a receiver
    value adds, path by path, a slice of that path's terms spread over the
    other two branches (see ``_blocks``). Both add paths in enumeration order
    from zero, as ``expected_utilities`` adds them.
    """

    def __init__(self, scenario: Scenario, state: str):
        al, T = scenario.alphabets, scenario.horizon
        ns, na, nr = len(al.states), len(al.actions), len(al.reactions)
        # base ** n_nodes profiles; n_nodes is exact below 64 and 64+ past it
        base, n_nodes = na * na * nr, sum(ns**d for d in range(min(T, 64)))
        if base ** min(n_nodes, 64) > JOINT_PROFILE_LIMIT:
            total = base**n_nodes if n_nodes < 64 else f"at least {base}**64"
            raise EnumerationLimitError(
                f"{total} joint profiles exceed the exhaustive-scan limit of {JOINT_PROFILE_LIMIT}"
            )
        self.alphabets, self.horizon = al, T
        nodes = [n for d in range(T) for n in itertools.product(range(ns), repeat=d)]
        self.label_nodes = [tuple(al.states[i] for i in node) for node in nodes]
        node_pos = {node: i for i, node in enumerate(nodes)}
        self.sender_branches = list(itertools.product(range(na), repeat=len(nodes)))
        self.receiver_branches = list(itertools.product(range(nr), repeat=len(nodes)))
        nb = len(self.sender_branches)
        self.shape = (nb, nb, len(self.receiver_branches))
        paths = list(itertools.product(range(ns), repeat=T - 1))
        path_pos = np.array([[node_pos[path[:i]] for i in range(T)] for path in paths])

        def sequences(branches, n_labels):
            place = n_labels ** np.arange(T - 1, -1, -1)
            return np.ascontiguousarray((np.array(branches)[:, path_pos] @ place).T)

        self.sequences = (
            sequences(self.sender_branches, na),
            sequences(self.receiver_branches, nr),
        )
        keys = list(itertools.product(al.states, al.actions, al.reactions))
        P = np.array([scenario.kernel.row(*key) for key in keys]).reshape(ns, na, nr, -1)
        US_b, US_m, UR_b, UR_m = (
            np.array([table[(t, *key)] for key in keys]).reshape(ns, na, nr)
            for table in (scenario.utilities.sender, scenario.utilities.receiver)
            for t in (BENIGN, MALICIOUS)
        )
        # the state at each step of each path, and the digits of every action
        # and every reaction sequence, one row per step
        x0 = al.state_index(state)
        states = np.array([(x0, *path) for path in paths])[:, :, None, None, None]
        digits_a, digits_r = (
            np.array(list(itertools.product(range(n), repeat=T))).T for n in (na, nr)
        )
        grid = (len(paths), na**T, na**T, nr**T)

        def grid_of(a):
            # same-shape operands make the per-belief walk's numpy calls cheaper
            out = np.empty(grid, np.asarray(a).dtype)
            np.copyto(out, a)
            return out

        w_b = w_m = 1.0
        u_b = u_m = 0.0
        self.steps = []
        for i in range(T):
            # step i's state and labels, shaped to broadcast over the (path,
            # benign sequence, malicious sequence, reaction sequence) grid
            x = states[:, i]
            a_b, a_m, r = digits_a[i, :, None, None], digits_a[i, None, :, None], digits_r[i]
            u_b = u_b + US_b[x, a_b, r]
            u_m = u_m + US_m[x, a_m, r]
            bayes = None
            if i + 1 < T:
                nxt = states[:, i + 1]
                p_b = P[x, a_b, r, nxt]
                p_m = P[x, a_m, r, nxt]
                w_b = w_b * p_b
                w_m = w_m * p_m
                bayes = (grid_of(p_b), grid_of(p_m), grid_of(p_b != p_m))
            self.steps.append((grid_of(UR_b[x, a_b, r]), grid_of(UR_m[x, a_m, r]), bayes))
        self.w_b, self.w_m = grid_of(w_b), grid_of(w_m)
        self.dead = (self.w_b == 0.0) & (self.w_m == 0.0)
        t_b = w_b * (u_b / T)
        t_m = w_m * (u_m / T)
        self.V_b = np.zeros(self.shape[1:])
        self.V_m = np.zeros(self.shape[1:])
        for p, (seq_s, seq_r) in enumerate(zip(*self.sequences)):
            self.V_b += t_b[p, :, 0].take(seq_s, 0).take(seq_r, 1)
            self.V_m += t_m[p, 0].take(seq_s, 0).take(seq_r, 1)
        self.gain_b = self.V_b.max(axis=0) - self.V_b
        self.gain_m = self.V_m.max(axis=0) - self.V_m
        self.row_bounds = self.gain_b.min(axis=1)
        self.row_order = np.argsort(self.row_bounds, kind="stable")

    def profile(self, ib: int, im: int, ir: int) -> StrategyTree:
        """The joint profile of benign branch ``ib``, malicious branch ``im``
        and receiver branch ``ir``, in label form."""

        def tree(branch, labels):
            return {n: labels[i] for n, i in zip(self.label_nodes, branch)}

        actions = self.alphabets.actions
        return StrategyTree(
            depth=self.horizon,
            sender={
                BENIGN: tree(self.sender_branches[ib], actions),
                MALICIOUS: tree(self.sender_branches[im], actions),
            },
            receiver=tree(self.receiver_branches[ir], self.alphabets.reactions),
        )

    def _walk(self, beta):
        """Run the belief walk from ``beta``, a float or an array that
        broadcasts against the grid. Yields, per step, the receiver-utility
        grids and each cell's belief.

        Bayes' rule moves a cell's belief only where the two likelihoods
        differ and the mixture exceeds ``MIN_MIXTURE``; this guarded step is
        nondecreasing in the belief (see ``_term_bounds``). ``_path_terms``
        also holds the beliefs 0 and 1 fixed, but the update already returns
        both exactly: ``p_m * 0 / p_b`` is 0 and ``p_m * 1 / p_m`` is 1.
        """
        for g_b, g_m, bayes in self.steps:
            yield g_b, g_m, beta
            if bayes is not None:
                p_b, p_m, moves = bayes
                denom = p_b * (1.0 - beta) + p_m * beta
                with np.errstate(all="ignore"):
                    beta = np.where(moves & (denom > MIN_MIXTURE), p_m * beta / denom, beta)

    def _blocks(self, spreads, rows):
        """Fill the receiver values of the benign rows ``rows``, in the order
        given, from ``scan``'s path spreads, in blocks of at most
        ``_BLOCK_BYTES``.

        Yields each block's row numbers and its values, shaped (row,
        malicious branch, receiver branch). Every block is written into the
        same buffer, so a block is valid only until the next one is asked
        for, and a block that is never asked for is never filled. A row
        starts at +0 and adds, path by path, the slice of the spread that its
        sequence on that path selects, a view.
        """
        nb, _, nr = self.shape
        rows = np.asarray(rows)
        plays = self.sequences[0].T[rows].tolist()  # each row's sequence number on each path
        per_block = max(1, _BLOCK_BYTES // (8 * nb * nr))
        buffer = np.empty((min(per_block, len(rows)), nb, nr))
        for lo in range(0, len(rows), per_block):
            block_plays = plays[lo : lo + per_block]
            block = buffer[: len(block_plays)]
            block.fill(0.0)
            for row, seqs in zip(block, block_plays):
                for spread, s in zip(spreads, seqs):
                    row += spread[s]
            yield rows[lo : lo + per_block], block

    def _receiver_terms(self, pi: float):
        """Each grid cell's receiver term at belief ``pi``, summed along
        ``_walk`` in ``_path_terms``' order."""
        r_b_sum = r_m_sum = 0.0
        for g_b, g_m, beta in self._walk(pi):
            r_b_sum = r_b_sum + g_b * (1.0 - beta)
            r_m_sum = r_m_sum + g_m * beta
        return (self.w_b * r_b_sum + self.w_m * r_m_sum) / self.horizon

    def scan(self, pi: float):
        """Value the joint profiles at belief ``pi``; find the first of least regret.

        A profile's regret is the larger sender deviation gain where its
        receiver branch is a best response, and infinite elsewhere. Zero
        regret is a pure equilibrium; with none, the first minimizer in
        enumeration order is the defender-anchored fallback. Returns the
        path spreads, that profile, its receiver value, its regret and the
        number of profiles of zero regret.

        Each path's terms are spread once over (benign sequence, malicious
        branch, receiver branch), the spreads that ``_blocks`` and ``prove``
        read. The receiver values are then filled a block of
        benign rows at a time, and a block's best responses and least regret
        are found while it is still in cache. No receiver tensor is kept:
        the largest arrays a scan builds are the spreads and one block.

        The rows are read in ``row_order``: by ``row_bounds``, the least
        benign gain of the row, which no regret in the row is below, then
        by row. The scan stops before a block whose first row's bound
        exceeds the least regret found, since no later row can hold a
        smaller one, or an equal one. Ties between blocks go to the smaller
        flat index, so the choice is the first least-regret profile in
        enumeration order, as in a scan of every row. A zero regret lies
        only in a row of bound 0, and all of those are read when the least
        regret is 0, so the zero count is exact.
        """
        t_r = self._receiver_terms(pi)
        seq_s, seq_r = self.sequences
        spreads = [t.take(r, 2).take(s, 1) for t, s, r in zip(t_r, seq_s, seq_r)]
        nb, _, nr = self.shape
        bounds = self.row_bounds[self.row_order]
        # the least regret and the flat index of its first profile so far
        least, first, value, zeros = math.inf, nb * nb * nr, None, 0
        read = 0
        for rows, block in self._blocks(spreads, self.row_order):
            pairs = block.reshape(-1, nr)
            # an argmax and a gather are faster than a max along the short last axis
            best = pairs[np.arange(len(pairs)), pairs.argmax(axis=1)]
            k_b, m, r = np.unravel_index(np.flatnonzero(pairs >= best[:, None]), block.shape)
            regret = np.maximum(self.gain_b[rows[k_b], r], self.gain_m[m, r])
            low = float(regret.min())
            hits = np.flatnonzero(regret == low)
            flat = (rows[k_b[hits]] * nb + m[hits]) * nr + r[hits]
            k = int(flat.argmin())
            if (low, int(flat[k])) < (least, first):
                least, first = low, int(flat[k])
                k = hits[k]
                value = float(block[k_b[k], m[k], r[k]])
            zeros += int(np.count_nonzero(regret == 0.0))
            read += len(rows)
            if read < nb and bounds[read] > least:
                break
        b, rest = divmod(first, nb * nr)
        return spreads, (b, *divmod(rest, nr)), value, least, zeros

    @cached_property
    def _margin(self):
        """How far below zero a proven value difference must lie.

        1e-9 of the largest receiver value a profile can have absorbs the
        rounding of the value sums. The float walk can also move a belief by
        its rounding times the largest likelihood ratio per Bayes step, so
        the margin grows by that ratio to the power of the step count.

        Infinite, so that no bound proves anything, where a moving cell's
        smaller likelihood is positive and at most 2 * ``MIN_MIXTURE``: the
        walk is then not monotone (see ``_term_bounds``). No belief is read.
        """
        scale = max(float(np.abs(g).max()) for g_b, g_m, _ in self.steps for g in (g_b, g_m))
        ratio = 1.0
        for _, _, bayes in self.steps[:-1]:
            p_b, p_m, moves = bayes
            both = moves & (p_b > 0.0) & (p_m > 0.0)
            if both.any():
                big, small = np.maximum(p_b, p_m)[both], np.minimum(p_b, p_m)[both]
                if small.min() <= 2.0 * MIN_MIXTURE:
                    return math.inf
                ratio = max(ratio, float((big / small).max()))
        return 1e-9 * scale * len(self.dead) * ratio ** (self.horizon - 1)

    def _term_bounds(self, pi: float, ends):
        """Per-cell lower and upper receiver terms over the beliefs between
        ``pi`` and each of ``ends``, one rung of a ladder each.

        Runs one ``_walk`` from ``pi`` and every end, stacked on a leading
        axis. A Bayes step maps a moving cell's belief b to ``p_m * b /
        denom`` if ``denom = p_b * (1 - b) + p_m * b`` exceeds ``MIN_MIXTURE``
        and keeps b otherwise, both nondecreasing up to the rounding that
        ``_margin`` absorbs. If p_m > p_b, the posterior is above b and denom
        rises with b; if p_m < p_b, the posterior is below b and denom falls.
        Either way the map jumps up where the guard starts or stops holding.
        A zero likelihood leaves denom the float ``p_m * b`` or ``p_b * (1 -
        b)``, monotone in b, and the posterior exactly 1 or 0; likelihoods
        above 2 * ``MIN_MIXTURE`` never trip the guard; a smaller positive
        one makes ``_margin`` infinite. So each cell's belief at each step
        lies between the walks from ``pi`` and from an end, and the step's
        term, linear in it, between the two rows' terms. Every row is walked
        on its own floats, so each end gets the bytes that a walk of ``pi``
        and that end alone would give.

        Returns (lower, upper): the bounds, shaped (end, *grid).
        """
        w_b, w_m = self.w_b, self.w_m
        lower = upper = 0.0
        for g_b, g_m, beta in self._walk(np.array([pi, *ends])[:, None, None, None, None]):
            term = w_b * (g_b * (1.0 - beta)) + w_m * (g_m * beta)
            lower = lower + np.minimum(term[:1], term[1:])
            upper = upper + np.maximum(term[:1], term[1:])
        return lower / self.horizon, upper / self.horizon

    @cached_property
    def _differs(self):
        """The window's tie table, negated and flat: per (path, benign
        sequence, malicious sequence, reaction sequence, reaction sequence),
        whether the two reaction sequences' cells may have different terms.
        Two cells with equal receiver utilities and likelihoods at every step
        tie at every belief, as do two dead cells. It depends on no belief
        and no profile, so it is built once, on the window's first proof."""
        both_dead = self.dead[..., :, None] & self.dead[..., None, :]
        equal = True
        for g_b, g_m, bayes in self.steps:
            for g in (g_b, g_m, *(bayes or ())[:2]):
                equal = equal & (g[..., :, None] == g[..., None, :])
        return ~(both_dead | equal).ravel()

    def _cells(self, ib, im, r_x, r_y):
        """Flat grid cells, one row per path, of receiver branches ``r_x``
        and ``r_y`` against the sender pairs (``ib``, ``im``), and where the
        two cells' terms may differ, read off ``_differs``; all four are
        index arrays that broadcast together. The cells share a path and
        sender sequences, so only cells along the reaction axis are compared."""
        n_paths, n_a, _, n_r = self.dead.shape
        seq_s, seq_r = self.sequences
        base = ((np.arange(n_paths)[:, None] * n_a + seq_s[:, ib]) * n_a + seq_s[:, im]) * n_r
        x, y = base + seq_r[:, r_x], base + seq_r[:, r_y]
        return x, y, self._differs[x * n_r + seq_r[:, r_y]]

    def _ahead(self, ib, im, ir):
        """The profiles ahead of (``ib``, ``im``, ``ir``) in the belief-free
        scan order (by regret were the receiver best-responding, the larger
        sender gain ``k``, then by flat index), as (rows, mask): the benign
        rows, ascending, that hold one, plus ``ib``, and a boolean mask over
        them shaped (row, malicious branch, receiver branch). A row whose
        ``row_bounds`` entry exceeds ``k`` holds only larger keys."""
        nr = self.shape[2]
        k = max(self.gain_b[ib, ir], self.gain_m[im, ir])
        rows = np.flatnonzero(self.row_bounds <= k)  # holds ib, as gain_b[ib, ir] <= k
        gain_b = self.gain_b[rows, None]
        mask = (gain_b <= k) & (self.gain_m <= k)
        behind = (gain_b < k) & (self.gain_m < k)
        i = int(np.searchsorted(rows, ib))
        mask[i].flat[im * nr + ir :] = behind[i].flat[im * nr + ir :]
        mask[i + 1 :] = behind[i + 1 :]
        keep = mask.any(axis=(1, 2))
        keep[i] = True
        return rows[keep], mask[keep]

    def prove(self, spreads, choice, pi: float, lo: float, hi: float):
        """Prove that ``scan`` picks ``choice`` around ``pi`` within [``lo``,
        ``hi``]; ``spreads`` and ``choice`` are ``scan``'s output at ``pi``.
        Returns (ends, rungs tried, sides proven), the ends None if no side
        holds.

        Each side's ladder of ends is known before any proof: the reach is
        first the distance from ``pi`` to that side's bound, then halved
        while it is at least ``MIN_REACH``, and the ends are ``max(lo, pi -
        reach)`` below ``pi`` and ``min(hi, pi + reach)`` above it. A side
        keeps its first rung that holds and tallies the rungs up to it, or
        the whole ladder. The rungs go ``_RUNGS_PER_WALK`` to one
        ``_term_bounds`` walk, the next group only when no rung of the last
        one holds, with the rival check and the drift as arrays over the
        group. If a value difference that a proof needs is within the margin
        already at ``pi``, no rung is tried: (None, 0, 0).

        The profiles ahead are ``_ahead``'s mask, and the receiver values at
        ``pi`` are filled again by ``_blocks`` on its rows alone; the proof
        keeps of them each pair's best response and, in mask order, each
        profile's gap to it, not the values.

        Each value difference is bounded path by path from ``_term_bounds``,
        and a path on which both profiles land in cells with equal inputs,
        or in two dead cells, adds exactly 0 (see ``_cells``). The bounds
        hold as the guarded Bayes step is nondecreasing in the belief; in the
        one window kind where it may not be, ``_margin`` is infinite. A rung
        holds if its bounds prove, with ``_margin`` to spare:

        (a) ``choice`` stays a receiver best response: against its sender
            pair every other receiver branch is worth less, or the same on
            every path;
        (b) no profile ahead of ``choice`` in the scan order becomes one:
            each is worth less than the receiver branch that is best against
            its pair at ``pi``. A profile whose gap at ``pi`` exceeds twice
            the largest drift of a value over the rung's interval needs no
            path-by-path bound.

        A rung's close profiles are read off their flat positions in the
        mask, in chunks of at most ``_BLOCK_BYTES`` per index array, and the
        first chunk that fails ends that rung.
        """
        nb, _, nr = self.shape
        ib, im, ir = choice
        rows, ahead = self._ahead(ib, im, ir)
        rivals = np.delete(np.arange(nr), ir)
        best = np.zeros((nb, nb), np.intp)  # per sender pair, on ``rows``
        gaps, done = [], 0
        for block_rows, block in self._blocks(spreads, rows):
            best[block_rows] = block.argmax(axis=2)
            below = block.max(axis=2, keepdims=True) - block
            gaps.append(below[ahead[done : done + len(block_rows)]])
            if ib in block_rows:
                choice_gaps = below[int(np.searchsorted(block_rows, ib)), im, rivals]
            done += len(block_rows)
        gaps = np.concatenate(gaps)
        rival_cells = self._cells([ib], [im], rivals, [ir])
        rival_ties = ~rival_cells[2].any(axis=0)
        margin = self._margin
        if np.any(~rival_ties & (choice_gaps <= margin)) or np.any(gaps <= margin):
            return None, 0, 0  # then no interval around the scanned belief is provable
        flat = np.flatnonzero(ahead)  # each gap's profile, flat within ``ahead``
        n_paths = len(self.dead)
        chunk = _BLOCK_BYTES // (8 * n_paths)

        def upper(t_lo, t_hi, cells):
            # t_lo and t_hi hold flat cells on their last axis, one row per rung
            x, y, differ = cells
            return np.where(differ, t_hi[..., x] - t_lo[..., y], 0.0).sum(axis=-2)

        def holds(t_lo, t_hi, drift: float) -> bool:
            close = np.flatnonzero(gaps <= 2.0 * drift + margin)
            for i in range(0, close.size, chunk):
                k, rest = np.divmod(flat[close[i : i + chunk]], nb * nr)
                m, r = np.divmod(rest, nr)
                b = rows[k]
                cells = self._cells(b, m, r, best[b, m])
                if not np.all(upper(t_lo, t_hi, cells) <= -margin):
                    return False
            return True

        ends, tried, proven = [pi, pi], 0, 0
        for side, bound in enumerate((lo, hi)):
            reach, ladder = abs(bound - pi), []
            while reach >= MIN_REACH:
                ladder.append(max(lo, pi - reach) if side == 0 else min(hi, pi + reach))
                reach /= 2.0
            for g in range(0, len(ladder), _RUNGS_PER_WALK):
                group = ladder[g : g + _RUNGS_PER_WALK]
                t_lo, t_hi = (t.reshape(len(group), -1) for t in self._term_bounds(pi, group))
                best_kept = np.all(rival_ties | (upper(t_lo, t_hi, rival_cells) <= -margin), axis=1)
                drift = (t_hi - t_lo).reshape(len(group), n_paths, -1).max(axis=2).sum(axis=1)
                kept = np.flatnonzero(best_kept).tolist()
                j = next((j for j in kept if holds(t_lo[j], t_hi[j], float(drift[j]))), None)
                if j is not None:
                    tried += g + j + 1
                    proven += 1
                    ends[side] = group[j]
                    break
            else:
                tried += len(ladder)
        return (None if ends[0] == ends[1] else tuple(ends)), tried, proven


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
    window = _WindowScan(scenario, x_now)
    _, (ib, im, ir), value, least, zeros = window.scan(belief.pi_m)
    profile = window.profile(ib, im, ir)
    if least > 0.0:
        raise NoPureEquilibriumError(
            f"no pure mutual best response among {math.prod(window.shape)} joint profiles "
            f"(least sender regret {least:.6g})",
            fallback_profile=profile,
            fallback_regret=least,
        )
    return EquilibriumResult(
        profile=profile,
        sender_value_benign=float(window.V_b[ib, ir]),
        sender_value_malicious=float(window.V_m[im, ir]),
        receiver_value=value,
        multiplicity=zeros,
    )


class _RegionTable:
    """One state's window and its certified belief intervals.

    Interval k covers [edges[2k], edges[2k + 1]) and its entry,
    entries[2k + 1], is (roots, least regret); the gaps between intervals
    hold None, so a lookup is one bisect and one list index.
    """

    __slots__ = ("window", "edges", "entries")

    def __init__(self, window: _WindowScan):
        self.window = window
        self.edges: list[float] = []
        self.entries: list[tuple[tuple[str, str, str], float] | None] = [None]

    def gap(self, pi: float) -> tuple[float, float]:
        """First and last double of the uncovered stretch of (0, 1) around ``pi``."""
        edges = self.edges
        i = bisect_right(edges, pi)
        lo = edges[i - 1] if i else math.ulp(0.0)
        hi = math.nextafter(edges[i] if i < len(edges) else 1.0, 0.0)
        return lo, hi

    def insert(self, lo: float, hi: float, entry: tuple[tuple[str, str, str], float]) -> None:
        """Cover [lo, hi], which lies in one gap, merging it into a touching
        interval with an equal entry."""
        edges, entries = self.edges, self.entries
        i = bisect_right(edges, lo)
        edges[i:i] = [lo, math.nextafter(hi, 2.0)]
        entries[i : i + 1] = [None, entry, None]
        for j in (i + 1, i - 1):  # the right neighbour, then the left one
            if 0 < j < len(edges) - 1 and edges[j] == edges[j + 1] and entries[j] == entries[j + 2]:
                del edges[j : j + 2]
                del entries[j + 1 : j + 3]


class RecedingHorizonPolicy:
    """Per-step decision rule: solve the window at (belief, state), keep roots.

    The roots are those of the first least-regret profile, read off the
    enumeration as ``solve_bne`` reads them: the first pure equilibrium when
    one exists, else the defender-anchored fallback (receiver exactly
    best-responding, sender regret minimized) that it attaches to its error.

    Each state keeps its window, built with the policy, and a table of belief
    intervals on which ``_WindowScan.scan`` is proven to pick one profile,
    filled in as ``decide`` is called. A belief inside a stored interval is
    answered by a bisect. Any other belief is scanned, which re-runs only the
    window's belief walk and receiver pass. ``_WindowScan.prove`` then tries
    to prove its choice on each side of the belief, along a ladder of ends
    in the belief's uncovered stretch; the first rung proven on each side
    gives that side's end, and the two sides make one stored interval.
    Beliefs 0 and 1, which Bayes' rule keeps, are stored alone after one
    scan, and so is a belief that neither side covers, such as a region
    edge, while the state's table holds fewer than ``MAX_INTERVALS``
    intervals; past that such a belief is scanned each time, so the tables
    stay bounded. An oversized window fails the constructor; a belief
    outside [0, 1], or NaN, or an unknown state label raises ValueError.

    ``counts`` tallies scans, proofs tried and accepted, and scanned beliefs
    that no proof covered. Each stored interval is logged at DEBUG level on
    the ``siggame.equilibrium`` logger.
    """

    def __init__(self, scenario: Scenario):
        states = scenario.alphabets.states
        self._regions = {x: _RegionTable(_WindowScan(scenario, x)) for x in states}
        self.counts = dict.fromkeys(("scans", "proofs_tried", "proofs_accepted", "uncovered"), 0)

    def decide(self, pi_m: float, state: str) -> tuple[str, str, str]:
        """Root prescriptions (benign action, malicious action, reaction)."""
        try:
            table = self._regions[state]
        except KeyError:
            raise ValueError(f"unknown state label {state!r}") from None
        entry = table.entries[bisect_right(table.edges, pi_m)]
        if entry is not None:
            return entry[0]
        return self._scan(table, pi_m, state)

    def _scan(self, table: _RegionTable, pi_m: float, state: str) -> tuple[str, str, str]:
        BeliefState(pi_m)  # NaN too; such a belief is never inside an interval
        window, counts = table.window, self.counts
        spreads, choice, _, least, _ = window.scan(pi_m)
        counts["scans"] += 1
        entry = (window.profile(*choice).root_prescriptions(), least)
        if pi_m in (0.0, 1.0):
            ends = (pi_m, pi_m)
        else:
            ends, tried, proven = window.prove(spreads, choice, pi_m, *table.gap(pi_m))
            counts["proofs_tried"] += tried
            counts["proofs_accepted"] += proven
        if ends is None:
            counts["uncovered"] += 1
            if len(table.edges) < 2 * MAX_INTERVALS:
                ends = (pi_m, pi_m)
        if ends is not None:
            table.insert(*ends, entry)
            _log.debug("%s: [%r, %r] plays %s, least regret %r", state, *ends, *entry)
        return entry[0]
