import itertools

import numpy as np
import pytest

from siggame.beliefs import BeliefState
from siggame.equilibrium import StrategyTree, expected_utilities
from siggame.model import (
    BENIGN,
    MALICIOUS,
    TYPES,
    Alphabets,
    Scenario,
    TransitionKernel,
    UtilityTables,
)
from siggame.scenario_io import load_scenario, resolve_config_path


@pytest.fixture(scope="session")
def table1():
    return load_scenario(resolve_config_path("table1"))


@pytest.fixture(scope="session")
def table4():
    return load_scenario(resolve_config_path("table4"))


def build_binary_scenario(
    rows,
    sender_util,
    receiver_util,
    prior=0.1,
    initial_state="x_n",
    true_type="malicious",
    horizon=1,
    episode_length=50,
    base_seed=7,
):
    """Assemble a two-state/two-action/two-reaction scenario from callables.

    ``rows`` maps (state, action) -> probability pair (reaction independent);
    the utility callables take (type, state, action, reaction).
    """
    alphabets = Alphabets(
        states=("x_n", "x_a"), actions=("a_b", "a_m"), reactions=("r_b", "r_m")
    )
    table = {}
    for (x, a), vec in rows.items():
        for r in alphabets.reactions:
            table[(x, a, r)] = tuple(vec)
    keys = list(itertools.product(TYPES, alphabets.states, alphabets.actions, alphabets.reactions))
    utilities = UtilityTables(
        sender={k: float(sender_util(*k)) for k in keys},
        receiver={k: float(receiver_util(*k)) for k in keys},
    )
    return Scenario(
        kernel=TransitionKernel(alphabets=alphabets, table=table),
        utilities=utilities,
        initial_state=initial_state,
        prior=prior,
        true_type=true_type,
        horizon=horizon,
        episode_length=episode_length,
        base_seed=base_seed,
    )


@pytest.fixture
def scenario_builder():
    return build_binary_scenario


def labelled_alphabets(n_states, n_actions, n_reactions):
    """Alphabets of the given sizes, labelled x0.., a0.. and r0.."""
    return Alphabets(
        states=tuple(f"x{i}" for i in range(n_states)),
        actions=tuple(f"a{i}" for i in range(n_actions)),
        reactions=tuple(f"r{i}" for i in range(n_reactions)),
    )


def random_scenario(al, horizon, rng, integer=False):
    """A scenario over ``al`` with kernel rows and utilities drawn from ``rng``.

    Kernel rows come from small integer weights, so zero probabilities
    (vanishing paths) and equal likelihoods under both actions are common.
    Utilities are uniform on [-5, 5), or with ``integer`` drawn from -2..2,
    so that equal values, and so ties between profiles, are common too.
    """
    table = {}
    for key in itertools.product(al.states, al.actions, al.reactions):
        weights = rng.integers(0, 3, size=len(al.states)).astype(float)
        if weights.sum() == 0.0:
            weights[rng.integers(len(weights))] = 1.0
        table[key] = tuple(weights / weights.sum())
    keys = list(itertools.product(TYPES, al.states, al.actions, al.reactions))

    def utility():
        return float(rng.integers(-2, 3) if integer else rng.uniform(-5, 5))

    utilities = UtilityTables(
        sender={k: utility() for k in keys},
        receiver={k: utility() for k in keys},
    )
    return Scenario(
        kernel=TransitionKernel(alphabets=al, table=table),
        utilities=utilities,
        initial_state=al.states[0],
        prior=0.5,
        true_type=MALICIOUS,
        horizon=horizon,
    )


def brute_force_solve(scenario, pi, state):
    """Solve one window by valuing every joint pure profile with
    ``expected_utilities``: the tests' equilibrium oracle.

    The trees are built here, apart from the solver's enumeration, in its
    documented order: nodes by depth, then state order, labels in alphabet
    order, and joint profiles nested as (benign, malicious, receiver tree).
    A profile's regret is its larger sender deviation gain where its
    receiver tree is a best response, and infinite elsewhere.

    Returns the first profile of zero regret (or None), the number of such
    profiles, the first profile of least regret (the fallback) and that
    profile's (benign, malicious) deviation gains.
    """
    al, horizon = scenario.alphabets, scenario.horizon
    nodes = [n for d in range(horizon) for n in itertools.product(al.states, repeat=d)]

    def trees(labels):
        return [dict(zip(nodes, seq)) for seq in itertools.product(labels, repeat=len(nodes))]

    senders, receivers = trees(al.actions), trees(al.reactions)
    profiles = [
        StrategyTree(depth=horizon, sender={BENIGN: b, MALICIOUS: m}, receiver=r)
        for b, m, r in itertools.product(senders, senders, receivers)
    ]
    belief = BeliefState(pi)
    values = np.array([expected_utilities(scenario, p, belief, state) for p in profiles])
    v_b, v_m, v_r = values.T.reshape(3, len(senders), len(senders), len(receivers))
    gain_b = v_b.max(axis=0) - v_b
    gain_m = v_m.max(axis=1) - v_m
    receiver_best = v_r == v_r.max(axis=2, keepdims=True)
    regret = np.where(receiver_best, np.maximum(gain_b, gain_m), np.inf).ravel()
    first = int(regret.argmin())  # the first of least regret in enumeration order
    fallback = profiles[first]
    gains = (float(gain_b.flat[first]), float(gain_m.flat[first]))
    equilibrium = fallback if regret[first] == 0.0 else None
    return equilibrium, int(np.count_nonzero(regret == 0.0)), fallback, gains
