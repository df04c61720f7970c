"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to watch the lines appear.
Every test pins its stated tolerance and runtime budget and asserts them.

Criterion 4 is checked against the model's own prediction. It was first
stated as "at least 90 of 100 hundred-step ``table1`` episodes reach
sustained agreement by step 60". Nothing in the paper or the README promises
that rate (the paper's claim is asymptotic: the belief converges, so the
attacker's rational play converges to a harmless action), and the model
cannot reach it:

- Pooling is never an equilibrium below belief 1/2. A pooled root teaches the
  receiver nothing, so it plays ``r_b`` at every node, and then the malicious
  sender gains from ``a_m`` (window value 1.1 against 1.05 at ``x_n``). So
  below 1/2 every pure equilibrium separates at the root, as
  ``(a_b, a_m, r_b)``.
- The policy separates below pi*_x = P_b(x->x_a)^2 / (P_b^2 + P_m^2): 1/5 at
  ``x_n`` and 4/13 at ``x_a``. From there up to 1/2 no pure equilibrium
  exists and the fallback pools with ``r_b``; above 1/2 it pools with
  ``r_m``.
- Enumerating the closed loop exactly over (state, belief) gives
  P(sustained agreement by step 60, terminal belief < 1) = 0.633097 for this
  policy, which matches the 66/100 the batch shows.
- A policy that pools at both states from belief 1/5 onwards pools at ``x_a``
  earlier than any pure-equilibrium policy may, so it bounds them all. Its
  exact P is 0.898407 (87/100 at the config seeds): the 90/100 bound is above
  that ceiling.

The restated check keeps the batch and the per-episode condition. It
bisects the policy's region edges and asserts them equal to pi*_x, computes P
exactly, and requires the count to lie in the two-sided Binomial(100, P)
region whose tails are each at most 1e-4 ([45, 80] for P = 0.6331).
"""

import itertools
import math
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import siggame
from conftest import brute_force_solve, build_binary_scenario
from siggame.beliefs import BeliefState, posterior_malicious
from siggame.cli import main
from siggame.diagnostics import kl_decay_estimate, random_walk_belief, submartingale_margin
from siggame.equilibrium import NoPureEquilibriumError, RecedingHorizonPolicy, solve_bne
from siggame.model import MALICIOUS
from siggame.scenario_io import load_scenario, resolve_config_path, write_batch
from siggame.simulate import run_batch

TABLE1_ROWS = {
    ("x_n", "a_b"): (0.9, 0.1),
    ("x_a", "a_b"): (0.8, 0.2),
    ("x_n", "a_m"): (0.8, 0.2),
    ("x_a", "a_m"): (0.7, 0.3),
}


def _report(number: int, name: str, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"[criterion {number}] {name}: {verdict} ({detail})")


def test_criterion_1_bayes_update_exactness():
    start = time.perf_counter()
    priors = [i / 10 for i in range(1, 10)]
    likelihoods = [i / 10 for i in range(11)]
    worst = 0.0
    checked = 0
    for pi in priors:
        for p_b in likelihoods:
            for p_m in likelihoods:
                denom = Fraction(p_b) * (1 - Fraction(pi)) + Fraction(p_m) * Fraction(pi)
                if denom == 0:
                    continue
                exact = float(Fraction(p_m) * Fraction(pi) / denom)
                got = posterior_malicious(pi, p_b, p_m)
                worst = max(worst, abs(got - exact))
                checked += 1
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-12 and elapsed < 1.0
    _report(1, "Bayes-update exactness", passed, f"{checked} grid points, max err {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_2_exact_submartingale_margins(table1):
    # every root triple, at each state the true type reaches within four steps
    # of the initial state under it, at every grid belief
    start = time.perf_counter()
    al = table1.alphabets
    beliefs = [i / 10 for i in range(1, 10)]
    worst = math.inf
    checked = 0
    for roots in itertools.product(al.actions, al.actions, al.reactions):
        applied = roots[1] if table1.true_type == MALICIOUS else roots[0]
        reached = {table1.initial_state}
        for _ in range(4):
            reached |= {
                state
                for x in reached
                for state, p in zip(al.states, table1.kernel.row(x, applied, roots[2]))
                if p > 0.0
            }
        for state in reached:
            for pi in beliefs:
                worst = min(worst, submartingale_margin(table1, roots, state, pi))
                checked += 1
    elapsed = time.perf_counter() - start
    passed = worst >= -1e-12 and elapsed < 10.0 and checked == 144
    _report(2, "one-step belief drift never negative", passed, f"{checked} margins, min {worst:.3e}, {elapsed:.2f}s")
    assert checked == 144  # 8 root triples x 2 states x 9 beliefs
    assert worst >= -1e-12
    assert elapsed < 10.0


def test_criterion_3_equilibrium_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(424242)
    agreements = 0
    existence = {"eq": 0, "none": 0}
    for _ in range(100):
        draws = {}

        def value(*key):
            if key not in draws:
                draws[key] = float(rng.uniform(-5.0, 5.0))
            return draws[key]

        scenario = build_binary_scenario(
            rows=TABLE1_ROWS,
            sender_util=lambda t, x, a, r: value("s", t, x, a, r),
            receiver_util=lambda t, x, a, r: value("r", t, x, a, r),
            horizon=1,
        )
        pi = float(rng.uniform(0.05, 0.95))
        x = "x_n" if rng.random() < 0.5 else "x_a"
        expected, _, fallback, gains = brute_force_solve(scenario, pi, x)
        try:
            got = solve_bne(scenario, BeliefState(pi), x).profile
            existence["eq"] += 1
        except NoPureEquilibriumError as err:
            got = None
            existence["none"] += 1
            assert err.fallback_profile == fallback
            assert err.fallback_regret == max(gains)
        assert got == expected
        agreements += 1
    elapsed = time.perf_counter() - start
    passed = agreements == 100 and elapsed < 5.0
    _report(3, "equilibrium oracle equivalence", passed, f"100/100 agree ({existence}), {elapsed:.2f}s")
    assert agreements == 100
    assert elapsed < 5.0


AGREEMENT_BY_STEP = 60
BINOMIAL_TAIL = 1e-4


def _policy_regions(policy, state: str):
    """Constant-prescription belief regions of ``policy`` at ``state``.

    Returns the sorted lower edges (the first is 0.0) and each region's
    prescription. A change is bracketed on a 40-cell belief grid, then
    bisected down to adjacent doubles, so each edge is the first double that
    prescribes the new triple.
    """
    points = [i / 40 for i in range(41)]
    edges = [0.0]
    for lo, hi in zip(points, points[1:]):
        below = policy.decide(lo, state)
        if policy.decide(hi, state) == below:
            continue
        while (mid := (lo + hi) / 2) not in (lo, hi):
            if policy.decide(mid, state) == below:
                lo = mid
            else:
                hi = mid
        edges.append(hi)
    return edges, [policy.decide(edge, state) for edge in edges]


def _posterior(pi, p_b: float, p_m: float):
    """``posterior_malicious`` over an array of beliefs, in the same float
    operations, frozen at endpoint beliefs as in ``run_episode``."""
    if p_b == p_m:
        return pi
    inside = (pi > 0.0) & (pi < 1.0)
    denom = np.where(inside, p_b * (1.0 - pi) + p_m * pi, 1.0)
    return np.where(inside, p_m * pi / denom, pi)


def _exact_agreement_probability(scenario, regions, by_step: int):
    """P(sustained agreement by ``by_step``, terminal belief < 1), no sampling.

    Walks the closed loop of ``run_episode`` over the distribution of
    (state, belief) pairs. Each pair plays its region's prescription; mass
    that disagrees at step ``by_step`` or later fails and is dropped; each
    successor of the applied action gets its kernel probability and the
    Bayes-updated belief. Pairs merge only when their beliefs are identical
    doubles. Returns P and the beliefs of the final support.
    """
    al = scenario.alphabets
    applied = 1 if scenario.true_type == MALICIOUS else 0
    xs = np.array([al.state_index(scenario.initial_state)])
    pis = np.array([scenario.prior])
    mass = np.array([1.0])
    for k in range(1, scenario.episode_length + 1):
        parts = []
        for i, state in enumerate(al.states):
            at = xs == i
            pi_at, mass_at = pis[at], mass[at]
            edges, prescriptions = regions[state]
            region = np.searchsorted(edges, pi_at, side="right") - 1
            for r, (a_b, a_m, reaction) in enumerate(prescriptions):
                if a_b != a_m and k >= by_step:
                    continue
                pi, w = pi_at[region == r], mass_at[region == r]
                rows = (
                    scenario.kernel.row(state, a_b, reaction),
                    scenario.kernel.row(state, a_m, reaction),
                )
                for j, p in enumerate(rows[applied]):
                    if p > 0.0 and pi.size:
                        successor = _posterior(pi, rows[0][j], rows[1][j])
                        parts.append((np.full(pi.size, j), successor, w * p))
        xs, pis, mass = (np.concatenate(column) for column in zip(*parts))
        order = np.lexsort((pis, xs))
        xs, pis, mass = xs[order], pis[order], mass[order]
        first = np.ones(xs.size, dtype=bool)
        first[1:] = (xs[1:] != xs[:-1]) | (pis[1:] != pis[:-1])
        starts = np.flatnonzero(first)
        xs, pis, mass = xs[starts], pis[starts], np.add.reduceat(mass, starts)
    return float(mass[pis < 1.0].sum()), pis


def _binomial_region(n: int, p: float, tail: float) -> tuple[int, int]:
    """Widest-excluding two-sided region [lo, hi] of Binomial(n, p) with
    P(X < lo) <= tail and P(X > hi) <= tail."""
    pmf = [math.comb(n, k) * p**k * (1.0 - p) ** (n - k) for k in range(n + 1)]
    lo, below = 0, 0.0
    while below + pmf[lo] <= tail:
        below += pmf[lo]
        lo += 1
    hi, above = n, 0.0
    while above + pmf[hi] <= tail:
        above += pmf[hi]
        hi -= 1
    return lo, hi


def test_criterion_4_agreement_regime(table1):
    start = time.perf_counter()
    scenario = replace(table1, episode_length=100)
    summary, _ = run_batch(scenario, 100, base_seed=scenario.base_seed)
    good = sum(
        1
        for sustained, terminal in zip(summary.agreement_steps, summary.terminal_beliefs)
        if sustained is not None
        and sustained <= AGREEMENT_BY_STEP
        and terminal is not None
        and terminal < 1.0
    )

    policy = RecedingHorizonPolicy(scenario)
    regions = {x: _policy_regions(policy, x) for x in scenario.alphabets.states}
    x_a = scenario.alphabets.state_index("x_a")
    for x, (edges, prescriptions) in regions.items():
        a_b, a_m, reaction = prescriptions[0]
        assert a_b != a_m, f"policy pools at belief 0 in {x}"
        assert all(b == m for b, m, _ in prescriptions[1:]), f"{x}: {prescriptions}"
        p_b = scenario.kernel.row(x, a_b, reaction)[x_a]
        p_m = scenario.kernel.row(x, a_m, reaction)[x_a]
        assert abs(edges[1] - p_b**2 / (p_b**2 + p_m**2)) <= 1e-12, (x, edges[1])

    p, support = _exact_agreement_probability(scenario, regions, AGREEMENT_BY_STEP)
    # the vectorised update is the package's scalar one, bit for bit
    for x, (_, prescriptions) in regions.items():
        a_b, a_m, reaction = prescriptions[0]
        rows = zip(scenario.kernel.row(x, a_b, reaction), scenario.kernel.row(x, a_m, reaction))
        for p_b, p_m in rows:
            scalar = [posterior_malicious(pi, p_b, p_m) for pi in support.tolist()]
            assert np.array_equal(_posterior(support, p_b, p_m), scalar)
    # Pooling at both states from the lower edge on bounds every policy that
    # plays a pure equilibrium wherever one exists.
    pool_from = min(e[1] for e, _ in regions.values())
    idealized = {x: ([0.0, pool_from, *e[2:]], pres) for x, (e, pres) in regions.items()}
    ceiling, _ = _exact_agreement_probability(scenario, idealized, AGREEMENT_BY_STEP)
    lo, hi = _binomial_region(100, p, BINOMIAL_TAIL)
    elapsed = time.perf_counter() - start
    passed = lo <= good <= hi and elapsed < 60.0
    _report(
        4,
        "fast-kernel agreement regime",
        passed,
        f"{good}/100 episodes with sustained agreement by step {AGREEMENT_BY_STEP}; "
        f"model {100 * p:.1f}/100, region [{lo}, {hi}]; "
        f"original target 90/100 against ceiling P = {ceiling:.4f}, {elapsed:.1f}s",
    )
    assert p == pytest.approx(0.633097, abs=1e-6)
    assert elapsed < 60.0
    assert lo <= good <= hi, (
        f"{good}/100 episodes reached sustained agreement by step {AGREEMENT_BY_STEP}; "
        f"the model predicts {100 * p:.2f} with tails <= {BINOMIAL_TAIL} outside [{lo}, {hi}]"
    )


def test_criterion_5_slow_kernel_orders_agreement(table1, table4):
    start = time.perf_counter()
    medians = {}
    for name, scenario in (("table1", table1), ("table4", table4)):
        summary, _ = run_batch(scenario, 100, base_seed=scenario.base_seed)
        # order-completion: episodes that never sustain agreement sort last
        steps = [s if s is not None else math.inf for s in summary.agreement_steps]
        medians[name] = statistics.median(steps)
    elapsed = time.perf_counter() - start
    passed = medians["table4"] > medians["table1"] and elapsed < 180.0
    _report(
        5,
        "harder detection delays agreement",
        passed,
        f"median sustained-agreement step {medians['table1']} vs {medians['table4']}, {elapsed:.1f}s",
    )
    assert medians["table4"] > medians["table1"]
    assert medians["table1"] < math.inf
    assert elapsed < 180.0


def test_criterion_6_no_oscillation(table1):
    start = time.perf_counter()
    summary, _ = run_batch(table1, 200, base_seed=table1.base_seed)
    quiet = sum(1 for osc in summary.oscillations if osc is not None and osc < 0.05)
    elapsed = time.perf_counter() - start
    passed = quiet >= 190 and elapsed < 120.0
    _report(6, "trailing beliefs settle", passed, f"{quiet}/200 quiet tails, {elapsed:.1f}s")
    assert quiet >= 190
    assert elapsed < 120.0


def test_criterion_7_random_walk_formula():
    start = time.perf_counter()
    value = random_walk_belief(0.25, 1, 0.1)
    exceeds = True
    for p in [i / 20 for i in range(1, 20)]:
        for k in (1, 2, 3, 4):
            for pi0 in [i / 10 for i in range(1, 10)]:
                out = random_walk_belief(p, k, pi0)
                if abs(p - 0.5) < 1e-12:
                    exceeds &= out == pi0
                else:
                    exceeds &= out > pi0
    elapsed = time.perf_counter() - start
    passed = abs(value - 0.1290323) <= 1e-6 and exceeds and elapsed < 1.0
    _report(7, "balanced-walk belief formula", passed, f"value {value:.7f}, grid ok={exceeds}, {elapsed:.2f}s")
    assert value == pytest.approx(0.1290323, abs=1e-6)
    assert exceeds
    assert elapsed < 1.0


def test_criterion_8_kl_rate_value_and_nonnegativity():
    start = time.perf_counter()
    value = kl_decay_estimate((0.8, 0.2), (0.9, 0.1))
    rng = np.random.default_rng(1618)
    nonneg = True
    for _ in range(10_000):
        p = rng.random(4) + 1e-12
        q = rng.random(4) + 1e-12
        nonneg &= kl_decay_estimate(tuple(p / p.sum()), tuple(q / q.sum())) >= 0.0
    elapsed = time.perf_counter() - start
    passed = abs(value - 0.0444028) <= 1e-6 and nonneg and elapsed < 1.0
    _report(8, "divergence rate estimate", passed, f"value {value:.7f}, nonneg={nonneg}, {elapsed:.2f}s")
    assert value == pytest.approx(0.0444028, abs=1e-6)
    assert nonneg
    assert elapsed < 1.0


def test_criterion_9_determinism(tmp_path):
    start = time.perf_counter()
    config = str(resolve_config_path("table1"))
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--config", config, "--seed", "31", "--steps", "50"]
    assert main(args + ["--out", str(first)]) == 0
    # second run in a separate interpreter process, started next to the
    # package imported here so that it runs the same code
    proc = subprocess.run(
        [sys.executable, "-m", "siggame.cli", *args, "--out", str(second)],
        capture_output=True,
        text=True,
        cwd=Path(siggame.__file__).parents[1],
    )
    assert proc.returncode == 0, proc.stderr
    files_identical = first.read_bytes() == second.read_bytes()

    scenario = replace(load_scenario(config), episode_length=50)
    seq_summary, seq_trajs = run_batch(scenario, 4, base_seed=8, workers=1)
    par_summary, par_trajs = run_batch(scenario, 4, base_seed=8, workers=2)
    write_batch(seq_summary, seq_trajs, tmp_path / "seq")
    write_batch(par_summary, par_trajs, tmp_path / "par")
    batch_identical = all(
        (tmp_path / "seq" / name).read_bytes() == (tmp_path / "par" / name).read_bytes()
        for name in ["episode_0000.csv", "episode_0003.csv", "summary.json"]
    ) and asdict(seq_summary) == asdict(par_summary)
    elapsed = time.perf_counter() - start
    passed = files_identical and batch_identical and elapsed < 30.0
    _report(
        9,
        "bit-reproducible outputs",
        passed,
        f"rerun identical={files_identical}, parallel identical={batch_identical}, {elapsed:.1f}s",
    )
    assert files_identical
    assert batch_identical
    assert elapsed < 30.0
