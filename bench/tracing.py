"""In-memory spans around the package's public entry points.

The benchmark wraps each layer's functions where their consumers bind them
(``siggame.simulate.sample_transition``, ``siggame.cli.write_batch``, ...),
so no source file of the package changes. A span is (name, start, end,
parent span, run id); spans live in flat arrays while the workload runs and
are written out once at the end. Counters recorded at the same boundaries
(steps, bytes) sit beside them, keyed by run id.
"""

from __future__ import annotations

import contextlib
import functools
import os
import statistics
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

# Span names. A decide call is a miss the first time the policy instance sees
# its (belief, state) key, a hit afterwards.
POLICY_BUILD = "equilibrium.policy_build"
DECIDE_MISS = "equilibrium.decide.miss"
DECIDE_HIT = "equilibrium.decide.hit"
SOLVE_BNE = "equilibrium.solve_bne"
SAMPLE = "model.sample_transition"
POSTERIOR = "beliefs.posterior_malicious"
COEFFICIENT = "beliefs.coefficient_value"
RUN_EPISODE = "simulate.run_episode"
RUN_BATCH = "simulate.run_batch"
CONVERGENCE = "diagnostics.convergence_report"
AGREEMENT = "diagnostics.agreement_series"
LOAD = "scenario_io.load_scenario"
WRITE_BATCH = "scenario_io.write_batch"
WRITE_TRAJECTORY = "scenario_io.write_trajectory"
READ_TRAJECTORY = "scenario_io.read_trajectory"
CLI_MAIN = "cli.main"

# Per-layer metrics: (name, unit). Every traced run reports all of them; a
# layer the workload never enters reads 0.
PER_LAYER = (
    ("equilibrium.decide_calls", "count"),
    ("equilibrium.solves", "count"),
    ("equilibrium.memo_hit_ratio", "ratio"),
    ("equilibrium.solve_ms_p50", "ms"),
    ("equilibrium.solve_ms_p90", "ms"),
    ("equilibrium.hit_us_p50", "us"),
    ("equilibrium.decide_s", "s"),
    ("equilibrium.solve_bne_calls", "count"),
    ("equilibrium.solve_s", "s"),
    ("equilibrium.policy_build_s", "s"),
    ("scenario_io.load_s", "s"),
    ("simulate.steps", "count"),
    ("simulate.self_s", "s"),
    ("simulate.aggregate_s", "s"),
    ("model.sample_calls", "count"),
    ("model.sample_s", "s"),
    ("beliefs.update_calls", "count"),
    ("beliefs.update_s", "s"),
    ("diagnostics.report_calls", "count"),
    ("diagnostics.report_s", "s"),
    ("scenario_io.write_s", "s"),
    ("scenario_io.files_written", "count"),
    ("scenario_io.bytes_written", "bytes"),
    ("scenario_io.read_s", "s"),
    ("scenario_io.bytes_read", "bytes"),
    ("cli.self_s", "s"),
    ("bench.untraced_wall_s", "s"),
    ("bench.traced_wall_s", "s"),
    ("bench.trace_overhead_s", "s"),
)

# Counts that must repeat exactly between traced repetitions of one input.
COUNTS = tuple(name for name, unit in PER_LAYER if unit in ("count", "bytes"))

SETUP_RUN = 0


class Tracer:
    """Span recorder; ``run`` tags every span opened until it changes."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run_of = array("i")
        self.counters: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.run = SETUP_RUN
        self._stack: list[int] = []

    def intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run_of.append(self.run)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: int) -> None:
        self.counters[self.run][name] += amount

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` inside a span; ``on_result(args, result)`` runs after the
        span closes, so its own cost is not charged to the layer."""
        name_id = self.intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span,name,start,end,parent,run\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.name_id[i]]},{self.start[i]!r},{self.end[i]!r},"
                    f"{self.parent[i]},{self.run_of[i]}\n"
                )


def _policy_class(tracer: Tracer, base):
    build_id = tracer.intern(POLICY_BUILD)
    miss_id = tracer.intern(DECIDE_MISS)
    hit_id = tracer.intern(DECIDE_HIT)

    class TracedPolicy(base):
        def __init__(self, *args, **kwargs):
            index = tracer.open(build_id)
            try:
                super().__init__(*args, **kwargs)
            finally:
                tracer.close(index)
            self._bench_seen: set = set()

        def decide(self, pi_m, state):
            key = (pi_m, state)
            if key in self._bench_seen:
                name_id = hit_id
            else:
                self._bench_seen.add(key)
                name_id = miss_id
            index = tracer.open(name_id)
            try:
                return super().decide(pi_m, state)
            finally:
                tracer.close(index)

    return TracedPolicy


@contextlib.contextmanager
def installed(tracer: Tracer, siggame):
    """Patch the package's public entry points where consumers bind them and
    restore the originals on exit."""
    cli, eq, sim, sio = siggame.cli, siggame.equilibrium, siggame.simulate, siggame.scenario_io

    def steps(args, traj):
        tracer.count("simulate.steps", len(traj))

    def written(args, paths):
        tracer.count("scenario_io.files_written", len(paths))
        tracer.count("scenario_io.bytes_written", sum(os.path.getsize(p) for p in paths))

    def read(args, traj):
        tracer.count("scenario_io.bytes_read", os.path.getsize(args[0]))

    run_batch = tracer.wrap(RUN_BATCH, sim.run_batch)
    convergence = tracer.wrap(CONVERGENCE, sim.convergence_report)
    agreement = tracer.wrap(AGREEMENT, sim.agreement_series)
    load = tracer.wrap(LOAD, sio.load_scenario)
    patches = [
        (sim, "RecedingHorizonPolicy", _policy_class(tracer, sim.RecedingHorizonPolicy)),
        (sim, "sample_transition", tracer.wrap(SAMPLE, sim.sample_transition)),
        (sim, "posterior_malicious", tracer.wrap(POSTERIOR, sim.posterior_malicious)),
        (sim, "coefficient_value", tracer.wrap(COEFFICIENT, sim.coefficient_value)),
        (sim, "run_episode", tracer.wrap(RUN_EPISODE, sim.run_episode, steps)),
        (sim, "run_batch", run_batch),
        (sim, "convergence_report", convergence),
        (sim, "agreement_series", agreement),
        (eq, "solve_bne", tracer.wrap(SOLVE_BNE, eq.solve_bne)),
        (sio, "load_scenario", load),
        (sio, "write_trajectory", tracer.wrap(WRITE_TRAJECTORY, sio.write_trajectory)),
        (cli, "main", tracer.wrap(CLI_MAIN, cli.main)),
        (cli, "run_batch", run_batch),
        (cli, "convergence_report", convergence),
        (cli, "agreement_series", agreement),
        (cli, "load_scenario", load),
        (cli, "write_batch", tracer.wrap(WRITE_BATCH, cli.write_batch, written)),
        (cli, "read_trajectory", tracer.wrap(READ_TRAJECTORY, cli.read_trajectory, read)),
    ]
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    try:
        for module, attr, replacement in patches:
            setattr(module, attr, replacement)
        yield tracer
    finally:
        for module, attr, original in originals:
            setattr(module, attr, original)


def _percentile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _median(values):
    return statistics.median(values) if values else 0.0


@dataclass
class RunTotals:
    """One run id's spans, summed by name."""

    total: dict = field(default_factory=lambda: defaultdict(float))
    self_time: dict = field(default_factory=lambda: defaultdict(float))
    calls: dict = field(default_factory=lambda: defaultdict(int))
    durations: dict = field(default_factory=lambda: defaultdict(list))
    episodes_in_batch: float = 0.0  # run_episode time under run_batch spans


def per_run_totals(tracer: Tracer) -> dict[int, RunTotals]:
    """Per run id: total and self seconds by span name, span counts, and the
    raw durations of the spans whose latency distribution is reported."""
    n = len(tracer.start)
    names = [tracer.names[k] for k in tracer.name_id]
    duration = [tracer.end[i] - tracer.start[i] for i in range(n)]
    child_time = [0.0] * n
    runs: dict[int, RunTotals] = defaultdict(RunTotals)
    for i in range(n):
        p = tracer.parent[i]
        if p >= 0:
            child_time[p] += duration[i]
            if names[i] == RUN_EPISODE and names[p] == RUN_BATCH:
                runs[tracer.run_of[i]].episodes_in_batch += duration[i]
    for i in range(n):
        name = names[i]
        run = runs[tracer.run_of[i]]
        run.total[name] += duration[i]
        run.self_time[name] += duration[i] - child_time[i]
        run.calls[name] += 1
        if name in (DECIDE_MISS, DECIDE_HIT, SOLVE_BNE, POLICY_BUILD, LOAD):
            run.durations[name].append(duration[i])
    return runs


def _rep_metrics(run: RunTotals, counters) -> dict[str, float]:
    total, self_time, calls = run.total, run.self_time, run.calls
    decide_calls = calls[DECIDE_MISS] + calls[DECIDE_HIT]
    return {
        "equilibrium.decide_calls": decide_calls,
        "equilibrium.solves": calls[DECIDE_MISS],
        "equilibrium.memo_hit_ratio": calls[DECIDE_HIT] / decide_calls if decide_calls else 0.0,
        "equilibrium.decide_s": total[DECIDE_MISS] + total[DECIDE_HIT],
        "equilibrium.solve_bne_calls": calls[SOLVE_BNE],
        "simulate.steps": counters.get("simulate.steps", 0),
        "simulate.self_s": self_time[RUN_EPISODE],
        "simulate.aggregate_s": total[RUN_BATCH] - run.episodes_in_batch,
        "model.sample_calls": calls[SAMPLE],
        "model.sample_s": total[SAMPLE],
        "beliefs.update_calls": calls[POSTERIOR] + calls[COEFFICIENT],
        "beliefs.update_s": total[POSTERIOR] + total[COEFFICIENT],
        "diagnostics.report_calls": calls[CONVERGENCE] + calls[AGREEMENT],
        "diagnostics.report_s": total[CONVERGENCE] + total[AGREEMENT],
        "scenario_io.write_s": total[WRITE_BATCH],
        "scenario_io.files_written": counters.get("scenario_io.files_written", 0),
        "scenario_io.bytes_written": counters.get("scenario_io.bytes_written", 0),
        "scenario_io.read_s": total[READ_TRAJECTORY],
        "scenario_io.bytes_read": counters.get("scenario_io.bytes_read", 0),
        "cli.self_s": self_time[CLI_MAIN],
    }


def per_layer_metrics(tracer: Tracer, traced_walls, untraced_walls):
    """Per-layer values over the traced repetitions (run ids 1, 2, ...).

    Times are medians over repetitions of each repetition's total; latency
    percentiles pool every span of the kind; counts come from the first
    repetition. Returns (metrics, mismatches) where mismatches lists the
    counts that differed between repetitions of the same input.
    """
    runs = per_run_totals(tracer)
    reps = sorted(r for r in runs if r != SETUP_RUN)
    per_rep = [_rep_metrics(runs[r], tracer.counters.get(r, {})) for r in reps]
    metrics: dict[str, float] = {}
    mismatches = []
    for name, unit in PER_LAYER:
        values = [m[name] for m in per_rep if name in m]
        if not values:
            continue  # filled from pooled spans below
        if name in COUNTS:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                mismatches.append(f"{name} differs between repetitions: {values}")
        else:
            metrics[name] = _median(values)

    def pooled(span, from_setup=False):
        out = []
        for r, run in runs.items():
            if r != SETUP_RUN or from_setup:
                out.extend(run.durations[span])
        return out

    misses = pooled(DECIDE_MISS)
    metrics["equilibrium.solve_ms_p50"] = _percentile(misses, 50) * 1e3
    metrics["equilibrium.solve_ms_p90"] = _percentile(misses, 90) * 1e3
    metrics["equilibrium.hit_us_p50"] = _median(pooled(DECIDE_HIT)) * 1e6
    metrics["equilibrium.solve_s"] = _median(pooled(SOLVE_BNE))
    metrics["equilibrium.policy_build_s"] = _median(pooled(POLICY_BUILD, from_setup=True))
    metrics["scenario_io.load_s"] = _median(pooled(LOAD, from_setup=True))
    untraced, traced = _median(untraced_walls), _median(traced_walls)
    metrics["bench.untraced_wall_s"] = untraced
    metrics["bench.traced_wall_s"] = traced
    metrics["bench.trace_overhead_s"] = traced - untraced
    return {name: metrics[name] for name, _ in PER_LAYER}, mismatches
