#!/usr/bin/env python3
"""siggame benchmark: closed-loop batches, horizon-3 window solves and the CLI
write/read pipeline, with a traced per-layer split.

Run from the repository root; the package is imported from ``src/``:

    python3 bench/run.py --workload batch_table1_h2 --seed 20260808 --seconds 40 --trace 0
    python3 bench/run.py --workload all            # every workload, one table
    python3 bench/run.py --write-manifest          # regenerate BENCHMARK.json
    python3 bench/run.py --write-golden            # re-pin bench/golden.json

Every workload runs closed loop in one process, serially. Its input is a
fixed list of units drawn from the seed (a ``run_batch`` call, one
``solve_bne`` call, a ``siggame batch`` call and the ``siggame diagnose``
call that reads its output). A run times every unit once, then times them
again in the same order until ``--seconds`` is spent. Right before and after
each unit it also times a fixed reference kernel that does not touch
siggame (``reference_seconds``). A shared host can run the same code at half
speed for minutes at a time, so raw seconds drift between runs by more than
any change worth measuring; a unit's time divided by the reference time
around it does not. The first output of each unit is checked outside the
timed region; every repetition must reproduce it. The run prints one JSON
object as its
last line. With ``--trace 0`` that object holds the end-to-end metrics; with
``--trace 1`` the run alternates untraced and traced repetitions of unit 0
and reports the per-layer split instead. A results file with provenance and
per-unit detail goes to ``.bench_out/results/``.

End-to-end metrics, the same three on every workload:

- ``setup_s``: median over five fresh interpreters of the time from process
  start to ready (siggame imported, scenarios resolved and loaded, the
  receding-horizon policy built where the workload decides).
- ``ops_per_ref``: the input's operations per reference-kernel time, that
  is, its operations over the sum of its units' costs, where a unit's cost
  is the median over its repetitions of its seconds divided by the mean of
  the two reference times around it. An operation is an episode (the batch,
  and the pipeline, where each episode is written by ``siggame batch`` and
  read back by ``siggame diagnose``) or a ``solve_bne`` call (solve_h3).
  The raw rate, operations per second, is printed and kept in the results
  file beside it.
- ``peak_rss_mb``: the process's peak RSS after set-up and unit 0.

Every output is checked: golden digests and records at the default seed
(``golden.json``), invariants on every seed (``checks.py``). A failed check
counts the operation as failed; it is never skipped.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN_PATH = BENCH_DIR / "golden.json"
MANIFEST_PATH = ROOT / "BENCHMARK.json"

DEFAULT_SEED = 20260808  # the bundled scenarios' config seed
RUN_SECONDS = 40
SETUP_SAMPLES = 5
REFERENCE_STEPS = 60_000
SIZES = ("full", "tiny")
_PHI64 = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1

END_TO_END = (
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "ops_per_ref", "unit": "1/ref", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
)


class BenchError(RuntimeError):
    """The benchmark cannot run here (as opposed to a wrong program output)."""


def import_siggame():
    """Import the package from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "siggame" / "__init__.py").is_file():
        raise BenchError(f"no siggame package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import siggame
    import siggame.cli

    if Path(siggame.__file__).resolve().parent != (SRC / "siggame").resolve():
        raise BenchError(f"imported siggame from {siggame.__file__}, not from {SRC}")
    return siggame


def load_scenarios(sg, configs, horizon):
    """Resolve and load bundled scenarios at the workload's horizon."""
    return {
        name: replace(sg.load_scenario(sg.scenario_io.resolve_config_path(name)), horizon=horizon)
        for name in configs
    }


def batch_base_seed(seed: int, unit: int, n: int) -> int:
    """Base seed whose batch of ``n`` episodes is episodes unit*n ... of the
    batch at ``seed``: run_batch mixes base + (i+1)*phi64 per episode."""
    return (seed + unit * n * _PHI64) & _MASK64


def episode_name(global_index: int) -> str:
    return f"episode_{global_index:06d}.csv"


@contextlib.contextmanager
def _cwd(path):
    before = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(before)


class Workload:
    """One benchmark workload: inputs from the seed, a timed unit, checks.

    The input is units 0 .. ``units`` - 1. ``run_unit(j)`` performs unit j
    and returns (operations, timed seconds, output); ``artifacts`` maps
    golden names to (operation index or None for the whole unit, bytes);
    ``invariants`` returns (operation index or None, message) problems that
    must hold on any seed; ``fingerprint`` digests an output so that a
    repetition can be compared with the checked first run.
    """

    name = ""
    why = ""
    op = ""
    configs: tuple[str, ...] = ()
    horizon = 2
    uses_policy = True
    unit_sizes = {"full": 1, "tiny": 1}
    unit_counts = {"full": 1, "tiny": 1}

    def __init__(self, sg, seed: int, size: str, workdir: Path):
        self.sg = sg
        self.seed = seed
        self.size = size
        self.n = self.unit_sizes[size]
        self.units = self.unit_counts[size]
        self.workdir = workdir
        self.scenarios = load_scenarios(sg, self.configs, self.horizon)
        self.documents = {
            name: checks.sha256(sg.scenario_io.resolve_config_path(name).read_bytes())
            for name in self.configs
        }

    def prepare(self) -> None:
        """Untimed input generation for the whole run."""

    def discard(self, output) -> None:
        """Release a unit's output once it is checked."""

    def artifacts(self, j, output) -> dict[str, tuple[int | None, bytes]]:
        raise NotImplementedError

    def invariants(self, j, output, artifacts) -> list[tuple[int | None, str]]:
        raise NotImplementedError

    def fingerprint(self, output) -> str:
        raise NotImplementedError


def _dir_artifacts(outdir: Path, j: int, n: int) -> dict[str, tuple[int | None, bytes]]:
    """CSV and summary.json bytes of one batch directory, by golden name."""
    arts = {}
    for i in range(n):
        path = outdir / f"episode_{i:04d}.csv"
        if path.is_file():
            arts[episode_name(j * n + i)] = (i, path.read_bytes())
    arts[f"summary_{n}x{j}.json"] = (None, (outdir / "summary.json").read_bytes())
    return arts


def _dir_fingerprint(outdir: Path) -> str:
    return checks.sha256(b"".join(
        path.name.encode() + b"\0" + path.read_bytes() for path in sorted(outdir.iterdir())
    ))


def _dir_invariants(sg, outdir, j, n, arts, scenario, trajectories=None):
    """Summary, episode error, re-import and Bayes chain checks on one batch
    directory.

    With in-memory ``trajectories`` the chain is checked on them at full
    precision; otherwise on the re-imported CSVs at CSV precision.
    """
    try:
        summary = json.loads(arts[f"summary_{n}x{j}.json"][1])
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        return [(None, f"summary.json is not valid JSON: {err}")]
    problems = [(None, msg) for msg in checks.summary_problems(summary, n)]
    problems += [(i, f"episode error: {msg}") for i, msg in summary.get("errors", [])]
    for i in range(n):
        path = outdir / f"episode_{i:04d}.csv"
        if not path.is_file():
            problems.append((i, f"{path.name} missing"))
            continue
        traj, found = checks.reimport(path, sg.scenario_io)
        problems += [(i, msg) for msg in found]
        tol = checks.CSV_CHAIN_REL_TOL
        if trajectories is not None:
            traj, tol = trajectories[i], checks.CHAIN_REL_TOL
        if traj is not None:
            chain = checks.bayes_chain_problems(traj, scenario.prior, scenario.true_type, tol)
            problems += [(i, msg) for msg in chain]
    return problems


class BatchTable1(Workload):
    name = "batch_table1_h2"
    why = ("run_batch on table1 at horizon 2: fast detection, the memo absorbs ~90% "
           "of steps, so per-solve speed under heavy reuse shows")
    op = "episode"
    configs = ("table1",)
    unit_sizes = {"full": 50, "tiny": 2}
    unit_counts = {"full": 12, "tiny": 1}

    @property
    def scenario(self):
        return self.scenarios["table1"]

    def run_unit(self, j):
        base = batch_base_seed(self.seed, j, self.n)
        t0 = perf_counter()
        summary, trajectories = self.sg.simulate.run_batch(self.scenario, self.n, base)
        return self.n, perf_counter() - t0, (summary, trajectories, self.workdir / f"check_{j}")

    def artifacts(self, j, output):
        summary, trajectories, outdir = output
        shutil.rmtree(outdir, ignore_errors=True)
        self.sg.scenario_io.write_batch(summary, trajectories, outdir)
        return _dir_artifacts(outdir, j, self.n)

    def invariants(self, j, output, arts):
        _, trajectories, outdir = output
        return _dir_invariants(self.sg, outdir, j, self.n, arts, self.scenario, trajectories)

    def fingerprint(self, output):
        summary, trajectories, _ = output
        return checks.sha256(repr((summary, trajectories)).encode())

    def discard(self, output):
        shutil.rmtree(output[2], ignore_errors=True)


class SolveH3(Workload):
    name = "solve_h3"
    why = ("solve_bne at horizon 3 on table1 and table4 at seeded (belief, state) "
           "points in exact and fallback ranges: the window value path alone")
    op = "solve"
    configs = ("table1", "table4")
    horizon = 3
    uses_policy = False
    unit_counts = {"full": 4, "tiny": 1}
    # Belief ranges where every (table, state) pair solved exactly, and where
    # each fell back to the defender-anchored profile, on a 0.05-step scan.
    EXACT_RANGE = (0.6, 0.95)
    FALLBACK_RANGE = (0.35, 0.4)

    def point(self, j):
        """Point j alternates the tables and, in a 4-cycle, the ranges.

        Point 0 is a fallback point: that path allocates a superset of the
        exact path's tensors, so the peak RSS read after unit 0 covers both.
        """
        config = self.configs[j % 2]
        lo, hi = self.EXACT_RANGE if j % 4 in (1, 2) else self.FALLBACK_RANGE
        rng = np.random.default_rng([self.seed, j])
        belief = float(rng.uniform(lo, hi))
        states = self.scenarios[config].alphabets.states
        return config, states[int(rng.integers(len(states)))], belief

    def run_unit(self, j):
        config, state, belief = self.point(j)
        scenario = self.scenarios[config]
        eq = self.sg.equilibrium
        t0 = perf_counter()
        try:
            result = eq.solve_bne(scenario, self.sg.BeliefState(belief), state)
        except eq.NoPureEquilibriumError as err:
            result = err
        return 1, perf_counter() - t0, (j, result)

    def record(self, j, result) -> dict:
        config, state, belief = self.point(j)
        out = {"config": config, "state": state, "belief": belief}
        if isinstance(result, self.sg.equilibrium.NoPureEquilibriumError):
            out["kind"] = "fallback"
            out["roots"] = list(result.fallback_profile.root_prescriptions())
            out["fallback_regret"] = result.fallback_regret
        else:
            out["kind"] = "exact"
            out["roots"] = list(result.profile.root_prescriptions())
            out["values"] = [
                result.sender_value_benign,
                result.sender_value_malicious,
                result.receiver_value,
            ]
            out["multiplicity"] = result.multiplicity
        return out

    def artifacts(self, j, output):
        record = self.record(j, output[1])
        return {f"point_{j}": (0, json.dumps(record, sort_keys=True).encode())}

    def fingerprint(self, output):
        return json.dumps(self.record(*output), sort_keys=True)

    def invariants(self, j, output, arts):
        """Exact values must match the brute-force oracle; a fallback must
        carry a positive regret (zero regret means an equilibrium exists)."""
        (_, data), = arts.values()
        try:
            record = json.loads(data)
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            return [(0, f"record is not valid JSON: {err}")]
        result = output[1]
        if isinstance(result, self.sg.equilibrium.NoPureEquilibriumError):
            regret = record.get("fallback_regret")
            if not (isinstance(regret, float) and 0.0 < regret < float("inf")):
                return [(0, f"fallback regret {regret!r} is not positive and finite")]
            return []
        config, state, belief = self.point(j)
        oracle = self.sg.expected_utilities(
            self.scenarios[config], result.profile, self.sg.BeliefState(belief), state
        )
        return [(0, msg) for msg in checks.oracle_problems(record.get("values", []), oracle)]


def run_cli(sg, argv) -> tuple[int, float, str]:
    """One timed ``siggame`` call; returns (exit code, seconds, stdout)."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        t0 = perf_counter()
        code = sg.cli.main(argv)
        seconds = perf_counter() - t0
    return code, seconds, stdout.getvalue()


class Pipeline(Workload):
    name = "pipeline_table1_h1"
    why = ("siggame batch then siggame diagnose via cli.main on table1 at horizon 1: two "
           "solves in all, so per-step loop cost, CSV writes and CSV reads dominate")
    op = "episode"
    configs = ("table1",)
    horizon = 1
    unit_sizes = {"full": 200, "tiny": 5}
    unit_counts = {"full": 2, "tiny": 1}
    DIAGNOSE_ARGS = ["diagnose", "--window", "20", "--tol", "0.01", "--in"]

    def prepare(self):
        """Derive the horizon-1 scenario file the CLI loads."""
        self.config_path = self.workdir / "table1_h1.json"
        self.sg.save_scenario(self.scenarios["table1"], self.config_path)
        self.documents["table1_h1.json"] = checks.sha256(self.config_path.read_bytes())
        self.names = [f"episode_{i:04d}.csv" for i in range(self.n)]
        self.split_seconds = {j: [] for j in range(self.units)}

    def run_unit(self, j):
        """``siggame batch`` into a fresh directory, then ``siggame diagnose``
        over every CSV it wrote; both calls are timed."""
        outdir = self.workdir / f"pipeline_{j}"
        shutil.rmtree(outdir, ignore_errors=True)
        argv = ["batch", "--config", str(self.config_path), "--episodes", str(self.n),
                "--seed", str(batch_base_seed(self.seed, j, self.n)), "--outdir", str(outdir)]
        code, seconds, _ = run_cli(self.sg, argv)
        if code != 0:
            return self.n, seconds, (code, outdir, None)
        with _cwd(outdir):
            code, read_seconds, stdout = run_cli(self.sg, self.DIAGNOSE_ARGS + self.names)
        self.split_seconds[j].append((seconds, read_seconds))
        return self.n, seconds + read_seconds, (0, outdir, (code, stdout))

    def artifacts(self, j, output):
        code, outdir, diagnosed = output
        if code != 0:
            return {}
        arts = _dir_artifacts(outdir, j, self.n)
        arts[f"diagnose_{self.n}x{j}.json"] = (None, diagnosed[1].encode())
        return arts

    def invariants(self, j, output, arts):
        code, outdir, diagnosed = output
        if code != 0:
            return [(None, f"siggame batch exited with {code}")]
        problems = _dir_invariants(self.sg, outdir, j, self.n, arts, self.scenarios["table1"])
        if diagnosed[0] != 0:
            return problems + [(None, f"siggame diagnose exited with {diagnosed[0]}")]
        return problems + self._report_problems(
            arts[f"diagnose_{self.n}x{j}.json"][1], arts[f"summary_{self.n}x{j}.json"][1]
        )

    def _report_problems(self, data, summary_data):
        """Reports name every input file, and each agrees with the batch
        summary's entry for that episode."""
        try:
            reports = json.loads(data)["reports"]
            summary = json.loads(summary_data)
        except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as err:
            return [(None, f"diagnose output or summary is not valid: {err}")]
        if [r.get("file") for r in reports] != self.names:
            return [(None, "diagnose reports do not match the input files")]
        classes = {c.value for c in self.sg.Classification}
        problems = []
        for i, report in enumerate(reports):
            if report.get("classification") not in classes:
                problems.append((i, f"unknown classification {report.get('classification')!r}"))
            problems += [
                (i, msg)
                for msg in checks.readback_problems(
                    report, summary["limit_estimates"][i], summary["oscillations"][i]
                )
            ]
        return problems

    def fingerprint(self, output):
        code, outdir, diagnosed = output
        return f"{code}:{_dir_fingerprint(outdir)}:{checks.sha256(repr(diagnosed).encode())}"

    def discard(self, output):
        shutil.rmtree(output[1], ignore_errors=True)


WORKLOADS = {w.name: w for w in (BatchTable1, SolveH3, Pipeline)}


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.is_file() else {}


def check_unit(workload, j, output, golden, corrupt=None):
    """All problems of one unit as (operation index or None, message).

    Golden values apply at the default seed only, where every unit of the
    input must be fully pinned.
    """
    arts = workload.artifacts(j, output)
    if corrupt is not None:
        corrupt(arts)
    problems = []
    if workload.seed == DEFAULT_SEED:
        pinned = golden.get(workload.name, {})
        bytes_by_name = {name: data for name, (_, data) in arts.items()}
        for name, msg in checks.golden_problems(bytes_by_name, pinned, require=True):
            problems.append((arts[name][0], f"{name}: {msg}"))
    problems += workload.invariants(j, output, arts)
    return problems


def failed_ops(ops: int, problems) -> int:
    if any(index is None for index, _ in problems):
        return ops
    return len({index for index, _ in problems})


def probe_setup(name: str) -> None:
    """Child side of a set-up sample: import, load, build, then say ready."""
    sg = import_siggame()
    cls = WORKLOADS[name]
    scenarios = load_scenarios(sg, cls.configs, cls.horizon)
    if cls.uses_policy:
        for scenario in scenarios.values():
            sg.RecedingHorizonPolicy(scenario)
    print("ready", flush=True)


def setup_samples(name: str, samples: int) -> list[float]:
    """Seconds from process start to ready, in fresh interpreters."""
    times = []
    for _ in range(samples):
        t0 = perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__)), "--probe-setup", name],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or line.strip() != "ready":
            raise BenchError(f"set-up probe for {name} failed with exit code {code}")
        times.append(elapsed)
    return times


def traced_setup(workload, tracer, samples: int) -> None:
    """In-process set-up steps under the tracer, for the per-layer split."""
    sg = workload.sg
    tracer.run = tracing.SETUP_RUN
    with tracing.installed(tracer, sg):
        for _ in range(samples):
            for name in workload.configs:
                path = sg.scenario_io.resolve_config_path(name)
                scenario = replace(sg.scenario_io.load_scenario(path), horizon=workload.horizon)
                if workload.uses_policy:
                    sg.simulate.RecedingHorizonPolicy(scenario)


def reference_seconds() -> float:
    """Seconds for one run of a fixed kernel in the mix the workloads run:
    interpreted float arithmetic and dict traffic with a small numpy call
    every 64 steps. It shares no code with siggame, so a change to the
    program leaves it alone while a slower host slows both alike."""
    weights = np.arange(8.0)
    table: dict[int, float] = {}
    acc = 0.0
    t0 = perf_counter()
    for i in range(REFERENCE_STEPS):
        key = (i * 7919) % 1021
        acc += table.get(key, 0.5) * 1.0000001 - acc * 1e-9
        table[key] = acc % 1.0
        if i % 64 == 0:
            acc += float(weights.dot(weights)) * 1e-12
    return perf_counter() - t0


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


def git_commit() -> str | None:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, ref_name = line.partition(" ")
            if ref_name == name:
                return sha
    return None


def provenance(sg, workload) -> dict:
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": affinity,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "siggame": sg.__version__,
        "git_commit": git_commit(),
        "scenario_sha256": workload.documents,
    }


def run_workload(name, seed, seconds, trace, size) -> dict:
    sg = import_siggame()
    workdir = OUT / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return _run_workload(sg, name, seed, seconds, trace, size, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_workload(sg, name, seed, seconds, trace, size, workdir) -> dict:
    workload = WORKLOADS[name](sg, seed, size, workdir)
    golden = load_golden()
    tracer = tracing.Tracer() if trace else None
    setup_times = [] if trace else setup_samples(name, SETUP_SAMPLES)
    if trace:
        traced_setup(workload, tracer, SETUP_SAMPLES)
    workload.prepare()
    run = (_traced_pairs(workload, golden, seconds, tracer) if trace
           else _timed_passes(workload, golden, seconds))

    report = {
        "workload": name,
        "seed": seed,
        "size": size,
        "seconds": seconds,
        "trace": int(trace),
        "op": workload.op,
        "ops_per_unit": workload.n,
        "input_units": workload.units,
        "units": run.units,
        "attempted": run.attempted,
        "failed": run.failed,
        "failure_rate": run.failed / run.attempted,
        "problems": run.problems[:50],
        "provenance": provenance(sg, workload),
    }
    untraced = [u for u in run.units if not u["traced"]]
    if trace:
        walls = [u["seconds"] for u in run.units if u["traced"]]
        metrics, mismatches = tracing.per_layer_metrics(
            tracer, walls, [u["seconds"] for u in untraced]
        )
        if mismatches:
            # Counts that differ between repetitions of one input fail every
            # traced repetition.
            report["failed"] = max(run.failed, sum(u["ops"] for u in run.units if u["traced"]))
            report["failure_rate"] = report["failed"] / run.attempted
            report["problems"] += mismatches
        report["metrics"] = {k: {"value": metrics[k], "unit": u} for k, u in tracing.PER_LAYER}
        OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
        spans = OUT / "results" / f"{name}_seed{seed}_spans.csv"
        tracer.write(spans)
        report["spans_file"] = str(spans.relative_to(ROOT))
    else:
        # Units of one input differ in work (episodes of one seed differ in
        # solve count), so rates are pooled over the whole input rather than
        # taken as a median of per-unit rates.
        ops = workload.units * workload.n
        reps = [[u for u in untraced if u["unit"] == j] for j in range(workload.units)]
        costs = [statistics.median(u["seconds"] / u["ref_seconds"] for u in r) for r in reps]
        unit_seconds = [statistics.median(u["seconds"] for u in r) for r in reps]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "ops_per_ref": ops / sum(costs),
            "peak_rss_mb": run.rss_mb,
        }
        units_of = {m["name"]: m["unit"] for m in END_TO_END}
        report["metrics"] = {k: {"value": v, "unit": units_of[k]} for k, v in metrics.items()}
        report["setup_samples_s"] = setup_times
        report["unit_costs_ref"] = costs
        report["unit_seconds"] = unit_seconds
        report["reference_seconds_p50"] = statistics.median(u["ref_seconds"] for u in untraced)
        report["repetitions"] = [len(r) for r in reps]
        # For solve_h3 a unit is one solve, so this is the median solve time.
        report["unit_seconds_p50"] = statistics.median(unit_seconds)
        report[f"{workload.op}s_per_s"] = ops / sum(unit_seconds)
        if isinstance(workload, SolveH3):
            report["points"] = [workload.point(j) for j in range(workload.units)]
        if isinstance(workload, Pipeline):
            # The write and read sides apart, in raw seconds and ungated.
            for side, key in ((0, "batch_episodes_per_s"), (1, "diagnose_files_per_s")):
                report[key] = ops / sum(statistics.median(t[side] for t in times)
                                        for times in workload.split_seconds.values())
    return report


@dataclass
class RunLog:
    """Every timed unit of a run, with the operations it attempted and failed."""

    units: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    rss_mb: float = 0.0

    def add(self, j, traced, ops, seconds, problems, ref_seconds=None) -> None:
        self.units.append({"unit": j, "traced": traced, "ops": ops, "seconds": seconds,
                           "ref_seconds": ref_seconds})
        self.attempted += ops
        self.failed += failed_ops(ops, problems)
        self.problems += [f"unit {j}: {msg}" for _, msg in problems]


def _timed_passes(workload, golden, seconds) -> RunLog:
    """Every unit once, with its output checked; then repetitions in the same
    order while the next one still fits into ``seconds``. A repetition must
    reproduce the checked output exactly. Each unit is bracketed by two
    reference-kernel timings."""
    log = RunLog()
    fingerprints = {}
    start = perf_counter()
    k = 0
    while True:
        j = k % workload.units
        if k >= workload.units:
            last = [u for u in log.units if u["unit"] == j][-1]
            if perf_counter() - start + last["seconds"] + 2 * last["ref_seconds"] > seconds:
                break
        ref_before = reference_seconds()
        ops, secs, output = workload.run_unit(j)
        ref_seconds = (ref_before + reference_seconds()) / 2
        if k == 0:
            # Read after a fixed amount of work: the allocator's high-water
            # mark creeps up with every further unit, so a later reading
            # would depend on how many repetitions fit into the run.
            log.rss_mb = peak_rss_mb()
        try:
            if k < workload.units:
                problems = check_unit(workload, j, output, golden)
                fingerprints[j] = workload.fingerprint(output)
            elif workload.fingerprint(output) != fingerprints[j]:
                problems = [(None, "repetition differs from the checked first output")]
            else:
                problems = []
        finally:
            workload.discard(output)
        log.add(j, False, ops, secs, problems, ref_seconds)
        k += 1
    return log


def _traced_pairs(workload, golden, seconds, tracer) -> RunLog:
    """Untraced and traced repetitions of unit 0 in turn, each checked, while
    another pair still fits into ``seconds``."""
    sg = workload.sg
    log = RunLog()
    start = perf_counter()
    step = 0
    while True:
        traced = step % 2 == 1
        if traced:
            tracer.run = step // 2 + 1
            with tracing.installed(tracer, sg):
                ops, secs, output = workload.run_unit(0)
        else:
            ops, secs, output = workload.run_unit(0)
        if step == 0:
            log.rss_mb = peak_rss_mb()
        try:
            problems = check_unit(workload, 0, output, golden)
        finally:
            workload.discard(output)
        log.add(0, traced, ops, secs, problems)
        step += 1
        if traced:
            elapsed = perf_counter() - start
            if elapsed + 2 * elapsed / step > seconds:
                break
    return log


def write_report(report: dict, stem: str) -> Path:
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{stem}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def print_human(report: dict) -> None:
    name = report["workload"]
    n_timed = sum(1 for u in report["units"] if not u["traced"])
    print(f"{name}: seed {report['seed']}, {report['input_units']} input units of "
          f"{report['ops_per_unit']} {report['op']}(s), {n_timed} untraced timings")
    for metric, entry in report["metrics"].items():
        print(f"  {metric:32s} {entry['value']:.6g} {entry['unit']}")
    if not report["trace"]:
        print(f"  {report['op'] + 's_per_s':32s} {report[report['op'] + 's_per_s']:.6g} "
              f"{report['op']}s/s")
        for key, unit in (("batch_episodes_per_s", "episodes/s"),
                          ("diagnose_files_per_s", "files/s")):
            if key in report:
                print(f"  {key:32s} {report[key]:.6g} {unit}")
        print(f"  {'unit_seconds_p50':32s} {report['unit_seconds_p50']:.6g} s "
              f"(median over n={report['input_units']} units, each the median of "
              f"{min(report['repetitions'])}-{max(report['repetitions'])} repetitions)")
        print(f"  {'reference_seconds_p50':32s} {report['reference_seconds_p50']:.6g} s")
    print(f"  {'failure_rate':32s} {report['failure_rate']:.6g} "
          f"({report['failed']}/{report['attempted']} {report['op']}s)")
    for msg in report["problems"][:10]:
        print(f"  problem: {msg}", file=sys.stderr)


def result_line(report: dict) -> str:
    return json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    })


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__)), "--workload", name,
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        if args.seed is not None:
            argv += ["--seed", str(args.seed)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    seed = DEFAULT_SEED if args.seed is None else args.seed
    write_report(combined, f"all_seed{seed}_trace{args.trace}")
    print(json.dumps(combined))
    return 0


def manifest() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": list(END_TO_END),
        "per_layer": [
            {"name": name, "unit": unit, "better": "higher" if name ==
             "equilibrium.memo_hit_ratio" else "lower"}
            for name, unit in tracing.PER_LAYER
        ],
    }


def write_golden(names) -> None:
    """Re-pin golden outputs at the default seed, for every size.

    Only for a change that is meant to alter outputs; the diff of
    golden.json then shows exactly which outputs moved.
    """
    sg = import_siggame()
    golden = {name: pins for name, pins in load_golden().items() if name in WORKLOADS}
    for name in names:
        cls = WORKLOADS[name]
        pinned = {}
        for size in SIZES:
            workdir = OUT / f"golden-{os.getpid()}"
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            try:
                workload = cls(sg, DEFAULT_SEED, size, workdir)
                workload.prepare()
                for j in range(workload.units):
                    _, _, output = workload.run_unit(j)
                    try:
                        for art, (_, data) in workload.artifacts(j, output).items():
                            pinned[art] = (json.loads(data) if isinstance(workload, SolveH3)
                                           else checks.sha256(data))
                    finally:
                        workload.discard(output)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
        golden[name] = dict(sorted(pinned.items()))
        print(f"pinned {len(pinned)} outputs of {name}", file=sys.stderr)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=None,
                        help=f"workload seed (default: the config seed {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="'tiny' shrinks every unit, for the self-test")
    parser.add_argument("--probe-setup", metavar="WORKLOAD", help=argparse.SUPPRESS)
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json from this file's definitions and exit")
    parser.add_argument("--write-golden", action="store_true",
                        help="re-pin bench/golden.json at the default seed and exit")
    args = parser.parse_args(argv)
    if args.seed is not None and not 0 <= args.seed < 2**64:
        parser.error("seed must be an unsigned 64-bit integer")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.probe_setup:
            probe_setup(args.probe_setup)
            return 0
        if args.write_manifest:
            MANIFEST_PATH.write_text(json.dumps(manifest(), indent=2) + "\n")
            return 0
        if args.write_golden:
            write_golden(list(WORKLOADS) if args.workload == "all" else [args.workload])
            return 0
        if args.workload == "all":
            return run_all(args)
        seed = DEFAULT_SEED if args.seed is None else args.seed
        report = run_workload(args.workload, seed, args.seconds, bool(args.trace), args.size)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    write_report(report, f"{args.workload}_seed{seed}_trace{args.trace}")
    print_human(report)
    print(result_line(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
