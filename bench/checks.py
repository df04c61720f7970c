"""Correctness checks on workload outputs, run outside the timed region.

Two kinds. Golden artefacts pin the exact bytes (sha256) or the exact record
each workload produces at the default seed. Invariants hold on any seed: the
Bayes chain identity, a byte-stable CSV re-import, classification tallies
that sum to the episode count, and the oracle check that an exact window
solution's values equal ``expected_utilities`` of the returned profile.
Every check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import hashlib
import json
import math

# In-memory beliefs must satisfy the chain identity to this relative error.
CHAIN_REL_TOL = 1e-12
# CSV values carry 12 significant digits, so each is off by up to 5e-12
# relative; a re-imported belief, its factor and its predecessor together
# admit three such errors on top of the in-memory tolerance.
CSV_CHAIN_REL_TOL = CHAIN_REL_TOL + 3 * 5e-12
# Oracle agreement of window values (mixed absolute/relative, values are O(1)).
ORACLE_TOL = 1e-12
# Diagnose re-reads 12-digit CSV beliefs; its limit and oscillation agree with
# the in-memory batch summary to this absolute error.
READBACK_TOL = 1e-9


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


def golden_problems(
    artifacts: dict[str, bytes], pinned: dict, require: bool
) -> list[tuple[str, str]]:
    """Compare artefacts with their pinned values.

    A pinned string is a sha256 of the artefact's bytes; a pinned object is
    the artefact's JSON record, compared exactly. Artefacts with no pinned
    value are skipped unless ``require`` is set, when that is a problem too.
    Returns (artefact name, message) pairs.
    """
    problems = []
    for name, data in artifacts.items():
        if name not in pinned:
            if require:
                problems.append((name, "no pinned golden value"))
            continue
        expected = pinned[name]
        if isinstance(expected, str):
            if sha256(data) != expected:
                problems.append((name, "sha256 differs from the pinned golden"))
            continue
        try:
            record = json.loads(data)
        except (UnicodeDecodeError, json.JSONDecodeError):
            problems.append((name, "record is not valid JSON"))
            continue
        if record != expected:
            problems.append((name, f"record {record} differs from pinned {expected}"))
    return problems


def bayes_chain_problems(traj, prior: float, true_type: str, tol: float) -> list[str]:
    """Each recorded belief equals its factor times its predecessor on the
    true type's coordinate; the first predecessor is the prior."""
    malicious = true_type == "malicious"
    problems = []
    previous = prior
    for k, (belief, factor) in enumerate(zip(traj.beliefs, traj.coefficients), start=1):
        current = belief if malicious else 1.0 - belief
        before = previous if malicious else 1.0 - previous
        if not (math.isfinite(belief) and rel_close(current, factor * before, tol)):
            problems.append(
                f"step {k}: belief {belief!r} != factor {factor!r} x predecessor {previous!r}"
            )
            break
        previous = belief
    return problems


def reimport(path, scenario_io):
    """Read the CSV at ``path`` back; returns (trajectory or None, problems).

    The trajectory must format to the same bytes it was read from.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        traj = scenario_io.read_trajectory(path)
    except (ValueError, UnicodeDecodeError) as err:
        return None, [f"re-import failed: {err}"]
    if scenario_io.format_trajectory(traj).encode() != data:
        return traj, ["re-import is not byte-stable"]
    return traj, []


def summary_problems(summary: dict, n_episodes: int) -> list[str]:
    """A batch summary (as written to summary.json) covers the batch and its
    classification tallies sum to the episode count."""
    problems = []
    if summary.get("n_episodes") != n_episodes:
        problems.append(f"n_episodes {summary.get('n_episodes')} != {n_episodes}")
    tallies = summary.get("classifications", {})
    if sum(tallies.values()) != n_episodes:
        problems.append(f"classification tallies {tallies} do not sum to {n_episodes}")
    return problems


def oracle_problems(values, oracle_values) -> list[str]:
    """Reported (benign, malicious, receiver) values against the oracle's."""
    if len(values) != len(oracle_values):
        return [f"expected {len(oracle_values)} window values, got {values!r}"]
    problems = []
    for label, got, want in zip(("benign", "malicious", "receiver"), values, oracle_values):
        if abs(got - want) > ORACLE_TOL * max(1.0, abs(got), abs(want)):
            problems.append(f"{label} value {got!r} != expected_utilities {want!r}")
    return problems


def readback_problems(report: dict, limit: float | None, oscillation: float | None) -> list[str]:
    """A diagnose report of a CSV agrees with the batch summary entry of the
    same episode."""
    problems = []
    for key, want in (("limit_estimate", limit), ("oscillation", oscillation)):
        got = report.get(key)
        if want is None or got is None or abs(got - want) > READBACK_TOL:
            problems.append(f"{report.get('file')}: {key} {got!r} != summary {want!r}")
    return problems
