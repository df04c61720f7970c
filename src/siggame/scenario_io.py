"""Scenario files, trajectory CSV export, and report serialization.

Scenario files are JSON. Kernels may use the ``reaction_independent``
shorthand (one row per state/action, expanded over reactions). Utility tables
nest state -> action -> reaction; a number at any level is constant over the
remaining levels and the key "*" matches every label at its level, with an
explicit label overriding a wildcard.

Trajectory CSVs have the fixed header
``k,state,action_b,action_m,applied_action,reaction,belief_m,bayes_coeff,agreement``
with one row per step; belief and coefficient columns carry 12 significant
digits, which re-import and re-export byte-identically.
"""

from __future__ import annotations

import csv
import io
import json
import warnings
from importlib import resources
from pathlib import Path
from typing import Any

from .model import (
    BENIGN,
    MALICIOUS,
    TYPES,
    Alphabets,
    Scenario,
    TransitionKernel,
    UtilityTables,
    check_distinguishability,
    validate_kernel,
)
from .simulate import BatchSummary, Trajectory

TRAJECTORY_COLUMNS = (
    "k",
    "state",
    "action_b",
    "action_m",
    "applied_action",
    "reaction",
    "belief_m",
    "bayes_coeff",
    "agreement",
)

_FLOAT_FORMAT = ".12g"


class ScenarioFormatError(ValueError):
    """The scenario document is malformed or fails validation."""


def _require(doc: Any, key: str, where: str) -> Any:
    if not isinstance(doc, dict) or key not in doc:
        raise ScenarioFormatError(f"{where}: missing required field {key!r}")
    return doc[key]


def _as(kind: type, node: Any, where: str) -> Any:
    """``kind(node)``, or a format error naming the field."""
    try:
        return kind(node)
    except (TypeError, ValueError):
        raise ScenarioFormatError(f"{where}: expected {kind.__name__}, got {node!r}") from None


def _row(node: Any, where: str) -> tuple[float, ...]:
    return tuple(_as(float, v, where) for v in _as(list, node, where))


def _parse_kernel(doc: dict, alphabets: Alphabets) -> TransitionKernel:
    rows = _as(dict, _require(doc, "rows", "kernel"), "kernel.rows")
    reaction_independent = bool(doc.get("reaction_independent", False))
    table: dict[tuple[str, str, str], tuple[float, ...]] = {}
    for x, by_action in rows.items():
        if x not in alphabets.states:
            raise ScenarioFormatError(f"kernel: unknown state label {x!r}")
        for a, entry in _as(dict, by_action, f"kernel.rows.{x}").items():
            if a not in alphabets.actions:
                raise ScenarioFormatError(f"kernel: unknown action label {a!r} under state {x!r}")
            where = f"kernel.rows.{x}.{a}"
            if reaction_independent:
                vector = _row(entry, where)
                for r in alphabets.reactions:
                    table[(x, a, r)] = vector
            else:
                for r, vec in _as(dict, entry, where).items():
                    if r not in alphabets.reactions:
                        raise ScenarioFormatError(
                            f"kernel: unknown reaction label {r!r} under ({x!r}, {a!r})"
                        )
                    table[(x, a, r)] = _row(vec, f"{where}.{r}")
    return TransitionKernel(alphabets=alphabets, table=table)


def _expand_utility(doc: Any, axes: tuple[tuple[str, ...], ...], where: str) -> dict[tuple, float]:
    """Expand the nested state/action/reaction document into a flat table."""
    out: dict[tuple, float] = {}

    def assign(prefix: tuple, node: Any, depth: int) -> None:
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            value = float(node)
            combos = [prefix]
            for axis in axes[depth:]:
                combos = [c + (label,) for c in combos for label in axis]
            for combo in combos:
                out[combo] = value
            return
        if not isinstance(node, dict):
            raise ScenarioFormatError(f"{where}: expected number or mapping, got {node!r}")
        if depth >= len(axes):
            raise ScenarioFormatError(f"{where}: nesting deeper than state/action/reaction")
        axis = axes[depth]
        wildcard = node.get("*")
        explicit = [(k, v) for k, v in node.items() if k != "*"]
        if wildcard is not None:
            for label in axis:
                assign(prefix + (label,), wildcard, depth + 1)
        for key, sub in explicit:
            if key not in axis:
                raise ScenarioFormatError(f"{where}: unknown label {key!r} at level {depth}")
            assign(prefix + (key,), sub, depth + 1)

    assign((), doc, 0)
    return out


def _parse_utilities(doc: dict, alphabets: Alphabets) -> UtilityTables:
    axes = (alphabets.states, alphabets.actions, alphabets.reactions)
    tables: dict[str, dict[tuple, float]] = {}
    for side in ("sender", "receiver"):
        side_doc = _require(doc, side, "utilities")
        flat: dict[tuple, float] = {}
        for sender_type in TYPES:
            type_doc = _require(side_doc, sender_type, f"utilities.{side}")
            expanded = _expand_utility(type_doc, axes, f"utilities.{side}.{sender_type}")
            for key, value in expanded.items():
                flat[(sender_type,) + key] = value
        tables[side] = flat
    return UtilityTables(sender=tables["sender"], receiver=tables["receiver"])


def scenario_from_dict(doc: dict) -> Scenario:
    """Build a Scenario from a parsed JSON document (no kernel validation)."""
    alpha_doc = _require(doc, "alphabets", "document")
    labels = [
        _as(tuple, _require(alpha_doc, key, "alphabets"), f"alphabets.{key}")
        for key in ("states", "actions", "reactions")
    ]
    try:
        alphabets = Alphabets(*labels)
    except (TypeError, ValueError) as err:  # unhashable, empty or duplicate labels
        raise ScenarioFormatError(f"alphabets: {err}") from err
    kernel = _parse_kernel(_require(doc, "kernel", "document"), alphabets)
    utilities = _parse_utilities(_require(doc, "utilities", "document"), alphabets)
    try:
        return Scenario(
            alphabets=alphabets,
            kernel=kernel,
            utilities=utilities,
            initial_state=_require(doc, "initial_state", "document"),
            prior=_as(float, _require(doc, "prior", "document"), "prior"),
            true_type=_require(doc, "true_type", "document"),
            horizon=_as(int, doc.get("horizon", 2), "horizon"),
            episode_length=_as(int, doc.get("steps", 300), "steps"),
            base_seed=_as(int, doc.get("seed", 0), "seed"),
        )
    except ValueError as err:
        raise ScenarioFormatError(str(err)) from err


def scenario_to_dict(scenario: Scenario) -> dict:
    """Serialize explicitly (no shorthands); parsing it back gives an equal
    Scenario."""
    al = scenario.alphabets
    rows: dict[str, dict[str, dict[str, list[float]]]] = {}
    for x in al.states:
        rows[x] = {}
        for a in al.actions:
            rows[x][a] = {r: list(scenario.kernel.row(x, a, r)) for r in al.reactions}
    def util_doc(table):
        return {
            t: {
                x: {a: {r: table[(t, x, a, r)] for r in al.reactions} for a in al.actions}
                for x in al.states
            }
            for t in TYPES
        }

    return {
        "alphabets": {
            "states": list(al.states),
            "actions": list(al.actions),
            "reactions": list(al.reactions),
        },
        "kernel": {"reaction_independent": False, "rows": rows},
        "utilities": {
            "sender": util_doc(scenario.utilities.sender),
            "receiver": util_doc(scenario.utilities.receiver),
        },
        "prior": scenario.prior,
        "initial_state": scenario.initial_state,
        "true_type": scenario.true_type,
        "horizon": scenario.horizon,
        "steps": scenario.episode_length,
        "seed": scenario.base_seed,
    }


def read_scenario(path: str | Path) -> Scenario:
    """Parse a scenario file without kernel validation."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise ScenarioFormatError(f"{path}: invalid JSON at line {err.lineno}: {err.msg}") from err
    return scenario_from_dict(doc)


def load_scenario(path: str | Path) -> Scenario:
    """Parse and fully validate a scenario file.

    Kernel defects are errors naming the offending row. A failed action
    distinguishability check is only a warning: downstream simulation stays
    well defined, only the action-agreement guarantees lose their premise.
    """
    scenario = read_scenario(path)
    report = validate_kernel(scenario.kernel)
    if not report.passed:
        details = "; ".join(v.message for v in report.violations)
        raise ScenarioFormatError(f"{path}: kernel validation failed: {details}")
    ok, witnesses = check_distinguishability(scenario.kernel)
    if not ok:
        warnings.warn(
            f"{path}: actions are not distinguishable at {witnesses}; "
            "action-agreement diagnostics lose their premise",
            stacklevel=2,
        )
    return scenario


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True) + "\n")


def bundled_scenario_names() -> list[str]:
    root = resources.files("siggame").joinpath("configs")
    return sorted(p.name for p in root.iterdir() if p.name.endswith(".json"))


def resolve_config_path(name_or_path: str) -> Path:
    """Resolve a --config argument: an existing path wins, otherwise a bundled
    config name (with or without .json) is looked up."""
    candidate = Path(name_or_path)
    if candidate.exists():
        return candidate
    stem = name_or_path if name_or_path.endswith(".json") else name_or_path + ".json"
    bundled = resources.files("siggame").joinpath("configs", stem)
    if bundled.is_file():
        with resources.as_file(bundled) as real:
            return Path(real)
    raise FileNotFoundError(f"no such config file or bundled scenario: {name_or_path!r}")


def format_trajectory(trajectory: Trajectory) -> str:
    """Render the fixed CSV schema; numbers carry 12 significant digits."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(TRAJECTORY_COLUMNS)
    for i in range(len(trajectory)):
        writer.writerow(
            (
                i + 1,
                trajectory.states[i],
                trajectory.actions_benign[i],
                trajectory.actions_malicious[i],
                trajectory.applied_actions[i],
                trajectory.reactions[i],
                format(trajectory.beliefs[i], _FLOAT_FORMAT),
                format(trajectory.coefficients[i], _FLOAT_FORMAT),
                trajectory.agreement[i],
            )
        )
    return buffer.getvalue()


def write_trajectory(trajectory: Trajectory, path: str | Path) -> None:
    Path(path).write_text(format_trajectory(trajectory))


def read_trajectory(path: str | Path) -> Trajectory:
    """Re-import an exported trajectory.

    The CSV schema does not carry the true type or seed; the type is inferred
    from any step where the prescriptions disagree (the applied action then
    identifies it) and left None when every step pools.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != TRAJECTORY_COLUMNS:
            raise ValueError(f"{path}: unexpected trajectory header {header}")
        traj = Trajectory(true_type=None, prior=float("nan"), seed=0)
        for row in reader:
            (_, state, a_b, a_m, applied, reaction, belief, coeff, agreement) = row
            traj.states.append(state)
            traj.actions_benign.append(a_b)
            traj.actions_malicious.append(a_m)
            traj.applied_actions.append(applied)
            traj.reactions.append(reaction)
            traj.beliefs.append(float(belief))
            traj.coefficients.append(float(coeff))
            traj.agreement.append(int(agreement))
    for i, d in enumerate(traj.agreement):
        if d:
            traj.true_type = (
                MALICIOUS if traj.applied_actions[i] == traj.actions_malicious[i] else BENIGN
            )
            break
    return traj


def summary_to_dict(summary: BatchSummary) -> dict:
    return {
        "n_episodes": summary.n_episodes,
        "true_type": summary.true_type,
        "base_seed": summary.base_seed,
        "window": summary.window,
        "tol": summary.tol,
        "terminal_beliefs": summary.terminal_beliefs,
        "limit_estimates": summary.limit_estimates,
        "oscillations": summary.oscillations,
        "agreement_steps": summary.agreement_steps,
        "classifications": summary.classifications,
        "errors": summary.errors,
    }


def write_batch(
    summary: BatchSummary, trajectories: list[Trajectory | None], outdir: str | Path
) -> list[Path]:
    """Write episode_NNNN.csv per trajectory plus summary.json; returns the
    paths written."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for i, traj in enumerate(trajectories):
        if traj is None:
            continue
        path = outdir / f"episode_{i:04d}.csv"
        write_trajectory(traj, path)
        written.append(path)
    summary_path = outdir / "summary.json"
    summary_path.write_text(json.dumps(summary_to_dict(summary), indent=2, sort_keys=True) + "\n")
    written.append(summary_path)
    return written
