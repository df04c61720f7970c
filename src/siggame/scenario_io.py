"""Scenario files, trajectory CSV export, and report serialization.

Scenario files are JSON, and each field takes its JSON type uncoerced (a
JSON integer also serves as a number, if a double holds it); a field the
format does not name, or a key repeated within one object, is an error, not
ignored. Kernels may use the ``reaction_independent`` shorthand (one row per
state/action, expanded over reactions). Utility tables nest
state -> action -> reaction; a number at any level is constant over the
remaining levels and the key "*" matches every label at its level, with an
explicit label overriding a wildcard.

Trajectory CSVs have the fixed header
``k,state,action_b,action_m,applied_action,reaction,belief_m,bayes_coeff,agreement``
with one row per step; belief and coefficient columns carry 12 significant
digits, which re-import and re-export byte-identically. The ``k``,
``applied_action`` and ``agreement`` columns are derived from the others and
checked on import.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import warnings
from dataclasses import asdict
from pathlib import Path
from typing import Any, Callable

from .model import (
    BENIGN,
    MALICIOUS,
    TYPES,
    Alphabets,
    Scenario,
    TransitionKernel,
    UtilityTables,
    check_distinguishability,
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

# the document keys of the Scenario fields that have defaults
_DEFAULTED = {"horizon": "horizon", "steps": "episode_length", "seed": "base_seed"}


class ScenarioFormatError(ValueError):
    """The scenario document is malformed or fails validation."""


def _fields(doc: Any, where: str, required: tuple, optional: tuple = ()) -> list:
    """The values of the ``required`` keys of the mapping ``doc``. A missing
    one, or a key that is neither required nor ``optional``, such as a
    misspelt field, is a format error naming ``where``."""
    for key in _as(dict, doc, where):
        if key not in required and key not in optional:
            raise ScenarioFormatError(f"{where}: unknown field {key!r}")
    for key in required:
        if key not in doc:
            raise ScenarioFormatError(f"{where}: missing required field {key!r}")
    return [doc[key] for key in required]


def _as(kind: type, node: Any, where: str) -> Any:
    """``node`` if it is a JSON value of ``kind``, or a format error naming
    the field. Nothing is coerced: a boolean is no number, and only a float
    field takes a JSON integer, as the same number, if a double holds it."""
    kinds = (int, float) if kind is float else kind
    if not isinstance(node, kinds) or (isinstance(node, bool) and kind is not bool):
        raise ScenarioFormatError(f"{where}: expected {kind.__name__}, got {node!r}")
    if kind is not float:
        return node
    try:
        return float(node)
    except OverflowError:
        raise ScenarioFormatError(f"{where}: integer too large for a double") from None


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object's mapping, or a format error naming a repeated key."""
    doc: dict[str, Any] = {}
    for key, value in pairs:
        if key in doc:
            raise ScenarioFormatError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def _row(node: Any, where: str) -> tuple[float, ...]:
    return tuple(_as(float, v, where) for v in _as(list, node, where))


def _parse_kernel(doc: dict, alphabets: Alphabets) -> TransitionKernel:
    [rows] = _fields(doc, "kernel", ("rows",), ("reaction_independent",))
    rows = _as(dict, rows, "kernel.rows")
    reaction_independent = _as(
        bool, doc.get("reaction_independent", False), "kernel.reaction_independent"
    )
    table: dict[tuple[str, str, str], tuple[float, ...]] = {}
    for x, by_action in rows.items():
        for a, entry in _as(dict, by_action, f"kernel.rows.{x}").items():
            where = f"kernel.rows.{x}.{a}"
            if reaction_independent:
                vector = _row(entry, where)
                for r in alphabets.reactions:
                    table[(x, a, r)] = vector
            else:
                for r, vec in _as(dict, entry, where).items():
                    table[(x, a, r)] = _row(vec, f"{where}.{r}")
    return TransitionKernel(alphabets=alphabets, table=table)


def _expand_utility(doc: Any, axes: tuple[tuple[str, ...], ...], where: str) -> dict[tuple, float]:
    """Expand the nested state/action/reaction document into a flat table."""
    out: dict[tuple, float] = {}

    def assign(prefix: tuple, node: Any, depth: int) -> None:
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            value = _as(float, node, where)
            for rest in itertools.product(*axes[depth:]):
                out[prefix + rest] = value
            return
        if not isinstance(node, dict):
            raise ScenarioFormatError(f"{where}: expected number or mapping, got {node!r}")
        if depth >= len(axes):
            raise ScenarioFormatError(f"{where}: nesting deeper than state/action/reaction")
        axis = axes[depth]
        for key in sorted(node, key=lambda k: k != "*"):  # "*" first: a label overrides it
            if key != "*" and key not in axis:
                raise ScenarioFormatError(f"{where}: unknown label {key!r} at level {depth}")
            for label in axis if key == "*" else (key,):
                assign(prefix + (label,), node[key], depth + 1)

    assign((), doc, 0)
    return out


def _parse_utilities(doc: dict, alphabets: Alphabets) -> UtilityTables:
    axes = (alphabets.states, alphabets.actions, alphabets.reactions)
    tables: dict[str, dict[tuple, float]] = {}
    sides = ("sender", "receiver")
    for side, side_doc in zip(sides, _fields(doc, "utilities", sides)):
        flat: dict[tuple, float] = {}
        for sender_type, type_doc in zip(TYPES, _fields(side_doc, f"utilities.{side}", TYPES)):
            expanded = _expand_utility(type_doc, axes, f"utilities.{side}.{sender_type}")
            for key, value in expanded.items():
                flat[(sender_type,) + key] = value
        tables[side] = flat
    return UtilityTables(sender=tables["sender"], receiver=tables["receiver"])


def scenario_from_dict(doc: dict) -> Scenario:
    """Build a Scenario from a parsed JSON document; a malformed, missing or
    unknown field or a defect found by the Scenario constructor is a
    ScenarioFormatError."""
    required = ("alphabets", "kernel", "utilities", "initial_state", "prior", "true_type")
    alpha_doc, kernel_doc, util_doc, initial_state, prior, true_type = _fields(
        doc, "document", required, tuple(_DEFAULTED)
    )
    axes = ("states", "actions", "reactions")
    labels = [
        tuple(_as(str, label, f"alphabets.{key}") for label in _as(list, node, f"alphabets.{key}"))
        for key, node in zip(axes, _fields(alpha_doc, "alphabets", axes))
    ]
    try:
        alphabets = Alphabets(*labels)
    except ValueError as err:  # empty or duplicate labels
        raise ScenarioFormatError(f"alphabets: {err}") from err
    kernel = _parse_kernel(kernel_doc, alphabets)
    utilities = _parse_utilities(util_doc, alphabets)
    try:
        return Scenario(
            kernel=kernel,
            utilities=utilities,
            initial_state=initial_state,
            prior=_as(float, prior, "prior"),
            true_type=true_type,
            **{field: _as(int, doc[key], key) for key, field in _DEFAULTED.items() if key in doc},
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
        **{key: getattr(scenario, field) for key, field in _DEFAULTED.items()},
    }


def load_scenario(path: str | Path) -> Scenario:
    """Parse and fully validate a scenario file.

    Every ScenarioFormatError starts with the path, a file that does not
    decode or holds a number literal too long to convert included; a key
    repeated within one JSON object is an error, and kernel defects name the
    offending rows. A failed action distinguishability check is only a
    warning: downstream simulation stays well defined, only the
    action-agreement guarantees lose their premise.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
        scenario = scenario_from_dict(doc)
    except json.JSONDecodeError as err:
        raise ScenarioFormatError(f"{path}: invalid JSON at line {err.lineno}: {err.msg}") from err
    except ValueError as err:  # a ScenarioFormatError or UnicodeDecodeError is one too
        raise ScenarioFormatError(f"{path}: {err}") from err
    ok, witnesses = check_distinguishability(scenario.kernel)
    if not ok:
        warnings.warn(
            f"{path}: actions are not distinguishable at {witnesses}; "
            "action-agreement diagnostics lose their premise",
            stacklevel=2,
        )
    return scenario


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def resolve_config_path(name_or_path: str) -> Path:
    """Resolve a --config argument: an existing path wins, otherwise a bundled
    config name (with or without .json) is looked up."""
    candidate = Path(name_or_path)
    if candidate.exists():
        return candidate
    stem = name_or_path if name_or_path.endswith(".json") else name_or_path + ".json"
    bundled = Path(__file__).parent / "configs" / stem
    if bundled.is_file():
        return bundled
    raise FileNotFoundError(f"no such config file or bundled scenario: {name_or_path!r}")


def format_trajectory(trajectory: Trajectory) -> str:
    """Render the fixed CSV schema; numbers carry 12 significant digits."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(TRAJECTORY_COLUMNS)
    writer.writerows(
        zip(
            range(1, len(trajectory) + 1),
            trajectory.states,
            trajectory.actions_benign,
            trajectory.actions_malicious,
            trajectory.applied_actions,
            trajectory.reactions,
            [format(b, _FLOAT_FORMAT) for b in trajectory.beliefs],
            [format(f, _FLOAT_FORMAT) for f in trajectory.coefficients],
            trajectory.agreement,
            strict=True,
        )
    )
    return buffer.getvalue()


def write_trajectory(trajectory: Trajectory, path: str | Path) -> None:
    Path(path).write_text(format_trajectory(trajectory), encoding="utf-8")


def _row_error(path: Path, index: int, message: str) -> ValueError:
    """The error for data row ``index``, naming its line; the file is read
    again because a quoted field may span lines."""
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for _ in itertools.islice(reader, index + 2):
            pass
        return ValueError(f"{path}:{reader.line_num}: {message}")


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _floats(
    path: Path, name: str, column: list[str], accept: Callable[[float], bool], expected: str
) -> list[float]:
    """Parse a numeric column whose values must all satisfy ``accept``,
    which rejects NaN (what a non-number parses to on the error path)."""
    try:
        values = list(map(float, column))
    except ValueError:
        values = list(map(_parse_float, column))
    if not all(map(accept, values)):
        i = next(i for i, v in enumerate(values) if not accept(v))
        raise _row_error(path, i, f"{name} is {column[i]!r}, expected {expected}")
    return values


def read_trajectory(path: str | Path) -> Trajectory:
    """Re-import an exported trajectory.

    The CSV schema does not carry the prior or seed, so both are None. The
    true type is inferred from the first step where the prescriptions
    disagree (the applied action then identifies it) and left None when every
    step pools. Derived columns
    must equal their derivation and numbers lie in range, or a
    ``ValueError("<path>:<line>: ...")`` names the first offending row. A
    wrong header, or a file that does not decode, is a ValueError that
    starts with the path.
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = tuple(next(reader, ()))
            if header != TRAJECTORY_COLUMNS:
                raise ValueError(f"{path}: unexpected trajectory header {header}")
            rows = list(reader)
    except UnicodeDecodeError as err:  # a ValueError without the path
        raise ValueError(f"{path}: {err}") from err
    width = len(TRAJECTORY_COLUMNS)
    if set(map(len, rows)) - {width}:
        i = next(i for i, row in enumerate(rows) if len(row) != width)
        raise _row_error(path, i, f"expected {width} fields, got {len(rows[i])}")
    k, states, a_b, a_m, applied, reactions, beliefs, coeffs, agreement = (
        [list(column) for column in zip(*rows)] if rows else [[] for _ in range(width)]
    )
    traj = Trajectory(
        true_type=None,
        prior=None,
        seed=None,
        states=states,
        actions_benign=a_b,
        actions_malicious=a_m,
        reactions=reactions,
        beliefs=_floats(path, "belief_m", beliefs, lambda v: 0 <= v <= 1, "a number in [0, 1]"),
        coefficients=_floats(
            path, "bayes_coeff", coeffs, lambda v: 0 <= v < math.inf, "a finite number >= 0"
        ),
    )
    derived = traj.agreement
    if 1 in derived:
        i = derived.index(1)
        traj.true_type = MALICIOUS if applied[i] == a_m[i] else BENIGN
    for name, got, want in (
        ("k", k, list(map(str, range(1, len(rows) + 1)))),
        ("applied_action", applied, traj.applied_actions),
        ("agreement", agreement, list(map(str, derived))),
    ):
        if got != want:
            i = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
            raise _row_error(path, i, f"{name} is {got[i]!r}, expected {want[i]!r}")
    return traj


def check_outdir(outdir: str | Path) -> None:
    """Refuse a batch directory that already holds a batch's files.

    Raises ValueError naming the directory and one such file, a
    ``summary.json`` or an ``episode_*.csv``, as a new batch would leave the
    old files beside its own. A missing directory costs one failed open.
    """
    try:
        names = sorted(os.listdir(outdir))
    except FileNotFoundError:
        return
    for name in names:
        if name == "summary.json" or (name.startswith("episode_") and name.endswith(".csv")):
            raise ValueError(f"{outdir}: already holds {name}; write the batch to a new directory")


def write_batch(
    summary: BatchSummary, trajectories: list[Trajectory | None], outdir: str | Path
) -> list[Path]:
    """Write episode_NNNN.csv per trajectory plus summary.json; returns the
    paths written. A directory that holds an earlier batch is refused (see
    ``check_outdir``) before anything is written."""
    check_outdir(outdir)
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
    summary_path.write_text(
        json.dumps(asdict(summary), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    written.append(summary_path)
    return written
