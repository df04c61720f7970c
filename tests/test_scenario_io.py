import json
import re
from dataclasses import asdict, fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siggame.model import BENIGN, MALICIOUS, TYPES, Scenario
from siggame.scenario_io import (
    TRAJECTORY_COLUMNS,
    ScenarioFormatError,
    format_trajectory,
    load_scenario,
    read_trajectory,
    resolve_config_path,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    write_batch,
    write_trajectory,
)
from siggame.simulate import Trajectory, run_batch, run_episode


class TestBundledScenarios:
    def test_table1_contents(self, table1):
        assert table1.prior == 0.1
        assert table1.initial_state == "x_n"
        assert table1.horizon == 2
        assert table1.true_type == MALICIOUS
        assert table1.kernel.row("x_n", "a_b", "r_b") == (0.9, 0.1)
        assert table1.kernel.row("x_a", "a_m", "r_m") == (0.7, 0.3)
        # reaction independence expanded over both reactions
        assert table1.kernel.row("x_n", "a_m", "r_b") == table1.kernel.row("x_n", "a_m", "r_m")
        assert table1.utilities.sender[(BENIGN, "x_n", "a_m", "r_m")] == 1.0
        assert table1.utilities.sender[(MALICIOUS, "x_a", "a_b", "r_b")] == 2.0
        assert table1.utilities.receiver[(MALICIOUS, "x_a", "a_m", "r_m")] == 1.0

    def test_table4_kernel_rows(self, table4):
        assert table4.kernel.row("x_n", "a_m", "r_b") == (0.85, 0.15)
        assert table4.kernel.row("x_a", "a_m", "r_b") == (0.79, 0.21)

    def test_resolve_accepts_bare_names(self):
        assert resolve_config_path("table1").name == "table1.json"
        assert resolve_config_path("table4").name == "table4.json"
        with pytest.raises(FileNotFoundError):
            resolve_config_path("not_a_config")


class TestScenarioRoundTrip:
    def test_dict_round_trip_is_identity(self, table1):
        assert scenario_from_dict(scenario_to_dict(table1)) == table1

    def test_file_round_trip(self, table1, tmp_path):
        path = tmp_path / "scenario.json"
        save_scenario(table1, path)
        assert load_scenario(path) == table1

    def test_json_round_trip_of_serialized_doc(self, table4):
        doc = scenario_to_dict(table4)
        assert scenario_from_dict(json.loads(json.dumps(doc))) == table4

    def test_absent_optional_keys_take_scenario_defaults(self, table1):
        doc = scenario_to_dict(replace(table1, horizon=3, episode_length=40, base_seed=9))
        for key in ("horizon", "steps", "seed"):
            del doc[key]
        optional = ("horizon", "episode_length", "base_seed")
        defaults = {f.name: f.default for f in fields(Scenario) if f.name in optional}
        assert len(defaults) == 3
        assert scenario_from_dict(doc) == replace(table1, **defaults)


class TestScenarioErrors:
    def test_bad_row_sum_names_row(self, table1, tmp_path):
        doc = scenario_to_dict(table1)
        doc["kernel"]["rows"]["x_n"]["a_b"]["r_b"] = [0.5, 0.6]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioFormatError, match=r"x_n.*a_b.*r_b") as info:
            load_scenario(path)
        assert str(info.value).startswith(f"{path}: kernel validation failed: ")

    def test_unknown_label_rejected(self, table1):
        for edit in (
            lambda doc: doc["utilities"]["sender"]["benign"].update(x_q=1.0),
            lambda doc: doc["kernel"]["rows"].update(x_q=doc["kernel"]["rows"]["x_n"]),
        ):
            doc = scenario_to_dict(table1)
            edit(doc)
            with pytest.raises(ScenarioFormatError, match="x_q"):
                scenario_from_dict(doc)

    def test_missing_field_reported(self, table1):
        doc = scenario_to_dict(table1)
        del doc["prior"]
        with pytest.raises(ScenarioFormatError, match="prior"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize(
        "field, edit",
        [
            ("kernel.rows", lambda doc: doc["kernel"].update(rows=[1, 2])),
            ("prior", lambda doc: doc.update(prior=None)),
            ("alphabets", lambda doc: doc["alphabets"].update(states=[["x_n"], "x_a"])),
            # nothing is coerced: each field takes its own JSON type
            ("horizon", lambda doc: doc.update(horizon=2.7)),
            ("steps", lambda doc: doc.update(steps=300.9)),
            ("seed", lambda doc: doc.update(seed=1.5)),
            ("horizon", lambda doc: doc.update(horizon=True)),
            ("prior", lambda doc: doc.update(prior=True)),
            ("seed", lambda doc: doc.update(seed="12")),
            ("prior", lambda doc: doc.update(prior="0.1")),
            ("alphabets.reactions", lambda doc: doc["alphabets"].update(reactions="rs")),
            (
                "kernel.reaction_independent",
                lambda doc: doc["kernel"].update(reaction_independent="false"),
            ),
            (
                "kernel.rows.x_n.a_b.r_b",
                lambda doc: doc["kernel"]["rows"]["x_n"]["a_b"].update(r_b=[True, 0]),
            ),
            # a JSON integer is a number only if a double holds it
            ("prior", lambda doc: doc.update(prior=10**400)),
            (
                "kernel.rows.x_n.a_b.r_b",
                lambda doc: doc["kernel"]["rows"]["x_n"]["a_b"].update(r_b=[10**400, 0]),
            ),
            (
                "utilities.sender.benign",
                lambda doc: doc["utilities"]["sender"]["benign"]["x_n"].update(a_b=-(10**400)),
            ),
        ],
        ids=[
            "rows-list",
            "prior-null",
            "label-list",
            "horizon-float",
            "steps-float",
            "seed-float",
            "horizon-bool",
            "prior-bool",
            "seed-string",
            "prior-string",
            "reactions-string",
            "reaction-independent-string",
            "row-entry-bool",
            "prior-too-large",
            "row-entry-too-large",
            "utility-too-large",
        ],
    )
    def test_wrong_json_type_names_field(self, table1, field, edit):
        doc = scenario_to_dict(table1)
        edit(doc)
        with pytest.raises(ScenarioFormatError, match=field):
            scenario_from_dict(json.loads(json.dumps(doc)))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc.update(horizn=3), "document: unknown field 'horizn'"),
            (lambda doc: doc["alphabets"].update(state=["x_n"]), "alphabets: unknown field 'state'"),
            (lambda doc: doc["kernel"].update(row={}), "kernel: unknown field 'row'"),
            (lambda doc: doc["utilities"].update(sendr={}), "utilities: unknown field 'sendr'"),
            (
                lambda doc: doc["utilities"]["sender"].update(bening=1.0),
                "utilities.sender: unknown field 'bening'",
            ),
        ],
        ids=["document", "alphabets", "kernel", "utilities", "utilities-side"],
    )
    def test_unknown_field_rejected(self, table1, edit, message):
        # a misspelt key would otherwise load with its field's default
        doc = scenario_to_dict(table1)
        edit(doc)
        with pytest.raises(ScenarioFormatError, match=f"^{re.escape(message)}$"):
            scenario_from_dict(doc)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ not json }")
        with pytest.raises(ScenarioFormatError, match="line"):
            load_scenario(path)

    def test_indistinguishable_kernel_warns_not_raises(self, table1, tmp_path):
        doc = scenario_to_dict(table1)
        for x in ("x_n", "x_a"):
            doc["kernel"]["rows"][x]["a_m"] = dict(doc["kernel"]["rows"][x]["a_b"])
        path = tmp_path / "pooled.json"
        path.write_text(json.dumps(doc))
        with pytest.warns(UserWarning, match="distinguishable"):
            load_scenario(path)


class TestUtilityExpansion:
    def test_wildcard_with_explicit_override(self, table1):
        doc = scenario_to_dict(table1)
        doc["utilities"]["sender"]["benign"] = {"*": 0.25, "x_a": {"*": {"*": 4.0}}}
        scenario = scenario_from_dict(doc)
        assert scenario.utilities.sender[(BENIGN, "x_n", "a_b", "r_b")] == 0.25
        assert scenario.utilities.sender[(BENIGN, "x_a", "a_m", "r_m")] == 4.0

    def test_scalar_collapses_all_levels(self, table1):
        doc = scenario_to_dict(table1)
        doc["utilities"]["receiver"]["benign"] = 0.5
        scenario = scenario_from_dict(doc)
        assert all(
            scenario.utilities.receiver[(BENIGN, x, a, r)] == 0.5
            for x in scenario.alphabets.states
            for a in scenario.alphabets.actions
            for r in scenario.alphabets.reactions
        )

    def test_incomplete_table_rejected(self, table1):
        doc = scenario_to_dict(table1)
        doc["utilities"]["sender"]["benign"] = {"x_n": 1.0}
        with pytest.raises(ScenarioFormatError, match="missing"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize(
        "node, message",
        [
            ({"x_n": {"a_b": "high"}}, "expected number or mapping, got 'high'"),
            ({"*": {"*": {"*": {"deep": 1.0}}}}, "nesting deeper than state/action/reaction"),
            ({"x_n": 1.0, "x_a": 0.0, "*": None}, "expected number or mapping, got None"),
        ],
        ids=["string-leaf", "too-deep", "null-wildcard"],
    )
    def test_malformed_node_names_table(self, table1, node, message):
        doc = scenario_to_dict(table1)
        doc["utilities"]["receiver"]["malicious"] = node
        with pytest.raises(ScenarioFormatError, match=re.escape(message)) as info:
            scenario_from_dict(doc)
        assert str(info.value).startswith("utilities.receiver.malicious: ")


class TestTrajectoryCsv:
    def test_header_and_rows(self, table1, tmp_path):
        traj = run_episode(replace(table1, episode_length=12), seed=5)
        text = format_trajectory(traj)
        lines = text.strip().split("\n")
        assert lines[0] == "k,state,action_b,action_m,applied_action,reaction,belief_m,bayes_coeff,agreement"
        assert len(lines) == 13
        assert lines[1].startswith("1,x_n,")

    def test_round_trip_preserves_values(self, table1, tmp_path):
        traj = run_episode(replace(table1, episode_length=25), seed=6)
        path = tmp_path / "episode.csv"
        write_trajectory(traj, path)
        back = read_trajectory(path)
        assert back.states == traj.states
        assert back.actions_benign == traj.actions_benign
        assert back.actions_malicious == traj.actions_malicious
        assert back.reactions == traj.reactions
        assert back.agreement == traj.agreement
        assert back.true_type == traj.true_type
        # the CSV carries neither, and seed 0 is a valid seed
        assert back.prior is None
        assert back.seed is None
        for a, b in zip(back.beliefs, traj.beliefs):
            assert a == pytest.approx(b, rel=1e-11)

    def test_reserialization_is_byte_identical(self, table1, tmp_path):
        # 12 significant digits re-import and re-export to the same bytes
        traj = run_episode(replace(table1, episode_length=25), seed=6)
        path = tmp_path / "episode.csv"
        write_trajectory(traj, path)
        again = tmp_path / "again.csv"
        write_trajectory(read_trajectory(path), again)
        assert path.read_bytes() == again.read_bytes()

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_trajectory(path)


def edited_csv(path, trajectory, line, column, value):
    """Write ``trajectory`` as CSV with one cell replaced (``column`` None
    appends ``value`` as an extra field); ``line`` counts the header as 1."""
    rows = [text.split(",") for text in format_trajectory(trajectory).splitlines()]
    if column is None:
        rows[line - 1].append(value)
    else:
        rows[line - 1][TRAJECTORY_COLUMNS.index(column)] = value
    path.write_text("".join(",".join(row) + "\n" for row in rows))


def raises_at(path, line, message=""):
    return pytest.raises(ValueError, match="^" + re.escape(f"{path}:{line}: {message}"))


class TestTrajectoryCsvChecks:
    """Stored columns that can be derived must equal their derivation, and
    numbers must be in range; each error names the path and line."""

    # Malicious type, known from step 1; steps 1, 2 and 4 separate, 3 pools.
    TRAJECTORY = Trajectory(
        true_type=MALICIOUS,
        prior=0.1,
        seed=0,
        states=["x_n", "x_a", "x_n", "x_n"],
        actions_benign=["a_b"] * 4,
        actions_malicious=["a_m", "a_m", "a_b", "a_m"],
        reactions=["r_b"] * 4,
        beliefs=[0.2, 0.4, 0.4, 0.6],
        coefficients=[2.0, 2.0, 1.0, 1.5],
    )

    @pytest.mark.parametrize(
        "line, column, value, message",
        [
            (4, "k", "7", "k is '7', expected '3'"),
            (5, "applied_action", "a_b", "applied_action is 'a_b', expected 'a_m'"),
            (2, "applied_action", "a_x", "applied_action is 'a_x', expected 'a_b'"),
            (3, "agreement", "0", "agreement is '0', expected '1'"),
            (4, "agreement", "1", "agreement is '1', expected '0'"),
            (3, None, "extra", "expected 9 fields, got 10"),
            (3, "belief_m", "nan", "belief_m is 'nan'"),
            (3, "belief_m", "1.5", "belief_m is '1.5'"),
            (3, "belief_m", "abc", "belief_m is 'abc'"),
            (5, "bayes_coeff", "inf", "bayes_coeff is 'inf'"),
            (5, "bayes_coeff", "-1", "bayes_coeff is '-1'"),
        ],
        ids=[
            "k",
            "applied-other-type",
            "applied-neither",
            "agreement-pooled",
            "agreement-separated",
            "extra-field",
            "belief-nan",
            "belief-above-one",
            "belief-not-a-number",
            "factor-infinite",
            "factor-negative",
        ],
    )
    def test_bad_cell_names_line(self, tmp_path, line, column, value, message):
        path = tmp_path / "episode.csv"
        edited_csv(path, self.TRAJECTORY, line, column, value)
        with raises_at(path, line, message):
            read_trajectory(path)


@st.composite
def trajectories(draw):
    """Up to 40 steps over small label sets; the applied actions follow the
    drawn type by construction, so the type is consistent."""
    n = draw(st.integers(0, 40))
    labels = st.sampled_from

    def column(options):
        return draw(st.lists(labels(options), min_size=n, max_size=n))

    return Trajectory(
        true_type=draw(labels(TYPES)),
        prior=0.5,
        seed=0,
        states=column(["x0", "x1", "x2"]),
        actions_benign=column(["a0", "a1"]),
        actions_malicious=column(["a0", "a1", "a2"]),
        reactions=column(["r0", "r1"]),
        beliefs=draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)),
        coefficients=draw(
            st.lists(
                st.floats(0.0, allow_nan=False, allow_infinity=False), min_size=n, max_size=n
            )
        ),
    )


@pytest.fixture(scope="class")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "episode.csv"


class TestTrajectoryCsvProperties:
    @settings(max_examples=150, deadline=None)
    @given(traj=trajectories(), data=st.data())
    def test_round_trip_and_single_cell_edits(self, csv_path, traj, data):
        text = format_trajectory(traj)
        csv_path.write_text(text)
        back = read_trajectory(csv_path)
        assert format_trajectory(back) == text
        for name in ("states", "actions_benign", "actions_malicious", "reactions"):
            assert getattr(back, name) == getattr(traj, name)
        assert back.applied_actions == traj.applied_actions
        assert back.agreement == traj.agreement
        assert back.true_type == (traj.true_type if 1 in traj.agreement else None)
        for name in ("beliefs", "coefficients"):
            assert getattr(back, name) == [float(format(v, ".12g")) for v in getattr(traj, name)]
        if not len(traj):
            return
        i = data.draw(st.integers(0, len(traj) - 1), label="row")
        a_b, a_m = traj.actions_benign[i], traj.actions_malicious[i]
        applied = ["a_x"]
        if a_b != a_m and i != traj.agreement.index(1):
            # a separating step after the one the type is inferred from
            applied.append(a_b if traj.applied_actions[i] == a_m else a_m)
        for column, value in (
            ("k", data.draw(st.sampled_from(["0", str(i + 2), "x"]), label="k")),
            ("applied_action", data.draw(st.sampled_from(applied), label="applied")),
            ("agreement", str(1 - traj.agreement[i])),
        ):
            edited_csv(csv_path, traj, i + 2, column, value)
            with raises_at(csv_path, i + 2, column):
                read_trajectory(csv_path)


class TestBatchExport:
    def test_writes_episodes_and_summary(self, table1, tmp_path):
        scenario = replace(table1, episode_length=30)
        summary, trajectories = run_batch(scenario, 3, base_seed=77)
        written = write_batch(summary, trajectories, tmp_path / "out")
        names = sorted(p.name for p in written)
        assert names == ["episode_0000.csv", "episode_0001.csv", "episode_0002.csv", "summary.json"]
        doc = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert doc["n_episodes"] == 3
        assert doc == json.loads(json.dumps(asdict(summary)))

    def test_directory_of_an_earlier_batch_is_refused(self, table1, tmp_path):
        # the second batch would leave episode_0002.csv beside a summary of
        # two episodes; nothing of the first is touched
        scenario = replace(table1, episode_length=30)
        outdir = tmp_path / "out"
        write_batch(*run_batch(scenario, 3, base_seed=77), outdir)
        before = {p.name: p.read_bytes() for p in outdir.iterdir()}
        second = run_batch(scenario, 2, base_seed=78)
        message = re.escape(f"{outdir}: already holds episode_0000.csv")
        with pytest.raises(ValueError, match=f"^{message}; "):
            write_batch(*second, outdir)
        assert {p.name: p.read_bytes() for p in outdir.iterdir()} == before
        for p in outdir.glob("episode_*.csv"):
            p.unlink()
        with pytest.raises(ValueError, match=re.escape(f"{outdir}: already holds summary.json")):
            write_batch(*second, outdir)
        (outdir / "summary.json").unlink()
        (outdir / "notes.txt").write_text("kept")  # other files do not count
        written = write_batch(*second, outdir)
        assert len(written) == 3 and (outdir / "notes.txt").read_text() == "kept"

    def test_failed_episode_is_skipped(self, table1, tmp_path):
        # a failed episode is None in the batch; its CSV is not written, and
        # the others keep their episode numbers
        scenario = replace(table1, episode_length=30)
        summary, trajectories = run_batch(scenario, 3, base_seed=77)
        trajectories[1] = None
        written = write_batch(summary, trajectories, tmp_path / "out")
        names = sorted(p.name for p in written)
        assert names == ["episode_0000.csv", "episode_0002.csv", "summary.json"]
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == names
