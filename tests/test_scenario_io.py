import json
from dataclasses import replace

import pytest

from siggame.model import BENIGN, MALICIOUS
from siggame.scenario_io import (
    ScenarioFormatError,
    bundled_scenario_names,
    format_trajectory,
    load_scenario,
    read_trajectory,
    resolve_config_path,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    summary_to_dict,
    write_batch,
    write_trajectory,
)
from siggame.simulate import run_batch, run_episode


class TestBundledScenarios:
    def test_names_present(self):
        names = bundled_scenario_names()
        assert "table1.json" in names
        assert "table4.json" in names

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


class TestScenarioErrors:
    def test_bad_row_sum_names_row(self, table1, tmp_path):
        doc = scenario_to_dict(table1)
        doc["kernel"]["rows"]["x_n"]["a_b"]["r_b"] = [0.5, 0.6]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioFormatError, match=r"x_n.*a_b.*r_b"):
            load_scenario(path)

    def test_unknown_label_rejected(self, table1):
        doc = scenario_to_dict(table1)
        doc["utilities"]["sender"]["benign"]["x_q"] = 1.0
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
        ],
        ids=["rows-list", "prior-null", "label-list"],
    )
    def test_wrong_json_type_names_field(self, table1, field, edit):
        doc = scenario_to_dict(table1)
        edit(doc)
        with pytest.raises(ScenarioFormatError, match=field):
            scenario_from_dict(json.loads(json.dumps(doc)))

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


class TestBatchExport:
    def test_writes_episodes_and_summary(self, table1, tmp_path):
        scenario = replace(table1, episode_length=30)
        summary, trajectories = run_batch(scenario, 3, base_seed=77)
        written = write_batch(summary, trajectories, tmp_path / "out")
        names = sorted(p.name for p in written)
        assert names == ["episode_0000.csv", "episode_0001.csv", "episode_0002.csv", "summary.json"]
        doc = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert doc["n_episodes"] == 3
        assert doc == json.loads(json.dumps(summary_to_dict(summary)))
