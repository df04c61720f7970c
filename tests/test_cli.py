import argparse
import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import siggame
from siggame.cli import build_parser, main
from siggame.model import MALICIOUS
from siggame.scenario_io import resolve_config_path, write_trajectory
from siggame.simulate import Trajectory


# `diagnose` over the two episodes of test_batch_writes_files_then_diagnose_reads_them
_DIAGNOSED_TWO_EPISODES = """\
{
  "detection_averse": true,
  "reports": [
    {
      "classification": "F_TO_ONE",
      "file": "<outdir>/episode_0000.csv",
      "limit_estimate": 0.361765301895,
      "oscillation": 0.0,
      "pi_to_zero_also": false,
      "sustained_agreement_step": 39
    },
    {
      "classification": "F_TO_ONE",
      "file": "<outdir>/episode_0001.csv",
      "limit_estimate": 0.396366487221,
      "oscillation": 0.0,
      "pi_to_zero_also": false,
      "sustained_agreement_step": 31
    }
  ]
}
"""


@pytest.fixture
def table1_path():
    return str(resolve_config_path("table1"))


class TestValidateCommand:
    def test_good_config_exits_zero(self, table1_path, capsys):
        assert main(["validate", "--config", table1_path]) == 0
        out = capsys.readouterr().out
        assert "kernel: ok" in out
        assert "distinguishability: ok" in out

    def test_bad_row_exits_one(self, table1_path, tmp_path, capsys):
        doc = json.loads(Path(table1_path).read_text())
        doc["kernel"]["rows"]["x_n"]["a_b"] = [0.5, 0.6]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", "--config", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"error: {bad}: kernel validation failed: ")
        assert "('x_n', 'a_b', 'r_b')" in line

    def test_missing_file_exits_one(self, capsys):
        assert main(["validate", "--config", "/nonexistent.json"]) == 1

    def test_missing_field_error_names_file(self, table1_path, tmp_path, capsys):
        doc = json.loads(Path(table1_path).read_text())
        del doc["prior"]
        bad = tmp_path / "no_prior.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", "--config", str(bad)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {bad}: ")
        assert "'prior'" in line

    def test_misspelt_field_exits_one(self, table1_path, tmp_path, capsys):
        doc = json.loads(Path(table1_path).read_text())
        doc["horizn"] = doc.pop("horizon")
        bad = tmp_path / "typo.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", "--config", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {bad}: document: unknown field 'horizn'"]

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ('"prior": 0.1', '"prior": 1' + "0" * 400, "prior: integer too large for a double"),
            (
                "[0.9, 0.1]",
                "[1" + "0" * 400 + ", 0.1]",
                "kernel.rows.x_n.a_b: integer too large for a double",
            ),
            # the decoder refuses a literal of over 4300 digits with a bare
            # ValueError, whose message has no path
            ('"prior": 0.1', '"prior": 1' + "0" * 5000, "Exceeds the limit (4300 digits)"),
            ('"prior": 0.1', '"prior": 0.1, "prior": 0.9', "duplicate key 'prior'"),
            ('"a_b": [0.9, 0.1]', '"a_b": [0.9, 0.1], "a_b": [0.5, 0.5]', "duplicate key 'a_b'"),
            ('"r_b": 2.0', '"r_b": 2.0, "r_b": 3.0', "duplicate key 'r_b'"),
        ],
        ids=[
            "prior-too-large",
            "row-entry-too-large",
            "literal-too-long",
            "repeated-field",
            "repeated-kernel-label",
            "repeated-utility-label",
        ],
    )
    def test_edited_file_is_one_error_line(self, table1_path, tmp_path, capsys, old, new, message):
        text = Path(table1_path).read_text()
        assert text.count(old) == 1
        bad = tmp_path / "bad.json"
        bad.write_text(text.replace(old, new))
        assert main(["validate", "--config", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"error: {bad}: {message}")

    def test_indistinguishable_kernel_reported_once(self, table1_path, tmp_path, capsys, recwarn):
        doc = json.loads(Path(table1_path).read_text())
        for x in ("x_n", "x_a"):
            doc["kernel"]["rows"][x]["a_m"] = doc["kernel"]["rows"][x]["a_b"]
        pooled = tmp_path / "pooled.json"
        pooled.write_text(json.dumps(doc))
        assert main(["validate", "--config", str(pooled)]) == 0
        captured = capsys.readouterr()
        assert captured.out.count("action distinguishability: WARNING") == 1
        assert captured.err == ""
        assert not [w for w in recwarn if issubclass(w.category, UserWarning)]


class TestEquilibriumCommand:
    def test_reports_low_belief_prescriptions(self, table1_path, capsys):
        assert main(
            ["equilibrium", "--config", table1_path, "--belief", "0.1", "--state", "x_n"]
        ) == 0
        out = capsys.readouterr().out
        assert "malicious action: a_m" in out
        assert "reaction:         r_b" in out

    def test_gap_belief_reports_nonexistence(self, table1_path, capsys):
        code = main(
            ["equilibrium", "--config", table1_path, "--belief", "0.35", "--state", "x_n"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "no pure equilibrium" in err
        assert "approximate roots" in err


class TestSimulateCommand:
    def test_byte_identical_reruns(self, table1_path, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--config", table1_path, "--seed", "9", "--steps", "40"]
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_stdout_output(self, table1_path, capsys):
        assert main(["simulate", "--config", table1_path, "--seed", "9", "--steps", "5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("k,state,")
        assert len(out.strip().split("\n")) == 6


class TestFileErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "--config", ""],
            ["validate", "--config", "{dir}"],
            ["equilibrium", "--config", "{dir}", "--belief", "0.1", "--state", "x_n"],
            ["diagnose", "--in", "{dir}"],
            ["batch", "--config", "table1", "--episodes", "1", "--outdir", "{file}"],
        ],
        ids=[
            "empty-config",
            "directory-config",
            "directory-equilibrium",
            "directory-in",
            "file-outdir",
        ],
    )
    def test_one_error_line(self, argv, tmp_path, capsys):
        file = tmp_path / "file"
        file.write_text("")
        argv = [arg.format(dir=tmp_path, file=file) for arg in argv]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ")

    @pytest.mark.parametrize(
        "command, suffix",
        [("validate --config", ".json"), ("diagnose --in", ".csv")],
        ids=["config", "trajectory"],
    )
    def test_undecodable_file_is_named(self, command, suffix, tmp_path, capsys):
        # a UnicodeDecodeError is a ValueError, but its message has no path
        bad = tmp_path / f"bad{suffix}"
        bad.write_bytes(b"\xff\xfe{}")
        assert main([*command.split(), str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"error: {bad}: ")

    def test_directory_config_never_reads_a_sibling_file(self, table1_path, tmp_path, capsys):
        # an existing path is read as given, so ``d`` never resolves to ``d.json``
        (tmp_path / "d").mkdir()
        (tmp_path / "d.json").write_text(Path(table1_path).read_text())
        assert main(["validate", "--config", str(tmp_path / "d")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ")


class TestBatchAndDiagnoseCommands:
    def test_batch_writes_files_then_diagnose_reads_them(self, table1_path, tmp_path, capsys):
        outdir = tmp_path / "batch"
        assert main(
            [
                "batch",
                "--config",
                table1_path,
                "--episodes",
                "2",
                "--seed",
                "4",
                "--steps",
                "60",
                "--outdir",
                str(outdir),
            ]
        ) == 0
        capsys.readouterr()
        episodes = sorted(str(p) for p in outdir.glob("episode_*.csv"))
        assert len(episodes) == 2
        assert (outdir / "summary.json").exists()
        assert main(["diagnose", "--in", *episodes]) == 0
        out = capsys.readouterr().out
        assert out.replace(str(outdir), "<outdir>") == _DIAGNOSED_TWO_EPISODES
        doc = json.loads(out)
        assert len(doc["reports"]) == 2
        # a malicious batch whose limits all clear 1 - tol
        assert all(r["limit_estimate"] <= 0.95 for r in doc["reports"])
        assert doc["detection_averse"] is True
        for report in doc["reports"]:
            assert report["classification"] in ("F_TO_ONE", "PI_TO_ZERO", "UNDECIDED")

    def test_detection_averse_false_when_belief_nears_one(self, tmp_path, capsys):
        near_one = tmp_path / "near_one.csv"
        write_trajectory(
            Trajectory(
                true_type=MALICIOUS,
                prior=0.5,
                seed=0,
                states=["x_n"] * 30,
                actions_benign=["a_b"] * 30,
                actions_malicious=["a_m"] * 30,
                reactions=["r_m"] * 30,
                beliefs=[0.995] * 30,
                coefficients=[1.0] * 30,
            ),
            near_one,
        )
        assert main(["diagnose", "--in", str(near_one)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["reports"][0]["limit_estimate"] == pytest.approx(0.995)
        assert doc["detection_averse"] is False

    def test_default_diagnose_matches_batch_summary(self, tmp_path, capsys):
        # both commands classify with DEFAULT_TOL unless told otherwise
        outdir = tmp_path / "batch"
        argv = ["--config", "table4", "--episodes", "40", "--seed", "11", "--outdir", str(outdir)]
        assert main(["batch", *argv]) == 0
        capsys.readouterr()
        episodes = sorted(str(p) for p in outdir.glob("episode_*.csv"))
        assert main(["diagnose", "--in", *episodes]) == 0
        reports = json.loads(capsys.readouterr().out)["reports"]
        summary = json.loads((outdir / "summary.json").read_text())
        expected = {"F_TO_ONE": 32, "PI_TO_ZERO": 0, "UNDECIDED": 8, "ERROR": 0}
        assert summary["classifications"] == expected
        tally = dict.fromkeys(summary["classifications"], 0)
        for report, limit in zip(reports, summary["limit_estimates"], strict=True):
            assert report["limit_estimate"] == pytest.approx(limit, abs=1e-11)
            tally[report["classification"]] += 1
        assert tally == summary["classifications"]

    def test_batch_into_an_earlier_batch_is_refused(
        self, table1_path, tmp_path, capsys, monkeypatch
    ):
        # a 2-episode batch into the directory of a 4-episode one would leave
        # four CSVs beside a summary of two; it fails before any episode runs
        outdir = tmp_path / "batch"
        args = ["batch", "--config", table1_path, "--steps", "30", "--outdir", str(outdir)]
        assert main([*args, "--episodes", "4"]) == 0
        capsys.readouterr()
        before = _tree_bytes(outdir)
        monkeypatch.setattr("siggame.cli.run_batch", None)  # no episode may run
        assert main([*args, "--episodes", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: {outdir}: already holds episode_0000.csv; write the batch to a new directory"
        ]
        assert _tree_bytes(outdir) == before

    def test_batch_window_below_one_writes_nothing(self, table1_path, tmp_path, capsys):
        outdir = tmp_path / "batch"
        args = ["batch", "--config", table1_path, "--episodes", "2", "--outdir", str(outdir)]
        assert main([*args, "--window", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: window must be >= 1, got 0"]
        assert not outdir.exists()

    def test_batch_workers_below_one_writes_nothing(self, table1_path, tmp_path, capsys):
        outdir = tmp_path / "batch"
        args = ["batch", "--config", table1_path, "--episodes", "2", "--outdir", str(outdir)]
        assert main([*args, "--workers", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: workers must be >= 1, got 0"]
        assert not outdir.exists()

    @pytest.mark.parametrize("tol", ["nan", "0", "-1", "1", "5"])
    def test_batch_tol_outside_unit_interval_writes_nothing(
        self, table1_path, tmp_path, capsys, tol
    ):
        outdir = tmp_path / "batch"
        args = ["batch", "--config", table1_path, "--episodes", "3", "--steps", "40"]
        assert main([*args, "--tol", tol, "--outdir", str(outdir)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: tol must lie in (0, 1), got {float(tol)!r}"]
        assert not outdir.exists()

    @pytest.mark.parametrize("tol", ["nan", "0", "-1", "1", "5"])
    def test_diagnose_tol_outside_unit_interval_exits_one(
        self, table1_path, tmp_path, capsys, tol
    ):
        episode = tmp_path / "episode.csv"
        args = ["simulate", "--config", table1_path, "--steps", "30", "--out", str(episode)]
        assert main(args) == 0
        assert main(["diagnose", "--in", str(episode), "--tol", tol]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: tol must lie in (0, 1), got {float(tol)!r}"]

    def test_diagnose_checks_tol_before_reading_any_file(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        assert main(["diagnose", "--in", str(missing), "--tol", "nan"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: tol must lie in (0, 1), got nan"]

    def test_short_trajectory_error_names_file(self, table1_path, tmp_path, capsys):
        short = tmp_path / "short.csv"
        args = ["simulate", "--config", table1_path, "--steps", "10", "--out", str(short)]
        assert main(args) == 0
        assert main(["diagnose", "--in", str(short), "--window", "20"]) == 1
        err = capsys.readouterr().err
        assert f"error: {short}: " in err
        assert "too short for window 20: needs at least 21" in err

    @pytest.mark.parametrize("window", ["0", "-5"])
    def test_window_below_one_exits_one(self, table1_path, tmp_path, capsys, window):
        episode = tmp_path / "episode.csv"
        args = ["simulate", "--config", table1_path, "--steps", "30", "--out", str(episode)]
        assert main(args) == 0
        assert main(["diagnose", "--in", str(episode), "--window", window]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: window must be >= 1, got {window}"]


def _with_horizon(name, horizon, directory):
    """Path of a copy of bundled scenario ``name`` at ``horizon``."""
    doc = json.loads(resolve_config_path(name).read_text())
    doc["horizon"] = horizon
    path = directory / f"{name}_horizon{horizon}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _tree_bytes(directory):
    return {p.relative_to(directory): p.read_bytes() for p in sorted(directory.rglob("*"))}


class TestHorizonThreeCommands:
    """Windows of 2097152 joint profiles through the console entry point,
    and the horizon-2 worker parity beside them."""

    def test_exact_solve(self, tmp_path, capsys):
        config = _with_horizon("table1", 3, tmp_path)
        assert main(["equilibrium", "--config", config, "--belief", "0.7", "--state", "x_n"]) == 0
        assert "equilibria found: 2048 (tie broken: True)" in capsys.readouterr().out.splitlines()

    def test_fallback(self, tmp_path, capsys):
        config = _with_horizon("table1", 3, tmp_path)
        assert main(["equilibrium", "--config", config, "--belief", "0.36", "--state", "x_n"]) == 1
        assert "2097152 joint profiles" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, horizon, episodes, steps",
        [("table1", 3, 2, 30), ("table4", 3, 2, 30), ("table1", 2, 5, 40)],
        ids=["table1", "table4", "table1-horizon2"],
    )
    def test_one_and_two_workers_write_the_same_bytes(
        self, name, horizon, episodes, steps, tmp_path, capsys
    ):
        # table4's proofs check hundreds of thousands of close profiles in
        # chunks; the horizon-2 batch is the bundled default's
        config = _with_horizon(name, horizon, tmp_path)
        args = ["batch", "--config", config, "--episodes", str(episodes), "--steps", str(steps)]
        for workers in ("1", "2"):
            assert main([*args, "--workers", workers, "--outdir", str(tmp_path / workers)]) == 0
        one = _tree_bytes(tmp_path / "1")
        assert len(one) == episodes + 1 and one == _tree_bytes(tmp_path / "2")


class TestOversizedWindow:
    @pytest.mark.parametrize(
        "command",
        [
            ["equilibrium", "--belief", "0.1", "--state", "x_n"],
            ["simulate", "--steps", "5"],
            ["batch", "--episodes", "2", "--steps", "30", "--outdir", "{outdir}"],
        ],
        ids=["equilibrium", "simulate", "batch"],
    )
    def test_one_error_line_names_the_limit(self, command, tmp_path, capsys):
        # a horizon-13 window's count has more digits than Python formats by default
        config = _with_horizon("table1", 13, tmp_path)
        outdir = tmp_path / "out"
        argv = [command[0], "--config", config, *command[1:]]
        assert main([arg.format(outdir=outdir) for arg in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ")
        assert "joint profiles exceed the exhaustive-scan limit of 10000000" in line
        assert not outdir.exists()


class TestAppendixACommand:
    def test_prints_closed_form_value(self, capsys):
        assert main(["appendix-a", "--p", "0.25", "--k", "1", "--prior", "0.1"]) == 0
        assert capsys.readouterr().out.strip() == "0.1290323"

    def test_half_probability_returns_prior(self, capsys):
        assert main(["appendix-a", "--p", "0.5", "--k", "4", "--prior", "0.1"]) == 0
        assert capsys.readouterr().out.strip() == "0.1000000"


class TestArgumentErrors:
    def test_unknown_flag_exits_nonzero(self):
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--bogus", "1"])
        assert info.value.code != 0

    def test_malformed_seed_exits_nonzero(self, table1_path):
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--config", table1_path, "--seed", "-3"])
        assert info.value.code != 0

    def test_missing_subcommand_exits_nonzero(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code != 0


# Saves table1 at horizon 1, then runs batch, diagnose and validate on it.
_EVERY_FILE_COMMAND = """
import sys
from dataclasses import replace
from siggame import cli
from siggame.scenario_io import load_scenario, resolve_config_path, save_scenario
config, batch = sys.argv[1] + "/table1.json", sys.argv[1] + "/batch"
save_scenario(replace(load_scenario(resolve_config_path("table1")), horizon=1), config)
episodes = [f"{batch}/episode_000{i}.csv" for i in range(2)]
sys.exit(
    cli.main(["batch", "--config", config, "--episodes", "2", "--outdir", batch])
    or cli.main(["diagnose", "--in", *episodes])
    or cli.main(["validate", "--config", config])
)
"""


def test_files_are_read_and_written_as_utf8(tmp_path):
    # a text read or write that falls back to the locale's encoding warns here
    proc = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning"]
        + ["-c", _EVERY_FILE_COMMAND, str(tmp_path)],
        capture_output=True,
        text=True,
        cwd=Path(siggame.__file__).parents[1],
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert sorted(p.name for p in (tmp_path / "batch").iterdir()) == [
        "episode_0000.csv",
        "episode_0001.csv",
        "summary.json",
    ]


def test_readme_commands_parse():
    # each command README shows parses, without running, and they cover
    # every subcommand once
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("siggame ")]
    parser = build_parser()
    for argv in commands:
        assert parser.parse_args(argv).command == argv[0]
    [subparsers] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(argv[0] for argv in commands) == sorted(subparsers.choices)
