"""Self-test of the benchmark: ``python3 bench/selftest.py`` from the repo root.

Runs every workload at a tiny size, untraced and traced, and checks that each
named metric is reported with its unit and that nothing fails. Then shows that
the gates bite: one flipped byte of a golden output, a window value off by one
ulp at the default seed, or off by more than the oracle tolerance on another
seed, makes operations fail.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402


def _run(argv, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, *argv], cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=600, check=False,
    )


def _flip_first_byte(arts):
    name = next(iter(arts))
    index, data = arts[name]
    arts[name] = (index, bytes([data[0] ^ 0x01]) + data[1:])


class ManifestTest(unittest.TestCase):
    def test_benchmark_json_matches_definitions(self):
        committed = json.loads(run.MANIFEST_PATH.read_text())
        self.assertEqual(committed, run.manifest())


class TinyRunTest(unittest.TestCase):
    """One command runs every workload and reports every metric."""

    def _check_all(self, trace, expected):
        proc = _run(["bench/run.py", "--workload", "all", "--size", "tiny",
                     "--seconds", "1", "--trace", str(trace)])
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout + proc.stderr)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], len(run.WORKLOADS))
        for workload in run.WORKLOADS:
            for metric in expected:
                entry = result["metrics"][f"{workload}/{metric['name']}"]
                self.assertEqual(entry["unit"], metric["unit"])
                self.assertTrue(math.isfinite(entry["value"]))
        self.assertEqual(len(result["metrics"]), len(run.WORKLOADS) * len(expected))

    def test_end_to_end(self):
        self._check_all(0, run.manifest()["end_to_end"])

    def test_per_layer(self):
        self._check_all(1, run.manifest()["per_layer"])

    def test_refuses_without_program(self):
        """In a directory with only the benchmark, it fails without a result."""
        bare = run.OUT / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.MANIFEST_PATH, bare / "BENCHMARK.json")
        try:
            proc = _run(["bench/run.py", "--workload", "batch_table1_h2", "--seconds", "1"],
                        cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class GateTest(unittest.TestCase):
    """Perturbed outputs are counted as failed operations."""

    @classmethod
    def setUpClass(cls):
        cls.sg = run.import_siggame()
        cls.golden = run.load_golden()
        cls.workdir = run.OUT / "selftest-gates"
        shutil.rmtree(cls.workdir, ignore_errors=True)
        cls.workdir.mkdir(parents=True)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def _failed(self, cls, seed, corrupt, unit=0):
        workload = cls(self.sg, seed, "tiny", self.workdir)
        workload.prepare()
        ops, _, output = workload.run_unit(unit)
        try:
            clean = run.check_unit(workload, unit, output, self.golden)
            self.assertEqual(clean, [], f"{cls.name} fails unperturbed")
            problems = run.check_unit(workload, unit, output, self.golden, corrupt)
        finally:
            workload.discard(output)
        return run.failed_ops(ops, problems)

    def test_flipped_golden_byte_fails(self):
        for cls in run.WORKLOADS.values():
            with self.subTest(workload=cls.name):
                self.assertGreater(self._failed(cls, run.DEFAULT_SEED, _flip_first_byte), 0)

    # Unit 1 of solve_h3 is a point in the exact range.
    EXACT_UNIT = 1

    @staticmethod
    def _move_value(move):
        def corrupt(arts):
            (name, (index, data)), = arts.items()
            record = json.loads(data)
            assert record["kind"] == "exact", record
            record["values"][0] = move(record["values"][0])
            arts[name] = (index, json.dumps(record, sort_keys=True).encode())

        return corrupt

    def test_golden_catches_one_ulp(self):
        one_ulp = self._move_value(lambda v: math.nextafter(v, math.inf))
        self.assertEqual(self._failed(run.SolveH3, run.DEFAULT_SEED, one_ulp, self.EXACT_UNIT), 1)

    def test_oracle_catches_perturbed_value(self):
        """Off the default seed no golden applies; the oracle alone fails a
        window value moved beyond its tolerance."""
        beyond_tolerance = self._move_value(lambda v: v + 1e-9 * max(1.0, abs(v)))
        self.assertEqual(self._failed(run.SolveH3, 1, beyond_tolerance, self.EXACT_UNIT), 1)


if __name__ == "__main__":
    unittest.main()
