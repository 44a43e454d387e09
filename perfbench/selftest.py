"""Self-test of the benchmark at tiny sizes: output schema and metric names.

    python3 perfbench/selftest.py

Runs every workload with --small, untraced and traced, and checks that the
last stdout line has exactly the keys correct, attempted, failed and metrics,
that the metric names and units are the ones BENCHMARK.json declares, and
that the benchmark refuses to run, printing no result, where the orbitlab
sources are missing.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(cwd: Path, workload: str, trace: int, small: bool = True):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "0.2", "--trace", str(trace)] + ["--small"] * small
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


class Schema(unittest.TestCase):
    def check_run(self, workload: str, trace: int) -> None:
        proc = run(ROOT, workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        *_, detail, last = proc.stdout.strip().splitlines()
        result = json.loads(last)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertEqual(result["failed"], 0)
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual({name: m["unit"] for name, m in result["metrics"].items()},
                         {m["name"]: m["unit"] for m in declared})
        for name, metric in result["metrics"].items():
            value = metric["value"]
            self.assertTrue(isinstance(value, (int, float)) and not isinstance(value, bool)
                            and math.isfinite(value), name)
        record = json.loads(detail)
        for key in ("python", "implementation", "cpu_count", "cpu_model",
                    "loadavg_start", "loadavg_end", "commit", "seed"):
            self.assertIn(key, record["env"])
        self.assertEqual(record["fail_ratio"], 0)
        self.assertTrue(record["samples"])

    def test_end_to_end(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, 0)

    def test_per_layer(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, 1)

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / HERE.name,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = run(Path(tmp), WORKLOADS[0], 0, small=False)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
