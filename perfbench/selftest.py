"""Self-tests of the benchmark itself (not of the program it measures).

Run from the repository root::

    python3 perfbench/selftest.py

It runs every workload once untraced and once traced for one second of
pass time (one pass each, a few minutes in all) and checks that

* the printed metric names and units are exactly those of
  ``BENCHMARK.json``, and every output check passed;
* traced runs produce the same outputs as untraced ones, so the
  wrappers only observe;
* the traced layer self times plus ``unattributed`` add up to the
  traced wall, and the engine phases to the engine time;
* one workload seed regenerates identical inputs and another seed
  gives different ones;
* without the program's sources the benchmark fails without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 1


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False,
    )


class BenchmarkSelfTest(unittest.TestCase):
    runs: dict = {}

    @classmethod
    def setUpClass(cls):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace in (0, 1):
                proc = run_benchmark(workload, trace)
                line = json.loads(proc.stdout.strip().splitlines()[-1])
                saved = json.loads(
                    (OUT_DIR / f"{workload}-seed{SEED}-trace{trace}.json").read_text()
                )
                cls.runs[workload, trace] = (proc, line, saved)

    def test_metric_names_and_units_match_the_spec(self):
        for (workload, trace), (proc, line, _) in self.runs.items():
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(proc.returncode, 0, proc.stdout[-3000:] + proc.stderr[-3000:])
                self.assertEqual(sorted(line), ["attempted", "correct", "failed", "metrics"])
                self.assertTrue(line["correct"])
                self.assertEqual(line["failed"], 0)
                self.assertGreater(line["attempted"], 0)
                declared = SPEC["per_layer" if trace else "end_to_end"]
                self.assertEqual(
                    sorted((name, m["unit"]) for name, m in line["metrics"].items()),
                    sorted((m["name"], m["unit"]) for m in declared),
                )

    def test_traced_outputs_equal_untraced_outputs(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                untraced = self.runs[workload, 0][2]["outputs"]
                traced = self.runs[workload, 1][2]["outputs"]
                self.assertTrue(untraced)
                self.assertEqual(traced, untraced)

    def test_layer_times_sum_to_the_traced_wall(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                saved = self.runs[workload, 1][2]
                breakdown = saved["breakdown"]
                wall = breakdown["wall_s"]
                self.assertGreater(wall, 0.0)
                self.assertIn("unattributed", breakdown["self_s"])
                self.assertAlmostEqual(sum(breakdown["self_s"].values()), wall, delta=1e-9 * wall)
                parent = [s for s in saved["spans"] if s["process"] == "parent"]
                self.assertAlmostEqual(sum(s["self_s"] for s in parent), wall, delta=1e-9 * wall)
                engine_s = sum(s["total_s"] for s in saved["spans"] if s["layer"] == "engine.run")
                self.assertAlmostEqual(
                    sum(breakdown["engine_phases_s"].values()), engine_s, delta=1e-9 * engine_s
                )

    def test_inputs_follow_the_workload_seed(self):
        sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
        from workloads import WORKLOADS, Checks

        for name, cls in WORKLOADS.items():
            with self.subTest(workload=name):
                def digest(seed):
                    return cls(seed, OUT_DIR / "unused", Checks(), 1).inputs_digest()

                self.assertEqual(digest(5), digest(5))
                self.assertNotEqual(digest(5), digest(6))

    def test_fails_without_the_program_sources(self):
        bare = OUT_DIR / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_benchmark(SPEC["workloads"][0]["name"], 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
