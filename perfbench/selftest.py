"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Runs from any directory; takes about half a minute (E8 is traced twice).
"""
from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import time
import unittest

import run


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.golden = json.loads(run.GOLDEN.read_text())["sha256"]
        cls.workdir = run.ROOT / ".perfbench-work" / f"selftest-{os.getpid()}"
        cls.workdir.mkdir(parents=True)

    @classmethod
    def tearDownClass(cls):
        run.remove_workdir(cls.workdir)

    def iteration(self, workload: str, trace: bool, golden=None) -> dict:
        return run.run_iteration(
            workload, 5, self.workdir, 0, trace, golden or self.golden, time.monotonic() + 170
        )

    def test_corrupted_golden_digest_fails_exactly_that_operation(self):
        golden = copy.deepcopy(self.golden)
        golden["F4"]["json"] = "0" * 64
        res = run.measure("verify", 5, 0, False, golden)
        self.assertEqual(res["failed"], 1)
        self.assertGreaterEqual(res["attempted"], 4)
        self.assertIn("component-groups F4 --verify: stdout differs", res["failures"][0])

    def test_traced_stdout_equals_untraced(self):
        ops = [
            run.Op("B4", "json", ["component-groups", "B4", "--verify"]),
            run.Op("G2", "md", ["component-groups", "G2", "--format", "md"]),
            run.Op("C3", "csv", ["component-groups", "C3", "--format", "csv"]),
        ]
        env = run.child_env(5)
        for k, op in enumerate(ops):
            outs = []
            for mode in ("run", "trace"):
                raw = run.launch(op, self.workdir, f"{k}-{mode}", mode, env, time.monotonic() + 60)
                self.assertEqual(raw["exit"], 0, op)
                outs.append(raw["out"].read_bytes())
            self.assertEqual(outs[0], outs[1], op)
            self.assertTrue(outs[0])

    def test_e8_counters_repeat_exactly(self):
        first, second = (
            run.layer_metrics(self.iteration("e8-report", True)) for _ in range(2)
        )
        counts = {k: v for k, v in first.items() if run.unit_of(k) == "count"}
        self.assertEqual(counts, {k: second[k] for k in counts})
        self.assertEqual(counts["pseudolevi.subsystem_closure.calls"], 511)
        self.assertEqual(counts["rootsys.canonical_labeled_set.calls"], 485)
        self.assertEqual(counts["compgroup.records"], 113)

    def test_refuses_to_run_without_the_sources(self):
        bare = self.workdir / "bare"
        shutil.copytree(run.HERE, bare / run.HERE.name)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "sweep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
