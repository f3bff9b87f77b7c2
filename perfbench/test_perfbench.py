#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Builds perfbench_run as run.py does, then runs every workload twice
at one seed and once at another, for the minimum of four iterations
(two untraced, two traced).  The same seed must give the same output
digest and the same simulated per-layer counts, so later changes can
cite those counts; another seed must give another digest.  Takes about
three minutes on a 4-core host.
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


class Determinism(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.program = run.build_program()
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        # Scheduler counts (pool.*) depend on thread timing, not inputs.
        cls.counts = [m["name"] for m in spec["per_layer"]
                      if m["unit"] == "count"
                      and not m["name"].startswith("pool.")]

    def run_once(self, workload, seed):
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as workdir:
            subprocess.run(
                [str(self.program), "--workload", workload,
                 "--seed", str(seed), "--trace", "1", "--seconds", "1",
                 "--workdir", workdir],
                env=run.child_env(),
                stdout=subprocess.DEVNULL, check=True)
            result = json.loads((Path(workdir) / "result.json").read_text())
        iterations = result["iterations"]
        for it in iterations:
            self.assertEqual(it["passed"], it["attempted"], it["failures"])
        digests = {it["digest"] for it in iterations}
        self.assertEqual(len(digests), 1, "outputs differ between "
                                          "iterations of one run")
        traced = [it for it in iterations if it["traced"]]
        self.assertEqual(len(traced), 2)
        counts = [{name: it["layers"][name] for name in self.counts}
                  for it in traced]
        self.assertEqual(counts[0], counts[1])
        return digests.pop(), counts[0]

    def check(self, workload):
        digest, counts = self.run_once(workload, 11)
        again_digest, again_counts = self.run_once(workload, 11)
        other_digest, _ = self.run_once(workload, 12)
        self.assertEqual(digest, again_digest)
        self.assertEqual(counts, again_counts)
        self.assertNotEqual(digest, other_digest)

    def test_client_figures(self):
        self.check("client_figures")

    def test_server_buffer(self):
        self.check("server_buffer")

    def test_crash_explore(self):
        self.check("crash_explore")


class CellAccounting(unittest.TestCase):
    def progress(self, lines):
        handle = tempfile.NamedTemporaryFile(
            "w", suffix=".jsonl", dir=run.build_dir(), delete=False)
        with handle:
            handle.write("\n".join(json.dumps(line) for line in lines))
        self.addCleanup(Path(handle.name).unlink)
        return Path(handle.name)

    def test_crash_mid_iteration_fails_the_unfinished_cells(self):
        path = self.progress([{"cells_per_iteration": 12},
                              {"iteration": 0, "attempted": 12,
                               "passed": 12},
                              {"iteration": 1, "attempted": 12,
                               "passed": 11}])
        self.assertEqual(run.count_cells(path, finished=False),
                         (36, 13, 12))
        self.assertEqual(run.count_cells(path, finished=True), (24, 1, 0))

    def test_torn_last_line_is_ignored(self):
        path = self.progress([{"cells_per_iteration": 5}])
        with path.open("a") as handle:
            handle.write('\n{"iteration": 0, "attemp')
        self.assertEqual(run.count_cells(path, finished=False), (5, 5, 5))


if __name__ == "__main__":
    run.build_dir().mkdir(parents=True, exist_ok=True)
    unittest.main()
