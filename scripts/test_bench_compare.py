#!/usr/bin/env python3
"""Unit tests for bench_compare.py's comparison robustness.

The comparison paths used to crash (KeyError / ZeroDivisionError /
AttributeError) on a missing baseline entry, a zero median, or a
malformed snapshot; they must skip-with-warning instead and only fail
the run when ``--e2e-max-regression`` catches a genuine slowdown.

Run directly (``python3 scripts/test_bench_compare.py``) or via ctest
(registered as ``script_bench_compare``).  Plain unittest — no
third-party test dependencies.
"""

import io
import json
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stderr

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_compare  # noqa: E402


def entry(real_ns, cpu_ns=None):
    out = {"real_time_ns": real_ns, "iterations": 3}
    if cpu_ns is not None:
        out["cpu_time_ns"] = cpu_ns
    return out


class LoadBaselineTest(unittest.TestCase):
    def write_json(self, payload):
        handle = tempfile.NamedTemporaryFile(
            mode="w", suffix=".json", delete=False)
        self.addCleanup(os.unlink, handle.name)
        with handle:
            handle.write(payload)
        return handle.name

    def test_missing_file_warns_and_returns_none(self):
        err = io.StringIO()
        with redirect_stderr(err):
            result = bench_compare.load_e2e_baseline(
                "/nonexistent/BENCH_e2e.json")
        self.assertIsNone(result)
        self.assertIn("WARNING", err.getvalue())

    def test_truncated_json_warns_and_returns_none(self):
        path = self.write_json('{"benchmarks": {')
        err = io.StringIO()
        with redirect_stderr(err):
            result = bench_compare.load_e2e_baseline(path)
        self.assertIsNone(result)
        self.assertIn("WARNING", err.getvalue())

    def test_wrong_shape_warns_and_returns_none(self):
        for payload in ('[1, 2, 3]', '{"benchmarks": [1]}', '"x"'):
            path = self.write_json(payload)
            err = io.StringIO()
            with redirect_stderr(err):
                result = bench_compare.load_e2e_baseline(path)
            self.assertIsNone(result, payload)
            self.assertIn("WARNING", err.getvalue())

    def test_valid_snapshot_loads(self):
        path = self.write_json(json.dumps(
            {"benchmarks": {"BM_X": entry(100.0)}}))
        self.assertIsNotNone(bench_compare.load_e2e_baseline(path))


class BaselineTimesTest(unittest.TestCase):
    def test_missing_entry_skips_with_warning(self):
        err = io.StringIO()
        with redirect_stderr(err):
            self.assertIsNone(
                bench_compare.baseline_times({}, "BM_New"))
        self.assertIn("no baseline entry for BM_New", err.getvalue())

    def test_zero_median_skips_with_warning(self):
        base = {"BM_Zero": entry(0.0)}
        err = io.StringIO()
        with redirect_stderr(err):
            self.assertIsNone(
                bench_compare.baseline_times(base, "BM_Zero"))
        self.assertIn("zero or malformed", err.getvalue())

    def test_malformed_entry_skips_with_warning(self):
        for bad in (None, 3.5, "fast", {"real_time_ns": "quick"}):
            err = io.StringIO()
            with redirect_stderr(err):
                self.assertIsNone(bench_compare.baseline_times(
                    {"BM_Bad": bad}, "BM_Bad"), bad)
            self.assertIn("WARNING", err.getvalue())

    def test_zero_cpu_median_degrades_to_real_only(self):
        base = {"BM_X": entry(100.0, 0.0)}
        self.assertEqual(
            bench_compare.baseline_times(base, "BM_X"), (100.0, None))


class CheckE2eRegressionsTest(unittest.TestCase):
    def check(self, current, baseline, warn=1.10, cap=None):
        err = io.StringIO()
        with redirect_stderr(err):
            failed = bench_compare.check_e2e_regressions(
                {"benchmarks": current}, {"benchmarks": baseline},
                "BENCH_e2e.json", warn, cap)
        return failed, err.getvalue()

    def test_missing_baseline_entry_does_not_fail_run(self):
        failed, err = self.check({"BM_New": entry(100.0)}, {},
                                 cap=1.10)
        self.assertEqual(failed, [])
        self.assertIn("no baseline entry", err)

    def test_zero_baseline_median_does_not_crash(self):
        failed, err = self.check(
            {"BM_X": entry(100.0, 90.0)}, {"BM_X": entry(0.0, 0.0)},
            cap=1.10)
        self.assertEqual(failed, [])
        self.assertIn("zero or malformed", err)

    def test_cpu_regression_fails_only_with_cap(self):
        current = {"BM_X": entry(500.0, 500.0)}
        baseline = {"BM_X": entry(100.0, 100.0)}
        failed, err = self.check(current, baseline, cap=None)
        self.assertEqual(failed, [])
        self.assertIn("WARNING", err)
        failed, err = self.check(current, baseline, cap=1.10)
        self.assertEqual([name for name, _ in failed], ["BM_X"])
        self.assertIn("REGRESSION", err)

    def test_within_cap_passes(self):
        failed, _ = self.check({"BM_X": entry(105.0, 104.0)},
                               {"BM_X": entry(100.0, 100.0)},
                               cap=1.10)
        self.assertEqual(failed, [])

    def with_reference(self, benchmarks, reference_ns):
        out = dict(benchmarks)
        out[bench_compare.HOST_REFERENCE] = entry(reference_ns,
                                                  reference_ns)
        return out

    def test_slower_host_passes(self):
        # Everything, the host reference included, 1.6x slower: the
        # simulator did not change, the host did.
        baseline = self.with_reference(
            {"BM_X": entry(100.0, 100.0), "BM_Y": entry(50.0, 50.0)},
            4.0)
        current = self.with_reference(
            {"BM_X": entry(160.0, 160.0), "BM_Y": entry(80.0, 80.0)},
            6.4)
        failed, err = self.check(current, baseline, cap=1.10)
        self.assertEqual(failed, [])
        self.assertNotIn("WARNING", err)

    def test_slower_entry_on_unchanged_host_fails(self):
        baseline = self.with_reference(
            {"BM_X": entry(100.0, 100.0), "BM_Y": entry(50.0, 50.0)},
            4.0)
        current = self.with_reference(
            {"BM_X": entry(120.0, 120.0), "BM_Y": entry(50.0, 50.0)},
            4.0)
        failed, err = self.check(current, baseline, cap=1.10)
        self.assertEqual([name for name, _ in failed], ["BM_X"])
        self.assertIn("REGRESSION", err)

    def test_record_without_reference_falls_back_to_raw(self):
        # A record made before the reference existed: raw ratios, and
        # a warning that host speed now counts.
        current = self.with_reference({"BM_X": entry(160.0, 160.0)},
                                      6.4)
        failed, err = self.check(current, {"BM_X": entry(100.0, 100.0)},
                                 cap=1.10)
        self.assertEqual([name for name, _ in failed], ["BM_X"])
        self.assertIn("comparing raw medians", err)


class RerunOneCpuTest(unittest.TestCase):
    """Threaded entries that ran on one vCPU are measured again."""

    GRID2 = "BM_ReplayGrid/jobs:2/process_time/real_time"

    @staticmethod
    def report(rows):
        """A google-benchmark JSON report: {name: (real_ns, cpu_ns)}."""
        return {"benchmarks": [
            {"name": name, "run_name": name, "run_type": "iteration",
             "real_time": real, "cpu_time": cpu, "time_unit": "ns",
             "iterations": 3}
            for name, (real, cpu) in rows.items()]}

    def rerun_then_check(self, first, attempts):
        """Rerun `first` with the later attempts in order, then gate
        it against a 90 ns cpu record at the 1.10 cap."""
        calls = []

        def run(names):
            calls.append((list(names), bench_compare.exact_filter(names)))
            return self.report(attempts[len(calls) - 1])

        summary = {"benchmarks": dict(first)}
        err = io.StringIO()
        out = io.StringIO()
        with redirect_stderr(err):
            counts = bench_compare.rerun_one_cpu_entries(summary, run)
            old_stdout = sys.stdout
            sys.stdout = out
            try:
                failed = bench_compare.check_e2e_regressions(
                    summary, {"benchmarks": {
                        self.GRID2: entry(100.0, 90.0),
                        "BM_ReplayGrid/jobs:1/process_time/real_time":
                            entry(100.0, 100.0),
                        "BM_ClusterSimReplay/trace:3/model:0":
                            entry(100.0, 100.0)}},
                    "BENCH_e2e.json", 1.10, 1.10)
            finally:
                sys.stdout = old_stdout
        return counts, calls, failed, out.getvalue()

    def test_one_cpu_then_parallel_within_cap_passes(self):
        # First attempt: cpu 105 ~ real 100, and 1.17x the record.
        counts, calls, failed, out = self.rerun_then_check(
            {self.GRID2: entry(100.0, 105.0)},
            [{self.GRID2: (50.0, 95.0)}])
        self.assertEqual(counts, {self.GRID2: 2})
        self.assertEqual(len(calls), 1)
        self.assertEqual(calls[0][0], [self.GRID2])
        self.assertRegex(self.GRID2, calls[0][1])
        self.assertEqual(failed, [])
        self.assertIn("judged on attempt 2", out)

    def test_parallel_attempt_over_cap_fails(self):
        counts, calls, failed, out = self.rerun_then_check(
            {self.GRID2: entry(100.0, 105.0)},
            [{self.GRID2: (50.0, 110.0)}])
        self.assertEqual(counts, {self.GRID2: 2})
        self.assertEqual([name for name, _ in failed], [self.GRID2])
        self.assertIn("judged on attempt 2", out)

    def test_stays_on_one_cpu_for_three_attempts_at_most(self):
        counts, calls, failed, _ = self.rerun_then_check(
            {self.GRID2: entry(100.0, 105.0)},
            [{self.GRID2: (100.0, 104.0)}, {self.GRID2: (100.0, 98.0)}])
        self.assertEqual(counts, {self.GRID2: 3})
        self.assertEqual(len(calls), 2)
        self.assertEqual(failed, [])  # 98 / 90 = 1.09x, the last attempt

    def test_single_threaded_entries_are_never_rerun(self):
        counts, calls, failed, _ = self.rerun_then_check(
            {"BM_ReplayGrid/jobs:1/process_time/real_time":
                 entry(100.0, 100.0),
             "BM_ClusterSimReplay/trace:3/model:0": entry(100.0, 100.0)},
            [])
        self.assertEqual(calls, [])
        self.assertEqual(counts, {})
        self.assertEqual(failed, [])

    def test_exact_filter_selects_only_the_named_entries(self):
        pattern = bench_compare.exact_filter([self.GRID2])
        self.assertRegex(self.GRID2, pattern)
        self.assertNotRegex(
            "BM_ReplayGrid/jobs:2/process_time/real_time_median", pattern)
        self.assertNotRegex(
            "BM_ReplayGrid/jobs:4/process_time/real_time", pattern)


class CompareTest(unittest.TestCase):
    def test_malformed_baseline_reads_as_new(self):
        current = {"benchmarks": {"BM_A": entry(100.0)}}
        out = io.StringIO()
        err = io.StringIO()
        with redirect_stderr(err):
            old_stdout = sys.stdout
            sys.stdout = out
            try:
                regressed = bench_compare.compare(
                    current, {"benchmarks": {"BM_A": 7}}, 1.3)
            finally:
                sys.stdout = old_stdout
        self.assertEqual(regressed, [])
        self.assertIn("new", out.getvalue())

    def test_zero_baseline_median_is_not_divided(self):
        current = {"benchmarks": {"BM_A": entry(100.0)}}
        baseline = {"benchmarks": {"BM_A": entry(0.0)}}
        out = io.StringIO()
        old_stdout = sys.stdout
        sys.stdout = out
        try:
            regressed = bench_compare.compare(current, baseline, 1.3)
        finally:
            sys.stdout = old_stdout
        self.assertEqual(regressed, [])


class AddSpeedupsTest(unittest.TestCase):
    def test_pairs_jobs_and_curve_runs_only(self):
        e2e = bench_compare.add_speedups({"benchmarks": {
            "BM_ClusterSimReplay/trace:3/model:0": entry(50.0, 50.0),
            "BM_ReplayGrid/jobs:1/real_time": entry(300.0, 290.0),
            "BM_ReplayGrid/jobs:2/real_time": entry(200.0, 100.0),
            "BM_CurveSweep/nvram:1/curve:0": entry(400.0, 400.0),
            "BM_CurveSweep/nvram:1/curve:1": entry(200.0, 200.0),
        }})
        self.assertNotIn("speedups", e2e)
        self.assertAlmostEqual(
            e2e["grid_speedups"]["jobs2"]["speedup"], 1.5)
        self.assertAlmostEqual(
            e2e["curve_speedups"]["nvram_axis"]["speedup"], 2.0)

    def test_write_aside_pair_is_named_and_floored(self):
        e2e = bench_compare.add_speedups({"benchmarks": {
            "BM_CurveSweep/nvram:2/curve:0": entry(300.0, 300.0),
            "BM_CurveSweep/nvram:2/curve:1": entry(250.0, 250.0),
        }})
        pair = e2e["curve_speedups"]["write_aside_axis"]
        self.assertAlmostEqual(pair["speedup"], 1.2)
        err = io.StringIO()
        with redirect_stderr(err):
            failed = bench_compare.check_curve_floor(e2e, 1.10)
        self.assertEqual([key for key, _ in failed],
                         ["write_aside_axis"])

    def test_pairs_process_time_grid_runs(self):
        # Threaded benches measure process CPU time, which
        # google-benchmark marks with a /process_time name segment.
        e2e = bench_compare.add_speedups({"benchmarks": {
            "BM_ReplayGrid/jobs:1/process_time/real_time":
                entry(300.0, 290.0),
            "BM_ReplayGrid/jobs:4/process_time/real_time":
                entry(100.0, 320.0),
        }})
        jobs4 = e2e["grid_speedups"]["jobs4"]
        self.assertAlmostEqual(jobs4["speedup"], 3.0)
        self.assertAlmostEqual(jobs4["grid_cpu_ms"], 320.0 / 1e6)


class HostMetadataTest(unittest.TestCase):
    def test_records_core_count_and_build_type(self):
        meta = bench_compare.host_metadata({"context": {
            "num_cpus": 4, "library_build_type": "debug",
            "nvfs_build_type": "RelWithDebInfo"}})
        self.assertEqual(meta["hardware_concurrency"], 4)
        self.assertEqual(meta["build_type"], "RelWithDebInfo")


class CountersTest(unittest.TestCase):
    def test_load_stats_snapshot_flattens(self):
        snap = {
            "version": 1,
            "enabled": True,
            "stats": {
                "pool.tasks_submitted": {
                    "kind": "counter", "count": 4, "value": 4},
                "pool.queue_depth_hwm": {
                    "kind": "max", "count": 4, "value": 3},
                "sweep.replay": {
                    "kind": "timer", "count": 2, "total_ns": 500,
                    "min_ns": 200, "max_ns": 300},
            },
        }
        with tempfile.NamedTemporaryFile(
                mode="w", suffix=".json", delete=False) as handle:
            json.dump(snap, handle)
        self.addCleanup(os.unlink, handle.name)
        flat = bench_compare.load_stats_snapshot(handle.name)
        self.assertEqual(flat["pool.tasks_submitted"], 4)
        self.assertEqual(flat["pool.queue_depth_hwm"], 3)
        self.assertEqual(flat["sweep.replay.total_ns"], 500)
        self.assertEqual(flat["sweep.replay.count"], 2)

    def test_load_stats_snapshot_tolerates_garbage(self):
        self.assertEqual(
            bench_compare.load_stats_snapshot("/nonexistent"), {})
        with tempfile.NamedTemporaryFile(
                mode="w", suffix=".json", delete=False) as handle:
            handle.write('{"stats": [1,2]}')
        self.addCleanup(os.unlink, handle.name)
        self.assertEqual(
            bench_compare.load_stats_snapshot(handle.name), {})

    def test_counter_deltas(self):
        current = {"cache.extent_probes": 120, "new.counter": 5}
        baseline = {"counters": {"cache.extent_probes": 100,
                                 "gone.counter": 9}}
        self.assertEqual(
            bench_compare.counter_deltas(current, baseline),
            {"cache.extent_probes": 20})

    def test_counter_deltas_without_baseline(self):
        self.assertEqual(
            bench_compare.counter_deltas({"a": 1}, None), {})
        self.assertEqual(
            bench_compare.counter_deltas({"a": 1},
                                         {"counters": "x"}), {})


if __name__ == "__main__":
    unittest.main()
