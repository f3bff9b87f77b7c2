#!/usr/bin/env python3
"""Run the perf benchmarks and emit BENCH_microbench.json + BENCH_e2e.json.

Runs ``perf_microbench`` with google-benchmark's JSON reporter and
normalizes the result into compact {benchmark: {real_time_ns, ...}}
summaries.  The whole-trace macrobenchmarks — BM_ClusterSimReplay,
the BM_ReplayGrid scheduler, the BM_CurveSweep size-sweep pairs and
the BM_FileServerRun Section 3 server replay — and the
BM_HostReference sort they are read against go to
BENCH_e2e.json, which additionally pairs each multi-job grid
run with its jobs:1 baseline (and each single-pass curve sweep with
its per-size twin) and records the speedup ratios in both real
and cpu time, plus host metadata (hardware_concurrency, NVFS_JOBS);
everything else goes to BENCH_microbench.json so CI can archive a
perf snapshot per commit.  With ``--baseline
previous.json`` it also prints a per-benchmark comparison and (with
``--max-regression``) fails when any microbenchmark slowed down beyond
the allowed ratio.  With ``--e2e-baseline BENCH_e2e.json`` the
whole-trace replays are diffed against the committed snapshot, each
median in units of the host reference's median of its own run (so a
slower or faster host moves nothing): a run more than
``--e2e-warn-regression`` (default 10%) slower in real time gets a
WARNING, and with ``--e2e-max-regression`` (the CI gate) a cpu median
past the cap fails the run with exit 1.  A threaded whole-trace entry
(``jobs:N``, N > 1) whose cpu median is under 1.2x its real median ran
on one vCPU (the guest kernel sometimes holds a whole process there);
like bench_repro.py, it is measured again, up to two more times, and
the last attempt is recorded and judged.

Usage:
    bench_compare.py --bench build/bench/perf_microbench \
        [--output BENCH_microbench.json] \
        [--e2e-output BENCH_e2e.json] \
        [--baseline old.json] [--max-regression 1.30] \
        [--e2e-baseline BENCH_e2e.json] [--e2e-warn-regression 1.10] \
        [--e2e-max-regression 1.10] \
        [--filter REGEX] [--min-time SECONDS] [--repetitions N]
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile

HOST_REFERENCE = "BM_HostReference"
E2E_PREFIXES = ("BM_ClusterSimReplay", "BM_ReplayGrid", "BM_CurveSweep",
                "BM_FileServerRun", HOST_REFERENCE)
GRID_NAME = re.compile(
    r"^BM_ReplayGrid/jobs:(\d+)(?:/process_time)?(?:/real_time)?$")
CURVE_NAME = re.compile(
    r"^BM_CurveSweep/nvram:(\d+)/curve:(\d+)$")
CURVE_AXIS_NAMES = {0: "volatile_axis", 1: "nvram_axis",
                    2: "write_aside_axis"}
JOBS_NAME = re.compile(r"/jobs:(\d+)(?:/|$)")

# A threaded entry whose cpu median is under this multiple of its real
# median ran on one vCPU; it gets up to ATTEMPTS measurements in all
# (the bench_repro.py rule).
SERIAL_CPU_RATIO = 1.2
ATTEMPTS = 3

# The single-pass curve engine must beat the per-size grid by at least
# this factor single-threaded; the CI gate fails a run below the floor.
CURVE_SPEEDUP_FLOOR = 1.5


def is_e2e(name):
    return name.startswith(E2E_PREFIXES)


def run_benchmarks(bench, bench_filter, min_time, repetitions):
    """Run perf_microbench; return (report, obs counter snapshot).

    The bench binary honours NVFS_STATS_OUT (nvfs::obs auto-export),
    so the run doubles as the counter capture: pool task counts, cache hit
    ratios, and extent-probe totals land next to the medians they
    explain.
    """
    cmd = [
        bench,
        "--benchmark_format=json",
        f"--benchmark_min_time={min_time}",
    ]
    if repetitions > 1:
        cmd.append(f"--benchmark_repetitions={repetitions}")
        cmd.append("--benchmark_report_aggregates_only=true")
    if bench_filter:
        cmd.append(f"--benchmark_filter={bench_filter}")
    env = dict(os.environ)
    with tempfile.NamedTemporaryFile(
            prefix="nvfs-stats-", suffix=".json",
            delete=False) as stats_file:
        stats_path = stats_file.name
    env["NVFS_STATS_OUT"] = stats_path
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=env)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"benchmark run failed: {' '.join(cmd)}")
        counters = load_stats_snapshot(stats_path)
    finally:
        try:
            os.unlink(stats_path)
        except OSError:
            pass
    return json.loads(proc.stdout), counters


def load_stats_snapshot(path):
    """Flatten an NVFS_STATS_OUT snapshot to {name: value}.

    Counters/max report their value; timers report total_ns and count
    (as name.total_ns / name.count).  Returns {} when the snapshot is
    missing or malformed (e.g. a -DNVFS_NO_STATS bench binary still
    writes an empty stats object).
    """
    try:
        with open(path) as fh:
            snap = json.load(fh)
    except (OSError, ValueError):
        return {}
    stats = snap.get("stats") if isinstance(snap, dict) else None
    if not isinstance(stats, dict):
        return {}
    flat = {}
    for name, entry in sorted(stats.items()):
        if not isinstance(entry, dict):
            continue
        if entry.get("kind") == "timer":
            flat[f"{name}.total_ns"] = entry.get("total_ns", 0)
            flat[f"{name}.count"] = entry.get("count", 0)
        else:
            flat[name] = entry.get("value", 0)
    return flat


def counter_deltas(current, baseline):
    """Per-counter change vs the committed snapshot's counters."""
    base = (baseline or {}).get("counters")
    if not isinstance(base, dict):
        return {}
    deltas = {}
    for name, value in sorted(current.items()):
        before = base.get(name)
        if isinstance(before, (int, float)) and \
                isinstance(value, (int, float)):
            deltas[name] = value - before
    return deltas


def jobs_of(name):
    """N of a jobs:N benchmark name; 1 when the name has none."""
    match = JOBS_NAME.search(name)
    return int(match.group(1)) if match else 1


def held_on_one_cpu(name, entry):
    """True for a jobs:N (N > 1) entry whose cpu is not above real."""
    if jobs_of(name) <= 1:
        return False
    real = entry.get("real_time_ns")
    cpu = entry.get("cpu_time_ns")
    return bool(real) and bool(cpu) and cpu < SERIAL_CPU_RATIO * real


def exact_filter(names):
    """A --benchmark_filter regex selecting exactly these benchmarks."""
    return "^(" + "|".join(re.escape(name) for name in names) + ")$"


def rerun_one_cpu_entries(summary, run):
    """Measure threaded entries that ran on one vCPU again.

    ``run(names)`` returns a fresh google-benchmark report for just
    those benchmarks.  Each rerun entry is replaced by its last
    attempt, which records the attempt count; returns {name: attempts}
    for every threaded entry.
    """
    benchmarks = summary["benchmarks"]
    attempts = {name: 1 for name in benchmarks if jobs_of(name) > 1}
    pending = sorted(name for name in attempts
                     if held_on_one_cpu(name, benchmarks[name]))
    for attempt in range(2, ATTEMPTS + 1):
        if not pending:
            break
        print(f"bench_compare: cpu ~ real on {', '.join(pending)}; "
              f"attempt {attempt} of {ATTEMPTS}", file=sys.stderr)
        wanted = set(pending)
        fresh = summarize(run(pending),
                          lambda name: name in wanted)["benchmarks"]
        for name in pending:
            if name in fresh:
                benchmarks[name] = fresh[name]
                attempts[name] = attempt
        pending = [name for name in pending
                   if held_on_one_cpu(name, benchmarks[name])]
    for name, count in attempts.items():
        benchmarks[name]["attempts"] = count
    return attempts


def summarize(raw, keep):
    """Flatten the google-benchmark report to one entry per benchmark."""
    out = {"context": raw.get("context", {}), "benchmarks": {}}
    for bench in raw.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            # With --repetitions the report carries one aggregate row
            # per statistic; keep the median as the noise-robust
            # per-benchmark summary (keyed by the plain run name).
            if bench.get("aggregate_name") != "median":
                continue
            name = bench.get("run_name", bench["name"])
        else:
            name = bench["name"]
        if not keep(name):
            continue
        # google-benchmark reports times in the benchmark's display
        # unit; normalize everything to nanoseconds.
        unit = {"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}.get(
            bench.get("time_unit", "ns"), 1)
        entry = {
            "real_time_ns": bench.get("real_time") * unit
            if bench.get("real_time") is not None else None,
            "cpu_time_ns": bench.get("cpu_time") * unit
            if bench.get("cpu_time") is not None else None,
            "iterations": bench.get("iterations"),
        }
        if "items_per_second" in bench:
            entry["items_per_second"] = bench["items_per_second"]
        out["benchmarks"][name] = entry
    return out


def _jobs_speedups(e2e, pattern, base_key, fast_key):
    """jobs:N vs the jobs:1 baseline, in both real and cpu time."""
    real = {}
    cpu = {}
    for name, entry in e2e["benchmarks"].items():
        match = pattern.match(name)
        if match and entry.get("real_time_ns"):
            jobs = int(match.group(1))
            real[jobs] = entry["real_time_ns"]
            cpu[jobs] = entry.get("cpu_time_ns")
    serial = real.get(1)
    speedups = {}
    if serial:
        for jobs, time_ns in sorted(real.items()):
            if jobs == 1:
                continue
            entry = {
                base_key: serial / 1e6,
                fast_key: time_ns / 1e6,
                "speedup": serial / time_ns,
            }
            if cpu.get(1) and cpu.get(jobs):
                entry[base_key.replace("_ms", "_cpu_ms")] = \
                    cpu[1] / 1e6
                entry[fast_key.replace("_ms", "_cpu_ms")] = \
                    cpu[jobs] / 1e6
            speedups[f"jobs{jobs}"] = entry
    return speedups


def add_speedups(e2e):
    """Record the grid and curve-engine speedups.

    Every pair records both real and cpu time: on a loaded machine a
    single replay's real time can run well past its cpu time, so the
    cpu column is the noise-robust one to read alongside the median
    aggregation.
    """
    # Replay grid: jobs:N vs the jobs:1 baseline.
    e2e["grid_speedups"] = _jobs_speedups(
        e2e, GRID_NAME, "serial_ms", "grid_ms")

    # Single-pass curve engine vs the per-size grid, per sweep axis.
    # Both runs are single-threaded (width=1 grid baseline), so the
    # ratio is the pure algorithmic win of the multi-size replay.
    curve_times = {}
    for name, entry in e2e["benchmarks"].items():
        match = CURVE_NAME.match(name)
        if match and entry.get("real_time_ns"):
            axis, curve = (int(g) for g in match.groups())
            curve_times[(axis, curve)] = (
                entry["real_time_ns"], entry.get("cpu_time_ns"))
    curve_speedups = {}
    for axis, key in sorted(CURVE_AXIS_NAMES.items()):
        grid = curve_times.get((axis, 0))
        curve = curve_times.get((axis, 1))
        if not grid or not curve or not grid[0] or not curve[0]:
            continue
        curve_speedups[key] = {
            "grid_ms": grid[0] / 1e6,
            "curve_ms": curve[0] / 1e6,
            "speedup": grid[0] / curve[0],
        }
        if grid[1] and curve[1]:
            curve_speedups[key]["grid_cpu_ms"] = grid[1] / 1e6
            curve_speedups[key]["curve_cpu_ms"] = curve[1] / 1e6
            curve_speedups[key]["cpu_speedup"] = grid[1] / curve[1]
    e2e["curve_speedups"] = curve_speedups
    return e2e


def host_metadata(raw):
    """Pin down the machine shape behind the recorded numbers.

    The speedup ratios only mean something next to the parallelism
    that was available: std::thread::hardware_concurrency (surfaced
    as num_cpus in the google-benchmark context) and the NVFS_JOBS
    override in effect during the run.  The timings also depend on
    how the simulator was compiled: perf_microbench reports its CMake
    build type as nvfs_build_type (the context's library_build_type
    is google-benchmark's own).
    """
    context = raw.get("context", {})
    return {
        "hardware_concurrency": context.get("num_cpus", os.cpu_count()),
        "build_type": context.get("nvfs_build_type"),
        "env": {
            "NVFS_JOBS": os.environ.get("NVFS_JOBS"),
        },
    }


def check_curve_floor(e2e, max_ratio):
    """The curve engine must keep beating the grid.

    Part of the ``--e2e-max-regression`` gate: a curve_speedups entry
    whose real-time speedup falls below CURVE_SPEEDUP_FLOOR means the
    single-pass engine lost its reason to exist, which no baseline
    diff would catch if both sides slowed down together.
    """
    if max_ratio is None:
        return []
    failed = []
    for key, entry in sorted(e2e.get("curve_speedups", {}).items()):
        if entry["speedup"] < CURVE_SPEEDUP_FLOOR:
            failed.append((key, entry["speedup"]))
            print(f"REGRESSION: curve engine speedup on {key} is "
                  f"{entry['speedup']:.2f}x, below the "
                  f"{CURVE_SPEEDUP_FLOOR:.1f}x floor "
                  f"({entry['grid_ms']:.1f}ms grid vs "
                  f"{entry['curve_ms']:.1f}ms curve)", file=sys.stderr)
    return failed


def load_e2e_baseline(baseline_path):
    """Read the committed snapshot (before --e2e-output clobbers it —
    they are usually the same file).

    Tolerates a malformed file: anything that is not a dict with a
    dict "benchmarks" member warns and counts as "no baseline" —
    a truncated snapshot used to crash the comparison with a
    KeyError/AttributeError deep inside check_e2e_regressions.
    """
    try:
        with open(baseline_path) as fh:
            baseline = json.load(fh)
    except (OSError, ValueError) as error:
        print(f"WARNING: cannot read e2e baseline {baseline_path}: "
              f"{error}", file=sys.stderr)
        return None
    if not isinstance(baseline, dict) or \
            not isinstance(baseline.get("benchmarks"), dict):
        print(f"WARNING: e2e baseline {baseline_path} is not a "
              f"benchmark snapshot (no 'benchmarks' object); "
              f"skipping the comparison", file=sys.stderr)
        return None
    return baseline


def baseline_times(base, name):
    """(real_ns, cpu_ns) of one baseline entry, or None when the entry
    is missing, malformed, or has a zero/absent real median.

    A missing entry (a benchmark added since the snapshot) and a zero
    median (a truncated or hand-edited snapshot) both used to surface
    as KeyError / ZeroDivisionError mid-comparison; they are
    skip-with-warning now, and only ``--e2e-max-regression`` decides
    whether anything fails the run.
    """
    entry = base.get(name)
    if not isinstance(entry, dict):
        print(f"WARNING: no baseline entry for {name}; skipping",
              file=sys.stderr)
        return None
    before = entry.get("real_time_ns")
    if not isinstance(before, (int, float)) or before <= 0:
        print(f"WARNING: baseline median for {name} is "
              f"{before!r} (zero or malformed); skipping",
              file=sys.stderr)
        return None
    before_cpu = entry.get("cpu_time_ns")
    if not isinstance(before_cpu, (int, float)) or before_cpu <= 0:
        before_cpu = None
    return before, before_cpu


def host_speed(current, base):
    """(real, cpu) time of this run's host reference over the record's.

    Every ratio check_e2e_regressions reads is divided by these, so
    the gate compares medians in units of the host reference.  Returns
    (1.0, 1.0) with a warning when either side has no usable
    reference (a record made before BM_HostReference existed): the
    comparison then falls back to raw medians.
    """
    def medians(entry):
        """(real, cpu) of a reference entry, None where unusable."""
        if not isinstance(entry, dict):
            return None, None
        return tuple(t if isinstance(t, (int, float)) and t > 0 else None
                     for t in (entry.get("real_time_ns"),
                               entry.get("cpu_time_ns")))

    now_real, now_cpu = medians(current.get(HOST_REFERENCE))
    before_real, before_cpu = medians(base.get(HOST_REFERENCE))
    if now_real is None or before_real is None:
        print(f"WARNING: no {HOST_REFERENCE} median in this run or in "
              f"the committed record; comparing raw medians, so host "
              f"speed counts as simulator speed", file=sys.stderr)
        return 1.0, 1.0
    real = now_real / before_real
    cpu = now_cpu / before_cpu if now_cpu and before_cpu else real
    print(f"host reference: {cpu:.2f}x the committed record's cpu "
          f"median; medians are compared in units of it")
    return real, cpu


def check_e2e_regressions(current, baseline, baseline_path,
                          warn_ratio, max_ratio):
    """Diff whole-trace replays against the committed snapshot.

    Both real and cpu medians are reported, each divided by the host
    reference's median of the same run (host_speed), so a host that
    runs everything 1.6x slower reads 1.0x.  Real-time slowdowns past
    ``warn_ratio`` only warn — real time on a shared runner absorbs
    scheduler noise the benchmark never executed (the old
    trace:3/model:2 replay snapshot ran ~1.6x its cpu time that
    way).  With ``max_ratio`` set (the CI gate), a *cpu*-time median
    past the cap is a genuine slowdown and returns the offending
    names for a hard failure.
    """
    base = baseline.get("benchmarks", {})
    host_real, host_cpu = host_speed(current["benchmarks"], base)
    warned = 0
    failed = []
    for name, entry in sorted(current["benchmarks"].items()):
        if name == HOST_REFERENCE:
            continue
        times = baseline_times(base, name)
        if times is None:
            continue
        before, before_cpu = times
        now = entry.get("real_time_ns")
        now_cpu = entry.get("cpu_time_ns")
        ratio = now / before / host_real if now and before else None
        cpu_ratio = (now_cpu / before_cpu / host_cpu
                     if now_cpu and before_cpu else None)
        if ratio is not None and ratio > warn_ratio:
            warned += 1
            cpu_s = (f", cpu {cpu_ratio:.2f}x"
                     if cpu_ratio is not None else "")
            print(f"WARNING: {name} is {ratio:.2f}x the committed "
                  f"baseline ({before / 1e6:.1f}ms -> "
                  f"{now / 1e6:.1f}ms raw{cpu_s})", file=sys.stderr)
        attempts = entry.get("attempts")
        if attempts is not None:
            cpu_s = (f"cpu {cpu_ratio:.2f}x"
                     if cpu_ratio is not None else "no cpu median")
            print(f"{name}: judged on attempt {attempts} of at most "
                  f"{ATTEMPTS} ({cpu_s})")
        if (max_ratio is not None and cpu_ratio is not None
                and cpu_ratio > max_ratio):
            failed.append((name, cpu_ratio))
            print(f"REGRESSION: {name} cpu median is {cpu_ratio:.2f}x "
                  f"the committed baseline "
                  f"({before_cpu / 1e6:.1f}ms -> {now_cpu / 1e6:.1f}ms"
                  f" raw, cap {max_ratio:.2f}x)", file=sys.stderr)
        elif (max_ratio is not None and cpu_ratio is None
              and ratio is not None and ratio > max_ratio):
            # No cpu column to fall back on: gate on real time.
            failed.append((name, ratio))
            print(f"REGRESSION: {name} is {ratio:.2f}x the committed "
                  f"baseline (cap {max_ratio:.2f}x, no cpu median "
                  f"recorded)", file=sys.stderr)
    if warned == 0 and not failed:
        print(f"e2e replays within {warn_ratio:.2f}x of "
              f"{baseline_path}")
    return failed


def compare(current, baseline, max_regression):
    """Print a comparison table; return names regressed past the cap."""
    regressed = []
    base = baseline.get("benchmarks", {}) \
        if isinstance(baseline, dict) else {}
    if not isinstance(base, dict):
        print("WARNING: baseline has no 'benchmarks' object; every "
              "benchmark reads as new", file=sys.stderr)
        base = {}
    rows = []
    for name, entry in sorted(current["benchmarks"].items()):
        now = entry.get("real_time_ns")
        before_entry = base.get(name)
        before = before_entry.get("real_time_ns") \
            if isinstance(before_entry, dict) else None
        if not isinstance(before, (int, float)) or before <= 0:
            before = None
        if not now or not before:
            rows.append((name, now, before, None))
            continue
        ratio = now / before
        rows.append((name, now, before, ratio))
        if max_regression is not None and ratio > max_regression:
            regressed.append((name, ratio))

    width = max((len(r[0]) for r in rows), default=10)
    print(f"{'benchmark':<{width}}  {'now':>12}  {'base':>12}  ratio")
    for name, now, before, ratio in rows:
        now_s = f"{now:.0f}ns" if now else "-"
        before_s = f"{before:.0f}ns" if before else "-"
        ratio_s = f"{ratio:.2f}x" if ratio is not None else "new"
        print(f"{name:<{width}}  {now_s:>12}  {before_s:>12}  {ratio_s}")
    return regressed


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench",
                        default="build/bench/perf_microbench",
                        help="path to the perf_microbench binary")
    parser.add_argument("--output", default="BENCH_microbench.json",
                        help="where to write the JSON summary")
    parser.add_argument("--e2e-output", default="BENCH_e2e.json",
                        help="where to write the whole-trace replay "
                             "summary (BM_ClusterSimReplay runs)")
    parser.add_argument("--baseline",
                        help="previous BENCH_microbench.json to "
                             "compare against")
    parser.add_argument("--max-regression", type=float, default=None,
                        help="fail if any benchmark's real time grows "
                             "past this ratio vs the baseline "
                             "(e.g. 1.30 = 30%% slower)")
    parser.add_argument("--e2e-baseline",
                        help="committed BENCH_e2e.json to diff the "
                             "whole-trace replays against (warns, "
                             "never fails)")
    parser.add_argument("--e2e-warn-regression", type=float,
                        default=1.10,
                        help="warn when an e2e replay's real time is "
                             "this much slower than the committed "
                             "baseline (default 1.10 = 10%% slower)")
    parser.add_argument("--e2e-max-regression", type=float,
                        default=None,
                        help="fail (exit 1) when an e2e replay's cpu "
                             "median grows past this ratio vs the "
                             "committed baseline — the CI regression "
                             "gate (cpu time, not real time, so a "
                             "loaded runner can't fake a slowdown)")
    parser.add_argument("--filter", dest="bench_filter", default=None,
                        help="--benchmark_filter regex")
    parser.add_argument("--min-time", type=float, default=0.05,
                        help="--benchmark_min_time per benchmark")
    parser.add_argument("--repetitions", type=int, default=1,
                        help="repeat each benchmark N times and record "
                             "the median (robust against machine "
                             "noise)")
    args = parser.parse_args()

    raw, counters = run_benchmarks(args.bench, args.bench_filter,
                                   args.min_time, args.repetitions)
    summary = summarize(raw, lambda name: not is_e2e(name))
    summary["metadata"] = host_metadata(raw)
    with open(args.output, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.output} "
          f"({len(summary['benchmarks'])} benchmarks)")

    e2e_baseline = (load_e2e_baseline(args.e2e_baseline)
                    if args.e2e_baseline else None)
    e2e = summarize(raw, is_e2e)
    rerun_one_cpu_entries(
        e2e, lambda names: run_benchmarks(
            args.bench, exact_filter(names), args.min_time,
            args.repetitions)[0])
    e2e = add_speedups(e2e)
    e2e["metadata"] = host_metadata(raw)
    e2e["counters"] = counters
    e2e["counter_deltas"] = counter_deltas(counters, e2e_baseline)
    if e2e["benchmarks"]:
        with open(args.e2e_output, "w") as fh:
            json.dump(e2e, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.e2e_output} "
              f"({len(e2e['benchmarks'])} replays)")
        for key, entry in sorted(e2e["grid_speedups"].items()):
            print(f"  grid {key}: {entry['serial_ms']:.1f}ms -> "
                  f"{entry['grid_ms']:.1f}ms "
                  f"({entry['speedup']:.2f}x)")
        for key, entry in sorted(e2e["curve_speedups"].items()):
            cpu_s = (f", cpu {entry['cpu_speedup']:.2f}x"
                     if "cpu_speedup" in entry else "")
            print(f"  curve {key}: {entry['grid_ms']:.1f}ms -> "
                  f"{entry['curve_ms']:.1f}ms "
                  f"({entry['speedup']:.2f}x{cpu_s})")
        failed = check_curve_floor(e2e, args.e2e_max_regression)
        if e2e_baseline is not None:
            failed += check_e2e_regressions(e2e, e2e_baseline,
                                            args.e2e_baseline,
                                            args.e2e_warn_regression,
                                            args.e2e_max_regression)
        if failed:
            raise SystemExit(1)

    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
        regressed = compare(summary, baseline, args.max_regression)
        if regressed:
            for name, ratio in regressed:
                print(f"REGRESSION: {name} is {ratio:.2f}x the "
                      f"baseline (cap {args.max_regression:.2f}x)",
                      file=sys.stderr)
            raise SystemExit(1)


if __name__ == "__main__":
    main()
