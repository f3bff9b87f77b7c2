#!/usr/bin/env python3
"""Record what regenerating the paper costs, as BENCH_repro.json.

Times `nvfs_bench all` (stdout discarded) at NVFS_JOBS=1 and at
NVFS_JOBS=nproc, alternating the two widths, RUNS times each, and
records per width the median wall time, process CPU time (user +
system of the child, so every pool thread counts) and peak RSS, with
the host's core count, the build type and `git describe`.

The guest kernel sometimes keeps every thread of a process on one
vCPU.  A threaded width whose median CPU is under 1.2x its median
wall was measured in that state, so it is measured again, up to three
times; the record keeps the attempt count.

With --baseline DIR the script also times a build directory of
per-figure binaries (one executable per figure, as the build made
them before nvfs_bench) run one after another, in PAIRS alternated
pairs against `nvfs_bench all`, both at NVFS_JOBS=nproc, and records
both sides and the per-pair ratios as `vs_per_figure_binaries`.
Without --baseline a rerun keeps that block from the existing output
file; it names the baseline's `git describe`.

    scripts/bench_repro.py
    scripts/bench_repro.py --bench build/bench/nvfs_bench \\
        --output BENCH_repro.json --baseline ../parent/build/bench
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

SERIAL_CPU_RATIO = 1.2
ATTEMPTS = 3
RUNS = 3
PAIRS = 6


def run_timed(command, jobs):
    """Run command at NVFS_JOBS=jobs: (wall s, CPU s, peak RSS MiB)."""
    env = dict(os.environ, NVFS_JOBS=str(jobs))
    start = time.monotonic()
    child = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.monotonic() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        sys.exit(f"bench_repro: {' '.join(command)} exited "
                 f"{child.returncode}")
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def run_loop(binaries, jobs):
    """Run each binary in turn: total wall and CPU, largest RSS."""
    runs = [run_timed([str(binary)], jobs) for binary in binaries]
    return (sum(r[0] for r in runs), sum(r[1] for r in runs),
            max(r[2] for r in runs))


def summarize(samples):
    return {
        "wall_s": round(statistics.median(s[0] for s in samples), 3),
        "cpu_s": round(statistics.median(s[1] for s in samples), 3),
        "peak_rss_mib": round(statistics.median(s[2] for s in samples),
                              1),
        "samples": [[round(v, 3) for v in s] for s in samples],
    }


def figure_names(bench):
    """The figure list nvfs_bench prints when given no figure."""
    err = subprocess.run([str(bench)], capture_output=True,
                         text=True).stderr
    match = re.search(r"figures:([^\n]*)", err)
    if not match:
        sys.exit(f"bench_repro: no figure list in: {err}")
    return match.group(1).split()


def git_describe(where):
    result = subprocess.run(
        ["git", "-C", str(where), "describe", "--always", "--dirty"],
        capture_output=True, text=True)
    return result.stdout.strip() or "unknown"


def build_type(build_dir):
    cache = build_dir / "CMakeCache.txt"
    if cache.exists():
        match = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$",
                          cache.read_text(), re.M)
        # An empty cache entry gets the top-level CMakeLists default.
        if match:
            return match.group(1) or "RelWithDebInfo"
    return "unknown"


def measure_widths(bench, widths):
    command = [str(bench), "all"]
    records = []
    for jobs in widths:
        records.append({"jobs": jobs, "runs": RUNS, "attempts": 0})
    pending = list(range(len(widths)))
    for attempt in range(1, ATTEMPTS + 1):
        samples = {i: [] for i in pending}
        for _ in range(RUNS):
            for i in pending:
                samples[i].append(run_timed(command, widths[i]))
        for i in pending:
            records[i].update(summarize(samples[i]))
            records[i]["attempts"] = attempt
        pending = [i for i in pending
                   if widths[i] > 1 and records[i]["cpu_s"] <
                   SERIAL_CPU_RATIO * records[i]["wall_s"]]
        if not pending:
            break
        print(f"bench_repro: CPU ~ wall at NVFS_JOBS="
              f"{[widths[i] for i in pending]}, measuring again",
              file=sys.stderr)
    return records


def measure_baseline(bench, baseline, jobs):
    binaries = [baseline / name for name in figure_names(bench)]
    missing = [str(b) for b in binaries if not os.access(b, os.X_OK)]
    if missing:
        sys.exit(f"bench_repro: baseline lacks {', '.join(missing)}")
    loop, one = [], []
    for pair in range(PAIRS):
        # Alternate which side runs first.
        if pair % 2 == 0:
            loop.append(run_loop(binaries, jobs))
            one.append(run_timed([str(bench), "all"], jobs))
        else:
            one.append(run_timed([str(bench), "all"], jobs))
            loop.append(run_loop(binaries, jobs))
    wall_ratio = [o[0] / l[0] for o, l in zip(one, loop)]
    cpu_ratio = [o[1] / l[1] for o, l in zip(one, loop)]
    return {
        "jobs": jobs,
        "pairs": PAIRS,
        "baseline_git_describe": git_describe(baseline),
        "per_figure_loop": summarize(loop),
        "nvfs_bench_all": summarize(one),
        "wall_ratio": [round(r, 3) for r in wall_ratio],
        "cpu_ratio": [round(r, 3) for r in cpu_ratio],
        "wall_ratio_median": round(statistics.median(wall_ratio), 3),
        "cpu_ratio_median": round(statistics.median(cpu_ratio), 3),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--bench", default="build/bench/nvfs_bench",
                        type=Path)
    parser.add_argument("--output", default="BENCH_repro.json",
                        type=Path)
    parser.add_argument("--baseline", type=Path,
                        help="build dir of per-figure binaries to "
                             "compare against")
    args = parser.parse_args()

    bench = args.bench.resolve()
    nproc = os.cpu_count() or 1
    record = {
        "command": "nvfs_bench all",
        "host": {
            "nproc": nproc,
            "build_type": build_type(bench.parent.parent),
            "git_describe": git_describe(Path(__file__).parent),
        },
        "nvfs_bench_all": measure_widths(bench, sorted({1, nproc})),
    }
    if args.baseline:
        record["vs_per_figure_binaries"] = measure_baseline(
            bench, args.baseline.resolve(), nproc)
    elif args.output.exists():
        kept = json.loads(args.output.read_text()).get(
            "vs_per_figure_binaries")
        if kept:
            record["vs_per_figure_binaries"] = kept
    args.output.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))


if __name__ == "__main__":
    main()
