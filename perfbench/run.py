#!/usr/bin/env python3
"""Paper-regeneration benchmark for the nvfs simulator.

    python3 perfbench/run.py --workload client_figures --seed 1 \\
        --seconds 30 --trace 0

Builds perfbench_run (this directory's CMake package, compiled
against the simulator sources of the checkout) into .bench_build/,
then runs one workload in a child process with every NVFS_* knob
pinned or cleared.  The child generates its inputs from the seed,
times the set-up, and repeats the measured part for --seconds,
checking every output cell.

--trace 0 reports the end-to-end metrics of BENCHMARK.json from
untraced iterations, with every timing scaled to a nominal host speed
measured by a fixed reference beside it (REFERENCE_NOMINAL_S below);
--trace 1 reports its per-layer metrics from
traced iterations (spans around each layer's public calls plus obs
counter deltas) and prints a per-layer self-time table.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.

A child that exits non-zero or dies on a signal is a failed run: its
stderr tail and unfinished cells are reported, and it is not retried.
Run artefacts (result.json, spans.json, run.json) stay under
.bench_build/runs/.  NOTES.md describes the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("client_figures", "server_buffer", "crash_explore")
# The child measures for --seconds, then finishes the iteration in
# flight; the margin covers set-up, the minimum iteration count and one
# iteration on a slow host.
CHILD_MARGIN_S = 90
# One pass of perfbench_run's host reference loop on the host the
# benchmark was sized on, when nothing else loaded it.  The end-to-end
# timings are reported at that speed: each is scaled by this over the
# run's median pass, so a run on a host that is slower for a while (a
# shared host's speed drifts by a third within minutes) does not read
# as a slower simulator.  NOTES.md, "Host speed", has the measurements.
REFERENCE_NOMINAL_S = 0.006

# Every knob the simulator reads is pinned here or removed, so an
# exported variable cannot change what is measured.
PINNED_ENV = {
    "NVFS_PIPELINE": "1",
    "NVFS_CURVE_ENGINE": "on",
    "NVFS_BLOCK_ENGINE": "extent",
}


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def pool_width():
    """Two workers: parallel enough for the pool and the pipeline to show,
    and leaves the host's other cores to everything else on it, which
    would otherwise delay whichever worker holds the slowest cell."""
    return min(2, os.cpu_count() or 1)


def build_dir():
    """The build root: $CARGO_TARGET_DIR when it stays in the checkout."""
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    target = (ROOT / target).resolve()
    if target != ROOT and ROOT not in target.parents:
        target = ROOT / ".bench_build"
    return target


def build_program():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no simulator sources at {ROOT / 'src'}; run from a full "
            "checkout")
    build = build_dir() / "perfbench"
    log = sys.stderr
    # Configure every time (cheap when nothing changed) so a renamed or
    # added target in CMakeLists.txt is picked up by an old build tree.
    configure = subprocess.run(
        ["cmake", "-S", str(HERE), "-B", str(build),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        stdout=log, stderr=log, check=False)
    if configure.returncode != 0:
        die("cmake configure failed")
    compile_ = subprocess.run(
        ["cmake", "--build", str(build), "--target", "perfbench_run",
         "-j", str(os.cpu_count() or 1)],
        stdout=log, stderr=log, check=False)
    if compile_.returncode != 0:
        die("build failed")
    return build / "perfbench_run"


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("NVFS_")}
    env.update(PINNED_ENV)
    env["NVFS_JOBS"] = str(pool_width())
    env["NVFS_GRID_JOBS"] = str(pool_width())
    return env


def git_describe():
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, check=False)
        if top.returncode != 0 or Path(top.stdout.strip()) != ROOT:
            return "unknown (not a git checkout)"
        return subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
            capture_output=True, text=True, check=False).stdout.strip()
    except OSError:
        return "unknown (git not available)"


def count_cells(progress_path, finished):
    """(attempted, failed, unfinished) cells from progress.jsonl.

    A child that died before writing its result leaves the iteration it
    was running unfinished; those cells count as failed.
    """
    cells, attempted, failed = 0, 0, 0
    if progress_path.is_file():
        for line in progress_path.read_text().splitlines():
            try:
                entry = json.loads(line)
            except ValueError:
                break  # a line torn by the crash
            if "cells_per_iteration" in entry:
                cells = entry["cells_per_iteration"]
            else:
                attempted += entry["attempted"]
                failed += entry["attempted"] - entry["passed"]
    unfinished = 0 if finished else cells
    return attempted + unfinished, failed + unfinished, unfinished


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def host_scale(reference_s):
    """Factor that brings a timing taken beside these host reference
    passes to the nominal host speed."""
    return REFERENCE_NOMINAL_S / statistics.median(reference_s)


def end_to_end(result, untraced):
    wall = [it["wall_s"] * host_scale(it["reference_s"]) for it in untraced]
    return {
        "wall_s": wall,
        "cpu_s": [it["cpu_s"] * host_scale(it["reference_s"])
                  for it in untraced],
        "sim_ops_per_s": [it["sim_ops"] / w for it, w in zip(untraced, wall)],
        # Each set-up is followed by one reference pass.
        "setup_s": [s * host_scale([r]) for s, r in
                    zip(result["setup_s"], result["reference_s"])],
        "peak_rss_mb": [result["peak_rss_mb"]],
    }


def per_layer(untraced, traced, attempted, failed):
    samples = {}
    for it in traced:
        for name, value in it["layers"].items():
            samples.setdefault(name, []).append(value)
    # The census probe is extra work only traced iterations do; it is
    # not tracing overhead.
    traced_wall = statistics.median(
        it["wall_s"] - it["probe_s"] for it in traced)
    samples["obs.trace_overhead_frac"] = [
        traced_wall / statistics.median(it["wall_s"] for it in untraced)
        - 1.0]
    samples["failed_frac"] = [failed / attempted]
    return samples


def self_time_table(result, traced):
    wall = sum(it["wall_s"] for it in traced)
    lines = [f"{'span':<20} {'count':>6} {'total_s':>10} {'self_s':>10} "
             f"{'self %':>7}"]
    rows = sorted(result["self_time"], key=lambda r: -r["self_s"])
    for row in rows:
        lines.append(f"{row['name']:<20} {row['count']:>6} "
                     f"{row['total_s']:>10.4f} {row['self_s']:>10.4f} "
                     f"{100 * row['self_s'] / wall:>6.2f}%")
    return "\n".join(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    program = build_program()

    workdir = build_dir() / "runs" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    command = [str(program), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", str(workdir)]
    env = child_env()
    child = subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True)
    timeout = args.seconds + CHILD_MARGIN_S
    try:
        out, err = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        child.kill()
        out, err = child.communicate()
        err += f"\nkilled after {timeout} s"
    for trace_file in workdir.glob("*.trace"):
        trace_file.unlink()
    sys.stdout.write(out)

    result_path = workdir / "result.json"
    result = (json.loads(result_path.read_text())
              if result_path.is_file() else None)
    attempted, failed, unfinished = count_cells(
        workdir / "progress.jsonl", result is not None)
    problems = []
    if child.returncode != 0:
        how = (f"signal {signal.Signals(-child.returncode).name}"
               if child.returncode < 0 else f"exit code {child.returncode}")
        problems.append(f"perfbench_run failed with {how}; {unfinished} cells "
                        "unfinished; stderr tail:\n" +
                        "\n".join(err.splitlines()[-20:]))
    elif err.strip():
        sys.stderr.write(err)

    metrics = {}
    if result is not None:
        iterations = result["iterations"]
        for it in iterations:
            problems += [f"iteration failed: {f}" for f in it["failures"]]
            if it["error"]:
                problems.append(f"iteration threw: {it['error']}")
        digests = {it["digest"] for it in iterations}
        if len(digests) != 1:
            problems.append(f"outputs differ between iterations: {digests}")
            failed = attempted
        untraced = [it for it in iterations if not it["traced"]]
        traced = [it for it in iterations if it["traced"]]
        samples = (per_layer(untraced, traced, max(attempted, 1), failed)
                   if args.trace else end_to_end(result, untraced))

        prov = dict(result["provenance"], nproc=os.cpu_count(),
                    git=git_describe(), seed=args.seed,
                    host_scale=host_scale(
                        [s for it in iterations for s in it["reference_s"]]),
                    nvfs_env={k: v for k, v in sorted(env.items())
                              if k.startswith("NVFS_")})
        print(f"perfbench {args.workload}: seed {args.seed}, "
              f"{len(untraced)} untraced + {len(traced)} traced iterations, "
              f"{attempted} cells checked, {failed} failed")
        print(f"provenance: {json.dumps(prov, sort_keys=True)}")
        print(f"{'metric':<32} {'median':>14} {'unit':<7} "
              f"{'q1':>12} {'q3':>12} {'n':>3}")
        for entry in wanted:
            name, unit = entry["name"], entry["unit"]
            if name not in samples:
                die(f"metric {name} was not measured")
            values = samples[name]
            value = statistics.median(values)
            low, high = quartiles(values)
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:<32} {value:>14.6g} {unit:<7} {low:>12.6g} "
                  f"{high:>12.6g} {len(values):>3}")
        if args.trace:
            print("\nper-layer self time over the traced iterations:")
            print(self_time_table(result, traced))
        (workdir / "run.json").write_text(json.dumps(
            {"provenance": prov, "workload": args.workload,
             "attempted": attempted, "failed": failed,
             "metrics": metrics, "problems": problems}, indent=1) + "\n")

    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    correct = child.returncode == 0 and failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed if attempted else 1,
                      "metrics": metrics}))
    return 0 if result is not None else 1


if __name__ == "__main__":
    sys.exit(main())
